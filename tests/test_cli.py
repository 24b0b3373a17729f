"""Tests for the command-line interface (in-process, no subprocess)."""

import argparse

import pytest

from repro.cli import _run_engine, main
from repro.errors import ConfigurationError
from repro.workload.trace import Trace


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "t.npz"
    rc = main(
        [
            "trace",
            "generate",
            "--out",
            str(path),
            "--jobs",
            "12",
            "--span",
            "60",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    return path


class TestTraceCommands:
    def test_generate_writes_loadable_trace(self, tmp_path, capsys):
        path = tmp_path / "g.npz"
        rc = main(
            ["trace", "generate", "--out", str(path), "--jobs", "12", "--span", "60", "--seed", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "frac_queries_in_jobs" in out
        trace = Trace.load(path)
        assert trace.n_jobs >= 12

    def test_generate_with_speedup(self, tmp_path):
        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        main(["trace", "generate", "--out", str(a), "--jobs", "10", "--span", "100", "--seed", "1"])
        main(
            [
                "trace", "generate", "--out", str(b), "--jobs", "10", "--span", "100",
                "--seed", "1", "--speedup", "4",
            ]
        )
        ta, tb = Trace.load(a), Trace.load(b)
        assert tb.span == pytest.approx(ta.span / 4)

    def test_info(self, trace_file, capsys):
        assert main(["trace", "info", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "dataset:" in out
        assert "span:" in out


class TestRunCommands:
    def test_run_single_scheduler(self, trace_file, capsys):
        assert main(["run", "--trace", str(trace_file), "--scheduler", "liferaft2"]) == 0
        out = capsys.readouterr().out
        assert "throughput_qps" in out

    def test_run_with_cache_policy(self, trace_file, capsys):
        assert main(["run", "--trace", str(trace_file), "--cache", "slru"]) == 0

    def test_compare(self, trace_file, capsys):
        rc = main(
            [
                "compare", "--trace", str(trace_file),
                "--schedulers", "noshare", "jaws2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "noshare" in out and "jaws2" in out

    @pytest.mark.parametrize(
        "topology",
        [
            ["--nodes", "2", "--crash", "5:100:200"],
            ["--nodes", "4", "--shards", "2", "--crash", "7:100:200"],
        ],
        ids=["single", "sharded"],
    )
    def test_out_of_range_crash_node_is_a_configuration_error(
        self, trace_file, capsys, topology
    ):
        argv = ["run", "--trace", str(trace_file), "--scheduler", "jaws2", *topology]
        assert main(argv) == 2
        assert "names node" in capsys.readouterr().err

    def test_bad_fault_rate_is_a_configuration_error(self, trace_file, capsys):
        argv = ["run", "--trace", str(trace_file), "--disk-fault-rate", "1.5"]
        assert main(argv) == 2
        assert "transient_fault_rate must be in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--crash", "1:2"], "--crash expects NODE:DOWN:UP, got '1:2'"),
            (
                ["run", "--nodes", "2", "--replication", "3"],
                "--replication 3 needs at least that many nodes (got --nodes 2)",
            ),
            (
                ["run", "--nodes", "2", "--shards", "2", "--shard-crash-at", "1"],
                "--shard-crash-at expects SHARD:TIME, got '1'",
            ),
            (
                ["run", "--nodes", "2", "--shards", "3"],
                "--shards 3 needs at least that many nodes (got --nodes 2)",
            ),
            (["overload", "--flash-crowd", "1"], "invalid flash-crowd parameters: factor must be > 1"),
            (
                ["run", "--checkpoint-every-events", "0"],
                "--checkpoint-every-events and --checkpoint-every-seconds need --checkpoint-dir",
            ),
            (
                ["run", "--checkpoint-every-seconds", "5"],
                "--checkpoint-every-events and --checkpoint-every-seconds need --checkpoint-dir",
            ),
            (["run", "--task-timeout", "-1"], "task_timeout must be positive (or None)"),
            (
                ["run", "--scheduler", "noshare", "--scheduler", "jaws2", "--jobs", "-1"],
                "jobs must be >= 0",
            ),
            (["run", "--scheduler", "jaws2", "--jobs", "-1"], "jobs must be >= 0"),
        ],
        ids=[
            "crash", "replication", "shard-crash-at", "shards-over-nodes",
            "flash-crowd", "every-events-without-dir", "every-seconds-without-dir",
            "task-timeout", "negative-jobs", "negative-jobs-one-run",
        ],
    )
    def test_bad_user_value_is_a_configuration_error(self, trace_file, capsys, argv, message):
        argv = [argv[0], "--trace", str(trace_file), *argv[1:]]
        assert main(argv) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err

    def test_several_schedulers_run_on_a_cluster(self, trace_file, capsys):
        """Several ``--scheduler``s with cluster flags fan out like any
        other spec; each ``[name]`` block is that scheduler's own run."""
        argv = ["run", "--trace", str(trace_file), "--nodes", "2"]
        assert main([*argv, "--scheduler", "noshare", "--scheduler", "jaws2"]) == 0
        fanned = capsys.readouterr().out
        expected = ""
        for name in ("noshare", "jaws2"):
            assert main([*argv, "--scheduler", name]) == 0
            expected += f"[{name}]\n" + capsys.readouterr().out
        assert fanned == expected

    def test_several_schedulers_refuse_one_checkpoint_dir(
        self, trace_file, tmp_path, capsys
    ):
        """One checkpoint directory holds one run's recovery point:
        several ``--scheduler``s would overwrite each other's snapshots."""
        ckpt = tmp_path / "ck"
        argv = [
            "run", "--trace", str(trace_file), "--scheduler", "noshare",
            "--scheduler", "jaws2", "--checkpoint-dir", str(ckpt),
        ]
        assert main(argv) == 2
        assert "configuration error: --checkpoint-dir holds one run's recovery point" in (
            capsys.readouterr().err
        )
        assert not ckpt.exists()

    def test_seconds_cadence_under_shards_is_a_configuration_error(
        self, trace_file, tmp_path, capsys
    ):
        """Sharded barriers are counted in events: a seconds cadence is
        rejected, not replaced by 500-event barriers."""
        ckpt = tmp_path / "ck"
        argv = [
            "run", "--trace", str(trace_file), "--nodes", "4", "--shards", "2",
            "--checkpoint-dir", str(ckpt), "--checkpoint-every-seconds", "5",
        ]
        assert main(argv) == 2
        assert "configuration error: sharded runs checkpoint at cluster barriers" in (
            capsys.readouterr().err
        )
        assert not ckpt.exists()

    def test_zero_barrier_cadence_is_not_the_default(self, tmp_path):
        """``--checkpoint-every-events 0`` is rejected, not read as
        "unset" and replaced by the 500-event default, which a bare
        ``--checkpoint-dir`` gets for every run shape."""
        args = argparse.Namespace(
            cache=None, checkpoint_dir=str(tmp_path),
            checkpoint_every_events=0, checkpoint_every_seconds=None,
        )
        with pytest.raises(ConfigurationError, match="every_events must be >= 1"):
            _run_engine(args)
        args.checkpoint_every_events = None
        assert _run_engine(args).checkpoint.every_events == 500

    def test_unknown_scheduler_rejected(self, trace_file):
        with pytest.raises(SystemExit):
            main(["run", "--trace", str(trace_file), "--scheduler", "belady"])

    def test_engine_option_is_gone(self, trace_file):
        """There is one engine: ``--engine`` is an unknown option, a
        usage error (exit 2), on every subcommand that once took it."""
        for argv in (
            ["run", "--trace", str(trace_file), "--engine", "fast"],
            ["compare", "--trace", str(trace_file), "--engine", "fast"],
            ["experiment", "jobid", "--engine", "fast"],
            ["fuzz", "--runs", "1", "--engine", "fast"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


class TestExperimentCommand:
    def test_jobid_experiment(self, capsys):
        assert main(["experiment", "jobid"]) == 0
        out = capsys.readouterr().out
        assert "precision" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_bad_task_timeout_is_a_configuration_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "abc")
        assert main(["experiment", "fig10", "--scale", "small"]) == 2
        err = capsys.readouterr().err
        assert "configuration error: REPRO_TASK_TIMEOUT='abc' is not a number of seconds" in err

    def test_negative_task_timeout_is_a_configuration_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "-5")
        assert main(["experiment", "fig10", "--scale", "small"]) == 2
        err = capsys.readouterr().err
        assert "configuration error: REPRO_TASK_TIMEOUT='-5' must be a positive number" in err


class TestExperimentCsvExport:
    def test_fig12_csv(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli

        stub = {"ks": [1, 5], "throughput": [0.5, 0.6], "liferaft2": 0.4}
        monkeypatch.setitem(
            cli.EXPERIMENTS, "fig12", (lambda scale: stub, lambda d: "fig12 stub")
        )
        out = tmp_path / "fig12.csv"
        assert main(["experiment", "fig12", "--csv", str(out)]) == 0
        assert out.exists()
        assert "k,throughput_qps" in out.read_text()

    def test_unsupported_csv_skipped(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli

        monkeypatch.setitem(
            cli.EXPERIMENTS, "jobid", (lambda scale: {}, lambda d: "jobid stub")
        )
        out = tmp_path / "jobid.csv"
        assert main(["experiment", "jobid", "--csv", str(out)]) == 0
        assert not out.exists()
        assert "skipped" in capsys.readouterr().out
