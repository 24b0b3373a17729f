"""Corpus for the whole-program determinism passes (D100/D200/D300
families), the baseline ledger, the machine-readable report formats,
and the analyzer's own runtime budget.

Mirrors the per-file corpus in ``tests/test_jawslint.py``: every rule
family has bad fixtures that must fire (exact rule, module, line),
good fixtures that must stay silent, and a seeded-bug test that plants
the regression the rule was built for and asserts it is caught.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.baseline import Baseline, BaselineError
from repro.analysis.callgraph import build_call_graph
from repro.analysis.lint import RULES, main, run_analysis
from repro.analysis.project import ProjectModel, module_name_for_path, scope_family
from repro.analysis.rules_interproc import InterprocConfig, run_interproc

REPO_ROOT = Path(__file__).resolve().parent.parent


def interproc(sources, config=None):
    """``[(rule, module, line), …]`` from the whole-program passes over
    a ``{module name: source}`` fixture tree."""
    model = ProjectModel.from_sources(
        {name: textwrap.dedent(src) for name, src in sources.items()}
    )
    violations = run_interproc(model, config)
    out = []
    for violation in violations:
        module = violation.path[: -len(".py")].replace("/", ".")
        out.append((violation.rule, module, violation.line))
    return out


def rules_only(found):
    return [rule for rule, _, _ in found]


# ---------------------------------------------------------------------------
# Project model basics
# ---------------------------------------------------------------------------
def test_module_name_for_path():
    assert module_name_for_path(Path("src/repro/engine/faults.py")) == "repro.engine.faults"
    assert module_name_for_path(Path("src/repro/fuzz/__init__.py")) == "repro.fuzz"
    assert module_name_for_path(Path("scripts/record_experiments.py")) is None


def test_scope_families():
    assert scope_family("repro.fuzz.build") == "fuzz"
    assert scope_family("repro.engine.faults") == "fault"
    assert scope_family("repro.engine.simulator") == "engine"
    assert scope_family("repro.core.jaws") == "engine"


def test_attribute_inventory_and_call_graph():
    model = ProjectModel.from_sources(
        {
            "repro.engine.simulator": textwrap.dedent(
                """
                from repro.core.sched import step

                class Simulator:
                    def __init__(self):
                        self.clock = 0.0
                        self._seq = 0

                    def run(self):
                        self._seq += 1
                        return step(self.clock)
                """
            ),
            "repro.core.sched": "def step(t):\n    return t\n",
        }
    )
    cls = model.classes["repro.engine.simulator.Simulator"]
    assert {a.name for a in cls.attr_assigns} == {"clock", "_seq"}
    graph = build_call_graph(model)
    reachable = graph.reachable_from(["repro.engine.simulator.Simulator.run"])
    assert "repro.core.sched.step" in reachable


# ---------------------------------------------------------------------------
# D100: RNG stream provenance (cross-subsystem draws)
# ---------------------------------------------------------------------------
FAULTS_WITH_STREAM = """
    import random

    class FaultInjector:
        def __init__(self, seed):
            self._rng = random.Random(seed)

        def draw(self):
            return self._rng.random()
"""


def test_d100_flags_cross_subsystem_attribute_draw():
    found = interproc(
        {
            "repro.engine.faults": FAULTS_WITH_STREAM,
            "repro.cluster.balance": """
                def rebalance(injector):
                    return injector._rng.random()
            """,
        }
    )
    assert ("D100", "repro.cluster.balance", 3) in found


def test_d100_flags_draw_on_stream_received_as_parameter():
    found = interproc(
        {
            "repro.workload.generator": """
                import random
                from repro.grid.noise import perturb

                def generate(seed):
                    rng = random.Random(seed)
                    return perturb(rng)
            """,
            "repro.grid.noise": """
                def perturb(rng):
                    return rng.random()
            """,
        }
    )
    assert ("D100", "repro.grid.noise", 3) in found


def test_d100_silent_within_owning_subsystem():
    found = interproc(
        {
            "repro.engine.faults": FAULTS_WITH_STREAM,
            "repro.engine.recover": """
                def jitter(injector):
                    return injector._rng.random()
            """,
        }
    )
    assert rules_only(found) == []


def test_d100_silent_on_local_streams():
    found = interproc(
        {
            "repro.workload.generator": """
                import numpy as np

                def make(seed):
                    rng = np.random.default_rng(seed)
                    return rng.integers(0, 5)
            """,
        }
    )
    assert rules_only(found) == []


def test_d100_seeded_bug_cross_stream_contamination():
    """Plant the exact bug the rule exists for: overload code reaching
    into the fault injector's seeded stream.  One extra draw there
    shifts every subsequent fault decision — a determinism race that
    per-file lint can never see."""
    clean = {
        "repro.engine.faults": FAULTS_WITH_STREAM,
        "repro.overload.shedding": """
            def pick_victim(queue):
                return queue[0]
        """,
    }
    assert rules_only(interproc(clean)) == []
    planted = dict(clean)
    planted["repro.overload.shedding"] = """
        def pick_victim(queue, injector):
            index = int(injector._rng.random() * len(queue))
            return queue[index]
    """
    assert "D100" in rules_only(interproc(planted))


# ---------------------------------------------------------------------------
# D101: RNG streams crossing engine/fault/fuzz scope families
# ---------------------------------------------------------------------------
def test_d101_flags_fuzz_stream_handed_to_engine():
    found = interproc(
        {
            "repro.fuzz.build": """
                import random
                from repro.engine.warp import warp_trace

                def build(seed):
                    rng = random.Random(seed)
                    return warp_trace(rng)
            """,
            "repro.engine.warp": """
                def warp_trace(rng):
                    return rng
            """,
        }
    )
    assert ("D101", "repro.fuzz.build", 7) in found


def test_d101_silent_within_one_scope_family():
    found = interproc(
        {
            "repro.fuzz.build": """
                import random
                from repro.fuzz.waves import make_wave

                def build(seed):
                    rng = random.Random(seed)
                    return make_wave(rng)
            """,
            "repro.fuzz.waves": """
                def make_wave(rng):
                    return rng.random()
            """,
        }
    )
    assert "D101" not in rules_only(found)


# ---------------------------------------------------------------------------
# D200: checkpoint state-capture completeness (unpicklable attributes)
# ---------------------------------------------------------------------------
def test_d200_flags_lambda_on_snapshot_root():
    found = interproc(
        {
            "repro.engine.simulator": """
                class Simulator:
                    def __init__(self):
                        self.clock = 0.0
                        self._on_done = lambda result: result
            """,
        }
    )
    assert ("D200", "repro.engine.simulator", 5) in found


@pytest.mark.parametrize(
    "value,label",
    [
        ("(x for x in [])", "generator"),
        ("open('log.txt')", "open file"),
        ("threading.Lock()", "lock"),
    ],
)
def test_d200_flags_other_unpicklable_kinds(value, label):
    found = interproc(
        {
            "repro.engine.simulator": f"""
                import threading

                class Simulator:
                    def __init__(self):
                        self._bad = {value}
            """,
        }
    )
    assert rules_only(found) == ["D200"], label


def test_d200_follows_attribute_types_transitively():
    """The participant set is the closure of the snapshot roots: an
    unpicklable attribute two hops from the Simulator still fires."""
    found = interproc(
        {
            "repro.engine.simulator": """
                from repro.storage.index import ClusteredIndex

                class Simulator:
                    def __init__(self):
                        self.index = ClusteredIndex()
            """,
            "repro.storage.index": """
                class ClusteredIndex:
                    def __init__(self):
                        self._scan_cb = lambda key: key
            """,
        }
    )
    assert ("D200", "repro.storage.index", 4) in found


def test_d200_respects_capture_exclusions():
    """Attributes excluded from ``_capture_state`` (the checkpoint
    manager holds open files by design) never make their class a
    participant."""
    found = interproc(
        {
            "repro.engine.simulator": """
                from repro.recovery.checkpoint import CheckpointManager

                class Simulator:
                    def __init__(self):
                        self.clock = 0.0
                        self._checkpointer = CheckpointManager()
            """,
            "repro.recovery.checkpoint": """
                class CheckpointManager:
                    def __init__(self):
                        self._wal = open('wal.log', 'a')
            """,
        }
    )
    assert rules_only(found) == []


def test_d200_not_flagged_outside_participant_closure():
    found = interproc(
        {
            "repro.experiments.report": """
                class TableFormatter:
                    def __init__(self):
                        self._fmt = lambda row: str(row)
            """,
        }
    )
    assert rules_only(found) == []


# ---------------------------------------------------------------------------
# D201: explicit __getstate__/__setstate__ completeness
# ---------------------------------------------------------------------------
COMPLETE_CODEC = """
    class BPlusTree:
        def __init__(self, order):
            self._order = order
            self._size = 0

        def insert(self, key):
            self._size += 1

        def __getstate__(self):
            return {"order": self._order, "size": self._size}

        def __setstate__(self, state):
            self._order = state["order"]
            self._size = state["size"]
"""


def test_d201_silent_on_complete_codec():
    assert rules_only(interproc({"repro.storage.btree": COMPLETE_CODEC})) == []


def test_d201_flags_attribute_missing_from_setstate():
    """The static analogue of the PR 3 BPlusTree bug: a new attribute
    is added to the class but the explicit snapshot codec never
    restores it, so crash/resume silently drops state."""
    found = interproc(
        {
            "repro.storage.btree": """
                class BPlusTree:
                    def __init__(self, order):
                        self._order = order
                        self._height = 1

                    def __getstate__(self):
                        return {"order": self._order}

                    def __setstate__(self, state):
                        self._order = state["order"]
            """,
        }
    )
    assert ("D201", "repro.storage.btree", 5) in found


def test_d201_exempts_dict_copy_getstate():
    """A ``dict(self.__dict__)``-style snapshot is complete by
    construction (the sanitizer's back-reference pattern)."""
    found = interproc(
        {
            "repro.analysis.sanitizer": """
                class SimulationSanitizer:
                    def __init__(self, sim):
                        self._sim = sim
                        self.checks = 0

                    def __getstate__(self):
                        state = dict(self.__dict__)
                        state["_sim"] = None
                        return state

                    def __setstate__(self, state):
                        self.__dict__.update(state)
            """,
        }
    )
    assert rules_only(found) == []


def test_d200_regression_fresh_unpicklable_attr_via_fixture_module(tmp_path):
    """Satellite regression for the PR 3 class of bug, end to end
    through the path-based model builder: a checkpoint-participating
    class in a fixture package gains a fresh unpicklable attribute and
    D200 must catch it on the next analyzer run."""
    pkg = tmp_path / "repro"
    (pkg / "engine").mkdir(parents=True)
    (pkg / "storage").mkdir()
    (pkg / "engine" / "simulator.py").write_text(
        textwrap.dedent(
            """
            from repro.storage.btree import BPlusTree

            class Simulator:
                def __init__(self):
                    self.clock = 0.0
                    self.index = BPlusTree()
            """
        )
    )
    btree = pkg / "storage" / "btree.py"
    btree.write_text(
        textwrap.dedent(
            """
            class BPlusTree:
                def __init__(self):
                    self._size = 0
            """
        )
    )
    model = ProjectModel.from_paths([tmp_path])
    assert run_interproc(model) == []

    # Plant the fresh attribute on the checkpoint-participating class.
    btree.write_text(
        btree.read_text()
        + "        self._compare = lambda a, b: a < b\n"
    )
    planted = run_interproc(ProjectModel.from_paths([tmp_path]))
    assert [v.rule for v in planted] == ["D200"]
    assert "_compare" in planted[0].message


# ---------------------------------------------------------------------------
# D300: transitive parallel-worker purity
# ---------------------------------------------------------------------------
def test_d300_flags_wall_clock_reachable_from_worker():
    found = interproc(
        {
            "repro.parallel.pool": """
                from repro.engine.runner import run_trace

                def _execute_spec(spec):
                    return run_trace(spec)
            """,
            "repro.engine.runner": """
                import time

                def run_trace(spec):
                    started = time.time()
                    return started
            """,
        }
    )
    assert ("D300", "repro.engine.runner", 5) in found


def test_d300_follows_dynamic_dispatch_two_hops():
    found = interproc(
        {
            "repro.parallel.pool": """
                from repro.engine.runner import run_trace

                def _execute_spec(spec):
                    return run_trace(spec)
            """,
            "repro.engine.runner": """
                def run_trace(spec):
                    return spec.scheduler.next_batch()
            """,
            "repro.core.sched": """
                import os

                class Scheduler:
                    def next_batch(self):
                        return os.getpid()
            """,
        }
    )
    assert ("D300", "repro.core.sched", 6) in found


def test_d300_follows_hoisted_bound_method():
    """Hoisting ``self.cache.access`` into a local before a hot loop
    must keep the call edge: the local dispatches on ``access``."""
    found = interproc(
        {
            "repro.parallel.pool": """
                from repro.engine.runner import run_trace

                def _execute_spec(spec):
                    return run_trace(spec)
            """,
            "repro.engine.runner": """
                def run_trace(spec):
                    access, other = spec.cache.access, 0
                    for atom in spec.atoms:
                        access(atom)
            """,
            "repro.storage.buffer": """
                import time

                class BufferCache:
                    def access(self, atom):
                        return time.perf_counter_ns()
            """,
        }
    )
    assert ("D300", "repro.storage.buffer", 6) in found


def test_call_graph_hoisted_locals_resolve_by_attribute_name():
    model = ProjectModel.from_sources(
        {
            "repro.engine.executor": textwrap.dedent(
                """
                class BatchExecutor:
                    def execute(self, batch):
                        access = self.cache.access
                        read: object = self.disk.read_atom
                        for atom in batch:
                            if not access(atom):
                                read(atom)
                """
            ),
            "repro.storage.buffer": textwrap.dedent(
                """
                class BufferCache:
                    def access(self, a):
                        return a
                """
            ),
            "repro.storage.disk": textwrap.dedent(
                """
                class DiskModel:
                    def read_atom(self, a):
                        return a
                """
            ),
        }
    )
    callees = build_call_graph(model).callees("repro.engine.executor.BatchExecutor.execute")
    assert callees == {
        "repro.storage.buffer.BufferCache.access",
        "repro.storage.disk.DiskModel.read_atom",
    }


def test_d300_flags_module_level_rng_in_closure():
    found = interproc(
        {
            "repro.parallel.pool": """
                from repro.engine.runner import run_trace

                def _execute_spec(spec):
                    return run_trace(spec)
            """,
            "repro.engine.runner": """
                import random

                def run_trace(spec):
                    return random.random()
            """,
        }
    )
    assert ("D300", "repro.engine.runner", 5) in found


def test_d300_silent_on_pure_closure():
    found = interproc(
        {
            "repro.parallel.pool": """
                from repro.engine.runner import run_trace

                def _execute_spec(spec):
                    return run_trace(spec)
            """,
            "repro.engine.runner": """
                import random

                def run_trace(spec):
                    rng = random.Random(spec)
                    return rng.random()
            """,
        }
    )
    assert rules_only(found) == []


def test_d300_silent_on_impurity_outside_closure():
    """A wall-clock read in code no worker can reach is D001's business
    (per-file pass), not D300's."""
    found = interproc(
        {
            "repro.parallel.pool": """
                def _execute_spec(spec):
                    return spec
            """,
            "repro.experiments.bench": """
                import time

                def run_bench():
                    return time.perf_counter()
            """,
        }
    )
    assert rules_only(found) == []


def test_d300_seeded_bug_deep_wall_clock():
    """Plant a wall-clock read three layers below the worker entry
    point and assert the closure still reaches it."""
    clean = {
        "repro.parallel.pool": """
            from repro.engine.runner import run_trace

            def _execute_spec(spec):
                return run_trace(spec)
        """,
        "repro.engine.runner": """
            from repro.engine.simulator import Simulator

            def run_trace(spec):
                return Simulator(spec).run()
        """,
        "repro.engine.simulator": """
            from repro.storage.disk import DiskModel

            class Simulator:
                def __init__(self, spec):
                    self.disk = DiskModel()

                def run(self):
                    return self.disk.read(0)
        """,
        "repro.storage.disk": """
            class DiskModel:
                def read(self, addr):
                    return addr
        """,
    }
    assert rules_only(interproc(clean)) == []
    planted = dict(clean)
    planted["repro.storage.disk"] = """
        import time

        class DiskModel:
            def read(self, addr):
                return addr + time.monotonic()
    """
    assert "D300" in rules_only(interproc(planted))


# ---------------------------------------------------------------------------
# Inline suppressions apply to whole-program findings too
# ---------------------------------------------------------------------------
def test_interproc_finding_honors_inline_suppression(tmp_path):
    pkg = tmp_path / "repro"
    (pkg / "parallel").mkdir(parents=True)
    (pkg / "engine").mkdir()
    (pkg / "parallel" / "pool.py").write_text(
        "from repro.engine.runner import run_trace\n"
        "def _execute_spec(spec):\n"
        "    return run_trace(spec)\n"
    )
    runner = pkg / "engine" / "runner.py"
    runner.write_text(
        "import time\n"
        "def run_trace(spec):\n"
        "    return time.time()\n"
    )
    dirty = run_analysis([tmp_path], baseline=None)
    assert "D300" in [v.rule for v in dirty.violations]
    runner.write_text(
        "import time\n"
        "def run_trace(spec):\n"
        "    return time.time()  # jawslint: disable=D001,D300 - profiling only\n"
    )
    clean = run_analysis([tmp_path], baseline=None)
    assert [v.rule for v in clean.violations] == []


# ---------------------------------------------------------------------------
# Baseline ledger
# ---------------------------------------------------------------------------
def _write_fixture_tree(tmp_path):
    pkg = tmp_path / "repro"
    (pkg / "parallel").mkdir(parents=True)
    (pkg / "engine").mkdir()
    (pkg / "parallel" / "pool.py").write_text(
        "from repro.engine.runner import run_trace\n"
        "def _execute_spec(spec):\n"
        "    return run_trace(spec)\n"
    )
    (pkg / "engine" / "runner.py").write_text(
        "import time\n"
        "def run_trace(spec):\n"
        "    return time.time()\n"
    )
    return tmp_path


def test_baseline_requires_rationale(tmp_path):
    ledger = tmp_path / "baseline.json"
    ledger.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {
                        "rule": "D300",
                        "path": "repro/engine/runner.py",
                        "symbol": "run_trace",
                        "rationale": "   ",
                    }
                ],
            }
        )
    )
    with pytest.raises(BaselineError, match="empty rationale"):
        Baseline.load(ledger)


def test_baseline_suppresses_by_rule_path_symbol(tmp_path):
    tree = _write_fixture_tree(tmp_path)
    ledger = tmp_path / "baseline.json"
    ledger.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {
                        "rule": "D300",
                        "path": "repro/engine/runner.py",
                        "symbol": "run_trace",
                        "rationale": "fixture: profiling-only wall clock",
                    },
                    {
                        "rule": "D001",
                        "path": "repro/engine/runner.py",
                        "symbol": "run_trace",
                        "rationale": "fixture: profiling-only wall clock",
                    },
                ],
            }
        )
    )
    report = run_analysis([tree], baseline=Baseline.load(ledger))
    assert report.violations == []
    assert report.baseline_suppressed == 2
    assert report.baseline_unused == []


def test_baseline_reports_unused_entries(tmp_path):
    tree = _write_fixture_tree(tmp_path)
    (tree / "repro" / "engine" / "runner.py").write_text(
        "def run_trace(spec):\n    return spec\n"
    )
    ledger = tmp_path / "baseline.json"
    ledger.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {
                        "rule": "D300",
                        "path": "repro/engine/runner.py",
                        "symbol": "run_trace",
                        "rationale": "fixture: stale entry",
                    }
                ],
            }
        )
    )
    report = run_analysis([tree], baseline=Baseline.load(ledger))
    assert report.violations == []
    assert report.baseline_suppressed == 0
    assert report.baseline_unused == [
        {"rule": "D300", "path": "repro/engine/runner.py", "symbol": "run_trace"}
    ]


def test_main_rejects_malformed_baseline(tmp_path, capsys):
    ledger = tmp_path / "baseline.json"
    ledger.write_text("{not json")
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main([str(clean), "--baseline", str(ledger)]) == 2
    assert "baseline" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Machine-readable report formats
# ---------------------------------------------------------------------------
def test_format_json_round_trip(tmp_path, capsys):
    tree = _write_fixture_tree(tmp_path)
    exit_code = main([str(tree), "--format", "json", "--no-baseline"])
    assert exit_code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool"] == "jawslint"
    assert payload["rules"] == dict(sorted(RULES.items()))
    assert payload["timing_s"] >= 0.0
    assert payload["files"] == 2
    found = {(v["rule"], v["symbol"]) for v in payload["violations"]}
    assert ("D300", "run_trace") in found
    assert ("D001", "run_trace") in found
    for violation in payload["violations"]:
        assert set(violation) == {"path", "line", "col", "rule", "symbol", "message"}


def test_format_json_out_file_keeps_text_stdout(tmp_path, capsys):
    tree = _write_fixture_tree(tmp_path)
    out = tmp_path / "report.json"
    exit_code = main(
        [str(tree), "--format", "json", "--out", str(out), "--no-baseline"]
    )
    assert exit_code == 1
    stdout = capsys.readouterr().out
    assert "D300" in stdout and not stdout.lstrip().startswith("{")
    payload = json.loads(out.read_text())
    assert payload["baseline"] is None
    assert len(payload["violations"]) == 2


def test_format_sarif_structure(tmp_path, capsys):
    tree = _write_fixture_tree(tmp_path)
    exit_code = main([str(tree), "--format", "sarif", "--no-baseline"])
    assert exit_code == 1
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "jawslint"
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} == set(RULES)
    rule_ids = {result["ruleId"] for result in run["results"]}
    assert rule_ids == {"D001", "D300"}
    location = run["results"][0]["locations"][0]["physicalLocation"]
    assert location["region"]["startLine"] >= 1


def test_json_report_records_baseline_stats(tmp_path, capsys):
    tree = _write_fixture_tree(tmp_path)
    ledger = tmp_path / "baseline.json"
    ledger.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {
                        "rule": "D300",
                        "path": "repro/engine/runner.py",
                        "symbol": "run_trace",
                        "rationale": "fixture: profiling-only wall clock",
                    },
                    {
                        "rule": "D001",
                        "path": "repro/engine/runner.py",
                        "symbol": "run_trace",
                        "rationale": "fixture: profiling-only wall clock",
                    },
                ],
            }
        )
    )
    exit_code = main(
        [str(tree), "--format", "json", "--baseline", str(ledger)]
    )
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == []
    assert payload["baseline"]["suppressed"] == 2
    assert payload["baseline"]["unused"] == []


# ---------------------------------------------------------------------------
# The tree itself, and the analyzer's runtime budget
# ---------------------------------------------------------------------------
def test_whole_tree_interproc_findings_covered_by_baseline():
    """Every whole-program finding on ``src/repro`` at HEAD is either
    fixed or carries a written rationale in the checked-in ledger —
    and the ledger holds no stale entries."""
    baseline = Baseline.load(REPO_ROOT / "jawslint-baseline.json")
    report = run_analysis([REPO_ROOT / "src" / "repro"], baseline=baseline)
    assert report.violations == [], "\n".join(v.render() for v in report.violations)
    assert report.baseline_unused == []
    assert report.baseline_suppressed > 0  # the ledger is load-bearing


def test_analyzer_runtime_budget():
    """The whole-tree analysis must stay well under the 10 s CI budget;
    ``timing_s`` is recorded in the JSON report so regressions are
    visible in artifacts before they bite."""
    report = run_analysis(
        [REPO_ROOT / "src", REPO_ROOT / "tests"],
        baseline=Baseline.load(REPO_ROOT / "jawslint-baseline.json"),
    )
    assert report.timing_s < 10.0
    assert report.files > 80
