"""The jawslint rule corpus: each determinism rule fires on the bad
snippets (exact rule id and line), stays silent on the good ones,
honors inline suppressions, and keeps ``src/repro`` clean at HEAD.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import RULES, lint_file, lint_paths, lint_source, main

REPO_ROOT = Path(__file__).resolve().parent.parent


def violations(code):
    return lint_source(textwrap.dedent(code), path="<snippet>")


def hits(code):
    """``[(rule, line), …]`` for a snippet."""
    return [(v.rule, v.line) for v in violations(code)]


# ---------------------------------------------------------------------------
# Bad corpus: every snippet must produce exactly the expected findings.
# ---------------------------------------------------------------------------
BAD = [
    # D001: wall-clock reads
    ("import time\nt = time.time()\n", [("D001", 2)]),
    ("import time\nt = time.perf_counter()\n", [("D001", 2)]),
    ("import time as walltime\nt = walltime.monotonic_ns()\n", [("D001", 2)]),
    ("from time import perf_counter\nt = perf_counter()\n", [("D001", 2)]),
    ("import datetime\nd = datetime.datetime.now()\n", [("D001", 2)]),
    ("from datetime import datetime\nd = datetime.utcnow()\n", [("D001", 2)]),
    # D002: unseeded randomness
    ("import random\nx = random.random()\n", [("D002", 2)]),
    ("import random\nrandom.shuffle(items)\n", [("D002", 2)]),
    ("from random import choice\nx = choice(items)\n", [("D002", 2)]),
    ("import numpy as np\nx = np.random.rand(3)\n", [("D002", 2)]),
    ("import numpy\nx = numpy.random.randint(0, 5)\n", [("D002", 2)]),
    # D003: unordered iteration feeding an ordering decision
    ("for x in {1, 2, 3}:\n    schedule(x)\n", [("D003", 1)]),
    ("for x in {a for a in items}:\n    schedule(x)\n", [("D003", 1)]),
    ("for x in set(items):\n    schedule(x)\n", [("D003", 1)]),
    ("for k in mapping.keys():\n    schedule(k)\n", [("D003", 1)]),
    ("order = [f(x) for x in frozenset(items)]\n", [("D003", 1)]),
    (
        "best = max(pool.items(), key=lambda kv: kv[1])\n",
        [("D003", 1)],
    ),
    (
        "worst = min(scores.values(), key=lambda v: v.cost)\n",
        [("D003", 1)],
    ),
    # D004: mutable default arguments
    ("def f(items=[]):\n    return items\n", [("D004", 1)]),
    ("def f(cfg={}):\n    return cfg\n", [("D004", 1)]),
    ("def f(seen=set()):\n    return seen\n", [("D004", 1)]),
    ("def f(*, tail=[1]):\n    return tail\n", [("D004", 1)]),
    ("async def f(items=[]):\n    return items\n", [("D004", 1)]),
    # D005: float equality against the virtual clock
    ("if clock == deadline:\n    fire()\n", [("D005", 1)]),
    ("if now != t_end:\n    wait()\n", [("D005", 1)]),
    ("done = sim_time == horizon\n", [("D005", 1)]),
    ("if self.virtual_clock == 0.5:\n    tick()\n", [("D005", 1)]),
]


@pytest.mark.parametrize("code,expected", BAD, ids=[e[0][0] + f"-{i}" for i, e in enumerate(BAD)])
def test_bad_snippets_flagged(code, expected):
    assert hits(code) == expected


# ---------------------------------------------------------------------------
# Good corpus: none of these may fire.
# ---------------------------------------------------------------------------
GOOD = [
    # Seeded randomness is the sanctioned pattern.
    "import random\nrng = random.Random(42)\nx = rng.random()\n",
    "import numpy as np\nrng = np.random.default_rng(7)\nx = rng.integers(0, 5)\n",
    "import numpy as np\ng = np.random.Generator(np.random.PCG64(3))\n",
    # Virtual time lives on the event heap, not the wall clock.
    "def advance(self, dt):\n    self.clock += dt\n",
    # Sorted set iteration is fine.
    "for x in sorted({1, 2, 3}):\n    schedule(x)\n",
    "for x in sorted(set(items)):\n    schedule(x)\n",
    # Membership tests and set algebra are not iteration.
    "present = x in {1, 2, 3}\n",
    "extra = set(a) - set(b)\n",
    # dict iteration is insertion-ordered in Python — allowed.
    "for k in mapping:\n    schedule(k)\n",
    "for k, v in mapping.items():\n    schedule(k)\n",
    # max with a total-order (tuple) tiebreak key.
    "best = max(pool.items(), key=lambda kv: (kv[1], -kv[0]))\n",
    # Immutable defaults.
    "def f(x=0, name='a', tail=(1, 2), flag=None):\n    return x\n",
    # Inequalities against the clock are meaningful; equality is not.
    "if clock >= deadline:\n    fire()\n",
    "if now < t_end:\n    wait()\n",
    # Unrelated float equality is outside D005's scope.
    "if weight == 1.0:\n    pass\n",
    # A local function named time() is not the stdlib wall clock.
    "def time():\n    return 0\nt = time()\n",
]


@pytest.mark.parametrize("code", GOOD, ids=[f"good-{i}" for i in range(len(GOOD))])
def test_good_snippets_clean(code):
    assert hits(code) == []


# ---------------------------------------------------------------------------
# D006: parallel-worker purity (path-scoped to parallel packages)
# ---------------------------------------------------------------------------
PARALLEL_PATH = "src/repro/parallel/pool.py"


def parallel_hits(code):
    return [
        (v.rule, v.line)
        for v in lint_source(textwrap.dedent(code), path=PARALLEL_PATH)
    ]


def test_d006_flags_process_identity_in_parallel_scope():
    code = "import os\npid = os.getpid()\n"
    assert parallel_hits(code) == [("D006", 2)]


def test_d006_flags_thread_identity_in_parallel_scope():
    code = "import threading\ni = threading.get_ident()\n"
    assert parallel_hits(code) == [("D006", 2)]


def test_d006_flags_current_process_via_from_import():
    code = (
        "from multiprocessing import current_process\n"
        "name = current_process().name\n"
    )
    assert parallel_hits(code) == [("D006", 2)]


def test_d006_wall_clock_flagged_on_top_of_d001():
    code = "import time\nt = time.perf_counter()\n"
    assert parallel_hits(code) == [("D001", 2), ("D006", 2)]


def test_d006_silent_outside_parallel_packages():
    code = "import os\npid = os.getpid()\n"
    assert hits(code) == []
    assert [
        (v.rule, v.line)
        for v in lint_source(code, path="src/repro/engine/runner.py")
    ] == []


def test_d006_inline_suppression():
    code = "import os\npid = os.getpid()  # jawslint: disable=D006 - log tag only\n"
    assert parallel_hits(code) == []


def test_d006_suppression_is_rule_specific():
    # Hiding D001 still leaves the D006 finding on the same line.
    code = "import time\nt = time.time()  # jawslint: disable=D001\n"
    assert parallel_hits(code) == [("D006", 2)]


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------
def test_per_line_suppression():
    code = "import time\nt = time.time()  # jawslint: disable=D001\n"
    assert hits(code) == []


def test_per_line_suppression_with_reason():
    code = (
        "import time\n"
        "t = time.time()  # jawslint: disable=D001 - profiling only\n"
    )
    assert hits(code) == []


def test_suppression_is_rule_specific():
    # Suppressing D002 does not hide a D001 finding on the same line.
    code = "import time\nt = time.time()  # jawslint: disable=D002\n"
    assert hits(code) == [("D001", 2)]


def test_per_line_suppress_all_rules():
    code = "import time\nt = time.time()  # jawslint: disable\n"
    assert hits(code) == []


def test_suppression_only_covers_its_line():
    code = (
        "import time\n"
        "a = time.time()  # jawslint: disable=D001\n"
        "b = time.time()\n"
    )
    assert hits(code) == [("D001", 3)]


def test_file_wide_suppression():
    code = (
        "# jawslint: disable-file=D001\n"
        "import time\n"
        "a = time.time()\n"
        "b = time.monotonic()\n"
    )
    assert hits(code) == []


def test_file_wide_suppression_leaves_other_rules():
    code = (
        "# jawslint: disable-file=D001\n"
        "import time\n"
        "import random\n"
        "a = time.time()\n"
        "b = random.random()\n"
    )
    assert hits(code) == [("D002", 5)]


# ---------------------------------------------------------------------------
# File/path plumbing and the CLI entry point
# ---------------------------------------------------------------------------
def test_syntax_error_reported_as_e000(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    found = lint_file(bad)
    assert [v.rule for v in found] == ["E000"]


def test_lint_paths_recurses_and_sorts(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("import time\nt = time.time()\n")
    (tmp_path / "a.py").write_text("import random\nx = random.random()\n")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "c.py").write_text("import time\nt = time.time()\n")
    found = lint_paths([tmp_path])
    assert [(Path(v.path).name, v.rule) for v in found] == [("a.py", "D002"), ("b.py", "D001")]


def test_main_exit_codes(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt = time.time()\n")
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main([str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "D001" in out and "dirty.py" in out
    assert main([str(clean)]) == 0


def test_main_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out


def test_cli_lint_subcommand(tmp_path):
    from repro.cli import main as cli_main

    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nx = random.random()\n")
    assert cli_main(["lint", str(dirty)]) == 1
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert cli_main(["lint", str(clean)]) == 0


# ---------------------------------------------------------------------------
# D007: unseeded RNG construction in fuzz scenario code
# ---------------------------------------------------------------------------
FUZZ_PATH = "src/repro/fuzz/build.py"


def fuzz_hits(code, path=FUZZ_PATH):
    return [(v.rule, v.line) for v in lint_source(textwrap.dedent(code), path=path)]


D007_BAD = [
    "import random\nrng = random.Random()\n",
    "import numpy as np\nrng = np.random.default_rng()\n",
    "import numpy\nrng = numpy.random.default_rng()\n",
    "import numpy as np\nrng = np.random.RandomState()\n",
]


@pytest.mark.parametrize("code", D007_BAD)
def test_d007_flags_unseeded_rng_in_fuzz_scope(code):
    assert fuzz_hits(code) == [("D007", 2)]


def test_d007_flags_system_random_even_seeded():
    # OS entropy can never be reproduced, seed argument or not.
    code = "import random\nrng = random.SystemRandom(42)\n"
    assert fuzz_hits(code) == [("D007", 2)]


def test_d007_silent_on_seeded_constructors():
    code = (
        "import random\n"
        "import numpy as np\n"
        'a = random.Random(f"{seed}:scenario")\n'
        "b = np.random.default_rng(entry_seed)\n"
        "c = np.random.RandomState(7)\n"
    )
    assert fuzz_hits(code) == []


@pytest.mark.parametrize("code", D007_BAD)
def test_d007_scoped_to_fuzz_paths_only(code):
    assert fuzz_hits(code, path="src/repro/engine/simulator.py") == []


def test_d007_suppression():
    code = "import random\nrng = random.Random()  # jawslint: disable=D007 - doc example\n"
    assert fuzz_hits(code) == []


def test_d007_listed_in_rules():
    assert "D007" in RULES
    assert "fuzz" in RULES["D007"]


# ---------------------------------------------------------------------------
# The tree itself must stay clean (suppressions included).
# ---------------------------------------------------------------------------
def test_source_tree_is_clean():
    """Per-file pass only: every D001–D007 finding is fixed or carries
    an inline suppression.  The whole-program passes plus the baseline
    ledger are covered by tests/test_jawslint_interproc.py."""
    found = lint_paths([REPO_ROOT / "src" / "repro", REPO_ROOT / "tests"])
    assert found == [], "\n".join(v.render() for v in found)


def test_full_analysis_is_clean_with_baseline():
    """What CI runs: both layers over the whole tree, gated by the
    checked-in suppression ledger."""
    from repro.analysis.baseline import Baseline
    from repro.analysis.lint import run_analysis

    report = run_analysis(
        [REPO_ROOT / "src" / "repro", REPO_ROOT / "tests"],
        baseline=Baseline.load(REPO_ROOT / "jawslint-baseline.json"),
    )
    assert report.violations == [], "\n".join(
        v.render() for v in report.violations
    )
    assert report.baseline_unused == []
