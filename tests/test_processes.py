"""The command line's outputs, checked across interpreter processes: a seed
must give the same bytes whatever the hash seed and whatever an earlier
command left in the process's kept structures.

Each case of ``COMMANDS`` is one ``edgedel`` command line.  Two children run
the whole table through ``cli.main``, writing what each command printed,
wrote to its report file and returned into one JSON file each:

- under ``PYTHONHASHSEED=0``, the fit golden's cases first (cold), then the
  table twice in order, then the fit golden's cases twice more (warm);
- under ``PYTHONHASHSEED=5``, the table once in reverse order, so that each
  command meets a different warm process.

Both children also record how their Python orders each spec's
``selections`` and ``methods`` as a set: the cross-seed cases can only
catch a loop over such a set if the two hash seeds order every one of them
differently, and a test checks that they do.

The ``COLD`` cases also run in a fresh ``python -m edgedel.cli`` each, and
``GOLDEN`` names the cases whose output ``tests/data`` pins across commits.
That makes seven interpreter starts, with the closed-pipe case.

Run alone with ``python -m pytest tests/test_processes.py``.  Run as a
script, this file is the child: ``test_processes.py RESULTS CASE...``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edgedel import approximate_network, divergence, harness, netio
from edgedel.cli import main

import record_fit_golden as fit_golden
import record_report_golden as report_golden

ROOT = Path(__file__).resolve().parent.parent

# every child is killed once it has run this long
TIMEOUT_S = 120

# the command lines, each with the exit status it must end with; each runs in
# the ``inputs`` fixture's directory, and "{out}" stands for its report file
COMMANDS = {
    "grid": ("experiment grid.spec --out {out}", 0),
    # 3-state edge vectors through the fit's edge-table writes
    "chain3": ("experiment chain3.spec --out {out}", 0),
    # a file network: loaded once, only the evidence varies per instance
    "gridfile": ("experiment gridfile.spec --out {out}", 0),
    # the report row reads Pr'(e') as the simultaneous tree gives it after the last sweep
    "approx-ed-bp-simultaneous": (
        "approx grid.bn grid.ev --delete 4 --method ed-bp --schedule simultaneous --report {out}",
        0,
    ),
    # ed-kl's simultaneous sweeps read the KL bound's Pr'(e') off the jointree;
    # undamped they oscillate here for all 200 sweeps, damped they converge
    "approx-ed-kl-simultaneous-damped": (
        "approx grid.bn grid.ev --delete 4 --method ed-kl --schedule simultaneous "
        "--damping 0.3 --report {out}",
        0,
    ),
    # with no sweep, the row's Pr'(e') is read once off the simultaneous tree
    "approx-simultaneous-unswept": (
        "approx grid.bn grid.ev --delete 4 --schedule simultaneous --max-iters 0 --report {out}",
        2,
    ),
    # ed-bp's sequential sweeps read each edge's table off one jointree of N'
    "approx-ed-bp-sequential": ("approx grid.bn grid.ev --delete 4 --method ed-bp", 0),
    "approx-plan": ("approx grid.bn grid.ev --edges grid.plan", 0),
    # map report rows carry exact_kl
    "map-warm-start": ("map grid.bn grid.ev --delete 4 --warm-start --report {out}", 0),
    # rand and mi rankings carry no fits: --warm-start rescores the chosen edges
    "approx-rand-warm-start": ("approx grid.bn grid.ev --select rand --delete 2 --warm-start", 0),
    "map-mi-warm-start": ("map grid.bn grid.ev --select mi --delete 2 --warm-start", 0),
    "score": ("score grid.bn grid.ev", 0),
    # right after "score" in order: grid2's tie refit reads the structure kept on grid
    "score-grid2": ("score grid2.bn grid2.ev", 0),
    # the stacked ed-kl fit on 3x3 tables, and on C- and F-ordered tables
    # with many tie runs refitted (no evidence)
    "score-chain3": ("score chain3.bn chain3.ev", 0),
    "score-prior": ("score grid.bn", 0),
    # the search deletes ranked edges until N' reaches width 2, and converges there
    "approx-target-width": ("approx grid.bn grid.ev --target-width 2", 0),
    # the report row's kl_bound/exact_kl read the fit's own source pass; with
    # 0 sweeps, the pass run makes before any sweep (0 sweeps never converge)
    "approx-row": ("approx grid.bn grid.ev --delete 4 --report {out}", 0),
    "approx-unswept": ("approx grid.bn grid.ev --delete 4 --max-iters 0 --report {out}", 2),
}

COLD = ("grid", "chain3", "score", "score-grid2")

# case -> its file under tests/data, and whether it pins the report or stdout
GOLDEN = {
    "grid": ("report_grid.csv", "report"),
    "chain3": ("report_chain3.csv", "report"),
    "score": ("report_score.txt", "stdout"),
}

# the name under which a child records ``record_fit_golden``'s whole file
FIT_GOLDEN = "fit-golden"

# the name under which a child records its set orders (``set_orders``)
SET_ORDERS = "set-orders"

# the hash seed of the second child; seed 0 orders every tag set otherwise
OTHER_SEED = 5


def argv(case: str, report: Path) -> list[str]:
    return [str(report) if a == "{out}" else a for a in COMMANDS[case][0].split()]


def read_report(report: Path) -> str | None:
    return report.read_bytes().decode() if report.exists() else None


def set_orders() -> dict[str, list[str]]:
    """Per spec of ``record_report_golden`` and per tag list, the order in
    which this process iterates the list's entries as a set."""
    return {
        f"{name} {key}": list(set(getattr(harness.parse_experiment_spec(text), key)))
        for name, text in report_golden.SPECS.items()
        for key in ("selections", "methods")
    }


def run_in_this_process(results: Path, cases: list[str]) -> None:
    """Run ``cases`` in order through ``cli.main`` and write, per run, the
    case, its exit status, stdout, stderr and report to ``results``."""
    report = results.with_suffix(".report")
    runs = []
    for case in cases:
        if case == FIT_GOLDEN:
            runs.append([case, 0, fit_golden.dump(fit_golden.record()), "", None])
            continue
        if case == SET_ORDERS:
            runs.append([case, 0, json.dumps(set_orders()), "", None])
            continue
        report.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = main(argv(case, report))
        runs.append([case, status, stdout.getvalue(), stderr.getvalue(), read_report(report)])
    results.write_text(json.dumps(runs))


def child(args: list[str], cwd: Path, hash_seed: int, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python *args`` with ``src`` on its path and Python's default
    buffering, killing it at the timeout."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, timeout=TIMEOUT_S, **kwargs
    )


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory holding the specs of ``record_report_golden``, and the
    networks, evidence and plan file the command lines read."""
    directory = tmp_path_factory.mktemp("inputs")
    for name, spec in report_golden.SPECS.items():
        (directory / f"{name}.spec").write_text(spec)
    gridfile = report_golden.SPECS["grid"].replace("grid(4x4)", "grid.bn")
    (directory / "gridfile.spec").write_text(gridfile)
    rng = np.random.default_rng
    # grid2 is another grid(4x4) seed: the same layout and observed leaves
    networks = {
        "grid": harness.grid_network(4, 4),
        "grid2": harness.grid_network(4, 4, rng=rng(1)),
        "chain3": harness.chain_network(8, 3, rng=rng(4)),
    }
    for name, net in networks.items():
        ev = harness.sample_evidence(net, "leaves-from-joint", rng(3))
        (directory / f"{name}.bn").write_text(netio.serialize_network(net))
        (directory / f"{name}.ev").write_text(netio.serialize_evidence(ev))
        if name == "grid":
            # the four best single-edge fits as the plan's start vectors
            best = divergence.score_edges(net, ev)[:4]
            edges = [(s.parent, s.child) for s in best]
            _, _, plan = approximate_network(net, edges, [s.params for s in best])
            (directory / "grid.plan").write_text(netio.serialize_plan(plan))
    return directory


@pytest.fixture(scope="module")
def runs(inputs):
    """hash seed -> case -> the (status, stdout, stderr, report) of each of
    its runs, in order."""
    orders = {
        0: [SET_ORDERS, FIT_GOLDEN, *COMMANDS, *COMMANDS, FIT_GOLDEN, FIT_GOLDEN],
        OTHER_SEED: [SET_ORDERS, *reversed(COMMANDS)],
    }
    out = {}
    for seed, cases in orders.items():
        results = inputs / f"seed{seed}.json"
        done = child([__file__, str(results), *cases], inputs, seed, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        out[seed] = {}
        for case, *run in json.loads(results.read_text()):
            out[seed].setdefault(case, []).append(tuple(run))
    return out


@pytest.fixture(scope="module")
def cold_runs(inputs):
    """case -> the (status, stdout, stderr, report) of a fresh ``python -m edgedel.cli``."""
    out = {}
    for case in COLD:
        report = inputs / f"cold-{case}.report"
        done = child(["-m", "edgedel.cli", *argv(case, report)], inputs, 0, capture_output=True)
        out[case] = (
            done.returncode, done.stdout.decode(), done.stderr.decode(), read_report(report)
        )
    return out


def test_the_two_hash_seeds_order_every_tag_set_differently(runs):
    # the premise of the cross-seed cases below; a Python whose string hash
    # changes may break it, and then OTHER_SEED needs another value
    zero, other = (json.loads(runs[seed][SET_ORDERS][0][1]) for seed in (0, OTHER_SEED))
    assert zero.keys() == other.keys() and len(zero) == 2 * len(report_golden.SPECS)
    assert [key for key in zero if zero[key] == other[key]] == []


@pytest.mark.parametrize("case", COMMANDS)
def test_every_run_exits_with_its_status(runs, case):
    # two runs under seed 0, one under the other seed
    want = COMMANDS[case][1]
    assert [run[0] for seed in runs for run in runs[seed][case]] == [want] * 3


@pytest.mark.parametrize("case", COMMANDS)
def test_both_hash_seeds_give_the_same_output(runs, case):
    assert runs[OTHER_SEED][case][0] == runs[0][case][0]


@pytest.mark.parametrize("case", COMMANDS)
def test_a_second_run_in_one_process_gives_the_same_output(runs, case):
    first, second = runs[0][case]
    assert second == first


@pytest.mark.parametrize("case", COLD)
def test_a_cold_process_gives_what_the_warm_ones_do(runs, cold_runs, case):
    # the cold process's status is the one ``python -m edgedel.cli`` exits with
    assert cold_runs[case] == runs[0][case][0]
    assert cold_runs[case] == runs[OTHER_SEED][case][0]


@pytest.mark.parametrize("case", GOLDEN)
def test_the_output_is_the_recorded_one(runs, case):
    name, part = GOLDEN[case]
    _, stdout, _, report = runs[0][case][0]
    got = report if part == "report" else stdout
    assert got == (report_golden.DATA / name).read_bytes().decode()


def test_the_fit_golden_file_is_what_one_process_records_cold_and_warm(runs):
    want = fit_golden.GOLDEN.read_text()
    assert [run[1] for run in runs[0][FIT_GOLDEN]] == [want] * 3


def test_a_closed_stdout_pipe_exits_141_printing_nothing(inputs):
    # the read end is closed before the child starts, so its buffered output
    # fails at the flush; the status is the one a shell gives a pipe writer
    read, write = os.pipe()
    os.close(read)
    try:
        done = child(
            ["-m", "edgedel.cli", *argv("score", inputs / "none")], inputs, 0,
            stdout=write, stderr=subprocess.PIPE,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")


if __name__ == "__main__":
    run_in_this_process(Path(sys.argv[1]), sys.argv[2:])
