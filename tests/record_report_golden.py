"""Record ``tests/data/report_*``: the bytes of the CLI outputs that
``test_processes.py`` compares across hash seeds.

A comparison across hash seeds only sees two runs of one checkout, so it
cannot see a report row or a score tie move from one commit to the next.
These files pin those bytes across commits: ``test_report_golden.py``
regenerates each output in process and demands the same bytes, and
``test_processes.py`` demands them of its children.  The cases are three of
``test_processes.COMMANDS``:

- ``grid``, ``chain3``: the ``experiment`` CSVs of the two ``SPECS``;
- ``score``: ``edgedel score`` on its ``grid.bn``/``grid.ev`` (grid(4x4),
  leaf evidence sampled from the joint with rng 3).

The report cells carry 12 significant digits, so a last-bit change in a
value rarely shows, but a reordered tie or a new iteration count does.

Run from the repository root to re-record (only when a change means to move
a report):

    PYTHONPATH=src python tests/record_report_golden.py
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np

from edgedel import harness, netio
from edgedel.cli import main

DATA = Path(__file__).parent / "data"

SPECS = {
    "grid": (
        "network = grid(4x4)\ninstances = 3\nk = 1,2,4\n"
        "methods = ed-kl,ed-bp\nselections = rand,guided,mi\nseed = 5\n"
    ),
    "chain3": (
        "network = chain(8)\nstates = 3\ninstances = 2\nk = 1,2,3\n"
        "methods = ed-kl,ed-bp\nselections = rand,guided\nseed = 5\n"
    ),
}

CASES = {"grid": "report_grid.csv", "chain3": "report_chain3.csv", "score": "report_score.txt"}


def produce(case: str, workdir: Path) -> bytes:
    """The bytes of one case's output, made with files under ``workdir``."""
    if case in SPECS:
        spec, out = workdir / f"{case}.spec", workdir / f"{case}.csv"
        spec.write_text(SPECS[case])
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["experiment", str(spec), "--out", str(out)]) == 0
        return out.read_bytes()
    net = harness.grid_network(4, 4)
    ev = harness.sample_evidence(net, "leaves-from-joint", np.random.default_rng(3))
    bn, evf = workdir / "grid.bn", workdir / "grid.ev"
    bn.write_text(netio.serialize_network(net))
    evf.write_text(netio.serialize_evidence(ev))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["score", str(bn), str(evf)]) == 0
    return stdout.getvalue().encode()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case, name in CASES.items():
            (DATA / name).write_bytes(produce(case, Path(tmp)))
            print(f"wrote {DATA / name}")
