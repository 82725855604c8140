#!/usr/bin/env python3
"""Merge the per-solve answers of earlier runs into reference.json.

    python3 perfbench/record_reference.py

Each ``--trace 0`` run writes out/solves-<workload>-<seed>.json with the
quality values of every solve it completed.  Run this on a commit whose
answers are trusted; later runs of the same workload and seed then fail any
solve whose answers moved by more than the tolerance in run.py.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _rounded(values):
    return [v if v is None or isinstance(v, int) else float(f"{v:.12g}") for v in values]


def main() -> int:
    path = HERE / "reference.json"
    reference = {}
    if path.is_file():
        with open(path, encoding="utf-8") as fh:
            reference = json.load(fh)
    for run in sorted((HERE / "out").glob("solves-*-*.json")):
        _, workload, seed = run.stem.split("-")
        with open(run, encoding="utf-8") as fh:
            for key, values in json.load(fh).items():
                reference[f"{workload} {seed} {key}"] = _rounded(values)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(reference.items())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(reference)} solves recorded")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
