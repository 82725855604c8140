"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np

from edgedel import harness, netio
from edgedel.model import Evidence

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_entry_points_example_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    net = harness.grid_network(3, 3, rng=np.random.default_rng(0))
    ev = Evidence({n: net.var(n).states[0] for n in net.leaves()})
    (tmp_path / "net.bn").write_text(netio.serialize_network(net))
    (tmp_path / "net.ev").write_text(netio.serialize_evidence(ev))
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert sorted(scope["marginals"]) == sorted(net.original_names())
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2 and all(float(x) >= 0.0 for x in printed)
