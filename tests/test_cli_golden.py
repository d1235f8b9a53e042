"""Byte stability of the CLI: the sha256 of every file and every stdout that
a fixed set of seeded commands writes, against tests/data/cli_golden.json.

The commands run in a temporary directory with relative paths, so that
manifests record no absolute path.  They use no Monte Carlo weight and no
LAPACK, and take about a second.  The hashes are frozen: they are never
regenerated to get a pass.  A change that alters a byte stream on purpose
says so in CHANGES.md and records the new hashes in the same change.
"""

import hashlib
import json
import os

from u1higgs.cli import run

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")

GRAPH = {
    "field": "C", "dim": 1, "vertices": ["x", "y"],
    "edges": [{"from": "x", "to": "y", "value": 0.3},
              {"from": "y", "to": "x", "matrix": [[[0.1, -0.2]]]},
              {"from": "x", "to": "x", "value": 0.25}],
    "measures": {"x": {"kind": "gaussian_type"}, "y": {"kind": "gaussian_type"}},
}

CHAIN = ["sample", "interacting", "--N", "2", "--samples", "10", "--seed", "3",
         "--burn-in", "10", "--thin", "2", "--chains", "2"]

# (output directory, argv without --out); later commands read earlier outputs
COMMANDS = [
    ("lattice", ["lattice", "--N", "2", "--dump"]),
    ("pure", ["sample", "pure", "--N", "3", "--samples", "5", "--seed", "7"]),
    ("gaugefix", ["gaugefix", "--field", "pure/field.json"]),
    ("gaugefix_m2", ["gaugefix", "--field", "pure/field.json", "--force-m", "2"]),
    ("norms", ["norms", "--field", "pure/field.json"]),
    ("loopexp", ["loopexp", "--graph", "graph.json", "--max-total", "6"]),
    ("verify_mgf", ["verify", "mgf", "--N", "2", "--samples", "2000", "--seed", "5"]),
    ("loop_chain", CHAIN + ["--method", "loop-expansion"]),
    ("constant_chain", CHAIN + ["--method", "constant"]),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_hashes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with open("graph.json", "w") as f:
        json.dump(GRAPH, f)
    hashes = {}
    for out, argv in COMMANDS:
        assert run(argv + ["--out", out]) == 0, out
        hashes[f"{out}/stdout"] = _sha(capsys.readouterr().out.encode())
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as f:
                hashes[f"{out}/{name}"] = _sha(f.read())
    return hashes


def test_cli_outputs_match_golden_hashes(tmp_path, monkeypatch, capsys):
    with open(GOLDEN) as f:
        golden = json.load(f)
    hashes = _cli_hashes(tmp_path, monkeypatch, capsys)
    assert sorted(hashes) == sorted(golden)
    changed = [key for key in golden if hashes[key] != golden[key]]
    assert not changed, f"CLI bytes changed: {changed}"

