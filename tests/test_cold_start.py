"""Cold start: importing the package and running the SciPy-free CLI paths
must not load SciPy's stats, integrate or linalg (together about 1.2 s and
65 MB).  The routines that need them import them where they are called."""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
HEAVY = ("scipy.stats", "scipy.integrate", "scipy.linalg")

PROBE = """
import contextlib, io, sys
import u1higgs
import u1higgs.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[2:] + ["--out", sys.argv[1]])
assert code == 0, code
print(",".join(m for m in {heavy!r} if m in sys.modules))
"""


def _scipy_loaded_by(tmp_path, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(heavy=HEAVY), str(tmp_path / "out"), *argv],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_and_lattice_cli_do_not_load_scipy(tmp_path):
    loaded = _scipy_loaded_by(tmp_path, "lattice", "--N", "2")
    assert loaded == "", f"loaded at cold start: {loaded}"


@pytest.mark.parametrize("method", ["constant"])
def test_weight_free_chain_does_not_load_scipy(tmp_path, method):
    # the weight model imports the triangular solve for Monte Carlo only
    loaded = _scipy_loaded_by(tmp_path, "sample", "interacting", "--N", "1",
                              "--method", method, "--samples", "5")
    assert loaded == "", f"loaded by a {method} chain: {loaded}"
