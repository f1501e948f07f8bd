"""scipy loads only where registration calls it.

Each check runs in a fresh interpreter, because this test process already
holds scipy. A module counts as scipy when its name is ``scipy`` or starts
with ``scipy.``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cliquereg

SRC = str(Path(cliquereg.__file__).resolve().parent.parent)
REPORT = (
    "\nimport sys\n"
    "print('scipy:', *sorted(m for m in sys.modules"
    " if m == 'scipy' or m.startswith('scipy.')))\n"
)


def scipy_loaded_after(code: str) -> list[str]:
    """The scipy modules in ``sys.modules`` after a fresh interpreter runs ``code``."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code + REPORT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.splitlines()[-1]
    assert line.startswith("scipy:"), proc.stdout
    return line.split()[1:]


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "tri.dimacs"
    path.write_text("p edge 4 4\ne 1 2\ne 1 3\ne 2 3\ne 3 4\n")
    return path


def test_package_import_loads_no_scipy():
    assert scipy_loaded_after("import cliquereg") == []


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{g}", "--algo", "clipper+"],
        ["solve", "{g}", "--algo", "exact"],
        ["bench-dimacs", "{g}", "--algo", "clipper+", "--algo", "exact",
         "--out", "{out}"],
    ],
    ids=["solve-clipper+", "solve-exact", "bench-dimacs"],
)
def test_graph_commands_load_no_scipy(triangle_file, tmp_path, argv):
    argv = [a.format(g=triangle_file, out=tmp_path / "r.csv") for a in argv]
    code = f"from cliquereg.cli import main\nassert main({argv!r}) == 0"
    assert scipy_loaded_after(code) == []


def test_consistency_graph_build_loads_scipy():
    # The control: the same probe sees scipy once registration calls it.
    code = (
        "import numpy as np\n"
        "from cliquereg import Association, PointCloud, build_consistency_graph\n"
        "pts = np.random.default_rng(0).uniform(size=(4, 3))\n"
        "pairs = [Association(i, i) for i in range(4)]\n"
        "g = build_consistency_graph(PointCloud(pts), PointCloud(pts), pairs, 0.1)\n"
        "assert g.edge_count == 6"
    )
    assert "scipy.spatial" in scipy_loaded_after(code)
