"""The package, the exact layer and the CLI front end load without numpy, and
the float commands and routes load without the exact layer.

Each case runs in a fresh interpreter, since this test process has long
imported numpy and the exact layer, and reports whether the module it must
not load was imported by the end.  None of the no-numpy cases opens the
table of the construction check's exact values.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import scatterpoly

SRC = Path(scatterpoly.__file__).resolve().parent.parent

CLI = "from scatterpoly.cli import main\nassert main({argv!r}) == {code}\n"

#: Runs first in every case: opening the table of exact check values fails the case.
OPENS_NO_TABLE = (
    "import builtins\n"
    "def guarded(file, *args, _open=builtins.open, **kwargs):\n"
    "    assert not str(file).endswith('check_values.npy'), 'opened the table'\n"
    "    return _open(file, *args, **kwargs)\n"
    "builtins.open = guarded\n"
)

CASES = {
    "table": CLI.format(argv=["table", "3", "4"], code=0),
    "table_to_file": CLI.format(argv=["table", "5", "2", "--out", "t.txt"], code=0),
    "help": CLI.format(argv=["--help"], code=0),
    "command_help": CLI.format(argv=["expand", "--help"], code=0),
    "usage_error": CLI.format(argv=["table", "3"], code=2),
    "table_limit": CLI.format(argv=["table", "1", "1000"], code=2),
    "verify_limit": CLI.format(argv=["verify", "65"], code=2),
    "gram_limit": CLI.format(argv=["gram", "65"], code=2),
    "verify_too_small": CLI.format(argv=["verify", "1"], code=2),
    "gram_too_small": CLI.format(argv=["gram", "1"], code=2),
    "trunc_limit": CLI.format(argv=["solve", "builtin:one", "--trunc", "129"], code=2),
    "eval_limit": CLI.format(argv=["eval", "1", "128"], code=2),
    "grid_limit": CLI.format(argv=["eval", "1", "1", "--grid", "513x512"], code=2),
    "moments_limit": CLI.format(argv=["moments", "0", "151"], code=2),
    "builtin_index_limit": CLI.format(argv=["expand", "builtin:phi_1_200"], code=2),
    "builtin_unknown": CLI.format(argv=["solve", "builtin:nope"], code=2),
    "builtin_bad_index": CLI.format(argv=["expand", "builtin:phi_0_3"], code=2),
    "exact_layer": (
        "import scatterpoly.scattering as s\n"
        "phi = s.rodrigues(s.PQIndex(3, 4))\n"
        "assert phi == s.radial_sum(s.PQIndex(3, 4)) and s.eigencheck(s.PQIndex(3, 4))\n"
    ),
    "package": "import scatterpoly\nassert scatterpoly.rodrigues(scatterpoly.PQIndex(2, 2))\n",
}


#: Float commands and library routes: each reads its check values from the table and
#: builds no exact polynomial, so none of them loads scatterpoly.poly_algebra.
FLOAT_CASES = {
    "eval": CLI.format(argv=["eval", "4", "3", "--grid", "8x16", "--out", "g.csv"], code=0),
    "expand": CLI.format(
        argv=["expand", "builtin:radial_bump", "--trunc", "14", "--grid", "8x16"], code=0
    ),
    "solve_grid_file": CLI.format(argv=["eval", "2", "3", "--out", "g.csv"], code=0)
    + CLI.format(argv=["solve", "g.csv", "--trunc", "8", "--out", "s.json"], code=0),
    "gram": CLI.format(argv=["gram", "12"], code=0),
    "moments": CLI.format(argv=["moments", "0", "0"], code=0),
    "library": (
        "import scatterpoly as sp\n"
        "f = lambda r, theta: 1 - r * r\n"
        "table = sp.solve_weighted_poisson(f, 16)\n"
        "sp.reconstruct(table, *sp.polar_grid(8, 16))\n"
        "assert sp.boundary_value_check(table, 32) == 0.0\n"
        "sp.expansion_residual(f, table)\n"
        "sp.gram(sp.basis_indices(16))\n"
    ),
}


def loads(module: str, script: str, cwd: Path) -> bool:
    """Whether script, run in a fresh interpreter in cwd, ends with module imported."""
    script += f"import sys\nprint({module!r} in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("case", sorted(CASES))
def test_no_numpy(case, tmp_path):
    assert not loads("numpy", OPENS_NO_TABLE + CASES[case], tmp_path), f"{case} imported numpy"


@pytest.mark.parametrize("case", sorted(FLOAT_CASES))
def test_no_exact_layer(case, tmp_path):
    loaded = loads("scatterpoly.poly_algebra", FLOAT_CASES[case], tmp_path)
    assert not loaded, f"{case} imported the exact layer"


def test_exports_resolve_to_the_defining_modules(monkeypatch):
    for name in scatterpoly.__all__:
        obj = getattr(scatterpoly, name)
        module = sys.modules[f"scatterpoly.{scatterpoly._MODULE_OF[name]}"]
        assert obj is getattr(module, name)
        if hasattr(obj, "__qualname__"):
            assert obj.__module__ == module.__name__
        assert name in dir(scatterpoly)
    # the package reads the module's current binding, as a wrapper sees it
    replacement = object()
    monkeypatch.setattr(sys.modules["scatterpoly.transform"], "expand", replacement)
    assert scatterpoly.expand is replacement
    with pytest.raises(AttributeError):
        scatterpoly.no_such_name
