"""The package, the exact layer and the CLI front end load without numpy.

Each case runs in a fresh interpreter, since this test process has long
imported numpy, and reports whether numpy was imported by the end.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import scatterpoly

SRC = Path(scatterpoly.__file__).resolve().parent.parent

CLI = "from scatterpoly.cli import main\nassert main({argv!r}) == {code}\n"

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


@pytest.mark.parametrize("case", sorted(CASES))
def test_no_numpy(case, tmp_path):
    script = CASES[case] + "import sys\nprint('numpy' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False", f"{case} imported numpy"


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
