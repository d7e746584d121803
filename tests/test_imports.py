"""Start-up cost: which scipy modules a fresh interpreter loads.

Each test runs in a new interpreter, because this one has long since
imported scipy for the other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import jointmix

SRC = str(Path(jointmix.__file__).resolve().parents[1])


def _loaded_after(code: str, modules) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    probe = f"{code}\nimport sys\nprint(' '.join(m for m in {list(modules)!r} if m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    ).stdout
    return out.split()


def test_cli_import_loads_no_heavy_scipy_module():
    heavy = ["scipy.stats", "scipy.integrate", "scipy.interpolate"]
    assert _loaded_after("import jointmix.cli", heavy) == []


def test_scale_inequality_check_never_loads_special_functions():
    code = (
        "import contextlib, io\n"
        "from jointmix.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['check', '--family', 'student_t:3', '--sigmas', '2,1.5,1']) == 0"
    )
    assert _loaded_after(code, ["scipy.special._ufuncs", "scipy.stats"]) == []


def test_special_handle_loads_on_first_use():
    code = (
        "from jointmix.generators import special\n"
        "assert special.ndtr(0.0) == 0.5\n"
        "import scipy.special\n"
        "assert scipy.special is special"
    )
    assert _loaded_after(code, ["scipy.special._ufuncs"]) == ["scipy.special._ufuncs"]


def test_special_handle_reuses_an_imported_module():
    code = (
        "import scipy.special\n"
        "from jointmix.generators import special\n"
        "assert special is scipy.special"
    )
    assert _loaded_after(code, []) == []
