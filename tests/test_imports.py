"""Start-up cost: which numpy and scipy modules a fresh interpreter loads.

Each test runs in a new interpreter, because this one has long since
imported scipy for the other tests.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_fixed_rule_families_load_no_quadrature_module():
    code = (
        "import numpy as np\n"
        "from jointmix.families import GeneralizedLogistic, SlashElliptical\n"
        "from jointmix.generators import CharacteristicGenerator\n"
        "p = np.array([1e-6, 0.3, 0.9])\n"
        "for fam in (GeneralizedLogistic(1.5, 2.0),\n"
        "            SlashElliptical(0.0, 1.0, CharacteristicGenerator.student_t(3.0), 1.5)):\n"
        "    fam.cdf(fam.quantile(p))"
    )
    assert _loaded_after(code, ["scipy.integrate", "scipy.interpolate"]) == []


NUMERIC = ["numpy", "scipy"]


def test_cli_import_loads_neither_numpy_nor_scipy():
    assert _loaded_after("import jointmix.cli", NUMERIC) == []


def _check_code(argv, code):
    return (
        "import contextlib, io\n"
        "from jointmix.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == {code}"
    )


@pytest.mark.parametrize("family", ["normal", "student_t:3", "cauchy", "pearson_vii:2:1"])
@pytest.mark.parametrize("sigmas, code", [("2,1.5,1", 0), ("3,1,1", 1)], ids=["JM", "NotJM"])
def test_scale_check_loads_neither_numpy_nor_scipy(family, sigmas, code):
    argv = ["check", "--family", family, "--sigmas", sigmas, "--mus", "1e16,1,-1e16"]
    assert _loaded_after(_check_code(argv, code), NUMERIC) == []


@pytest.mark.parametrize("sigmas, code", [([2.0, 1.5, 1.0], 0), ([3.0, 1.0, 1.0], 1)],
                         ids=["JM", "NotJM"])
def test_discrete_mixture_config_check_loads_neither_numpy_nor_scipy(tmp_path, sigmas, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sigmas": sigmas,
        "generator": {"kind": "discrete_mixture", "atoms": [[0.25, 0.5], [0.75, 2.0]]},
    }))
    code_text = _check_code(["check", "--config", str(cfg)], code)
    assert _loaded_after(code_text, NUMERIC) == []


def test_couplings_import_loads_no_oracle():
    # every coupling is exact: none needs the rearrangement algorithm
    assert _loaded_after("import jointmix.couplings", ["jointmix.oracle"]) == []


def test_package_import_loads_no_submodule():
    code = "import jointmix\nassert jointmix.__version__"
    submodules = [f"jointmix.{m}" for m in ("cli", *jointmix._EXPORTS)]
    assert _loaded_after(code, submodules + NUMERIC) == []


def test_package_names_resolve_to_their_submodules():
    for name in jointmix.__all__:
        module = importlib.import_module(f"jointmix.{jointmix._HOME[name]}")
        assert getattr(jointmix, name) is getattr(module, name)
    for module in jointmix._EXPORTS:
        assert getattr(jointmix, module) is importlib.import_module(f"jointmix.{module}")
    names = {}
    exec("from jointmix import *", names)
    assert set(jointmix.__all__) <= set(names)
    assert set(jointmix.__all__) | set(jointmix._EXPORTS) <= set(dir(jointmix))
    with pytest.raises(AttributeError):
        jointmix.no_such_name  # noqa: B018
