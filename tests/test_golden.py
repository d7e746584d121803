"""Golden digests of seeded CLI output.

Each case runs one or more ``jointmix`` calls in a fresh directory and
compares SHA-256 digests of stdout, the exit codes and every file the calls
wrote against ``golden_cli.json``.  Sidecars are hashed after dropping the
echoed ``output`` path, which differs between directories.  A change that
moves any byte of seeded output fails here; one that is meant to must
re-record the digests and say why:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from jointmix.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

_MIXTURE_CFG = json.dumps(
    {
        "sigmas": [2.0, 1.5, 1.0],
        "generator": {"kind": "discrete_mixture", "atoms": [[0.25, 0.5], [0.75, 2.0]]},
    }
)

_FAMILIES_CFG = json.dumps(
    {
        "families": [
            {"family": "elliptical", "mu": 1.0, "sigma": 2.0,
             "generator": {"kind": "student_t", "nu": 3.0}},
            {"family": "elliptical", "mu": 0.0, "sigma": 1.0,
             "generator": {"kind": "pearson_vii", "shape": 2.0, "scale": 1.0}},
            {"family": "elliptical", "mu": -1.0, "sigma": 1.5,
             "generator": {"kind": "discrete_mixture", "atoms": [[0.25, 0.5], [0.75, 2.0]]}},
            {"family": "slash_elliptical", "mu": 0.0, "sigma": 1.0, "q": 2.0,
             "generator": {"kind": "normal"}},
            {"family": "generalized_logistic", "alpha": 1.5, "beta": 2.0},
        ]
    }
)

# name -> (files to create, calls); "{d}" in an argument is the case directory
CASES = {
    "check_normal": ({}, [["check", "--family", "normal", "--sigmas", "2,1.5,1"]]),
    "check_normal_notjm": ({}, [["check", "--family", "normal", "--sigmas", "3,1,1"]]),
    "check_student_t": ({}, [["check", "--family", "student_t:3", "--sigmas", "2,1.5,1"]]),
    "check_student_t_notjm": (
        {}, [["check", "--family", "student_t:0.5", "--sigmas", "4,1,1", "--mus", "1,2,3"]]
    ),
    "check_cauchy": ({}, [["check", "--family", "cauchy", "--sigmas", "1,1"]]),
    "check_pearson_vii": ({}, [["check", "--family", "pearson_vii:2:1", "--sigmas", "2,1.5,1"]]),
    "check_discrete_mixture": (
        {"cfg.json": _MIXTURE_CFG}, [["check", "--config", "{d}/cfg.json"]]
    ),
    "check_example_2.1": ({}, [["check", "--example", "2.1"]]),
    "check_example_2.2": ({}, [["check", "--example", "2.2"]]),
    "check_example_2.3": ({}, [["check", "--example", "2.3", "--r", "2"]]),
    "check_example_2.4": ({}, [["check", "--example", "2.4", "--m", "1"]]),
    "check_example_3.1": ({}, [["check", "--example", "3.1"]]),
    "check_example_3.2": ({}, [["check", "--example", "3.2"]]),
    "explore_skew": ({}, [["explore", "--mode", "skew"]]),
    "explore_bimodal": ({}, [["explore", "--mode", "bimodal"]]),
    "oracle_2.3": ({}, [["oracle", "--example", "2.3", "--m", "199", "--seed", "7"]]),
    "oracle_families": (
        {"cfg.json": _FAMILIES_CFG},
        [["oracle", "--config", "{d}/cfg.json", "--m", "99", "--restarts", "3"]],
    ),
    "oracle_uniform": ({}, [["oracle", "--example", "uniform", "--copies", "4"]]),
    "sample_elliptical": (
        {},
        [["sample", "--generator", "student_t:3", "--sigmas", "2,1.5,1", "--mus", "1,2,3",
          "-N", "300", "--seed", "11", "--with-sum", "-o", "{d}/ell.csv"]],
    ),
    "sample_slash": (
        {},
        [["sample", "--coupling", "slash", "--generator", "normal", "--sigmas", "1,1,1,1",
          "--q", "1.5", "-N", "300", "--seed", "12", "-o", "{d}/slash.csv"]],
    ),
    "sample_scale_mixture": (
        {},
        [["sample", "--coupling", "scale_mixture", "--generator", "pearson_vii:2:1",
          "--n", "3", "-N", "300", "--seed", "13", "-o", "{d}/mix.csv"]],
    ),
    "sample_matrix": (
        {},
        [["sample", "--coupling", "matrix", "--generator", "cauchy", "--p", "2", "--n", "3",
          "-N", "200", "--seed", "14", "-o", "{d}/mat.csv"]],
    ),
    "verify": (
        {},
        [
            ["sample", "--generator", "normal", "--sigmas", "1,1,1", "--mus", "0.5,0.25,1",
             "-N", "500", "--seed", "15", "-o", "{d}/v.csv"],
            ["verify", "-i", "{d}/v.csv", "-C", "1.75"],
            ["verify", "-i", "{d}/v.csv", "-C", "2.0"],
        ],
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith(".csv.json"):
        sidecar = json.loads(data)
        sidecar.get("config", {}).pop("output", None)
        data = json.dumps(sidecar, sort_keys=True, indent=2).encode()
    return _sha(data)


def run_case(name, directory: Path) -> dict:
    setup, calls = CASES[name]
    for fname, content in setup.items():
        (directory / fname).write_text(content)
    before = set(directory.iterdir())
    record = {"calls": []}
    for argv in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([a.replace("{d}", str(directory)) for a in argv])
        record["calls"].append({"exit": code, "stdout": _sha(out.getvalue().encode())})
    record["files"] = {
        p.name: _file_digest(p) for p in sorted(set(directory.iterdir()) - before)
    }
    return record


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli_output(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert run_case(name, tmp_path) == golden[name]


if __name__ == "__main__":
    import tempfile

    records = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            records[case] = run_case(case, Path(tmp))
    GOLDEN.write_text(json.dumps(records, sort_keys=True, indent=1) + "\n")
    print(f"recorded {len(records)} cases in {GOLDEN}", file=sys.stderr)
