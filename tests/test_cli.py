import json
import math

import numpy as np
import pytest

from jointmix import mixability
from jointmix.cli import (
    EXIT_IO, EXIT_JM, EXIT_NOT_JM, EXIT_SOFTWARE, EXIT_UNKNOWN, EXIT_USAGE, main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- check ------------------------------------------------------------------

def test_check_jm(capsys):
    code, out, _ = run(capsys, "check", "--family", "normal", "--sigmas", "1,1,1")
    assert code == EXIT_JM
    payload = json.loads(out)
    assert payload["verdict"] == "JM"
    assert payload["joint_center"] == 0.0


def test_check_not_jm(capsys):
    code, out, _ = run(capsys, "check", "--family", "normal", "--sigmas", "3,1,1")
    assert code == EXIT_NOT_JM
    assert json.loads(out)["verdict"] == "NotJM"


def test_check_example_23(capsys):
    code, out, _ = run(capsys, "check", "--example", "2.3", "--r", "1")
    assert code == EXIT_NOT_JM
    cert = json.loads(out)["certificate"]
    assert cert["cdf_values"][0] == 0.5625


def test_check_example_24_fires_for_m1(capsys):
    code, out, _ = run(capsys, "check", "--example", "2.4", "--m", "1")
    assert code == EXIT_NOT_JM


def test_check_example_31_generalized_logistic_cm(capsys):
    code, out, _ = run(capsys, "check", "--example", "3.1")
    assert code == EXIT_JM


def test_check_example_32_kotz_unknown(capsys):
    code, out, _ = run(capsys, "check", "--example", "3.2")
    assert code == EXIT_UNKNOWN


def test_check_malformed(capsys):
    code, _, err = run(capsys, "check", "--sigmas", "abc")
    assert code == EXIT_USAGE
    assert err
    code, _, _ = run(capsys, "check")
    assert code == EXIT_USAGE


def test_check_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigmas": [1, 1], "generator": {"kind": "cauchy"}}))
    code, out, _ = run(capsys, "check", "--config", str(cfg))
    assert code == EXIT_JM
    assert json.loads(out)["certificate"]["generator"]["kind"] == "cauchy"


def test_check_bad_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, _, err = run(capsys, "check", "--config", str(cfg))
    assert code == EXIT_USAGE


# --- sample + verify round trips -------------------------------------------

def test_sample_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "draws.csv"
    code, _, _ = run(
        capsys,
        "sample", "--coupling", "elliptical", "--mus", "1,2,3",
        "--sigmas", "2,1.5,1", "--generator", "student_t:3",
        "-N", "1000", "--seed", "7", "-o", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "X1,X2,X3"
    assert len(lines) == 1001
    sidecar = json.loads((tmp_path / "draws.csv.json").read_text())
    assert sidecar["joint_center"] == 6.0
    code, rep_out, _ = run(capsys, "verify", "-i", str(out), "-C", "6.0")
    assert code == 0
    assert json.loads(rep_out)["passed"] is True


_T3 = {"kind": "student_t", "nu": 3.0}


@pytest.mark.parametrize("base, count", [
    ({"family": "elliptical", "mu": 0.0, "sigma": 1.0, "generator": _T3}, 1000),
    ({"family": "slash_elliptical", "mu": 0.0, "sigma": 1.0, "q": 1.0,
      "generator": {"kind": "normal"}}, 1000),
    # a slash-t base at odd n: T comes in closed form from the family
    ({"family": "slash_elliptical", "mu": 0.0, "sigma": 2.0, "q": 1.5, "generator": _T3}, 20000),
    # closed-form T for a uniform, a finite mixture and a generalized logistic law
    ({"family": "uniform", "lo": -1.0, "hi": 1.0}, 1000),
    ({"family": "mixture", "weights": [0.5, 0.5],
      "components": [{"family": "elliptical", "mu": 0.0, "sigma": s,
                      "generator": {"kind": "normal"}} for s in (1.0, 3.0)]}, 1000),
    ({"family": "generalized_logistic", "alpha": 1.0, "beta": 0.5}, 1000),
], ids=["student_t", "slash_normal", "slash_t", "uniform", "normal_mixture", "gl_beta_0.5"])
def test_scale_mixture_config_round_trip(tmp_path, capsys, base, count):
    # a family spec in a config, sampled at n = 3 and verified at center 0
    cfg, out = tmp_path / "cfg.json", tmp_path / "draws.csv"
    cfg.write_text(json.dumps({"n": 3, "base": base}))
    code, _, _ = run(capsys, "sample", "--coupling", "scale_mixture", "--config", str(cfg),
                     "-N", str(count), "-o", str(out))
    assert code == 0
    code, rep_out, _ = run(capsys, "verify", "-i", str(out), "-C", "0")
    report = json.loads(rep_out)
    assert code == 0 and report["passed"] is True and report["rows"] == count


def test_verify_wrong_center_fails(tmp_path, capsys):
    out = tmp_path / "draws.csv"
    run(capsys, "sample", "--coupling", "slash", "--q", "2", "--sigmas", "1,1",
        "-N", "100", "-o", str(out))
    code, rep_out, _ = run(capsys, "verify", "-i", str(out), "-C", "5.0")
    assert code == 1
    assert json.loads(rep_out)["passed"] is False


def test_verify_fails_one_altered_row_of_a_heavy_tailed_batch(tmp_path, capsys):
    # slash q = 0.3 draws: a bound from the mean |entry| would allow ~1.7e3
    # on every row here; a row of small entries keeps its own small bound
    out = tmp_path / "heavy.csv"
    run(capsys, "sample", "--coupling", "slash", "--q", "0.3", "--sigmas", "2,1.5,1",
        "--mus", "1,2,3", "-N", "2000", "--seed", "4", "-o", str(out))
    code, rep_out, _ = run(capsys, "verify", "-i", str(out), "-C", "6")
    assert code == 0
    x = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.abs(x).max() > 1e6
    row = int(np.argmin(np.abs(x).sum(axis=1)))
    x[row, 0] += 100.0
    np.savetxt(out, x, fmt="%.17g", delimiter=",", header="X1,X2,X3", comments="")
    code, rep_out, _ = run(capsys, "verify", "-i", str(out), "-C", "6")
    report = json.loads(rep_out)
    assert code == 1 and report["passed"] is False and report["worst_row"] == row


def test_verify_reports_non_finite_rows_as_strict_json(tmp_path, capsys):
    # inf - inf is a NaN row sum: strict JSON writes it "nan", and numpy's
    # invalid-value warning stays off stderr
    out = tmp_path / "inf.csv"
    out.write_text("X1,X2,X3\r\n1,2,-3\r\ninf,-inf,inf\r\n")

    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    code, rep_out, err = run(capsys, "verify", "-i", str(out), "-C", "0")
    report = json.loads(rep_out, parse_constant=no_constant)
    assert code == 1 and err == ""
    assert report["max_abs_deviation"] == report["worst_ratio"] == "nan"
    assert report["worst_row"] == 1 and report["passed"] is False
    out.write_text("X1,X2\r\n1e308,1e308\r\n")  # the sum overflows to inf
    code, rep_out, err = run(capsys, "verify", "-i", str(out), "-C", "0")
    report = json.loads(rep_out, parse_constant=no_constant)
    assert code == 1 and err == "" and report["max_abs_deviation"] == "inf"


def test_verify_rejects_a_negative_or_nan_tolerance(tmp_path, capsys):
    out = tmp_path / "draws.csv"
    run(capsys, "sample", "--sigmas", "1,1", "-N", "10", "-o", str(out))
    for tol in ("-1e-8", "nan", "inf"):
        code, rep_out, err = run(capsys, "verify", "-i", str(out), "-C", "0", f"--rel-tol={tol}")
        assert code == EXIT_USAGE and rep_out == "" and "rel_tol" in err
    for center in ("--center=nan", "--center=-inf"):
        code, rep_out, err = run(capsys, "verify", "-i", str(out), center)
        assert code == EXIT_USAGE and rep_out == "" and "center C" in err


def test_sample_scale_inequality_violated(tmp_path, capsys):
    code, _, err = run(
        capsys, "sample", "--coupling", "elliptical", "--sigmas", "3,1,1",
        "-o", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "polygon inequality" in err


def test_sample_matrix(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code, _, _ = run(
        capsys, "sample", "--coupling", "matrix", "--p", "2", "--n", "3",
        "-N", "10", "-o", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 11
    header = lines[0].split(",")
    assert header[0] == "draw" and len(header) == 7
    for line in lines[1:]:
        vals = np.array([float(v) for v in line.split(",")[1:]]).reshape(3, 2)
        assert np.linalg.norm(vals.sum(axis=0)) <= 1e-9


def test_sample_scale_mixture(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, _ = run(
        capsys, "sample", "--coupling", "scale_mixture", "--n", "3",
        "--mu", "1.0", "-N", "100", "-o", str(out),
    )
    assert code == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.max(np.abs(rows.sum(axis=1) - 3.0)) <= 1e-10


def test_sample_student_t_infinite_nu_writes_normal_rows(tmp_path, capsys):
    written = {}
    for gen in ("student_t:inf", "normal"):
        out = tmp_path / f"{gen.replace(':', '_')}.csv"
        code, _, _ = run(capsys, "sample", "--generator", gen, "--sigmas", "1,1,1",
                         "-N", "200", "--seed", "3", "-o", str(out))
        assert code == 0
        written[gen] = out.read_bytes()
    assert written["student_t:inf"] == written["normal"]
    rows = np.loadtxt(tmp_path / "normal.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(rows))


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not strict JSON")

    return json.loads(text, parse_constant=reject)


def test_infinite_nu_output_is_strict_json(tmp_path, capsys):
    from jointmix.generators import CharacteristicGenerator

    code, out, _ = run(capsys, "check", "--family", "student_t:inf", "--sigmas", "1,1,1")
    assert code == EXIT_JM
    assert _strict_json(out)["certificate"]["generator"] == {"kind": "student_t", "nu": "inf"}
    path = tmp_path / "t.csv"
    code, _, _ = run(capsys, "sample", "--generator", "student_t:inf", "--sigmas", "1,1,1",
                     "-N", "3", "-o", str(path))
    assert code == 0
    sidecar = _strict_json((tmp_path / "t.csv.json").read_text())
    g = CharacteristicGenerator.from_spec(sidecar["generator"])
    assert g == CharacteristicGenerator.student_t(math.inf)


def test_overflowed_certificate_sums_are_strict_json(capsys):
    code, out, _ = run(capsys, "check", "--family", "normal", "--sigmas", "1e308,1e308,1e308")
    assert code == EXIT_JM
    cert = _strict_json(out)["certificate"]
    assert cert["total"] == cert["twice_max"] == "inf"


def test_sample_huge_scales_writes_finite_rows(tmp_path, capsys):
    # the law of cosines squared the sides, which overflows above ~1.3e154
    path = tmp_path / "y.csv"
    code, _, _ = run(capsys, "sample", "--sigmas", "1e200,1e200,1e200", "-N", "2", "-o", str(path))
    assert code == 0
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.all(np.isfinite(rows))
    assert np.all(np.abs(rows.sum(axis=1)) <= 1e-15 * np.abs(rows).sum(axis=1))


def test_sample_matrix_rejects_with_sum(tmp_path, capsys):
    path = tmp_path / "m.csv"
    code, out, err = run(capsys, "sample", "--coupling", "matrix", "--with-sum", "-N", "2",
                         "-o", str(path))
    assert code == EXIT_USAGE
    assert out == "" and len(err.strip().splitlines()) == 1 and "--with-sum" in err
    assert not path.exists()


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "-i", "/nonexistent.csv", "-C", "0")
    assert code == EXIT_IO


@pytest.mark.parametrize("setting", [("-C", "nan"), ("-C", "0", "--rel-tol", "inf")])
def test_verify_refuses_bad_settings_before_reading(tmp_path, capsys, setting):
    # a usage error, not an I/O error, even where the file does not exist
    code, out, err = run(capsys, "verify", "-i", str(tmp_path / "missing.csv"), *setting)
    assert code == EXIT_USAGE and out == "" and "must be" in err and "cannot read" not in err


# --- explore ----------------------------------------------------------------

def test_explore_skew_grid(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code, _, _ = run(
        capsys, "explore", "--mode", "skew", "--n-grid", "2:3",
        "--lambda-grid", "0:100:50", "-o", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,lambda,bound,fires"
    assert len(lines) == 7
    fires = {tuple(l.split(",")[:2]): l.split(",")[3] for l in lines[1:]}
    assert fires[("2", "0")] == "0"
    assert fires[("2", "50")] == "1"


def test_explore_bimodal_grid(capsys):
    code, out, _ = run(capsys, "explore", "--mode", "bimodal",
                       "--m-grid", "0:2", "--n-grid", "1:2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,max_cdf_value,threshold,fires"
    # m >= 1 fires at small n; m = 0 never does
    rows = [l.split(",") for l in lines[1:]]
    assert all(r[4] == "0" for r in rows if r[0] == "0")
    assert any(r[4] == "1" for r in rows if r[0] == "1")


def test_explore_empty_grid(capsys):
    code, out, _ = run(capsys, "explore", "--mode", "skew",
                       "--n-grid", "3:2", "--lambda-grid", "0:1")
    assert code == 0
    assert out.strip() == "n,lambda,bound,fires"


# --- oracle -----------------------------------------------------------------

def test_oracle_uniform(capsys):
    code, out, _ = run(capsys, "oracle", "--example", "uniform", "--m", "30",
                       "--restarts", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 30 and payload["n"] == 3
    assert payload["stddev"] < 0.05


def test_oracle_reads_ra_settings_from_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"example": "uniform", "m": 40, "restarts": 2}))
    code, out, _ = run(capsys, "oracle", "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 40 and payload["restarts"] == 2


def test_oracle_generalized_logistic_large_alpha(tmp_path, capsys):
    # a kernel with the factor 4^(-alpha) underflowed: the first two divided
    # by 0 (ZeroDivisionError, exit 70), and the third's CDF was NaN
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "families": [{"family": "generalized_logistic", "alpha": a, "beta": b}
                     for a, b in ((1000.0, 2.0), (540.0, 0.5), (530.0, 0.5))],
        "m": 20,
    }))
    code, out, err = run(capsys, "oracle", "--config", str(cfg))
    assert code == 0 and err == ""
    assert json.loads(out)["m"] == 20


def test_oracle_families_config(tmp_path, capsys):
    cfg = tmp_path / "fams.json"
    cfg.write_text(json.dumps({
        "families": [{"family": "bimodal_power", "a": 1.0, "r": 1}] * 3
    }))
    code, out, _ = run(capsys, "oracle", "--config", str(cfg), "--m", "40",
                       "--restarts", "3")
    assert code == 0
    assert json.loads(out)["stddev"] > 0.05


# --- determinism ------------------------------------------------------------

def test_sample_byte_identical_across_runs(tmp_path, capsys):
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        run(capsys, "sample", "--coupling", "elliptical", "--mus", "0,0,0",
            "--sigmas", "1,1,1", "--generator", "cauchy", "-N", "500",
            "--seed", "11", "-o", str(out))
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_check_output_identical_across_runs(capsys):
    _, out1, _ = run(capsys, "check", "--family", "student_t:3", "--sigmas", "2,1.5,1")
    _, out2, _ = run(capsys, "check", "--family", "student_t:3", "--sigmas", "2,1.5,1")
    assert out1 == out2


# --- input errors exit with the usage code, never a verdict code ------------

@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--example", "2.1", "--copies", "2"],
        ["oracle", "--example", "2.3", "--m", "1"],
        ["oracle", "--example", "uniform", "--restarts", "-3"],
        ["oracle", "--example", "uniform", "--restarts", "0"],
        ["oracle", "--example", "uniform", "--max-sweeps", "-1"],
        ["sample", "--coupling", "slash", "--sigmas", "1,1,1", "--q", "0", "-o", "{tmp}/x.csv"],
        ["sample", "--coupling", "slash", "--sigmas", "1,1,1", "--q", "nan", "-o", "{tmp}/x.csv"],
        ["sample", "--coupling", "slash", "--sigmas", "1,1,1", "--q", "inf", "-o", "{tmp}/x.csv"],
        ["explore", "--n-grid", "1:1"],
        ["check", "--example", "9.9"],
        ["check", "--sigmas", ""],
        ["check", "--sigmas", "1,1", "--mus", "1"],
        ["sample", "-o", "{tmp}/x.csv"],
        ["oracle", "--example", "foo"],
        ["explore", "--lambda-grid", "1:2:3:4"],
        ["sample", "--sigmas", "1,1", "-N", "0", "-o", "{tmp}/x.csv"],
        ["sample", "--sigmas", "1,1", "-N", "-5", "-o", "{tmp}/x.csv"],
    ],
    ids=["check_even_copies", "oracle_m1", "oracle_restarts_negative", "oracle_restarts_0",
         "oracle_max_sweeps_negative", "sample_slash_q0", "sample_slash_qnan",
         "sample_slash_qinf", "explore_n1", "check_unknown_example", "check_empty_sigmas",
         "check_mus_length", "sample_no_sigmas", "oracle_unknown_example",
         "explore_four_part_range", "sample_count_0", "sample_count_negative"],
)
def test_library_value_error_exits_usage(tmp_path, capsys, argv):
    code, out, err = run(capsys, *[a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert code == EXIT_USAGE
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_non_finite_scale_after_overflowing_sum_exits_usage(capsys, bad):
    # the partial sum 1e308 + 1e308 overflows before the bad scale is reached
    code, out, err = run(capsys, "check", "--family", "normal", "--sigmas", f"1e308,1e308,{bad}")
    assert code == EXIT_USAGE
    assert out == "" and "scales must be positive and finite" in err


_BAD_GENERATOR_CONFIGS = {
    "nan_atom_weight": '{"sigmas": [1, 1], "generator": '
                       '{"kind": "discrete_mixture", "atoms": [[NaN, 1.0]]}}',
    "extra_field": '{"sigmas": [1, 1], "generator": {"kind": "normal", "nu": 3}}',
    "atoms_not_a_list": '{"sigmas": [1, 1], "generator": {"kind": "discrete_mixture", "atoms": 5}}',
    "generator_a_list": '{"sigmas": [1, 1], "generator": ["student_t", 3]}',
}


@pytest.mark.parametrize(
    "family",
    ["student_t:nan", "pearson_vii:nan:1", "pearson_vii:2:nan", "pearson_vii:2:inf",
     "normal:7", "student_t:3:4",
     *(f"config:{name}" for name in _BAD_GENERATOR_CONFIGS)],
)
def test_bad_generator_exits_usage(tmp_path, capsys, family):
    if family.startswith("config:"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(_BAD_GENERATOR_CONFIGS[family.removeprefix("config:")])
        argv = ["check", "--config", str(cfg)]
    else:
        argv = ["check", "--family", family, "--sigmas", "1,1"]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("bad generator:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--sigmas", "1,1", "--mus", "inf,-inf"],
        ["check", "--sigmas", "1,1", "--mus", "inf,0"],
        ["check", "--sigmas", "3,1,1", "--mus", "nan,0,0"],
        ["sample", "--sigmas", "1,1", "--mus", "inf,0", "-o", "{tmp}/x.csv"],
        ["sample", "--coupling", "slash", "--sigmas", "1,1", "--mus", "0,-inf", "-o", "{tmp}/x.csv"],
    ],
    ids=["check_jm", "check_one", "check_notjm", "sample", "sample_slash"],
)
def test_non_finite_location_exits_usage(tmp_path, capsys, argv):
    code, out, err = run(capsys, *[a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert code == EXIT_USAGE
    assert out == "" and "locations must be finite" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "grid",
    ["0:1:0", "0:1:-1", "0:inf", "nan:1", "0:1:nan", "0:1e7", "0:1:1e-7", "a:b"],
    ids=["step0", "step_negative", "inf_end", "nan_end", "nan_step", "too_many",
         "too_fine", "unparsable"],
)
def test_explore_rejects_bad_range(capsys, grid):
    code, out, err = run(capsys, "explore", "--n-grid", "2:2", "--lambda-grid", grid)
    assert code == EXIT_USAGE
    assert out == "" and err


def test_explore_rejects_grid_product_above_cap(capsys):
    code, out, err = run(capsys, "explore", "--n-grid", "2:2001", "--lambda-grid", "0:999")
    assert code == EXIT_USAGE
    assert out == "" and "grid" in err


@pytest.mark.parametrize("argv", [
    ["--mode", "skew", "--n-grid", "2.5:3", "--lambda-grid", "30:30"],
    ["--mode", "bimodal", "--m-grid", "0.5:1", "--n-grid", "1:1"],
    ["--mode", "bimodal", "--m-grid", "1:1", "--n-grid", "1.5:2"],
], ids=["skew_n", "bimodal_m", "bimodal_n"])
def test_explore_rejects_a_fractional_count(capsys, argv):
    # n and m count copies and moments: 2.5 is an error, not a row for 2
    code, out, err = run(capsys, "explore", *argv)
    assert code == EXIT_USAGE
    assert out == "" and len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_parse_range_gives_typed_values():
    from jointmix.cli import _parse_range

    typed = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    assert _parse_range("0:1:0.1") == typed
    assert _parse_range("3:1") == []
    # integer steps give the floats a running sum gives
    expected, v = [], 0.0
    while v <= 100.0:
        expected.append(v)
        v += 1.0
    assert _parse_range("0:100:1") == expected
    assert _parse_range("0:100") == expected


def test_parse_range_ends_when_step_is_below_float_spacing():
    from jointmix.cli import _parse_range

    vals = _parse_range("1e20:1.0000000000001e20:1e3")
    assert len(vals) <= math.floor((1.0000000000001e20 - 1e20) / 1e3) + 2


@pytest.mark.parametrize("flag", [["--sigma", "nan"], ["--sigma", "inf"], ["--mu", "inf"]],
                         ids=["sigma_nan", "sigma_inf", "mu_inf"])
def test_non_finite_base_parameter_exits_usage(tmp_path, capsys, flag):
    out_csv = str(tmp_path / "x.csv")
    code, out, err = run(capsys, "sample", "--coupling", "scale_mixture", "--n", "3", *flag,
                         "-o", out_csv)
    assert code == EXIT_USAGE
    assert out == "" and "must be finite" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


_BAD_FAMILY_SPECS = {
    "missing_field": {"family": "uniform", "lo": -1.0},
    "unknown_field": {"family": "uniform", "lo": -1.0, "hi": 1.0, "mu": 0.0},
    "a_string": "uniform",
    "lo_a_string": {"family": "uniform", "lo": "a", "hi": 1.0},
    "components_a_number": {"family": "mixture", "components": 5, "weights": [1.0]},
    "generator_a_string": {"family": "elliptical", "mu": 0.0, "sigma": 1.0, "generator": "x"},
    "uniform_width_overflows": {"family": "uniform", "lo": -1e308, "hi": 1e308},
    # the gamma shape (2N - 1)/(2 beta) = 1e308 has no finite lgamma
    "kotz_shape_overflows": {"family": "kotz", "N": 1e8, "m": 0.5, "beta": 1e-300},
    # unimodality follows from the components and cannot be stated
    "mixture_unimodal": {"family": "mixture", "weights": [0.5, 0.5], "symmetric": True,
                         "unimodal": True,
                         "components": [{"family": "uniform", "lo": -1.0, "hi": -0.9},
                                        {"family": "uniform", "lo": 0.9, "hi": 1.0}]},
}


@pytest.mark.parametrize("command", ["oracle", "sample"])
@pytest.mark.parametrize("name", list(_BAD_FAMILY_SPECS))
def test_malformed_family_spec_exits_usage(tmp_path, capsys, command, name):
    spec = _BAD_FAMILY_SPECS[name]
    cfg = tmp_path / "cfg.json"
    if command == "oracle":
        cfg.write_text(json.dumps({"families": [spec] * 3}))
        argv = ["oracle", "--config", str(cfg), "--m", "9"]
    else:
        cfg.write_text(json.dumps({"coupling": "scale_mixture", "base": spec, "n": 3}))
        argv = ["sample", "--config", str(cfg), "-o", str(tmp_path / "x.csv")]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("bad family spec:") and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


_HUGE_SCALE = {"kind": "discrete_mixture", "atoms": [[1.0, 1e200]]}
_WIDE_COLUMN = {"family": "uniform", "lo": 0.0, "hi": 1e308}
# a mirror-image pair is symmetric but not unimodal
_MIRROR_PAIR = {"family": "mixture", "weights": [0.5, 0.5], "symmetric": True,
                "components": [{"family": "uniform", "lo": -1.0, "hi": -0.9},
                               {"family": "uniform", "lo": 0.9, "hi": 1.0}]}
# a config value of the wrong JSON type: a usage error, not the NotJM code 1.
# Flags after the config, if any, follow it in the entry.
_BAD_VALUE_CONFIGS = {
    "sample_H_a_number": ("sample", {"coupling": "scale_mixture", "n": 3, "H": 5}),
    "sample_n_a_list": ("sample", {"coupling": "scale_mixture", "n": [3]}),
    "sample_seed_null": ("sample", {"sigmas": [1.0, 1.0], "seed": None}),
    "sample_output_a_number": ("sample", {"sigmas": [1.0, 1.0], "output": 5}),
    "check_sigmas_a_number": ("check", {"sigmas": 5}),
    "check_mus_a_number": ("check", {"sigmas": [1.0, 1.0, 1.0], "mus": 7}),
    "check_r_null": ("check", {"example": "2.3", "r": None}),
    "sample_seed_a_fraction": ("sample", {"sigmas": [1.0, 1.0], "seed": 3.7}),
    "sample_seed_a_bool": ("sample", {"sigmas": [1.0, 1.0], "seed": True}),
    "sample_count_infinite": ("sample", {"sigmas": [1.0, 1.0], "count": math.inf}),
    "sample_with_sum_a_string": ("sample", {"sigmas": [1.0, 1.0], "with_sum": "yes"}),
    "sample_unknown_key": ("sample", {"sigmas": [1.0, 1.0], "sed": 3}),
    "check_copies_infinite": ("check", {"example": "2.3", "copies": math.inf}),
    "check_a_past_float_range": ("check", {"example": "2.1", "a": 10**400}),
    "sample_H_value_nan": ("sample", {"coupling": "scale_mixture", "n": 3, "H": [[math.nan, 1.0]]}),
    "sample_H_value_infinite": ("sample", {"coupling": "scale_mixture", "n": 3,
                                           "H": [[math.inf, 1.0]]}),
    "sample_H_probability_nan": ("sample", {"coupling": "scale_mixture", "n": 3,
                                            "H": [[1.0, math.nan]]}),
    "sample_H_sums_to_1_4": ("sample", {"coupling": "scale_mixture", "n": 3,
                                        "H": [[1.0, 0.7], [2.0, 0.7]]}),
    "sample_H_sum_overflows": ("sample", {"coupling": "scale_mixture", "n": 3,
                                          "H": [[1.0, 1e308], [2.0, 1e308]]}),
    # W = scale^2 = 1e400 overflows: refused, not sampled as rows of inf and -inf
    "sample_generator_scale_squared_overflows": ("sample", {"coupling": "scale_mixture", "n": 3,
                                                            "generator": _HUGE_SCALE}),
    "check_generator_scale_squared_overflows": ("check", {"sigmas": [1.0, 1.0, 1.0],
                                                          "generator": _HUGE_SCALE}),
    "sample_coupling_unknown": ("sample", {"coupling": "foo"}),
    "check_config_a_list": ("check", [1, 2]),
    "oracle_no_families": ("oracle", {"families": []}),
    # row sums of this grid can overflow: refused, not an RA run
    "oracle_row_sums_overflow": ("oracle", {"families": [_WIDE_COLUMN] * 3}),
    # with the typo ignored, --sigmas 1,1,1 would be a JM verdict
    "check_unknown_key": ("check", {"sigma": [3, 1, 1]}, "--sigmas", "1,1,1"),
    "sample_base_not_unimodal": ("sample", {"coupling": "scale_mixture", "n": 3,
                                            "base": _MIRROR_PAIR}, "-N", "20000"),
}
# what stderr must name, where the exit code alone could come from another refusal
_NAMED_REFUSALS = {
    "check_unknown_key": "config key 'sigma'",
    "sample_base_not_unimodal": "HypothesisViolation",
}


@pytest.mark.parametrize("name", list(_BAD_VALUE_CONFIGS))
def test_config_value_of_wrong_type_exits_usage(tmp_path, capsys, name):
    command, config, *flags = _BAD_VALUE_CONFIGS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg), *flags]
    if command == "sample":
        argv += ["-o", str(tmp_path / "x.csv")]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert _NAMED_REFUSALS.get(name, "") in err
    assert not (tmp_path / "x.csv").exists()


def _fault(*args, **kwargs):
    raise RuntimeError("a fault of the program")


@pytest.mark.parametrize("argv, config, patched, expected", [
    # powers of a that overflow (a = 10) or underflow (a = 0.01): F(a/2) rounds to 1/2
    (["check", "--example", "2.3", "--a", "10", "--r", "200"], None, None, EXIT_NOT_JM),
    (["check", "--example", "2.3", "--a", "0.01", "--r", "200"], None, None, EXIT_NOT_JM),
    # m^s and Gamma(s) of the Kotz constant overflow
    (["check"], {"example": "3.2", "N": 200.0}, None, EXIT_UNKNOWN),
    (["check"], {"example": "3.2", "N": 3.0, "m_k": 1e300}, None, EXIT_UNKNOWN),
    (["check", "--sigmas", "1,1,1"], None, "jm_verdict_elliptical", EXIT_SOFTWARE),
], ids=["bimodal_power_a_10", "bimodal_power_a_0.01", "kotz_N_200", "kotz_m_1e300", "fault"])
def test_exit_code_is_a_verdict_or_a_fault(tmp_path, capsys, monkeypatch, argv, config,
                                           patched, expected):
    # Python's status 1 after a crash would read as NotJM: a fault exits 70
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    if patched:
        monkeypatch.setattr(mixability, patched, _fault)
    code, out, err = run(capsys, *argv)
    assert code == expected
    if expected == EXIT_SOFTWARE:
        assert out == "" and "Traceback" in err and "RuntimeError: a fault" in err
    else:
        verdict = {EXIT_NOT_JM: "NotJM", EXIT_UNKNOWN: "Unknown"}[expected]
        assert err == "" and _strict_json(out)["verdict"] == verdict


def test_mixture_base_sidecar_replays(tmp_path, capsys):
    # the base's spec in the sidecar rebuilds a base that passes the same checks
    from jointmix.families import Elliptical, MixtureFamily, family_from_spec
    from jointmix.generators import CharacteristicGenerator

    normal = CharacteristicGenerator.normal()
    base = MixtureFamily([Elliptical(0.0, 1.0, normal), Elliptical(0.0, 2.0, normal)],
                         [0.1, 0.2])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"coupling": "scale_mixture", "base": base.spec(), "n": 3}))
    out_csv = tmp_path / "x.csv"
    first = run(capsys, "sample", "--config", str(cfg), "-N", "20", "-o", str(out_csv))
    assert first[0] == 0
    sidecar = json.loads((tmp_path / "x.csv.json").read_text())
    assert sidecar["base"] == base.spec() == family_from_spec(sidecar["base"]).spec()
    cfg.write_text(json.dumps({"coupling": "scale_mixture", "base": sidecar["base"], "n": 3}))
    replay_csv = tmp_path / "y.csv"
    assert run(capsys, "sample", "--config", str(cfg), "-N", "20", "-o", str(replay_csv))[0] == 0
    assert replay_csv.read_text() == out_csv.read_text()


def test_sample_sidecar_echo_replays(tmp_path, capsys):
    # config keys win over their flags, and the sidecar echoes the settings
    # that ran: fed back as a config, they give the same bytes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigmas": [1.0, 2.0, 1.5], "seed": 3, "count": 7}))
    first = tmp_path / "a.csv"
    argv = ["--config", str(cfg), "-N", "20", "--seed", "9", "-o", str(first)]
    assert run(capsys, "sample", *argv)[0] == 0
    echo = json.loads((tmp_path / "a.csv.json").read_text())["config"]
    assert echo["seed"] == 3 and echo["count"] == 7
    for key in ("command", "config", "config_file", "output"):
        del echo[key]
    cfg.write_text(json.dumps(echo))
    second = tmp_path / "b.csv"
    assert run(capsys, "sample", "--config", str(cfg), "-o", str(second))[0] == 0
    assert second.read_bytes() == first.read_bytes()
