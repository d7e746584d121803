"""Each output check accepts a real jointmix output and rejects a corrupted one.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from scipy import integrate, special

import checks
import workloads
from checks import CheckFailed
from jointmix import cli, generators, mixability, oracle
from jointmix.generators import CharacteristicGenerator


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def rejects(check, *args):
    with pytest.raises(CheckFailed):
        check(*args)


# --- check ------------------------------------------------------------------

@pytest.mark.parametrize("sigmas", [[1.0, 1.5, 2.0], [1.0, 2.0, 3.0], [4.0, 1.0, 1.5]])
def test_polygon_verdict(sigmas):
    mus = [0.25, -1.5, 2.0]
    code, out = run_cli("check", "--family", "cauchy", f"--sigmas={workloads._csv(sigmas)}",
                        f"--mus={workloads._csv(mus)}")
    out = json.loads(out)
    checks.check_polygon_verdict(sigmas, mus, code, out)
    rejects(checks.check_polygon_verdict, sigmas, mus, 2, out)
    flipped = dict(out, verdict="NotJM" if out["verdict"] == "JM" else "JM")
    rejects(checks.check_polygon_verdict, sigmas, mus, 1 - code, flipped)
    if out["verdict"] == "JM":
        shifted = dict(out, joint_center=math.nextafter(out["joint_center"], 10.0))
        rejects(checks.check_polygon_verdict, sigmas, mus, code, shifted)


@pytest.mark.parametrize("example, args, copies, a, cdf", [
    ("2.3", ["--a", 2.0, "--r", 2], 5, 2.0, checks.bimodal_power_cdf(2.0, 2)),
    ("2.4", ["--m", 2], 3, 1.0, checks.bimodal_moment_cdf(2)),
])
def test_bounded_certificate(example, args, copies, a, cdf):
    code, out = run_cli("check", "--example", example, *args, "--copies", copies)
    out = json.loads(out)
    checks.check_bounded_certificate(code, out, copies, a, cdf)
    bad = copy.deepcopy(out)
    bad["certificate"]["cdf_values"][1] += 1e-9
    rejects(checks.check_bounded_certificate, code, bad, copies, a, cdf)
    rejects(checks.check_bounded_certificate, 2, dict(out, verdict="Unknown"), copies, a, cdf)
    rejects(checks.check_bounded_certificate, 2, out, copies, a, cdf)


@pytest.mark.parametrize("example, args, copies, cdf", [
    ("2.2", ["--a", 0.5], 5, checks.two_interval_cdf(0.5)),
    ("3.2", [], 3, checks.kotz_cdf(2.0, 1.0, 1.0)),
])
def test_unbounded_certificate(example, args, copies, cdf):
    code, out = run_cli("check", "--example", example, *args, "--copies", copies)
    out = json.loads(out)
    checks.check_unbounded_certificate(code, out, copies, cdf)
    bad = copy.deepcopy(out)
    if out["verdict"] == "NotJM":
        bad["certificate"]["witness_masses"][0] -= 1e-9
    else:
        bad["certificate"]["witness_a"] = bad["certificate"]["a_grid"][-1]
    rejects(checks.check_unbounded_certificate, code, bad, copies, cdf)
    flipped = dict(out, verdict="Unknown" if out["verdict"] == "NotJM" else "NotJM")
    rejects(checks.check_unbounded_certificate, checks.EXIT_CODE[flipped["verdict"]], flipped, copies, cdf)


def test_location_scale_jm():
    code, out = run_cli("check", "--example", "3.1", "--copies", 3)
    out = json.loads(out)
    checks.check_location_scale_jm(code, out, 3)
    rejects(checks.check_location_scale_jm, code, dict(out, joint_center=1e-300), 3)
    rejects(checks.check_location_scale_jm, 1, dict(out, verdict="NotJM"), 3)


# --- explore / oracle -------------------------------------------------------

def _replace_cell(text, row, col, fn):
    lines = text.strip().splitlines()
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_explore_skew():
    ns, lams = [2, 3], checks.inclusive_range(0.0, 100.0, 25.0)
    code, out = run_cli("explore", "--mode", "skew", "--n-grid", "2:3", "--lambda-grid", "0:100:25")
    checks.check_explore_skew(code, out, ns, lams)
    rejects(checks.check_explore_skew, code, _replace_cell(out, 3, 2, lambda c: repr(float(c) + 1e-7)), ns, lams)
    rejects(checks.check_explore_skew, code, _replace_cell(out, 3, 3, lambda c: str(1 - int(c))), ns, lams)
    rejects(checks.check_explore_skew, code, out.replace("\n3,100,", "\n3,99,"), ns, lams)


def test_explore_bimodal():
    ms, ns = [0, 1, 2, 3], [1, 2, 3]
    code, out = run_cli("explore", "--mode", "bimodal", "--m-grid", "0:3", "--n-grid", "1:3")
    checks.check_explore_bimodal(code, out, ms, ns)
    rejects(checks.check_explore_bimodal, code, _replace_cell(out, 5, 2, lambda c: repr(float(c) * (1 + 1e-11))), ms, ns)
    rejects(checks.check_explore_bimodal, code, _replace_cell(out, 5, 4, lambda c: str(1 - int(c))), ms, ns)


def test_oracle_summary():
    code, out = run_cli("oracle", "--example", "uniform", "--m", 200, "--copies", 3)
    out = json.loads(out)
    checks.check_oracle_summary(code, out, 200, 3, 10, 500)
    rejects(checks.check_oracle_summary, code, dict(out, stddev=out["spread"]), 200, 3, 10, 500)
    rejects(checks.check_oracle_summary, code, out, 199, 3, 10, 500)
    rejects(checks.check_oracle_summary, code, dict(out, iterations=0), 200, 3, 10, 500)


# --- sample / verify ----------------------------------------------------------

@pytest.fixture
def slash_csv(tmp_path):
    mus, sig, q = [0.25, -1.0, 2.0], [1.0, 1.5, 2.0], 1.5
    path = tmp_path / "s.csv"
    code, _ = run_cli("sample", "--coupling", "slash", "--generator", "normal", "--q", q,
                      f"--sigmas={workloads._csv(sig)}", f"--mus={workloads._csv(mus)}",
                      "-N", 5000, "--seed", 3, "-o", path)
    cdfs = [checks.reference_cdf("slash_normal", {"q": q, "mu": m, "sigma": s}) for m, s in zip(mus, sig)]
    return code, path, mus, sig, q, cdfs


def _rewrite(path, fn):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(fn(lines)) + "\n")


def test_sample_csv_accepts(slash_csv):
    code, path, mus, _, _, cdfs = slash_csv
    checks.check_sample_csv(code, path, 5000, mus, cdfs)
    rejects(checks.check_sample_csv, 1, path, 5000, mus, cdfs)
    rejects(checks.check_sample_csv, code, path, 4999, mus, cdfs)


def test_sample_csv_rejects_short_cells(slash_csv):
    code, path, mus, _, _, cdfs = slash_csv
    _rewrite(path, lambda ls: ls[:1] + [",".join("%.15g" % float(c) for c in ls[1].split(","))] + ls[2:])
    rejects(checks.check_sample_csv, code, path, 5000, mus, cdfs)


def test_sample_csv_rejects_row_sum(slash_csv):
    code, path, mus, _, _, cdfs = slash_csv

    def bump(lines):
        cells = lines[7].split(",")
        cells[0] = "%.17g" % (float(cells[0]) * (1 + 1e-9))
        return lines[:7] + [",".join(cells)] + lines[8:]

    _rewrite(path, bump)
    rejects(checks.check_sample_csv, code, path, 5000, mus, cdfs)


def test_sample_csv_rejects_marginal(slash_csv):
    # the same constant-sum rows, checked against marginals 30% narrower
    code, path, mus, sig, q, _ = slash_csv
    wrong = [checks.reference_cdf("slash_normal", {"q": q, "mu": m, "sigma": 0.7 * s}) for m, s in zip(mus, sig)]
    rejects(checks.check_sample_csv, code, path, 5000, mus, wrong)


def test_verify_report(slash_csv):
    code, path, mus, _, _, _ = slash_csv
    center = checks.exact_sum(mus)
    vcode, out = run_cli("verify", "-i", path, f"--center={center!r}")
    out = json.loads(out)
    checks.check_verify_report(vcode, out, 5000, center)
    rejects(checks.check_verify_report, vcode, dict(out, rows=4999), 5000, center)
    rejects(checks.check_verify_report, vcode, dict(out, passed=False), 5000, center)
    rejects(checks.check_verify_report, 1, out, 5000, center)


def test_slash_reference_matches_quadrature():
    # F(z) = int_0^1 Phi(z u^(1/q)) du = int_0^1 q t^(q-1) Phi(z t) dt, split where Phi(z t) turns
    for q in (0.5, 1.0, 1.5, 3.0):
        for z in (-40.0, -2.5, -0.3, 0.0, 1e-3, 0.7, 4.0, 300.0):
            ref, _ = integrate.quad(lambda t: q * t ** (q - 1.0) * special.ndtr(z * t), 0.0, 1.0,
                                    points=[min(0.5, 8.0 / max(abs(z), 1e-300))], epsabs=1e-15, limit=200)
            assert abs(float(checks.slash_normal_std_cdf(z, q)) - ref) < 1e-11, (q, z)


# --- quantile grids and RA ----------------------------------------------------

@pytest.mark.parametrize("kind", ["uniform", "bimodal_power", "student_t", "kotz"] + list(workloads.CERT_FAMILIES))
def test_quantile_grid(kind):
    rng = np.random.default_rng(5)
    if kind in workloads.CERT_FAMILIES:
        specs = [workloads.certify_columns(rng, kind) for _ in range(2)]
    else:
        specs = workloads.ra_columns(rng, kind, 2)
    grid = oracle.discretize([workloads.make_family(k, p) for k, p in specs], 64)
    cdfs = [checks.reference_cdf(k, p) for k, p in specs]
    checks.check_quantile_grid(grid.values, cdfs)
    bad = grid.values.copy()
    bad[10, 1] += 1e-4 * (1 + abs(bad[10, 1]))
    rejects(checks.check_quantile_grid, bad, cdfs)
    rejects(checks.check_quantile_grid, grid.values[::-1], cdfs)


def _ra(kind, m, n, seed=1):
    specs = workloads.ra_columns(np.random.default_rng(seed), kind, n)
    grid = oracle.discretize([workloads.make_family(k, p) for k, p in specs], m)
    res = oracle.ra_minimize(grid, restarts=4, seed=seed)
    return grid, res


def test_min_spread_brute_force_matches_program():
    for kind, m, n in (("bimodal_power", 5, 3), ("student_t", 6, 2), ("uniform", 6, 3)):
        grid, _ = _ra(kind, m, n)
        expect, _ = oracle.brute_force_min_spread(grid)
        assert checks.min_spread_brute_force(grid.values) == pytest.approx(expect, abs=1e-15)


def test_rearrangement_accepts_and_rejects():
    grid, res = _ra("bimodal_power", 5, 3)
    v = grid.values
    optimum = checks.min_spread_brute_force(v)
    checks.check_rearrangement(v, res, res.apply(grid), optimum)
    perms = res.permutations.copy()
    perms[1, 0] = perms[1, 1]
    bad = dataclasses.replace(res, permutations=perms)
    rejects(checks.check_rearrangement, v, bad, bad.apply(grid))
    bad = dataclasses.replace(res, row_sum_spread=res.row_sum_spread * (1 + 1e-9) + 1e-12)
    rejects(checks.check_rearrangement, v, bad, bad.apply(grid))
    bad = dataclasses.replace(res, variance_trajectory=res.variance_trajectory + [res.variance_trajectory[-1] + 1e-3])
    rejects(checks.check_rearrangement, v, bad, bad.apply(grid))
    rejects(checks.check_rearrangement, v, res, res.apply(grid)[::-1])
    rejects(checks.check_rearrangement, v, res, res.apply(grid), res.row_sum_spread + 1e-6)


def test_rearrangement_large_grid():
    grid, res = _ra("uniform", 1000, 10)
    checks.check_rearrangement(grid.values, res, res.apply(grid))


# --- certificates and generators ------------------------------------------------

def test_skewnormal_certificate():
    for n, lam in ((2, 5.0), (3, 20.0), (5, 90.0)):
        v = mixability.skewnormal_noncm_certificate(n, lam)
        checks.check_skewnormal_certificate(v, n, lam)
        bad = copy.deepcopy(v)
        bad.certificate["bound"] += 1e-7
        rejects(checks.check_skewnormal_certificate, bad, n, lam)
        flipped = dataclasses.replace(v, verdict="Unknown" if v.verdict == "NotJM" else "NotJM")
        rejects(checks.check_skewnormal_certificate, flipped, n, lam)


def test_ssmn_certificate():
    atoms = [(0.5, 0.4), (1.0, 0.6)]
    for lam in (3.0, 40.0):
        v = mixability.ssmn_noncm_certificate(3, lam, atoms)
        checks.check_ssmn_certificate(v, 3, lam, atoms)
        bad = copy.deepcopy(v)
        bad.certificate["atoms"][0]["certificate"]["bound"] -= 1e-7
        rejects(checks.check_ssmn_certificate, bad, 3, lam, atoms)
        flipped = dataclasses.replace(v, verdict="Unknown" if v.verdict == "NotJM" else "NotJM")
        rejects(checks.check_ssmn_certificate, flipped, 3, lam, atoms)


def test_skewnormal_threshold():
    for n in (2, 3):
        lam = mixability.skewnormal_threshold(n)
        checks.check_skewnormal_threshold(n, lam)
        rejects(checks.check_skewnormal_threshold, n, lam * 1.01)
        rejects(checks.check_skewnormal_threshold, n, math.inf)


def test_cg_eval():
    for g, a, b, u in workloads.cg_cases(np.random.default_rng(2), 4):
        value = generators.cg_eval(g, u)
        checks.check_cg_eval(value, a, b, u)
        rejects(checks.check_cg_eval, value * (1 + 1e-7), a, b, u)
    rejects(checks.check_cg_eval, generators.cg_eval(CharacteristicGenerator.student_t(3.0), 1.0), 1.5, 1.0, 1.0)


def test_reference_cdfs_match_program_cdfs():
    # the reference and the program describe the same law for every column spec
    rng = np.random.default_rng(11)
    specs = [workloads.certify_columns(rng, k) for k in workloads.CERT_FAMILIES]
    specs += [workloads.ra_columns(rng, k, 1)[0] for k in ("uniform", "bimodal_power", "student_t", "kotz")]
    for kind, p in specs:
        fam = workloads.make_family(kind, p)
        x = np.linspace(-3.0, 3.0, 13) * (p.get("sigma", 1.0))
        assert np.max(np.abs(fam.cdf(x) - checks.reference_cdf(kind, p)(x))) < 1e-7, kind
