"""End-to-end acceptance checks.

Each test prints a single "criterion N: PASS/FAIL" line so the suite output
doubles as a short report.  Thresholds marked as regression fixtures were
recorded at the first verified run; the asserted property is the ordering,
not the specific number.
"""

import time

import numpy as np
from scipy import integrate, stats

from jointmix import couplings, mixability, oracle
from jointmix.cli import main as cli_main
from jointmix.families import (
    BimodalMoment,
    BimodalPower,
    SlashElliptical,
    Uniform,
)
from jointmix.generators import CharacteristicGenerator

NORMAL = CharacteristicGenerator.normal()


def _report(num, ok):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_exact_elliptical_coupling():
    """Constant-sum elliptical couplings hit the joint center to 1e-8."""
    mus, sigmas, center = [1.0, 2.0, 3.0], [2.0, 1.5, 1.0], 6.0
    gens = [NORMAL, CharacteristicGenerator.student_t(3.0),
            CharacteristicGenerator.cauchy()]
    start = time.perf_counter()
    worst = 0.0
    for g in gens:
        batch = couplings.sample_jm_elliptical(mus, sigmas, g, 10**4, seed=0)
        worst = max(worst, float(np.max(np.abs(batch.data.sum(axis=1) - center))))
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-8 and elapsed < 5.0)


def test_criterion_2_matrix_variate():
    sigma_p = np.array([[2.0, 1.0], [1.0, 2.0]])
    ok = True
    for n in (2, 3, 5):
        plan = couplings.EquicorrelationPlan(n)
        eigs = np.sort(np.linalg.eigvalsh(plan.phi))
        want = np.array([0.0] + [n / (n - 1)] * (n - 1))
        ok &= bool(np.max(np.abs(eigs - want)) <= 1e-12)
        mb = couplings.sample_matrix_variate_cm(2, sigma_p, NORMAL, n, 10**4, seed=1)
        ok &= bool(np.max(np.linalg.norm(mb.data.sum(axis=2), axis=1)) <= 1e-9)
    _report(2, ok)


def test_criterion_3_slash_coupling():
    sigmas = [1.0, 1.0, 1.0]
    ok = True
    for q in (0.5, 2.0):
        batch = couplings.sample_jm_slash([0.0] * 3, sigmas, NORMAL, q, 10**4, seed=3)
        # relative tolerance: q = 0.5 draws reach 1e6 scale, where an absolute
        # 1e-8 on their sums would sit below float64 resolution
        ok &= oracle.verify_constant_sum(batch, 0.0, 1e-8).passed
        ref = SlashElliptical(0.0, 1.0, NORMAL, q).sample(10**5, seed=4)
        for j in range(3):
            ks = stats.ks_2samp(batch.data[:, j], ref)
            ok &= bool(ks.pvalue > 0.01)
    _report(3, ok)


def test_criterion_4_scale_inequality_boundary():
    on = mixability.check_scale_inequality([2.0, 1.0, 1.0])
    off = mixability.check_scale_inequality([2.0 + 1e-9, 1.0, 1.0])
    v_on = mixability.jm_verdict_unimodal_location_scale(
        Uniform(-1, 1), [2.0, 1.0, 1.0], [0.0] * 3)
    v_off = mixability.jm_verdict_unimodal_location_scale(
        Uniform(-1, 1), [2.0 + 1e-9, 1.0, 1.0], [0.0] * 3)
    _report(4, on and not off
            and v_on.verdict == mixability.JM and v_off.verdict == mixability.NOT_JM)


def test_criterion_5_bimodal_certificate_and_ra_evidence():
    fam = BimodalPower(1.0, 1)
    res = mixability.not_jm_bounded_symmetric([fam] * 3, 1.0)
    exact = res.certificate["cdf_values"][0] == 0.5625
    bimodal = oracle.ra_minimize(
        oracle.discretize([fam] * 3, 99), restarts=10, seed=0)
    control = oracle.ra_minimize(
        oracle.discretize([Uniform(0, 1)] * 3, 99), restarts=10, seed=0)
    sep = bimodal.row_sum_stddev >= 2.5 * control.row_sum_stddev
    _report(5, exact and res.verdict == mixability.NOT_JM
            and bimodal.row_sum_stddev >= 0.05
            and control.row_sum_stddev <= 0.02 and sep)


def test_criterion_6_moment_family_checker():
    fam = BimodalMoment(1)
    res = mixability.not_jm_bounded_symmetric([fam] * 3, 1.0)
    # closed incomplete-beta CDF against direct quadrature of the density
    a = 1.0 * 1 / (1 + 1)  # na/(n+1) with n = 1, a = 1
    closed = fam.cdf(a)
    quad, _ = integrate.quad(fam.density, -1.0, a, epsabs=1e-12)
    _report(6, res.verdict == mixability.NOT_JM and abs(closed - quad) <= 1e-8)


def test_criterion_7_skewnormal_certificate():
    quiet = all(
        mixability.skewnormal_noncm_certificate(n, 0.0).verdict == mixability.UNKNOWN
        for n in range(2, 7)
    )
    fires = mixability.skewnormal_noncm_certificate(2, 50.0).verdict == mixability.NOT_JM
    thresholds = [mixability.skewnormal_threshold(n) for n in range(2, 7)]
    monotone = all(a < b for a, b in zip(thresholds, thresholds[1:]))
    finite = all(np.isfinite(t) for t in thresholds)
    _report(7, quiet and fires and monotone and finite)


def test_criterion_8_oracle_soundness():
    rng = np.random.default_rng(2024)
    ok = True
    for trial in range(20):
        cols = np.sort(rng.normal(scale=1 + trial % 3, size=(6, 3)), axis=0)
        grid = oracle.QuantileGrid(cols)
        opt, _ = oracle.brute_force_min_spread(grid)
        res = oracle.ra_minimize(grid, restarts=100, seed=trial)
        ok &= bool(res.row_sum_spread <= 1.10 * opt + 1e-12)
        traj = res.variance_trajectory
        ok &= all(a >= b - 1e-12 for a, b in zip(traj, traj[1:]))
    _report(8, ok)


def test_criterion_9_transform_invariance():
    batch = couplings.sample_jm_elliptical(
        [1.0, 2.0, 3.0], [1.0, 1.0, 1.0], NORMAL, 10**4, seed=5)
    sums = batch.data.sum(axis=1)
    ok = True
    for f in (lambda x: x**2, np.exp, np.abs):
        want = f(batch.joint_center)
        got = f(sums)
        ok &= bool(np.max(np.abs(got - want)) <= 1e-6 * abs(want))
    _report(9, ok)


def test_criterion_10_determinism(tmp_path, capsys):
    commands = [
        ["check", "--family", "student_t:3", "--sigmas", "2,1.5,1", "--mus", "1,2,3"],
        ["explore", "--mode", "skew", "--n-grid", "2:3", "--lambda-grid", "0:10:5"],
        ["oracle", "--example", "uniform", "--m", "20", "--restarts", "3",
         "--seed", "9"],
    ]
    ok = True
    for argv in commands:
        outs = []
        for _ in range(2):
            cli_main(list(argv))
            outs.append(capsys.readouterr().out)
        ok &= outs[0] == outs[1]
    for tag in ("a", "b"):
        cli_main(["sample", "--coupling", "slash", "--q", "2", "--sigmas", "1,1,1",
                  "-N", "200", "--seed", "13", "-o", str(tmp_path / f"{tag}.csv")])
    capsys.readouterr()
    ok &= (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    _report(10, ok)
