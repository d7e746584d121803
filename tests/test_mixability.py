import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointmix import couplings, oracle
from jointmix.families import (
    BimodalPower,
    Elliptical,
    MixtureFamily,
    Uniform,
)
from jointmix.generators import CharacteristicGenerator
from jointmix.mixability import (
    JM,
    NOT_JM,
    UNKNOWN,
    HypothesisViolation,
    MixabilityVerdict,
    check_scale_inequality,
    default_a_grid,
    jm_verdict_elliptical,
    jm_verdict_unimodal_location_scale,
    not_jm_bounded_symmetric,
    not_jm_unbounded_symmetric,
    skewnormal_noncm_certificate,
    skewnormal_threshold,
    ssmn_noncm_certificate,
)

NORMAL = CharacteristicGenerator.normal()
T3 = CharacteristicGenerator.student_t(3.0)


# --- scale inequality -------------------------------------------------------

def test_scale_inequality_basic():
    assert check_scale_inequality([1, 1, 1])
    assert not check_scale_inequality([3, 1, 1])
    # boundary: equality counts as satisfied (non-strict)
    assert check_scale_inequality([2, 1, 1])
    assert not check_scale_inequality([2 + 1e-9, 1, 1])


def test_scale_inequality_rejects_bad_input():
    with pytest.raises(ValueError):
        check_scale_inequality([])
    with pytest.raises(ValueError):
        check_scale_inequality([1.0, -1.0])
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            check_scale_inequality([bad, 1.0, 1.0])


def test_scale_inequality_exact_beyond_overflow():
    # both sides of sum >= 2 max overflow to inf in plain float arithmetic
    assert check_scale_inequality([1e308, 1e308, 1e308])
    assert not check_scale_inequality([1.7e308, 0.5e308, 0.5e308])
    assert check_scale_inequality([1.7e308, 1.7e308])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=10))
def test_scale_inequality_matches_definition(thetas):
    # exact rational arithmetic on the given doubles: no rounding in the oracle
    exact = [Fraction(t) for t in thetas]
    assert check_scale_inequality(thetas) == (sum(exact) >= 2 * max(exact))


def _exact_sum(values) -> float:
    total = sum(map(Fraction, values))
    try:
        return float(total)
    except OverflowError:  # the exact sum rounds past the largest double
        return math.inf if total > 0 else -math.inf


def test_joint_center_is_the_exact_sum():
    # a plain left-to-right sum gives 0.0
    mus = [1e16, 1.0, -1e16]
    assert jm_verdict_elliptical([1.0] * 3, mus, NORMAL).joint_center == 1.0
    assert jm_verdict_unimodal_location_scale(Uniform(-1, 1), [1.0] * 3, mus).joint_center == 1.0
    assert couplings.sample_jm_elliptical(mus, [1.0] * 3, NORMAL, 4, 0).joint_center == 1.0
    # partial sums overflow, the exact sum does not
    mus = [1.5e308, 1.5e308, -1.5e308]
    assert jm_verdict_elliptical([1.0] * 3, mus, NORMAL).joint_center == 1.5e308
    # a location that is not finite, also past an overflowing partial sum, is
    # not a valid marginal: no joint center is formed from it
    for tail in [(math.inf,), (-math.inf,), (math.inf, -math.inf), (math.nan,)]:
        mus = [1e308, 1e308, *tail]
        ones = [1.0] * len(mus)
        for build in (lambda: jm_verdict_elliptical(ones, mus, NORMAL),
                      lambda: jm_verdict_unimodal_location_scale(Uniform(-1, 1), ones, mus),
                      lambda: couplings.sample_jm_elliptical(mus, ones, NORMAL, 4, 0)):
            with pytest.raises(ValueError, match="locations must be finite"):
                build()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=8))
def test_joint_center_matches_fraction_sum(mus):
    exact = _exact_sum(mus)
    sigmas = [1.0] * len(mus)
    assert jm_verdict_elliptical(sigmas, mus, T3).joint_center == exact
    assert jm_verdict_unimodal_location_scale(Uniform(-1, 1), sigmas, mus).joint_center == exact
    batch = couplings.sample_jm_slash(mus, sigmas, NORMAL, 1.5, 2, 0)
    assert batch.sidecar()["joint_center"] == exact


# --- location-scale iff criterion ------------------------------------------

def test_uniform_pair_is_jm():
    res = jm_verdict_unimodal_location_scale(Uniform(-1, 1), [1.0, 1.0], [0.0, 0.0])
    assert res.verdict == JM
    assert res.joint_center == 0.0


def test_normal_311_not_jm():
    res = jm_verdict_unimodal_location_scale(
        Elliptical(0, 1, NORMAL), [3.0, 1.0, 1.0], [0.0, 0.0, 0.0]
    )
    assert res.verdict == NOT_JM


def test_normal_mixed_scales_jm_and_coupling_confirms():
    res = jm_verdict_unimodal_location_scale(
        Elliptical(0, 1, NORMAL), [2.0, 1.5, 1.0], [1.0, 2.0, 3.0]
    )
    assert res.verdict == JM
    assert res.joint_center == 6.0
    batch = couplings.sample_jm_elliptical([1, 2, 3], [2, 1.5, 1], NORMAL, 10**4, seed=0)
    report = oracle.verify_constant_sum(batch, 6.0, 1e-8)
    assert report.passed


def test_nonunimodal_base_yields_unknown():
    res = jm_verdict_unimodal_location_scale(BimodalPower(1, 1), [1, 1, 1], [0, 0, 0])
    assert res.verdict == UNKNOWN
    assert res.certificate["type"] == "hypothesis_violation"


# --- elliptical criterion ---------------------------------------------------

def test_elliptical_equal_sigmas_jm():
    res = jm_verdict_elliptical([1, 1, 1], [0, 0, 0], NORMAL)
    assert res.verdict == JM and res.joint_center == 0.0


def test_elliptical_t3_unbalanced_not_jm():
    res = jm_verdict_elliptical([5, 1, 1], [0, 0, 0], T3)
    assert res.verdict == NOT_JM
    assert res.certificate["unimodal_fallback"]


def test_elliptical_cauchy_pair_jm():
    res = jm_verdict_elliptical([1, 1], [0, 0], CharacteristicGenerator.cauchy())
    assert res.verdict == JM and res.joint_center == 0.0


# --- bounded symmetric certificate -----------------------------------------

def test_bimodal_power_triple_not_jm():
    fam = BimodalPower(1.0, 1)
    res = not_jm_bounded_symmetric([fam] * 3, 1.0)
    assert res.verdict == NOT_JM
    assert res.certificate["cdf_values"][0] == pytest.approx(0.5625, rel=1e-14)


def test_uniform_triple_does_not_fire():
    fam = Uniform(-1, 1)
    res = not_jm_bounded_symmetric([fam] * 3, 1.0)
    assert res.verdict == UNKNOWN
    assert res.certificate["cdf_values"][0] == pytest.approx(0.75)


def test_five_copies_r2_fires():
    # F(2/3) = 1/2 + (2/3)^5 / 2 <= 3/5
    fam = BimodalPower(1.0, 2)
    res = not_jm_bounded_symmetric([fam] * 5, 1.0)
    expected = 0.5 + (2.0 / 3.0) ** 5 / 2.0
    assert res.certificate["cdf_values"][0] == pytest.approx(expected, rel=1e-12)
    assert expected <= 0.6
    assert res.verdict == NOT_JM


def test_bounded_certificate_hypothesis_checks():
    with pytest.raises(HypothesisViolation):
        not_jm_bounded_symmetric([Uniform(-2, 2)] * 3, 1.0)  # support too wide
    with pytest.raises(HypothesisViolation):
        not_jm_bounded_symmetric([Uniform(-1, 1)] * 4, 1.0)  # even count


# --- unbounded symmetric certificate ---------------------------------------

def test_three_normals_never_fire():
    fam = Elliptical(0, 1, NORMAL)
    res = not_jm_unbounded_symmetric([fam] * 3, [0.5 * k for k in range(1, 11)])
    assert res.verdict == UNKNOWN
    assert res.certificate["witness_a"] is None


def test_concentrated_symmetric_density_fires():
    fam = MixtureFamily([Uniform(-1.0, -0.9), Uniform(0.9, 1.0)], [0.5, 0.5])
    assert fam.symmetric
    res = not_jm_unbounded_symmetric([fam] * 3, [0.5, 1.0, 2.0])
    assert res.verdict == NOT_JM
    assert res.certificate["witness_a"] == 1.0
    # F(1) - F(3/4) = 1/2 >= 1/3
    assert res.certificate["witness_masses"][0] == pytest.approx(0.5, abs=1e-12)


def test_empty_grid_is_unknown():
    fam = Elliptical(0, 1, NORMAL)
    assert not_jm_unbounded_symmetric([fam] * 3, []).verdict == UNKNOWN


def test_default_a_grid_shape():
    grid = default_a_grid([0.5, 2.0])
    assert len(grid) == 64
    assert grid[0] == pytest.approx(0.05)
    assert grid[-1] == pytest.approx(20.0)


# --- skew-normal certificates ----------------------------------------------

def test_skewnormal_lambda_zero_never_fires():
    for n in range(2, 7):
        assert skewnormal_noncm_certificate(n, 0.0).verdict == UNKNOWN


def test_skewnormal_fires_at_large_lambda():
    res = skewnormal_noncm_certificate(2, 50.0)
    assert res.verdict == NOT_JM
    assert res.certificate["bound"] < 1.0


def test_skewnormal_threshold_regression():
    # regression fixture recorded at first verified run, not a derived value
    assert skewnormal_threshold(2) == pytest.approx(1.7356407, abs=1e-3)


def test_ssmn_point_mass_reduces_to_sn():
    lam = 30.0
    direct = skewnormal_noncm_certificate(2, lam)
    via_ssmn = ssmn_noncm_certificate(2, lam, [(1.0, 1.0)])
    assert via_ssmn.verdict == direct.verdict
    sub = via_ssmn.certificate["atoms"][0]["certificate"]
    assert sub["bound"] == direct.certificate["bound"]


def test_ssmn_requires_all_atoms():
    # lambda v in {50, 200}: both fire at n = 2
    res = ssmn_noncm_certificate(2, 100.0, [(0.5, 0.5), (2.0, 0.5)])
    expected = all(
        skewnormal_noncm_certificate(2, lv).verdict == NOT_JM for lv in (50.0, 200.0)
    )
    assert (res.verdict == NOT_JM) == expected
    # one small atom drags the certificate back to Unknown
    res2 = ssmn_noncm_certificate(2, 1.0, [(0.1, 0.5), (1000.0, 0.5)])
    assert res2.verdict == UNKNOWN


def test_ssmn_lambda_zero_unknown():
    assert ssmn_noncm_certificate(2, 0.0, [(1.0, 0.5), (2.0, 0.5)]).verdict == UNKNOWN


def test_ssmn_rejects_nonpositive_atoms():
    with pytest.raises(ValueError):
        ssmn_noncm_certificate(2, 1.0, [(-1.0, 1.0)])


# --- certificate replay -----------------------------------------------------

def _verdict_battery():
    return [
        jm_verdict_elliptical([1, 1, 1], [0, 0, 0], NORMAL),
        jm_verdict_elliptical([5, 1, 1], [0, 0, 0], T3),
        jm_verdict_unimodal_location_scale(Uniform(-1, 1), [2, 1, 1], [0, 0, 0]),
        not_jm_bounded_symmetric([BimodalPower(1, 1)] * 3, 1.0),
        not_jm_bounded_symmetric([Uniform(-1, 1)] * 3, 1.0),
        not_jm_unbounded_symmetric(
            [MixtureFamily([Uniform(-1, -0.9), Uniform(0.9, 1)], [0.5, 0.5])] * 3, [1.0]
        ),
        skewnormal_noncm_certificate(2, 50.0),
        skewnormal_noncm_certificate(3, 0.5),
        ssmn_noncm_certificate(2, 100.0, [(0.5, 0.5), (2.0, 0.5)]),
    ]


def test_certificate_replay_bit_for_bit():
    for res in _verdict_battery():
        round_tripped = MixabilityVerdict.from_json(res.to_json())
        assert round_tripped.replay() == res.verdict
        assert round_tripped.to_json() == res.to_json()


# --- soundness against the RA oracle ---------------------------------------

def test_not_jm_certificate_agrees_with_ra_evidence():
    fam = BimodalPower(1.0, 1)
    assert not_jm_bounded_symmetric([fam] * 3, 1.0).verdict == NOT_JM
    for m in (64, 128, 256):
        grid = oracle.discretize([fam] * 3, m)
        res = oracle.ra_minimize(grid, restarts=5, seed=1)
        mean_scale = float(np.mean(np.abs(grid.values)))
        assert res.row_sum_spread > 1e-3 * mean_scale
