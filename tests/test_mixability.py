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
    SSMN,
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
    replay_certificate,
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


def test_nonunimodal_base_is_refused():
    # one refusal for the iff criterion and for the scale-mixture coupling
    with pytest.raises(HypothesisViolation, match="unimodal and symmetric"):
        jm_verdict_unimodal_location_scale(BimodalPower(1, 1), [1, 1, 1], [0, 0, 0])
    with pytest.raises(HypothesisViolation, match="unimodal and symmetric"):
        couplings.sample_cm_scale_mixture(BimodalPower(1, 1), [(1.0, 1.0)], 3, 10, seed=0)


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


def test_symmetric_certificates_reject_off_center_laws():
    # U(0,1) x 3 is 3-CM: (U, frac(U + 1/2), 3/2 - U - frac(U + 1/2)) sums to 3/2,
    # so neither criterion, which needs symmetry about 0, may call it NotJM
    fams = [Uniform(0.0, 1.0)] * 3
    with pytest.raises(HypothesisViolation, match="symmetric about 0"):
        not_jm_bounded_symmetric(fams, 1.0)
    with pytest.raises(HypothesisViolation, match="symmetric about 0"):
        not_jm_unbounded_symmetric(fams, [0.5, 0.75, 1.0])


# --- unbounded symmetric certificate ---------------------------------------

def test_three_normals_never_fire():
    fam = Elliptical(0, 1, NORMAL)
    res = not_jm_unbounded_symmetric([fam] * 3, [0.5 * k for k in range(1, 11)])
    assert res.verdict == UNKNOWN
    assert res.certificate["witness_a"] is None


def test_concentrated_symmetric_density_fires():
    fam = MixtureFamily([Uniform(-1.0, -0.9), Uniform(0.9, 1.0)], [0.5, 0.5], symmetric=True)
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
    with pytest.raises(ValueError):
        ssmn_noncm_certificate(2, 1.0, [])
    for atom in [(math.nan, 1.0), (math.inf, 1.0), (1.0, -0.5), (1.0, math.nan), (1.0, 5.0)]:
        with pytest.raises(ValueError, match="H "):
            ssmn_noncm_certificate(3, 50.0, [atom])


def test_h_rule_is_one_rule():
    # probabilities that sum to 1.4 are no law, for the certificate, the
    # scale-mixture coupling and the SSMN family alike
    not_a_law = [(1.0, 0.7), (2.0, 0.7)]
    with pytest.raises(ValueError, match="H probabilities must sum to 1"):
        ssmn_noncm_certificate(3, 50.0, not_a_law)
    with pytest.raises(ValueError, match="H probabilities must sum to 1"):
        couplings.sample_cm_scale_mixture(Elliptical(0.0, 1.0, NORMAL), not_a_law, 3, 10, seed=0)
    with pytest.raises(ValueError, match="H probabilities must sum to 1"):
        SSMN(0.0, 1.0, 50.0, not_a_law)


def test_certificates_reject_non_integer_n():
    # F is evaluated at n E, so a certificate at n = 2.5 is no certificate at
    # any whole n
    for n in (2.5, 1.0, 1, math.nan, math.inf):
        with pytest.raises(ValueError, match="n must be an integer >= 2"):
            skewnormal_noncm_certificate(n, 30.0)
        with pytest.raises(ValueError, match="n must be an integer >= 2"):
            ssmn_noncm_certificate(n, 30.0, [(1.0, 1.0)])
    whole = skewnormal_noncm_certificate(2.0, 30.0).certificate
    assert whole == skewnormal_noncm_certificate(2, 30.0).certificate
    assert type(whole["n"]) is int


# --- certificate replay -----------------------------------------------------

def _verdict_battery():
    return [
        jm_verdict_elliptical([1, 1, 1], [0, 0, 0], NORMAL),
        jm_verdict_elliptical([5, 1, 1], [0, 0, 0], T3),
        jm_verdict_unimodal_location_scale(Uniform(-1, 1), [2, 1, 1], [0, 0, 0]),
        not_jm_bounded_symmetric([BimodalPower(1, 1)] * 3, 1.0),
        not_jm_bounded_symmetric([Uniform(-1, 1)] * 3, 1.0),
        not_jm_unbounded_symmetric(
            [MixtureFamily([Uniform(-1, -0.9), Uniform(0.9, 1)], [0.5, 0.5], symmetric=True)] * 3,
            [1.0],
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


def test_replay_rejects_malformed_certificates():
    # every field a certificate type declares is required, also in an SSMN atom
    for res in _verdict_battery():
        for name in res.certificate:
            if name in ("type", "generator", "unimodal_fallback"):
                continue
            cert = {k: v for k, v in res.certificate.items() if k != name}
            with pytest.raises(ValueError, match=repr(name)):
                replay_certificate(cert)
    with pytest.raises(ValueError, match="'cdf_term'"):
        replay_certificate({"type": "skew_normal", "n": 3})
    atoms = ssmn_noncm_certificate(2, 100.0, [(0.5, 1.0)]).certificate["atoms"]
    del atoms[0]["certificate"]["neg_prob"]
    with pytest.raises(ValueError, match="'neg_prob'"):
        replay_certificate({"type": "ssmn", "n": 2, "lam": 100.0, "atoms": atoms})
    scale = jm_verdict_elliptical([1, 1, 1], [0, 0, 0], NORMAL).certificate
    bad_atom = {"atom": 1.0, "prob": 1.0, "certificate": scale}
    # declared fields of the wrong JSON type
    text_cdf = {**skewnormal_noncm_certificate(2, 50.0).certificate, "cdf_term": "0.5"}
    scalar_cdfs = {"type": "bounded_symmetric", "a": 1.0, "n": 1, "evaluation_point": 0.5,
                   "cdf_values": 5, "threshold": 2.0 / 3.0}
    for cert in ({"type": "no_such_type"}, {}, [], "skew_normal",
                 {"type": "ssmn", "n": 2, "lam": 1.0, "atoms": [bad_atom]},
                 {"type": "ssmn", "n": 2, "lam": 1.0, "atoms": [{"atom": 1.0}]},
                 {"type": "ssmn", "n": 2, "lam": 1.0, "atoms": [1]}, text_cdf, scalar_cdfs):
        with pytest.raises(ValueError):
            replay_certificate(cert)
    with pytest.raises(ValueError, match="'cdf_term'"):
        MixabilityVerdict.from_json('{"verdict": "NotJM", "certificate": '
                                    '{"type": "skew_normal", "n": 3}}').replay()


# --- replay at the boundaries -------------------------------------------------
#
# Each rule is restated here as plain comparisons, as the six-way if-chain
# once wrote it; a NaN anywhere gives Unknown.  The inputs sit on, or one
# float step either side of, each threshold.

def _near(x):
    return st.sampled_from([x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)])


def _with_nan(draw, values):
    """``values`` with a NaN at a drawn position, or unchanged."""
    values = list(values)
    at = draw(st.none() | st.integers(0, len(values) - 1))
    if at is not None:
        values[at] = math.nan
    return values


@st.composite
def _scale_cert(draw):
    # dyadic parts sum exactly: the largest scale equals, or is one float step
    # off, the sum of the others, as (2, 1, 1) is
    unit = 2.0 ** draw(st.integers(-8, 8))
    parts = [k * unit for k in draw(st.lists(st.integers(1, 64), min_size=1, max_size=5))]
    thetas = draw(st.permutations([*parts, draw(_near(sum(parts)))]))
    return {"type": "scale_inequality", "thetas": _with_nan(draw, thetas),
            "total": 0.0, "twice_max": 0.0, "iff": draw(st.booleans())}


@st.composite
def _bounded_cert(draw):
    n = draw(st.integers(1, 3))
    threshold = (n + 1.0) / (2.0 * n + 1.0)
    values = draw(st.lists(_near(threshold) | st.floats(0.0, 1.0), min_size=2 * n + 1,
                           max_size=2 * n + 1))
    threshold, *values = _with_nan(draw, [threshold, *values])
    return {"type": "bounded_symmetric", "a": 1.0, "n": n, "evaluation_point": 0.5,
            "cdf_values": values, "threshold": threshold}


@st.composite
def _unbounded_cert(draw):
    n = draw(st.integers(1, 3))
    threshold = n / (2.0 * n + 1.0)
    masses = draw(st.none() | st.lists(_near(threshold) | st.floats(0.0, 1.0),
                                       min_size=2 * n + 1, max_size=2 * n + 1))
    if masses is not None:
        threshold, *masses = _with_nan(draw, [threshold, *masses])
    return {"type": "unbounded_symmetric", "n": n, "threshold": threshold, "a_grid": [1.0],
            "witness_a": None if masses is None else 1.0, "witness_masses": masses}


@st.composite
def _skew_cert(draw):
    # a dyadic neg_prob makes cdf_term + (n - 1) neg_prob exactly 1 at the
    # middle choice of cdf_term
    n = draw(st.integers(2, 6))
    neg_prob = draw(st.integers(0, 2 ** 10 // (n - 1))) / 2.0 ** 10
    cdf_term, neg_prob = _with_nan(draw, [draw(_near(1.0 - (n - 1) * neg_prob)), neg_prob])
    return {"type": "skew_normal", "n": n, "lam": 1.0, "mean": 0.5, "cdf_term": cdf_term,
            "neg_prob": neg_prob, "bound": 1.0}


@st.composite
def _ssmn_cert(draw):
    atoms = [{"atom": 1.0, "prob": 0.5, "certificate": c}
             for c in draw(st.lists(_skew_cert(), max_size=3))]
    # the last atom alone sits exactly on the bound: it does not fire
    if draw(st.booleans()):
        atoms.append({"atom": 2.0, "prob": 0.5, "certificate": {
            "type": "skew_normal", "n": 3, "lam": 2.0, "mean": 0.5, "cdf_term": 0.5,
            "neg_prob": 0.25, "bound": 1.0}})
    return {"type": "ssmn", "n": 3, "lam": 1.0, "atoms": atoms}


def _plain_rule(cert):
    kind = cert["type"]
    if kind == "scale_inequality":
        thetas = cert["thetas"]
        if any(map(math.isnan, thetas)):
            return UNKNOWN
        exact = [Fraction(t) for t in thetas]
        if sum(exact) >= 2 * max(exact):
            return JM
        return NOT_JM if cert["iff"] else UNKNOWN
    if kind == "bounded_symmetric":
        return NOT_JM if all(v <= cert["threshold"] for v in cert["cdf_values"]) else UNKNOWN
    if kind == "unbounded_symmetric":
        masses = cert["witness_masses"]
        return NOT_JM if masses and all(m >= cert["threshold"] for m in masses) else UNKNOWN
    if kind == "skew_normal":
        return NOT_JM if cert["cdf_term"] + (cert["n"] - 1) * cert["neg_prob"] < 1.0 else UNKNOWN
    if kind == "ssmn":
        atoms = cert["atoms"]
        fires = [_plain_rule(a["certificate"]) == NOT_JM for a in atoms]
        return NOT_JM if atoms and all(fires) else UNKNOWN
    return UNKNOWN


@settings(max_examples=600, deadline=None)
@given(st.one_of(_scale_cert(), _bounded_cert(), _unbounded_cert(), _skew_cert(), _ssmn_cert()))
def test_replay_matches_plain_rules_at_the_boundary(cert):
    assert replay_certificate(cert) == _plain_rule(cert)


def test_replay_boundary_cases():
    exact = {"total": 4.0, "twice_max": 4.0, "iff": True}
    assert replay_certificate({"type": "scale_inequality", "thetas": [2.0, 1.0, 1.0], **exact}) == JM
    # a NaN gives Unknown in any position, also where max() would skip it
    for thetas in ([math.nan, 1.0, 1.0], [1.0, math.nan, 1.0], [3.0, 1.0, math.nan]):
        cert = {"type": "scale_inequality", "thetas": thetas, **exact}
        assert replay_certificate(cert) == UNKNOWN
    bounded = {"type": "bounded_symmetric", "a": 1.0, "n": 1, "evaluation_point": 0.5,
               "threshold": 2.0 / 3.0}
    assert replay_certificate({**bounded, "cdf_values": [2.0 / 3.0] * 3}) == NOT_JM
    for values in ([0.5, math.nan, 0.5], [0.5, 0.5, math.nan], [math.nan, 0.5, 0.5]):
        assert replay_certificate({**bounded, "cdf_values": values}) == UNKNOWN
    skew = {"type": "skew_normal", "n": 3, "lam": 2.0, "mean": 0.5, "cdf_term": 0.5,
            "neg_prob": 0.25, "bound": 1.0}
    assert replay_certificate(skew) == UNKNOWN
    assert replay_certificate({**skew, "cdf_term": 0.5 - 2.0 ** -53}) == NOT_JM
    fires = {**skew, "cdf_term": 0.25}
    ssmn = {"type": "ssmn", "n": 3, "lam": 1.0}
    assert replay_certificate({**ssmn, "atoms": [{"certificate": fires}] * 2}) == NOT_JM
    last_stays = [{"certificate": fires}, {"certificate": skew}]
    assert replay_certificate({**ssmn, "atoms": last_stays}) == UNKNOWN
    assert replay_certificate({**ssmn, "atoms": []}) == UNKNOWN


# --- soundness against the RA oracle ---------------------------------------

def test_not_jm_certificate_agrees_with_ra_evidence():
    fam = BimodalPower(1.0, 1)
    assert not_jm_bounded_symmetric([fam] * 3, 1.0).verdict == NOT_JM
    for m in (64, 128, 256):
        grid = oracle.discretize([fam] * 3, m)
        res = oracle.ra_minimize(grid, restarts=5, seed=1)
        mean_scale = float(np.mean(np.abs(grid.values)))
        assert res.row_sum_spread > 1e-3 * mean_scale
