"""The quantile solver, the closed-form slash laws and the generalized
logistic rules.

The solver's answers are checked against the family's own CDF, to a few ulp
of p where the CDF is that accurate, and against references computed apart
from jointmix (quadrature, Brent's method, mpmath) where it is not.

The grids of the solver-backed laws are also pinned bit for bit, by the
SHA-256 of their bytes in ``quantile_digests.json``.  A change that is meant
to move a grid must re-record the table and say why:

    PYTHONPATH=src python tests/test_quantile.py
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special

from jointmix import oracle
from jointmix.families import (
    SSMN,
    Elliptical,
    FamilyError,
    GeneralizedLogistic,
    LocationScaleSymmetric,
    MixtureFamily,
    SkewNormal,
    SlashElliptical,
    Uniform,
    UnivariateFamily,
)
from jointmix.generators import CharacteristicGenerator

NORMAL = CharacteristicGenerator.normal()
CAUCHY = CharacteristicGenerator.cauchy()
MIDPOINTS = (np.arange(1000) + 0.5) / 1000
EPS = np.finfo(float).eps


DISCRETE = CharacteristicGenerator.discrete_mixture([(0.25, 0.5), (0.75, 2.0)])
DIGESTS = Path(__file__).with_name("quantile_digests.json")

# one instance of each law whose quantiles come from the solver
SOLVED_LAWS = {
    "skew_normal_5": SkewNormal(0.3, 1.2, 5.0),
    "skew_normal_-30": SkewNormal(-0.5, 2.0, -30.0),
    "ssmn": SSMN(0.3, 1.2, 8.0, [(0.6, 0.4), (1.2, 0.6)]),
    "slash_normal": SlashElliptical(0.5, 1.5, NORMAL, 1.5),
    "slash_student_t_3": SlashElliptical(0.0, 1.0, CharacteristicGenerator.student_t(3.0), 2.0),
    "slash_cauchy": SlashElliptical(-1.0, 0.5, CAUCHY, 0.5),
    "slash_discrete_mixture": SlashElliptical(0.0, 1.0, DISCRETE, 1.0),
    "elliptical_discrete_mixture": Elliptical(-1.0, 1.5, DISCRETE),
    # Example 2.2: a mirror-image pair of uniforms, no mass in between
    "mirror_pair_mixture": MixtureFamily([Uniform(-1.0, -0.9), Uniform(0.9, 1.0)], [0.5, 0.5],
                                         symmetric=True),
    "generalized_logistic_1.5_2": GeneralizedLogistic(1.5, 2.0),
    "generalized_logistic_1_0.5": GeneralizedLogistic(1.0, 0.5),
    "location_scale_generalized_logistic": LocationScaleSymmetric(
        GeneralizedLogistic(3.0, 1.3), 2.0, 0.7),
}


def _grid_digest(fam):
    return hashlib.sha256(np.asarray(fam.quantile(MIDPOINTS), dtype=float).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SOLVED_LAWS))
def test_solved_grid_is_bit_identical(name):
    assert _grid_digest(SOLVED_LAWS[name]) == json.loads(DIGESTS.read_text())[name]


def _ulps(fam, q, p):
    return np.abs(np.asarray(fam.cdf(q)) - p) / np.spacing(p)


# --- heavy tails: relative precision ------------------------------------------

def test_slash_cauchy_quantiles_keep_relative_precision():
    # F(-x) falls like x^(-1/2): p = 1e-8 sits near x = 2.6e12, where an
    # absolute tolerance means nothing; |F(q) - p| <= 8 ulp(p) bounds the
    # relative error of q by 16 ulp
    fam = SlashElliptical(0.0, 1.0, CAUCHY, 0.5)
    tail = np.geomspace(1e-8, 1e-3, 40)
    p = np.concatenate([tail, 1.0 - tail[::-1]])
    q = fam.quantile(p)
    assert np.abs(q).max() > 1e12
    assert np.all(np.diff(q) > 0)
    assert np.all(_ulps(fam, q, p) <= 8)


def test_slash_t3_half_column():
    fam = SlashElliptical(0.0, 1.0, CharacteristicGenerator.student_t(3.0), 0.5)
    q = fam.quantile(MIDPOINTS)
    assert np.all(np.diff(q) > 0)
    assert np.all(_ulps(fam, q, MIDPOINTS) <= 8)


# --- skewed laws: extreme lambda, noisy tails, Newton cycles -----------------

def _sn_cdf_by_quadrature(x, mu, sigma, lam):
    # 1/2 - atan(lam)/pi at the mode side of 0, plus the density's integral
    z = (x - mu) / sigma
    scales = [k / abs(lam) for k in (-10.0, -1.0, 1.0, 10.0)]
    points = [t for t in scales if min(0.0, z) < t < max(0.0, z)] or None
    part, _ = integrate.quad(
        lambda t: 2.0 * math.exp(-t * t / 2) / math.sqrt(2 * math.pi) * special.ndtr(lam * t),
        0.0, z, points=points, epsabs=1e-15, epsrel=1e-13, limit=200,
    )
    return math.atan(1.0 / lam) / math.pi + part


@pytest.mark.parametrize(
    "fam",
    [
        SkewNormal(0.0, 1.0, 1e3),
        SkewNormal(-0.5, 2.0, 1e4),
        SSMN(0.3, 1.2, 1e3, [(0.6, 0.5), (1.2, 0.5)]),
        # rounding noise makes the computed CDF 2.8e-17 at -1 and 0 at 0
        SSMN(0.569193920264597, 1.1611107679780597, 26.511693978296464,
             [(0.5816148702102467, 0.5), (1.1632297404204934, 0.5)]),
        # plain Newton cycles between 4.53 and 8.47 on one of these p
        SSMN(8.025770184830437, 3.9081506335218297, -5.637925316792473,
             [(0.2130386963958554, 0.3), (9.76073347275416, 0.7)]),
    ],
    ids=["sn1e3", "sn1e4", "ssmn1e3", "ssmn_noisy_tail", "ssmn_newton_cycle"],
)
def test_skewed_grid(fam):
    q = fam.quantile(MIDPOINTS)
    assert np.all(np.diff(q) > 0)
    # the CDF is Phi - 2T, accurate in absolute terms: a few eps is the floor
    assert np.max(np.abs(np.asarray(fam.cdf(q)) - MIDPOINTS)) <= 4 * EPS
    if isinstance(fam, SkewNormal):
        for k in (0, 1, 250, 500, 998, 999):
            ref = _sn_cdf_by_quadrature(q[k], fam.mu, fam.sigma, fam.lam)
            assert ref == pytest.approx(MIDPOINTS[k], abs=1e-13)


# --- any p in [1e-12, 1 - 1e-12] ------------------------------------------------

ACCURATE_CDF_FAMILIES = [
    SlashElliptical(0.0, 1.0, NORMAL, 1.0),
    SlashElliptical(0.3, 1.7, CAUCHY, 0.5),
    SlashElliptical(-1.0, 0.5, CAUCHY, 1.0),
]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(1e-12, 1.0 - 1e-12), min_size=1, max_size=40),
    st.sampled_from(range(len(ACCURATE_CDF_FAMILIES))),
)
def test_quantile_monotone_and_within_8_ulp(ps, which):
    fam = ACCURATE_CDF_FAMILIES[which]
    p = np.sort(np.asarray(ps))
    q = np.atleast_1d(fam.quantile(p))
    assert np.all(np.diff(q) >= 0)
    assert np.all(_ulps(fam, q, p) <= 8)


def test_quantile_monotone_for_neighbouring_doubles():
    # the roots of p one ulp apart are about an ulp apart too, less than the
    # few ulp of CDF noise, so only the final running maximum keeps the order
    fam = ACCURATE_CDF_FAMILIES[1]
    for c in (1e-12, 1e-6, 0.25):
        p = c + np.arange(400) * np.spacing(c)
        assert np.all(np.diff(fam.quantile(p)) >= 0)
        assert np.all(np.diff(fam.quantile(1.0 - p[::-1])) >= 0)


# --- failures are reported, not returned --------------------------------------

class _BrokenCdf(UnivariateFamily):
    """Logistic density; the CDF turns NaN where ``nan_from`` says."""

    def __init__(self, nan_from):
        self.nan_from = nan_from

    def _density(self, x):
        return special.expit(x) * special.expit(-x)

    def _cdf(self, x):
        return np.where(np.abs(x - 0.5) < self.nan_from, special.expit(x), np.nan)


@pytest.mark.parametrize("nan_from", [0.0, 2.0, 0.1], ids=["everywhere", "ladder", "iteration"])
def test_nan_cdf_raises_family_error(nan_from):
    fam = _BrokenCdf(nan_from)
    with pytest.raises(FamilyError):
        fam.quantile(MIDPOINTS)
    with pytest.raises(ValueError):
        oracle.discretize([fam], 100)


def test_law_narrower_than_the_doubles_raises_family_error():
    # near -3e7 doubles are 3.7e-9 apart and the law spans about 300 of
    # them; the grid once returned here missed p by up to 6.4e-3
    with pytest.raises(FamilyError, match="too coarse"):
        SkewNormal(-3e7, 1e-6, -1e4).quantile(MIDPOINTS)


def test_unbracketable_probability_raises_family_error():
    # a CDF that never reaches 1: the ladder runs to overflow and gives up
    class Short(_BrokenCdf):
        def _cdf(self, x):
            return 0.9 * special.expit(x)

    with pytest.raises(FamilyError):
        Short(0.0).quantile([0.5, 0.95])


# --- the slash-normal closed form ----------------------------------------------

def _weighted_quad(g, z, power):
    # int_0^1 g(z t) t^power dt.  g(z t) is flat beyond |z| t = 40, so the
    # integral stops at b; the algebraic weight is handled by QAWS on [0, c]
    # and the bump of g(z t) t^power, if any, by plain quadrature on [c, b]
    b = min(1.0, 40.0 / abs(z)) if z else 1.0
    c = min(b, 1.0 / abs(z)) if z else b
    head, _ = integrate.quad(lambda t: g(z * t), 0.0, c, weight="alg", wvar=(power, 0.0),
                             epsabs=0.0, epsrel=1e-13)
    if c == b:
        return head, b
    tail, _ = integrate.quad(lambda t: g(z * t) * t**power, c, b, epsabs=0.0, epsrel=1e-13,
                             limit=200)
    return head + tail, b


def _slash_cdf_by_quadrature(z, q):
    # F(z) = q * int_0^1 Phi(z t) t^(q-1) dt, with Phi(z t) = 1 or 0 beyond b
    part, b = _weighted_quad(special.ndtr, z, q - 1.0)
    return q * part + (1.0 - b**q if z > 0 else 0.0)


def _slash_density_by_quadrature(z, q):
    # f(z) = q * int_0^1 phi(z t) t^q dt
    part, _ = _weighted_quad(lambda s: math.exp(-0.5 * s * s) / math.sqrt(2 * math.pi), z, q)
    return q * part


SLASH_Z = [0.0, 1e-8, -1e-8, 1e-3, -0.7, 1.0, 2.5, -6.0, 13.0, 100.0, -1e4, 1e4]


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0, 10.0, 100.0])
def test_slash_normal_closed_form_matches_quadrature(q):
    # q = 100: P(a, z^2/2) underflows while |z|^-(q+1) overflows near
    # |z| = 1e-3, which Kummer's form avoids
    fam = SlashElliptical(0.0, 1.0, NORMAL, q)
    z = np.array(SLASH_Z)
    cdf_ref = [_slash_cdf_by_quadrature(v, q) for v in z]
    if q == 100.0:
        # the quadrature underflows to 0 at z = -1e4, where F is the
        # subnormal 1.36e-322: that one value comes from mpmath
        cdf_ref[SLASH_Z.index(-1e4)] = float(_mp_kummer_slash(q, [(1.0, 1.0)], 1e4)[1])
    dens_ref = [_slash_density_by_quadrature(v, q) for v in z]
    np.testing.assert_allclose(fam.cdf(z), cdf_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(fam.density(z), dens_ref, rtol=1e-12, atol=0)
    assert fam.cdf(0.0) == 0.5
    assert fam.density(0.0) == pytest.approx(q / ((q + 1) * math.sqrt(2 * math.pi)), rel=1e-15)


def test_slash_normal_location_scale():
    fam = SlashElliptical(1.5, 2.0, NORMAL, 1.5)
    std = SlashElliptical(0.0, 1.0, NORMAL, 1.5)
    x = np.linspace(-20.0, 20.0, 41)
    np.testing.assert_allclose(fam.cdf(x), std.cdf((x - 1.5) / 2.0), rtol=1e-15)
    np.testing.assert_allclose(fam.density(x), std.density((x - 1.5) / 2.0) / 2.0, rtol=1e-15)
    np.testing.assert_allclose(
        fam.quantile(MIDPOINTS), 1.5 + 2.0 * std.quantile(MIDPOINTS), rtol=1e-15
    )


def test_slash_normal_quantile_against_brent():
    fam = SlashElliptical(0.0, 1.0, NORMAL, 2.0)
    p = np.array([1e-9, 1e-4, 0.01, 0.3, 0.5])
    ref = [
        optimize.brentq(lambda x, pk=pk: _slash_cdf_by_quadrature(x, 2.0) - pk, -1e6, 1.0,
                        xtol=1e-300, rtol=4 * EPS, maxiter=500)
        for pk in p
    ]
    np.testing.assert_allclose(fam.quantile(p), ref, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_slash_discrete_mixture_closed_form_matches_quadrature(q):
    # a discrete W makes Z a normal scale mixture: F(z) = sum w Fslash(z / s).
    # At z = -1e4 the 200-node rule this replaced missed the CDF by 7.4e-3
    # (q = 1) and the density by 1.6e-2 (q = 2), relative
    atoms = [(0.25, 0.5), (0.75, 2.0)]
    fam = SlashElliptical(0.0, 1.0, CharacteristicGenerator.discrete_mixture(atoms), q)
    z = np.array(SLASH_Z)
    cdf_ref = [sum(w * _slash_cdf_by_quadrature(v / s, q) for w, s in atoms) for v in z]
    dens_ref = [sum(w * _slash_density_by_quadrature(v / s, q) / s for w, s in atoms) for v in z]
    np.testing.assert_allclose(fam.cdf(z), cdf_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(fam.density(z), dens_ref, rtol=1e-12, atol=0)
    assert fam.cdf(0.0) == 0.5


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.5])
@pytest.mark.parametrize(
    "gen",
    [NORMAL, CharacteristicGenerator.discrete_mixture([(0.25, 0.5), (0.75, 2.0)])],
    ids=["normal", "discrete"],
)
def test_slash_kummer_form_limits_at_infinity(gen, q):
    # hyp1f1(a, a+1, -inf) is NaN for a = (q+1)/2 != 1: the limits need their
    # own branch, which must leave finite points in the same array untouched
    fam = SlashElliptical(0.3, 2.0, gen, q)
    assert fam.cdf(-np.inf) == 0.0 and fam.cdf(np.inf) == 1.0
    assert fam.density(-np.inf) == 0.0 and fam.density(np.inf) == 0.0
    x = np.array([-np.inf, -1e6, 0.3, 1e6, np.inf])
    assert np.array_equal(fam.cdf(x)[1:-1], [fam.cdf(v) for v in x[1:-1]])
    assert np.array_equal(fam.cdf(x)[[0, -1]], [0.0, 1.0])
    assert np.array_equal(fam.density(x)[[0, -1]], [0.0, 0.0])


def _mp_kummer_slash(q, atoms, r):
    """(density, F(-r)) of slash-normal scale mixtures at r >= 1e3 from
    K(t) = 1F1(a; a+1; -t^2/2) / (2 a sqrt(2 pi)) in 30-digit mpmath, without
    Phi(-t) < 1e-50000."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    a = (mp.mpf(q) + 1) / 2
    dens = cdf = 0
    for w, s in atoms:
        t = mp.mpf(r) / s
        k = mp.hyp1f1(a, a + 1, -t * t / 2) / (2 * a * mp.sqrt(2 * mp.pi))
        dens, cdf = dens + w * q * k / s, cdf + w * t * k
    return dens, cdf


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.5])
@pytest.mark.parametrize(
    "atoms", [[(1.0, 1.0)], [(0.25, 0.5), (0.75, 2.0)]], ids=["normal", "discrete"]
)
def test_slash_kummer_far_tail_matches_mpmath(q, atoms):
    # -r^2/2 overflowed past r = 1.3e154 (NaN and a warning), and hyp1f1
    # underflowed long before r H(r) does
    gen = CharacteristicGenerator.discrete_mixture(atoms) if len(atoms) > 1 else NORMAL
    fam = SlashElliptical(0.0, 1.0, gen, q)
    r = np.geomspace(1e3, 1e300, 30)
    dens, cdf = np.asarray(fam.density(-r)), np.asarray(fam.cdf(-r))
    assert np.all(np.isfinite(dens)) and np.all(np.isfinite(cdf))
    assert np.all(np.diff(dens) <= 0) and np.all(np.diff(cdf) <= 0) and np.all(cdf >= 0)
    assert np.array_equal(fam.cdf(r), 1.0 - cdf)
    for got, ref in zip(np.column_stack([dens, cdf]), (_mp_kummer_slash(q, atoms, v) for v in r)):
        for g, want in zip(got, ref):
            if want >= 1e-290:
                assert abs(g / want - 1) <= 1e-12


def test_slash_solver_step_evaluates_kummer_once(monkeypatch):
    # each solver step needs F and f at the same points, and both come from
    # one H: one hyp1f1 per step, where a CDF call and a density call took two.
    # F_Z(-r), the normal CDF in F, is evaluated once per step either way
    fam = SlashElliptical(0.5, 1.5, NORMAL, 1.5)
    calls = {"_kummer": 0, "std_cdf": 0}

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    counted(SlashElliptical, "_kummer")
    counted(Elliptical, "std_cdf")
    fam.quantile(MIDPOINTS)
    assert calls["std_cdf"] > 5
    assert calls["_kummer"] == calls["std_cdf"]


# --- Student t and Pearson VII quantiles -------------------------------------

@pytest.mark.parametrize(
    "fam",
    [
        Elliptical(1.0, 2.0, CharacteristicGenerator.student_t(3.0)),
        Elliptical(0.0, 1.0, CharacteristicGenerator.student_t(4.0)),
        Elliptical(0.5, 2.0, CharacteristicGenerator.student_t(0.5)),
        Elliptical(0.0, 1.0, CharacteristicGenerator.pearson_vii(2.0, 1.0)),
    ],
    ids=["t3", "t4", "t0.5", "pvii2"],
)
def test_student_t_quantiles_within_rounding_of_own_cdf(fam):
    # stdtrit alone missed by 2.6e-14 at nu = 4
    q = fam.quantile(MIDPOINTS)
    assert np.all(np.diff(q) > 0)
    assert np.max(np.abs(np.asarray(fam.cdf(q)) - MIDPOINTS)) <= 2 * EPS


# --- slash with an inverse-gamma W against mpmath ------------------------------

def _mp_t_slash(nu, q, r):
    """(density, F(-r)) of slash Student t(nu) at r >= 0, from
    H = c (1-Y)^(a+b) 2F1(1, a+b; a+1; Y) / (2a) in 40-digit mpmath."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    nu, q, r = mp.mpf(nu), mp.mpf(q), mp.mpf(r)
    a, b = (q + 1) / 2, (nu - q) / 2
    c = mp.gamma((nu + 1) / 2) / (mp.gamma(nu / 2) * mp.sqrt(nu * mp.pi))
    y = r * r / (nu + r * r)
    h = c / (2 * a) * (1 - y) ** (a + b) * mp.hyp2f1(1, a + b, a + 1, y)
    tail = mp.betainc(nu / 2, mp.mpf(1) / 2, 0, nu / (nu + r * r), regularized=True) / 2
    return float(q * h), float(tail + r * h)


SLASH_T_R = np.geomspace(1e-8, 1e6, 15)


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 3.0, 5.0, 30.0, 200.0])
def test_slash_student_t_matches_mpmath(nu):
    # q = nu and q = nu - 2 are the logarithmic cases of the series in 1 - Y.
    # The 200-node rule this replaced missed by 6.7e-7 at nu = 30, q = 1.5,
    # r = 10 and by 5.4e-4 for slash-Cauchy, q = 1, at r = 1e4
    gen = CharacteristicGenerator.student_t(nu)
    for q in (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0):
        fam = SlashElliptical(0.0, 1.0, gen, q)
        ref = np.array([_mp_t_slash(nu, q, r) for r in SLASH_T_R])
        np.testing.assert_allclose(fam.density(-SLASH_T_R), ref[:, 0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(fam.cdf(-SLASH_T_R), ref[:, 1], rtol=1e-12, atol=0)
        np.testing.assert_allclose(fam.cdf(SLASH_T_R), 1.0 - ref[:, 1], rtol=1e-15, atol=1e-16)


def test_slash_pearson_vii_is_scaled_slash_t():
    # Pearson VII(2, 1) is Student t(3) scaled by 1/sqrt(3)
    fam = SlashElliptical(0.0, 1.0, CharacteristicGenerator.pearson_vii(2.0, 1.0), 2.0)
    k = math.sqrt(3.0)
    ref = np.array([_mp_t_slash(3.0, 2.0, k * r) for r in SLASH_T_R])
    np.testing.assert_allclose(fam.density(-SLASH_T_R), k * ref[:, 0], rtol=1e-12, atol=0)
    np.testing.assert_allclose(fam.cdf(-SLASH_T_R), ref[:, 1], rtol=1e-12, atol=0)


@pytest.mark.parametrize("q", [50.0, 200.0, 1000.0])
@pytest.mark.parametrize("nu", [0.5, 3.0, 200.0, 1e6])
def test_slash_student_t_large_q_finite_and_monotone(nu, q):
    # a warning fails the test (filterwarnings = error)
    fam = SlashElliptical(0.0, 1.0, CharacteristicGenerator.student_t(nu), q)
    x = np.concatenate([-np.geomspace(1e300, 1e-8, 200), [0.0], np.geomspace(1e-8, 1e300, 200)])
    f, dens = np.asarray(fam.cdf(x)), np.asarray(fam.density(x))
    assert np.all(np.isfinite(f)) and np.all(np.isfinite(dens)) and np.all(dens >= 0)
    assert np.all(np.diff(f) >= 0) and f[0] >= 0 and f[-1] <= 1
    assert fam.cdf(-np.inf) == 0.0 and fam.cdf(np.inf) == 1.0 and fam.density(np.inf) == 0.0
    assert np.all(np.diff(fam.quantile(MIDPOINTS)) > 0)


# --- generalized logistic with beta != 1 --------------------------------------

GL_ALPHAS = [0.5, 1.0, 1.5, 3.0]
GL_BETAS = [0.3, 0.5, 0.8, 1.5, 2.0, 3.0]


def _mp_gl_lower(alpha, beta, xs):
    """F(-x) for x >= 0 by mpmath quadrature: of g(x^beta) on [0, 1], where
    it is smooth in x, and of t^(1/beta - 1) g(t) from t = x^beta on."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    a, b = mp.mpf(alpha), mp.mpf(beta)

    def g(t):
        return mp.exp(-a * t) / (1 + mp.exp(-t)) ** (2 * a)

    def tail(t):
        return mp.quad(lambda u: u ** (1 / b - 1) * g(u), [t, 2 * t, 2 * t + 1, mp.inf])

    half = b * mp.quad(lambda x: g(x**b), [0, 1]) + tail(mp.mpf(1))
    return np.array([float(tail(mp.mpf(x) ** b) / (2 * half)) for x in xs])


@pytest.mark.parametrize("beta", GL_BETAS)
@pytest.mark.parametrize("alpha", GL_ALPHAS)
def test_generalized_logistic_matches_mpmath(alpha, beta):
    # the tabulated CDF this replaced gave F(-5) = 0.4818 for alpha = 1,
    # beta = 0.3, where the law has 0.4454
    fam = GeneralizedLogistic(alpha, beta)
    probs = [0.45, 0.1, 1e-3, 1e-7, 1e-11, 1e-15]
    # either side of where the rules change: t = 1/4 and alpha t = 8
    edges = [t ** (1.0 / beta) * f for t in (0.25, 8.0 / alpha) for f in (1 - 1e-9, 1 + 1e-9)]
    xs = np.concatenate([-np.asarray(fam.quantile(probs)), edges])
    ref = _mp_gl_lower(alpha, beta, xs)
    keep = ref >= 1e-15
    np.testing.assert_allclose(fam.cdf(-xs[keep]), ref[keep], rtol=1e-13, atol=0)
    np.testing.assert_allclose(fam.cdf(xs[keep]), 1.0 - ref[keep], rtol=1e-15, atol=1e-16)


@pytest.mark.parametrize("beta", GL_BETAS)
@pytest.mark.parametrize("alpha", GL_ALPHAS)
def test_generalized_logistic_grid_as_close_as_doubles_allow(alpha, beta):
    # The CDF moves by up to 23 ulp(p) from one double x to the next at
    # alpha = beta = 3, and for beta < 1 up to 15 ulp(p) from one double
    # t = |x|^beta to the next, so no grid of doubles meets 8 ulp(p) at every
    # midpoint.  A point misses by at most 8 ulp(p) plus what the CDF moves
    # over the 4 doubles around it.
    fam = GeneralizedLogistic(alpha, beta)
    q = fam.quantile(MIDPOINTS)
    assert np.all(np.diff(q) > 0)
    miss = np.abs(np.asarray(fam.cdf(q)) - MIDPOINTS)
    u = 2 * np.spacing(np.abs(q))
    jump = np.abs(np.asarray(fam.cdf(q + u)) - np.asarray(fam.cdf(q - u)))
    assert np.all(miss <= 8 * np.spacing(MIDPOINTS) + jump)


@pytest.mark.parametrize("alpha, beta", [(1.5, 2.0), (1.0, 0.5), (3.0, 1.3)])
def test_generalized_logistic_cdf_does_not_depend_on_the_batch(alpha, beta):
    # a matrix product summed the quadrature rows in blocks that depend on
    # the rows beside them: 408 of these 1001 points moved at (1, 0.5).
    # Single points go in as 1-element arrays, as the solver passes them
    # (numpy's scalar pow is not its array loop)
    fam = GeneralizedLogistic(alpha, beta)
    x = np.linspace(-6.0, 6.0, 1001)
    alone = np.array([fam.cdf(x[k:k + 1])[0] for k in range(x.size)])
    assert np.array_equal(fam.cdf(x), alone)
    p = np.array([1e-6, 0.01, 0.3, 0.5, 0.97])
    assert np.array_equal(fam.quantile(p), [fam.quantile(p[k:k + 1])[0] for k in range(p.size)])


@pytest.mark.parametrize("beta", [0.5, 1.3])
def test_generalized_logistic_seeded_sample_is_a_prefix(beta):
    fam = GeneralizedLogistic(1.0, beta)
    assert np.array_equal(fam.sample(100, 7), fam.sample(1000, 7)[:100])


if __name__ == "__main__":
    table = {name: _grid_digest(fam) for name, fam in sorted(SOLVED_LAWS.items())}
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
    print(f"recorded {len(table)} grids in {DIGESTS}", file=sys.stderr)
