"""The special-function forms in families and generators against the
scipy.stats distributions (and quadrature) they replace."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from jointmix.families import Elliptical, SkewNormal
from jointmix.generators import CharacteristicGenerator, MixingLaw, cg_eval, mixing_law

RTOL = 1e-13
MU, SIGMA = 0.5, 2.0
X = np.concatenate([-np.geomspace(1e4, 1e-3, 60), [0.0], np.geomspace(1e-3, 1e4, 60)])
P = np.concatenate([[1e-12, 1e-6], np.linspace(0.01, 0.99, 99), [1 - 1e-6, 1 - 1e-12]])
ATOMS = [(0.25, 0.5), (0.75, 2.0)]


def _mixture_pdf(x, loc, scale):
    return sum(w * stats.norm.pdf(x, loc, scale * s) for w, s in ATOMS)


def _mixture_cdf(x, loc, scale):
    return sum(w * stats.norm.cdf(x, loc, scale * s) for w, s in ATOMS)


def _mixture_ppf(p, loc, scale):
    # Brent's method, one point at a time, on the stats.norm mixture CDF, or
    # on its survival function above the median: near p = 1 - 1e-12 the CDF
    # rounds to the same double over ~3e-5 of x, so only 1 - F fixes the root
    def root(pk):
        if pk <= 0.5:
            def gap(t):
                return _mixture_cdf(t, 0.0, 1.0) - pk
        else:
            def gap(t):
                return (1.0 - pk) - sum(w * stats.norm.sf(t, 0.0, s) for w, s in ATOMS)
        return optimize.brentq(
            gap, -60.0, 60.0, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500
        )

    return loc + scale * np.array([root(pk) for pk in np.atleast_1d(p)])


def _pearson_vii_case(N, m):
    # Pearson VII(N, m) is Student t with nu = 2N - 1, scaled by sqrt(m / nu)
    nu = 2 * N - 1
    k = math.sqrt(m / nu)
    return (
        CharacteristicGenerator.pearson_vii(N, m),
        lambda x, loc, scale: stats.t.pdf(x, nu, loc, scale * k),
        lambda x, loc, scale: stats.t.cdf(x, nu, loc, scale * k),
        lambda p, loc, scale: stats.t.ppf(p, nu, loc, scale * k),
    )


CASES = [
    (CharacteristicGenerator.normal(), stats.norm.pdf, stats.norm.cdf, stats.norm.ppf),
    *[
        (
            CharacteristicGenerator.student_t(nu),
            lambda x, loc, scale, nu=nu: stats.t.pdf(x, nu, loc, scale),
            lambda x, loc, scale, nu=nu: stats.t.cdf(x, nu, loc, scale),
            lambda p, loc, scale, nu=nu: stats.t.ppf(p, nu, loc, scale),
        )
        for nu in (0.5, 1.5, 3.0, 30.0)
    ],
    # nu = inf mixes over W == 1: the normal law.  stats.t(df=inf) is
    # stdtr(inf, .), 9.4e-14 off mpmath at z = -27.9 where ndtr is 2.4e-14 off
    (CharacteristicGenerator.student_t(np.inf), stats.norm.pdf, stats.norm.cdf, stats.norm.ppf),
    (CharacteristicGenerator.cauchy(), stats.cauchy.pdf, stats.cauchy.cdf, stats.cauchy.ppf),
    (CharacteristicGenerator.discrete_mixture(ATOMS), _mixture_pdf, _mixture_cdf, _mixture_ppf),
    *[_pearson_vii_case(N, m) for N, m in ((0.75, 1.0), (2.0, 1.0), (2.5, 3.0), (200.0, 1.5))],
]
IDS = ["normal", "t0.5", "t1.5", "t3", "t30", "t_inf", "cauchy", "mixture",
       "pvii0.75", "pvii2", "pvii2.5", "pvii200"]


@pytest.mark.parametrize("g, pdf, cdf, ppf", CASES, ids=IDS)
def test_elliptical_matches_scipy_stats(g, pdf, cdf, ppf):
    fam = Elliptical(MU, SIGMA, g)
    x = MU + X
    np.testing.assert_allclose(fam.density(x), pdf(x, MU, SIGMA), rtol=RTOL, atol=0)
    np.testing.assert_allclose(fam.cdf(x), cdf(x, MU, SIGMA), rtol=RTOL, atol=0)
    np.testing.assert_allclose(fam.quantile(P), ppf(P, MU, SIGMA), rtol=RTOL, atol=1e-300)


@pytest.mark.parametrize(
    "g, same",
    [
        (CharacteristicGenerator.student_t(1.0), CharacteristicGenerator.cauchy()),
        (CharacteristicGenerator.student_t(np.inf), CharacteristicGenerator.normal()),
    ],
    ids=["t1_cauchy", "t_inf_normal"],
)
def test_student_t_limits_share_mixing_law_numerics(g, same):
    # equal mixing laws give the same closed forms, bit for bit
    fam, ref = Elliptical(MU, SIGMA, g), Elliptical(MU, SIGMA, same)
    x = MU + X
    assert np.array_equal(fam.density(x), ref.density(x))
    assert np.array_equal(fam.cdf(x), ref.cdf(x))
    assert np.array_equal(fam.quantile(P), ref.quantile(P))


@pytest.mark.parametrize("p", [1e-12, 1e-6, 0.5, 1 - 1e-6, 1 - 1e-12])
def test_cauchy_quantile_keeps_relative_precision_in_both_tails(p):
    got = Elliptical(0.0, 1.0, CharacteristicGenerator.cauchy()).quantile(p)
    want = stats.cauchy.ppf(p)
    if p == 0.5:
        assert got == 0.0
    else:
        assert got == pytest.approx(want, rel=RTOL)


@pytest.mark.parametrize("a, b", [(0.25, 0.25), (0.5, 0.5), (1.5, 1.5), (2.5, 0.7), (100.0, 100.0)])
def test_mixing_law_density_matches_invgamma(a, b):
    w = np.concatenate([[-1.0, 0.0], np.geomspace(1e-3, 1e3, 61)])
    got = MixingLaw("inverse_gamma", a=a, b=b).density(w)
    np.testing.assert_allclose(got, stats.invgamma.pdf(w, a, scale=b), rtol=RTOL, atol=0)
    assert MixingLaw("inverse_gamma", a=a, b=b).density(1.0) == pytest.approx(
        stats.invgamma.pdf(1.0, a, scale=b), rel=RTOL
    )


U = np.geomspace(1e-8, 1e4, 49)


def _quad_psi(g, u):
    # the quadrature cg_eval used before its closed form
    law = mixing_law(g)

    def integrand(w):
        return math.exp(-u * w / 2.0) * stats.invgamma.pdf(w, law.a, scale=law.b)

    return integrate.quad(integrand, 0.0, np.inf, epsabs=1e-10, limit=10_000)[0]


@pytest.mark.parametrize("nu", [7.0, 30.0, 100.0, 200.0])
def test_cg_eval_matches_quadrature(nu):
    # below nu ~ 7 the quadrature itself misses by up to 1.6e-2 near u = 0
    # (psi - 1 behaves like u^(nu/2) there); the mpmath test covers that range
    g = CharacteristicGenerator.student_t(nu)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for u in U:
            assert cg_eval(g, u) == pytest.approx(_quad_psi(g, u), abs=1e-9)


@pytest.mark.parametrize(
    "g",
    [
        *[CharacteristicGenerator.student_t(nu) for nu in (0.5, 1.0, 1.5, 3.0, 200.0)],
        CharacteristicGenerator.pearson_vii(0.75, 1.0),
        CharacteristicGenerator.pearson_vii(100.5, 0.3),
    ],
    ids=lambda g: f"{g.kind}:{g.nu or g.shape}",
)
def test_cg_eval_matches_bessel_reference(g):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    law = mixing_law(g)
    a = mpmath.mpf(law.a)
    for u in U:
        x = mpmath.sqrt(2 * mpmath.mpf(law.b) * mpmath.mpf(u))
        want = float(2 * (x / 2) ** a * mpmath.besselk(a, x) / mpmath.gamma(a))
        assert cg_eval(g, u) == pytest.approx(want, rel=1e-12)


def test_cg_eval_endpoints():
    for g in (CharacteristicGenerator.student_t(3.0), CharacteristicGenerator.pearson_vii(2.0, 1.0)):
        assert cg_eval(g, 0.0) == 1.0
        assert cg_eval(g, math.inf) == 0.0
        assert 0.0 <= cg_eval(g, 1e6) < 1e-300


def _sn_cdf_by_quadrature(z, lam):
    # F(0) = 1/2 - atan(lam)/pi, plus the integral of 2 phi(t) Phi(lam t) from 0
    def density(t):
        return 2.0 * stats.norm.pdf(t) * stats.norm.cdf(lam * t)

    # breakpoints where Phi(lam t) turns from 0 to 1, which the rule could miss
    scales = [k / abs(lam) for k in (-10.0, -1.0, 1.0, 10.0)] if lam else []
    points = [t for t in scales if min(0.0, z) < t < max(0.0, z)] or None
    part, _ = integrate.quad(
        density, 0.0, z, points=points, epsabs=1e-15, epsrel=1e-13, limit=200
    )
    return 0.5 - math.atan(lam) / math.pi + part


@pytest.mark.parametrize("lam", [-3.0, 0.0, 0.5, 5.0, 100.0, 1e4])
def test_skew_normal_cdf_matches_quadrature(lam):
    # the 96-node Gauss-Legendre rule this replaced missed by 2.3e-9 at
    # lam = 100 and 3.2e-5 at lam = 1e4
    z = np.concatenate([-np.geomspace(8.0, 1e-5, 40), [0.0], np.geomspace(1e-5, 8.0, 40)])
    got = SkewNormal(0.0, 1.0, lam).cdf(z)
    want = [_sn_cdf_by_quadrature(v, lam) for v in z]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        SkewNormal(0.0, 1.0, lam).density(z), stats.skewnorm.pdf(z, lam), rtol=RTOL, atol=0
    )
