import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from jointmix.families import (
    BimodalMoment,
    BimodalPower,
    Elliptical,
    FamilyError,
    GeneralizedLogistic,
    KotzType,
    LocationScaleSymmetric,
    MixtureFamily,
    SkewNormal,
    SlashElliptical,
    SSMN,
    Uniform,
    UnivariateFamily,
    family_from_spec,
)
from jointmix.generators import CharacteristicGenerator, GeneratorError

NORMAL = CharacteristicGenerator.normal()
T3 = CharacteristicGenerator.student_t(3.0)
CAUCHY = CharacteristicGenerator.cauchy()


def _grid_families():
    return [
        Uniform(-1.0, 1.0),
        Uniform(2.0, 5.0),
        Elliptical(0.0, 1.0, NORMAL),
        Elliptical(1.0, 2.0, T3),
        Elliptical(0.0, 1.0, CAUCHY),
        Elliptical(0.0, 1.0, CharacteristicGenerator.pearson_vii(2.0, 1.0)),
        Elliptical(0.0, 1.5, CharacteristicGenerator.discrete_mixture([(0.3, 1.0), (0.7, 2.0)])),
        LocationScaleSymmetric(Uniform(-1.0, 1.0), 2.0, 0.5),
        BimodalPower(1.0, 1),
        BimodalPower(2.0, 2),
        BimodalMoment(0),
        BimodalMoment(1),
        BimodalMoment(3),
        MixtureFamily([Uniform(-1.0, -0.9), Uniform(0.9, 1.0)], [0.5, 0.5]),
        GeneralizedLogistic(1.0, 1.0),
        GeneralizedLogistic(2.0, 1.0),
        GeneralizedLogistic(1.0, 2.0),
        KotzType(2.0, 1.0, 1.0),
        KotzType(1.5, 0.5, 2.0, mu=1.0, sigma=2.0),
        SkewNormal(0.0, 1.0, 1.0),
        SkewNormal(1.0, 2.0, -3.0),
        SkewNormal(0.0, 1.0, 0.0),
        SSMN(0.0, 1.0, 2.0, [(0.5, 0.5), (2.0, 0.5)]),
        SlashElliptical(0.0, 1.0, NORMAL, 2.0),
        SlashElliptical(1.0, 1.0, NORMAL, 1.0),
        SlashElliptical(0.0, 1.0, NORMAL, 0.5),
    ]


FAMILIES = _grid_families()
_IDS = [f"{type(f).__name__}-{k}" for k, f in enumerate(FAMILIES)]


@pytest.mark.parametrize("fam", FAMILIES, ids=_IDS)
def test_density_normalizes(fam):
    lo, hi = fam.support
    if np.isfinite(lo) and np.isfinite(hi):
        total, _ = integrate.quad(lambda x: float(fam.density(x)), lo, hi, limit=400)
    else:
        c = fam.center
        left, _ = integrate.quad(lambda x: float(fam.density(x)), -np.inf, c, limit=400)
        right, _ = integrate.quad(lambda x: float(fam.density(x)), c, np.inf, limit=400)
        total = left + right
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("fam", FAMILIES, ids=_IDS)
def test_symmetry_flag_honest(fam):
    if not fam.symmetric:
        return
    lo, hi = fam.support
    half = min(hi - fam.center, 10.0) if np.isfinite(hi) else 10.0
    xs = np.linspace(0.0, half, 101)
    left = np.asarray(fam.density(fam.center - xs))
    right = np.asarray(fam.density(fam.center + xs))
    scale = max(float(np.max(right)), 1.0)
    assert np.max(np.abs(left - right)) <= 1e-12 * scale


@pytest.mark.parametrize("fam", FAMILIES, ids=_IDS)
def test_unimodality_flag_honest(fam):
    lo, hi = fam.support
    a = lo if np.isfinite(lo) else fam.center - 6.0
    b = hi if np.isfinite(hi) else fam.center + 6.0
    xs = np.linspace(a + 1e-9 * (b - a), b - 1e-9 * (b - a), 101)
    dens = np.asarray(fam.density(xs))
    diffs = np.diff(dens)
    if fam.unimodal:
        # nondecreasing then nonincreasing
        rising = True
        ok = True
        for d in diffs:
            if rising and d < -1e-9:
                rising = False
            elif not rising and d > 1e-9:
                ok = False
                break
        assert ok
    elif isinstance(fam, (BimodalPower, KotzType)):
        # interior minimum exactly at the center
        mid = dens[np.argmin(np.abs(xs - fam.center))]
        assert mid <= dens.min() + 1e-12
        assert dens.max() > mid


@pytest.mark.parametrize("fam", FAMILIES, ids=_IDS)
def test_cdf_monotone_and_quantile_inverts(fam):
    ps = np.linspace(0.01, 0.99, 25)
    qs = np.asarray(fam.quantile(ps))
    assert np.all(np.diff(qs) >= -1e-12)
    back = np.asarray(fam.cdf(qs))
    assert np.max(np.abs(back - ps)) < 1e-7
    # quantile(cdf(x)) = x on continuity points
    xs = qs[::4]
    again = np.asarray(fam.quantile(np.asarray(fam.cdf(xs))))
    assert np.max(np.abs(again - xs)) < 1e-6 * (1 + np.max(np.abs(xs)))


@pytest.mark.parametrize("fam", FAMILIES, ids=_IDS)
def test_sampler_matches_cdf_ks(fam):
    n = 10**5
    draws = fam.sample(n, seed=2024)
    stat = stats.kstest(draws, lambda x: np.asarray(fam.cdf(x))).statistic
    assert stat <= 1.63 / math.sqrt(n)


_ROUND_TRIP_EXTRA = {
    "unimodal-normal-mixture": MixtureFamily(
        [Elliptical(0.0, 1.0, NORMAL), Elliptical(0.0, 3.0, NORMAL)], [0.4, 0.6]
    ),
    # w / w.sum() is not idempotent for these weights
    "weights-not-summing-to-1": MixtureFamily(
        [Elliptical(0.0, 1.0, NORMAL), Elliptical(1.0, 2.0, T3), Uniform(-1.0, 2.0)],
        [0.1, 0.2, 0.3],
    ),
    "kotz-without-mu-sigma": family_from_spec({"family": "kotz", "N": 2, "m": 1.5, "beta": 0.5}),
    "location-scale-over-elliptical": LocationScaleSymmetric(Elliptical(1.0, 2.0, T3), -1.0, 0.5),
    "slash-t": SlashElliptical(0.5, 1.5, T3, 2.0),
}


@pytest.mark.parametrize(
    "fam", FAMILIES + list(_ROUND_TRIP_EXTRA.values()), ids=_IDS + list(_ROUND_TRIP_EXTRA)
)
def test_spec_round_trip(fam):
    spec = fam.spec()
    json.dumps(spec, allow_nan=False)
    clone = family_from_spec(spec)
    assert clone.spec() == spec
    for flag in ("symmetric", "unimodal", "center", "support"):
        assert getattr(clone, flag) == getattr(fam, flag), flag
    xs = np.linspace(-3, 3, 7)
    assert np.array_equal(clone.cdf(xs), fam.cdf(xs))
    assert np.array_equal(clone.density(xs), fam.density(xs))
    probs = (np.arange(99) + 0.5) / 99
    assert np.array_equal(clone.quantile(probs), fam.quantile(probs))


def test_sample_deterministic_per_seed():
    fam = Elliptical(0.0, 1.0, T3)
    assert np.array_equal(fam.sample(50, 3), fam.sample(50, 3))


# --- closed-form spot checks ------------------------------------------------

def test_bimodal_power_values():
    f = BimodalPower(1.0, 1)
    assert f.density(1.0) == pytest.approx(1.5, rel=1e-14)
    assert f.density(0.0) == 0.0
    assert f.cdf(0.5) == pytest.approx(0.5625, rel=1e-14)
    assert f.quantile(0.5625) == pytest.approx(0.5, rel=1e-12)


def test_bimodal_power_cdf_is_exact_to_a_few_ulp():
    # against exact rationals, F = 1/2 + (x/a)^5 / 2; the form
    # (x^5 + a^5) / (2 a^5) misses by 5.8e-15 on the random points and by
    # 8.0e-13 near -a, where it cancels
    from fractions import Fraction

    rng = np.random.default_rng(2024)
    for a in (0.3, 0.77, 1.0, 1.3, 3.7):
        for x in (rng.uniform(-a, a, 400), -a + 0.1 * a * rng.uniform(size=400)):
            exact = [Fraction(1, 2) + (Fraction(v) / Fraction(a)) ** 5 / 2 for v in x]
            worst = max(abs(Fraction(f) - e) / e for f, e in zip(BimodalPower(a, 2).cdf(x), exact))
            assert worst <= 2 * np.finfo(float).eps


@pytest.mark.parametrize("N", [2.0, 200.0])
@pytest.mark.parametrize("m", [1.0, 1e300])
def test_kotz_density_matches_mpmath(N, m):
    # beta m^s / Gamma(s) overflowed for these N and m; in log space the
    # error is a few ulp of the largest log term, not of the density
    mp = pytest.importorskip("mpmath")
    fam = KotzType(N, m, 1.0)
    z = math.sqrt((N - 1.0) / m) * np.array([-2.0, -1.0, -0.5, 0.7, 0.9, 1.0, 1.2, 1.5])
    with mp.workdps(40):
        s = mp.mpf(2.0 * N - 1.0) / 2
        for zi, got in zip(z, fam.density(z)):
            r = mp.mpf(zi) ** 2
            terms = [s * mp.log(m), -mp.loggamma(s), (N - 1.0) * mp.log(r), -m * r]
            ref = mp.exp(mp.fsum(terms))
            assert abs(got - ref) <= 8 * np.finfo(float).eps * (1 + sum(map(abs, terms))) * ref
    assert fam.density(0.0) == fam.density(math.inf) == fam.density(-1e300) == 0.0


def test_bimodal_moment_values():
    f0 = BimodalMoment(0)
    assert f0.density(0.0) == pytest.approx(1.0 / math.pi, rel=1e-12)
    # m = 1: normalizer 2/pi, CDF at 1/2 against a quadrature oracle
    f1 = BimodalMoment(1)
    assert f1.norm_const == pytest.approx(2.0 / math.pi, rel=1e-12)
    oracle, _ = integrate.quad(
        lambda x: 2.0 / math.pi * x * x / math.sqrt(1 - x * x), -1.0, 0.5
    )
    assert f1.cdf(0.5) == pytest.approx(oracle, abs=1e-10)


def test_symmetric_cdf_at_center_is_half():
    for fam in FAMILIES:
        if fam.symmetric:
            assert float(fam.cdf(fam.center)) == pytest.approx(0.5, abs=1e-9)


def test_uniform_quantile():
    assert Uniform(-1, 1).quantile(0.75) == pytest.approx(0.5)


def test_normal_elliptical_quantile():
    # standard normal 97.5% point via an erf-based bisection oracle
    def erf_cdf(x):
        return 0.5 * (1 + math.erf(x / math.sqrt(2)))

    lo, hi = 0.0, 4.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if erf_cdf(mid) < 0.975 else (lo, mid)
    oracle = 0.5 * (lo + hi)
    assert oracle == pytest.approx(1.959964, abs=1e-5)
    assert Elliptical(0, 1, NORMAL).quantile(0.975) == pytest.approx(oracle, abs=1e-8)


def test_skewnormal_mean_identity():
    fam = SkewNormal(0.0, 1.0, 1.0)
    draws = fam.sample(10**6, seed=11)
    target = 1.0 / math.sqrt(math.pi)  # (1/sqrt 2) * sqrt(2/pi)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - target) <= 3 * se
    assert fam.mean() == pytest.approx(target, rel=1e-12)


def test_skewnormal_negative_mass():
    lam0 = SkewNormal(0.0, 1.0, 0.0)
    d0 = lam0.sample(10**6, seed=12)
    assert np.mean(d0 < 0) == pytest.approx(0.5, abs=0.002)
    lam1 = SkewNormal(0.0, 1.0, 1.0)
    d1 = lam1.sample(10**6, seed=13)
    # 1/2 - arctan(1)/pi = 1/4, verified by quadrature of the density
    target, _ = integrate.quad(lambda x: float(lam1.density(x)), -np.inf, 0.0)
    assert target == pytest.approx(0.25, abs=1e-9)
    se = math.sqrt(0.25 * 0.75 / d1.size)
    assert abs(np.mean(d1 < 0) - 0.25) <= 3 * se


def test_skewnormal_cdf_against_owens_t():
    for lam in [-2.0, 0.0, 0.7, 4.0]:
        fam = SkewNormal(0.0, 1.0, lam)
        zs = np.linspace(-5, 5, 41)
        exact = stats.norm.cdf(zs) - 2.0 * special.owens_t(zs, lam)
        assert np.max(np.abs(np.asarray(fam.cdf(zs)) - exact)) < 1e-10


def test_skewnormal_lambda_zero_is_normal():
    fam = SkewNormal(0.0, 1.0, 0.0)
    xs = np.linspace(-4, 4, 17)
    assert np.allclose(np.asarray(fam.density(xs)), stats.norm.pdf(xs), atol=1e-14)
    assert fam.symmetric


def test_ssmn_density_is_conditional_mixture():
    fam = SSMN(0.0, 1.0, 2.0, [(0.5, 0.5), (2.0, 0.5)])
    xs = np.linspace(-5, 5, 21)
    expected = 0.5 * np.asarray(SkewNormal(0.0, 0.5, 1.0).density(xs)) + 0.5 * np.asarray(
        SkewNormal(0.0, 2.0, 4.0).density(xs)
    )
    assert np.allclose(np.asarray(fam.density(xs)), expected, atol=1e-14)


class _ReferenceSSMN(UnivariateFamily):
    """SSMN as written before it became a MixtureFamily: a new SkewNormal per
    atom on every call."""

    def __init__(self, mu, sigma, lam, atoms):
        self.mu, self.sigma, self.lam = float(mu), float(sigma), float(lam)
        self.atoms = [(float(v), float(p)) for v, p in atoms]

    def _conditional(self, v):
        return SkewNormal(self.mu, self.sigma * v, self.lam * v)

    def _density(self, x):
        return sum(p * self._conditional(v).density(x) for v, p in self.atoms)

    def _cdf(self, x):
        return sum(p * self._conditional(v).cdf(x) for v, p in self.atoms)

    def sample_with(self, rng, count):
        vals = np.array([v for v, _ in self.atoms])
        probs = np.array([p for _, p in self.atoms])
        idx = rng.choice(len(vals), p=probs, size=count)
        out = np.empty(count)
        for k, v in enumerate(vals):
            mask = idx == k
            n_k = int(mask.sum())
            if n_k:
                out[mask] = self._conditional(v).sample_with(rng, n_k)
        return out


def _ssmn_laws(count, seed):
    # random laws whose probabilities sum to exactly 1.0, the case in which
    # renormalising the weights changes no bit
    rng = np.random.default_rng(seed)
    while count:
        k = int(rng.integers(1, 6))
        probs = rng.dirichlet(np.ones(k)).tolist()
        if sum(probs) != 1.0 or np.sum(probs) != 1.0:
            continue
        atoms = list(zip(rng.uniform(0.1, 4.0, k).tolist(), probs))
        yield float(rng.normal(0, 3)), float(rng.uniform(0.1, 4)), float(rng.normal(0, 30)), atoms
        count -= 1


def test_ssmn_mixture_matches_per_atom_reference():
    xs = np.concatenate([np.linspace(-30, 30, 241), [-1e3, -1e-9, 0.0, 1e3]])
    ps = np.concatenate([np.linspace(1e-6, 1 - 1e-6, 97), [1e-12, 0.5, 1 - 1e-12]])
    laws = [*_ssmn_laws(40, 7), (0.3, 1.2, 1e3, [(0.6, 0.5), (1.2, 0.5)]),
            (0.0, 1.0, 0.0, [(0.5, 0.25), (2.0, 0.75)])]
    for mu, sigma, lam, atoms in laws:
        fam, ref = SSMN(mu, sigma, lam, atoms), _ReferenceSSMN(mu, sigma, lam, atoms)
        assert isinstance(fam, MixtureFamily)
        for got, want in [(fam.cdf(xs), ref.cdf(xs)), (fam.density(xs), ref.density(xs)),
                          (fam.quantile(ps), ref.quantile(ps)),
                          (fam.sample(1000, 5), ref.sample(1000, 5))]:
            assert np.array_equal(got, want)
        assert fam.cdf(0.25) == ref.cdf(0.25) and fam.quantile(0.3) == ref.quantile(0.3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.5])
def test_mixture_rejects_bad_weight_at_construction(bad):
    with pytest.raises(FamilyError, match="weights must be positive and finite"):
        MixtureFamily([Uniform(-1.0, 0.0), Uniform(0.0, 1.0)], [0.5, bad])
    with pytest.raises(GeneratorError, match="atoms must have weights and values positive"):
        SSMN(0.0, 1.0, 2.0, [(1.0, 0.5), (2.0, bad)])


def test_mixture_weights_whose_sum_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fam = MixtureFamily([Uniform(0.0, 1.0), Uniform(1.0, 2.0)], [1e308, 1e308])
    assert fam.cdf(3.0) == 1.0 and fam.center == 1.0
    assert fam.weights == [1e308, 1e308]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(2.0**-500, 2.0**500), min_size=1, max_size=6))
def test_mixture_probabilities_are_the_weights_over_their_sum(weights):
    fam = MixtureFamily([Uniform(0.0, 1.0)] * len(weights), weights)
    w = np.asarray(weights)
    assert np.array_equal(fam.probs, w / w.sum())


def test_ssmn_weights_are_renormalised():
    fam = SSMN(0.0, 1.0, 2.0, [(0.5, 0.3), (2.0, 0.7 + 1e-10)])
    assert fam.probs.sum() == 1.0
    assert fam.spec()["atoms"] == [[0.5, 0.3], [2.0, 0.7 + 1e-10]]


def test_slash_cdf_against_quadrature():
    fam = SlashElliptical(0.0, 1.0, NORMAL, 2.0)
    for x in [-2.0, -0.5, 0.0, 1.0, 3.0]:
        oracle, _ = integrate.quad(lambda u: stats.norm.cdf(x * u ** 0.5), 0.0, 1.0)
        assert float(fam.cdf(x)) == pytest.approx(oracle, abs=1e-6)


def test_generalized_logistic_standard_case():
    # alpha = beta = 1 is the standard logistic
    fam = GeneralizedLogistic(1.0, 1.0)
    xs = np.linspace(-6, 6, 25)
    assert np.allclose(np.asarray(fam.density(xs)), stats.logistic.pdf(xs), atol=1e-12)
    assert np.allclose(np.asarray(fam.cdf(xs)), stats.logistic.cdf(xs), atol=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha, beta", [(1000.0, 2.0), (540.0, 0.5), (530.0, 0.5)])
def test_generalized_logistic_large_alpha(alpha, beta):
    # a kernel with the factor 4^(-alpha) underflowed: the normaliser divided
    # by 0 at (1000, 2) and (540, 0.5), and the CDF was NaN at (530, 0.5)
    fam = GeneralizedLogistic(alpha, beta)
    half, _ = integrate.quad(lambda x: float(fam.density(x)), -np.inf, 0.0, epsrel=1e-12)
    assert half == pytest.approx(0.5, rel=1e-10)
    p = np.array([1e-9, 1e-3, 0.1, 0.45, 0.5, 0.9])
    x = np.asarray(fam.quantile(p))
    assert np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)
    np.testing.assert_allclose(fam.cdf(x), p, rtol=1e-10, atol=0)
    lower, _ = integrate.quad(lambda y: float(fam.density(y)), -np.inf, x[1], epsrel=1e-12)
    assert lower == pytest.approx(1e-3, rel=1e-8)


def test_mixture_weights_renormalized():
    fam = MixtureFamily([BimodalMoment(1), BimodalMoment(2)], [2.0, 2.0])
    assert np.allclose(fam.probs, [0.5, 0.5])
    assert fam.weights == [2.0, 2.0]  # as given


_MIRROR_PAIR = [Uniform(-1.0, -0.9), Uniform(0.9, 1.0)]
_NORMALS = [Elliptical(0.0, 1.0, NORMAL), Elliptical(0.0, 3.0, NORMAL)]


@pytest.mark.parametrize("fam, center, symmetric, unimodal", [
    # asymmetric parts that fall between the points of any coarse density grid
    (MixtureFamily(_MIRROR_PAIR + [Uniform(-101.0, -100.9), Uniform(100.9, 101.0),
                                   Uniform(30.1, 30.12), Uniform(-15.06, -15.05)],
                   [0.47, 0.47, 0.01, 0.01, 0.01, 0.02]), None, False, False),
    (MixtureFamily(_MIRROR_PAIR, [0.5, 0.5]), 0.0, False, False),
    (MixtureFamily(_MIRROR_PAIR, [0.3, 0.3], symmetric=True), 0.0, True, False),
    (MixtureFamily(_NORMALS, [0.5, 0.5]), 0.0, True, True),
    (MixtureFamily(_NORMALS, [0.5, 0.5], symmetric=False), 0.0, True, True),
    (MixtureFamily([Uniform(1.0, 3.0), Uniform(0.0, 4.0)], [0.1, 0.7]), 2.0, True, True),
    (MixtureFamily([Uniform(1.0, 3.0), BimodalPower(1.0, 1)], [0.5, 0.5]), 1.0, False, False),
    (SSMN(0.0, 1.0, 2.0, [(0.5, 0.5), (2.0, 0.5)]), 0.0, False, False),
    (SSMN(1.5, 1.0, 0.0, [(0.5, 0.5), (2.0, 0.5)]), 1.5, True, True),
], ids=["off_grid_asymmetry", "mirror_pair", "mirror_pair_stated", "normals",
        "normals_stated_false", "common_center", "no_common_center", "ssmn_skewed", "ssmn_lam_0"])
def test_mixture_flags_follow_from_components(fam, center, symmetric, unimodal):
    assert (fam.symmetric, fam.unimodal) == (symmetric, unimodal)
    if center is not None:
        assert fam.center == center
    clone = family_from_spec(fam.spec())
    assert (clone.center, clone.symmetric, clone.unimodal) == (fam.center, symmetric, unimodal)


def test_mixture_spec_fields():
    fam = MixtureFamily(_MIRROR_PAIR, [0.5, 0.5], symmetric=True)
    assert list(fam.spec()) == ["family", "components", "weights", "symmetric"]


def test_invalid_inputs():
    with pytest.raises(FamilyError):
        Uniform(1.0, 0.0)
    with pytest.raises(FamilyError):
        BimodalPower(1.0, 0)
    with pytest.raises(FamilyError):
        KotzType(0.5, 1.0, 1.0)
    with pytest.raises(FamilyError):
        Uniform(0, 1).quantile(1.5)
    with pytest.raises(FamilyError):
        LocationScaleSymmetric(SkewNormal(0, 1, 2.0), 0.0, 1.0)


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-1.7e308, 1.7e308), (1.0, 1.0), (2.0, 1.0),
                                    (0.0, 1e-310)])
def test_uniform_needs_a_positive_finite_width(lo, hi):
    # a width that overflows would give a zero density and an infinite median,
    # and one whose reciprocal overflows an infinite density
    with pytest.raises(FamilyError, match="width"):
        Uniform(lo, hi)
    assert Uniform(0.0, 1e308).quantile(0.5) == 5e307
    assert Uniform(1e308, 1.7e308).center == pytest.approx(1.35e308)  # lo + hi overflows


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0), (2.0, 5.0), (-1e300, 1e307)])
def test_uniform_draws_are_numpys_uniform(lo, hi):
    # inverse-CDF sampling computes lo + (hi - lo) u, as Generator.uniform does
    expected = np.random.default_rng(7).uniform(lo, hi, 10**4)
    assert np.array_equal(Uniform(lo, hi).sample(10**4, 7), expected)


_WITH_PARAMETER = {
    "uniform": lambda x: Uniform(0.0, x) if x > 0 else Uniform(x, 0.0),
    "elliptical_mu": lambda x: Elliptical(x, 1.0, NORMAL),
    "elliptical_sigma": lambda x: Elliptical(0.0, x, T3),
    "location_scale_mu": lambda x: LocationScaleSymmetric(Uniform(-1.0, 1.0), x, 1.0),
    "location_scale_theta": lambda x: LocationScaleSymmetric(Uniform(-1.0, 1.0), 0.0, x),
    "bimodal_power_a": lambda x: BimodalPower(x, 1),
    "bimodal_power_r": lambda x: BimodalPower(1.0, x),
    "bimodal_moment": lambda x: BimodalMoment(x),
    "logistic_alpha": lambda x: GeneralizedLogistic(x, 1.0),
    "logistic_beta": lambda x: GeneralizedLogistic(1.0, x),
    "kotz_N": lambda x: KotzType(x, 1.0, 1.0),
    "kotz_mu": lambda x: KotzType(2.0, 1.0, 1.0, mu=x),
    "kotz_sigma": lambda x: KotzType(2.0, 1.0, 1.0, sigma=x),
    "skew_normal_mu": lambda x: SkewNormal(x, 1.0, 2.0),
    "skew_normal_lam": lambda x: SkewNormal(0.0, 1.0, x),
    "ssmn_mu": lambda x: SSMN(x, 1.0, 2.0, [(1.0, 1.0)]),
    "ssmn_lam": lambda x: SSMN(0.0, 1.0, x, [(1.0, 1.0)]),
    "slash_mu": lambda x: SlashElliptical(x, 1.0, NORMAL, 2.0),
    "slash_q": lambda x: SlashElliptical(0.0, 1.0, NORMAL, x),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", list(_WITH_PARAMETER))
def test_non_finite_parameter_rejected(name, bad):
    with pytest.raises(FamilyError):
        _WITH_PARAMETER[name](bad)



@pytest.mark.parametrize("spec", [
    {"family": "uniform", "lo": 0.0},
    {"family": "uniform", "lo": 0.0, "hi": 1.0, "mu": 0.0},
    {"family": "kotz", "N": 2.0, "m": 1.0, "beta": 1.0, "theta": 1.0},
    {"family": "location_scale", "base": "uniform", "mu": 0.0, "theta": 1.0},
    {"family": "elliptical", "mu": 0.0, "sigma": 1.0, "generator": "normal"},
    {"family": "mixture", "components": [{"family": "uniform", "lo": 0.0}], "weights": [1.0]},
    "uniform",
    {"family": "normal"},
    *({"family": "mixture", "components": [{"family": "uniform", "lo": -1.0, "hi": 1.0}],
       "weights": [1.0], **extra}
      for extra in ({"unimodal": True}, {"center": 0.0}, {"symmetric": "no"})),
    # the gamma shape (2N - 1)/(2 beta) = 1e308 has no finite lgamma
    {"family": "kotz", "N": 1e8, "m": 0.5, "beta": 1e-300},
], ids=["missing", "unknown", "unknown_optional", "base_a_string", "generator_a_string",
        "nested_missing", "not_a_dict", "unknown_family", "mixture_unimodal", "mixture_center",
        "mixture_symmetric_a_string", "kotz_shape_overflows"])
def test_malformed_spec_rejected(spec):
    with pytest.raises(ValueError):  # FamilyError or GeneratorError
        family_from_spec(spec)


@pytest.mark.parametrize("shape", [200.0, 1e4])
def test_pearson_vii_density_large_shape_is_scaled_student_t(shape):
    # Pearson VII(N, m) is Student t with nu = 2N - 1, scaled by sqrt(m / nu)
    m = 1.5
    nu = 2.0 * shape - 1.0
    k = math.sqrt(nu / m)
    z = np.linspace(-8.0, 8.0, 321) / k
    pvii = Elliptical(0.0, 1.0, CharacteristicGenerator.pearson_vii(shape, m)).density(z)
    t = Elliptical(0.0, 1.0, CharacteristicGenerator.student_t(nu)).density(z * k) * k
    np.testing.assert_allclose(pvii, t, rtol=1e-12, atol=0)
    slash = SlashElliptical(0.0, 1.0, CharacteristicGenerator.pearson_vii(shape, m), 2.0)
    assert np.all(np.isfinite(slash.density(z)))



_FAR = np.array([-math.inf, -1.5e308, -1e300, -1e200, 1e200, 1e300, 1.5e308, math.inf])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fam", FAMILIES, ids=_IDS)
def test_far_tails_without_warnings(fam):
    # |x|^k, z * z and |z|^(2 beta) overflow out here without a warning
    density, cdf = fam.density(_FAR), fam.cdf(_FAR)
    assert np.all(density >= 0) and density[0] == density[-1] == 0.0
    assert np.all(np.diff(cdf) >= 0) and (cdf[0], cdf[-1]) == (0.0, 1.0)
    assert np.array_equal([fam.density(x) for x in _FAR], density)
    assert np.array_equal([fam.cdf(x) for x in _FAR], cdf)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fam", [
    Elliptical(1.0, 2.0, T3),
    Elliptical(0.0, 1.0, CharacteristicGenerator.pearson_vii(2.0, 1.0)),
    KotzType(2.0, 1.0, 1.0),
    KotzType(1.5, 0.5, 2.0, mu=1.0, sigma=2.0),
    GeneralizedLogistic(1.0, 2.0),
    GeneralizedLogistic(1.5, 2.0),
    GeneralizedLogistic(2.0, 0.5),
    # alpha u overflows in the tail rule at 1.5e308^beta
    GeneralizedLogistic(1.5, 1.0001),
], ids=["t3", "pearson_vii", "kotz", "kotz_beta2", "glogistic_1_2", "glogistic_1.5_2",
        "glogistic_2_0.5", "glogistic_1.5_1.0001"])
def test_light_tails_are_0_and_1_far_out(fam):
    # the density and lower tail are below the least double; at t = -inf the
    # logistic log-kernel -alpha t - 2 alpha log(1 + e^-t) was inf - inf (NaN)
    half = _FAR.size // 2
    assert np.array_equal(fam.density(_FAR), np.zeros(_FAR.size))
    assert np.array_equal(fam.cdf(_FAR), np.repeat([0.0, 1.0], half))
    assert fam.density(-1e300) == fam.density(-math.inf) == 0.0
