import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from jointmix.couplings import (
    EquicorrelationPlan,
    PolygonInequalityError,
    polygon_unit_vectors,
    psd_factor,
    sample_cm_scale_mixture,
    sample_jm_elliptical,
    sample_jm_slash,
    sample_matrix_variate_cm,
)
from jointmix.families import (
    Elliptical,
    GeneralizedLogistic,
    LocationScaleSymmetric,
    MixtureFamily,
    SlashElliptical,
    Uniform,
)
from jointmix.generators import CharacteristicGenerator
from jointmix.mixability import JM, jm_verdict_elliptical
from jointmix.oracle import verify_constant_sum

NORMAL = CharacteristicGenerator.normal()
T3 = CharacteristicGenerator.student_t(3.0)
T5 = CharacteristicGenerator.student_t(5.0)
CAUCHY = CharacteristicGenerator.cauchy()


# --- polygon construction ---------------------------------------------------

def test_antithetic_pair():
    vs = polygon_unit_vectors([1.0, 1.0])
    assert np.allclose(vs, [[1, 0], [-1, 0]])


def test_equilateral_triangle():
    vs = polygon_unit_vectors([1.0, 1.0, 1.0])
    gram = vs @ vs.T
    off = gram[~np.eye(3, dtype=bool)]
    assert np.allclose(off, -0.5, atol=1e-12)


def test_triangle_law_of_cosines_oracle():
    # independent closure oracle: angles from the law of cosines
    s = np.array([2.0, 1.5, 1.0])
    vs = polygon_unit_vectors(s)
    assert np.allclose(np.linalg.norm(vs, axis=1), 1.0, atol=1e-12)
    closure = s @ vs
    assert np.linalg.norm(closure) <= 1e-10
    cos12 = float(vs[0] @ vs[1])
    # angle between edge vectors v1, v2 is pi minus the interior angle at
    # their shared vertex, whose cosine is (s1^2 + s2^2 - s3^2)/(2 s1 s2)
    expected = -(s[0] ** 2 + s[1] ** 2 - s[2] ** 2) / (2 * s[0] * s[1])
    assert cos12 == pytest.approx(expected, abs=1e-12)


def test_polygon_inequality_violation_raises():
    with pytest.raises(PolygonInequalityError):
        polygon_unit_vectors([3.0, 1.0, 1.0])
    with pytest.raises(PolygonInequalityError):
        polygon_unit_vectors([1.0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=8))
def test_polygon_closure_property(sig):
    exact = [Fraction(s) for s in sig]
    if sum(exact) < 2 * max(exact):
        with pytest.raises(PolygonInequalityError):
            polygon_unit_vectors(sig)
        return
    vs = polygon_unit_vectors(sig)
    assert np.max(np.abs(np.linalg.norm(vs, axis=1) - 1.0)) <= 1e-12
    assert np.linalg.norm(np.asarray(sig) @ vs) <= 1e-10 * sum(sig)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=7),
    st.integers(0, 7),
)
def test_boundary_jm_verdict_is_exact_and_samples(others, at):
    # the largest scale is the rounded sum of the others, so the exact sign of
    # sum - 2 max is decided by rounding errors alone
    sig = list(others)
    sig.insert(at % (len(sig) + 1), sum(others))
    exact = [Fraction(s) for s in sig]
    res = jm_verdict_elliptical(sig, [0.0] * len(sig), NORMAL)
    assert (res.verdict == JM) == (sum(exact) >= 2 * max(exact))
    assert res.replay() == res.verdict
    if res.verdict == JM:
        batch = sample_jm_elliptical([0.0] * len(sig), sig, NORMAL, 64, 3)
        assert np.abs(batch.data.sum(axis=1)).max() <= 1e-12 * sum(sig)


def test_polygon_deterministic():
    a = polygon_unit_vectors([2, 1, 1, 1, 0.5])
    b = polygon_unit_vectors([2, 1, 1, 1, 0.5])
    assert np.array_equal(a, b)


# --- equicorrelation plan ---------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_equicorrelation_spectrum(n):
    plan = EquicorrelationPlan(n)
    phi = plan.phi
    assert np.allclose(np.diag(phi), 1.0)
    assert np.max(np.abs(phi @ np.ones(n))) <= 1e-14
    vals = np.sort(np.linalg.eigvalsh(phi))
    assert abs(vals[0]) <= 1e-12
    assert np.max(np.abs(vals[1:] - n / (n - 1))) <= 1e-12


def test_psd_factor_rejects_indefinite():
    with pytest.raises(ValueError):
        psd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


# --- elliptical coupling ----------------------------------------------------

def test_elliptical_sums_normal():
    batch = sample_jm_elliptical([0, 0, 0], [1, 1, 1], NORMAL, 10**4, seed=1)
    assert np.max(np.abs(batch.data.sum(axis=1))) <= 1e-10


def test_elliptical_sums_student_t():
    batch = sample_jm_elliptical([1, 2, 3], [2, 1.5, 1], T3, 10**4, seed=2)
    assert np.max(np.abs(batch.data.sum(axis=1) - 6.0)) <= 1e-8


def test_elliptical_sums_cauchy_no_moments():
    batch = sample_jm_elliptical([0, 0], [1, 1], CAUCHY, 10**4, seed=3)
    assert np.max(np.abs(batch.data.sum(axis=1))) <= 1e-8


def test_elliptical_marginals_ks():
    mus, sigs = [1.0, 2.0, 3.0], [2.0, 1.5, 1.0]
    batch = sample_jm_elliptical(mus, sigs, T3, 10**5, seed=4)
    for i in range(3):
        fam = Elliptical(mus[i], sigs[i], T3)
        stat = stats.kstest(batch.data[:, i], lambda x: np.asarray(fam.cdf(x))).statistic
        assert stat <= 1.63 / math.sqrt(10**5)


def test_empirical_cf_of_sum():
    batch = sample_jm_elliptical([1, 2, 3], [2, 1.5, 1], NORMAL, 10**4, seed=5)
    s = batch.data.sum(axis=1)
    for t in (-2.0, -1.0, 1.0, 2.0):
        dev = abs(np.mean(np.exp(1j * t * s)) - np.exp(1j * t * 6.0))
        assert dev <= 3.0 / math.sqrt(s.size)


def test_sampler_deterministic():
    a = sample_jm_elliptical([0, 0], [1, 1], T3, 100, seed=9)
    b = sample_jm_elliptical([0, 0], [1, 1], T3, 100, seed=9)
    assert np.array_equal(a.data, b.data)


# --- slash coupling ---------------------------------------------------------

def test_slash_pair_sums():
    batch = sample_jm_slash([0, 0], [1, 1], NORMAL, 2.0, 100, seed=6)
    assert np.max(np.abs(batch.data.sum(axis=1))) <= 1e-12


def test_slash_marginals_ks():
    batch = sample_jm_slash([1, 1, 1], [1, 1, 1], NORMAL, 1.0, 10**5, seed=7)
    ref = SlashElliptical(1.0, 1.0, NORMAL, 1.0).sample(10**5, seed=8)
    for i in range(3):
        assert stats.ks_2samp(batch.data[:, i], ref).pvalue > 0.01


def test_slash_heavy_tail_sums_exact():
    batch = sample_jm_slash([0, 0, 0], [2, 1.5, 1], NORMAL, 3.0, 10**4, seed=9)
    report = verify_constant_sum(batch, 0.0, 1e-8)
    assert report.passed


def test_slash_invalid_q():
    with pytest.raises(ValueError):
        sample_jm_slash([0, 0], [1, 1], NORMAL, -1.0, 10, seed=0)


# --- scale-mixture coupling -------------------------------------------------

def test_scale_mixture_normal_point_mass():
    base = Elliptical(0.0, 1.0, NORMAL)
    batch = sample_cm_scale_mixture(base, [(1.0, 1.0)], 3, 10**4, seed=10)
    assert np.max(np.abs(batch.data.sum(axis=1))) <= 1e-12
    assert batch.metadata["exact"]


def test_scale_mixture_two_atoms():
    base = Elliptical(0.0, 1.0, NORMAL)
    batch = sample_cm_scale_mixture(base, [(1.0, 0.5), (2.0, 0.5)], 2, 10**4, seed=11)
    assert np.max(np.abs(batch.data.sum(axis=1))) <= 1e-12


def test_scale_mixture_marginal_is_scale_mixture():
    # marginal must match theta * N(0,1) with theta in {1, 2}
    base = Elliptical(0.0, 1.0, NORMAL)
    batch = sample_cm_scale_mixture(base, [(1.0, 0.5), (2.0, 0.5)], 3, 10**5, seed=12)

    def mix_cdf(x):
        return 0.5 * stats.norm.cdf(x) + 0.5 * stats.norm.cdf(x / 2.0)

    stat = stats.kstest(batch.data[:, 0], mix_cdf).statistic
    assert stat <= 1.63 / math.sqrt(10**5)


# unimodal-symmetric bases that are not Elliptical
SCALE_MIXTURE_BASES = {
    "uniform": Uniform(-1.0, 1.0),
    "uniform_off_center": Uniform(2.0, 5.0),
    "gl_beta_0.5": GeneralizedLogistic(1.0, 0.5),
    "gl_beta_1": GeneralizedLogistic(1.0, 1.0),
    "gl_beta_2": GeneralizedLogistic(1.5, 2.0),
    "slash_normal": SlashElliptical(0.0, 1.0, NORMAL, 1.0),
    "slash_t": SlashElliptical(0.5, 2.0, T3, 1.5),
    "location_scale": LocationScaleSymmetric(Uniform(-1.0, 1.0), 0.1, 3.0),
    "normal_mixture": MixtureFamily(
        [Elliptical(0.0, 1.0, NORMAL), Elliptical(0.0, 3.0, NORMAL)], [0.5, 0.5]
    ),
}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("name", sorted(SCALE_MIXTURE_BASES))
def test_scale_mixture_exact_for_unimodal_symmetric_bases(name, n):
    base, atoms, count = SCALE_MIXTURE_BASES[name], [(1.0, 0.3), (2.5, 0.7)], 4000
    batch = sample_cm_scale_mixture(base, atoms, n, count, seed=n)
    assert batch.metadata["exact"]
    assert batch.joint_center == n * base.center
    assert verify_constant_sum(batch, batch.joint_center, 1e-8).passed
    c = base.center

    def mix_cdf(x):  # c + theta (Y - c) with theta ~ H
        return sum(p * base.cdf(c + (x - c) / v) for v, p in atoms)

    for column in batch.data.T:
        assert stats.kstest(column, mix_cdf).statistic <= 1.63 / math.sqrt(count)


class _ZeroDensityDraws(Uniform):
    """A uniform law whose sampler returns its center, its edge and points
    past the edge, where the density is 0; density calls are counted."""

    calls = 0

    def sample_with(self, rng, count):
        hi = self.hi
        return np.resize([self.center, hi, np.nextafter(hi, np.inf), hi + 1.0, 1e300], count)

    def _density(self, x):
        self.calls += 1
        if self.calls > 5000:
            raise AssertionError("the Khintchine scale search does not end")
        return super()._density(x)


def test_scale_mixture_ends_where_the_density_is_zero():
    base = _ZeroDensityDraws(-1.0, 1.0)
    batch = sample_cm_scale_mixture(base, [(1.0, 1.0)], 3, 10, seed=0)
    assert base.calls > 0  # a Uniform has no closed-form T: the level-set search ran
    assert np.all(np.isfinite(batch.data))
    assert np.max(np.abs(batch.data.sum(axis=1))) <= 1e-12 * np.max(np.abs(batch.data))


# families whose structure gives the Khintchine scale T in closed form
CLOSED_FORM_T = {
    "normal": Elliptical(0.5, 2.0, NORMAL),
    "student_t3": Elliptical(0.0, 1.0, T3),
    "cauchy": Elliptical(-1.0, 0.5, CAUCHY),
    "discrete_mixture": Elliptical(
        0.0, 1.0, CharacteristicGenerator.discrete_mixture([(0.3, 0.5), (0.7, 2.0)])
    ),
    "slash_normal_q0.3": SlashElliptical(0.0, 1.0, NORMAL, 0.3),
    "slash_t": SlashElliptical(0.5, 2.0, T3, 1.5),
    "location_scale_t": LocationScaleSymmetric(Elliptical(1.0, 1.0, T3), -2.0, 3.0),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_T))
def test_closed_form_khintchine_scale_has_the_family_law(name):
    # Khintchine: P(T <= t) = 2 F(c + t) - 1 - 2 t f(c + t), and c + T V with
    # V ~ U(-1, 1) is a draw of the family
    base, count = CLOSED_FORM_T[name], 20000
    c = base.center
    rng = np.random.default_rng(1)
    t = base.khintchine_scale(rng, count)
    x = c + t * rng.uniform(-1.0, 1.0, size=count)

    def t_cdf(s):
        return 2.0 * base.cdf(c + s) - 1.0 - 2.0 * s * base.density(c + s)

    assert stats.kstest(t, t_cdf).statistic <= 1.63 / math.sqrt(count)
    assert stats.kstest(x, base.cdf).statistic <= 1.63 / math.sqrt(count)


def test_closed_form_khintchine_scales_evaluate_no_density(monkeypatch):
    from jointmix import families

    def no_density(self, x):
        raise AssertionError("a closed-form T evaluates no density")

    for cls in (families._SymmetricLocationScale, LocationScaleSymmetric):
        monkeypatch.setattr(cls, "_density", no_density)
    for base in CLOSED_FORM_T.values():
        with pytest.raises(AssertionError, match="no density"):
            base.density(base.center)
        assert np.all(base.khintchine_scale(np.random.default_rng(0), 100) > 0)
        batch = sample_cm_scale_mixture(base, [(1.0, 0.5), (2.0, 0.5)], 5, 100, seed=0)
        assert verify_constant_sum(batch, batch.joint_center, 1e-8).passed


def test_scale_mixture_rejects_bad_base():
    from jointmix.families import BimodalPower

    with pytest.raises(ValueError):
        sample_cm_scale_mixture(BimodalPower(1, 1), [(1.0, 1.0)], 3, 10, seed=0)
    # a mirror-image pair is symmetric by claim but has no mass near its center
    pair = MixtureFamily([Uniform(-1.0, -0.9), Uniform(0.9, 1.0)], [0.5, 0.5], symmetric=True)
    with pytest.raises(ValueError, match="unimodal"):
        sample_cm_scale_mixture(pair, [(1.0, 1.0)], 3, 10, seed=0)


@pytest.mark.parametrize("n", [2.5, 1.0, math.nan])
def test_samplers_reject_a_fractional_n(n):
    base = Elliptical(0.0, 1.0, NORMAL)
    with pytest.raises(ValueError, match="n must be an integer >= 2"):
        sample_cm_scale_mixture(base, [(1.0, 1.0)], n, 10, seed=0)
    with pytest.raises(ValueError, match="n must be an integer >= 2"):
        sample_matrix_variate_cm(2, np.eye(2), NORMAL, n, 10, seed=0)


def test_samplers_take_a_whole_float_n():
    base = Elliptical(0.0, 1.0, NORMAL)
    whole = sample_cm_scale_mixture(base, [(1.0, 0.5), (2.0, 0.5)], 3.0, 100, seed=3)
    ref = sample_cm_scale_mixture(base, [(1.0, 0.5), (2.0, 0.5)], 3, 100, seed=3)
    assert np.array_equal(whole.data, ref.data) and whole.metadata == ref.metadata
    whole = sample_matrix_variate_cm(2, np.eye(2), NORMAL, 3.0, 100, seed=3)
    ref = sample_matrix_variate_cm(2, np.eye(2), NORMAL, 3, 100, seed=3)
    assert np.array_equal(whole.data, ref.data) and whole.metadata == ref.metadata


_SAMPLERS = {
    "elliptical": lambda count: sample_jm_elliptical([0.0, 0.0], [1.0, 1.0], NORMAL, count, 0),
    "slash": lambda count: sample_jm_slash([0.0, 0.0], [1.0, 1.0], NORMAL, 2.0, count, 0),
    "scale_mixture": lambda count: sample_cm_scale_mixture(
        Elliptical(0.0, 1.0, NORMAL), [(1.0, 1.0)], 3, count, 0),
    "matrix": lambda count: sample_matrix_variate_cm(2, np.eye(2), NORMAL, 3, count, 0),
}


@pytest.mark.parametrize("count", [0, -5])
@pytest.mark.parametrize("name", list(_SAMPLERS))
def test_samplers_refuse_a_count_below_one_before_drawing(monkeypatch, name, count):
    # not a header-only batch for 0, nor numpy's negative-dimension error for -5
    def no_draws(seed):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match=f"count must be at least 1, not {count}"):
        _SAMPLERS[name](count)


# --- matrix-variate coupling ------------------------------------------------

def test_matrix_p1_antithetic():
    mb = sample_matrix_variate_cm(1, [[1.0]], NORMAL, 2, 1000, seed=14)
    assert np.max(np.abs(mb.data[:, 0, 0] + mb.data[:, 0, 1])) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5])
def test_matrix_column_sums_vanish(n):
    mb = sample_matrix_variate_cm(2, np.eye(2), NORMAL, n, 10**4, seed=15)
    assert np.linalg.norm(mb.data.sum(axis=2), axis=1).max() <= 1e-10


def test_matrix_marginal_covariance_student_t():
    sigma_p = np.array([[2.0, 1.0], [1.0, 2.0]])
    mb = sample_matrix_variate_cm(2, sigma_p, T5, 4, 10**6, seed=16)
    target = (5.0 / 3.0) * sigma_p  # nu/(nu-2) scaling
    for col in range(4):
        emp = np.cov(mb.data[:, :, col].T)
        assert np.max(np.abs(emp - target)) <= 0.05 * np.max(np.abs(target))


def test_matrix_rejects_bad_sigma():
    with pytest.raises(ValueError):
        sample_matrix_variate_cm(2, [[1.0, 2.0], [2.0, 1.0]], NORMAL, 3, 10, seed=0)


# --- transform invariance ---------------------------------------------------

def test_transform_square_of_centered_sums():
    batch = sample_jm_elliptical([0, 0, 0], [1, 1, 1], NORMAL, 10**4, seed=17)
    transformed = batch.data.sum(axis=1) ** 2
    k = 0.0 * 0.0  # f(C) for f(x) = x * x and C = 0
    assert np.max(np.abs(transformed - k)) <= 1e-18


def test_transform_exp_relative():
    batch = sample_jm_elliptical([1, 2, 3], [2, 1.5, 1], T3, 10**4, seed=18)
    k = math.exp(6.0)
    transformed = np.exp(batch.data.sum(axis=1))
    assert np.max(np.abs(transformed - k)) / k <= 1e-6


# --- batch serialization ----------------------------------------------------

def test_csv_and_sidecar_round_trip(tmp_path):
    batch = sample_jm_elliptical([1, 2], [1, 1], NORMAL, 50, seed=19)
    csv_path = tmp_path / "batch.csv"
    batch.write_csv(csv_path, include_sum=True)
    batch.write_sidecar(tmp_path / "batch.json")
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "X1,X2,S"
    parsed = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
    assert np.allclose(parsed[:, :2], batch.data, rtol=0, atol=0)  # 17 sig digits
    sidecar = (tmp_path / "batch.json").read_text()
    assert '"joint_center": 3.0' in sidecar
