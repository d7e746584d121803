import itertools
import math

import numpy as np
import pytest

from jointmix.couplings import sample_jm_elliptical
from jointmix.families import BimodalPower, Elliptical, SkewNormal, Uniform, UnivariateFamily
from jointmix.generators import CharacteristicGenerator
from jointmix.oracle import (
    QuantileGrid,
    brute_force_min_spread,
    discretize,
    ra_minimize,
    verify_constant_sum,
)

NORMAL = CharacteristicGenerator.normal()


# --- discretization ---------------------------------------------------------

def test_discretize_uniform_midpoints():
    grid = discretize([Uniform(0, 1)], 4)
    assert np.allclose(grid.values[:, 0], [0.125, 0.375, 0.625, 0.875])


def test_discretize_bimodal_power_closed_form():
    # inverse of F(x) = (x^3 + 1)/2 at p = 1/4, 3/4
    grid = discretize([BimodalPower(1, 1)], 2)
    root = 0.5 ** (1.0 / 3.0)
    assert np.allclose(grid.values[:, 0], [-root, root], atol=1e-10)
    assert root == pytest.approx(0.7937, abs=1e-4)


class _CountingSkewNormal(SkewNormal):
    def __init__(self, *args):
        super().__init__(*args)
        self.quantile_calls = 0

    def quantile(self, p):
        self.quantile_calls += 1
        return super().quantile(p)


class _SpecLess(UnivariateFamily):
    """Uniform(0, 1) quantiles without a ``spec()``."""

    def __init__(self):
        self.quantile_calls = 0

    def quantile(self, p):
        self.quantile_calls += 1
        return np.asarray(p, dtype=float)


def test_discretize_computes_identical_columns_once():
    fam = _CountingSkewNormal(0.0, 1.0, 5.0)
    grid = discretize([fam] * 3, 200)
    assert fam.quantile_calls == 1
    # equal specs share a column too
    twin = _CountingSkewNormal(0.0, 1.0, 5.0)
    other = _CountingSkewNormal(0.0, 1.0, 4.0)
    discretize([twin, SkewNormal(0.0, 1.0, 5.0), other, twin], 50)
    assert (twin.quantile_calls, other.quantile_calls) == (1, 1)
    # bit for bit the grid of separately computed columns
    probs = (np.arange(200) + 0.5) / 200
    separate = np.column_stack([SkewNormal(0.0, 1.0, 5.0).quantile(probs) for _ in range(3)])
    assert np.array_equal(grid.values, separate)


def test_discretize_without_spec_keys_by_identity():
    a, b = _SpecLess(), _SpecLess()
    grid = discretize([a, b, a], 4)
    assert (a.quantile_calls, b.quantile_calls) == (1, 1)
    assert np.array_equal(grid.values[:, 0], [0.125, 0.375, 0.625, 0.875])


def test_discretize_normal_quartiles():
    # standard normal quartiles from an erf bisection oracle
    def erf_cdf(x):
        return 0.5 * (1 + math.erf(x / math.sqrt(2)))

    lo, hi = 0.0, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if erf_cdf(mid) < 0.75 else (lo, mid)
    q3 = 0.5 * (lo + hi)
    grid = discretize([Elliptical(0, 1, NORMAL)], 2)
    assert np.allclose(grid.values[:, 0], [-q3, q3], atol=1e-8)
    assert q3 == pytest.approx(0.6745, abs=1e-4)


def test_grid_validation():
    with pytest.raises(ValueError):
        QuantileGrid(np.array([[1.0, 2.0], [0.5, 3.0]]))  # decreasing column
    with pytest.raises(ValueError):
        QuantileGrid(np.array([[np.inf, 1.0]]))
    with pytest.raises(ValueError):
        discretize([Uniform(0, 1)], 1)


# --- rearrangement algorithm ------------------------------------------------

def test_ra_pair_is_antithetic():
    grid = discretize([Uniform(0, 1)] * 2, 8)
    res = ra_minimize(grid, restarts=3, seed=0)
    assert res.row_sum_spread <= 1e-12
    arranged = res.apply(grid)
    assert np.allclose(arranged.sum(axis=1), 1.0)


def test_ra_uniform_triple_regression():
    # uniform is 3-CM; threshold is a regression fixture from the first
    # verified run, not a theoretical value
    grid = discretize([Uniform(0, 1)] * 3, 99)
    res = ra_minimize(grid, restarts=10, seed=0)
    assert res.row_sum_stddev <= 0.02


def test_ra_bimodal_triple_bounded_away():
    grid = discretize([BimodalPower(1, 1)] * 3, 99)
    res = ra_minimize(grid, restarts=10, seed=0)
    assert res.row_sum_stddev >= 0.05


def test_ra_variance_trajectory_monotone():
    grid = discretize([BimodalPower(1, 1)] * 3, 64)
    res = ra_minimize(grid, restarts=5, seed=3)
    traj = res.variance_trajectory
    assert all(a >= b - 1e-12 for a, b in zip(traj, traj[1:]))


def test_ra_permutations_reproduce_spread_exactly():
    grid = discretize([Uniform(0, 1), BimodalPower(1, 1), Uniform(-1, 1)], 33)
    res = ra_minimize(grid, restarts=4, seed=5)
    sums = res.apply(grid).sum(axis=1)
    assert float(sums.max() - sums.min()) == res.row_sum_spread


def test_ra_refinement_for_jm_family():
    stds = []
    for m in (32, 64, 128, 256):
        grid = discretize([Elliptical(0, 1, NORMAL)] * 3, m)
        stds.append(ra_minimize(grid, restarts=5, seed=7).row_sum_stddev)
    assert all(a >= b - 1e-12 for a, b in zip(stds, stds[1:]))
    assert stds[-1] <= 0.5 * stds[0]


def test_ra_input_validation():
    with pytest.raises(ValueError):
        ra_minimize(QuantileGrid(np.zeros((4, 1))))


# --- brute force ------------------------------------------------------------

def test_brute_force_pair_matches_antithetic():
    grid = discretize([Uniform(0, 1)] * 2, 5)
    spread, perms = brute_force_min_spread(grid)
    v = grid.values
    anti = v[:, 0] + v[::-1, 1]
    assert spread == pytest.approx(float(anti.max() - anti.min()), abs=1e-15)


def test_brute_force_uniform_latin_square():
    grid = discretize([Uniform(0, 1)] * 3, 3)
    spread, perms = brute_force_min_spread(grid)
    assert spread <= 1e-12
    arranged = np.column_stack([grid.values[perms[j], j] for j in range(3)])
    assert np.allclose(arranged.sum(axis=1), 1.5)


def test_brute_force_bimodal_positive_and_ra_matches():
    grid = discretize([BimodalPower(1, 1)] * 3, 4)
    spread, _ = brute_force_min_spread(grid)
    assert spread > 0.0
    res = ra_minimize(grid, restarts=100, seed=11)
    assert res.row_sum_spread <= 1.10 * spread + 1e-12
    assert res.row_sum_spread >= spread - 1e-12


def test_brute_force_refuses_large_instances():
    with pytest.raises(ValueError):
        brute_force_min_spread(QuantileGrid(np.zeros((9, 2))))
    with pytest.raises(ValueError):
        brute_force_min_spread(QuantileGrid(np.zeros((4, 4))))


def test_ra_near_optimal_on_random_instances():
    rng = np.random.default_rng(99)
    for trial in range(5):
        cols = np.sort(rng.normal(size=(6, 3)), axis=0)
        grid = QuantileGrid(cols)
        opt, _ = brute_force_min_spread(grid)
        res = ra_minimize(grid, restarts=100, seed=trial)
        assert res.row_sum_spread <= 1.10 * opt + 1e-12


# --- constant-sum verification ----------------------------------------------

def test_verify_exact_batch_passes():
    batch = sample_jm_elliptical([1, 2, 3], [1, 1, 1], NORMAL, 1000, seed=0)
    report = verify_constant_sum(batch, 6.0, 1e-8)
    assert report.passed
    assert report.ecf_deviation <= 3.0 / math.sqrt(1000)


def test_verify_independent_draws_fail():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((1000, 3))
    report = verify_constant_sum(data, 0.0, 1e-8)
    assert not report.passed
    assert report.max_abs_deviation > 1.0  # several sigma for sqrt(3) sums


def test_verify_ra_approximate_batch_tolerances():
    from jointmix.couplings import sample_cm_scale_mixture

    batch = sample_cm_scale_mixture(
        Uniform(-1, 1), [(1.0, 1.0)], 3, 1000, seed=2, ra_grid_m=256
    )
    assert verify_constant_sum(batch, 0.0, 0.05).passed
    assert not verify_constant_sum(batch, 0.0, 1e-8).passed


def test_verify_rejects_empty():
    with pytest.raises(ValueError):
        verify_constant_sum(np.zeros((0, 3)), 0.0, 1e-8)


def test_report_json():
    import json

    batch = sample_jm_elliptical([0, 0], [1, 1], NORMAL, 10, seed=0)
    d = json.loads(verify_constant_sum(batch, 0.0, 1e-8).to_json())
    assert d["passed"] is True and d["rows"] == 10


def test_verify_rejects_zero_columns():
    with pytest.raises(ValueError):
        verify_constant_sum(np.zeros((3, 0)), 0.0, 1e-8)
