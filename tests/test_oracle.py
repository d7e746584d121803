import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointmix import oracle
from jointmix.couplings import sample_jm_elliptical, sample_jm_slash
from jointmix.families import (
    BimodalPower,
    Elliptical,
    KotzType,
    SkewNormal,
    Uniform,
    UnivariateFamily,
)
from jointmix.generators import CharacteristicGenerator
from jointmix.oracle import (
    QuantileGrid,
    RearrangementResult,
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
    with pytest.raises(ValueError, match="at least one family"):
        discretize([], 10)


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
    grid = discretize([Uniform(0, 1)] * 3, 10)
    for sizes in ({"restarts": 0}, {"restarts": -3}, {"max_sweeps": 0}, {"max_sweeps": -1}):
        with pytest.raises(ValueError, match="restarts >= 1 and max_sweeps >= 1"):
            ra_minimize(grid, **sizes)


# --- the RA's column sort ---------------------------------------------------

# a few values, so that most draws hold runs of equal keys: signed zeros (equal
# under ==), subnormal, tiny and huge magnitudes, infinities and NaN
_KEY_POOL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.0, -1.0,
             3.0, 1e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan]


_KEYS = st.lists(
    st.one_of(st.sampled_from(_KEY_POOL), st.floats(allow_nan=True, allow_infinity=True)),
    min_size=1,
    max_size=300,
)


def _perturbed_order(keys, seed):
    """The stable order of ``keys`` each scaled by 1 + 1e-3 N(0, 1): a hint
    that nearly sorts them, with tied keys in shuffled order."""
    noise = 1.0 + 1e-3 * np.random.default_rng(seed).standard_normal(keys.size)
    with np.errstate(all="ignore"):
        return np.argsort(keys * noise, kind="stable")


def _hints(keys, seed):
    """Any permutation, the identity, the reverse and a nearly sorting order."""
    m = keys.size
    return (np.random.default_rng(seed).permutation(m), np.arange(m), np.arange(m)[::-1],
            _perturbed_order(keys, seed))


@settings(max_examples=400, deadline=None)
@given(_KEYS, st.data())
def test_stable_argsort_equals_numpy_stable_sort(keys, data):
    keys = np.array(keys, dtype=float)
    hint = data.draw(st.one_of(
        st.permutations(range(keys.size)).map(np.array),
        st.sampled_from(_hints(keys, data.draw(st.integers(0, 2**32 - 1)))),
    ))
    assert np.array_equal(oracle._stable_argsort(keys, hint), np.argsort(keys, kind="stable"))


@pytest.mark.parametrize("m", [2, 17, 1000, 5000])
def test_stable_argsort_tie_heavy_and_nan(m):
    rng = np.random.default_rng(m)
    ties = rng.integers(-3, 4, size=m).astype(float)
    ties[rng.random(m) < 0.5] *= -1.0  # mixes 0.0 and -0.0
    with_nan = ties.copy()
    with_nan[rng.random(m) < 0.2] = np.nan
    with_nan[-1] = np.nan
    scaled = rng.standard_normal(m) * 10.0 ** rng.integers(-300, 300, size=m)
    for keys in (ties, with_nan, scaled, np.zeros(m), np.full(m, np.nan)):
        for hint in _hints(keys, m) + (np.argsort(keys, kind="stable"),):
            assert np.array_equal(oracle._stable_argsort(keys, hint),
                                  np.argsort(keys, kind="stable"))


def _reference_ra_single(grid_vals, init_perms, max_sweeps):
    """The RA sweep as first written, on numpy's stable argsort."""
    m, n = grid_vals.shape
    perms = [p.copy() for p in init_perms]
    cols = [grid_vals[perms[j], j] for j in range(n)]
    x = np.column_stack(cols)
    desc_idx = np.arange(m - 1, -1, -1)
    sorted_cols = [np.sort(grid_vals[:, j])[::-1] for j in range(n)]
    trajectory = [float(np.var(x.sum(axis=1)))]
    sweeps = 0
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        changed = False
        row_sums = x.sum(axis=1)
        for j in range(n):
            others = row_sums - x[:, j]
            order = np.argsort(others, kind="stable")
            new_col = np.empty(m)
            new_col[order] = sorted_cols[j]
            new_perm = np.empty(m, dtype=int)
            new_perm[order] = desc_idx
            if not np.array_equal(new_perm, perms[j]):
                changed = True
            row_sums = others + new_col
            x[:, j] = new_col
            perms[j] = new_perm
        var = float(np.var(row_sums))
        trajectory.append(var)
        if not changed:
            converged = True
            break
        if not var < trajectory[-2]:
            converged = True
            break
    row_sums = x.sum(axis=1)
    spread = float(row_sums.max() - row_sums.min())
    std = float(np.std(row_sums))
    return np.array(perms), spread, std, sweeps, converged, trajectory


def _reference_ra_minimize(grid, restarts, seed, max_sweeps=500):
    """Best of the restarts by (spread, tuple of every permutation entry)."""
    rng = np.random.default_rng(seed)
    best = None
    for r in range(restarts):
        if r == 0:
            init = [np.arange(grid.m) for _ in range(grid.n)]
        else:
            init = [rng.permutation(grid.m) for _ in range(grid.n)]
        perms, spread, std, sweeps, converged, traj = _reference_ra_single(
            grid.values, init, max_sweeps
        )
        key = (spread, tuple(perms.ravel()))
        if best is None or key < best[0]:
            best = (key, perms, spread, std, sweeps, converged, traj)
    _, perms, spread, std, sweeps, converged, traj = best
    return RearrangementResult(perms, spread, std, sweeps, converged, restarts, traj)


def _assert_bit_identical(res, ref):
    assert np.array_equal(res.permutations, ref.permutations)
    assert res.permutations.dtype == ref.permutations.dtype
    for name in ("row_sum_spread", "row_sum_stddev", "variance_trajectory"):
        got, want = np.asarray(getattr(res, name)), np.asarray(getattr(ref, name))
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
    assert (res.iterations, res.converged, res.restarts) == (ref.iterations, ref.converged,
                                                             ref.restarts)


def _ra_reference_grid(kind, n):
    if kind == "uniform":
        return [Uniform(-0.5 * j, 1.0 + j) for j in range(n)]
    if kind == "bimodal":
        return [BimodalPower(1.0, 1)] * n
    if kind == "student_t":
        return [Elliptical(0.1 * j, 1.0 + j / n, CharacteristicGenerator.student_t(4.0))
                for j in range(n)]
    if kind == "kotz":
        return [KotzType(2.0, 1.0, 1.0)] * n  # bimodal, slow to converge
    return [Uniform(0.0, 1.0)] * n  # identical columns: many tied row sums


@pytest.mark.parametrize("n", [3, 10])
@pytest.mark.parametrize("kind", ["uniform", "bimodal", "student_t", "identical"])
def test_ra_matches_stable_sort_reference(kind, n):
    grid = discretize(_ra_reference_grid(kind, n), 1000)
    seed = 31 * n + len(kind)
    _assert_bit_identical(ra_minimize(grid, restarts=4, seed=seed),
                          _reference_ra_minimize(grid, 4, seed))


@pytest.mark.parametrize("n", [3, 10])
@pytest.mark.parametrize("m", [1000, 5000])
@pytest.mark.parametrize("kind", ["identical", "kotz", "bimodal"])
def test_ra_carried_orders_match_reference(monkeypatch, kind, m, n):
    # random starts sort the row sums by quicksort; converging sweeps, whose
    # carried order leaves fewer than m/8 descents, by the stable sort of the
    # hinted sums
    grid = discretize(_ra_reference_grid(kind, n), m)
    seed = m + n + len(kind)
    ref = _reference_ra_minimize(grid, 3, seed)
    kinds = set()
    argsort = np.argsort

    def spy(a, *args, kind=None, **kwargs):
        if a.dtype == float:
            kinds.add(kind)
        return argsort(a, *args, kind=kind, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    res = ra_minimize(grid, restarts=3, seed=seed)
    monkeypatch.undo()
    _assert_bit_identical(res, ref)
    assert kinds == {"stable", None}


# lattice values and a pool of ties, signed zeros among them, so that row sums
# tie often and columns hold -0.0
_LATTICE = st.integers(-8, 8).map(lambda k: 0.25 * k)
_TIE_POOL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 5e-324, -5e-324])
_CELL = st.one_of(_LATTICE, _TIE_POOL, st.floats(-1e6, 1e6))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ra_contiguous_sweep_matches_reference(data):
    m, n = data.draw(st.integers(2, 30)), data.draw(st.integers(2, 20))
    cells = data.draw(st.lists(st.one_of(_LATTICE, _TIE_POOL), min_size=m * n, max_size=m * n))
    values = np.sort(np.reshape(cells, (m, n)), axis=0)
    if data.draw(st.booleans()):
        values[:, data.draw(st.integers(0, n - 1))] = -0.0
    grid = QuantileGrid(values)
    restarts, seed = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2**32 - 1))
    max_sweeps = data.draw(st.integers(1, 30))
    _assert_bit_identical(ra_minimize(grid, max_sweeps=max_sweeps, restarts=restarts, seed=seed),
                          _reference_ra_minimize(grid, restarts, seed, max_sweeps=max_sweeps))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_row_sums_match_numpy_reduction(data):
    # n past 16 and 24 takes more than one block of 8 partial sums; past 128,
    # numpy's own reduction
    m = data.draw(st.integers(1, 12))
    n = data.draw(st.one_of(st.integers(1, 40), st.integers(127, 140)))
    cells = np.reshape(data.draw(st.lists(_CELL, min_size=m * n, max_size=m * n)), (m, n))
    cols = [cells[:, j].copy() for j in range(n)]
    if data.draw(st.booleans()):
        cols[data.draw(st.integers(0, n - 1))] = np.full(m, -0.0)
    want = np.column_stack(cols).sum(axis=1)
    assert np.array_equal(oracle._row_sums(cols).view(np.int64), want.view(np.int64))
    assert np.array_equal(oracle._row_sums([np.full(m, -0.0)] * n).view(np.int64),
                          np.zeros(m).view(np.int64))


def _assert_scaled(res, ref, k):
    """``res`` is ``ref`` on the grid scaled by 2**k: the same arrangement,
    every row-sum statistic scaled exactly."""
    assert np.array_equal(res.permutations, ref.permutations)
    assert (res.iterations, res.converged) == (ref.iterations, ref.converged)
    assert res.row_sum_spread == math.ldexp(ref.row_sum_spread, k)
    assert res.row_sum_stddev == math.ldexp(ref.row_sum_stddev, k)
    assert res.variance_trajectory == [math.ldexp(v, 2 * k) for v in ref.variance_trajectory]


# subnormal cells lose bits when scaled down, so the tie pool here has none
_SCALABLE_CELL = st.one_of(_LATTICE, _TIE_POOL.filter(lambda x: abs(x) != 5e-324))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ra_is_scale_equivariant(data):
    # scaling by a power of two scales every row sum and variance exactly, so
    # a stopping rule without a constant leaves the whole run unchanged
    m, n = data.draw(st.integers(2, 30)), data.draw(st.integers(2, 20))
    cells = data.draw(st.lists(_SCALABLE_CELL, min_size=m * n, max_size=m * n))
    values = np.sort(np.reshape(cells, (m, n)), axis=0)
    k = data.draw(st.integers(-60, 60))
    restarts, seed = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2**32 - 1))
    ref = ra_minimize(QuantileGrid(values), restarts=restarts, seed=seed)
    _assert_scaled(ra_minimize(QuantileGrid(np.ldexp(values, k)), restarts=restarts, seed=seed),
                   ref, k)


@pytest.mark.parametrize("k", [-60, -30, 30])
@pytest.mark.parametrize("kind", ["uniform", "student_t", "identical"])
def test_ra_is_scale_equivariant_on_quantile_grids(kind, k):
    grid = discretize(_ra_reference_grid(kind, 3), 1000)
    ref = ra_minimize(grid, restarts=4, seed=k + 100)
    _assert_scaled(ra_minimize(QuantileGrid(np.ldexp(grid.values, k)), restarts=4, seed=k + 100),
                   ref, k)


def test_ra_restart_tie_break_matches_reference():
    # every restart of an antithetic pair reaches spread 0, so the permutations
    # alone pick the winner
    grid = discretize([Uniform(0, 1)] * 2, 8)
    spreads = {ra_minimize(grid, restarts=1, seed=s).row_sum_spread for s in range(3)}
    assert spreads == {0.0}
    for seed in range(5):
        _assert_bit_identical(ra_minimize(grid, restarts=10, seed=seed),
                              _reference_ra_minimize(grid, 10, seed))


def _overflowing_grids():
    # rows that draw +1.5e308 twice and -1.5e308 twice would sum to
    # inf + (-inf) in numpy's pairwise sum
    m, big = 40, 1.5e308
    pos = np.r_[np.zeros(m // 2), np.full(m // 2, big)]
    neg = np.r_[np.full(m // 2, -big), np.zeros(m // 2)]
    yield np.column_stack([pos, pos, neg, neg] + [np.linspace(-1, 1, m)] * 6)
    # finite row sums whose squares in np.var overflow (past ~1.3e154)
    yield np.column_stack([np.linspace(-1e160, 1e160, 20)] * 3)


def test_ra_overflowing_row_sums_match_reference(monkeypatch):
    # the grids are rejected before any column is sorted
    calls = []
    helper = oracle._stable_argsort

    def spy(keys, hint):
        calls.append(keys.size)
        return helper(keys, hint)

    monkeypatch.setattr(oracle, "_stable_argsort", spy)
    for values in _overflowing_grids():
        with pytest.raises(ValueError, match="overflow"):
            ra_minimize(QuantileGrid(values), restarts=3, seed=4)
    assert calls == []


def test_ra_overflow_bound_edge():
    # column maxima of |x| summing to just under the bound keep every row
    # sum, the variance trajectory and the stddev finite; two-point columns
    # start the comonotone restart at the largest deviations, +-bound.  Just
    # past the bound the grid is rejected.
    m, n = 20, 3
    edge = 0.25 * math.sqrt(sys.float_info.max / m) / n
    column = np.r_[np.full(m // 2, -1.0), np.full(m // 2, 1.0)]
    with np.errstate(all="raise"):
        res = ra_minimize(QuantileGrid(np.column_stack([column * edge * (1 - 1e-12)] * n)),
                          restarts=2, seed=1)
    assert all(math.isfinite(v) for v in res.variance_trajectory)
    assert math.isfinite(res.row_sum_spread) and math.isfinite(res.row_sum_stddev)
    with pytest.raises(ValueError, match="overflow"):
        ra_minimize(QuantileGrid(np.column_stack([column * edge * (1 + 1e-12)] * n)))


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


def _reference_brute_force(grid):
    # the two loops of earlier releases: n = 2 in Python, n = 3 with the last
    # column vectorised
    m, n, v = grid.m, grid.n, grid.values
    if n == 2:
        best_spread, best_perm = math.inf, None
        for perm in itertools.permutations(range(m)):
            s = v[:, 0] + v[list(perm), 1]
            spread = float(s.max() - s.min())
            if spread < best_spread:
                best_spread, best_perm = spread, perm
        return best_spread, np.vstack([np.arange(m), np.array(best_perm)])
    all_perms = np.array(list(itertools.permutations(range(m))))
    third = v[all_perms, 2]
    best_spread, best = math.inf, None
    for perm2 in itertools.permutations(range(m)):
        sums = (v[:, 0] + v[list(perm2), 1])[None, :] + third
        spreads = sums.max(axis=1) - sums.min(axis=1)
        k = int(np.argmin(spreads))
        if spreads[k] < best_spread:
            best_spread, best = float(spreads[k]), (perm2, all_perms[k])
    return best_spread, np.vstack([np.arange(m), np.array(best[0]), best[1]])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_brute_force_matches_two_loop_reference(data):
    m, n = data.draw(st.integers(2, 5)), data.draw(st.integers(2, 3))
    # a few repeated values make ties between arrangements common
    value = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.floats(-1e3, 1e3))
    cells = data.draw(st.lists(value, min_size=m * n, max_size=m * n))
    grid = QuantileGrid(np.sort(np.reshape(cells, (m, n)), axis=0))
    spread, perms = brute_force_min_spread(grid)
    ref_spread, ref_perms = _reference_brute_force(grid)
    assert type(spread) is float and spread == ref_spread
    assert perms.dtype == ref_perms.dtype and np.array_equal(perms, ref_perms)


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
    assert 0.0 <= report.worst_ratio <= 1.0


def test_verify_independent_draws_fail():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((1000, 3))
    report = verify_constant_sum(data, 0.0, 1e-8)
    assert not report.passed
    assert report.max_abs_deviation > 1.0  # several sigma for sqrt(3) sums


def test_verify_tolerances_on_a_known_deviation():
    # an exact batch with one row moved off the center by 1e-4
    batch = sample_jm_elliptical([0, 0, 0], [1, 1, 1], NORMAL, 1000, seed=2)
    data = batch.data.copy()
    data[17, 0] += 1e-4
    loose = verify_constant_sum(data, 0.0, 0.05)
    assert loose.passed
    assert loose.max_abs_deviation == pytest.approx(1e-4, rel=1e-9)
    assert not verify_constant_sum(data, 0.0, 1e-8).passed
    assert verify_constant_sum(batch, 0.0, 1e-8).passed


def test_verify_bounds_each_row_by_its_own_entries():
    # slash q = 0.3 draws reach 1e11, so a bound from the mean |entry| allows
    # ~1.2e3 on every row; row 24931, (4.57, 1.33, 0.09), is allowed ~1e-7
    batch = sample_jm_slash([1, 2, 3], [2, 1.5, 1], NORMAL, 0.3, 10**5, seed=1)
    exact = verify_constant_sum(batch, 6.0, 1e-8)
    assert exact.passed and exact.worst_ratio < 1e-6
    data = batch.data.copy()
    data[24931, 0] += 100.0
    report = verify_constant_sum(data, 6.0, 1e-8)
    assert not report.passed
    assert report.worst_row == 24931
    bound = 1e-8 * (1.0 + 6.0 + np.abs(data[24931]).sum())
    assert report.worst_ratio == pytest.approx(abs(data[24931].sum() - 6.0) / bound)


def test_verify_worst_row_and_zero_tolerance():
    data = np.array([[1.0, -1.0], [2.0, -1.0], [0.5, 0.5], [3.0, -3.0]])
    report = verify_constant_sum(data, 0.0, 0.1)
    # bounds 0.1 * (1 + |x1| + |x2|): 0.3, 0.4, 0.2, 0.7; deviations 0, 1, 1, 0
    assert report.worst_row == 2 and report.worst_ratio == pytest.approx(5.0)
    assert not report.passed
    exact = verify_constant_sum(data[[0, 3]], 0.0, 0.0)
    assert exact.passed and exact.worst_ratio == 0.0
    nan = verify_constant_sum(np.array([[1.0, -1.0], [np.nan, 0.0]]), 0.0, 1.0)
    assert not nan.passed and nan.worst_row == 1
    for bad in (-1e-8, math.nan, math.inf):
        with pytest.raises(ValueError, match="rel_tol"):
            verify_constant_sum(data, 0.0, bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="center C must be finite"):
            verify_constant_sum(data, bad, 1e-8)


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
