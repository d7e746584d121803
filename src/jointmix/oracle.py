"""Numerical evidence independent of the constructive machinery.

Discretizes marginals to midpoint-quantile grids, runs the rearrangement
algorithm (RA) to drive row-sum spread down, brute-forces tiny instances, and
verifies claimed constant sums on sample batches.  RA output is evidence, not
proof; thresholds that separate "spread tends to 0" from "bounded away" are
regression fixtures and are labelled as such by callers.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

# the row sums of n columns, bit for bit np.column_stack(cols).sum(axis=1)
from .generators import _pairwise_sum as _row_sums

__all__ = [
    "QuantileGrid",
    "RearrangementResult",
    "ConstantSumReport",
    "discretize",
    "ra_minimize",
    "brute_force_min_spread",
    "verify_constant_sum",
]

@dataclass(frozen=True)
class QuantileGrid:
    """m x n matrix; column j holds quantile(F_j, (k - 1/2)/m), ascending."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("grid must be 2-D")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid must be finite")
        if np.any(np.diff(v, axis=0) < 0):
            raise ValueError("grid columns must be nondecreasing")
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


def discretize(families, m: int) -> QuantileGrid:
    """Midpoint-quantile grid: probabilities (k - 1/2)/m avoid the infinite
    endpoint quantiles of unbounded supports.

    Each distinct family is evaluated once: columns are keyed by ``spec()``,
    or by identity for a family without one.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if not len(families):
        raise ValueError("discretize needs at least one family")
    probs = (np.arange(m) + 0.5) / m
    by_key = {}
    keys = []
    for fam in families:
        try:
            key = json.dumps(fam.spec(), sort_keys=True)
        except NotImplementedError:
            key = id(fam)
        if key not in by_key:
            q = np.asarray(fam.quantile(probs), dtype=float)
            if not np.all(np.isfinite(q)):
                raise ValueError("infinite quantile at a midpoint probability")
            by_key[key] = q
        keys.append(key)
    return QuantileGrid(np.column_stack([by_key[k] for k in keys]))


@dataclass
class RearrangementResult:
    permutations: np.ndarray  # (n, m) index arrays into the grid columns
    row_sum_spread: float
    row_sum_stddev: float
    iterations: int
    converged: bool
    restarts: int = 1
    variance_trajectory: list = field(default_factory=list)

    def apply(self, grid: QuantileGrid) -> np.ndarray:
        """Rearranged matrix; reproduces the stored spread exactly."""
        cols = [grid.values[self.permutations[j], j] for j in range(grid.n)]
        return np.column_stack(cols)

    def to_json(self) -> str:
        return json.dumps(
            {
                "m": int(self.permutations.shape[1]),
                "n": int(self.permutations.shape[0]),
                "spread": self.row_sum_spread,
                "stddev": self.row_sum_stddev,
                "iterations": self.iterations,
                "converged": self.converged,
                "restarts": self.restarts,
            },
            sort_keys=True,
        )


def _stable_argsort(keys, hint):
    """``np.argsort(keys, kind="stable")`` at the speed of the default sort.

    ``hint`` is any permutation of the indices, best one that nearly sorts
    ``keys``.  When ``keys[hint]`` descends at fewer than m/8 places, the
    run-merging stable sort of ``keys[hint]``, composed with ``hint``, sorts
    in near-linear time; otherwise the default (quicksort) sorts ``keys``.
    Either order is right except inside runs of equal keys, where it need
    not keep index order.  Those runs are put back in index order by one
    sort of the unique integers run * m + index: the runs keep their places,
    so subtracting run * m again leaves the indices.  NaN keys sort last but
    never compare equal, so with any NaN present the stable sort itself is
    used.
    """
    m = keys.size
    guess = keys[hint]
    if 8 * np.count_nonzero(guess[1:] < guess[:-1]) < m:
        order = hint[np.argsort(guess, kind="stable")]
    else:
        order = np.argsort(keys)
    ranked = keys[order]
    if np.isnan(ranked[-1]):
        return np.argsort(keys, kind="stable")
    tie = ranked[1:] == ranked[:-1]
    if not tie.any():
        return order
    base = np.zeros(m, dtype=np.int64)
    np.cumsum(~tie, out=base[1:])
    base *= m
    composite = base + order
    composite.sort(kind="stable")  # nearly sorted: a run-merging sort
    composite -= base
    return composite


def _ra_single(grid_vals, init_perms, max_sweeps):
    """One RA run from the given initial permutations.

    Each column is re-sorted counter-monotonically against the sum of the
    others, which cannot increase the row-sum variance; the per-sweep variance
    trajectory is recorded so monotonicity is checkable from outside.  The
    arrangement is held as n contiguous columns, and each column carries its
    order: its rows sorted by the sum of the others at its last update, ties
    in row order.  The new column is the descending grid column scattered to
    that order; the old order is the sort's hint, and a sweep changes a
    column when its order changes.  The permutations into the ascending grid
    columns are built from the orders once, at the end.  The run stops at a
    sweep that changes no column or does not strictly lower the variance: a
    rule without a constant, so scale-equivariant.
    """
    m, n = grid_vals.shape
    cols = [grid_vals[p, j] for j, p in enumerate(init_perms)]
    # row p^-1(m - 1 - k) holds the k-th largest value of column j
    orders = [np.argsort(p)[::-1] for p in init_perms]
    desc = [np.sort(grid_vals[:, j])[::-1].copy() for j in range(n)]
    trajectory = [float(np.var(_row_sums(cols)))]
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        changed = False
        row_sums = _row_sums(cols)
        for j in range(n):
            others = row_sums - cols[j]
            order = _stable_argsort(others, orders[j])
            if not changed and not np.array_equal(order, orders[j]):
                changed = True
            cols[j][order] = desc[j]
            row_sums = others + cols[j]
            orders[j] = order
        var = float(np.var(row_sums))
        trajectory.append(var)
        if not changed or not var < trajectory[-2]:
            converged = True
            break
    row_sums = _row_sums(cols)
    spread = float(row_sums.max() - row_sums.min())
    std = float(np.std(row_sums))
    perms = np.empty((n, m), dtype=int)
    for perm, order in zip(perms, orders):
        perm[order] = np.arange(m - 1, -1, -1)
    return perms, spread, std, sweeps, converged, trajectory


def _precedes(spread, perms, best_spread, best_perms):
    """(spread, perms) < (best_spread, best_perms), with the permutations
    compared lexicographically: at their first differing entry."""
    if spread != best_spread:
        return spread < best_spread
    diff = np.flatnonzero(perms != best_perms)
    return diff.size > 0 and perms.flat[diff[0]] < best_perms.flat[diff[0]]


def ra_minimize(
    grid: QuantileGrid,
    max_sweeps: int = 500,
    restarts: int = 10,
    seed: int = 0,
) -> RearrangementResult:
    """Best-of-``restarts`` rearrangement minimization of the row-sum spread.

    Restart 0 starts from the sorted (comonotone) arrangement; the rest from
    independent random column shuffles.  Ties between restarts break toward
    the lexicographically smallest permutations, read row by row.  A grid
    whose column maxima of |x| sum to B > sqrt(max / m) / 4, max the largest
    double, is rejected: below that bound no row sum, no row sum less one
    column and no sum of the m squared deviations in the variance (at most
    4 m B^2, a quarter of max) overflows.
    """
    if grid.m < 2 or grid.n < 2 or restarts < 1 or max_sweeps < 1:
        raise ValueError("need m >= 2, n >= 2, restarts >= 1 and max_sweeps >= 1")
    try:
        bound = math.fsum(np.abs(grid.values).max(axis=0).tolist())
    except OverflowError:  # the exact sum passed the largest double
        bound = math.inf
    if bound > 0.25 * math.sqrt(sys.float_info.max / grid.m):
        raise ValueError("grid row sums can overflow: the column maxima of |x| sum "
                         "past sqrt(max / m) / 4, max the largest double")
    rng = np.random.default_rng(seed)
    best = None
    for r in range(restarts):
        if r == 0:
            init = [np.arange(grid.m) for _ in range(grid.n)]
        else:
            init = [rng.permutation(grid.m) for _ in range(grid.n)]
        run = _ra_single(grid.values, init, max_sweeps)
        if best is None or _precedes(run[1], run[0], best[1], best[0]):
            best = run
    perms, spread, std, sweeps, converged, traj = best
    return RearrangementResult(perms, spread, std, sweeps, converged, restarts, traj)


def brute_force_min_spread(grid: QuantileGrid):
    """Exhaustive minimum row-sum spread over column permutations.

    Column 1 stays fixed (row relabelling leaves sums unchanged), so the cost
    is (m!)^(n-1); refuses instances beyond m = 8, n = 3.
    """
    m, n = grid.m, grid.n
    if m > 8 or n > 3:
        raise ValueError("brute force limited to m <= 8, n <= 3")
    v = grid.values
    # the last column is scanned for every permutation at once, for each
    # permutation of the middle column, of which n = 2 has none
    all_perms = np.array(list(itertools.permutations(range(m))))
    last = v[all_perms, n - 1]  # (m!, m)
    best_spread = math.inf
    best = None
    for middle in itertools.product(all_perms, repeat=n - 2):
        partial = v[:, 0]
        for j, perm in enumerate(middle, start=1):
            partial = partial + v[perm, j]
        sums = partial[None, :] + last
        spreads = sums.max(axis=1) - sums.min(axis=1)
        k = int(np.argmin(spreads))
        if spreads[k] < best_spread:
            best_spread = float(spreads[k])
            best = [*middle, all_perms[k]]
    return best_spread, np.vstack([np.arange(m), *best])


@dataclass
class ConstantSumReport:
    claimed_center: float
    max_abs_deviation: float
    worst_row: int
    worst_ratio: float
    passed: bool
    rows: int

    def to_json(self) -> str:
        # strict JSON has no infinity or NaN: a non-finite field is "inf" or "nan"
        fields = {k: v if not isinstance(v, float) or math.isfinite(v) else str(v) for k, v in asdict(self).items()}
        return json.dumps(fields, sort_keys=True)


def _check_center_tol(C: float, rel_tol: float) -> None:
    """ValueError unless C is finite and rel_tol is >= 0 and finite."""
    if not math.isfinite(C):
        raise ValueError(f"the center C must be finite, not {C!r}")
    if not 0.0 <= rel_tol < math.inf:
        raise ValueError(f"rel_tol must be >= 0 and finite, not {rel_tol!r}")


def verify_constant_sum(batch, C: float, rel_tol: float) -> ConstantSumReport:
    """Check that row sums of a batch sit at the claimed center.

    Accepts a SampleBatch-like object (with ``.data``) or a plain 2-D array,
    a finite C and a finite rel_tol >= 0 (ValueError otherwise).  Row i may
    deviate from C by rel_tol * (1 + |C| + sum_j |x_ij|).  The report names
    the worst row, the one with the largest ratio of deviation to bound (a
    NaN row first of all), and passes when that ratio is <= 1.
    """
    data = np.asarray(getattr(batch, "data", batch), dtype=float)
    if data.ndim != 2 or 0 in data.shape:
        raise ValueError("batch must be a nonempty N x n matrix")
    _check_center_tol(C, rel_tol)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # inf - inf is a NaN row
        dev = np.abs(data.sum(axis=1) - C)
        bound = rel_tol * (1.0 + abs(C) + np.abs(data).sum(axis=1))
        # a row on the center is within any bound, even a zero one
        ratio = np.where(dev == 0.0, 0.0, dev / bound)
    worst = int(np.argmax(ratio))
    return ConstantSumReport(
        claimed_center=float(C),
        max_abs_deviation=float(np.max(dev)),
        worst_row=worst,
        worst_ratio=float(ratio[worst]),
        passed=bool(ratio[worst] <= 1.0),
        rows=int(data.shape[0]),
    )
