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
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QuantileGrid",
    "RearrangementResult",
    "ConstantSumReport",
    "discretize",
    "ra_minimize",
    "brute_force_min_spread",
    "verify_constant_sum",
]

_ECF_T = (-2.0, -1.0, 1.0, 2.0)


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


def _stable_argsort(keys):
    """``np.argsort(keys, kind="stable")`` at the speed of the default sort.

    The default (quicksort) order is right except inside runs of equal keys,
    where it need not keep index order.  Those runs are put back in index
    order by one sort of the unique integers run * m + index: the runs keep
    their places, so subtracting run * m again leaves the indices.  NaN keys
    sort last but never compare equal, so with any NaN present the stable
    sort itself is used.
    """
    order = np.argsort(keys)
    ranked = keys[order]
    if np.isnan(ranked[-1]):
        return np.argsort(keys, kind="stable")
    tie = ranked[1:] == ranked[:-1]
    if not tie.any():
        return order
    m = keys.size
    base = np.zeros(m, dtype=np.int64)
    np.cumsum(~tie, out=base[1:])
    base *= m
    composite = base + order
    composite.sort()
    composite -= base
    return composite


def _ra_single(grid_vals, init_perms, max_sweeps, tol):
    """One RA run from the given initial permutations.

    Each column is re-sorted counter-monotonically against the sum of the
    others, which cannot increase the row-sum variance; the per-sweep variance
    trajectory is recorded so monotonicity is checkable from outside.
    """
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
            order = _stable_argsort(others)
            new_col = np.empty(m)
            new_col[order] = sorted_cols[j]
            new_perm = np.empty(m, dtype=int)
            new_perm[order] = desc_idx
            if not changed and not np.array_equal(new_perm, perms[j]):
                changed = True
            row_sums = others + new_col
            x[:, j] = new_col
            perms[j] = new_perm
        var = float(np.var(row_sums))
        trajectory.append(var)
        if not changed:
            converged = True
            break
        if trajectory[-2] - var < tol:
            converged = True
            break
    row_sums = x.sum(axis=1)
    spread = float(row_sums.max() - row_sums.min())
    std = float(np.std(row_sums))
    return np.array(perms), spread, std, sweeps, converged, trajectory


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
    tol: float = 1e-12,
    restarts: int = 10,
    seed: int = 0,
) -> RearrangementResult:
    """Best-of-``restarts`` rearrangement minimization of the row-sum spread.

    Restart 0 starts from the sorted (comonotone) arrangement; the rest from
    independent random column shuffles.  Ties between restarts break toward
    the lexicographically smallest permutations, read row by row.
    """
    if grid.m < 2 or grid.n < 2:
        raise ValueError("need m >= 2 and n >= 2")
    rng = np.random.default_rng(seed)
    best = None
    for r in range(max(restarts, 1)):
        if r == 0:
            init = [np.arange(grid.m) for _ in range(grid.n)]
        else:
            init = [rng.permutation(grid.m) for _ in range(grid.n)]
        perms, spread, std, sweeps, converged, traj = _ra_single(
            grid.values, init, max_sweeps, tol
        )
        if best is None or _precedes(spread, perms, best[1], best[0]):
            best = (perms, spread, std, sweeps, converged, traj)
    perms, spread, std, sweeps, converged, traj = best
    return RearrangementResult(
        permutations=perms,
        row_sum_spread=spread,
        row_sum_stddev=std,
        iterations=sweeps,
        converged=converged,
        restarts=max(restarts, 1),
        variance_trajectory=traj,
    )


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
    tolerance: float
    passed: bool
    ecf_deviation: float
    rows: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "claimed_center": self.claimed_center,
                "max_abs_deviation": self.max_abs_deviation,
                "tolerance": self.tolerance,
                "passed": self.passed,
                "ecf_deviation": self.ecf_deviation,
                "rows": self.rows,
            },
            sort_keys=True,
        )


def verify_constant_sum(batch, C: float, rel_tol: float) -> ConstantSumReport:
    """Check that row sums of a batch sit at the claimed center.

    Accepts a SampleBatch-like object (with ``.data``) or a plain 2-D array.
    The pass tolerance is rel_tol * (1 + |C| + mean absolute entry); the
    empirical characteristic function of the sums is compared against
    exp(i t C) on a small t grid as a moment-free cross-check.
    """
    data = np.asarray(getattr(batch, "data", batch), dtype=float)
    if data.ndim != 2 or 0 in data.shape:
        raise ValueError("batch must be a nonempty N x n matrix")
    sums = data.sum(axis=1)
    scale = float(np.mean(np.abs(data)))
    tol = rel_tol * (1.0 + abs(C) + scale)
    max_dev = float(np.max(np.abs(sums - C)))
    ecf_dev = max(
        float(np.abs(np.mean(np.exp(1j * t * sums)) - np.exp(1j * t * C))) for t in _ECF_T
    )
    return ConstantSumReport(
        claimed_center=float(C),
        max_abs_deviation=max_dev,
        tolerance=tol,
        passed=max_dev <= tol,
        ecf_deviation=ecf_dev,
        rows=int(data.shape[0]),
    )
