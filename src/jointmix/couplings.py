"""Constant-sum couplings with prescribed marginals.

The elliptical construction closes a planar polygon with side lengths
sigma_i: unit vectors v_i with sum sigma_i v_i = 0 exist exactly when the
scale inequality holds, and the rank-2 scatter matrix sigma_i sigma_j
<v_i, v_j> has zero total mass, so row sums of joint draws collapse to the
sum of the locations with no moment assumptions.  Shared scalars (a mixing
draw W, a slash uniform U, a scale-mixture theta) are drawn once per joint
sample and applied to every component.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .families import UnivariateFamily
from .generators import CharacteristicGenerator, discrete_law, mixing_law
from .mixability import _joint_center, _unimodal_symmetric, _whole_n, check_scale_inequality

__all__ = [
    "PolygonInequalityError",
    "EquicorrelationPlan",
    "SampleBatch",
    "MatrixSampleBatch",
    "polygon_unit_vectors",
    "sample_jm_elliptical",
    "sample_jm_slash",
    "sample_cm_scale_mixture",
    "sample_matrix_variate_cm",
    "psd_factor",
]

_FLOAT_FMT = "%.17g"
_CSV_EOL = "\r\n"  # csv.writer's line terminator
_CSV_BLOCK_ROWS = 4096  # rows formatted by one % operation


class PolygonInequalityError(ValueError):
    """No closed polygon exists: sum sigma_i < 2 max sigma_i."""


# ---------------------------------------------------------------------------
# Polygon construction
# ---------------------------------------------------------------------------

def _triangle_vectors(s1, s2, s3):
    # vertices (0,0), (s1,0), (x,y); edge vectors normalised.  Sides scaled
    # by the power of two at their maximum (exact) cannot overflow squared
    scale = math.ldexp(1.0, -math.frexp(max(s1, s2, s3))[1])
    s1, s2, s3 = s1 * scale, s2 * scale, s3 * scale
    x = (s1 * s1 + s3 * s3 - s2 * s2) / (2.0 * s1)
    y = math.sqrt(max(s3 * s3 - x * x, 0.0))
    p2 = np.array([x, y])
    v1 = np.array([1.0, 0.0])
    v2 = (p2 - np.array([s1, 0.0])) / s2
    v3 = -p2 / s3
    return np.vstack([v1, v2, v3])


def polygon_unit_vectors(sigmas) -> np.ndarray:
    """n planar unit vectors with sum sigma_i v_i = 0.

    n = 2 is antithetic, n = 3 closes a triangle by the law of cosines, and
    n >= 4 merges the two smallest sides (which preserves the polygon
    inequality) until a triangle remains, then assigns the merged direction
    to both original sides.  The inequality is tested once, exactly, on the
    input; the merged sides are rounded sums and are not re-tested.
    Deterministic for a fixed input order.
    """
    sig = np.asarray([float(s) for s in sigmas])
    if sig.size < 2:
        raise PolygonInequalityError("need at least two sides")
    if not check_scale_inequality(sig):  # ValueError unless positive and finite
        raise PolygonInequalityError(
            f"polygon inequality fails: sum={sig.sum()} < 2*max={2 * sig.max()}"
        )
    return _polygon(sig)


def _polygon(sig: np.ndarray) -> np.ndarray:
    n = sig.size
    if n == 2:
        return np.array([[1.0, 0.0], [-1.0, 0.0]])
    if n == 3:
        return _triangle_vectors(sig[0], sig[1], sig[2])
    order = np.argsort(sig, kind="stable")
    i, j = sorted((int(order[0]), int(order[1])))
    reduced = np.delete(sig, j)  # side i < j stands for both
    reduced[i] = sig[i] + sig[j]
    sub = _polygon(reduced)
    return np.insert(sub, j, sub[i], axis=0)


def psd_factor(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Factor L with L L^T = M via eigendecomposition.

    Eigenvalues below -1e-10 * trace are rejected; smaller negatives are
    numerical noise and are clipped to zero.
    """
    M = np.asarray(M, dtype=float)
    vals, vecs = np.linalg.eigh((M + M.T) / 2.0)
    floor = -1e-10 * max(np.trace(M), 1e-300)
    if np.any(vals < floor):
        raise ValueError(f"{name} is not positive semidefinite")
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


# ---------------------------------------------------------------------------
# Equicorrelation plan (matrix-variate route)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquicorrelationPlan:
    """Phi = (1 - rho) I + rho e e^T with rho = -1/(n-1): unit diagonal,
    zero row sums, eigenvalues {0, n/(n-1)}."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _whole_n(self.n))

    @property
    def rho(self) -> float:
        return -1.0 / (self.n - 1)

    @property
    def phi(self) -> np.ndarray:
        n = self.n
        return (1.0 - self.rho) * np.eye(n) + self.rho * np.ones((n, n))

    def factor(self) -> np.ndarray:
        return psd_factor(self.phi, "equicorrelation Phi")


# ---------------------------------------------------------------------------
# Sample batches
# ---------------------------------------------------------------------------

@dataclass
class SampleBatch:
    """N x n joint draws plus the metadata needed to replay and verify them."""

    data: np.ndarray
    seed: int
    joint_center: float
    kind: str
    metadata: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def write_csv(self, path, include_sum: bool = False) -> None:
        """Write the draws as CSV: header ``X1..Xn``, one ``%.17g`` cell per
        value, lines ended by ``\\r\\n``.  ``include_sum`` appends an ``S``
        column holding each row's sum, as ``row.sum()`` computes it."""
        data = np.ascontiguousarray(self.data)
        header = [f"X{i + 1}" for i in range(self.n)]
        if include_sum:
            header.append("S")
            data = np.column_stack([data, data.sum(axis=1)])
        _write_csv(path, header, data, [_FLOAT_FMT] * data.shape[1])

    def sidecar(self) -> dict:
        return {
            "seed": self.seed,
            "joint_center": self.joint_center,
            "coupling": self.kind,
            "columns": self.n,
            "rows": int(self.data.shape[0]),
            **self.metadata,
        }

    def write_sidecar(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.sidecar(), fh, sort_keys=True, indent=2)
            fh.write("\n")


@dataclass
class MatrixSampleBatch:
    """Draws of n p-vectors: array of shape (N, p, n)."""

    data: np.ndarray
    seed: int
    kind: str
    metadata: dict = field(default_factory=dict)

    def write_csv(self, path, include_sum: bool = False) -> None:
        """Write one draw per line: its index in a ``draw`` column, then the
        entries column by column (``X<j>_<i>`` is entry i of vector j).  The
        vector sums are all zero, so there is no sum column to include."""
        if include_sum:
            raise ValueError("a matrix batch has no sum column")
        count, p, n = self.data.shape
        header = ["draw"] + [f"X{j + 1}_{i + 1}" for j in range(n) for i in range(p)]
        flat = self.data.transpose(0, 2, 1).reshape(count, n * p)
        table = np.column_stack([np.arange(count, dtype=float), flat])
        _write_csv(path, header, table, ["%d"] + [_FLOAT_FMT] * (n * p))

    def sidecar(self) -> dict:
        count, p, _ = self.data.shape
        return {"seed": self.seed, "joint_center": [0.0] * p, "coupling": self.kind,
                "rows": count, **self.metadata}

    write_sidecar = SampleBatch.write_sidecar


def _write_csv(path, header, table, cell_fmts) -> None:
    """Write ``header`` and the rows of the 2-D array ``table`` as CSV, cells
    formatted by ``cell_fmts``, one format per column.

    The bytes are those ``csv.writer`` gives for the formatted strings, which
    never need quoting; each block of rows is formatted by one ``%``.
    """
    rowfmt = ",".join(cell_fmts) + _CSV_EOL
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + _CSV_EOL)
        for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS]
            fh.write((rowfmt * len(block)) % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def _check_count(count) -> None:
    """Refuse a draw count below 1 (or NaN) before anything is drawn."""
    if not count >= 1:
        raise ValueError(f"count must be at least 1, not {count!r}")


def _polygon_draws(mus, sigmas, g: CharacteristicGenerator, count: int, seed: int, q=None):
    """mu + sqrt(W) L z, divided by U^(1/q) when q is given, with L row i =
    sigma_i v_i; W, then z, then U are drawn from one generator seeded by
    ``seed``.  Returns the draws and the metadata shared by both couplings."""
    _check_count(count)
    mus = [float(m) for m in mus]
    sig = np.asarray([float(s) for s in sigmas])
    center = _joint_center(mus, sig.size)
    mus = np.asarray(mus)
    L = sig[:, None] * polygon_unit_vectors(sig)  # (n, 2)
    rng = np.random.default_rng(seed)
    w = mixing_law(g).sample_with(rng, count)
    z = rng.standard_normal((count, 2))
    centered = np.sqrt(w)[:, None] * (z @ L.T)
    if q is not None:
        centered = centered / (rng.uniform(size=count) ** (1.0 / q))[:, None]
    meta = {"generator": g.spec(), "sigmas": sig.tolist(), "mus": mus.tolist()}
    return mus[None, :] + centered, center, meta


def sample_jm_elliptical(mus, sigmas, g: CharacteristicGenerator, count: int, seed: int) -> SampleBatch:
    """Joint elliptical draws with row sums identically sum(mu).

    X = mu + sqrt(W) L z with L row i = sigma_i v_i and one shared mixing
    draw W per joint sample; each marginal is E_1(mu_i, sigma_i^2, psi).
    """
    data, center, meta = _polygon_draws(mus, sigmas, g, count, seed)
    return SampleBatch(data=data, seed=seed, joint_center=center, kind="elliptical", metadata=meta)


def sample_jm_slash(mus, sigmas, g: CharacteristicGenerator, q: float, count: int, seed: int) -> SampleBatch:
    """Slash-elliptical coupling: one shared U per joint draw divides a
    centered constant-sum elliptical vector, so sums stay at sum(mu)."""
    if not 0 < q < math.inf:  # NaN fails too
        raise ValueError("q must be positive and finite")
    data, center, meta = _polygon_draws(mus, sigmas, g, count, seed, float(q))
    meta["q"] = float(q)
    return SampleBatch(data=data, seed=seed, joint_center=center, kind="slash", metadata=meta)


def sample_cm_scale_mixture(base: UnivariateFamily, atoms, n: int, count: int, seed: int) -> SampleBatch:
    """Scale mixture of a unimodal-symmetric base: one shared theta ~ H per
    joint draw scales a constant-sum n-tuple about the center c.

    The tuple pairs each base draw y - c with its reflection c - y and, for
    odd n, closes one triple T (2U - 1, 2W - 1, 2 - 2U - 2W), W = frac(U + 1/2):
    each coordinate is uniform on (-1, 1) and the three sum to 0, so by
    Khintchine's X - c = T V, with T from ``base.khintchine_scale``, each is
    a base draw.  A base that is not unimodal and symmetric raises
    HypothesisViolation, and at odd n one without a closed-form T raises
    NotImplementedError; H's (value, probability) atoms are a finite law as
    ``discrete_law`` decides.
    """
    n = _whole_n(n)
    _check_count(count)
    _unimodal_symmetric(base)
    atoms = [(float(v), float(p)) for v, p in atoms]
    law = discrete_law((p, v) for v, p in atoms)
    rng = np.random.default_rng(seed)
    theta = law.sample_with(rng, count)
    center = base.center
    meta = {"base": base.spec(), "n": n, "H": [[v, p] for v, p in atoms], "exact": True}
    pairs = [base.sample_with(rng, count) - center for _ in range(n // 2 - n % 2)]
    cols = [s * y for y in pairs for s in (1.0, -1.0)]
    if n % 2:
        t = base.khintchine_scale(rng, count)
        u = rng.uniform(size=count)
        w = (u + 0.5) % 1.0
        cols += [t * (2.0 * u - 1.0), t * (2.0 * w - 1.0), t * (2.0 - 2.0 * u - 2.0 * w)]
    data = center + theta[:, None] * np.column_stack(cols)
    return SampleBatch(data=data, seed=seed, joint_center=float(n * center),
                       kind="scale_mixture", metadata=meta)


def sample_matrix_variate_cm(
    p: int,
    sigma_p: np.ndarray,
    g: CharacteristicGenerator,
    n: int,
    count: int,
    seed: int,
) -> MatrixSampleBatch:
    """n identically distributed E_p(0, Sigma_p, psi) columns summing to the
    zero vector: X = sqrt(W) A G B^T with A A^T = Sigma_p and B B^T the
    equicorrelation matrix, whose zero row sums force X e = 0."""
    if p < 1:
        raise ValueError("p must be at least 1")
    _check_count(count)
    plan = EquicorrelationPlan(n)
    A = psd_factor(np.asarray(sigma_p, dtype=float), "Sigma_p")
    if A.shape != (p, p):
        raise ValueError("Sigma_p must be p x p")
    B = plan.factor()  # (n, n)
    rng = np.random.default_rng(seed)
    w = mixing_law(g).sample_with(rng, count)
    gmat = rng.standard_normal((count, p, plan.n))
    data = np.sqrt(w)[:, None, None] * np.einsum("ij,kjl,ml->kim", A, gmat, B)
    return MatrixSampleBatch(
        data=data,
        seed=seed,
        kind="matrix",
        metadata={"p": p, "n": plan.n, "generator": g.spec()},
    )
