"""Univariate marginal families: density, CDF, quantile, sampler, flags.

Each family carries structural flags (symmetric, unimodal, support) that the
verdict machinery relies on, so the flags are covered by honesty tests rather
than trusted.  Closed forms are used wherever the CDF has one; otherwise a
write-once tabulated CDF backs vectorized evaluation and inverse-CDF sampling.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .generators import CharacteristicGenerator, GeneratorError, mixing_law, special

__all__ = [
    "UnivariateFamily",
    "Uniform",
    "Elliptical",
    "LocationScaleSymmetric",
    "BimodalPower",
    "BimodalMoment",
    "MixtureFamily",
    "GeneralizedLogistic",
    "KotzType",
    "SkewNormal",
    "SSMN",
    "SlashElliptical",
    "FamilyError",
    "family_from_spec",
]

_QUANTILE_RTOL = 4.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class FamilyError(ValueError):
    pass


def _as_array(x):
    return np.asarray(x, dtype=float)


def _norm_pdf(z):
    return np.exp(-z**2 / 2.0) / _SQRT_2PI


def _cauchy_ppf(p):
    """Standard Cauchy quantile -cot(pi p), from the nearer tail so that
    both tails keep relative precision; tan(pi (p - 1/2)) near the median."""
    d = p - 0.5
    tail = np.where(p < 0.5, -1.0 / np.tan(np.pi * p), 1.0 / np.tan(np.pi * (1.0 - p)))
    return np.where(np.abs(d) <= 0.25, np.tan(np.pi * d), tail)


def _scalar_like(x, out):
    out = np.asarray(out)
    if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0):
        return float(out.reshape(-1)[0]) if out.size == 1 else float(out)
    return out


class UnivariateFamily:
    """Base interface; subclasses fill in the numerics."""

    symmetric: bool = False
    unimodal: bool = False
    center: float = 0.0
    support: tuple[float, float] = (-np.inf, np.inf)

    def density(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, p):
        p_arr = _as_array(p)
        if np.any(p_arr <= 0) or np.any(p_arr >= 1):
            raise FamilyError("quantile requires p in (0,1)")
        return _scalar_like(p, self._quantile_impl(np.atleast_1d(p_arr)))

    def _quantile_impl(self, p: np.ndarray) -> np.ndarray:
        return _solve_quantile(self.cdf, self.density, p, self.support)

    def sample(self, count: int, seed: int) -> np.ndarray:
        if count <= 0:
            raise FamilyError("count must be positive")
        return self.sample_with(np.random.default_rng(seed), count)

    def sample_with(self, rng: np.random.Generator, count: int) -> np.ndarray:
        # default: inverse-CDF sampling
        return self._quantile_impl(rng.uniform(size=count))

    def spec(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.spec()})"


def _solve_quantile(cdf, density, p, support):
    """x with cdf(x) = p for each entry of the 1-D array ``p``.

    Newton steps on ``density``, safeguarded by brackets from one ladder of
    points that doubles its width toward each infinite end of ``support``.
    A point starts at the bracket end of larger density, from which Newton is
    monotone in both tails of a unimodal law, and bisects when a step leaves
    its bracket or fails to halve the step two iterations back; only running
    points are evaluated.  A point stops when its step is at most
    4 eps |x| + tiny, when |cdf(x) - p| <= 4 ulp(p), or when no double is
    left inside its bracket.  The result is nondecreasing in p.  Raises
    ``FamilyError`` when the ladder cannot bracket p or the iteration fails.
    """
    lo_s, hi_s = support
    lo = lo_s if np.isfinite(lo_s) else min(hi_s, 0.0) - 1.0
    hi = hi_s if np.isfinite(hi_s) else max(lo, 0.0) + 1.0
    xs = np.array([lo, 0.5 * (lo + hi), hi])
    fs = np.asarray(cdf(xs), dtype=float)
    while True:
        width = float(xs[-1] - xs[0])
        new_lo = [float(xs[0]) - width] * bool(np.isinf(lo_s) and fs[0] > p.min())
        new_hi = [float(xs[-1]) + width] * bool(np.isinf(hi_s) and fs[-1] < p.max())
        new = new_lo + new_hi
        if not new or not np.all(np.isfinite(new)):
            break
        f_new = np.asarray(cdf(np.array(new)), dtype=float)
        xs = np.concatenate([new_lo, xs, new_hi])
        fs = np.concatenate([f_new[: len(new_lo)], fs, f_new[len(new_lo):]])
    if not (np.all(np.isfinite(fs)) and fs[0] <= p.min() and fs[-1] >= p.max()):
        raise FamilyError("quantile: the CDF does not bracket the probabilities")
    # the first ladder point whose running-maximum CDF reaches p has F >= p,
    # and the one before it F < p, also where rounding noise breaks the
    # monotony of the computed CDF
    j = np.clip(np.searchsorted(np.maximum.accumulate(fs), p), 1, xs.size - 1)
    ds = np.asarray(density(xs), dtype=float)
    lo, hi = xs[j - 1], xs[j]
    start = np.where(ds[j - 1] > ds[j], j - 1, j)
    x, f, d = xs[start], fs[start] - p, ds[start]
    out, idx, order = np.empty_like(p), np.arange(p.size), np.argsort(p, kind="stable")
    taken = taken_before = np.full(p.size, np.inf)  # the last two steps
    for _ in range(100):
        lo, hi = np.where(f < 0, x, lo), np.where(f < 0, hi, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = np.where(np.isfinite(d) & (d > 0), -f / d, np.nan)
        nxt, mid = x + step, 0.5 * (lo + hi)
        stop_here = (np.abs(f) <= 4.0 * np.spacing(p)) | (mid == lo) | (mid == hi)
        done = stop_here | (np.abs(step) <= _QUANTILE_RTOL * np.abs(x) + _TINY)
        out[idx[done]] = np.where(stop_here, x, np.clip(nxt, lo, hi))[done]
        keep = ~done
        if not keep.any():
            # CDF noise of a few ulp can swap the roots of p a few ulp apart
            out[order] = np.maximum.accumulate(out[order])
            return out
        # a Newton step must land inside the bracket and be at most half the
        # step two iterations back, which breaks Newton's two-cycles
        newton = (nxt > lo) & (nxt < hi) & (np.abs(step) <= 0.5 * np.abs(taken_before))
        nxt = np.where(newton, nxt, mid)
        taken, taken_before = (nxt - x)[keep], taken[keep]
        x, lo, hi, p, idx = nxt[keep], lo[keep], hi[keep], p[keep], idx[keep]
        f = np.asarray(cdf(x), dtype=float) - p
        d = np.asarray(density(x), dtype=float)
        if not np.all(np.isfinite(f)):
            raise FamilyError("quantile: the CDF is not finite inside the bracket")
    raise FamilyError(f"quantile: {idx.size} points did not converge in 100 steps")


# ---------------------------------------------------------------------------
# Uniform
# ---------------------------------------------------------------------------

class Uniform(UnivariateFamily):
    symmetric = True
    unimodal = True

    def __init__(self, lo: float, hi: float):
        if not hi > lo:
            raise FamilyError("uniform needs hi > lo")
        self.lo = float(lo)
        self.hi = float(hi)
        self.center = 0.5 * (lo + hi)
        self.support = (self.lo, self.hi)

    def density(self, x):
        x_arr = _as_array(x)
        out = np.where((x_arr >= self.lo) & (x_arr <= self.hi), 1.0 / (self.hi - self.lo), 0.0)
        return _scalar_like(x, out)

    def cdf(self, x):
        x_arr = _as_array(x)
        out = np.clip((x_arr - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return _scalar_like(x, out)

    def _quantile_impl(self, p):
        return self.lo + p * (self.hi - self.lo)

    def sample_with(self, rng, count):
        return rng.uniform(self.lo, self.hi, size=count)

    def spec(self):
        return {"family": "uniform", "lo": self.lo, "hi": self.hi}


# ---------------------------------------------------------------------------
# One-dimensional elliptical laws  E_1(mu, sigma^2, psi)
# ---------------------------------------------------------------------------

class _SymmetricLocationScale(UnivariateFamily):
    """mu + sigma * Z for a unimodal law Z symmetric about 0, given by
    ``std_density`` and ``std_cdf``."""

    symmetric = True
    unimodal = True

    def density(self, x):
        z = (_as_array(x) - self.mu) / self.sigma
        return _scalar_like(x, self.std_density(z) / self.sigma)

    def cdf(self, x):
        z = (_as_array(x) - self.mu) / self.sigma
        return _scalar_like(x, self.std_cdf(z))

    def _quantile_impl(self, p):
        # only the lower half is solved: 1 - p is exact for p > 1/2, and the
        # lower tail of a CDF keeps the relative precision 1 - F loses near 1
        z = _solve_quantile(self.std_cdf, self.std_density, np.minimum(p, 1.0 - p), self.support)
        return self.mu + self.sigma * np.where(p > 0.5, -z, z)


class Elliptical(_SymmetricLocationScale):
    """Location-scale symmetric law with a supported characteristic generator.

    X = mu + sigma * sqrt(W) * Z.  Densities of normal variance mixtures are
    unimodal and symmetric, so both flags are set.
    """

    def __init__(self, mu: float, sigma: float, generator: CharacteristicGenerator):
        if sigma <= 0:
            raise FamilyError("sigma must be positive")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.generator = generator
        self.center = self.mu

    # standardised (mu=0, sigma=1) density / cdf / quantile
    def std_density(self, z):
        g = self.generator
        z = _as_array(z)
        if g.kind == "normal" or (g.kind == "student_t" and g.nu == math.inf):
            return _norm_pdf(z)
        if g.kind == "student_t":
            nu = g.nu
            log_c = special.gammaln(0.5 * (nu + 1.0)) - special.gammaln(0.5 * nu)
            log_c -= 0.5 * math.log(nu * math.pi)
            return np.exp(log_c - 0.5 * (nu + 1.0) * np.log1p(z * z / nu))
        if g.kind == "cauchy":
            return 1.0 / np.pi / (1.0 + z * z)
        if g.kind == "pearson_vii":
            N, m = g.shape, g.scale
            log_c = special.gammaln(N) - special.gammaln(N - 0.5) - 0.5 * math.log(m * math.pi)
            return np.exp(log_c - N * np.log1p(z * z / m))
        if g.kind == "discrete_mixture":
            out = np.zeros_like(z, dtype=float)
            for w, s in g.atoms:
                out += w * _norm_pdf(z / s) / s
            return out
        raise GeneratorError(g.kind)

    def std_cdf(self, z):
        g = self.generator
        z = _as_array(z)
        if g.kind == "normal":
            return special.ndtr(z)
        if g.kind == "student_t":
            return special.stdtr(g.nu, z)
        if g.kind == "cauchy":
            return np.arctan2(1.0, -z) / np.pi
        if g.kind == "pearson_vii":
            # Pearson VII(N, m) is Student t with nu = 2N - 1, scaled by sqrt(m / nu)
            nu = 2.0 * g.shape - 1.0
            return special.stdtr(nu, z * math.sqrt(nu / g.scale))
        if g.kind == "discrete_mixture":
            out = np.zeros_like(z, dtype=float)
            for w, s in g.atoms:
                out += w * special.ndtr(z / s)
            return out
        raise GeneratorError(g.kind)

    def _quantile_impl(self, p):
        g = self.generator
        if g.kind == "normal":
            z = special.ndtri(p)
        elif g.kind == "student_t":
            z = special.stdtrit(g.nu, p)
        elif g.kind == "cauchy":
            z = _cauchy_ppf(p)
        elif g.kind == "pearson_vii":
            nu = 2.0 * g.shape - 1.0
            z = special.stdtrit(nu, p) * math.sqrt(g.scale / nu)
        else:
            return super()._quantile_impl(p)
        return self.mu + self.sigma * z

    def sample_with(self, rng, count):
        w = mixing_law(self.generator).sample_with(rng, count)
        return self.mu + self.sigma * np.sqrt(w) * rng.standard_normal(count)

    def spec(self):
        return {
            "family": "elliptical",
            "mu": self.mu,
            "sigma": self.sigma,
            "generator": self.generator.spec(),
        }


# ---------------------------------------------------------------------------
# Location-scale wrapper around an arbitrary symmetric base
# ---------------------------------------------------------------------------

class LocationScaleSymmetric(UnivariateFamily):
    """``mu + theta * (Y - c)`` for a symmetric base ``Y`` with center ``c``."""

    def __init__(self, base: UnivariateFamily, mu: float, theta: float):
        if theta <= 0:
            raise FamilyError("theta must be positive")
        if not base.symmetric:
            raise FamilyError("base must be symmetric")
        self.base = base
        self.mu = float(mu)
        self.theta = float(theta)
        self.symmetric = True
        self.unimodal = base.unimodal
        self.center = self.mu
        lo, hi = base.support
        c = base.center
        self.support = (self.mu + self.theta * (lo - c), self.mu + self.theta * (hi - c))

    def _to_base(self, x):
        return self.base.center + (_as_array(x) - self.mu) / self.theta

    def density(self, x):
        return _scalar_like(x, self.base.density(self._to_base(x)) / self.theta)

    def cdf(self, x):
        return _scalar_like(x, self.base.cdf(self._to_base(x)))

    def _quantile_impl(self, p):
        q = np.asarray(self.base.quantile(p))
        return self.mu + self.theta * (q - self.base.center)

    def sample_with(self, rng, count):
        y = self.base.sample_with(rng, count)
        return self.mu + self.theta * (y - self.base.center)

    def spec(self):
        return {
            "family": "location_scale",
            "mu": self.mu,
            "theta": self.theta,
            "base": self.base.spec(),
        }


# ---------------------------------------------------------------------------
# Bimodal counterexample densities on [-a, a]
# ---------------------------------------------------------------------------

class BimodalPower(UnivariateFamily):
    """Density proportional to x^(2r) on [-a, a]: symmetric, bimodal, with
    closed-form CDF and quantile."""

    symmetric = True
    unimodal = False

    def __init__(self, a: float, r: int):
        if a <= 0:
            raise FamilyError("a must be positive")
        if int(r) != r or r < 1:
            raise FamilyError("r must be a positive integer")
        self.a = float(a)
        self.r = int(r)
        self.center = 0.0
        self.support = (-self.a, self.a)

    def density(self, x):
        a, r = self.a, self.r
        x_arr = _as_array(x)
        c = (2 * r + 1) / (2.0 * a ** (2 * r + 1))
        out = np.where(np.abs(x_arr) <= a, c * x_arr ** (2 * r), 0.0)
        return _scalar_like(x, out)

    def cdf(self, x):
        a, r = self.a, self.r
        x_arr = np.clip(_as_array(x), -a, a)
        out = (x_arr ** (2 * r + 1) + a ** (2 * r + 1)) / (2.0 * a ** (2 * r + 1))
        return _scalar_like(x, out)

    def _quantile_impl(self, p):
        a, r = self.a, self.r
        y = 2.0 * p - 1.0
        return a * np.sign(y) * np.abs(y) ** (1.0 / (2 * r + 1))

    def spec(self):
        return {"family": "bimodal_power", "a": self.a, "r": self.r}


class BimodalMoment(UnivariateFamily):
    """Density C_m x^(2m) / sqrt(1 - x^2) on (-1, 1).

    m = 0 is the arcsine-type law of cos(theta) with theta uniform; m >= 1
    gives increasingly concentrated bimodal mass near +-1.  CDF and quantile
    go through the regularized incomplete beta function.
    """

    symmetric = True
    unimodal = False

    def __init__(self, m: int):
        if int(m) != m or m < 0:
            raise FamilyError("m must be a nonnegative integer")
        self.m = int(m)
        self.center = 0.0
        self.support = (-1.0, 1.0)
        # 1 / Beta(m + 1/2, 1/2)
        self.norm_const = 1.0 / special.beta(self.m + 0.5, 0.5)

    def density(self, x):
        x_arr = _as_array(x)
        inside = np.abs(x_arr) < 1.0
        xs = np.where(inside, x_arr, 0.0)
        out = np.where(
            inside,
            self.norm_const * xs ** (2 * self.m) / np.sqrt(1.0 - xs * xs),
            0.0,
        )
        return _scalar_like(x, out)

    def cdf(self, x):
        x_arr = np.clip(_as_array(x), -1.0, 1.0)
        half = 0.5 * special.betainc(self.m + 0.5, 0.5, x_arr * x_arr)
        out = 0.5 + np.sign(x_arr) * half
        return _scalar_like(x, out)

    def _quantile_impl(self, p):
        y = 2.0 * p - 1.0
        t = special.betaincinv(self.m + 0.5, 0.5, np.abs(y))
        return np.sign(y) * np.sqrt(t)

    def spec(self):
        return {"family": "bimodal_moment", "m": self.m}


# ---------------------------------------------------------------------------
# Finite mixtures (used for truncated bimodal-moment series and for
# hand-built symmetric counterexample densities)
# ---------------------------------------------------------------------------

class MixtureFamily(UnivariateFamily):
    def __init__(self, components, weights, symmetric=None, unimodal=False, center=None):
        if len(components) != len(weights) or not components:
            raise FamilyError("components/weights mismatch")
        w = np.asarray(weights, dtype=float)
        if np.any(w <= 0):
            raise FamilyError("weights must be positive")
        self.components = list(components)
        self.weights = w / w.sum()  # renormalize user-supplied weights
        self.unimodal = bool(unimodal)
        los = [c.support[0] for c in components]
        his = [c.support[1] for c in components]
        self.support = (min(los), max(his))
        if center is None:
            center = float(np.dot(self.weights, [c.center for c in components]))
        self.center = center
        if symmetric is None:
            symmetric = self._looks_symmetric()
        self.symmetric = bool(symmetric)

    def _looks_symmetric(self) -> bool:
        lo, hi = self.support
        if not (np.isfinite(lo) and np.isfinite(hi)):
            lo, hi = self.center - 10.0, self.center + 10.0
        grid = np.linspace(0, max(hi - self.center, self.center - lo), 101)
        left = self.density(self.center - grid)
        right = self.density(self.center + grid)
        return bool(np.max(np.abs(left - right)) <= 1e-9 * (1 + np.max(right)))

    def density(self, x):
        x_arr = _as_array(x)
        out = np.zeros_like(np.atleast_1d(x_arr), dtype=float)
        for w, c in zip(self.weights, self.components):
            out += w * np.atleast_1d(c.density(x_arr))
        return _scalar_like(x, out.reshape(np.shape(x_arr)))

    def cdf(self, x):
        x_arr = _as_array(x)
        out = np.zeros_like(np.atleast_1d(x_arr), dtype=float)
        for w, c in zip(self.weights, self.components):
            out += w * np.atleast_1d(c.cdf(x_arr))
        return _scalar_like(x, out.reshape(np.shape(x_arr)))

    def sample_with(self, rng, count):
        idx = rng.choice(len(self.components), p=self.weights, size=count)
        out = np.empty(count)
        for k, comp in enumerate(self.components):
            mask = idx == k
            n_k = int(mask.sum())
            if n_k:
                out[mask] = comp.sample_with(rng, n_k)
        return out

    def spec(self):
        return {
            "family": "mixture",
            "weights": self.weights.tolist(),
            "components": [c.spec() for c in self.components],
        }


# ---------------------------------------------------------------------------
# Generalized logistic
# ---------------------------------------------------------------------------

class GeneralizedLogistic(UnivariateFamily):
    """Density proportional to exp(-alpha*t) / (1 + exp(-t))^(2*alpha) with
    t = sign(x) |x|^beta.

    The signed power keeps the density symmetric for every beta and recovers
    the standard logistic at alpha = beta = 1.  beta = 1 has a closed
    incomplete-beta CDF; other beta go through a tabulated CDF.
    """

    symmetric = True
    unimodal = True

    def __init__(self, alpha: float, beta: float):
        if alpha <= 0 or beta <= 0:
            raise FamilyError("alpha, beta must be positive")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.center = 0.0

    def _t(self, x):
        return np.sign(x) * np.abs(x) ** self.beta

    def _kernel(self, x):
        t = self._t(_as_array(x))
        # exp(-a*t) / (1+exp(-t))^(2a), computed in log space
        return np.exp(-self.alpha * t - 2.0 * self.alpha * np.logaddexp(0.0, -t))

    @cached_property
    def _norm_const(self) -> float:
        if self.beta == 1.0:
            return 1.0 / special.beta(self.alpha, self.alpha)
        from scipy import integrate

        half, _ = integrate.quad(
            lambda x: float(self._kernel(x)), 0.0, self._cut, epsabs=1e-12, limit=500
        )
        return 1.0 / (2.0 * half)

    @cached_property
    def _cut(self) -> float:
        # beyond this the kernel is below ~1e-18 of its peak
        return (60.0 / self.alpha) ** (1.0 / self.beta) + 5.0

    @cached_property
    def _table(self):
        # cumulative integral of the kernel on [0, cut]; reflected for x < 0
        from scipy import integrate, interpolate

        xs = np.linspace(0.0, self._cut, 4097)
        ys = self._kernel(xs)
        cum = integrate.cumulative_simpson(ys, x=xs, initial=0.0)
        cum *= self._norm_const
        cdf_vals = np.clip(0.5 + cum, 0.5, 1.0)
        cdf_vals[-1] = 1.0
        fwd = interpolate.PchipInterpolator(xs, cdf_vals)
        keep = np.concatenate(([True], np.diff(cdf_vals) > 0))
        inv = interpolate.PchipInterpolator(cdf_vals[keep], xs[keep])
        return fwd, inv

    def density(self, x):
        return _scalar_like(x, self._norm_const * self._kernel(x))

    def cdf(self, x):
        x_arr = _as_array(x)
        if self.beta == 1.0:
            out = special.betainc(self.alpha, self.alpha, special.expit(x_arr))
        else:
            fwd, _ = self._table
            pos = fwd(np.clip(np.abs(x_arr), 0.0, self._cut))
            out = np.where(x_arr >= 0, pos, 1.0 - pos)
        return _scalar_like(x, out)

    def _quantile_impl(self, p):
        if self.beta == 1.0:
            u = special.betaincinv(self.alpha, self.alpha, p)
            return special.logit(u)
        _, inv = self._table
        hi = np.maximum(p, 1.0 - p)
        mag = inv(np.clip(hi, 0.5, 1.0))
        return np.where(p >= 0.5, mag, -mag)

    def sample_with(self, rng, count):
        if self.beta == 1.0:
            u = rng.beta(self.alpha, self.alpha, size=count)
            return special.logit(u)
        return self._quantile_impl(rng.uniform(size=count))

    def spec(self):
        return {"family": "generalized_logistic", "alpha": self.alpha, "beta": self.beta}


# ---------------------------------------------------------------------------
# Kotz type
# ---------------------------------------------------------------------------

class KotzType(UnivariateFamily):
    """Density generator r^(N-1) exp(-m r^beta) applied to r = ((x-mu)/sigma)^2.

    With N > 1 the density vanishes at the center, so the family is symmetric
    and bimodal.  |Z|^(2 beta) is Gamma distributed, which gives closed forms
    for everything.
    """

    symmetric = True
    unimodal = False

    def __init__(self, N: float, m: float, beta: float, mu: float = 0.0, sigma: float = 1.0):
        if N <= 1:
            raise FamilyError("N must exceed 1")
        if m <= 0 or beta <= 0 or sigma <= 0:
            raise FamilyError("m, beta, sigma must be positive")
        self.N = float(N)
        self.m = float(m)
        self.beta = float(beta)
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.center = self.mu
        self._s = (2.0 * self.N - 1.0) / (2.0 * self.beta)  # gamma shape
        self._c = self.beta * self.m ** self._s / math.gamma(self._s)

    def density(self, x):
        z = (_as_array(x) - self.mu) / self.sigma
        r = z * z
        out = self._c * r ** (self.N - 1.0) * np.exp(-self.m * r ** self.beta) / self.sigma
        return _scalar_like(x, out)

    def cdf(self, x):
        z = (_as_array(x) - self.mu) / self.sigma
        half = 0.5 * special.gammainc(self._s, self.m * np.abs(z) ** (2.0 * self.beta))
        return _scalar_like(x, 0.5 + np.sign(z) * half)

    def _quantile_impl(self, p):
        y = 2.0 * p - 1.0
        g = special.gammaincinv(self._s, np.abs(y))
        mag = (g / self.m) ** (1.0 / (2.0 * self.beta))
        return self.mu + self.sigma * np.sign(y) * mag

    def sample_with(self, rng, count):
        g = rng.gamma(self._s, 1.0 / self.m, size=count)
        sign = rng.choice([-1.0, 1.0], size=count)
        return self.mu + self.sigma * sign * g ** (1.0 / (2.0 * self.beta))

    def spec(self):
        return {
            "family": "kotz",
            "N": self.N,
            "m": self.m,
            "beta": self.beta,
            "mu": self.mu,
            "sigma": self.sigma,
        }


# ---------------------------------------------------------------------------
# Skew-normal and its scale mixtures
# ---------------------------------------------------------------------------

def _sn_std_cdf(z, lam):
    """CDF of SN(0,1,lam): Phi(z) - 2 T(z, lam) with Owen's T function."""
    z = np.asarray(z, dtype=float)
    return np.clip(special.ndtr(z) - 2.0 * special.owens_t(z, lam), 0.0, 1.0)


class SkewNormal(UnivariateFamily):
    """SN(mu, sigma^2, lambda): density 2/sigma phi(z) Phi(lambda z).

    Sampling uses the half-normal stochastic representation
    X = delta |U| + sqrt(1 - delta^2) V with delta = lambda / sqrt(1+lambda^2).
    """

    unimodal = True

    def __init__(self, mu: float, sigma: float, lam: float):
        if sigma <= 0:
            raise FamilyError("sigma must be positive")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.lam = float(lam)
        self.symmetric = self.lam == 0.0
        self.center = self.mu

    def mean(self) -> float:
        delta = self.lam / math.sqrt(1.0 + self.lam * self.lam)
        return self.mu + self.sigma * delta * math.sqrt(2.0 / math.pi)

    def density(self, x):
        z = (_as_array(x) - self.mu) / self.sigma
        out = 2.0 / self.sigma * _norm_pdf(z) * special.ndtr(self.lam * z)
        return _scalar_like(x, out)

    def cdf(self, x):
        z = (_as_array(x) - self.mu) / self.sigma
        return _scalar_like(x, _sn_std_cdf(z, self.lam))

    def sample_with(self, rng, count):
        delta = self.lam / math.sqrt(1.0 + self.lam * self.lam)
        u = np.abs(rng.standard_normal(count))
        v = rng.standard_normal(count)
        z = delta * u + math.sqrt(1.0 - delta * delta) * v
        return self.mu + self.sigma * z

    def spec(self):
        return {"family": "skew_normal", "mu": self.mu, "sigma": self.sigma, "lam": self.lam}


class SSMN(UnivariateFamily):
    """Skew scale mixture of normal with a finite discrete mixing law H.

    Conditionally on V = v the law is SN(mu, sigma^2 v^2, lambda v), which is
    exactly how sampling proceeds.
    """

    unimodal = True

    def __init__(self, mu: float, sigma: float, lam: float, atoms):
        # atoms: iterable of (value v > 0, probability)
        if sigma <= 0:
            raise FamilyError("sigma must be positive")
        atoms = [(float(v), float(p)) for v, p in atoms]
        if not atoms or any(v <= 0 or p <= 0 for v, p in atoms):
            raise FamilyError("H atoms need positive values and probabilities")
        total = sum(p for _, p in atoms)
        if abs(total - 1.0) > 1e-9:
            raise FamilyError("H probabilities must sum to 1")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.lam = float(lam)
        self.atoms = atoms
        self.symmetric = self.lam == 0.0
        self.center = self.mu

    def _conditional(self, v: float) -> SkewNormal:
        return SkewNormal(self.mu, self.sigma * v, self.lam * v)

    def density(self, x):
        x_arr = _as_array(x)
        out = np.zeros_like(np.atleast_1d(x_arr), dtype=float)
        for v, p in self.atoms:
            out += p * np.atleast_1d(self._conditional(v).density(x_arr))
        return _scalar_like(x, out.reshape(np.shape(x_arr)))

    def cdf(self, x):
        x_arr = _as_array(x)
        out = np.zeros_like(np.atleast_1d(x_arr), dtype=float)
        for v, p in self.atoms:
            out += p * np.atleast_1d(self._conditional(v).cdf(x_arr))
        return _scalar_like(x, out.reshape(np.shape(x_arr)))

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

    def spec(self):
        return {
            "family": "ssmn",
            "mu": self.mu,
            "sigma": self.sigma,
            "lam": self.lam,
            "atoms": [[v, p] for v, p in self.atoms],
        }


# ---------------------------------------------------------------------------
# Slash-elliptical
# ---------------------------------------------------------------------------

_SLASH_NODES, _SLASH_WEIGHTS = np.polynomial.legendre.leggauss(200)
# shifted to (0, 1)
_SLASH_U = 0.5 * (_SLASH_NODES + 1.0)
_SLASH_W = 0.5 * _SLASH_WEIGHTS


class SlashElliptical(_SymmetricLocationScale):
    """X = Z / U^(1/q) + mu with Z elliptical E_1(0, sigma^2, psi) and U
    uniform on (0,1).

    With the normal generator, F(-|z|) = Phi(-|z|) + |z| H(|z|) and the
    standardized density is q H(|z|), where, with a = (q+1)/2,
    H(r) = 2^((q-1)/2) Gamma(a) P(a, r^2/2) / (sqrt(2 pi) r^(q+1))
         = 1F1(a; a+1; -r^2/2) / (2 a sqrt(2 pi))   (Kummer's form),
    which stays finite at r = 0 and for large q, where P underflows and
    r^-(q+1) overflows.  Other generators integrate over the shared uniform;
    the substitution is chosen by q so the integrand stays smooth at 0.
    """

    def __init__(self, mu: float, sigma: float, generator: CharacteristicGenerator, q: float):
        if q <= 0:
            raise FamilyError("q must be positive")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.q = float(q)
        self.generator = generator
        self.center = self.mu
        self._base = Elliptical(0.0, sigma, generator)

    def _u_pow(self):
        """Nodes/weights for integrating h(u^(1/q)) du over (0,1) smoothly."""
        q = self.q
        if q >= 1.0:
            # substitute t = u^(1/q): weight q t^(q-1), smooth for q >= 1
            t = _SLASH_U
            w = _SLASH_W * q * t ** (q - 1.0)
            return t, w
        # keep u; u^(1/q) is smooth when 1/q > 1
        return _SLASH_U ** (1.0 / q), _SLASH_W

    def _normal_h(self, r):
        a = 0.5 * (self.q + 1.0)
        return special.hyp1f1(a, a + 1.0, -0.5 * r * r) / (2.0 * a * _SQRT_2PI)

    def std_density(self, z):
        if self.generator.kind == "normal":
            return self.q * self._normal_h(np.abs(z))
        t, w = self._u_pow()
        return np.sum(w * (self._base.std_density(np.multiply.outer(z, t)) * t), axis=-1)

    def std_cdf(self, z):
        if self.generator.kind == "normal":
            r = np.abs(z)
            lower = special.ndtr(-r) + r * self._normal_h(r)
            return np.where(z > 0, 1.0 - lower, lower)
        t, w = self._u_pow()
        return np.sum(w * self._base.std_cdf(np.multiply.outer(z, t)), axis=-1)

    def sample_with(self, rng, count):
        z = self._base.sample_with(rng, count)
        u = rng.uniform(size=count)
        return z / u ** (1.0 / self.q) + self.mu

    def spec(self):
        return {
            "family": "slash_elliptical",
            "mu": self.mu,
            "sigma": self.sigma,
            "q": self.q,
            "generator": self.generator.spec(),
        }


# ---------------------------------------------------------------------------
# JSON factory
# ---------------------------------------------------------------------------

def family_from_spec(d: dict) -> UnivariateFamily:
    kind = d.get("family")
    if kind == "uniform":
        return Uniform(d["lo"], d["hi"])
    if kind == "elliptical":
        return Elliptical(d["mu"], d["sigma"], CharacteristicGenerator.from_spec(d["generator"]))
    if kind == "location_scale":
        return LocationScaleSymmetric(family_from_spec(d["base"]), d["mu"], d["theta"])
    if kind == "bimodal_power":
        return BimodalPower(d["a"], d["r"])
    if kind == "bimodal_moment":
        return BimodalMoment(d["m"])
    if kind == "mixture":
        comps = [family_from_spec(c) for c in d["components"]]
        return MixtureFamily(comps, d["weights"])
    if kind == "generalized_logistic":
        return GeneralizedLogistic(d["alpha"], d["beta"])
    if kind == "kotz":
        return KotzType(d["N"], d["m"], d["beta"], d.get("mu", 0.0), d.get("sigma", 1.0))
    if kind == "skew_normal":
        return SkewNormal(d["mu"], d["sigma"], d["lam"])
    if kind == "ssmn":
        return SSMN(d["mu"], d["sigma"], d["lam"], d["atoms"])
    if kind == "slash_elliptical":
        return SlashElliptical(
            d["mu"], d["sigma"], CharacteristicGenerator.from_spec(d["generator"]), d["q"]
        )
    raise FamilyError(f"unknown family {kind!r}")
