"""Univariate marginal families: density, CDF, quantile, sampler, flags.

Each family carries structural flags (symmetric, unimodal, support) that the
verdict machinery relies on, so the flags are covered by honesty tests rather
than trusted.  Closed forms are used wherever the CDF has one, and fixed
quadrature rules (the generalized logistic law with beta != 1) where it has
not; nothing is tabulated.  Elliptical and slash-elliptical laws dispatch on
the law of their mixing scale W (degenerate, discrete or inverse gamma), never
on the generator's kind.  Quantiles without a closed form come from one
safeguarded Newton solver.
"""

from __future__ import annotations

import math
from functools import cached_property, partialmethod

import numpy as np

from .generators import CharacteristicGenerator, _over_sum, discrete_law, mixing_law, special

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

_EPS = np.finfo(float).eps
_QUANTILE_RTOL = 4.0 * _EPS
# |F(x) - p| at a converged point above this, far beyond the CDF's rounding,
# means that the doubles near x are too coarse for the law
_QUANTILE_MISS = 2.0**-26
_TINY = np.finfo(float).tiny
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_2 = math.log(2.0)


class FamilyError(ValueError):
    pass


def _as_array(x):
    return np.asarray(x, dtype=float)


def _norm_pdf(z):
    with np.errstate(over="ignore"):  # z^2 = inf past |z| ~ 1.3e154, where exp gives 0
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


def _finite(x, positive: str = "") -> float:
    """``x`` as a float; FamilyError unless finite (NaN fails the test) and,
    where ``positive`` names the parameter, > 0."""
    x = float(x)
    if not -math.inf < x < math.inf:
        raise FamilyError("family parameters must be finite")
    if positive and not x > 0:
        raise FamilyError(f"{positive} must be positive")
    return x


# spec name -> the family class that declares it
_FAMILIES: dict[str, type] = {}


class UnivariateFamily:
    """Base interface; subclasses fill in the numerics.

    ``density`` and ``cdf`` take scalars or arrays and return the same; the
    array-only ``_density`` and ``_cdf`` behind them are what subclasses
    write.

    A concrete family declares its spec name, ``class Uniform(
    UnivariateFamily, spec="uniform")``.  Its spec fields are then its
    constructor's parameters, which it keeps as attributes of the same names:
    ``spec()`` and ``family_from_spec`` both read that one declaration.
    """

    symmetric: bool = False
    unimodal: bool = False
    center: float = 0.0
    support: tuple[float, float] = (-np.inf, np.inf)
    _spec_name: str | None = None

    def __init_subclass__(cls, spec: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if spec is not None:
            code = cls.__init__.__code__
            fields = code.co_varnames[1:code.co_argcount]
            cls._spec_name, cls._spec_fields = spec, fields
            cls._spec_required = fields[: len(fields) - len(cls.__init__.__defaults__ or ())]
            _FAMILIES[spec] = cls

    def density(self, x):
        return _scalar_like(x, self._density(_as_array(x)))

    def cdf(self, x):
        return _scalar_like(x, self._cdf(_as_array(x)))

    def _density(self, x: np.ndarray):
        raise NotImplementedError

    def _cdf(self, x: np.ndarray):
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

    def khintchine_scale(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` draws of T >= 0 with X - c = T V, V ~ U(-1, 1) independent
        of T, for a unimodal law symmetric about c (Khintchine).  A family draws
        T in closed form from its own structure; one without a closed form is refused."""
        raise NotImplementedError(f"{type(self).__name__} has no closed-form Khintchine scale")

    def spec(self) -> dict:
        if self._spec_name is None:
            raise NotImplementedError(f"{type(self).__name__} declares no spec")
        fields = {f: _spec_value(getattr(self, f)) for f in self._spec_fields}
        return {"family": self._spec_name, **fields}

    def __repr__(self):
        return f"{type(self).__name__}({self.spec()})"


def _spec_value(v):
    # a nested family or generator as its spec, a list or tuple as a list
    if isinstance(v, (UnivariateFamily, CharacteristicGenerator)):
        return v.spec()
    return [_spec_value(x) for x in v] if isinstance(v, (list, tuple)) else v


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
    ``FamilyError`` when the ladder cannot bracket p, the iteration fails, or
    a point stops with |cdf(x) - p| above 2^-26 (step times density, after a
    stop on the step): the law is narrower than the doubles near x resolve.
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
        bad = done & (np.abs(f) > _QUANTILE_MISS)
        if bad.any():
            raise FamilyError(f"quantile: the doubles near {x[bad][0]:.17g} are too "
                              f"coarse for the law; F misses p by {np.abs(f[bad]).max():.3g}")
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

class Uniform(UnivariateFamily, spec="uniform"):
    symmetric = True
    unimodal = True

    def __init__(self, lo: float, hi: float):
        self.lo = _finite(lo)
        self.hi = _finite(hi)
        width = self.hi - self.lo
        if not (0 < width < math.inf and 1.0 / width < math.inf):
            raise FamilyError("uniform needs a finite width hi - lo > 0 with a finite reciprocal")
        self.center = 0.5 * self.lo + 0.5 * self.hi  # lo + hi may overflow
        self.support = (self.lo, self.hi)

    def _density(self, x):
        return np.where((x >= self.lo) & (x <= self.hi), 1.0 / (self.hi - self.lo), 0.0)

    def _cdf(self, x):
        # clipped first, x - lo is at most the finite width
        return (np.clip(x, self.lo, self.hi) - self.lo) / (self.hi - self.lo)

    def _quantile_impl(self, p):
        return self.lo + p * (self.hi - self.lo)

    def khintchine_scale(self, rng, count):
        return np.full(count, 0.5 * self.hi - 0.5 * self.lo)  # (hi - lo)/2, which may overflow


# ---------------------------------------------------------------------------
# One-dimensional elliptical laws  E_1(mu, sigma^2, psi)
# ---------------------------------------------------------------------------

class _SymmetricLocationScale(UnivariateFamily):
    """mu + sigma * Z for a law Z symmetric about 0, given by ``std_density``
    and ``std_cdf``; unimodal unless a subclass says otherwise."""

    symmetric = True
    unimodal = True
    mu, sigma = 0.0, 1.0

    # z = (x - mu) / sigma, and the standard law's own scalings of z, may
    # overflow to +-inf far out, where the standard density is 0 and the CDF 0 or 1
    def _density(self, x):
        with np.errstate(over="ignore"):
            return self.std_density((x - self.mu) / self.sigma) / self.sigma

    def _cdf(self, x):
        with np.errstate(over="ignore"):
            return self.std_cdf((x - self.mu) / self.sigma)

    def _quantile_impl(self, p):
        # only the lower half is solved: 1 - p is exact for p > 1/2, and the
        # lower tail of a CDF keeps the relative precision 1 - F loses near 1
        z = _solve_quantile(self.std_cdf, self.std_density, np.minimum(p, 1.0 - p), self.support)
        return self.mu + self.sigma * np.where(p > 0.5, -z, z)


class Elliptical(_SymmetricLocationScale, spec="elliptical"):
    """Location-scale symmetric law with a supported characteristic generator.

    X = mu + sigma * sqrt(W) * Z.  Densities of normal variance mixtures are
    unimodal and symmetric, so both flags are set.  The numerics depend only
    on the mixing law ``law`` of W: a scaled Student t when W is inverse gamma,
    and a normal scale mixture over the atoms of a degenerate or discrete W.
    """

    def __init__(self, mu: float, sigma: float, generator: CharacteristicGenerator):
        self.mu = _finite(mu)
        self.sigma = _finite(sigma, "sigma")
        self.generator = generator
        self.center = self.mu
        self.law = mixing_law(generator)
        # (probability, normal scale sqrt(w)) per atom of a degenerate or discrete W
        self._scales = [(p, math.sqrt(w)) for p, w in self.law.atoms]

    def _is_cauchy(self) -> bool:
        return self.law.a == self.law.b == 0.5

    # standardised (mu=0, sigma=1) density / cdf / quantile.  InvGamma(a, b)
    # mixes to Student t with nu = 2a, scaled by sqrt(b/a); at a = b = 1/2
    # (Cauchy) the arctangent forms are exact where stdtr(1, .) is not.
    def std_density(self, z):
        law = self.law
        if law.kind != "inverse_gamma":
            return sum(p * _norm_pdf(z / s) / s for p, s in self._scales)
        # z * z = inf past |z| ~ 1.3e154, where both forms give 0
        with np.errstate(over="ignore"):
            if self._is_cauchy():
                return 1.0 / np.pi / (1.0 + z * z)
            a, b = law.a, law.b
            log_c = special.gammaln(a + 0.5) - special.gammaln(a)
            log_c -= 0.5 * math.log(2.0 * math.pi * b)
            return np.exp(log_c - (a + 0.5) * np.log1p(z * z / (2.0 * b)))

    def std_cdf(self, z):
        law = self.law
        if law.kind != "inverse_gamma":
            return sum(p * special.ndtr(z / s) for p, s in self._scales)
        if self._is_cauchy():
            return np.arctan2(1.0, -z) / np.pi
        return special.stdtr(2.0 * law.a, z * math.sqrt(law.a / law.b))

    def _quantile_impl(self, p):
        law = self.law
        if law.kind == "discrete":
            return super()._quantile_impl(p)
        if law.kind == "degenerate":
            z = special.ndtri(p)
        elif self._is_cauchy():
            z = _cauchy_ppf(p)
        else:
            z = special.stdtrit(2.0 * law.a, p) * math.sqrt(law.b / law.a)
            # stdtrit inverts to ~3e-14; one Newton step on the CDF takes
            # the miss down to the CDF's rounding
            d = self.std_density(z)
            z = z - np.divide(self.std_cdf(z) - p, d, out=np.zeros_like(z), where=d > 0)
        return self.mu + self.sigma * z

    def sample_with(self, rng, count):
        w = self.law.sample_with(rng, count)
        return self.mu + self.sigma * np.sqrt(w) * rng.standard_normal(count)

    def khintchine_scale(self, rng, count):
        # a standard normal is chi_3 V (Maxwell), so sigma sqrt(W) Z is sigma sqrt(W) chi_3 V
        w = self.law.sample_with(rng, count)
        return self.sigma * np.sqrt(w) * np.sqrt(rng.chisquare(3.0, size=count))


# ---------------------------------------------------------------------------
# Location-scale wrapper around an arbitrary symmetric base
# ---------------------------------------------------------------------------

class LocationScaleSymmetric(_SymmetricLocationScale, spec="location_scale"):
    """``mu + theta * (Y - c)`` for a symmetric base ``Y`` with center ``c``."""

    def __init__(self, base: UnivariateFamily, mu: float, theta: float):
        if not base.symmetric:
            raise FamilyError("base must be symmetric")
        self.base = base
        self.mu = _finite(mu)
        self.sigma = self.theta = _finite(theta, "theta")
        self.unimodal = base.unimodal
        self.center = self.mu
        lo, hi = base.support
        c = base.center
        self.support = (self.mu + self.theta * (lo - c), self.mu + self.theta * (hi - c))

    def std_density(self, z):
        return self.base.density(self.base.center + z)

    def std_cdf(self, z):
        return self.base.cdf(self.base.center + z)

    def _quantile_impl(self, p):
        q = np.asarray(self.base.quantile(p))
        return self.mu + self.theta * (q - self.base.center)

    def sample_with(self, rng, count):
        y = self.base.sample_with(rng, count)
        return self.mu + self.theta * (y - self.base.center)

    def khintchine_scale(self, rng, count):
        return self.theta * self.base.khintchine_scale(rng, count)


# ---------------------------------------------------------------------------
# Bimodal counterexample densities on [-a, a]
# ---------------------------------------------------------------------------

class BimodalPower(UnivariateFamily, spec="bimodal_power"):
    """Density proportional to x^(2r) on [-a, a]: symmetric, bimodal, with
    closed-form CDF and quantile."""

    symmetric = True
    unimodal = False

    def __init__(self, a: float, r: int):
        self.a = _finite(a, "a")
        if int(_finite(r)) != r or r < 1:
            raise FamilyError("r must be a positive integer")
        self.r = int(r)
        self.center = 0.0
        self.support = (-self.a, self.a)

    # both on t = |x| / a: a power of a overflows or underflows for large r
    def _density(self, x):
        a, r = self.a, self.r
        t = np.minimum(np.abs(x), a) / a  # no power of |x| > a, which may overflow
        return np.where(np.abs(x) <= a, (2 * r + 1) / (2.0 * a) * t ** (2 * r), 0.0)

    def _cdf(self, x):
        # F(-|x|) = (1 - t^k) / 2, k = 2r + 1, from the exact a - |x|: no
        # cancellation near -a, where F is small
        a, k = self.a, 2 * self.r + 1
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf at x = 0
            lower = -0.5 * np.expm1(k * np.log1p(-(a - np.minimum(np.abs(x), a)) / a))
        return np.where(x > 0, 1.0 - lower, lower)

    def _quantile_impl(self, p):
        a, r = self.a, self.r
        y = 2.0 * p - 1.0
        return a * np.sign(y) * np.abs(y) ** (1.0 / (2 * r + 1))


class BimodalMoment(UnivariateFamily, spec="bimodal_moment"):
    """Density C_m x^(2m) / sqrt(1 - x^2) on (-1, 1).

    m = 0 is the arcsine-type law of cos(theta) with theta uniform; m >= 1
    gives increasingly concentrated bimodal mass near +-1.  CDF and quantile
    go through the regularized incomplete beta function.
    """

    symmetric = True
    unimodal = False

    def __init__(self, m: int):
        if int(_finite(m)) != m or m < 0:
            raise FamilyError("m must be a nonnegative integer")
        self.m = int(m)
        self.center = 0.0
        self.support = (-1.0, 1.0)
        # 1 / Beta(m + 1/2, 1/2)
        self.norm_const = 1.0 / special.beta(self.m + 0.5, 0.5)

    def _density(self, x):
        inside = np.abs(x) < 1.0
        xs = np.where(inside, x, 0.0)
        return np.where(inside, self.norm_const * xs ** (2 * self.m) / np.sqrt(1.0 - xs * xs), 0.0)

    def _cdf(self, x):
        x = np.clip(x, -1.0, 1.0)
        return 0.5 + np.sign(x) * (0.5 * special.betainc(self.m + 0.5, 0.5, x * x))

    def _quantile_impl(self, p):
        y = 2.0 * p - 1.0
        t = special.betaincinv(self.m + 0.5, 0.5, np.abs(y))
        return np.sign(y) * np.sqrt(t)


# ---------------------------------------------------------------------------
# Finite mixtures (used for truncated bimodal-moment series and for
# hand-built symmetric counterexample densities)
# ---------------------------------------------------------------------------

class MixtureFamily(UnivariateFamily, spec="mixture"):
    """Finite mixture whose flags follow from its components: the center is
    their common center, or else the weighted sum of their centers rounded
    once; symmetric when every component is symmetric about it, unimodal when
    every one is also unimodal.  ``symmetric=True`` states a symmetry that
    holds only across components, such as a mirror-image pair."""

    def __init__(self, components, weights, symmetric: bool = False):
        if len(components) != len(weights) or not components:
            raise FamilyError("components/weights mismatch")
        if not isinstance(symmetric, bool):
            raise FamilyError(f"symmetric must be true or false, not {symmetric!r}")
        self.weights = [float(w) for w in weights]  # as given, so a rebuilt spec is bit-identical
        if not all(0 < w < math.inf for w in self.weights):
            raise FamilyError("weights must be positive and finite")
        self.components = list(components)
        self.probs = np.array(_over_sum(self.weights))
        los = [c.support[0] for c in components]
        his = [c.support[1] for c in components]
        self.support = (min(los), max(his))
        centers = [c.center for c in components]
        self.center = centers[0] if len(set(centers)) == 1 else math.fsum(self.probs * centers)
        parts_symmetric = all(c.symmetric and c.center == self.center for c in components)
        self.unimodal = parts_symmetric and all(c.unimodal for c in components)
        self.symmetric = parts_symmetric or symmetric

    def _density(self, x):
        return sum(w * c.density(x) for w, c in zip(self.probs, self.components))

    def _cdf(self, x):
        return sum(w * c.cdf(x) for w, c in zip(self.probs, self.components))

    def _per_component(self, rng, count, draw: str):
        # count draws, each from the method ``draw`` of a component drawn by weight
        idx = rng.choice(len(self.components), p=self.probs, size=count)
        out = np.empty(count)
        for k, comp in enumerate(self.components):
            mask = idx == k
            n_k = int(mask.sum())
            if n_k:
                out[mask] = getattr(comp, draw)(rng, n_k)
        return out

    sample_with = partialmethod(_per_component, draw="sample_with")
    # every component of a unimodal mixture is unimodal and symmetric about c
    khintchine_scale = partialmethod(_per_component, draw="khintchine_scale")


# ---------------------------------------------------------------------------
# Generalized logistic
# ---------------------------------------------------------------------------

_GL_HEAD_END = 0.25  # t = |x|^beta up to which F(-x) = 1/2 - head(t)
_GL_LAGUERRE_FROM = 8.0  # alpha t from which the tail rule is Gauss-Laguerre


class GeneralizedLogistic(_SymmetricLocationScale, spec="generalized_logistic"):
    """Density proportional to exp(-alpha*t) / (1 + exp(-t))^(2*alpha) with
    t = sign(x) |x|^beta, that is to the kernel g(t) = cosh(t/2)^(-2 alpha),
    which is 1 at t = 0 and so leaves the normaliser near 1 for every alpha.

    The signed power keeps the density symmetric for every beta and recovers
    the standard logistic at alpha = beta = 1.  beta = 1 has a closed
    incomplete-beta CDF; other beta integrate t^(1/beta - 1) g(t), g the
    kernel above, with fixed rules of positive terms, so the lower tail keeps
    its relative precision: Gauss-Jacobi on [0, t] near the center, and
    beyond, Gauss-Legendre in log t up to alpha t = 8 and Gauss-Laguerre on.
    """

    def __init__(self, alpha: float, beta: float):
        self.alpha = _finite(alpha, "alpha")
        self.beta = _finite(beta, "beta")
        self.center = 0.0

    def _log_g(self, t):
        return -2.0 * self.alpha * (np.logaddexp(0.5 * t, -0.5 * t) - _LOG_2)

    def _kernel(self, x):
        # g(t) <= 4^alpha e^(-alpha |t|), 0 in doubles beyond |t| = 800/alpha + 2:
        # there |t| is clipped, as |x|^beta may overflow
        with np.errstate(over="ignore"):
            t = np.minimum(np.abs(x) ** self.beta, 800.0 / self.alpha + 2.0)
        return np.exp(self._log_g(t))

    @cached_property
    def _rules(self):
        # for int_0^1 u^(1/beta - 1) h(u) du, int_0^1 h and int_0^inf e^-s h
        y, w = special.roots_jacobi(24, 0.0, 1.0 / self.beta - 1.0)
        v, wv = np.polynomial.legendre.leggauss(40)
        s, ws = np.polynomial.laguerre.laggauss(32)
        return (0.5 * (y + 1.0), w * 0.5 ** (1.0 / self.beta)), (0.5 * (v + 1.0), 0.5 * wv), (s, ws)

    def _head(self, t):
        """int_0^t u^(1/beta - 1) g(u) du."""
        (u, w), _, _ = self._rules
        return t ** (1.0 / self.beta) * (np.exp(self._log_g(np.multiply.outer(t, u))) @ w)

    def _tail(self, t):
        """int_t^inf u^(1/beta - 1) g(u) du for finite t >= _GL_HEAD_END."""
        _, (v, wv), (s, ws) = self._rules
        a, k = self.alpha, 1.0 / self.beta
        t_far = np.maximum(t, _GL_LAGUERRE_FROM / a)
        # [t, t_far] with u = t e^y: the power u^k = t^k e^(k y) is smooth in y
        span = np.log(t_far / t)
        y = np.multiply.outer(span, v)
        log_u = np.log(t)[:, None] + y
        # [t_far, inf) with u = t_far + s / alpha: the weight e^-s is taken out
        u = t_far[:, None] + s / a
        # alpha u overflows past u ~ 1e308 / alpha, where log g is -inf
        with np.errstate(over="ignore"):
            near = span * (np.exp(k * log_u + self._log_g(np.exp(log_u))) @ wv)
            far = np.exp((k - 1.0) * np.log(u) + self._log_g(u) + s) @ ws
        return near + far / a

    @cached_property
    def _norm_const(self) -> float:
        if self.beta == 1.0:
            return math.exp(-2.0 * self.alpha * _LOG_2 - special.betaln(self.alpha, self.alpha))
        total = self._head(np.array([_GL_HEAD_END])) + self._tail(np.array([_GL_HEAD_END]))
        return self.beta / (2.0 * float(total[0]))

    def std_density(self, z):
        return self._norm_const * self._kernel(z)

    def std_cdf(self, z):
        if self.beta == 1.0:
            return special.betainc(self.alpha, self.alpha, special.expit(z))
        with np.errstate(over="ignore"):  # t = inf: the lower tail is 0
            t = np.abs(z) ** self.beta
        scale = self._norm_const / self.beta
        head = t <= _GL_HEAD_END
        tail = ~head & (t < np.inf)
        lower = np.where(t == np.inf, 0.0, np.nan)
        lower[head] = 0.5 - scale * self._head(t[head])
        lower[tail] = scale * self._tail(t[tail])
        return np.where(z > 0, 1.0 - lower, lower)

    def _quantile_impl(self, p):
        if self.beta == 1.0:
            return special.logit(special.betaincinv(self.alpha, self.alpha, p))
        return super()._quantile_impl(p)

    def sample_with(self, rng, count):
        if self.beta == 1.0:
            u = rng.beta(self.alpha, self.alpha, size=count)
            return special.logit(u)
        return super().sample_with(rng, count)

    def khintchine_scale(self, rng, count):
        # f(T) = U f(x) where log cosh(T^beta / 2) = L = -log(U g(|x|^beta)) / (2 alpha),
        # in logs so that nothing overflows: acosh(e^L) = L + log1p(sqrt(1 - e^(-2L)))
        t = np.abs(self.sample_with(rng, count)) ** self.beta
        L = -(self._log_g(t) + np.log(rng.uniform(size=count))) / (2.0 * self.alpha)
        return (2.0 * (L + np.log1p(np.sqrt(-np.expm1(-2.0 * L))))) ** (1.0 / self.beta)


# ---------------------------------------------------------------------------
# Kotz type
# ---------------------------------------------------------------------------

class KotzType(_SymmetricLocationScale, spec="kotz"):
    """Density generator r^(N-1) exp(-m r^beta) applied to r = ((x-mu)/sigma)^2.

    With N > 1 the density vanishes at the center, so the family is symmetric
    and bimodal.  |Z|^(2 beta) is Gamma distributed, which gives closed forms
    for everything.
    """

    unimodal = False

    def __init__(self, N: float, m: float, beta: float, mu: float = 0.0, sigma: float = 1.0):
        if N <= 1:
            raise FamilyError("N must exceed 1")
        self.N = _finite(N)
        self.m = _finite(m, "m")
        self.beta = _finite(beta, "beta")
        self.mu = _finite(mu)
        self.sigma = _finite(sigma, "sigma")
        self.center = self.mu
        self._s = (2.0 * self.N - 1.0) / (2.0 * self.beta)  # gamma shape
        # log(beta m^s / Gamma(s)): m^s and Gamma(s) overflow for large m or N
        try:  # lgamma raises OverflowError past s ~ 2.56e305
            self._log_c = math.log(self.beta) + self._s * math.log(self.m) - math.lgamma(self._s)
        except OverflowError:
            self._log_c = math.nan
        if not -math.inf < self._log_c < math.inf:
            raise FamilyError(f"the gamma shape (2N - 1)/(2 beta) = {self._s:.3g} is "
                              "too large for its normalising constant")

    def std_density(self, z):
        # in log space, log r = 2 log|z|: no factor overflows against one that
        # vanishes; log 0 = -inf, and inf - inf at |z| = inf, where f is 0
        az = np.abs(z)
        with np.errstate(all="ignore"):
            log_f = (self._log_c + 2.0 * (self.N - 1.0) * np.log(az)
                     - self.m * az ** (2.0 * self.beta))
        return np.where(az == np.inf, 0.0, np.exp(log_f))

    def std_cdf(self, z):
        with np.errstate(over="ignore"):  # gammainc(s, inf) = 1
            half = 0.5 * special.gammainc(self._s, self.m * np.abs(z) ** (2.0 * self.beta))
        return 0.5 + np.sign(z) * half

    def _quantile_impl(self, p):
        y = 2.0 * p - 1.0
        g = special.gammaincinv(self._s, np.abs(y))
        mag = (g / self.m) ** (1.0 / (2.0 * self.beta))
        return self.mu + self.sigma * np.sign(y) * mag

    def sample_with(self, rng, count):
        g = rng.gamma(self._s, 1.0 / self.m, size=count)
        sign = rng.choice([-1.0, 1.0], size=count)
        return self.mu + self.sigma * sign * g ** (1.0 / (2.0 * self.beta))


# ---------------------------------------------------------------------------
# Skew-normal and its scale mixtures
# ---------------------------------------------------------------------------

def _sn_std_cdf(z, lam):
    """CDF of SN(0,1,lam): Phi(z) - 2 T(z, lam) with Owen's T function."""
    return np.clip(special.ndtr(z) - 2.0 * special.owens_t(z, lam), 0.0, 1.0)


class SkewNormal(UnivariateFamily, spec="skew_normal"):
    """SN(mu, sigma^2, lambda): density 2/sigma phi(z) Phi(lambda z).

    Sampling uses the half-normal stochastic representation
    X = delta |U| + sqrt(1 - delta^2) V with delta = lambda / sqrt(1+lambda^2).
    """

    unimodal = True

    def __init__(self, mu: float, sigma: float, lam: float):
        self.mu = _finite(mu)
        self.sigma = _finite(sigma, "sigma")
        self.lam = _finite(lam)
        self.symmetric = self.lam == 0.0
        self.center = self.mu

    def mean(self) -> float:
        delta = self.lam / math.sqrt(1.0 + self.lam * self.lam)
        return self.mu + self.sigma * delta * math.sqrt(2.0 / math.pi)

    def _density(self, x):
        # z, z^2 and lam z overflow to +-inf far out, where phi(z) is 0: one
        # guard for all, on a path that evaluates densities many times
        with np.errstate(over="ignore"):
            z = (x - self.mu) / self.sigma
            # at lam = 0, Phi(0) = 1/2 also at |z| = inf, where lam z would be NaN
            skew = special.ndtr(self.lam * z) if self.lam else 0.5
            return 2.0 / self.sigma * (np.exp(-z**2 / 2.0) / _SQRT_2PI) * skew

    def _cdf(self, x):
        with np.errstate(over="ignore"):  # z = +-inf far out, where the CDF is 0 or 1
            return _sn_std_cdf((x - self.mu) / self.sigma, self.lam)

    def sample_with(self, rng, count):
        delta = self.lam / math.sqrt(1.0 + self.lam * self.lam)
        u = np.abs(rng.standard_normal(count))
        v = rng.standard_normal(count)
        z = delta * u + math.sqrt(1.0 - delta * delta) * v
        return self.mu + self.sigma * z

    def khintchine_scale(self, rng, count):
        if self.lam:  # only lam = 0, the law N(mu, sigma^2), is symmetric
            return super().khintchine_scale(rng, count)
        return self.sigma * np.sqrt(rng.chisquare(3.0, size=count))  # as in Elliptical


class SSMN(MixtureFamily, spec="ssmn"):
    """Skew scale mixture of normal with a finite discrete mixing law H.

    Conditionally on V = v the law is SN(mu, sigma^2 v^2, lambda v): the
    mixture has one such skew-normal component per (value, probability)
    atom of H, a finite law as ``discrete_law`` decides.
    """

    def __init__(self, mu: float, sigma: float, lam: float, atoms):
        self.atoms = [(float(v), float(p)) for v, p in atoms]
        discrete_law((p, v) for v, p in self.atoms)
        self.mu = _finite(mu)
        self.sigma = _finite(sigma)
        self.lam = _finite(lam)
        components = [SkewNormal(self.mu, self.sigma * v, self.lam * v) for v, _ in self.atoms]
        super().__init__(components, [p for _, p in self.atoms])


# ---------------------------------------------------------------------------
# Slash-elliptical
# ---------------------------------------------------------------------------

_SERIES_TERMS = 60  # in 1 - Y < 1/(a+2), term k is below 0.4^k or 1/k!


def _away_from_zero(v):
    return np.where(np.abs(v) < _TINY, _TINY, v)


def _beta_cf(a, b, y):
    """2F1(1, a+b; a+1; y) = a B(y; a, b) / (y^a (1-y)^b), any real b, by the
    incomplete-beta continued fraction (DLMF 8.17.22), modified Lentz; a few
    dozen steps for y <= (a+1)/(a+b+2)."""
    d = 1.0 / (1.0 - (a + b) * y / (a + 1.0))
    c, h = np.ones_like(y), d
    out, run = np.empty_like(y), np.arange(y.size)
    for m in range(1, 1000):
        for num in (m * (b - m) * y / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * y / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / _away_from_zero(1.0 + num * d)
            c = _away_from_zero(1.0 + num / c)
            h = h * (c * d)
        done = np.abs(c * d - 1.0) <= _EPS
        out[run[done]] = h[done]
        run, y, c, d, h = run[~done], y[~done], c[~done], d[~done], h[~done]
        if not run.size:
            return out
    raise FamilyError("slash CDF: the incomplete-beta continued fraction did not converge")


def _t_slash_h(nu: float, q: float, r: np.ndarray) -> np.ndarray:
    """H(r) = r^-(q+1) int_0^r s^q f(s) ds, r >= 0, for the standard Student
    t density f with nu degrees of freedom.

    With a = (q+1)/2, b = (nu-q)/2, Y = r^2/(nu+r^2), w = (1-Y)/Y and c = f(0),
    H = c w^a B(Y; a, b) / 2.  Up to s = (a+1)/(a + max(b,0) + 2) that is
    c (1-Y)^(a+b) 2F1(1, a+b; a+1; Y) / (2a) (DLMF 8.17.8).  Beyond s, b > 0
    takes B(Y; a, b) = B(a, b) I_{1-Y}^c(b, a) at the exact 1 - Y, and b <= 0
    adds to B(s; a, b) the integral over (s, Y] as a series in 1 - Y, which
    loses at most e^2 to cancellation as 1 - s = 1/(a+2).  There the factors
    are powers of sqrt(nu)/r < 1, constants taken to the power 1/(2a): none
    overflows, and each rounds like one pow, not like exp of a large log.
    """
    a, b = 0.5 * (q + 1.0), 0.5 * (nu - q)
    c = 1.0 / (math.sqrt(nu) * special.beta(0.5 * nu, 0.5))
    s = (a + 1.0) / (a + max(b, 0.0) + 2.0)
    out = np.zeros_like(r)  # H(inf) = 0
    head = r <= math.sqrt(nu * s / (1.0 - s))
    rho2 = r[head] ** 2 / nu
    cf = _beta_cf(a, b, np.append(rho2 / (1.0 + rho2), s))  # the last at Y = s
    out[head] = c / (2.0 * a) * np.exp(-(a + b) * np.log1p(rho2)) * cf[:-1]
    tail = ~head & (r < np.inf)
    u = math.sqrt(nu) / r[tail]  # u^2 = w
    w = u * u

    def scaled(log_beta):  # c w^a B / 2 = (kappa / r)^(2a) for B = exp(log_beta)
        kappa = math.sqrt(nu) * math.exp((math.log(0.5 * c) + log_beta) / (2.0 * a))
        return (kappa / r[tail]) ** (2.0 * a)

    if b > 0:
        out[tail] = scaled(special.betaln(a, b)) * special.betaincc(b, a, w / (1.0 + w))
        return out
    # (1-x)^(a-1) = sum_k (1-a)_k/k! x^k under int_{1-Y}^{1-s} x^(b-1) dx; with
    # e = b + k and L = log((1-s)/(1-Y)) each integral ((1-s)^e - (1-Y)^e)/e
    # is max((1-s)^e, (1-Y)^e) L exprel(-|e| L): L at e = 0, the log case
    k = np.arange(1, _SERIES_TERMS)
    coef = np.cumprod(np.concatenate(([1.0], (k - a) / k)))
    e = b + np.arange(_SERIES_TERMS)
    z2 = 1.0 - s
    span = (math.log(z2) - 2.0 * np.log(u) + np.log1p(w))[:, None]
    # w^a max(z2^e, (1-Y)^e), with 1 - Y = w / (1 + w)
    top = np.where(e < 0, u[:, None] ** (2.0 * (a + e)) * (1.0 + w[:, None]) ** -e,
                   u[:, None] ** (2.0 * a) * z2 ** np.maximum(e, 0.0))
    series = coef * top * span * special.exprel(-np.abs(e) * span)
    log_head = a * math.log(s) + b * math.log(z2) + math.log(cf[-1] / a)
    out[tail] = scaled(log_head) + 0.5 * c * series.sum(axis=1)
    return out


class SlashElliptical(_SymmetricLocationScale, spec="slash_elliptical"):
    """X = Z / U^(1/q) + mu with Z elliptical E_1(0, sigma^2, psi) and U
    uniform on (0,1).

    For r = |z|, F(-r) = F_Z(-r) + r H(r) and the density is q H(r), with
    H(r) = int_0^1 f_Z(r t) t^q dt = r^-(q+1) int_0^r s^q f_Z(s) ds; z > 0
    reflects.  Only H depends on the mixing law W of Z.  For a degenerate or
    discrete W, H is the p-weighted sum over the atoms w of
    K(r / sqrt(w)) / sqrt(w), with Kummer's form, finite at r = 0 and for
    large q, K(r) = 1F1(a; a+1; -r^2/2) / (2 a sqrt(2 pi)), a = (q+1)/2, and
    far out its power form (``_kummer_tail``).  An inverse-gamma W makes Z a
    scaled Student t (see ``_t_slash_h``).
    """

    def __init__(self, mu: float, sigma: float, generator: CharacteristicGenerator, q: float):
        self.mu = _finite(mu)
        self.sigma = _finite(sigma)
        self.q = _finite(q, "q")
        self.generator = generator
        self.center = self.mu
        self._base = Elliptical(0.0, sigma, generator)
        self.law, self._scales = self._base.law, self._base._scales
        # Q(a, r^2/2) <= e^-a(u - 1 - log u), u = r^2/2a (Chernoff), is below
        # e^-40 from r = sqrt(40) + sqrt(40 + 2a) on; r / s is past it for every atom
        t0 = math.sqrt(40.0) + math.sqrt(41.0 + self.q)
        self._r_tail = t0 * max((s for _, s in self._scales), default=0.0)

    def _kummer(self, r):
        a = 0.5 * (self.q + 1.0)
        return special.hyp1f1(a, a + 1.0, -0.5 * r * r) / (2.0 * a * _SQRT_2PI)

    def _kummer_tail(self, r, e):
        """r^e K(r) = r^-2a gamma(a, r^2/2) 2^a r^e / (2 sqrt(2 pi)) = c r^-k,
        k = q + 1 - e, where gamma(a, r^2/2) = Gamma(a); c is in log space."""
        a, k = 0.5 * (self.q + 1.0), self.q + 1.0 - e
        log_c = special.gammaln(a) + a * math.log(2.0) - math.log(2.0 * _SQRT_2PI)
        if log_c <= 0.0:
            return math.exp(log_c) * r**-k
        return (math.exp(log_c / k) / r) ** k  # c > 1 only for k >= 1

    def _h(self, r, e=0):
        """r^e H(r): H for the density (e = 0), r H for the CDF (e = 1)."""
        law = self.law
        if law.kind == "inverse_gamma":
            k = math.sqrt(law.a / law.b)
            h = k * _t_slash_h(2.0 * law.a, self.q, k * r)
            return np.where(r < np.inf, r, 0.0) * h if e else h  # r H(r) -> 0
        tail = r >= self._r_tail
        near, far = np.where(tail, 0.0, r), np.where(tail, r, np.inf)
        h = sum(p * self._kummer(near / s) / s for p, s in self._scales)
        far_h = sum(p * self._kummer_tail(far / s, e) / s ** (1 - e) for p, s in self._scales)
        return np.where(tail, far_h, near * h if e else h)

    def std_density(self, z):
        return self.q * self._h(np.abs(z))

    def std_cdf(self, z):
        r = np.abs(z)
        lower = self._base.std_cdf(-r) + self._h(r, 1)
        return np.where(z > 0, 1.0 - lower, lower)

    def sample_with(self, rng, count):
        z = self._base.sample_with(rng, count)
        u = rng.uniform(size=count)
        return z / u ** (1.0 / self.q) + self.mu

    def khintchine_scale(self, rng, count):
        # Z = T_Z V, so Z / U^(1/q) = (T_Z / U^(1/q)) V
        t = self._base.khintchine_scale(rng, count)
        return t / rng.uniform(size=count) ** (1.0 / self.q)


# ---------------------------------------------------------------------------
# JSON factory
# ---------------------------------------------------------------------------

def family_from_spec(d: dict) -> UnivariateFamily:
    """The family that ``d`` declares, in the form ``spec()`` writes: the
    spec name under ``family`` and the constructor's fields, of which those
    with a default may be left out.  Nested specs are rebuilt in turn."""
    if not isinstance(d, dict):
        raise FamilyError(f"a family spec is a JSON object, not {type(d).__name__}")
    cls = _FAMILIES.get(d.get("family"))
    if cls is None:
        raise FamilyError(f"unknown family {d.get('family')!r}")
    missing = [f for f in cls._spec_required if f not in d]
    unknown = [f for f in d if f != "family" and f not in cls._spec_fields]
    if missing or unknown:
        raise FamilyError(f"a {cls._spec_name} spec has the fields {list(cls._spec_fields)} "
                          f"({list(cls._spec_required)} required): missing {missing}, "
                          f"unknown {unknown}")
    fields = [f for f in cls._spec_fields if f in d]
    return cls(**{f: _NESTED[f](d[f]) if f in _NESTED else d[f] for f in fields})


# the fields that hold nested specs, and what rebuilds each
_NESTED = {
    "generator": CharacteristicGenerator.from_spec,
    "base": family_from_spec,
    "components": lambda specs: [family_from_spec(c) for c in specs],
}
