"""Characteristic generators of elliptical laws and their mixing laws.

Every generator supported here is a normal variance mixture: a variable with
generator ``psi`` is distributed as ``sqrt(W) * Z`` with ``Z`` standard normal
and ``W >= 0`` an independent mixing scale.  That representation is exactly
the class valid in every dimension, so all couplings built on top of these
generators work for arbitrary ``n``.

``psi`` has a closed form for each mixing law: a weighted sum of
exponentials when W is degenerate or discrete (normal, discrete mixtures), and
a modified Bessel function of the second kind when W is inverse gamma
(Student-t, Cauchy through K_{1/2}, Pearson VII).

``special`` is the shared handle on ``scipy.special``.  It is loaded on first
attribute access, so importing jointmix, and code paths that need no special
function (the scale-inequality verdict, sampling, verification), do not pay
for it.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CharacteristicGenerator",
    "GeneratorError",
    "MixingLaw",
    "cg_eval",
    "mixing_law",
    "sample_mixing",
]


def _lazy_import(name: str):
    """Module ``name``, executed on first attribute access
    (the ``importlib.util.LazyLoader`` recipe); an imported module is
    returned as is."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


special = _lazy_import("scipy.special")


class GeneratorError(ValueError):
    """Invalid generator parameters or evaluation outside the domain."""


@dataclass(frozen=True)
class CharacteristicGenerator:
    """A scalar generator ``psi`` with ``psi(0) = 1``.

    kind is one of ``normal``, ``student_t``, ``cauchy``, ``pearson_vii``,
    ``discrete_mixture``.  ``atoms`` is a tuple of ``(weight, scale)`` pairs
    for the discrete-mixture kind; weights must sum to 1.
    """

    kind: str
    nu: float | None = None
    shape: float | None = None  # Pearson VII exponent, > 1/2
    scale: float | None = None  # Pearson VII scale, > 0
    atoms: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self):
        k = self.kind
        if k == "normal":
            pass
        elif k == "student_t":
            if self.nu is None or self.nu <= 0:
                raise GeneratorError("student_t needs nu > 0")
        elif k == "cauchy":
            pass
        elif k == "pearson_vii":
            if self.shape is None or self.shape <= 0.5:
                raise GeneratorError("pearson_vii needs shape > 1/2")
            if self.scale is None or self.scale <= 0:
                raise GeneratorError("pearson_vii needs scale > 0")
        elif k == "discrete_mixture":
            if not self.atoms:
                raise GeneratorError("discrete_mixture needs at least one atom")
            ws = np.array([w for w, _ in self.atoms], dtype=float)
            ss = np.array([s for _, s in self.atoms], dtype=float)
            if np.any(ws <= 0) or np.any(ws > 1) or np.any(ss <= 0):
                raise GeneratorError("atoms must have weights in (0,1] and scales > 0")
            if abs(ws.sum() - 1.0) > 1e-12:
                raise GeneratorError("atom weights must sum to 1 within 1e-12")
        else:
            raise GeneratorError(f"unknown generator kind {k!r}")

    # All supported kinds are normal variance mixtures, hence valid in any
    # dimension.
    @property
    def max_dimension(self) -> float:
        return math.inf

    # --- convenience constructors -------------------------------------
    @classmethod
    def normal(cls) -> "CharacteristicGenerator":
        return cls("normal")

    @classmethod
    def student_t(cls, nu: float) -> "CharacteristicGenerator":
        return cls("student_t", nu=float(nu))

    @classmethod
    def cauchy(cls) -> "CharacteristicGenerator":
        return cls("cauchy")

    @classmethod
    def pearson_vii(cls, shape: float, scale: float) -> "CharacteristicGenerator":
        return cls("pearson_vii", shape=float(shape), scale=float(scale))

    @classmethod
    def discrete_mixture(cls, atoms) -> "CharacteristicGenerator":
        return cls("discrete_mixture", atoms=tuple((float(w), float(s)) for w, s in atoms))

    # --- JSON config schema -------------------------------------------
    def spec(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind == "student_t":
            # strict JSON has no infinity; from_spec reads "inf" through float()
            d["nu"] = self.nu if math.isfinite(self.nu) else "inf"
        elif self.kind == "pearson_vii":
            d["shape"] = self.shape
            d["scale"] = self.scale
        elif self.kind == "discrete_mixture":
            d["atoms"] = [[w, s] for w, s in self.atoms]
        return d

    @classmethod
    def from_spec(cls, d: dict) -> "CharacteristicGenerator":
        kind = d.get("kind")
        if kind == "normal":
            return cls.normal()
        if kind == "student_t":
            return cls.student_t(d["nu"])
        if kind == "cauchy":
            return cls.cauchy()
        if kind == "pearson_vii":
            return cls.pearson_vii(d["shape"], d["scale"])
        if kind == "discrete_mixture":
            return cls.discrete_mixture(d["atoms"])
        raise GeneratorError(f"unknown generator kind {kind!r}")

    @classmethod
    def parse(cls, text: str) -> "CharacteristicGenerator":
        """Parse compact CLI syntax, e.g. ``normal``, ``student_t:3``,
        ``pearson_vii:2:1``."""
        parts = text.split(":")
        kind = parts[0]
        if kind == "normal":
            return cls.normal()
        if kind == "cauchy":
            return cls.cauchy()
        if kind == "student_t":
            return cls.student_t(float(parts[1]))
        if kind == "pearson_vii":
            return cls.pearson_vii(float(parts[1]), float(parts[2]))
        raise GeneratorError(f"cannot parse generator {text!r}")


@dataclass(frozen=True)
class MixingLaw:
    """The nonnegative scale ``W`` in the representation ``sqrt(W) * Z``.

    kind ``degenerate`` is W == 1, carried as the single atom (1, 1);
    ``inverse_gamma`` carries (a, b) for shape/scale; ``discrete`` carries
    atoms of (probability, value).
    """

    kind: str
    a: float | None = None
    b: float | None = None
    atoms: tuple[tuple[float, float], ...] = field(default=())

    def sample(self, count: int, seed: int) -> np.ndarray:
        if count <= 0:
            raise GeneratorError("count must be positive")
        rng = np.random.default_rng(seed)
        return self.sample_with(rng, count)

    def sample_with(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.kind == "degenerate":
            return np.ones(count)
        if self.kind == "inverse_gamma":
            # W = b / Gamma(a, 1)
            return self.b / rng.gamma(self.a, 1.0, size=count)
        if self.kind == "discrete":
            probs = np.array([p for p, _ in self.atoms])
            vals = np.array([v for _, v in self.atoms])
            return rng.choice(vals, p=probs, size=count)
        raise GeneratorError(f"unknown mixing law {self.kind!r}")

    def density(self, w):
        """Density of W (inverse-gamma kinds only)."""
        if self.kind != "inverse_gamma":
            raise GeneratorError("density available for inverse_gamma mixing only")
        z = np.asarray(w, dtype=float) / self.b
        with np.errstate(divide="ignore", invalid="ignore"):
            log_pdf = -(self.a + 1.0) * np.log(z) - special.gammaln(self.a) - 1.0 / z
        return np.where(z > 0, np.exp(log_pdf) / self.b, 0.0)[()]


def mixing_law(g: CharacteristicGenerator) -> MixingLaw:
    """Mixing law of ``g``'s normal variance mixture representation.

    Student-t with nu degrees of freedom mixes over InvGamma(nu/2, nu/2), and
    with nu = inf it is the normal law, W == 1; Cauchy is the nu = 1 case;
    Pearson VII with exponent N and scale m mixes over InvGamma(N - 1/2, m/2).
    """
    if g.kind == "normal" or (g.kind == "student_t" and g.nu == math.inf):
        return MixingLaw("degenerate", atoms=((1.0, 1.0),))
    if g.kind == "student_t":
        return MixingLaw("inverse_gamma", a=g.nu / 2.0, b=g.nu / 2.0)
    if g.kind == "cauchy":
        return MixingLaw("inverse_gamma", a=0.5, b=0.5)
    if g.kind == "pearson_vii":
        return MixingLaw("inverse_gamma", a=g.shape - 0.5, b=g.scale / 2.0)
    if g.kind == "discrete_mixture":
        return MixingLaw("discrete", atoms=tuple((w, s * s) for w, s in g.atoms))
    raise GeneratorError(f"unknown generator kind {g.kind!r}")


def cg_eval(g: CharacteristicGenerator, u: float) -> float:
    """Evaluate ``psi(u) = E[exp(-u W / 2)]`` for ``u >= 0``.

    A degenerate or discrete W gives sum p exp(-u w / 2) over its atoms.
    W ~ InvGamma(a, b) gives 2 (x/2)^a K_a(x) / Gamma(a) with x = sqrt(2 b u),
    which is exp(-sqrt(u)) for Cauchy (a = b = 1/2).
    """
    u = float(u)
    if u < 0:
        raise GeneratorError("cg_eval requires u >= 0")
    law = mixing_law(g)
    if law.kind == "inverse_gamma":
        return _inverse_gamma_laplace(law.a, law.b, u)
    return float(sum(p * math.exp(-u * w / 2.0) for p, w in law.atoms))


def _inverse_gamma_laplace(a: float, b: float, u: float) -> float:
    """E[exp(-u W / 2)] for W ~ InvGamma(a, b), evaluated in log space with
    the exponentially scaled K_a so that no factor overflows or underflows."""
    if u == 0.0:
        return 1.0
    if u == math.inf:
        return 0.0
    x = math.sqrt(2.0 * b * u)
    k_scaled = float(special.kve(a, x))  # K_a(x) e^x
    if math.isfinite(k_scaled):
        log_psi = math.log(2.0 * k_scaled) + a * math.log(0.5 * x) - x - special.gammaln(a)
        return math.exp(log_psi)
    # K_a(x) overflows only where x * x is negligible against a (large a,
    # tiny x).  There the small-argument series
    # sum_k Gamma(a - k) / (Gamma(a) k!) (-x^2/4)^k converges to machine
    # precision within a few terms.
    c = -0.25 * x * x
    total = term = 1.0
    k = 1
    while k < a and abs(term) > 1e-17 * total:
        term *= c / (k * (a - k))
        total += term
        k += 1
    return total


def sample_mixing(g: CharacteristicGenerator, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` values of W; deterministic for a fixed seed."""
    return mixing_law(g).sample(count, seed)
