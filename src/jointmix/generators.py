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

``special`` is the shared handle on ``scipy.special``: the module
``__getattr__`` finds it when first asked for, and it executes on its first
attribute access.  This module imports neither numpy nor scipy, so the
scale-inequality verdict, which needs neither, never loads them.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import math
import operator
import sys
from dataclasses import dataclass, field
from functools import reduce
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: numpy loads in the functions that use it
    import numpy as np

__all__ = [
    "CharacteristicGenerator",
    "GeneratorError",
    "MixingLaw",
    "cg_eval",
    "discrete_law",
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


def __getattr__(name):
    # find_spec("scipy.special") imports scipy and numpy: not at import time
    if name == "special":
        return _lazy_import("scipy.special")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class GeneratorError(ValueError):
    """Invalid generator parameters or evaluation outside the domain."""


# kind -> its parameter fields, in the order of the constructor and of the
# compact CLI syntax (which has none for the atoms of a discrete mixture)
_KIND_FIELDS = {
    "normal": (),
    "student_t": ("nu",),
    "cauchy": (),
    "pearson_vii": ("shape", "scale"),
    "discrete_mixture": ("atoms",),
}


def _spec_value(v):
    if isinstance(v, tuple):
        return [list(atom) for atom in v]
    # strict JSON has no infinity; from_spec reads "inf" through float()
    return v if math.isfinite(v) else "inf"


@dataclass(frozen=True)
class CharacteristicGenerator:
    """A scalar generator ``psi`` with ``psi(0) = 1``.

    kind is one of ``normal``, ``student_t``, ``cauchy``, ``pearson_vii``,
    ``discrete_mixture``.  ``atoms`` is a tuple of ``(weight, scale)`` pairs for the
    discrete-mixture kind; W = scale^2 is a finite law as ``discrete_law`` decides.
    """

    kind: str
    nu: float | None = None
    shape: float | None = None  # Pearson VII exponent, > 1/2
    scale: float | None = None  # Pearson VII scale, > 0
    atoms: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self):
        # every check is written so that NaN fails it
        k = self.kind
        if k not in _KIND_FIELDS:
            raise GeneratorError(f"unknown generator kind {k!r}")
        # spec() drops a field the kind does not have, while == compares it
        if any(getattr(self, f.name) != f.default for f in dataclasses.fields(self)
               if f.name not in ("kind", *_KIND_FIELDS[k])):
            raise GeneratorError(f"a {k} generator has only the fields {['kind', *_KIND_FIELDS[k]]}")
        if k == "student_t" and not (self.nu is not None and self.nu > 0):
            raise GeneratorError("student_t needs nu > 0")
        if k == "pearson_vii":
            if not (self.shape is not None and 0.5 < self.shape < math.inf):
                raise GeneratorError("pearson_vii needs a finite shape > 1/2")
            if not (self.scale is not None and 0 < self.scale < math.inf):
                raise GeneratorError("pearson_vii needs a finite scale > 0")
        if k == "discrete_mixture":  # W = scale^2, its sign kept so that a negative scale fails
            object.__setattr__(self, "_w_law", discrete_law((p, math.copysign(s * s, s)) for p, s in self.atoms))

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

    # --- JSON config schema and compact CLI syntax --------------------
    def spec(self) -> dict:
        fields = _KIND_FIELDS[self.kind]
        return {"kind": self.kind, **{f: _spec_value(getattr(self, f)) for f in fields}}

    @classmethod
    def from_spec(cls, d: dict) -> "CharacteristicGenerator":
        if not isinstance(d, dict):
            raise GeneratorError(f"a generator spec is a JSON object, not {type(d).__name__}")
        kind = d.get("kind")
        if kind not in _KIND_FIELDS:
            raise GeneratorError(f"unknown generator kind {kind!r}")
        fields = _KIND_FIELDS[kind]
        if set(d) != {"kind", *fields}:
            raise GeneratorError(f"a {kind} spec has exactly the fields {['kind', *fields]}")
        return getattr(cls, kind)(*(d[f] for f in fields))

    @classmethod
    def parse(cls, text: str) -> "CharacteristicGenerator":
        """Parse compact CLI syntax, e.g. ``normal``, ``student_t:3``,
        ``pearson_vii:2:1``."""
        kind, *values = text.split(":")
        fields = _KIND_FIELDS.get(kind)
        if fields is None or "atoms" in fields or len(values) != len(fields):
            raise GeneratorError(f"cannot parse generator {text!r}")
        return getattr(cls, kind)(*map(float, values))


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

    def sample_with(self, rng: np.random.Generator, count: int) -> np.ndarray:
        import numpy as np

        if self.kind == "degenerate":
            return np.ones(count)
        if self.kind == "inverse_gamma":
            # W = b / Gamma(a, 1)
            return self.b / rng.gamma(self.a, 1.0, size=count)
        if self.kind == "discrete":
            probs, vals = np.array(self.atoms).T
            return rng.choice(vals, p=probs, size=count)
        raise GeneratorError(f"unknown mixing law {self.kind!r}")


def _pairwise_sum(terms):
    """``terms[0] + terms[1] + ...`` rounded as numpy's pairwise ``sum``
    rounds it, for floats or for arrays added elementwise.  Below 8 terms
    the sum runs left to right; up to 128 it keeps 8 interleaved partial
    sums, joins them as ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
    and adds the terms past the last multiple of 8 left to right; longer
    runs split in two halves, the first a multiple of 8 long.  numpy adds
    the result to +0.0, so a sum of -0.0 terms is +0.0.
    """
    n = len(terms)
    if n < 8:
        return reduce(operator.add, terms, 0.0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return 0.0 + (_pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:]))
    m = n - n % 8
    s = [reduce(operator.add, terms[j:m:8]) for j in range(8)]
    head = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
    return 0.0 + reduce(operator.add, terms[m:], head)


def _over_sum(weights: list[float]) -> list[float]:
    """``w / w.sum()`` for the array ``w`` of positive, finite ``weights``,
    bit for bit, after scaling by the power of two at their maximum: the sum
    cannot overflow, and while no weight leaves the normal range the scaling
    is exact."""
    k = -math.frexp(max(weights))[1]
    ws = [math.ldexp(w, k) for w in weights]
    total = _pairwise_sum(ws)
    return [w / total for w in ws]


def discrete_law(atoms) -> MixingLaw:
    """The finite discrete law of ``(probability, value)`` atoms, its
    probabilities normalised by ``_over_sum``: the one rule for the atoms of
    a discrete-mixture generator and for a mixing law H.

    GeneratorError unless there is at least one atom, every probability and
    every value is positive and finite, and the probabilities sum to 1
    within 1e-9.
    """
    atoms = [(float(p), float(v)) for p, v in atoms]
    if not atoms:
        raise GeneratorError("a finite law needs at least one atom")
    if not all(0 < x < math.inf for atom in atoms for x in atom):  # NaN fails too
        raise GeneratorError("atoms must have weights and values positive and finite")
    ps = [p for p, _ in atoms]
    if not abs(_pairwise_sum(ps) - 1.0) <= 1e-9:  # a sum that overflows is inf
        raise GeneratorError("atom weights must sum to 1 within 1e-9")
    return MixingLaw("discrete", atoms=tuple(zip(_over_sum(ps), (v for _, v in atoms))))


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
        return g._w_law
    raise GeneratorError(f"unknown generator kind {g.kind!r}")


def cg_eval(g: CharacteristicGenerator, u: float) -> float:
    """Evaluate ``psi(u) = E[exp(-u W / 2)]`` for ``u >= 0``.

    A degenerate or discrete W gives sum p exp(-u w / 2) over its atoms.
    W ~ InvGamma(a, b) gives 2 (x/2)^a K_a(x) / Gamma(a) with x = sqrt(2 b u),
    which is exp(-sqrt(u)) for Cauchy (a = b = 1/2).
    """
    u = float(u)
    if not u >= 0:  # NaN fails too
        raise GeneratorError(f"cg_eval requires u >= 0, not {u!r}")
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
    special = _lazy_import("scipy.special")
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
    import numpy as np

    if count <= 0:
        raise GeneratorError("count must be positive")
    return mixing_law(g).sample_with(np.random.default_rng(seed), count)
