"""Mixability verdicts with machine-checkable certificates.

Verdicts are three-valued (JM / NotJM / Unknown).  Sufficient conditions never
emit NotJM and necessary conditions never emit JM; only the unimodal
location-scale criterion is an iff and may emit both.  Inputs outside a
criterion's hypotheses, such as a base that is not unimodal and symmetric,
raise HypothesisViolation rather than yield Unknown.  Every certificate
stores enough numeric inputs that ``replay_certificate`` reproduces the
verdict bit for bit.  ``_RULES`` declares each type's fields and its rule,
as a signed margin, once; the builders take their verdict from that rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

from .generators import CharacteristicGenerator

if TYPE_CHECKING:  # scale verdicts import neither numpy nor families
    from .families import UnivariateFamily

__all__ = [
    "JM",
    "NOT_JM",
    "UNKNOWN",
    "HypothesisViolation",
    "MixabilityVerdict",
    "check_scale_inequality",
    "jm_verdict_unimodal_location_scale",
    "jm_verdict_elliptical",
    "not_jm_bounded_symmetric",
    "not_jm_unbounded_symmetric",
    "skewnormal_noncm_certificate",
    "skewnormal_threshold",
    "ssmn_noncm_certificate",
    "replay_certificate",
]

JM = "JM"
NOT_JM = "NotJM"
UNKNOWN = "Unknown"

# the size of default_a_grid, and skewnormal_threshold's bisection bracket and width
_A_GRID_POINTS = 64
_THRESHOLD_BRACKET = (0.0, 1e8)
_THRESHOLD_TOL = 1e-6


class HypothesisViolation(ValueError):
    """Inputs do not satisfy the hypotheses of the requested criterion."""


@dataclass
class MixabilityVerdict:
    verdict: str
    joint_center: float | None = None
    certificate: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MixabilityVerdict":
        d = json.loads(text)
        return cls(d["verdict"], d.get("joint_center"), d.get("certificate", {}))

    def replay(self) -> str:
        """Re-evaluate the stored certificate; must reproduce ``verdict``."""
        return replay_certificate(self.certificate)


# ---------------------------------------------------------------------------
# Scale inequality (exact comparison, no tolerance)
# ---------------------------------------------------------------------------

def _rounded_sum(values: list) -> float:
    # the exact sum rounded once, also past an overflowing partial sum; with
    # a value not finite, inf, -inf or NaN (inf - inf), as sum() gives
    if not all(map(math.isfinite, values)):
        return sum(v for v in values if not math.isfinite(v))
    try:
        return math.fsum(values)
    except OverflowError:  # a partial sum above the largest double
        from fractions import Fraction  # imports decimal: kept off start-up

        total = sum(map(Fraction, values))
        try:
            return float(total)
        except OverflowError:
            return math.inf if total > 0 else -math.inf


def _scale_margin(cert: dict) -> float:
    # sum(thetas) - 2 max(thetas) rounded once, max subtracted twice, not
    # doubled, which could overflow; a NaN that max() skips stays in the sum
    top = max(cert["thetas"])
    return _rounded_sum([*cert["thetas"], -top, -top])


def check_scale_inequality(thetas) -> bool:
    return _decide(_RULES["scale_inequality"], {**_scale_fields(thetas), "iff": True}) == JM


def _scale_fields(thetas) -> dict:
    thetas = [float(t) for t in thetas]
    if not thetas:
        raise ValueError("need at least one scale")
    if not all(0.0 < t < math.inf for t in thetas):
        raise ValueError("scales must be positive and finite")
    sums = {"total": _rounded_sum(thetas), "twice_max": 2.0 * max(thetas)}
    # strict JSON has no infinity: an overflowed sum is "inf", as nu is in
    # CharacteristicGenerator.spec()
    sums = {k: v if math.isfinite(v) else "inf" for k, v in sums.items()}
    return {"thetas": thetas, **sums}


def _joint_center(mus, count: int) -> float:
    """The exact sum of ``count`` finite locations, rounded once."""
    mus = [float(m) for m in mus]
    if len(mus) != count:
        raise ValueError("scales and locations must have equal length")
    if not all(map(math.isfinite, mus)):
        raise ValueError("locations must be finite")
    return _rounded_sum(mus)


def _certify(kind: str, fields: dict, joint_center: float | None = None) -> MixabilityVerdict:
    """``fields`` as a ``kind`` certificate, with its rule's verdict; JM carries the center."""
    fields["type"] = kind
    verdict = _decide(_RULES[kind], fields)
    return MixabilityVerdict(verdict, joint_center if verdict == JM else None, fields)


def _unimodal_symmetric(base: UnivariateFamily) -> None:
    """HypothesisViolation unless ``base`` is unimodal and symmetric."""
    if not (base.symmetric and base.unimodal):
        raise HypothesisViolation("base must be unimodal and symmetric")


def jm_verdict_unimodal_location_scale(base: UnivariateFamily, thetas, mus) -> MixabilityVerdict:
    """Same unimodal-symmetric base, scales theta_i: JM iff the scale
    inequality holds.  A base that is not unimodal and symmetric is refused
    with HypothesisViolation, not answered with Unknown."""
    thetas = [float(t) for t in thetas]
    center = _joint_center(mus, len(thetas))
    _unimodal_symmetric(base)
    return _certify("scale_inequality", {**_scale_fields(thetas), "iff": True}, center)


def jm_verdict_elliptical(sigmas, mus, g: CharacteristicGenerator) -> MixabilityVerdict:
    """JM when the scale inequality holds.  When it fails, the marginals of
    every supported generator, normal variance mixtures, have
    unimodal-symmetric densities, so the iff criterion for location-scale
    families applies and the verdict is NotJM."""
    sigmas = [float(s) for s in sigmas]
    center = _joint_center(mus, len(sigmas))
    fields = {**_scale_fields(sigmas), "generator": g.spec()}
    res = _certify("scale_inequality", {**fields, "iff": False}, center)
    fallback = {**fields, "iff": True, "unimodal_fallback": True}
    return res if res.verdict == JM else _certify("scale_inequality", fallback, center)


# ---------------------------------------------------------------------------
# Non-JM certificates for odd tuples of symmetric densities
# ---------------------------------------------------------------------------

def _odd_count(families) -> int:
    count = len(families)
    if count < 3 or count % 2 == 0:
        raise HypothesisViolation("need an odd number (>= 3) of families")
    return (count - 1) // 2


def not_jm_bounded_symmetric(families, a: float) -> MixabilityVerdict:
    """2n+1 symmetric densities on [-a, a]: NotJM when every CDF at
    n a/(n+1) is at most (n+1)/(2n+1)."""
    a = float(a)
    if a <= 0:
        raise HypothesisViolation("a must be positive")
    n = _odd_count(families)
    for fam in families:
        lo, hi = fam.support
        if lo < -a - 1e-12 or hi > a + 1e-12:
            raise HypothesisViolation("support must be contained in [-a, a]")
        if not (fam.symmetric and fam.center == 0.0):
            raise HypothesisViolation("families must be symmetric about 0")
    point = n * a / (n + 1.0)
    cdf_values = [float(fam.cdf(point)) for fam in families]
    return _certify("bounded_symmetric", {"a": a, "n": n, "evaluation_point": point,
                                          "cdf_values": cdf_values,
                                          "threshold": (n + 1.0) / (2.0 * n + 1.0)})


def not_jm_unbounded_symmetric(families, a_grid) -> MixabilityVerdict:
    """2n+1 symmetric densities on the line: NotJM when some a > 0 satisfies
    F_i(a) - F_i(n a/(n+1)) >= n/(2n+1) for all i.  The existential a is
    searched over the supplied grid only; absence yields Unknown."""
    n = _odd_count(families)
    for fam in families:
        if not (fam.symmetric and fam.center == 0.0):
            raise HypothesisViolation("families must be symmetric about 0")
    search = {"n": n, "threshold": n / (2.0 * n + 1.0), "a_grid": [float(a) for a in a_grid]}
    for a in search["a_grid"]:
        if a > 0:
            masses = [float(fam.cdf(a) - fam.cdf(n * a / (n + 1.0))) for fam in families]
            witness = {"witness_a": a, "witness_masses": masses}
            res = _certify("unbounded_symmetric", {**search, **witness})
            if res.verdict == NOT_JM:
                return res
    return _certify("unbounded_symmetric", {**search, "witness_a": None, "witness_masses": None})


def default_a_grid(sigmas):
    """Log-spaced search grid for the unbounded-symmetric certificate."""
    import numpy as np

    sigmas = [float(s) for s in sigmas]
    lo = min(sigmas) / 10.0
    hi = 10.0 * max(sigmas)
    return list(np.geomspace(lo, hi, _A_GRID_POINTS))


# ---------------------------------------------------------------------------
# Skew-normal family certificates
# ---------------------------------------------------------------------------

def skewnormal_noncm_certificate(n: int, lam: float) -> MixabilityVerdict:
    """Not n-CM when F_Y(n E) + (n-1) P(Y < 0) < 1 for Y ~ SN(0, 1, |lam|),
    E the skew-normal mean.  At lam = 0 the bound can never fire."""
    from .families import SkewNormal

    if not (float(n).is_integer() and n >= 2):
        raise ValueError(f"n must be an integer >= 2, not {n!r}")
    n = int(n)
    lam_abs = abs(float(lam))
    sn = SkewNormal(0.0, 1.0, lam_abs)
    mean = sn.mean()
    cdf_term = float(sn.cdf(n * mean))
    neg_prob = 0.5 - math.atan(lam_abs) / math.pi
    return _certify("skew_normal", {"n": n, "lam": float(lam), "mean": mean,
                                    "cdf_term": cdf_term, "neg_prob": neg_prob,
                                    "bound": cdf_term + (n - 1) * neg_prob})


def skewnormal_threshold(n: int) -> float:
    """Least |lambda| at which the certificate fires, by bisection.

    A numeric exploration aid, not a claim about the true CM threshold.
    """
    lo, hi = _THRESHOLD_BRACKET
    if skewnormal_noncm_certificate(n, hi).verdict != NOT_JM:
        return math.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if skewnormal_noncm_certificate(n, mid).verdict == NOT_JM:
            hi = mid
        else:
            lo = mid
        if hi - lo < _THRESHOLD_TOL:
            break
    return hi


def ssmn_noncm_certificate(n: int, lam: float, atoms) -> MixabilityVerdict:
    """SSMN with finite discrete H: certify NotJM only when the skew-normal
    bound fires at lambda * v for every atom v of H; H's atoms are checked
    by ``families.h_atoms``."""
    from .families import h_atoms

    sub = [
        {"atom": v, "prob": p, "certificate": skewnormal_noncm_certificate(n, lam * v).certificate}
        for v, p in h_atoms(atoms)
    ]
    return _certify("ssmn", {"n": int(n), "lam": float(lam), "atoms": sub})


# ---------------------------------------------------------------------------
# Certificate table and replay
# ---------------------------------------------------------------------------

class _Rule(NamedTuple):
    """A certificate type: the fields its certificates hold, and its rule as a
    signed margin, which gives ``verdict`` when >= 0 (> 0 if ``strict``),
    Unknown when NaN, and ``otherwise(cert)`` else."""

    fields: tuple
    margin: Callable[[dict], float]
    verdict: str = NOT_JM
    strict: bool = False
    otherwise: Callable[[dict], str] = lambda cert: UNKNOWN


def _least(margins: list) -> float:
    # min(), but NaN when there is no margin or a NaN one, which min() skips
    return min(margins) if margins and not any(map(math.isnan, margins)) else math.nan


def _ssmn_margin(cert: dict) -> float:
    # each atom's own skew-normal rule: NotJM only when every atom fires
    return _least([_checked(e.get("certificate"), "skew_normal").margin(e["certificate"])
                   for e in cert["atoms"]])


_RULES = {
    "scale_inequality": _Rule(("thetas", "total", "twice_max", "iff"), _scale_margin, JM,
                              otherwise=lambda c: NOT_JM if c["iff"] else UNKNOWN),
    "bounded_symmetric": _Rule(("a", "n", "evaluation_point", "cdf_values", "threshold"),
                               lambda c: _least([c["threshold"] - v for v in c["cdf_values"]])),
    "unbounded_symmetric": _Rule(("n", "threshold", "a_grid", "witness_a", "witness_masses"),
                                 lambda c: _least([m - c["threshold"]
                                                   for m in c["witness_masses"] or ()])),
    "skew_normal": _Rule(("n", "lam", "mean", "cdf_term", "neg_prob", "bound"),
                         lambda c: 1.0 - (c["cdf_term"] + (c["n"] - 1) * c["neg_prob"]),
                         strict=True),
    "ssmn": _Rule(("n", "lam", "atoms"), _ssmn_margin, strict=True),
}


def _checked(cert, kind: str | None = None) -> _Rule:
    """The rule of ``cert`` (of type ``kind``, if given); ValueError if malformed."""
    try:
        rule = _RULES[cert["type"]]
    except (KeyError, TypeError):  # no type, an unknown one, or not a JSON object
        rule = None
    if rule is None or kind not in (None, cert["type"]):
        raise ValueError(f"not a certificate of {kind or 'a known'} type: {cert!r:.80}")
    missing = [name for name in rule.fields if name not in cert]
    if missing:
        raise ValueError(f"{cert['type']} certificate lacks {', '.join(map(repr, missing))}")
    return rule


def _decide(rule: _Rule, cert: dict) -> str:
    margin = rule.margin(cert)
    if margin > 0.0 or (margin == 0.0 and not rule.strict):
        return rule.verdict
    return UNKNOWN if math.isnan(margin) else rule.otherwise(cert)


def replay_certificate(cert: dict) -> str:
    """Recompute the verdict from a certificate's stored numeric inputs; an
    unknown type, a missing declared field or one of the wrong JSON type
    raises ValueError."""
    rule = _checked(cert)
    try:
        return _decide(rule, cert)
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"{cert['type']} certificate field of the wrong type: {exc}") from None
