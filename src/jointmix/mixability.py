"""Mixability verdicts with machine-checkable certificates.

Verdicts are three-valued (JM / NotJM / Unknown).  Sufficient conditions never
emit NotJM and necessary conditions never emit JM; only the unimodal
location-scale criterion is an iff and may emit both.  Every certificate
stores enough numeric inputs that ``replay_certificate`` reproduces the
verdict bit for bit, and the builders take their verdict from that replay,
so each decision rule is written once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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


class HypothesisViolation(ValueError):
    """Inputs do not satisfy the hypotheses of the requested criterion."""


@dataclass
class MixabilityVerdict:
    verdict: str
    joint_center: float | None = None
    certificate: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "verdict": self.verdict,
                "joint_center": self.joint_center,
                "certificate": self.certificate,
            },
            sort_keys=True,
        )

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

def _scale_inequality_holds(thetas) -> bool:
    # the rounded exact sum has the sign of sum(thetas) - 2 max(thetas); max
    # is subtracted twice rather than doubled, which could overflow
    top = max(thetas)
    return _rounded_sum([*thetas, -top, -top]) >= 0.0


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


def check_scale_inequality(thetas) -> bool:
    return replay_certificate(_scale_certificate(thetas, iff=True)) == JM


def _scale_certificate(thetas, iff: bool) -> dict:
    thetas = [float(t) for t in thetas]
    if not thetas:
        raise ValueError("need at least one scale")
    if not all(0.0 < t < math.inf for t in thetas):
        raise ValueError("scales must be positive and finite")
    sums = {"total": _rounded_sum(thetas), "twice_max": 2.0 * max(thetas)}
    # strict JSON has no infinity: an overflowed sum is "inf", as nu is in
    # CharacteristicGenerator.spec()
    sums = {k: v if math.isfinite(v) else "inf" for k, v in sums.items()}
    return {"type": "scale_inequality", "thetas": thetas, **sums, "iff": iff}


def _joint_center(mus, count: int) -> float:
    """The exact sum of ``count`` finite locations, rounded once."""
    mus = [float(m) for m in mus]
    if len(mus) != count:
        raise ValueError("scales and locations must have equal length")
    if not all(map(math.isfinite, mus)):
        raise ValueError("locations must be finite")
    return _rounded_sum(mus)


def _replayed(cert: dict, joint_center: float | None = None) -> MixabilityVerdict:
    """The verdict that ``cert`` replays to; a JM verdict carries the
    joint center."""
    verdict = replay_certificate(cert)
    return MixabilityVerdict(verdict, joint_center if verdict == JM else None, cert)


def jm_verdict_unimodal_location_scale(base: UnivariateFamily, thetas, mus) -> MixabilityVerdict:
    """Same unimodal-symmetric base, scales theta_i: JM iff the scale
    inequality holds.  A non-qualifying base yields Unknown, not a guess."""
    thetas = [float(t) for t in thetas]
    center = _joint_center(mus, len(thetas))
    if not (base.symmetric and base.unimodal):
        return _replayed({
            "type": "hypothesis_violation",
            "reason": "base must be unimodal and symmetric",
            "symmetric": bool(base.symmetric),
            "unimodal": bool(base.unimodal),
        })
    return _replayed(_scale_certificate(thetas, iff=True), center)


def jm_verdict_elliptical(sigmas, mus, g: CharacteristicGenerator) -> MixabilityVerdict:
    """JM when the scale inequality holds.  When it fails, the marginals of
    every supported generator, normal variance mixtures, have
    unimodal-symmetric densities, so the iff criterion for location-scale
    families applies and the verdict is NotJM."""
    sigmas = [float(s) for s in sigmas]
    center = _joint_center(mus, len(sigmas))
    cert = {**_scale_certificate(sigmas, iff=False), "generator": g.spec()}
    if replay_certificate(cert) != JM:
        cert.update(iff=True, unimodal_fallback=True)
    return _replayed(cert, center)


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
        if not fam.symmetric:
            raise HypothesisViolation("families must be symmetric")
    point = n * a / (n + 1.0)
    threshold = (n + 1.0) / (2.0 * n + 1.0)
    cdf_values = [float(fam.cdf(point)) for fam in families]
    # contrapositive of the necessary condition: some central mass must be
    # large if the tuple were JM
    central = [float(fam.cdf(point) - fam.cdf(-point)) for fam in families]
    cert = {
        "type": "bounded_symmetric",
        "a": a,
        "n": n,
        "evaluation_point": point,
        "cdf_values": cdf_values,
        "threshold": threshold,
        "central_masses": central,
        "central_mass_threshold": 1.0 / (2.0 * n + 1.0),
        "any_central_mass_exceeds": any(c > 1.0 / (2.0 * n + 1.0) for c in central),
    }
    return _replayed(cert)


def not_jm_unbounded_symmetric(families, a_grid) -> MixabilityVerdict:
    """2n+1 symmetric densities on the line: NotJM when some a > 0 satisfies
    F_i(a) - F_i(n a/(n+1)) >= n/(2n+1) for all i.  The existential a is
    searched over the supplied grid only; absence yields Unknown."""
    n = _odd_count(families)
    for fam in families:
        if not fam.symmetric:
            raise HypothesisViolation("families must be symmetric")
    threshold = n / (2.0 * n + 1.0)
    grid = [float(a) for a in a_grid]
    cert = {
        "type": "unbounded_symmetric",
        "n": n,
        "threshold": threshold,
        "a_grid": grid,
        "witness_a": None,
        "witness_masses": None,
    }
    for a in grid:
        if a <= 0:
            continue
        masses = [float(fam.cdf(a) - fam.cdf(n * a / (n + 1.0))) for fam in families]
        if all(m >= threshold for m in masses):
            cert["witness_a"] = a
            cert["witness_masses"] = masses
            return MixabilityVerdict(NOT_JM, certificate=cert)
    return MixabilityVerdict(UNKNOWN, certificate=cert)


def default_a_grid(sigmas, points: int = 64):
    """Log-spaced search grid for the unbounded-symmetric certificate."""
    import numpy as np

    sigmas = [float(s) for s in sigmas]
    lo = min(sigmas) / 10.0
    hi = 10.0 * max(sigmas)
    return list(np.geomspace(lo, hi, points))


# ---------------------------------------------------------------------------
# Skew-normal family certificates
# ---------------------------------------------------------------------------

def _skewnormal_bound(cdf_term: float, n: int, neg_prob: float) -> float:
    return cdf_term + (n - 1) * neg_prob


def skewnormal_noncm_certificate(n: int, lam: float) -> MixabilityVerdict:
    """Not n-CM when F_Y(n E) + (n-1) P(Y < 0) < 1 for Y ~ SN(0, 1, |lam|),
    E the skew-normal mean.  At lam = 0 the bound can never fire."""
    from .families import SkewNormal

    if n < 2:
        raise ValueError("n must be at least 2")
    lam_abs = abs(float(lam))
    sn = SkewNormal(0.0, 1.0, lam_abs)
    mean = sn.mean()
    cdf_term = float(sn.cdf(n * mean))
    neg_prob = 0.5 - math.atan(lam_abs) / math.pi
    cert = {
        "type": "skew_normal",
        "n": int(n),
        "lam": float(lam),
        "mean": mean,
        "cdf_term": cdf_term,
        "neg_prob": neg_prob,
        "bound": _skewnormal_bound(cdf_term, int(n), neg_prob),
    }
    return _replayed(cert)


def skewnormal_threshold(n: int, lo: float = 0.0, hi: float = 1e8, tol: float = 1e-6) -> float:
    """Least |lambda| at which the certificate fires, by bisection.

    A numeric exploration aid, not a claim about the true CM threshold.
    """
    if skewnormal_noncm_certificate(n, hi).verdict != NOT_JM:
        return math.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if skewnormal_noncm_certificate(n, mid).verdict == NOT_JM:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return hi


def ssmn_noncm_certificate(n: int, lam: float, atoms) -> MixabilityVerdict:
    """SSMN with finite discrete H: certify NotJM only when the skew-normal
    bound fires at lambda * v for every atom v of H."""
    atoms = [(float(v), float(p)) for v, p in atoms]
    if any(v <= 0 for v, _ in atoms):
        raise ValueError("H atoms must be positive")
    sub = [
        {"atom": v, "prob": p, "certificate": skewnormal_noncm_certificate(n, lam * v).certificate}
        for v, p in atoms
    ]
    return _replayed({"type": "ssmn", "n": int(n), "lam": float(lam), "atoms": sub})


# ---------------------------------------------------------------------------
# Certificate replay
# ---------------------------------------------------------------------------

def replay_certificate(cert: dict) -> str:
    """Recompute the verdict from a certificate's stored numeric inputs."""
    kind = cert.get("type")
    if kind == "scale_inequality":
        if _scale_inequality_holds(cert["thetas"]):
            return JM
        if cert.get("iff"):
            return NOT_JM
        return UNKNOWN
    if kind == "bounded_symmetric":
        if all(v <= cert["threshold"] for v in cert["cdf_values"]):
            return NOT_JM
        return UNKNOWN
    if kind == "unbounded_symmetric":
        masses = cert.get("witness_masses")
        if masses is not None and all(m >= cert["threshold"] for m in masses):
            return NOT_JM
        return UNKNOWN
    if kind == "skew_normal":
        bound = _skewnormal_bound(cert["cdf_term"], cert["n"], cert["neg_prob"])
        return NOT_JM if bound < 1.0 else UNKNOWN
    if kind == "ssmn":
        if cert["atoms"] and all(
            replay_certificate(entry["certificate"]) == NOT_JM for entry in cert["atoms"]
        ):
            return NOT_JM
        return UNKNOWN
    if kind == "hypothesis_violation":
        return UNKNOWN
    if kind == "oracle_evidence":
        return UNKNOWN
    raise ValueError(f"unknown certificate type {kind!r}")
