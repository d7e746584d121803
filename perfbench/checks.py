"""Checks of jointmix outputs, computed apart from jointmix.

Every check recomputes what the program claims from a closed form, from a
scipy routine that jointmix does not call for that quantity, or from a
property the method must have, and raises ``CheckFailed`` on disagreement.
Nothing here imports jointmix.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import special, stats

EXIT_CODE = {"JM": 0, "NotJM": 1, "Unknown": 2}

# |F_ref(q_k) - p_k| allowed for a quantile the program finds by bisection.
QUANTILE_TOL = 1e-7
# |bound - bound_ref| allowed for a skew-normal certificate; the program's
# quadrature is within 2.3e-9 of Owen's T for lambda <= 100.
SN_BOUND_TOL = 1e-8
# Closed-form values the program evaluates with the same formula.
CLOSED_FORM_TOL = 1e-12
# Row sums must sit within ROW_SUM_REL * (1 + sum_j |x_ij|) of the center.
ROW_SUM_REL = 1e-12
# A column fails its Kolmogorov-Smirnov test below this p-value.
KS_ALPHA = 1e-6


class CheckFailed(Exception):
    """An output disagrees with its independent recomputation."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def exact_sum(values) -> float:
    """Correctly rounded sum of decimal-exact inputs."""
    return float(sum(Fraction(v) for v in values))


def _verdict_code(code, out):
    require(out["verdict"] in EXIT_CODE, f"unknown verdict {out['verdict']!r}")
    require(
        code == EXIT_CODE[out["verdict"]],
        f"exit code {code} does not encode verdict {out['verdict']}",
    )


def _side(value, threshold, tol):
    """-1 / +1 when value is clearly below / above threshold, 0 when within tol."""
    if value < threshold - tol:
        return -1
    if value > threshold + tol:
        return 1
    return 0


# ---------------------------------------------------------------------------
# Reference CDFs, keyed by the column specs the workloads build families from
# ---------------------------------------------------------------------------

def slash_normal_std_cdf(z, q):
    """CDF of Z / U^(1/q), Z standard normal, U uniform(0,1).

    Integrating int_0^1 Phi(z u^(1/q)) du by parts gives
    Phi(z) - sign(z) 2^((q-1)/2) Gamma((q+1)/2) P((q+1)/2, z^2/2) / (sqrt(2 pi) |z|^q).
    """
    z = np.asarray(z, dtype=float)
    az = np.where(z == 0.0, 1.0, np.abs(z))
    s = 0.5 * (q + 1.0)
    tail = (
        2.0 ** (0.5 * (q - 1.0))
        * special.gamma(s)
        * special.gammainc(s, 0.5 * az * az)
        / (math.sqrt(2.0 * math.pi) * az**q)
    )
    return np.where(z == 0.0, 0.5, special.ndtr(z) - np.sign(z) * tail)


def _skewnorm_cdf(x, mu, sigma, lam):
    return stats.skewnorm.cdf(x, lam, loc=mu, scale=sigma)


def reference_cdf(kind, p):
    """Vectorized CDF of the column described by ``(kind, p)``."""
    if kind == "uniform":
        return lambda x: np.clip((x - p["lo"]) / (p["hi"] - p["lo"]), 0.0, 1.0)
    if kind == "bimodal_power":
        k = 2 * p["r"] + 1
        a = p["a"]
        return lambda x: (np.clip(x, -a, a) ** k + a**k) / (2.0 * a**k)
    if kind == "student_t":
        return lambda x: stats.t.cdf(x, p["nu"], loc=p["mu"], scale=p["sigma"])
    if kind == "kotz":
        # m |Z|^(2 beta) ~ Gamma((2N - 1) / (2 beta)) for the standardized Z
        s = (2.0 * p["N"] - 1.0) / (2.0 * p["beta"])

        def kotz(x):
            z = (x - p.get("mu", 0.0)) / p.get("sigma", 1.0)
            return 0.5 + 0.5 * np.sign(z) * stats.gamma.cdf(p["m"] * np.abs(z) ** (2.0 * p["beta"]), s)

        return kotz
    if kind == "skew_normal":
        return lambda x: _skewnorm_cdf(x, p["mu"], p["sigma"], p["lam"])
    if kind == "ssmn":
        return lambda x: sum(
            w * _skewnorm_cdf(x, p["mu"], p["sigma"] * v, p["lam"] * v) for v, w in p["atoms"]
        )
    if kind == "pearson_vii":
        # Pearson VII(N, m) is Student t with nu = 2N - 1 scaled by sqrt(m / nu).
        nu = 2.0 * p["N"] - 1.0
        scale = p["sigma"] * math.sqrt(p["m"] / nu)
        return lambda x: stats.t.cdf(x, nu, loc=p["mu"], scale=scale)
    if kind == "discrete_mixture":
        return lambda x: sum(
            w * special.ndtr((x - p["mu"]) / (p["sigma"] * s)) for w, s in p["atoms"]
        )
    if kind == "slash_normal":
        return lambda x: slash_normal_std_cdf((x - p["mu"]) / p["sigma"], p["q"])
    raise ValueError(f"no reference CDF for {kind!r}")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def check_polygon_verdict(sigmas, mus, code, out):
    """Elliptical ``check``: JM exactly when sum >= 2 max, in exact arithmetic."""
    fr = [Fraction(s) for s in sigmas]
    verdict = "JM" if sum(fr) >= 2 * max(fr) else "NotJM"
    require(out["verdict"] == verdict, f"verdict {out['verdict']} for sigmas {sigmas}, expected {verdict}")
    _verdict_code(code, out)
    if verdict == "JM":
        require(
            out["joint_center"] == exact_sum(mus),
            f"joint_center {out['joint_center']!r} != sum(mus) {exact_sum(mus)!r}",
        )
    else:
        require(out["joint_center"] is None, "NotJM verdict carries a joint center")


def check_bounded_certificate(code, out, copies, a, cdf):
    """Examples 2.3 / 2.4: CDF values at n a/(n+1) against ``cdf``, and the
    verdict against the threshold (n+1)/(2n+1)."""
    _verdict_code(code, out)
    cert = out["certificate"]
    n = (copies - 1) // 2
    point = n * a / (n + 1.0)
    threshold = (n + 1.0) / (2.0 * n + 1.0)
    require(cert["n"] == n, f"certificate n {cert['n']} != {n}")
    require(abs(cert["evaluation_point"] - point) <= CLOSED_FORM_TOL, "wrong evaluation point")
    require(abs(cert["threshold"] - threshold) <= CLOSED_FORM_TOL, "wrong threshold")
    ref = float(cdf(point))
    values = cert["cdf_values"]
    require(len(values) == copies, f"{len(values)} cdf values for {copies} copies")
    for v in values:
        require(abs(v - ref) <= CLOSED_FORM_TOL, f"cdf value {v!r} != reference {ref!r}")
    side = _side(ref, threshold, CLOSED_FORM_TOL)
    if side < 0:
        require(out["verdict"] == "NotJM", f"verdict {out['verdict']} with cdf {ref} <= threshold")
    elif side > 0:
        require(out["verdict"] == "Unknown", f"verdict {out['verdict']} with cdf {ref} > threshold")


def check_unbounded_certificate(code, out, copies, cdf):
    """Examples 2.2 / 3.2: the first grid point a whose masses
    F(a) - F(n a/(n+1)) all reach n/(2n+1) is the witness; none means Unknown."""
    _verdict_code(code, out)
    cert = out["certificate"]
    n = (copies - 1) // 2
    threshold = n / (2.0 * n + 1.0)
    witness = None
    for a in cert["a_grid"]:
        mass = float(cdf(a) - cdf(n * a / (n + 1.0)))
        side = _side(mass, threshold, CLOSED_FORM_TOL)
        if side == 0:
            return  # too close to call; any verdict is defensible
        if side > 0:
            witness = a
            require(cert["witness_masses"] is not None, "witness masses missing")
            for m in cert["witness_masses"]:
                require(abs(m - mass) <= CLOSED_FORM_TOL, f"witness mass {m!r} != reference {mass!r}")
            break
    require(cert["witness_a"] == witness, f"witness {cert['witness_a']!r}, expected {witness!r}")
    require(out["verdict"] == ("NotJM" if witness is not None else "Unknown"), "verdict disagrees with witness")


def check_location_scale_jm(code, out, copies):
    """Example 3.1: equal unit scales always close the polygon for copies >= 2."""
    _verdict_code(code, out)
    require(out["verdict"] == "JM", f"verdict {out['verdict']} for {copies} equal scales")
    require(out["joint_center"] == 0.0, "joint center of centred copies is not 0")


def bimodal_moment_cdf(m):
    return lambda x: 0.5 + 0.5 * np.sign(x) * special.betainc(m + 0.5, 0.5, np.square(x))


def bimodal_power_cdf(a, r):
    return reference_cdf("bimodal_power", {"a": a, "r": r})


def two_interval_cdf(a):
    """Example 2.2: equal mixture of U(-a, -0.9a) and U(0.9a, a)."""
    w = 0.1 * a
    return lambda x: 0.5 * np.clip((x + a) / w, 0.0, 1.0) + 0.5 * np.clip((x - 0.9 * a) / w, 0.0, 1.0)


def kotz_cdf(N, m, beta):
    return reference_cdf("kotz", {"N": N, "m": m, "beta": beta})


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------

def sn_bound_ref(n, lam):
    """F_Y(n E Y) + (n - 1) P(Y < 0) for Y ~ SN(0, 1, |lam|), from scipy's
    Owen's-T based skew-normal CDF."""
    lam = abs(float(lam))
    mean = float(stats.skewnorm.mean(lam))
    return float(stats.skewnorm.cdf(n * mean, lam) + (n - 1) * stats.skewnorm.cdf(0.0, lam))


def inclusive_range(lo, hi, step):
    out = []
    v = lo
    while v <= hi + 1e-12:
        out.append(v)
        v += step
    return out


def _parse_csv(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [[float(c) for c in ln.split(",")] for ln in lines[1:]]


def check_explore_skew(code, text, ns, lams):
    require(code == 0, f"explore exited {code}")
    header, rows = _parse_csv(text)
    require(header == ["n", "lambda", "bound", "fires"], f"header {header}")
    grid = [(n, lam) for n in ns for lam in lams]
    require([(r[0], r[1]) for r in rows] == grid, "grid rows differ from the requested grid")
    for n, lam, bound, fires in rows:
        ref = sn_bound_ref(int(n), lam)
        require(abs(bound - ref) <= SN_BOUND_TOL, f"bound {bound!r} != reference {ref!r} at n={n}, lambda={lam}")
        side = _side(ref, 1.0, SN_BOUND_TOL)
        if side != 0:
            require(fires == (1 if side < 0 else 0), f"fires={fires} at n={n}, lambda={lam}, bound {ref}")


def check_explore_bimodal(code, text, ms, ns):
    require(code == 0, f"explore exited {code}")
    header, rows = _parse_csv(text)
    require(header == ["m", "n", "max_cdf_value", "threshold", "fires"], f"header {header}")
    require([(r[0], r[1]) for r in rows] == [(m, n) for m in ms for n in ns], "grid rows differ")
    for m, n, value, threshold, fires in rows:
        ref = float(bimodal_moment_cdf(int(m))(n / (n + 1.0)))
        require(abs(value - ref) <= CLOSED_FORM_TOL, f"max_cdf_value {value!r} != reference {ref!r}")
        thr = (n + 1.0) / (2.0 * n + 1.0)
        require(abs(threshold - thr) <= CLOSED_FORM_TOL, f"threshold {threshold!r} != {thr!r}")
        side = _side(ref, thr, CLOSED_FORM_TOL)
        if side != 0:
            require(fires == (1 if side < 0 else 0), f"fires={fires} at m={m}, n={n}")


# ---------------------------------------------------------------------------
# oracle (CLI)
# ---------------------------------------------------------------------------

def check_oracle_summary(code, out, m, copies, restarts, max_sweeps):
    require(code == 0, f"oracle exited {code}")
    require(out["m"] == m and out["n"] == copies, f"grid {out['m']}x{out['n']} != {m}x{copies}")
    require(out["restarts"] == restarts, "restart count differs")
    require(isinstance(out["converged"], bool), "converged is not a bool")
    require(1 <= out["iterations"] <= max_sweeps, f"iterations {out['iterations']} out of range")
    spread, std = out["spread"], out["stddev"]
    # a standard deviation never exceeds half the range
    require(0.0 <= 2.0 * std <= spread * (1 + 1e-12) + 1e-15, f"stddev {std} vs spread {spread}")


# ---------------------------------------------------------------------------
# sample / verify
# ---------------------------------------------------------------------------

def check_sample_csv(code, path, rows, mus, cdfs):
    """Parse the CSV apart from the program and check header, row count,
    %.17g round trip, per-row constant sum and each column's marginal."""
    require(code == 0, f"sample exited {code}")
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        body = fh.read()
    n = len(mus)
    require(header == [f"X{i + 1}" for i in range(n)], f"header {header}")
    cells = body.replace("\n", ",").rstrip(",").split(",")
    require(len(cells) == rows * n, f"{len(cells)} cells, expected {rows} x {n}")
    x = np.array(cells, dtype=float)
    require(all("%.17g" % v == c for v, c in zip(x.tolist(), cells)), "a cell does not round-trip through %.17g")
    x = x.reshape(rows, n)
    center = exact_sum(mus)
    dev = np.abs(x.sum(axis=1) - center) - ROW_SUM_REL * (1.0 + np.abs(x).sum(axis=1))
    require(np.all(dev <= 0), f"row {int(np.argmax(dev))} does not sum to {center}")
    for j, cdf in enumerate(cdfs):
        p = stats.kstest(x[:, j], cdf).pvalue
        require(p >= KS_ALPHA, f"column X{j + 1} fails KS against its marginal (p={p:.3g})")


def check_verify_report(code, out, rows, center):
    require(code == 0, f"verify exited {code}")
    require(out["rows"] == rows, f"verify read {out['rows']} rows, wrote {rows}")
    require(out["passed"] is True, "verify did not pass")
    require(out["claimed_center"] == center, "claimed center differs")


# ---------------------------------------------------------------------------
# quantile grids and rearrangement
# ---------------------------------------------------------------------------

def check_quantile_grid(values, cdfs, tol=QUANTILE_TOL):
    m, n = values.shape
    require(n == len(cdfs), "column count differs")
    probs = (np.arange(m) + 0.5) / m
    for j, cdf in enumerate(cdfs):
        col = values[:, j]
        require(np.all(np.diff(col) >= 0), f"column {j} is not sorted")
        err = float(np.max(np.abs(cdf(col) - probs)))
        require(err <= tol, f"column {j}: |F(q_k) - p_k| reaches {err:.3g}")


def min_spread_brute_force(values):
    """Least row-sum range over all column permutations (column 0 fixed)."""
    m, n = values.shape
    require(m <= 6 and n <= 3, "brute force is limited to m <= 6, n <= 3")
    perms = np.array(list(itertools.permutations(range(m))))
    last = values[perms, n - 1]  # (m!, m)
    best = math.inf
    for mid in itertools.product(perms, repeat=n - 2):
        partial = values[:, 0].copy()
        for j, p in enumerate(mid, start=1):
            partial += values[p, j]
        sums = partial[None, :] + last
        best = min(best, float(np.min(sums.max(axis=1) - sums.min(axis=1))))
    return best


def check_rearrangement(values, result, arranged, brute_optimum=None):
    """``arranged`` is ``result.apply(grid)``."""
    m, n = values.shape
    perms = np.asarray(result.permutations)
    require(perms.shape == (n, m), f"permutations shape {perms.shape}")
    for j in range(n):
        require(np.array_equal(np.sort(perms[j]), np.arange(m)), f"column {j} index is not a permutation")
    own = np.column_stack([values[perms[j], j] for j in range(n)])
    require(np.array_equal(own, arranged), "apply() differs from indexing the grid by the permutations")
    sums = own.sum(axis=1)
    scale = 1.0 + float(np.max(np.abs(values)) * n)
    spread = float(sums.max() - sums.min())
    require(abs(spread - result.row_sum_spread) <= 1e-12 * scale, f"spread {result.row_sum_spread} != {spread}")
    require(abs(float(np.std(sums)) - result.row_sum_stddev) <= 1e-12 * scale, "stddev differs")
    require(
        abs(float(sums.mean()) - float(values.mean(axis=0).sum())) <= 1e-12 * scale,
        "row-sum mean differs from the sum of column means",
    )
    traj = np.asarray(result.variance_trajectory)
    require(traj.size >= 1, "empty variance trajectory")
    require(np.all(np.diff(traj) <= 1e-12 * (1.0 + traj[0])), "variance trajectory increases")
    if brute_optimum is not None:
        require(spread >= brute_optimum - 1e-12 * scale, f"spread {spread} below the optimum {brute_optimum}")


# ---------------------------------------------------------------------------
# certificates and generators
# ---------------------------------------------------------------------------

def check_skewnormal_certificate(verdict, n, lam):
    cert = verdict.certificate
    ref = sn_bound_ref(n, lam)
    require(abs(cert["bound"] - ref) <= SN_BOUND_TOL, f"bound {cert['bound']!r} != reference {ref!r} (n={n}, lam={lam})")
    side = _side(ref, 1.0, SN_BOUND_TOL)
    if side != 0:
        require(verdict.verdict == ("NotJM" if side < 0 else "Unknown"), f"verdict {verdict.verdict} (n={n}, lam={lam})")
    return side


def check_ssmn_certificate(verdict, n, lam, atoms):
    entries = verdict.certificate["atoms"]
    require([(e["atom"], e["prob"]) for e in entries] == [(float(v), float(p)) for v, p in atoms], "atoms differ")
    sides = []
    for e, (v, _) in zip(entries, atoms):
        ref = sn_bound_ref(n, lam * v)
        bound = e["certificate"]["bound"]
        require(abs(bound - ref) <= SN_BOUND_TOL, f"atom {v}: bound {bound!r} != reference {ref!r}")
        sides.append(_side(ref, 1.0, SN_BOUND_TOL))
    if all(s < 0 for s in sides):
        require(verdict.verdict == "NotJM", "every atom fires but the verdict is not NotJM")
    elif any(s > 0 for s in sides):
        require(verdict.verdict == "Unknown", "an atom does not fire but the verdict is NotJM")


def check_skewnormal_threshold(n, lam):
    require(math.isfinite(lam), f"no threshold found for n={n}")
    ref = sn_bound_ref(n, lam)
    require(abs(ref - 1.0) <= 1e-7, f"bound at the threshold {lam} is {ref!r}, not 1")


def inverse_gamma_psi(a, b, u):
    """E exp(-u W / 2) for W ~ InvGamma(a, b): 2 (b u/2)^(a/2) K_a(sqrt(2 b u)) / Gamma(a)."""
    return 2.0 * (b * u / 2.0) ** (a / 2.0) * special.kv(a, math.sqrt(2.0 * b * u)) / special.gamma(a)


def check_cg_eval(value, a, b, u, tol=1e-9):
    ref = inverse_gamma_psi(a, b, u)
    require(abs(value - ref) <= tol, f"psi({u}) = {value!r}, reference {ref!r} (a={a}, b={b})")
