"""The four workloads: seeded inputs, the fixed list of operations, warm-up.

Each operation is an ``Op``: ``run(tracer)`` calls jointmix and returns
(seconds spent in jointmix, output); ``check(output)`` hands the output to
``checks``.  The seed decides every input; jointmix only sees the generated
arguments.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from worker import CliRunner

from jointmix import families as fam_mod
from jointmix import generators, mixability, oracle
from jointmix.generators import CharacteristicGenerator


@dataclass
class Op:
    """``kind`` groups the operations of one kind and size, whose times
    ``worker.ops_per_s`` pools into one median."""

    name: str
    run: Callable
    check: Callable
    kind: str = ""

    def __post_init__(self):
        self.kind = self.kind or self.name


@dataclass
class Workload:
    ops: list
    runner: CliRunner | None = None
    files: tuple = ()

    def cleanup(self):
        for path in self.files:
            Path(path).unlink(missing_ok=True)
            Path(str(path) + ".json").unlink(missing_ok=True)


def build(name, seed, work):
    rng = np.random.default_rng(seed)
    return BUILDERS[name](rng, work)


def _quarters(rng, n, lo=-8, hi=8):
    return [float(v) for v in rng.integers(lo, hi + 1, size=n) * 0.25]


def _csv(values):
    return ",".join(repr(float(v)) for v in values)


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

def _cli_op(runner, name, args, check, parse=json.loads):
    """``jointmix <args>``; ``check(exit code, parse(stdout))`` judges it."""
    def run(tracer):
        with tracer.span(f"cli.{args[0]}"):
            seconds, code, out, _ = runner(args)
        return seconds, (code, out)

    return Op(name, run, lambda res: check(res[0], parse(res[1])))


def _sigma_case(rng, kind):
    """Scale lists, multiples of 0.5, that pass, touch or fail sum >= 2 max."""
    if kind == "pass":
        sig = list(rng.integers(2, 5, size=int(rng.integers(3, 7))) * 0.5)
    else:
        others = list(rng.integers(1, 7, size=int(rng.integers(1, 5))) * 0.5)
        extra = 0.0 if kind == "touch" else 0.5 * int(rng.integers(1, 4))
        sig = others + [sum(others) + extra]
        rng.shuffle(sig)
    return [float(s) for s in sig]


def cli_session(rng, work):
    runner = CliRunner(work)
    nu = float(rng.choice([1.5, 3.0, 5.0]))
    pvii = (float(rng.choice([1.5, 2.5])), float(rng.choice([1.0, 2.0])))
    ops = []
    gens = ["normal", f"student_t:{nu}", "cauchy", f"pearson_vii:{pvii[0]}:{pvii[1]}"]
    for gen, kind in zip(gens + gens[:3], ["pass", "touch", "fail", "fail", "touch", "pass", "fail"]):
        sig = _sigma_case(rng, kind)
        mus = _quarters(rng, len(sig))
        args = ["check", "--family", gen, f"--sigmas={_csv(sig)}", f"--mus={_csv(mus)}"]
        ops.append(_cli_op(
            runner, f"check-{gen.split(':')[0]}-{kind}", args,
            lambda code, out, s=sig, m=mus: checks.check_polygon_verdict(s, m, out=out, code=code),
        ))

    a22 = float(rng.choice([0.5, 1.0, 2.0]))
    c22 = int(rng.choice([3, 5]))
    ops.append(_cli_op(
        runner, "check-2.2", ["check", "--example", "2.2", "--a", a22, "--copies", c22],
        lambda code, out: checks.check_unbounded_certificate(code, out, c22, checks.two_interval_cdf(a22)),
    ))
    a23, r23 = float(rng.choice([0.5, 1.0, 2.0])), int(rng.integers(1, 4))
    c23 = int(rng.choice([3, 5, 7]))
    ops.append(_cli_op(
        runner, "check-2.3",
        ["check", "--example", "2.3", "--a", a23, "--r", r23, "--copies", c23],
        lambda code, out: checks.check_bounded_certificate(
            code, out, c23, a23, checks.bimodal_power_cdf(a23, r23)),
    ))
    m24, c24 = int(rng.integers(0, 5)), int(rng.choice([3, 5, 7]))
    ops.append(_cli_op(
        runner, "check-2.4", ["check", "--example", "2.4", "--m", m24, "--copies", c24],
        lambda code, out: checks.check_bounded_certificate(
            code, out, c24, 1.0, checks.bimodal_moment_cdf(m24)),
    ))
    c31 = int(rng.integers(2, 5))
    ops.append(_cli_op(
        runner, "check-3.1", ["check", "--example", "3.1", "--copies", c31],
        lambda code, out: checks.check_location_scale_jm(code, out, c31),
    ))
    c32 = int(rng.choice([3, 5]))
    ops.append(_cli_op(
        runner, "check-3.2", ["check", "--example", "3.2", "--copies", c32],
        lambda code, out: checks.check_unbounded_certificate(code, out, c32, checks.kotz_cdf(2.0, 1.0, 1.0)),
    ))

    n_hi = int(rng.integers(3, 5))
    lam_hi, lam_step = int(rng.choice([40, 60, 80, 100])), int(rng.choice([5, 10, 20]))
    ns = list(range(2, n_hi + 1))
    lams = checks.inclusive_range(0.0, float(lam_hi), float(lam_step))
    ops.append(_cli_op(
        runner, "explore-skew",
        ["explore", "--mode", "skew", "--n-grid", f"2:{n_hi}", "--lambda-grid", f"0:{lam_hi}:{lam_step}"],
        lambda code, out: checks.check_explore_skew(code, out, ns, lams), parse=str,
    ))
    m_hi, nb_hi = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    ops.append(_cli_op(
        runner, "explore-bimodal",
        ["explore", "--mode", "bimodal", "--m-grid", f"0:{m_hi}", "--n-grid", f"1:{nb_hi}"],
        lambda code, out: checks.check_explore_bimodal(
            code, out, list(range(m_hi + 1)), list(range(1, nb_hi + 1))),
        parse=str,
    ))

    for example, copies in (("2.3", 3), ("uniform", int(rng.choice([3, 4])))):
        m = int(rng.integers(900, 1000))
        args = ["oracle", "--example", example, "--m", m, "--copies", copies,
                "--seed", int(rng.integers(0, 2**31))]
        if example == "2.3":
            args += ["--r", int(rng.integers(1, 3))]
        ops.append(_cli_op(
            runner, f"oracle-{example}", args,
            lambda code, out, m=m, c=copies: checks.check_oracle_summary(code, out, m, c, 10, 500),
        ))

    _warm_up(runner)
    return Workload(_by_subcommand(ops), runner)


def _by_subcommand(ops):
    """Make the calls of one subcommand one kind for ``worker.ops_per_s``.

    A run holds one or a few rounds, too few for a median per call; within a
    workload the calls of one subcommand cost about the same (start-up and
    import, plus equal cell counts for sample and verify)."""
    for op in ops:
        op.kind = op.name.split("-")[0]
    return ops


def _warm_up(runner):
    """One short CLI call, so page cache and bytecode cache are filled."""
    _, code, _, _ = runner(["check", "--family", "normal", "--sigmas", "1,1,1"])
    if code != 0:
        raise RuntimeError(f"warm-up check exited {code}")


SAMPLE_T_ROWS = 100_000
SAMPLE_SLASH_ROWS = 37_500  # as many cells as the Student t file
SLASH_COLUMNS = 8


class _SampleCheck:
    """``checks.check_sample_csv`` on the first file a ``sample`` call writes.

    The call is seeded, so every later round must write the same bytes; a file
    whose digest matches the last fully checked one passes without the
    KS tests, any other file is checked in full.
    """

    def __init__(self, path, rows, mus, cdfs):
        self.path, self.rows, self.mus, self.cdfs = path, rows, mus, cdfs
        self.checked = None

    def __call__(self, code, out):
        digest = hashlib.sha256(Path(self.path).read_bytes()).digest()
        if code == 0 and digest == self.checked:
            return
        checks.check_sample_csv(code, self.path, self.rows, self.mus, self.cdfs)
        self.checked = digest


def sample_verify(rng, work):
    runner = CliRunner(work)
    nu = float(rng.choice([3.0, 4.0, 5.0, 8.0]))
    t_sig = [float(s) for s in rng.integers(2, 5, size=3) * 0.5]
    t_mus = _quarters(rng, 3)
    q = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
    s_sig = [float(s) for s in rng.integers(1, 5, size=SLASH_COLUMNS) * 0.5]
    s_sig[0] = 2.0  # max 2.0 <= sum of the other seven (>= 3.5)
    s_mus = _quarters(rng, SLASH_COLUMNS)
    cases = [
        ("t", ["--coupling", "elliptical", "--generator", f"student_t:{nu}"], t_sig, t_mus,
         SAMPLE_T_ROWS,
         [checks.reference_cdf("student_t", {"nu": nu, "mu": m, "sigma": s}) for m, s in zip(t_mus, t_sig)]),
        ("slash", ["--coupling", "slash", "--generator", "normal", "--q", q], s_sig, s_mus,
         SAMPLE_SLASH_ROWS,
         [checks.reference_cdf("slash_normal", {"q": q, "mu": m, "sigma": s}) for m, s in zip(s_mus, s_sig)]),
    ]
    ops, files = [], []
    for label, coupling, sig, mus, rows, cdfs in cases:
        path = work / f"sample-{label}.csv"
        files.append(path)
        center = checks.exact_sum(mus)
        seed = int(rng.integers(0, 2**31))
        args = ["sample", *coupling, f"--sigmas={_csv(sig)}", f"--mus={_csv(mus)}",
                "-N", rows, "--seed", seed, "-o", path]
        ops.append(_cli_op(
            runner, f"sample-{label}", args, _SampleCheck(path, rows, mus, cdfs), parse=str,
        ))
        ops.append(_cli_op(
            runner, f"verify-{label}",
            ["verify", "-i", path, f"--center={center!r}", "--rel-tol", "1e-8"],
            lambda code, out, r=rows, c=center: checks.check_verify_report(code, out, r, c),
        ))
    _warm_up(runner)
    return Workload(_by_subcommand(ops), runner, tuple(files))


# ---------------------------------------------------------------------------
# Library workloads
# ---------------------------------------------------------------------------

def make_family(kind, p):
    """The jointmix family for the column spec ``(kind, p)`` of ``checks.reference_cdf``."""
    G = CharacteristicGenerator
    if kind == "uniform":
        return fam_mod.Uniform(p["lo"], p["hi"])
    if kind == "bimodal_power":
        return fam_mod.BimodalPower(p["a"], p["r"])
    if kind == "student_t":
        return fam_mod.Elliptical(p["mu"], p["sigma"], G.student_t(p["nu"]))
    if kind == "kotz":
        return fam_mod.KotzType(p["N"], p["m"], p["beta"], p["mu"], p["sigma"])
    if kind == "skew_normal":
        return fam_mod.SkewNormal(p["mu"], p["sigma"], p["lam"])
    if kind == "ssmn":
        return fam_mod.SSMN(p["mu"], p["sigma"], p["lam"], p["atoms"])
    if kind == "pearson_vii":
        return fam_mod.Elliptical(p["mu"], p["sigma"], G.pearson_vii(p["N"], p["m"]))
    if kind == "discrete_mixture":
        return fam_mod.Elliptical(p["mu"], p["sigma"], G.discrete_mixture(p["atoms"]))
    if kind == "slash_normal":
        return fam_mod.SlashElliptical(p["mu"], p["sigma"], G.normal(), p["q"])
    raise ValueError(kind)


def _grid_op(name, specs, m, restarts=None, seed=0, brute=False):
    """discretize (and, with ``restarts``, ra_minimize) over columns ``specs``."""
    fams = [make_family(k, p) for k, p in specs]
    cdfs = [checks.reference_cdf(k, p) for k, p in specs]

    def run(tracer):
        t0 = time.perf_counter()
        with tracer.span("oracle.discretize", m=m, n=len(fams)):
            grid = oracle.discretize(fams, m)
        result = arranged = None
        if restarts:
            with tracer.span("oracle.ra_minimize", m=m, n=len(fams)):
                result = oracle.ra_minimize(grid, restarts=restarts, seed=seed)
            arranged = result.apply(grid)
        return time.perf_counter() - t0, (grid, result, arranged)

    def check(out):
        grid, result, arranged = out
        checks.check_quantile_grid(grid.values, cdfs)
        if result is not None:
            optimum = checks.min_spread_brute_force(grid.values) if brute else None
            checks.check_rearrangement(grid.values, result, arranged, optimum)

    return Op(name, run, check)


RA_CLASSES = ((1000, 3), (1000, 10), (5000, 3), (5000, 10))
RA_RESTARTS = 10


def ra_columns(rng, family, n):
    """Seeded columns.  The seed picks power-of-two scales, which leave every
    comparison and tie of the RA unchanged, and t locations; shapes are fixed,
    because they set how many sweeps the RA needs."""
    scale = float(rng.choice([0.5, 1.0, 2.0]))
    if family == "uniform":
        # equally spaced midpoints: many tied row sums
        return [("uniform", {"lo": 0.0, "hi": 2.0 * scale})] * n
    if family == "bimodal_power":
        return [("bimodal_power", {"a": scale, "r": 1})] * n
    if family == "student_t":
        # scales 1..2 in column order: max <= 2 min, so the polygon closes
        return [("student_t", {"nu": 4.0, "mu": float(mu), "sigma": scale * float(s)})
                for mu, s in zip(rng.uniform(-1, 1, size=n), np.linspace(1.0, 2.0, n))]
    if family == "kotz":
        return [("kotz", {"N": 2.0, "m": 1.0, "beta": 1.0, "mu": 0.0, "sigma": scale})] * n
    raise ValueError(family)


def ra_evidence(rng, work):
    # RA restart seeds follow the job, not --seed: they set the sweep counts
    ops = []
    for family in ("uniform", "bimodal_power", "student_t", "kotz"):
        for m, n in RA_CLASSES:
            ops.append(_grid_op(f"ra-{family}-m{m}-n{n}", ra_columns(rng, family, n), m,
                                RA_RESTARTS, seed=len(ops)))
    for family, m in (("uniform", 6), ("bimodal_power", 5)):
        ops.append(_grid_op(f"ra-{family}-m{m}-n3-brute", ra_columns(rng, family, 3), m,
                            RA_RESTARTS, seed=len(ops), brute=True))
    # warm-up: the discretize and RA paths once, small
    oracle.ra_minimize(oracle.discretize([fam_mod.Uniform(0.0, 1.0)] * 3, 50), restarts=2)
    return Workload(ops)


CERT_M = 1000
CERT_COLUMNS = 2
SLASH_Q = (1.0, 1.5, 2.0)


def certify_columns(rng, family, k=0):
    """Column ``k`` of a seeded certify job.  Scales stay near 1 and the slash
    exponent follows ``k``, since both set the bisection's cost."""
    mu, sigma = float(rng.uniform(-1, 1)), float(rng.uniform(0.8, 1.25))
    if family == "skew_normal":
        return "skew_normal", {"mu": mu, "sigma": sigma, "lam": float(rng.uniform(0.5, 100.0))}
    if family == "slash_normal":
        return "slash_normal", {"mu": mu, "sigma": sigma, "q": SLASH_Q[k % len(SLASH_Q)]}
    if family == "ssmn":
        v = float(rng.uniform(0.5, 0.9))
        return "ssmn", {"mu": mu, "sigma": sigma, "lam": float(rng.uniform(0.5, 50.0)),
                        "atoms": [(v, 0.5), (2.0 * v, 0.5)]}
    if family == "pearson_vii":
        return "pearson_vii", {"mu": mu, "sigma": sigma, "N": float(rng.choice([1.5, 2.0, 2.5, 4.0])),
                               "m": float(rng.choice([1.0, 2.0, 3.0]))}
    if family == "discrete_mixture":
        w = float(rng.uniform(0.2, 0.8))
        return "discrete_mixture", {"mu": mu, "sigma": sigma,
                                    "atoms": [(w, 1.0), (1.0 - w, float(rng.uniform(1.5, 4.0)))]}
    raise ValueError(family)


CERT_FAMILIES = ("skew_normal", "slash_normal", "ssmn", "pearson_vii", "discrete_mixture")


def _certificate_batch_op(rng):
    sn = [(int(rng.integers(2, 7)), float(rng.uniform(0.0, 100.0))) for _ in range(20)]
    ssmn = []
    for _ in range(10):
        v = float(rng.uniform(0.3, 1.0))
        ssmn.append((int(rng.integers(2, 5)), float(rng.uniform(0.0, 50.0)), [(v, 0.4), (2.0 * v, 0.6)]))

    def run(tracer):
        t0 = time.perf_counter()
        out_sn, out_ssmn = [], []
        for n, lam in sn:
            with tracer.span("mixability.skewnormal_noncm_certificate"):
                out_sn.append(mixability.skewnormal_noncm_certificate(n, lam))
        for n, lam, atoms in ssmn:
            with tracer.span("mixability.ssmn_noncm_certificate"):
                out_ssmn.append(mixability.ssmn_noncm_certificate(n, lam, atoms))
        return time.perf_counter() - t0, (out_sn, out_ssmn)

    def check(out):
        for v, (n, lam) in zip(out[0], sn):
            checks.check_skewnormal_certificate(v, n, lam)
        for v, (n, lam, atoms) in zip(out[1], ssmn):
            checks.check_ssmn_certificate(v, n, lam, atoms)

    return Op("certificates", run, check)


def _threshold_op(n):
    def run(tracer):
        t0 = time.perf_counter()
        with tracer.span("mixability.skewnormal_threshold"):
            lam = mixability.skewnormal_threshold(n)
        return time.perf_counter() - t0, lam

    return Op(f"threshold-n{n}", run, lambda lam: checks.check_skewnormal_threshold(n, lam))


def cg_cases(rng, count):
    """(generator, a, b, u) with W ~ InvGamma(a, b) worked out here from the
    generator's parameters."""
    cases = []
    for k in range(count):
        u = float(rng.uniform(0.05, 8.0))
        if k % 2 == 0:
            nu = float(rng.choice([1.5, 3.0, 5.0, 10.0]))
            cases.append((CharacteristicGenerator.student_t(nu), nu / 2.0, nu / 2.0, u))
        else:
            N, m = float(rng.choice([1.5, 2.0, 3.0])), float(rng.choice([0.5, 1.0, 2.0]))
            cases.append((CharacteristicGenerator.pearson_vii(N, m), N - 0.5, m / 2.0, u))
    return cases


def _cg_op(rng):
    cases = cg_cases(rng, 10)

    def run(tracer):
        t0 = time.perf_counter()
        vals = []
        for g, _, _, u in cases:
            with tracer.span("generators.cg_eval", kind=g.kind):
                vals.append(generators.cg_eval(g, u))
        return time.perf_counter() - t0, vals

    def check(vals):
        for v, (_, a, b, u) in zip(vals, cases):
            checks.check_cg_eval(v, a, b, u)

    return Op("cg_eval", run, check)


def certify_numerics(rng, work):
    ops = []
    for family in CERT_FAMILIES:
        same = certify_columns(rng, family, 1)
        ops.append(_grid_op(f"discretize-{family}-same", [same] * CERT_COLUMNS, CERT_M))
        ops.append(_grid_op(f"discretize-{family}-distinct",
                            [certify_columns(rng, family, k) for k in range(CERT_COLUMNS)], CERT_M))
    ops.append(_certificate_batch_op(rng))
    ops.append(_threshold_op(int(rng.integers(2, 4))))
    ops.append(_cg_op(rng))
    # warm-up: every family, certificate and generator path once, small
    for family in CERT_FAMILIES:
        oracle.discretize([make_family(*certify_columns(rng, family))], 8)
    mixability.ssmn_noncm_certificate(3, 5.0, [(1.0, 1.0)])
    generators.cg_eval(CharacteristicGenerator.student_t(3.0), 1.0)
    return Workload(ops)


BUILDERS = {
    "cli_session": cli_session,
    "sample_verify": sample_verify,
    "ra_evidence": ra_evidence,
    "certify_numerics": certify_numerics,
}
