"""Per-layer timings for the traced run.

Each metric times calls into one public function of one jointmix module,
inside a span named after that function, on a fixed input size given in the
metric's description in README.md.  The CLI import is timed in fresh
interpreters.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time

import numpy as np

from jointmix import cli, couplings, generators, mixability, oracle
from jointmix.generators import CharacteristicGenerator

import workloads
from worker import CliRunner

IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import jointmix.cli; "
    "print(time.perf_counter() - t, len(sys.modules))"
)
QUANTILE_M = 1000
CDF_POINTS = 10_000  # scaled to 1e5 points in the metric


def _timed(tracer, name, fn, reps=1, **attrs):
    """Median seconds of ``reps`` calls of ``fn`` and the last result."""
    times = []
    for _ in range(reps):
        with tracer.span(name, **attrs):
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def run(tracer, seed, work, runner=None):
    """Every per-layer metric, as {name: (value, unit)}."""
    rng = np.random.default_rng(seed)
    runner = runner or CliRunner(work)
    m = {}

    # cli: import in fresh interpreters, then in-process main()
    imports = []
    for _ in range(3):
        with tracer.span("cli.import"):
            _, code, out, _ = runner([], python_args=["-c", IMPORT_PROBE])
        if code != 0:
            raise RuntimeError("import probe failed")
        imports.append([float(v) for v in out.split()])
    m["cli.import_s"] = (statistics.median(v[0] for v in imports), "s")
    m["cli.modules_loaded"] = (statistics.median(v[1] for v in imports), "count")
    mains = {
        "check": ["check", "--family", "student_t:3", "--sigmas", "2,1.5,1", "--mus", "1,2,3"],
        "explore": ["explore", "--mode", "skew", "--n-grid", "2:3", "--lambda-grid", "0:100:10"],
        "oracle": ["oracle", "--example", "2.3", "--m", "999"],
    }
    for name, args in mains.items():
        with contextlib.redirect_stdout(io.StringIO()):
            m[f"cli.{name}_main_s"] = (_timed(tracer, f"cli.main.{name}", lambda: cli.main(args), 3)[0], "s")

    # couplings and the CSV round trip
    g = CharacteristicGenerator.student_t(4.0)
    t_s, batch = _timed(tracer, "couplings.sample_jm_elliptical",
                        lambda: couplings.sample_jm_elliptical([1.0, 2.0, 3.0], [2.0, 1.5, 1.0], g, 1_000_000, seed))
    m["couplings.sample_elliptical_s"] = (t_s, "s")
    sig8 = [2.0, 1.0, 1.5, 0.5, 1.0, 2.0, 1.0, 1.5]
    t_s, _ = _timed(tracer, "couplings.sample_jm_slash",
                    lambda: couplings.sample_jm_slash([0.0] * 8, sig8, CharacteristicGenerator.normal(), 1.5, 250_000, seed))
    m["couplings.sample_slash_s"] = (4.0 * t_s, "s")
    m["generators.sample_mixing_s"] = (
        _timed(tracer, "generators.sample_mixing", lambda: generators.sample_mixing(g, 1_000_000, seed))[0], "s")
    m["oracle.verify_constant_sum_s"] = (
        _timed(tracer, "oracle.verify_constant_sum", lambda: oracle.verify_constant_sum(batch, 6.0, 1e-8))[0], "s")
    small = couplings.SampleBatch(batch.data[:100_000], seed, 6.0, "elliptical")
    path = work / "layer-verify.csv"
    m["couplings.write_csv_s"] = (_timed(tracer, "couplings.write_csv", lambda: small.write_csv(path))[0], "s")
    with contextlib.redirect_stdout(io.StringIO()):
        t_main, code = _timed(tracer, "cli.main.verify",
                              lambda: cli.main(["verify", "-i", str(path), "-C", "6.0"]))
    path.unlink()
    if code != 0:
        raise RuntimeError("in-process verify failed")
    t_vcs, _ = _timed(tracer, "oracle.verify_constant_sum", lambda: oracle.verify_constant_sum(small, 6.0, 1e-8))
    m["cli.verify_parse_s"] = (t_main - t_vcs, "s")

    # oracle: RA per grid class, on Student t columns
    sweeps = 0
    for mm, n in workloads.RA_CLASSES:
        fams = [workloads.make_family(k, p) for k, p in workloads.ra_columns(rng, "student_t", n)]
        grid = oracle.discretize(fams, mm)
        t_ra, res = _timed(tracer, "oracle.ra_minimize",
                           lambda: oracle.ra_minimize(grid, restarts=workloads.RA_RESTARTS, seed=seed), m=mm, n=n)
        m[f"oracle.ra_minimize_s.m{mm}_n{n}"] = (t_ra, "s")
        sweeps += res.iterations
    m["oracle.ra_sweeps"] = (sweeps, "count")
    sn = workloads.make_family("skew_normal", {"mu": 0.0, "sigma": 1.0, "lam": 5.0})
    m["oracle.discretize_s"] = (
        _timed(tracer, "oracle.discretize", lambda: oracle.discretize([sn] * 3, QUANTILE_M))[0], "s")

    # families: quantile and CDF of the bisection-backed families
    probs = (np.arange(QUANTILE_M) + 0.5) / QUANTILE_M
    for family in workloads.CERT_FAMILIES:
        fam = workloads.make_family(*workloads.certify_columns(rng, family))
        key = "slash_elliptical" if family == "slash_normal" else family
        t_q, q = _timed(tracer, "families.quantile", lambda: fam.quantile(probs), family=key)
        m[f"families.quantile_s.{key}"] = (t_q, "s")
        xs = np.linspace(q[0], q[-1], CDF_POINTS)
        t_c, _ = _timed(tracer, "families.cdf", lambda: fam.cdf(xs), family=key)
        m[f"families.cdf_s.{key}"] = (t_c * 100_000 / CDF_POINTS, "s")

    # mixability: per certificate, per threshold search
    lams = rng.uniform(0.0, 100.0, size=20)
    t_c, _ = _timed(tracer, "mixability.skewnormal_noncm_certificate",
                    lambda: [mixability.skewnormal_noncm_certificate(3, lam) for lam in lams])
    m["mixability.skewnormal_certificate_s"] = (t_c / lams.size, "s")
    atoms = [(0.5, 0.4), (1.0, 0.6)]
    t_c, _ = _timed(tracer, "mixability.ssmn_noncm_certificate",
                    lambda: [mixability.ssmn_noncm_certificate(3, lam, atoms) for lam in lams])
    m["mixability.ssmn_certificate_s"] = (t_c / lams.size, "s")
    m["mixability.skewnormal_threshold_s"] = (
        _timed(tracer, "mixability.skewnormal_threshold", lambda: mixability.skewnormal_threshold(3))[0], "s")

    # generators: psi for the inverse-gamma mixing laws
    for kind, gen in (("student_t", CharacteristicGenerator.student_t(3.0)),
                      ("pearson_vii", CharacteristicGenerator.pearson_vii(2.5, 2.0))):
        m[f"generators.cg_eval_s.{kind}"] = (
            _timed(tracer, "generators.cg_eval", lambda: generators.cg_eval(gen, 1.5), 5, kind=kind)[0], "s")
    return m
