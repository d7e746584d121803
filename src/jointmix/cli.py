"""Command-line front end: verdicts, sampling, verification, exploration.

Exit codes of ``check`` encode the verdict (0 = JM, 1 = NotJM, 2 = Unknown)
so shell pipelines can branch on them; malformed configs and inputs the
library rejects exit 64, and IO failures exit 66.  Every run is reproducible
from (config, seed), and the effective config is echoed into each output
sidecar.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings

# a scale verdict needs no more: each command imports numpy and the rest itself
from . import mixability
from .generators import CharacteristicGenerator

EXIT_JM = 0
EXIT_NOT_JM = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_IO = 66

# most values one explore range, or one explore grid, may hold
_MAX_GRID_POINTS = 10**6

_VERDICT_EXIT = {
    mixability.JM: EXIT_JM,
    mixability.NOT_JM: EXIT_NOT_JM,
    mixability.UNKNOWN: EXIT_UNKNOWN,
}


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _parse_floats(text):
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise CliError(f"cannot parse number list {text!r}") from exc


def _load_config(args):
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config: {exc}") from exc
        if not isinstance(cfg, dict):
            raise CliError("config must be a JSON object")
    return cfg


def _generator(spec):
    try:
        if isinstance(spec, dict):
            return CharacteristicGenerator.from_spec(spec)
        return CharacteristicGenerator.parse(str(spec))
    except (TypeError, ValueError) as exc:  # GeneratorError is a ValueError
        raise CliError(f"bad generator: {exc}") from exc


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _example_verdict(name, args, cfg):
    from .families import BimodalMoment, BimodalPower, GeneralizedLogistic
    from .families import KotzType, MixtureFamily, Uniform

    r = int(cfg.get("r", args.r))
    a = float(cfg.get("a", args.a))
    m = int(cfg.get("m", args.m))
    copies = int(cfg.get("copies", args.copies))
    if name == "2.1":
        fam = Uniform(-a, a)
        return mixability.not_jm_bounded_symmetric([fam] * copies, a)
    if name == "2.2":
        # symmetric density concentrated on +-[0.9a, a]
        fam = MixtureFamily(
            [Uniform(-a, -0.9 * a), Uniform(0.9 * a, a)], [0.5, 0.5], symmetric=True
        )
        return mixability.not_jm_unbounded_symmetric([fam] * copies, [a / 2, 3 * a / 4, a])
    if name == "2.3":
        fam = BimodalPower(a, r)
        return mixability.not_jm_bounded_symmetric([fam] * copies, a)
    if name == "2.4":
        fam = BimodalMoment(m)
        return mixability.not_jm_bounded_symmetric([fam] * copies, 1.0)
    if name == "3.1":
        fam = GeneralizedLogistic(cfg.get("alpha", 1.0), cfg.get("beta", 1.0))
        return mixability.jm_verdict_unimodal_location_scale(
            fam, [1.0] * copies, [0.0] * copies
        )
    if name == "3.2":
        fam = KotzType(cfg.get("N", 2.0), cfg.get("m_k", 1.0), cfg.get("beta_k", 1.0))
        grid = mixability.default_a_grid([1.0])
        return mixability.not_jm_unbounded_symmetric([fam] * copies, grid)
    raise CliError(f"unknown example {name!r}")


def cmd_check(args):
    cfg = _load_config(args)
    if args.example or cfg.get("example"):
        verdict = _example_verdict(args.example or cfg["example"], args, cfg)
    else:
        sig_text = cfg.get("sigmas") or args.sigmas
        if sig_text is None:
            raise CliError("check needs --sigmas or --example")
        sigmas = sig_text if isinstance(sig_text, list) else _parse_floats(sig_text)
        if not sigmas:
            raise CliError("empty sigma list")
        mus_text = cfg.get("mus") or args.mus
        if mus_text is None:
            mus = [0.0] * len(sigmas)
        else:
            mus = mus_text if isinstance(mus_text, list) else _parse_floats(mus_text)
        if len(mus) != len(sigmas):
            raise CliError("mus and sigmas must have equal length")
        g = _generator(cfg.get("generator") or args.family)
        try:
            verdict = mixability.jm_verdict_elliptical(sigmas, mus, g)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    print(verdict.to_json())
    return _VERDICT_EXIT[verdict.verdict]


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(args):
    import numpy as np

    from . import couplings
    from .families import Elliptical, family_from_spec

    cfg = _load_config(args)
    kind = cfg.get("coupling", args.coupling)
    seed = int(cfg.get("seed", args.seed))
    count = int(cfg.get("count", args.count))
    out = cfg.get("output", args.output)
    if out is None:
        raise CliError("sample needs --output")
    g = _generator(cfg.get("generator") or args.generator)
    try:
        if kind == "elliptical" or kind == "slash":
            sigmas = cfg.get("sigmas") or _parse_floats(args.sigmas or "")
            if not sigmas:
                raise CliError("sample needs --sigmas")
            mus = cfg.get("mus") or (
                _parse_floats(args.mus) if args.mus else [0.0] * len(sigmas)
            )
            if kind == "elliptical":
                batch = couplings.sample_jm_elliptical(mus, sigmas, g, count, seed)
            else:
                q = float(cfg.get("q", args.q))
                batch = couplings.sample_jm_slash(mus, sigmas, g, q, count, seed)
        elif kind == "scale_mixture":
            base_spec = cfg.get("base")
            base = family_from_spec(base_spec) if base_spec else Elliptical(
                args.mu, args.sigma, g
            )
            atoms = cfg.get("H", [[1.0, 1.0]])
            batch = couplings.sample_cm_scale_mixture(
                base, atoms, int(cfg.get("n", args.n)), count, seed
            )
        elif kind == "matrix":
            if args.with_sum:
                raise CliError("--with-sum is not available for the matrix coupling")
            p = int(cfg.get("p", args.p))
            sigma_p = np.asarray(cfg.get("sigma_p", np.eye(p).tolist()), dtype=float)
            mbatch = couplings.sample_matrix_variate_cm(
                p, sigma_p, g, int(cfg.get("n", args.n)), count, seed
            )
            mbatch.write_csv(out)
            sidecar = {
                "seed": seed,
                "coupling": "matrix",
                "p": p,
                "n": int(cfg.get("n", args.n)),
                "rows": count,
                "generator": g.spec(),
                "joint_center": [0.0] * p,
                "config": _echo_config(args, cfg),
            }
            with open(out + ".json", "w") as fh:
                json.dump(sidecar, fh, sort_keys=True, indent=2)
                fh.write("\n")
            return 0
        else:
            raise CliError(f"unknown coupling {kind!r}")
    except couplings.PolygonInequalityError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    batch.metadata["config"] = _echo_config(args, cfg)
    batch.write_csv(out, include_sum=args.with_sum)
    batch.write_sidecar(out + ".json")
    return 0


def _echo_config(args, cfg):
    echo = {k: v for k, v in vars(args).items() if k not in ("func",) and v is not None}
    echo["config_file"] = dict(cfg)
    return echo


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args):
    import numpy as np

    from . import oracle

    try:
        with open(args.input, newline="") as fh:
            header = next(csv.reader(fh), [])
            cols = [i for i, name in enumerate(header) if name.startswith("X")]
            if not cols:
                raise CliError(f"no X column in the header of {args.input}", EXIT_IO)
            with warnings.catch_warnings():
                # loadtxt warns on a body without rows, which is rejected below
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", usecols=cols, ndmin=2,
                                  comments=None, quotechar='"')
    except (OSError, ValueError, csv.Error) as exc:
        print(f"cannot read CSV: {exc}", file=sys.stderr)
        return EXIT_IO
    if not rows.shape[0]:
        print("empty CSV", file=sys.stderr)
        return EXIT_IO
    report = oracle.verify_constant_sum(rows, args.center, args.rel_tol)
    print(report.to_json())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------

def _parse_range(text):
    # "lo:hi" or "lo:hi:step" inclusive.  The values lo + k*step are taken
    # in decimal from the typed strings, so 0:1:0.1 gives 0.3, not
    # 0.30000000000000004; integer grids give the same floats as a sum would.
    # Values that round to the same float (a step below the float spacing)
    # are listed once.
    from decimal import Decimal, InvalidOperation

    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise CliError(f"bad range {text!r}")
    try:
        lo, hi, step = [Decimal(p) for p in parts] + [Decimal(1)] * (3 - len(parts))
        finite = all(math.isfinite(float(v)) for v in (lo, hi, step))
    except (InvalidOperation, ValueError) as exc:
        raise CliError(f"bad range {text!r}") from exc
    if not finite:
        raise CliError(f"range {text!r} must have finite ends and step")
    if step <= 0:
        raise CliError(f"range {text!r} needs a positive step")
    if hi < lo:
        return []
    count = int((hi - lo) / step) + 1
    if count > _MAX_GRID_POINTS:
        raise CliError(f"range {text!r} has more than {_MAX_GRID_POINTS} points")
    return sorted({float(lo + k * step) for k in range(count)})


def _grid_size_check(*axes):
    if math.prod(len(a) for a in axes) > _MAX_GRID_POINTS:
        raise CliError(f"explore grid has more than {_MAX_GRID_POINTS} points")


def cmd_explore(args):
    from .families import BimodalMoment

    out = args.output
    rows = []
    if args.mode == "skew":
        ns = [int(v) for v in _parse_range(args.n_grid)]
        lams = _parse_range(args.lambda_grid)
        _grid_size_check(ns, lams)
        header = ["n", "lambda", "bound", "fires"]
        for n in ns:
            for lam in lams:
                res = mixability.skewnormal_noncm_certificate(n, lam)
                rows.append(
                    [n, lam, res.certificate["bound"], int(res.verdict == mixability.NOT_JM)]
                )
    elif args.mode == "bimodal":
        ms = [int(v) for v in _parse_range(args.m_grid)]
        ns = [int(v) for v in _parse_range(args.n_grid)]
        _grid_size_check(ms, ns)
        header = ["m", "n", "max_cdf_value", "threshold", "fires"]
        for m in ms:
            for n in ns:
                fam = BimodalMoment(m)
                res = mixability.not_jm_bounded_symmetric([fam] * (2 * n + 1), 1.0)
                cert = res.certificate
                rows.append(
                    [
                        m,
                        n,
                        max(cert["cdf_values"]),
                        cert["threshold"],
                        int(res.verdict == mixability.NOT_JM),
                    ]
                )
    else:
        raise CliError(f"unknown explore mode {args.mode!r}")
    target = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.writer(target)
        writer.writerow(header)
        for row in rows:
            writer.writerow([("%.17g" % v) if isinstance(v, float) else str(v) for v in row])
    finally:
        if out:
            target.close()
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def cmd_oracle(args):
    from . import oracle
    from .families import BimodalPower, Uniform, family_from_spec

    cfg = _load_config(args)
    fam_specs = cfg.get("families")
    if fam_specs:
        fams = [family_from_spec(s) for s in fam_specs]
    elif args.example == "2.3":
        fams = [BimodalPower(args.a, args.r)] * args.copies
    elif args.example == "uniform":
        fams = [Uniform(0.0, 1.0)] * args.copies
    else:
        raise CliError("oracle needs --config families or --example")
    grid = oracle.discretize(fams, args.m)
    result = oracle.ra_minimize(
        grid, max_sweeps=args.max_sweeps, restarts=args.restarts, seed=args.seed
    )
    print(result.to_json())
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="jointmix")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="mixability verdict")
    p_check.add_argument("--family", default="normal", help="generator, e.g. student_t:3")
    p_check.add_argument("--sigmas")
    p_check.add_argument("--mus")
    p_check.add_argument("--example", help="named preset: 2.1 .. 3.2")
    p_check.add_argument("--a", type=float, default=1.0)
    p_check.add_argument("--r", type=int, default=1)
    p_check.add_argument("--m", type=int, default=1)
    p_check.add_argument("--copies", type=int, default=3)
    p_check.add_argument("--config")
    p_check.set_defaults(func=cmd_check)

    p_sample = sub.add_parser("sample", help="draw constant-sum joint samples")
    p_sample.add_argument("--coupling", default="elliptical",
                          choices=["elliptical", "slash", "scale_mixture", "matrix"])
    p_sample.add_argument("--generator", default="normal")
    p_sample.add_argument("--sigmas")
    p_sample.add_argument("--mus")
    p_sample.add_argument("--q", type=float, default=1.0)
    p_sample.add_argument("--mu", type=float, default=0.0)
    p_sample.add_argument("--sigma", type=float, default=1.0)
    p_sample.add_argument("--n", type=int, default=2)
    p_sample.add_argument("--p", type=int, default=1)
    p_sample.add_argument("-N", "--count", type=int, default=1000)
    p_sample.add_argument("--seed", type=int, default=42)
    p_sample.add_argument("--with-sum", action="store_true")
    p_sample.add_argument("--output", "-o")
    p_sample.add_argument("--config")
    p_sample.set_defaults(func=cmd_sample)

    p_verify = sub.add_parser("verify", help="check a CSV of joint draws")
    p_verify.add_argument("--input", "-i", required=True)
    p_verify.add_argument("--center", "-C", type=float, required=True)
    p_verify.add_argument("--rel-tol", type=float, default=1e-8)
    p_verify.set_defaults(func=cmd_verify)

    p_explore = sub.add_parser("explore", help="tabulate certificate grids")
    p_explore.add_argument("--mode", choices=["skew", "bimodal"], default="skew")
    p_explore.add_argument("--n-grid", default="2:6")
    p_explore.add_argument("--lambda-grid", default="0:100:1")
    p_explore.add_argument("--m-grid", default="0:5")
    p_explore.add_argument("--output", "-o")
    p_explore.set_defaults(func=cmd_explore)

    p_oracle = sub.add_parser("oracle", help="rearrangement evidence")
    p_oracle.add_argument("--example", help="'uniform' or '2.3'")
    p_oracle.add_argument("--a", type=float, default=1.0)
    p_oracle.add_argument("--r", type=int, default=1)
    p_oracle.add_argument("--copies", type=int, default=3)
    p_oracle.add_argument("--m", type=int, default=99)
    p_oracle.add_argument("--restarts", type=int, default=10)
    p_oracle.add_argument("--max-sweeps", type=int, default=500)
    p_oracle.add_argument("--seed", type=int, default=42)
    p_oracle.add_argument("--config")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; normalize to the usage code
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except ValueError as exc:
        # inputs the library rejects (HypothesisViolation, FamilyError,
        # GeneratorError, ...): a usage error, never a verdict code
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
