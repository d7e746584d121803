"""Command-line front end: verdicts, sampling, verification, exploration.

Exit codes of ``check`` encode the verdict (0 = JM, 1 = NotJM, 2 = Unknown)
so shell pipelines can branch on them; malformed configs and inputs the
library rejects exit 64, IO failures exit 66, and any other exception, a
fault of the program, exits 70 with its traceback on stderr.  Every run is
reproducible from (config, seed), and the effective config is echoed into
each output sidecar.
"""

from __future__ import annotations

import argparse
import contextlib
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
EXIT_SOFTWARE = 70

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


def _numbers(value, what):
    """A JSON list of numbers, or a comma-separated string of them, as floats."""
    if isinstance(value, str):
        value = [tok for tok in value.split(",") if tok != ""]
    if not isinstance(value, list):
        raise CliError(f"{what} must be a list or a comma-separated string, not {value!r}")
    try:
        return [float(v) for v in value]
    except (TypeError, ValueError) as exc:
        raise CliError(f"cannot parse {what} {value!r} as numbers") from exc


def _rows(value, what):
    """A JSON list of number lists, such as H's [value, probability] atoms."""
    if not isinstance(value, list):
        raise CliError(f"{what} must be a list of number lists, not {value!r}")
    return [_numbers(row, f"a row of {what}") for row in value]


_KINDS = {bool: "true or false", int: "an integer", float: "a number"}


def _settings(args):
    """Lay the ``--config`` JSON object over the parsed flags, in place.

    A config key sets the flag, or config-only default, of the same name and
    wins over it.  A key that is no setting of the subcommand, or a value of
    the wrong type for a number or on/off setting, is a usage error.
    Returns the settings that ran, for a sidecar to echo.
    """
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config: {exc}") from exc
        if not isinstance(cfg, dict):
            raise CliError("config must be a JSON object")
    settings = vars(args)
    for key, value in cfg.items():
        if key in ("command", "config", "func") or key not in settings:
            raise CliError(f"config key {key!r} is not a setting of {args.command}")
        kind = type(settings[key])
        if kind in _KINDS:  # strings, lists and specs are parsed by the command
            # is_integer() is False for inf and nan, so int() cannot overflow
            if (isinstance(value, bool) != (kind is bool) or not isinstance(value, (int, float))
                    or kind is int and isinstance(value, float) and not value.is_integer()):
                raise CliError(f"{key} must be {_KINDS[kind]}, not {value!r}")
            try:
                value = kind(value)
            except OverflowError as exc:  # an integer past the float range
                raise CliError(f"{key} must be {_KINDS[kind]}, not {value!r}") from exc
        settings[key] = value
    echo = {k: v for k, v in settings.items() if k != "func" and v is not None}
    echo["config_file"] = cfg
    return echo


def _from_spec(build, spec, what):
    """``build(spec)``; a malformed spec is a usage error, not a traceback."""
    try:
        return build(spec)
    except (TypeError, ValueError) as exc:  # GeneratorError, FamilyError are ValueErrors
        raise CliError(f"bad {what}: {exc}") from exc


def _generator(spec):
    if isinstance(spec, dict):
        return _from_spec(CharacteristicGenerator.from_spec, spec, "generator")
    return _from_spec(CharacteristicGenerator.parse, str(spec), "generator")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _example_verdict(args):
    from .families import BimodalMoment, BimodalPower, GeneralizedLogistic
    from .families import KotzType, MixtureFamily, Uniform

    name, a, copies = args.example, args.a, args.copies
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
        fam = BimodalPower(a, args.r)
        return mixability.not_jm_bounded_symmetric([fam] * copies, a)
    if name == "2.4":
        fam = BimodalMoment(args.m)
        return mixability.not_jm_bounded_symmetric([fam] * copies, 1.0)
    if name == "3.1":
        fam = GeneralizedLogistic(args.alpha, args.beta)
        return mixability.jm_verdict_unimodal_location_scale(
            fam, [1.0] * copies, [0.0] * copies
        )
    if name == "3.2":
        fam = KotzType(args.N, args.m_k, args.beta_k)
        grid = mixability.default_a_grid([1.0])
        return mixability.not_jm_unbounded_symmetric([fam] * copies, grid)
    raise CliError(f"unknown example {name!r}")


def cmd_check(args):
    _settings(args)
    if args.example:
        verdict = _example_verdict(args)
    else:
        if args.sigmas is None:
            raise CliError("check needs --sigmas or --example")
        sigmas = _numbers(args.sigmas, "sigmas")
        if not sigmas:
            raise CliError("empty sigma list")
        mus = [0.0] * len(sigmas) if args.mus is None else _numbers(args.mus, "mus")
        if len(mus) != len(sigmas):
            raise CliError("mus and sigmas must have equal length")
        verdict = mixability.jm_verdict_elliptical(sigmas, mus, _generator(args.generator))
    print(verdict.to_json())
    return _VERDICT_EXIT[verdict.verdict]


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(args):
    import numpy as np

    from . import couplings
    from .families import Elliptical, family_from_spec

    settings = _settings(args)
    kind, n, p, count, seed = args.coupling, args.n, args.p, args.count, args.seed
    if not isinstance(args.output, str):
        raise CliError("sample needs an --output path")
    g = _generator(args.generator)
    try:
        if kind == "elliptical" or kind == "slash":
            sigmas = _numbers(args.sigmas or "", "sigmas")
            if not sigmas:
                raise CliError("sample needs --sigmas")
            mus = _numbers(args.mus, "mus") if args.mus else [0.0] * len(sigmas)
            if kind == "elliptical":
                batch = couplings.sample_jm_elliptical(mus, sigmas, g, count, seed)
            else:
                batch = couplings.sample_jm_slash(mus, sigmas, g, args.q, count, seed)
        elif kind == "scale_mixture":
            base = (Elliptical(args.mu, args.sigma, g) if args.base is None
                    else _from_spec(family_from_spec, args.base, "family spec"))
            atoms = _rows([[1.0, 1.0]] if args.H is None else args.H, "H")
            batch = couplings.sample_cm_scale_mixture(base, atoms, n, count, seed)
        elif kind == "matrix":
            if args.with_sum:
                raise CliError("--with-sum is not available for the matrix coupling")
            sigma_p = np.eye(p) if args.sigma_p is None else _rows(args.sigma_p, "sigma_p")
            batch = couplings.sample_matrix_variate_cm(p, np.asarray(sigma_p), g, n, count, seed)
        else:
            raise CliError(f"unknown coupling {kind!r}")
    except couplings.PolygonInequalityError as exc:
        raise CliError(str(exc), 1) from exc
    batch.metadata["config"] = settings
    batch.write_csv(args.output, include_sum=args.with_sum)
    batch.write_sidecar(args.output + ".json")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args):
    import numpy as np

    from . import oracle

    oracle._check_center_tol(args.center, args.rel_tol)  # a usage error before any I/O
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
        raise CliError(f"cannot read CSV: {exc}", EXIT_IO) from exc
    if not rows.shape[0]:
        raise CliError("empty CSV", EXIT_IO)
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
        ns = _parse_range(args.n_grid)
        lams = _parse_range(args.lambda_grid)
        _grid_size_check(ns, lams)
        header = ["n", "lambda", "bound", "fires"]
        for n in ns:
            for lam in lams:
                res = mixability.skewnormal_noncm_certificate(n, lam)
                rows.append(
                    [n, lam, res.certificate["bound"], int(res.verdict == mixability.NOT_JM)]
                )
    else:  # bimodal
        ms, ns = _parse_range(args.m_grid), _parse_range(args.n_grid)
        _grid_size_check(ms, ns)
        if not all(n.is_integer() for n in ns):
            raise CliError(f"bimodal n must be whole numbers, not {args.n_grid!r}")
        header = ["m", "n", "max_cdf_value", "threshold", "fires"]
        for m in ms:
            for n in ns:
                fam = BimodalMoment(m)
                res = mixability.not_jm_bounded_symmetric([fam] * (2 * int(n) + 1), 1.0)
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
    with open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout) as target:
        writer = csv.writer(target)
        writer.writerow(header)
        for row in rows:
            writer.writerow([("%.17g" % v) if isinstance(v, float) else str(v) for v in row])
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def cmd_oracle(args):
    from . import oracle
    from .families import BimodalPower, Uniform, family_from_spec

    _settings(args)
    if args.families is not None:
        fams = _from_spec(lambda ds: list(map(family_from_spec, ds)), args.families, "family spec")
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
    p_check.add_argument("--family", dest="generator", default="normal",
                         help="generator, e.g. student_t:3")
    p_check.add_argument("--sigmas")
    p_check.add_argument("--mus")
    p_check.add_argument("--example", help="named preset: 2.1 .. 3.2")
    p_check.add_argument("--a", type=float, default=1.0)
    p_check.add_argument("--r", type=int, default=1)
    p_check.add_argument("--m", type=int, default=1)
    p_check.add_argument("--copies", type=int, default=3)
    p_check.add_argument("--config")
    # settings only a config sets: the parameters of examples 3.1 and 3.2
    p_check.set_defaults(func=cmd_check, alpha=1.0, beta=1.0, N=2.0, m_k=1.0, beta_k=1.0)

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
    # config only: a base family spec, the atoms of H and the p x p scale
    p_sample.set_defaults(func=cmd_sample, base=None, H=None, sigma_p=None)

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
    p_oracle.set_defaults(func=cmd_oracle, families=None)  # config only

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
    except OSError as exc:  # an output that cannot be written, such as one in a missing directory
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception:
        # a fault of the program: never Python's status 1, which is NotJM
        import traceback

        traceback.print_exc()
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
