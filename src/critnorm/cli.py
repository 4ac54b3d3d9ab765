"""Command line front end.

Exit codes: 0 success (and, for experiments, zero violations), 1 for a
completed run that found violations (or a false admissibility answer),
2 for usage or data errors, an input too large to compute included.  For
inclusion-instance, 1 marks a suspicion: its ratio divides one battery
maximum by another, and a value above 1.05 is not evidence against the
inclusion theorem.

Each setting's option is declared once, in ``_SETTINGS``.  An experiment
offers exactly the settings it reads (``harness.READS``) plus ``--out`` and
``--format``, so an option it does not read is a usage error.  Options
are spelled in full: no parser accepts an abbreviation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .exponents import (
    CONSTANT_CHOICES,
    ExponentVector,
    ExtRational,
    InapplicableError,
    VARIANTS,
    bilinear_admissibility,
    critical_exponents,
    inclusion_exponents,
    inequality_constant,
)
from .harness import (
    READS,
    ExperimentConfig,
    run_base_hl,
    run_bilinear_law,
    run_inclusion_instance,
    run_sharpness,
    run_verify,
)
from .opnorm import ASCENT_DEFAULTS, norms
from .tensor import mixed_norm
from .witnesses import parse_form_spec

__all__ = ["main"]


def _sweep(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _decimal_list(s) -> list:
    # "inf" stays a token: strict JSON has no Infinity literal
    return ["inf" if v.is_inf else float(_fmt(float(v))) for v in s]


# The argparse keywords of each ExperimentConfig field.  An option left
# unset keeps its ExperimentConfig default.
_SETTINGS = {
    "form": {"help": "form spec, e.g. gauss:m=3 or file:tensor.json"},
    "n": {"type": int, "help": "dimension per slot for size-free specs"},
    "sweep": {"type": _sweep, "help": "comma list of dimensions, e.g. 4,8,16,32,64"},
    "variant": {"choices": VARIANTS}, "constant": {"choices": CONSTANT_CHOICES},
    "tol": {"type": float},
    **dict.fromkeys(("m", "trials", "datasets", "seed", "restarts", "max_iters"), {"type": int}),
    **dict.fromkeys(("a", "b", "r", "space"), {"type": ExtRational}),
    **dict.fromkeys(("exponents", "p", "q"), {"type": ExponentVector}),
}
# The settings an experiment that reads them cannot run without.
_REQUIRED = {"sweep", "a", "b", "m", "r", "p", "q"}

_EXPERIMENTS = {
    "verify": "check the critical inequality over trials",
    "sharpness": "fit ratio growth across dimensions",
    "bilinear-law": "check the dimension-weighted bilinear mixed-norm bound",
    "base-hl": "check the full-l_2 coefficient bound on the widened domain",
    "inclusion-instance": "compare summing quotients empirically for one (r, p, q) instance",
}


def _option(sub: argparse.ArgumentParser, dest: str, **overrides) -> None:
    """Add setting ``dest`` to ``sub``: its _SETTINGS keywords, then ``overrides``."""
    keywords = {**_SETTINGS[dest], "required": dest in _REQUIRED, **overrides}
    sub.add_argument("--" + dest.replace("_", "-"), **keywords)


def _cmd_experiment(args) -> int:
    """Run the subcommand's experiment on the config named by its options:
    every setting the experiment reads, as given, or its default if unset.
    The runner is looked up here, in this module's globals, rather than
    stored in the parser, which is built once: a runner rebound later (a
    tracing wrapper, say) is the one that runs."""
    if args.format and not args.out:
        raise ValueError("--format chooses the format of the --out report, so it needs --out")
    given = {k: getattr(args, k) for k in READS[args.command]}
    cfg = ExperimentConfig(args.command, **{k: v for k, v in given.items() if v is not None})
    runner = {"verify": run_verify, "sharpness": run_sharpness, "bilinear-law": run_bilinear_law,
              "base-hl": run_base_hl, "inclusion-instance": run_inclusion_instance}
    report = runner[args.command](cfg)
    if args.out:
        fmt = args.format or ("csv" if args.out.endswith(".csv") else "json")
        report.write(args.out, fmt)
    summary = report.summary
    parts = [f"{report.experiment}: {summary['trials']} trials",
             f"{report.violations} violations", f"max ratio {_fmt(summary['max_ratio'])}"]
    parts += [f"{key} {_fmt(summary[key])}" for key in ("constant", "slope") if key in summary]
    print(", ".join(parts))
    for rec in report.trials:
        if rec.get("violation"):
            label = rec.get("trial", rec.get("n"))
            print(f"  violation at {label}: ratio {_fmt(rec['ratio'])}")
    return 0 if report.violations == 0 else 1


def _cmd_exponents(args) -> int:
    """Print an exponent family, and the critical family's constant, from
    one payload: as one JSON object with --json, else as text lines.  All
    of it is computed before anything is printed, so an error prints none."""
    if args.r is not None or args.p is not None or args.q is not None:
        if args.r is None or args.p is None or args.q is None:
            raise ValueError("inclusion mode needs --r, --p and --q together")
        payload = {}
        s = inclusion_exponents(args.r, args.p, args.q)
    elif args.m is None:
        raise ValueError("give --m for the critical family or --r/--p/--q")
    else:
        payload = {"m": args.m, "variant": args.variant}
        s = critical_exponents(args.m, args.variant)
    payload |= {"s": [str(v) for v in s], "s_decimal": _decimal_list(s)}
    if "m" in payload:
        c = inequality_constant(args.m, args.constant)
        payload |= {"constant": str(c), "constant_decimal": float(_fmt(c.value))}
    if args.json:
        print(json.dumps(payload))
        return 0
    print(f"s = ({', '.join(payload['s'])})")
    print(f"s ~ ({', '.join(v if v == 'inf' else _fmt(v) for v in payload['s_decimal'])})")
    if "constant" in payload:
        print(f"constant = {payload['constant']} = {_fmt(payload['constant_decimal'])}")
    return 0


def _cmd_admissible(args) -> int:
    result = bilinear_admissibility(args.p, args.q, args.a, args.b)
    print("true" if result.ok else "false")
    for line in result.failures:
        print(line)
    return 0 if result.ok else 1


def _cmd_norm(args) -> int:
    T = parse_form_spec(args.form).make(n=args.n, seed=args.seed)
    if args.mode == "mixed":
        if not args.exponents:
            raise ValueError("mixed mode needs --exponents: a vector like "
                             "inf,3,12/5 or a variant name like derived")
        if args.exponents in VARIANTS:
            orders = critical_exponents(T.arity, args.exponents)
        else:
            orders = ExponentVector(args.exponents)
        print(_fmt(mixed_norm(T, orders)))
        return 0
    est = norms([T], [args.seed], restarts=args.restarts, tol=args.tol,
                max_iters=args.max_iters)[0]
    print(json.dumps({"value": float(_fmt(est.value)), "method": est.method,
                      "restarts_used": est.restarts_used,
                      "iterations": est.iterations,
                      "converged": est.converged}))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole command line parser, built once per process.  It depends on
    module constants alone and holds no per-call state: ``parse_args``
    returns a fresh namespace on every call, so ``main`` reuses it.  It
    stores no harness runner either; ``_cmd_experiment`` looks that up."""
    parser = argparse.ArgumentParser(
        prog="critnorm", allow_abbrev=False,
        description="Verify and stress-test critical mixed-norm inequalities "
                    "for multilinear forms.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("exponents", allow_abbrev=False,
                          help="print a critical exponent family "
                               "or the inclusion-shift orders for (r, p, q)")
    for dest in ("m", "variant", "constant", "r", "p", "q"):
        _option(sub, dest, required=False)
    sub.add_argument("--json", action="store_true",
                     help="print one JSON object instead of text lines")
    sub.set_defaults(handler=_cmd_exponents, variant=ExperimentConfig.variant,
                     constant=ExperimentConfig.constant)

    sub = subs.add_parser("admissible", allow_abbrev=False,
                          help="test the bilinear exponent admissibility conditions")
    for dest in ("p", "q", "a", "b"):
        _option(sub, dest, type=ExtRational)
    sub.set_defaults(handler=_cmd_admissible)

    sub = subs.add_parser("norm", allow_abbrev=False, help="evaluate one norm of one form")
    sub.add_argument("mode", choices=("mixed", "op"))
    _option(sub, "form", required=True)
    _option(sub, "n")
    _option(sub, "exponents", type=str,
            help="mixed orders: a vector like inf,3,12/5 or a "
                 "variant name resolved at the form's arity")
    for dest in ("seed", "restarts", "tol", "max_iters"):
        _option(sub, dest)
    sub.set_defaults(handler=_cmd_norm, **ASCENT_DEFAULTS._asdict())

    for name, text in _EXPERIMENTS.items():
        sub = subs.add_parser(name, allow_abbrev=False, help=text)
        for dest in READS[name]:
            _option(sub, dest)
        sub.add_argument("--out", help="write the full report to this path")
        sub.add_argument("--format", choices=("json", "csv"),
                         help="report format (default: by --out extension, else json)")
        sub.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InapplicableError as exc:
        print(f"inapplicable: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OSError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
