"""Command line front end.

Exit codes: 0 success (and, for experiments, zero violations), 1 for a
completed run that found violations (or a false admissibility answer),
2 for usage or data errors.  For inclusion-instance, 1 marks a suspicion:
its ratio divides one battery maximum by another, and a value above 1.05
is not evidence against the inclusion theorem.
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


def _decimal_text(s) -> str:
    return "(" + ", ".join("inf" if v.is_inf else _fmt(float(v)) for v in s) + ")"


def _decimal_list(s) -> list:
    # "inf" stays a token: strict JSON has no Infinity literal
    return ["inf" if v.is_inf else float(_fmt(float(v))) for v in s]


def _experiment_options(sub: argparse.ArgumentParser, experiment: str) -> None:
    """Report options, plus the shared settings ``experiment`` reads (READS);
    an option left unset keeps its ExperimentConfig default."""
    shared = {"form": {"help": "form spec, e.g. gauss:m=3 or file:tensor.json"},
              "n": {"type": int, "help": "dimension per slot for size-free specs"},
              "trials": {"type": int}, "seed": {"type": int}, "restarts": {"type": int},
              "tol": {"type": float}, "max_iters": {"type": int}}
    for dest in READS[experiment]:
        if dest in shared:
            sub.add_argument("--" + dest.replace("_", "-"), **shared[dest])
    sub.add_argument("--out", "--output", dest="output",
                     help="write the full report to this path")
    sub.add_argument("--format", choices=("json", "csv"),
                     help="report format (default: by --out extension, else json)")
    sub.set_defaults(handler=_cmd_experiment)


def _cmd_experiment(args) -> int:
    """Run the subcommand's experiment on the config named by its options:
    every setting the experiment reads, as given, or its default if unset.
    The runner is looked up here, in this module's globals, rather than
    stored in the parser, which is built once: a runner rebound later (a
    tracing wrapper, say) is the one that runs."""
    given = {k: getattr(args, k) for k in READS[args.command]}
    cfg = ExperimentConfig(args.command, **{k: v for k, v in given.items() if v is not None})
    runner = {"verify": run_verify, "sharpness": run_sharpness, "bilinear-law": run_bilinear_law,
              "base-hl": run_base_hl, "inclusion-instance": run_inclusion_instance}
    report = runner[args.command](cfg)
    if args.output:
        fmt = args.format or ("csv" if args.output.endswith(".csv") else "json")
        report.write(args.output, fmt)
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
    if args.r is not None or args.p is not None or args.q is not None:
        if args.r is None or args.p is None or args.q is None:
            raise ValueError("inclusion mode needs --r, --p and --q together")
        s = inclusion_exponents(args.r, args.p, args.q)
        if args.json:
            print(json.dumps({"s": [str(v) for v in s],
                              "s_decimal": _decimal_list(s)}))
        else:
            print(f"s = {s}")
            print(f"s ~ {_decimal_text(s)}")
        return 0
    if args.m is None:
        raise ValueError("give --m for the critical family or --r/--p/--q")
    s = critical_exponents(args.m, args.variant)
    c = inequality_constant(args.m, args.constant)
    if args.json:
        print(json.dumps({"m": args.m, "variant": args.variant,
                          "s": [str(v) for v in s],
                          "s_decimal": _decimal_list(s),
                          "constant": str(c),
                          "constant_decimal": float(_fmt(c.value))}))
    else:
        print(f"s = {s}")
        print(f"s ~ {_decimal_text(s)}")
        print(f"constant = {c} = {_fmt(c.value)}")
    return 0


def _cmd_admissible(args) -> int:
    result = bilinear_admissibility(args.p, args.q, args.a, args.b)
    print("true" if result.ok else "false")
    for line in result.failures:
        print(line)
    return 0 if result.ok else 1


def _load_form(args):
    """The form of ``--form``, or of ``--tensor FILE`` read as ``file:FILE``,
    so both spellings of a file refuse ``--n``."""
    if args.tensor and args.form:
        raise ValueError("give either --tensor or --form, not both")
    spec = f"file:{args.tensor}" if args.tensor else args.form
    if not spec:
        raise ValueError("give --tensor <file> or --form "
                         "(e.g. gauss:m=3,n=8,seed=1 or file:tensor.json)")
    return parse_form_spec(spec).make(n=args.n, seed=args.seed)


def _cmd_norm(args) -> int:
    T = _load_form(args)
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
        prog="critnorm",
        description="Verify and stress-test critical mixed-norm inequalities "
                    "for multilinear forms.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("exponents", help="print a critical exponent family "
                          "or the inclusion-shift orders for (r, p, q)")
    sub.add_argument("--m", type=int)
    sub.add_argument("--variant", choices=VARIANTS, default="derived")
    sub.add_argument("--constant", choices=CONSTANT_CHOICES, default="abstract")
    sub.add_argument("--r", type=ExtRational)
    sub.add_argument("--p", type=ExponentVector)
    sub.add_argument("--q", type=ExponentVector)
    sub.add_argument("--json", action="store_true",
                     help="print one JSON object instead of text lines")
    sub.set_defaults(handler=_cmd_exponents)

    sub = subs.add_parser("admissible", help="test the bilinear exponent "
                          "admissibility conditions")
    sub.add_argument("--p", type=ExtRational, required=True)
    sub.add_argument("--q", type=ExtRational, required=True)
    sub.add_argument("--a", type=ExtRational, required=True)
    sub.add_argument("--b", type=ExtRational, required=True)
    sub.set_defaults(handler=_cmd_admissible)

    sub = subs.add_parser("norm", help="evaluate one norm of one form")
    sub.add_argument("mode", choices=("mixed", "op"))
    sub.add_argument("--tensor", help="path to a saved tensor file")
    sub.add_argument("--form", help="form spec, e.g. gauss:m=3 or file:tensor.json")
    sub.add_argument("--n", type=int)
    sub.add_argument("--exponents", "--orders", dest="exponents",
                     help="mixed orders: a vector like inf,3,12/5 or a "
                          "variant name resolved at the form's arity")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--restarts", type=int)
    sub.add_argument("--tol", type=float)
    sub.add_argument("--max-iters", type=int)
    sub.set_defaults(handler=_cmd_norm, **ASCENT_DEFAULTS._asdict())

    sub = subs.add_parser("verify", help="check the critical inequality over trials")
    sub.add_argument("--exponents", type=ExponentVector)
    sub.add_argument("--variant", choices=VARIANTS)
    sub.add_argument("--constant", choices=CONSTANT_CHOICES)
    _experiment_options(sub, "verify")

    sub = subs.add_parser("sharpness", help="fit ratio growth across dimensions")
    sub.add_argument("--sweep", type=_sweep, required=True,
                     help="comma list of dimensions, e.g. 4,8,16,32,64")
    sub.add_argument("--exponents", type=ExponentVector)
    sub.add_argument("--variant", choices=VARIANTS)
    sub.add_argument("--constant", choices=CONSTANT_CHOICES)
    _experiment_options(sub, "sharpness")

    sub = subs.add_parser("bilinear-law", help="check the dimension-weighted "
                          "bilinear mixed-norm bound")
    sub.add_argument("--a", type=ExtRational, required=True)
    sub.add_argument("--b", type=ExtRational, required=True)
    _experiment_options(sub, "bilinear-law")

    sub = subs.add_parser("base-hl", help="check the full-l_2 coefficient bound "
                          "on the widened domain")
    sub.add_argument("--m", type=int, required=True)
    _experiment_options(sub, "base-hl")

    sub = subs.add_parser("inclusion-instance", help="compare summing quotients "
                          "empirically for one (r, p, q) instance")
    sub.add_argument("--r", type=ExtRational, required=True)
    sub.add_argument("--p", type=ExponentVector, required=True)
    sub.add_argument("--q", type=ExponentVector, required=True)
    sub.add_argument("--space", type=ExtRational)
    sub.add_argument("--datasets", type=int)
    _experiment_options(sub, "inclusion-instance")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InapplicableError as exc:
        print(f"inapplicable: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
