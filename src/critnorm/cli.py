"""Command line front end.

Exit codes: 0 success (and, for experiments, zero violations), 1 for a
completed run that found violations (or a false admissibility answer),
2 for usage or data errors, an input too large to compute included.  For
inclusion-instance, 1 marks a suspicion: its ratio divides one battery
maximum by another, and a value above 1.05 is not evidence against the
inclusion theorem.

Each setting's option is declared once, in ``_SETTINGS``, with the
parser that ``harness.PARSERS`` declares for it, and each experiment once,
in ``harness.EXPERIMENTS``: its subcommand offers exactly the settings it
reads plus ``--out``, so an option it does not read is a usage error, and
requires exactly the settings it needs; it runs ``harness.run_<name>``,
looked up when it is called, on a config that sets only what it reads.
The modes of ``exponents`` (``critical``, ``inclusion``) and of ``norm``
(``mixed``, ``op``) are subcommands too, each offering only the options it
reads, with its defaults set on the parser: no handler checks which options
were given.  ``--exponents`` alone gives the orders of ``verify``,
``sharpness`` and ``norm mixed``: a variant name, resolved at the form's
arity, or a vector.
``--out`` writes the full report: CSV for a ``.csv`` path, else JSON.
Options are spelled in full: no parser accepts an abbreviation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .exponents import (
    CONSTANT_CHOICES,
    ExtRational,
    InapplicableError,
    VARIANTS,
    bilinear_admissibility,
    critical_exponents,
    inclusion_exponents,
    inequality_constant,
)
from . import harness
from .harness import EXPERIMENTS, PARSERS, ExperimentConfig, fmt12, orders_at
from .opnorm import ASCENT_DEFAULTS, norms
from .tensor import mixed_norm
from .witnesses import parse_form_spec

__all__ = ["main"]


def _decimal_list(s) -> list:
    # "inf" stays a token: strict JSON has no Infinity literal
    return ["inf" if v.is_inf else float(fmt12(float(v))) for v in s]


# The argparse keywords of each ExperimentConfig field and of exponents' --variant,
# less the parsers that ``PARSERS`` declares.  An option left unset keeps its default.
_SETTINGS = {
    "form": {"help": "form spec, e.g. gauss:m=3 or file:tensor.json"},
    "n": {"type": int, "help": "dimension per slot for size-free specs"},
    "sweep": {"help": "comma list of dimensions, e.g. 4,8,16,32,64"},
    "exponents": {"help": f"mixed-norm orders: a variant name ({', '.join(VARIANTS)}), "
                          "resolved at the form's arity, or a vector like inf,3,12/5"},
    "variant": {"choices": VARIANTS}, "constant": {"choices": CONSTANT_CHOICES},
    "tol": {"type": float},
    **dict.fromkeys(("m", "trials", "datasets", "seed", "restarts", "max_iters"), {"type": int}),
}


def _option(sub: argparse.ArgumentParser, dest: str, **overrides) -> None:
    """Add setting ``dest`` to ``sub``: its parser (an override ``type`` or its
    ``PARSERS`` entry), its _SETTINGS keywords, then the other ``overrides``.
    The parser's ValueError becomes an ArgumentTypeError, so argparse prints its message."""
    parse = overrides.pop("type", PARSERS.get(dest))

    @functools.wraps(parse, updated=())
    def typed(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(exc) from None
    sub.add_argument("--" + dest.replace("_", "-"),
                     **{"type": parse and typed, **_SETTINGS.get(dest, {}), **overrides})


def _cmd_experiment(args) -> int:
    """Run the subcommand's experiment on the config named by its options:
    every setting the experiment reads, as given, or its default if unset.
    The runner is ``harness.run_<name>``, looked up here, at call time,
    rather than stored in the parser, which is built once: a runner rebound
    later as a harness attribute (a tracing wrapper, say) is the one that
    runs."""
    given = {k: getattr(args, k) for k in EXPERIMENTS[args.command].reads}
    cfg = ExperimentConfig(args.command, **{k: v for k, v in given.items() if v is not None})
    report = getattr(harness, "run_" + args.command.replace("-", "_"))(cfg)
    if args.out:
        report.write(args.out)
    summary = report.summary
    parts = [f"{report.experiment}: {summary['trials']} trials",
             f"{report.violations} violations", f"max ratio {fmt12(summary['max_ratio'])}"]
    parts += [f"{key} {fmt12(summary[key])}" for key in ("constant", "slope") if key in summary]
    print(", ".join(parts))
    for rec in report.trials:
        if rec.get("violation"):
            label = rec.get("trial", rec.get("n"))
            print(f"  violation at {label}: ratio {fmt12(rec['ratio'])}")
    return 0 if report.violations == 0 else 1


def _cmd_exponents(args) -> int:
    """Print ``critical``'s family at --m with its constant, or
    ``inclusion``'s orders for --r, --p and --q, from one payload: as one
    JSON object with --json, else as text lines.  All of it is computed
    before anything is printed, so an error prints none."""
    if args.mode == "critical":
        s = critical_exponents(args.m, args.variant)
        c = inequality_constant(args.m, args.constant)
        head = {"m": args.m, "variant": args.variant}
        tail = {"constant": str(c), "constant_decimal": float(fmt12(c.value))}
    else:
        s, head, tail = inclusion_exponents(args.r, args.p, args.q), {}, {}
    payload = {**head, "s": [str(v) for v in s], "s_decimal": _decimal_list(s), **tail}
    if args.json:
        print(json.dumps(payload))
        return 0
    print(f"s = {s}")
    print(f"s ~ {','.join(v if v == 'inf' else fmt12(v) for v in payload['s_decimal'])}")
    if tail:
        print(f"constant = {payload['constant']} = {fmt12(payload['constant_decimal'])}")
    return 0


def _cmd_admissible(args) -> int:
    result = bilinear_admissibility(args.p, args.q, args.a, args.b)
    print("true" if result.ok else "false")
    for line in result.failures:
        print(line)
    return 0 if result.ok else 1


def _cmd_norm(args) -> int:
    """Print one norm of one form: ``mixed`` at its ``--exponents``, ``op``
    by ``norms`` at the ascent settings."""
    T = parse_form_spec(args.form).make(n=args.n, seed=args.seed)
    if args.mode == "mixed":
        print(fmt12(mixed_norm(T, orders_at(args.exponents, T.arity))))
        return 0
    est = norms([T], [args.seed], restarts=args.restarts, tol=args.tol,
                max_iters=args.max_iters)[0]
    print(json.dumps({"value": float(fmt12(est.value)), "method": est.method,
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

    modes = subs.add_parser("exponents", allow_abbrev=False,
                            help="print a critical exponent family "
                                 "or the inclusion-shift orders for (r, p, q)"
                            ).add_subparsers(dest="mode", required=True)
    critical = modes.add_parser("critical", allow_abbrev=False,
                                help="the critical family at arity --m and its constant")
    inclusion = modes.add_parser("inclusion", allow_abbrev=False,
                                 help="the orders the inclusion shift gives for (r, p, q)")
    for sub, dests in ((critical, ("m", "variant", "constant")), (inclusion, ("r", "p", "q"))):
        for dest in dests:
            _option(sub, dest, required=dest not in ("variant", "constant"))
        sub.add_argument("--json", action="store_true",
                         help="print one JSON object instead of text lines")
        sub.set_defaults(handler=_cmd_exponents)
    critical.set_defaults(variant="derived", constant=ExperimentConfig.constant)

    sub = subs.add_parser("admissible", allow_abbrev=False,
                          help="check the three stated bilinear admissibility conditions")
    for dest in ("p", "q"):   # scalar domain orders here, not the experiments' vectors
        _option(sub, dest, type=ExtRational, required=True)
    for dest in ("a", "b"):
        _option(sub, dest, required=True)
    sub.set_defaults(handler=_cmd_admissible)

    modes = subs.add_parser("norm", allow_abbrev=False, help="evaluate one norm of one form"
                            ).add_subparsers(dest="mode", required=True)
    mixed = modes.add_parser("mixed", allow_abbrev=False, help="the mixed norm at --exponents")
    op = modes.add_parser("op", allow_abbrev=False,
                          help="the operator norm: exact where it applies, else the ascent")
    for sub, dests in ((mixed, ("exponents",)), (op, ("restarts", "tol", "max_iters"))):
        _option(sub, "form", required=True)
        for dest in ("n", "seed", *dests):
            _option(sub, dest, required=dest == "exponents")
        sub.set_defaults(handler=_cmd_norm, seed=ASCENT_DEFAULTS.seed)
    op.set_defaults(**ASCENT_DEFAULTS._asdict())

    for name, (reads, needs, text) in EXPERIMENTS.items():
        sub = subs.add_parser(name, allow_abbrev=False, help=text)
        for dest in reads:
            _option(sub, dest, required=dest in needs)
        sub.add_argument("--out", help="write the full report to this path: "
                                       "CSV if it ends in .csv, else JSON")
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
