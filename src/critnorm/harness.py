"""Experiment runner with deterministic CSV/JSON reports.

Five experiments: inequality verification over random or witness forms,
growth-rate sharpness sweeps, the dimension-weighted bilinear law, the
widened-domain coefficient bound feeding the critical family, and empirical
inclusion-shift instance checks.

Every randomized ingredient draws from child streams of the run seed, so a
report is a pure function of its configuration (re-running writes identical
bytes).  A spec with no free seed (a seedless kind such as ``dot``, ``t0``
or ``file``) is one form, so a run builds it and its lhs once and reuses
them in every trial; ascent denominators still draw per-trial seeds.
Ratio denominators prefer a form's closed-form norm and otherwise fall
back to ``opnorm.exact_norm`` or the seeded ascent; ascent is a lower
bound, which can only inflate ratios, so violation counts err on the loud
side.  The method is chosen in one place, as each trial's form is built,
and every trial reaches one ``check`` callback with its ``NormEstimate``:
a trial with a closed-form or exact denominator arrives alone, as soon as
it is built, and its form is released before the next is built.  Trials
that wait for an ascent arrive in batches of consecutive trials, up to
``CHUNK_ELEMENTS`` ascent coefficients in all, whose denominators (and
then their retries) are taken in one ``opnorm.norms`` call; an estimate
does not depend on the batch it is taken in, so neither do the reports.
Verify, sharpness and base-hl share one trial check: ``_checked`` alone
turns an estimate into a record's norm, method, ratio, retried and
violation, and an ascent-backed violation is retried with four times the
restarts before it is reported.  Every record's ratio and violation come
from one function, ``verdict``.  Each experiment is declared once, by its
``EXPERIMENTS`` row: the settings it reads (the only ones its config may
set, its report's config block echoes and the CLI offers), the settings it
needs (a config without one is refused) and its help line; its runner is
``run_<name>``, with ``-`` read as ``_``, which refuses a config made for
another experiment.  A setting that is more than an int, a float or a
string has its parser declared once, in ``PARSERS``, which
``ExperimentConfig`` and the CLI apply; the config block writes it, and
the orders the run used, in that parser's syntax (``str``), so the whole
block parses back.  Floats are written at 12 significant digits
(``fmt12``); a report is CSV when its path ends in ``.csv``, else JSON.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .exponents import (
    CONSTANT_CHOICES,
    ExponentVector,
    ExtRational,
    VARIANTS,
    critical_exponents,
    inclusion_exponents,
    inequality_constant,
)
from .opnorm import (ASCENT_DEFAULTS, NormEstimate, check_ascent_settings, exact_norm, norms,
                     weak_norm)
from .rng import child_rng, child_seed
from .tensor import CHUNK_ELEMENTS, MultilinearForm, lp_norm, mixed_norm
from .witnesses import FormFactory, parse_form_spec

__all__ = [
    "SLACK_ASCENT",
    "SLACK_EXACT",
    "ExperimentConfig",
    "ExperimentReport",
    "GrowthFit",
    "fit_growth",
    "run_verify",
    "run_sharpness",
    "run_bilinear_law",
    "run_base_hl",
    "run_inclusion_instance",
]

SLACK_ASCENT = 0.05   # denominators that are lower bounds get real headroom
SLACK_EXACT = 1e-9    # analytic or singular-value denominators are exact

# One row per experiment: the ExperimentConfig fields its runner reads, in
# config-block order; the fields it cannot run without; its help line.
_Experiment = namedtuple("Experiment", "reads needs help")
EXPERIMENTS = {
    "verify": _Experiment(
        ("form", "n", "exponents", "constant", "trials", "seed", "restarts", "tol", "max_iters"),
        ("form",),
        "check the critical inequality over trials"),
    "sharpness": _Experiment(
        ("form", "exponents", "constant", "seed", "restarts", "tol", "max_iters", "sweep"),
        ("form", "sweep"),
        "fit ratio growth across dimensions"),
    "bilinear-law": _Experiment(
        ("form", "n", "trials", "seed", "a", "b"), ("form", "a", "b"),
        "check the dimension-weighted bilinear mixed-norm bound"),
    "base-hl": _Experiment(
        ("form", "m", "n", "trials", "seed", "restarts", "tol", "max_iters"), ("m",),
        "check the full-l_2 coefficient bound on the widened domain"),
    "inclusion-instance": _Experiment(
        ("form", "n", "trials", "datasets", "seed", "r", "p", "q", "space"), ("r", "p", "q"),
        "compare summing quotients empirically for one (r, p, q) instance"),
}


def _sweep(value) -> tuple:
    """Sweep dimensions from a comma list such as "4,8,16" or from any iterable."""
    return tuple(int(v) for v in (value.split(",") if isinstance(value, str) else value))


def mixed_orders(value):
    """Mixed-norm orders: a variant name, kept until an arity resolves it, or a vector."""
    if isinstance(value, str) and "," not in value and value not in VARIANTS:
        try:
            ExtRational(value)   # a lone order is a vector of one entry
        except ValueError:
            raise ValueError(f"{value!r} is neither a variant ({', '.join(VARIANTS)}) "
                             "nor an order vector such as inf,3,12/5") from None
    return value if value in VARIANTS else ExponentVector(value)


def orders_at(value, arity: int) -> ExponentVector:
    """``mixed_orders`` at ``arity``: the variant's critical family, or the vector if it fits."""
    s = critical_exponents(arity, value) if isinstance(value, str) else value
    if len(s) != arity:
        raise ValueError(f"{len(s)} orders given for arity-{arity} forms")
    return s


# The parser of each setting that is more than an int, a float or a string,
# applied by ExperimentConfig to a given value and by the CLI to an option.
PARSERS = {
    **dict.fromkeys(("a", "b", "r", "space"), ExtRational),
    **dict.fromkeys(("p", "q"), ExponentVector),
    "exponents": mixed_orders,
    "sweep": _sweep,
}


@dataclass
class ExperimentConfig:
    """Settings for one harness run: each experiment reads the fields its
    ``EXPERIMENTS`` row names, and a config that sets another (to other than
    its default) or lacks one it needs is refused."""

    experiment: str
    form: str | None = None
    m: int | None = None
    n: int | None = None
    sweep: tuple[int, ...] | None = None
    exponents: ExponentVector | str = "derived"
    constant: str = "abstract"
    a: ExtRational | None = None
    b: ExtRational | None = None
    r: ExtRational | None = None
    p: ExponentVector | None = None
    q: ExponentVector | None = None
    space: ExtRational | None = None
    trials: int = 1
    datasets: int = 6
    seed: int = ASCENT_DEFAULTS.seed
    restarts: int = ASCENT_DEFAULTS.restarts
    tol: float = ASCENT_DEFAULTS.tol
    max_iters: int = ASCENT_DEFAULTS.max_iters

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"choose from {list(EXPERIMENTS)}")
        reads, needs, _ = EXPERIMENTS[self.experiment]
        unread = [f.name for f in fields(self)[1:]
                  if f.name not in reads and getattr(self, f.name) != f.default]
        if unread:
            raise ValueError(f"{self.experiment} does not read {', '.join(unread)}")
        missing = [k for k in needs if getattr(self, k) is None]
        if missing:
            raise ValueError(f"{self.experiment} needs {', '.join(missing)}")
        check_ascent_settings(self.restarts, self.tol, self.max_iters)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.datasets < 1:
            raise ValueError(f"datasets must be >= 1, got {self.datasets}")
        if self.constant not in CONSTANT_CHOICES:
            raise ValueError(f"unknown constant choice {self.constant!r}")
        for name, parse in PARSERS.items():
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, parse(value))
        if self.sweep is not None and any(y <= x for x, y in zip(self.sweep, self.sweep[1:])):
            raise ValueError("sweep values must increase strictly")


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares power law: value ~ exp(intercept) * n**slope."""

    slope: float
    intercept: float
    residual: float

    def as_dict(self):
        return {"slope": self.slope, "intercept": self.intercept, "residual": self.residual}


def fit_growth(points) -> GrowthFit:
    """Least-squares slope of log(value) against log(n).

    Needs at least three strictly increasing n with positive values; the
    residual is the root mean square misfit in log space.
    """
    pts = [(int(n), float(v)) for n, v in points]
    if len(pts) < 3:
        raise ValueError("growth fits need at least 3 points")
    ns = [n for n, _ in pts]
    if any(y <= x for x, y in zip(ns, ns[1:])):
        raise ValueError("n must increase strictly")
    if any(v <= 0 for _, v in pts):
        raise ValueError("values must be positive to fit in log space")
    x = np.log([float(n) for n, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((np.polyval([slope, intercept], x) - y) ** 2)))
    return GrowthFit(float(slope), float(intercept), resid)


@dataclass
class ExperimentReport:
    """Trial records plus summary; serializes deterministically."""

    experiment: str
    config: dict
    trials: list
    summary: dict
    growth: dict | None = None
    growth_trimmed: dict | None = None

    @property
    def violations(self) -> int:
        return int(self.summary.get("violations", 0))

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "config": self.config,
            "summary": self.summary,
        }
        if self.growth is not None:
            payload["growth"] = self.growth
        if self.growth_trimmed is not None:
            payload["growth_trimmed"] = self.growth_trimmed
        payload["trials"] = self.trials
        return json.dumps(_round_floats(payload), indent=2) + "\n"

    def to_csv(self) -> str:
        if not self.trials:
            return ""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        cols = list(self.trials[0].keys())
        writer.writerow(cols)
        for row in self.trials:
            writer.writerow([_csv_cell(row.get(c)) for c in cols])
        return buf.getvalue()

    def write(self, path) -> None:
        """Write the report to ``path``: CSV if it ends in ``.csv``, else JSON."""
        text = self.to_csv() if os.fspath(path).endswith(".csv") else self.to_json()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def fmt12(v: float) -> str:
    """A float as written in every output: 12 significant digits."""
    return f"{v:.12g}"


def _round_floats(obj):
    if isinstance(obj, float):
        return float(fmt12(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt12(v)
    return "" if v is None else str(v)


def _factory(cfg: ExperimentConfig, experiment: str, arity=None) -> FormFactory:
    """A run's first step: refuse a ``cfg`` made for another experiment, then
    parse its form spec, ``cfg.form``, else Gaussian forms of arity ``arity(cfg)``."""
    if cfg.experiment != experiment:
        raise ValueError(f"{experiment} cannot run a config made for {cfg.experiment}")
    return parse_form_spec(f"gauss:m={arity(cfg)}" if cfg.form is None else cfg.form)


def _report(cfg: ExperimentConfig, records, summary: dict, growth=None, growth_trimmed=None,
            **extra) -> ExperimentReport:
    """The report of a run on ``cfg``: its config block holds every set field
    that ``cfg.experiment`` reads, then ``extra``, the orders the run used, each
    order or order vector in its option's syntax (``str``), so it parses back."""
    block = {"experiment": cfg.experiment,
             **{k: getattr(cfg, k) for k in EXPERIMENTS[cfg.experiment].reads}, **extra}
    block = {k: str(v) if isinstance(v, (ExtRational, ExponentVector)) else
             list(v) if k == "sweep" else v for k, v in block.items() if v is not None}
    return ExperimentReport(cfg.experiment, block, records, summary, growth, growth_trimmed)


def _run_trials(fac: FormFactory, cfg: ExperimentConfig, measure, check,
                domain_p=None, ns=None, exact=True):
    """The records of a run's trials, in trial order.

    Trial t builds its form at ``ns[t]`` (by default ``cfg.n`` for each of
    ``cfg.trials`` trials) from the child seed (t, 0), and takes
    ``measure(T)`` as it is built.  This is the one place a trial's
    denominator method is chosen: with ``exact`` set, a norm known as the
    closed form ``T.analytic_norm`` or else by ``exact_norm`` (no seed is
    used) is the trial's estimate; otherwise the estimate is None.
    ``check(batch)`` turns a list of (t, T, measure(T), estimate) into
    their records.  A trial with an estimate is checked alone as it is
    built, so its form is released before the next is built.  The others
    wait in a batch of consecutive trials of one n, up to ``CHUNK_ELEMENTS``
    coefficients in all (at least one trial), released before the next
    batch is built.  A spec that leaves no seed free
    (``FormFactory.takes_seed``) gives every trial of one n the same form,
    so it is built, measured and estimated once and repeated.  A spec that
    pins seed= runs one trial only: more would count one form many times.
    """
    if cfg.trials > 1 and "seed" in fac.params:
        raise ValueError(f"the form spec pins seed={fac.params['seed']}, so all "
                         f"{cfg.trials} trials would be one form; drop seed= or run one trial")
    ns = (cfg.n,) * cfg.trials if ns is None else ns
    records, batch, T = [None] * len(ns), [], None

    def flush():
        for (u, *_), rec in zip(batch, check(batch)):
            records[u] = rec
        batch.clear()

    for t, n in enumerate(ns):
        if batch and n != ns[t - 1]:
            flush()
        if T is None or fac.takes_seed or n != ns[t - 1]:
            T = None   # no reference to the previous form while the next is built
            T = fac.make(n=n, seed=child_seed(cfg.seed, t, 0), domain_p=domain_p)
            value = measure(T)
            est = None
            if exact:
                est = exact_norm(T) if T.analytic_norm is None \
                    else NormEstimate(T.analytic_norm, "analytic")
        batch.append((t, T, value, est))
        if est is not None or (len(batch) + 1) * math.prod(T.dims) > CHUNK_ELEMENTS:
            flush()
    if batch:
        flush()
    return records


def _check_trials(batch, C: float, cfg: ExperimentConfig, row) -> list:
    """Check lhs <= C * ||T|| for each (t, T, lhs, est) of ``batch``: the
    record ``row(t, T, lhs, checked)`` per trial, in order, where
    ``checked`` is the trial's ``_checked`` fields.

    A trial whose estimate is known is judged at once.  The others' norms
    are taken in one ``norms`` call, trial t seeded from (t, 1); those that
    ``verdict`` flags are then retried together in one more call at four
    times the restarts, seeded from (t, 2).  A trial's estimate does not
    depend on the trials beside it, so records match a check of one trial
    at a time.
    """
    records = {t: _checked(lhs, est, C, False) for t, _, lhs, est in batch if est is not None}
    pending = [trial for trial in batch if trial[3] is None]
    for path, restarts in ((1, cfg.restarts), (2, 4 * cfg.restarts)):
        if not pending:
            break
        ests = norms([T for _, T, *_ in pending],
                     [child_seed(cfg.seed, t, path) for t, *_ in pending],
                     restarts=restarts, tol=cfg.tol, max_iters=cfg.max_iters)
        for (t, _, lhs, _), est in zip(pending, ests):
            records[t] = _checked(lhs, est, C, path == 2)
        pending = [trial for trial in pending if records[trial[0]]["violation"]]
    return [row(t, T, lhs, records[t]) for t, T, lhs, _ in batch]


def _checked(lhs: float, est: NormEstimate, C: float, retried: bool) -> dict:
    """The one place an estimate becomes a trial's norm, method, ratio,
    retried and violation: ``verdict`` of lhs <= C * ||T||, exact unless
    the estimate is an ascent lower bound."""
    return {"norm": est.value, "method": est.method,
            **verdict(lhs, est.value, C, exact=not est.lower_bound, retried=retried)}


def verdict(lhs: float, denominator: float, C: float, exact: bool, retried=None) -> dict:
    """Every experiment's verdict: the ratio lhs / denominator (0 for 0/0,
    inf for a positive lhs over 0) is a violation unless ratio <= C *
    (1 + slack), so a NaN ratio is one.  The slack is SLACK_EXACT for an
    ``exact`` denominator and SLACK_ASCENT for a lower bound; ``retried``,
    when given, is recorded between ratio and violation."""
    ratio = _ratio(lhs, denominator)
    flags = {} if retried is None else {"retried": retried}
    slack = SLACK_EXACT if exact else SLACK_ASCENT
    return {"ratio": ratio, **flags, "violation": not ratio <= C * (1 + slack)}


def _ratio(lhs: float, denom: float) -> float:
    if denom == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / denom


def _summary(records, extra: dict | None = None) -> dict:
    ratios = [rec["ratio"] for rec in records]
    out = {
        "trials": len(records),
        "violations": sum(1 for rec in records if rec["violation"]),
        "max_ratio": float(np.max(ratios)),   # NaN if any ratio is NaN
        "mean_ratio": math.fsum(ratios) / len(ratios),
    }
    if extra:
        out.update(extra)
    return out


class _CriticalLhs:
    """The lhs ``mixed_norm(T, s)`` of verify and sharpness.  The orders s
    (``orders_at`` of the configured exponents) and the constant C are
    resolved from the first form's arity, which every form of a run has."""

    s = C = None

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg

    def __call__(self, T: MultilinearForm) -> float:
        if self.s is None:
            self.s = orders_at(self.cfg.exponents, T.arity)
            self.C = inequality_constant(T.arity, self.cfg.constant).value
        return mixed_norm(T, self.s)


def _trial_row(t, T, lhs, checked) -> dict:
    """A verify or base-hl record: trial, dims, lhs and the checked ratio."""
    return {"trial": t, "dims": "x".join(map(str, T.dims)), "lhs": lhs, **checked}


def run_verify(cfg: ExperimentConfig) -> ExperimentReport:
    """Check mixed_norm(T, s) <= C * ||T|| over the trials, each judged by
    ``verdict``.

    s is the configured orders at the form's arity and C the configured
    constant choice.  Witness forms use their closed-form norms and
    everything else ``exact_norm`` where it applies, both exact denominators;
    otherwise the seeded ascent gives a lower bound, and a violation it
    shows is retried at 4x restarts before it is reported.
    """
    fac = _factory(cfg, "verify")
    lhs = _CriticalLhs(cfg)
    records = _run_trials(fac, cfg, lhs, lambda batch: _check_trials(batch, lhs.C, cfg, _trial_row))
    return _report(cfg, records, _summary(records, {"constant": lhs.C}), exponents_used=lhs.s)


def run_sharpness(cfg: ExperimentConfig) -> ExperimentReport:
    """Fit the growth of mixed_norm/norm across an n sweep of a form family.

    A zero fitted slope is what a tight family looks like.  A positive slope
    certifies that the configured orders cannot carry a dimension-free
    constant on this family only when every point's denominator is
    closed-form or exact.  An ascent denominator is a lower bound, so its
    ratio may be too high, and over ascent points a positive slope is a
    suspicion: the ascent may fall further short as n grows.  When the fit residual exceeds 0.02 the smallest
    sweep point is dropped and both fits are reported.  Each point is
    checked like a verify trial, ascent retry included.
    """
    fac = _factory(cfg, "sharpness")
    if len(cfg.sweep) < 3:
        raise ValueError("sharpness needs a sweep of at least 3 dimensions")
    if not fac.takes_n:
        raise ValueError(f"the form spec pins the swept dimension: every n in "
                         f"{','.join(map(str, cfg.sweep))} would build the same form")
    lhs = _CriticalLhs(cfg)

    def row(i, T, value, checked):
        return {"n": cfg.sweep[i], "lhs": value, **checked}

    records = _run_trials(fac, cfg, lhs, lambda batch: _check_trials(batch, lhs.C, cfg, row),
                          ns=cfg.sweep)
    pts = [(rec["n"], rec["ratio"]) for rec in records]
    fit = fit_growth(pts)
    trimmed = fit_growth(pts[1:]) if fit.residual > 0.02 and len(pts) > 3 else None
    summary = _summary(records, {"constant": lhs.C, "slope": fit.slope})
    return _report(cfg, records, summary, fit.as_dict(), trimmed and trimmed.as_dict(),
                   exponents_used=lhs.s)


def run_bilinear_law(cfg: ExperimentConfig) -> ExperimentReport:
    """Check mixed_norm(U, (b, a)) <= n1^(1/b) * n2^(1/a - 1/2) * ||U||.

    Forms must be bilinear on l_2 x l_2 (rows are the outer level b, columns
    the inner level a), so every denominator is closed-form or the exact
    singular value.  The reported ratio is the attainment against the
    dimension-weighted bound, 1 meaning the law is tight on that form.
    """
    fac = _factory(cfg, "bilinear-law")
    a, b = cfg.a, cfg.b
    for name, e in (("a", a), ("b", b)):
        if e <= 0:
            raise ValueError(f"{name} must be positive, got {e}")
    orders = ExponentVector((b, a))
    inv_b = float(b.reciprocal())
    inv_a = float(a.reciprocal())

    def lhs_of(U):
        if U.arity != 2:
            raise ValueError("bilinear-law needs arity-2 forms")
        if not all(e == 2 for e in U.domain_p):
            raise ValueError("bilinear-law forms must live on l_2 x l_2")
        return mixed_norm(U, orders)

    def record(t, U, lhs, est):
        (n1, n2), norm = U.dims, est.value
        bound = (n1 ** inv_b) * (n2 ** (inv_a - 0.5)) * norm
        return {"trial": t, "n1": n1, "n2": n2, "lhs": lhs, "norm": norm, "method": est.method,
                "bound": bound, **verdict(lhs, bound, 1, exact=True)}

    # every trial arrives alone with its estimate, closed-form or exact
    records = _run_trials(fac, cfg, lhs_of, lambda batch: [record(*trial) for trial in batch])
    return _report(cfg, records, _summary(records))


def run_base_hl(cfg: ExperimentConfig) -> ExperimentReport:
    """Full-l_2 coefficient norm against the widened-domain operator norm.

    At target arity m >= 3 this exercises arity m-1 forms on l_{2(m-1)}:
    (sum |a_J|^2)^(1/2) <= 2^((m-2)/2) * ||T|| * (1 + slack).  This is the
    input inequality the critical family's derivation consumes, so verifying
    it isolates the base step from the shift step.  The constant is fixed by
    the base arity (the configured constant choice is not consulted).
    """
    fac = _factory(cfg, "base-hl", lambda c: c.m - 1)
    if cfg.m < 3:
        raise ValueError("base-hl needs m >= 3")
    base_arity = cfg.m - 1
    dom = ExponentVector.uniform(2 * base_arity, base_arity)
    C = inequality_constant(cfg.m, "abstract").value
    full_l2 = ExponentVector.uniform(2, base_arity)

    records = _run_trials(fac, cfg, lambda T: mixed_norm(T, full_l2),
                          lambda batch: _check_trials(batch, C, cfg, _trial_row), dom)
    return _report(cfg, records, _summary(records, {"constant": C}), domain=dom)


def _battery_data(dims, space, seed, trial, d, want_complex):
    """Data sets shared by both summing quotients: columns are the vectors.

    d = 0 is the full canonical basis, d = 1 the single first basis vector,
    d = 2 one random unit vector per slot, and d >= 3 random sequences of
    random length.  Mixing degenerate with generic data keeps the battery
    maximum a usable stand-in for the supremum defining each summing norm.
    """
    mats = []
    for k, n in enumerate(dims):
        if d == 0:
            X = np.eye(n)
        elif d == 1:
            X = np.eye(n)[:, :1]
        else:
            rng = child_rng(seed, trial, d, k)
            cols = 1 if d == 2 else int(rng.integers(1, n + 1))
            X = rng.standard_normal((n, cols))
            if want_complex:
                X = X + 1j * rng.standard_normal((n, cols))
            if d == 2:
                X = X / lp_norm(X[:, 0], space)
        if want_complex:
            X = X.astype(np.complex128)
        mats.append(X)
    return mats


def _values_tensor(coeffs, mats):
    """T applied to every combination of data columns, as a dense tensor.

    One slot is contracted at a time, each a single matrix product: the
    leading axis against the slot's data, whose column axis goes last.
    """
    Y = coeffs
    for X in mats:
        Y = np.tensordot(Y, X, axes=(0, 0))
    return Y


def run_inclusion_instance(cfg: ExperimentConfig) -> ExperimentReport:
    """Estimate both summing quotients on a shared data battery and compare.

    For each trial form the base quotient (isotropic r against weak-p norms)
    and target quotient (shifted orders against weak-q norms) are maximized
    over the same battery of data sets; the trial ratio is the target
    estimate over the base estimate.  The norm-1 inclusion bounds the
    summing norms, which are suprema; on a single data set the pointwise
    ratio can legitimately exceed 1, which is why battery maxima are
    compared rather than per-data ratios.  Each maximum only stands in for
    its supremum, so the ratio divides one stand-in by another: a ratio
    above 1.05, which ``verdict`` flags as a violation and the CLI answers
    with exit 1, is a suspicion, not evidence against the theorem.  (With
    exact weak norms, ``--r 2 --p 2,2 --q 4,4 --form gauss:m=2 --n 4
    --trials 3 --datasets 6 --space 1`` flags two trials.)  Weak norms run
    at their own fixed ascent settings, and a NaN quotient makes the trial
    a violation.

    A batch of trials takes every numerator first, base then target, data
    set after data set.  The data sets then wait, up to ``CHUNK_ELEMENTS``
    sequence coefficients in all (at least one data set), for their weak
    norms: one ``weak_norm`` call per distinct order, which asks a slot
    with p_k = q_k once and seeds slot k of data set d of trial t from
    (t, d, k, 7).  Each value has the bits of a one-sequence call, so the
    records match a run that takes every weak norm on its own.
    """
    fac = _factory(cfg, "inclusion-instance", lambda c: len(c.p))
    target = inclusion_exponents(cfg.r, cfg.p, cfg.q)
    m = len(cfg.p)
    space = cfg.space if cfg.space is not None else ExtRational(2)
    if space < 1:
        raise ValueError(f"the data space order must be >= 1, got {space}")
    base = ExponentVector.uniform(cfg.r, m)
    dom = ExponentVector.uniform(space, m)
    orders = tuple(dict.fromkeys((*cfg.p, *cfg.q)))

    def check(batch):
        quotients = {t: [0.0, 0.0] for t, *_ in batch}   # (base, target) per trial

        def settle(pending):
            """Fold each pending (t, d, mats, num_base, num_target) into its
            trial's quotients, over the weak-norm products in slot order."""
            weak = {}
            for o in orders:
                asked = [(i, k) for i in range(len(pending)) for k in range(m)
                         if o in (cfg.p[k], cfg.q[k])]
                values = weak_norm([pending[i][2][k].T for i, k in asked], o, space,
                                   seed=[child_seed(cfg.seed, *pending[i][:2], k, 7)
                                         for i, k in asked])
                weak.update(zip([(i, k, o) for i, k in asked], values))
            for i, (t, _, _, *nums) in enumerate(pending):
                for j, (num, s) in enumerate(zip(nums, (cfg.p, cfg.q))):
                    den = math.prod(weak[i, k, s[k]] for k in range(m))
                    # np.maximum keeps a NaN quotient, so the ratio and verdict flag it
                    if den > 0:
                        quotients[t][j] = float(np.maximum(quotients[t][j], num / den))

        pending, size = [], 0
        for t, T, *_ in batch:
            for d in range(cfg.datasets):
                mats = _battery_data(T.dims, space, cfg.seed, t, d, T.is_complex)
                values = _values_tensor(T.coeffs, mats)
                nums = mixed_norm(values, base), mixed_norm(values, target)
                del values
                need = sum(X.size for X in mats)
                if pending and size + need > CHUNK_ELEMENTS:
                    settle(pending)
                    pending, size = [], 0
                pending.append((t, d, mats, *nums))
                size += need
        settle(pending)
        return [{"trial": t, "base_quotient": q_base, "target_quotient": q_target,
                 **verdict(q_target, q_base, 1, exact=False)}
                for t, (q_base, q_target) in quotients.items()]

    records = _run_trials(fac, cfg, lambda T: None, check, dom, exact=False)
    return _report(cfg, records, _summary(records), target_orders=target)
