"""Experiment runner: configuration handling, growth fits, report
serialization, and the behavior of each experiment on forms whose answers
are known in closed form.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from critnorm import harness, opnorm
from critnorm import (
    ExperimentConfig,
    ExponentVector,
    ExtRational,
    FormFactory,
    GrowthFit,
    InapplicableError,
    SLACK_ASCENT,
    SLACK_EXACT,
    child_seed,
    fit_growth,
    run_base_hl,
    run_bilinear_law,
    run_inclusion_instance,
    run_sharpness,
    run_verify,
)


# ------------------------------------------------------------- configuration

def test_config_coerces_exact_fields():
    cfg = ExperimentConfig(experiment="verify", exponents="inf,3,12/5",
                           a="4/3", p="2,2", sweep=[4, 8, 16])
    assert isinstance(cfg.exponents, ExponentVector)
    assert cfg.a == ExtRational("4/3")
    assert isinstance(cfg.p, ExponentVector)
    assert cfg.sweep == (4, 8, 16)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="verify", trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="verify", sweep=(8, 8))
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="verify", variant="best")
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="verify", constant="two")


# ---------------------------------------------------------------- growth fit

def test_fit_growth_recovers_an_exact_power_law():
    pts = [(n, 3.0 * n ** 0.25) for n in (4, 8, 16, 32)]
    fit = fit_growth(pts)
    assert fit.slope == pytest.approx(0.25, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)
    assert fit.as_dict() == {"slope": fit.slope, "intercept": fit.intercept,
                             "residual": fit.residual}


def test_fit_growth_validation():
    with pytest.raises(ValueError):
        fit_growth([(4, 1.0), (8, 2.0)])
    with pytest.raises(ValueError):
        fit_growth([(4, 1.0), (4, 2.0), (8, 3.0)])
    with pytest.raises(ValueError):
        fit_growth([(4, 1.0), (8, 0.0), (16, 2.0)])


# -------------------------------------------------------------------- verify

def test_verify_gaussian_trials_stay_below_the_constant():
    cfg = ExperimentConfig(experiment="verify", form="gauss:m=3", n=6, trials=8)
    rep = run_verify(cfg)
    assert rep.violations == 0
    assert rep.summary["trials"] == 8
    assert rep.summary["constant"] == pytest.approx(math.sqrt(2), rel=1e-15)
    assert all(rec["method"] == "ascent" for rec in rep.trials)
    assert rep.summary["max_ratio"] <= math.sqrt(2) * (1 + SLACK_ASCENT)


def test_verify_equality_witness_ratio_is_exactly_one():
    cfg = ExperimentConfig(experiment="verify", form="partial:m=3,r=1", n=8)
    rep = run_verify(cfg)
    assert rep.trials[0]["ratio"] == 1.0
    assert rep.trials[0]["method"] == "analytic"
    assert not rep.trials[0]["retried"]
    assert rep.violations == 0


def test_verify_is_deterministic():
    cfg = ExperimentConfig(experiment="verify", form="gauss:m=2", n=5, trials=3)
    a = run_verify(cfg).to_json()
    b = run_verify(ExperimentConfig(experiment="verify", form="gauss:m=2",
                                    n=5, trials=3)).to_json()
    assert a == b


def test_verify_explicit_exponents_override_the_variant():
    # all-inf orders give the max modulus, far below the norm
    cfg = ExperimentConfig(experiment="verify", form="gauss:m=2", n=5,
                           exponents="inf,inf", trials=2)
    rep = run_verify(cfg)
    assert rep.config["exponents_used"] == "(inf, inf)"
    assert rep.violations == 0


def _low_estimates(monkeypatch, low):
    """Route harness.operator_norm through the real one, cutting the value of
    the calls numbered in ``low`` (1-based) a thousandfold, which puts any
    ratio far above its constant.  Returns the log of (kwargs, value)."""
    real = harness.operator_norm
    log = []

    def fake(T, **kwargs):
        est = real(T, **kwargs)
        if len(log) + 1 in low:
            est = dataclasses.replace(est, value=est.value * 1e-3)
        log.append((kwargs, est.value))
        return est

    monkeypatch.setattr(harness, "operator_norm", fake)
    return log


def _assert_one_retry(log):
    """The first two calls are trial 0's estimate and its 4x retry, at the
    default seed 42 and 16 restarts."""
    assert log[0][0]["restarts"] == 16
    assert log[0][0]["seed"] == child_seed(42, 0, 1)
    assert log[1][0]["restarts"] == 64
    assert log[1][0]["seed"] == child_seed(42, 0, 2)


_RETRYING_RUNS = [
    (run_verify, ExperimentConfig(experiment="verify", form="gauss:m=3", n=6)),
    (run_base_hl, ExperimentConfig(experiment="base-hl", m=3, n=6)),
]


@pytest.mark.parametrize("run, cfg", _RETRYING_RUNS, ids=["verify", "base-hl"])
def test_a_low_first_estimate_is_retried_and_cleared(monkeypatch, run, cfg):
    log = _low_estimates(monkeypatch, low={1})
    rec = run(cfg).trials[0]
    assert len(log) == 2
    _assert_one_retry(log)
    assert rec["retried"] is True
    assert rec["violation"] is False
    assert rec["method"] == "ascent"
    assert rec["norm"] == log[1][1]
    assert rec["ratio"] == rec["lhs"] / rec["norm"]


@pytest.mark.parametrize("run, cfg", _RETRYING_RUNS, ids=["verify", "base-hl"])
def test_a_violation_that_survives_the_retry_is_reported(monkeypatch, run, cfg):
    log = _low_estimates(monkeypatch, low={1, 2})
    rep = run(cfg)
    rec = rep.trials[0]
    assert len(log) == 2
    _assert_one_retry(log)
    assert rec["retried"] is True
    assert rec["violation"] is True
    assert rec["norm"] == log[1][1]
    assert rep.violations == 1


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` with a call counter; returns the list of calls."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_a_seedless_form_is_built_and_measured_once(monkeypatch):
    """A dot spec is one form: three trials build it and take its mixed norm
    once, and record what a build per trial records."""
    cfg = ExperimentConfig(experiment="verify", form="dot:m=4", n=6, trials=3)
    with monkeypatch.context() as mp:
        makes = _count_calls(mp, FormFactory, "make")
        lhs = _count_calls(mp, harness, "mixed_norm")
        once = run_verify(cfg)
    assert (len(makes), len(lhs)) == (1, 1)
    with monkeypatch.context() as mp:
        mp.setattr(FormFactory, "takes_seed", property(lambda self: True))
        makes = _count_calls(mp, FormFactory, "make")
        per_trial = run_verify(cfg)
    assert len(makes) == 3
    assert once.trials == per_trial.trials
    assert once.to_json() == per_trial.to_json()


def test_exact_denominators_never_form_the_singular_pair(monkeypatch):
    """verify reads only the value of an exact-singular estimate, so the
    Gram solve that builds the attaining pair never runs."""
    witness = _count_calls(monkeypatch, opnorm, "_gram_witness")
    rep = run_verify(ExperimentConfig(experiment="verify", form="gauss:dims=64x64",
                                      trials=5))
    assert [t["method"] for t in rep.trials] == ["exact-singular"] * 5
    assert witness == []


def test_verify_needs_a_form():
    with pytest.raises(ValueError):
        run_verify(ExperimentConfig(experiment="verify"))


# ----------------------------------------------------------------- sharpness

def test_sharpness_flat_family_has_zero_slope():
    cfg = ExperimentConfig(experiment="sharpness", form="partial:m=3,r=1",
                           sweep=(4, 8, 16, 32))
    rep = run_sharpness(cfg)
    assert rep.growth["slope"] == pytest.approx(0.0, abs=1e-12)
    assert rep.violations == 0
    assert rep.growth_trimmed is None


def test_sharpness_printed_variant_grows_like_the_twelfth_root():
    cfg = ExperimentConfig(experiment="sharpness", form="partial:m=3,r=1",
                           sweep=(4, 8, 16, 32), variant="printed")
    rep = run_sharpness(cfg)
    assert rep.growth["slope"] == pytest.approx(1 / 12, abs=1e-10)
    # growth above the constant is a per-point violation at large n
    assert rep.summary["slope"] == rep.growth["slope"]


def test_sharpness_retries_a_low_first_estimate(monkeypatch):
    log = _low_estimates(monkeypatch, low={1})
    cfg = ExperimentConfig(experiment="sharpness", form="gauss:m=3", sweep=(3, 4, 5))
    rep = run_sharpness(cfg)
    assert len(log) == 4   # one retry at the first point, none after
    _assert_one_retry(log)
    rec = rep.trials[0]
    assert rec["norm"] == log[1][1]
    assert rec["violation"] is False
    assert list(rec) == ["n", "lhs", "norm", "method", "ratio", "violation"]
    assert rep.violations == 0


@pytest.mark.parametrize("extra", [{"trials": 5}, {"n": 99}, {"trials": 5, "n": 99}])
def test_sharpness_refuses_trials_and_n(extra):
    with pytest.raises(ValueError, match="sweep"):
        run_sharpness(ExperimentConfig(experiment="sharpness", form="partial:m=3,r=1",
                                       sweep=(4, 8, 16), **extra))


def test_sharpness_needs_three_points():
    with pytest.raises(ValueError):
        run_sharpness(ExperimentConfig(experiment="sharpness",
                                       form="dot:m=2", sweep=(4, 8)))


# -------------------------------------------------------------- bilinear law

def test_bilinear_law_row_form_is_tight():
    cfg = ExperimentConfig(experiment="bilinear-law", form="t0:n1=4,n2=64",
                           a=1, b="inf")
    rep = run_bilinear_law(cfg)
    rec = rep.trials[0]
    assert rec["ratio"] == 1.0
    assert rec["bound"] == rec["lhs"]
    assert rep.violations == 0


def test_bilinear_law_hilbert_case_never_violates():
    cfg = ExperimentConfig(experiment="bilinear-law", form="sign:m=2", n=16,
                           a=2, b=2, trials=6)
    rep = run_bilinear_law(cfg)
    assert rep.violations == 0
    # exact denominators only: the sigma_max >= frobenius/sqrt(n) floor
    # keeps sign matrices comfortably inside the bound
    assert all(rec["method"] == "exact-singular" for rec in rep.trials)


def test_bilinear_law_requires_the_l2_domain():
    cfg = ExperimentConfig(experiment="bilinear-law", form="gauss:m=3",
                           n=4, a=2, b=2)
    with pytest.raises(ValueError):
        run_bilinear_law(cfg)
    with pytest.raises(ValueError):
        run_bilinear_law(ExperimentConfig(experiment="bilinear-law",
                                          form="t0:n1=2,n2=2", a=2))


def _nan_mixed_norm(monkeypatch, calls):
    """Patch the runners' mixed_norm to return NaN on the listed calls
    (counted from 0; None means every call)."""
    real = harness.mixed_norm
    count = itertools.count()

    def fake(T, orders):
        i = next(count)
        return math.nan if calls is None or i in calls else real(T, orders)
    monkeypatch.setattr(harness, "mixed_norm", fake)


def test_a_nan_bilinear_ratio_is_a_violation(monkeypatch):
    _nan_mixed_norm(monkeypatch, None)
    rep = run_bilinear_law(ExperimentConfig(experiment="bilinear-law", form="t0:n1=4",
                                            n=8, a=1, b="inf", trials=2))
    assert rep.violations == 2
    assert all(math.isnan(rec["ratio"]) and rec["violation"] for rec in rep.trials)


# ------------------------------------------------------------------- base-hl

def test_base_hl_bilinear_case_matches_the_frobenius_identity():
    """For m = 3 the checked quantity is the Frobenius norm over the exact
    sigma_max, which is at most sqrt(rank) <= sqrt(n) but must exceed 1."""
    cfg = ExperimentConfig(experiment="base-hl", m=3, n=6, trials=6)
    rep = run_base_hl(cfg)
    assert rep.violations == 0
    assert rep.summary["constant"] == pytest.approx(math.sqrt(2), rel=1e-15)
    for rec in rep.trials:
        assert rec["method"] == "ascent"   # widened l_4 domain, not l_2
        assert rec["ratio"] <= math.sqrt(2) * (1 + SLACK_ASCENT)


def test_base_hl_validation():
    with pytest.raises(ValueError):
        run_base_hl(ExperimentConfig(experiment="base-hl", m=2, n=4))
    with pytest.raises(ValueError):
        run_base_hl(ExperimentConfig(experiment="base-hl", n=4))


# -------------------------------------------------------- inclusion instance

def test_inclusion_instance_identical_orders_tie_out_bitwise():
    cfg = ExperimentConfig(experiment="inclusion-instance", r=2,
                           p="4/3,4/3", q="4/3,4/3", n=4, trials=2, datasets=3)
    rep = run_inclusion_instance(cfg)
    assert [rec["ratio"] for rec in rep.trials] == [1.0, 1.0]
    assert rep.violations == 0


def test_inclusion_instance_worked_shift():
    cfg = ExperimentConfig(experiment="inclusion-instance", r=2,
                           p="4/3,4/3", q="3/2,3/2", n=4, trials=3, datasets=4)
    rep = run_inclusion_instance(cfg)
    assert rep.violations == 0
    assert rep.config["target_orders"] == "(3, 12/5)"
    for rec in rep.trials:
        assert rec["ratio"] <= 1 + SLACK_ASCENT


@pytest.mark.parametrize("calls", [None, {0}, {3}], ids=["every", "first-base", "a-target"])
def test_a_nan_quotient_makes_the_inclusion_trial_a_violation(monkeypatch, calls):
    """Each data set calls mixed_norm for the base, then the target
    numerator; one NaN quotient anywhere in the battery flags the trial."""
    _nan_mixed_norm(monkeypatch, calls)
    cfg = ExperimentConfig(experiment="inclusion-instance", r=2,
                           p="4/3,4/3", q="3/2,3/2", n=4, trials=1, datasets=3)
    rep = run_inclusion_instance(cfg)
    assert rep.violations == 1
    assert math.isnan(rep.trials[0]["ratio"])


def test_a_nan_ratio_after_a_finite_one_is_the_summary_maximum(monkeypatch):
    _nan_mixed_norm(monkeypatch, {6})   # the first call of trial 1 (3 data sets)
    cfg = ExperimentConfig(experiment="inclusion-instance", r=2,
                           p="4/3,4/3", q="3/2,3/2", n=4, trials=2, datasets=3)
    rep = run_inclusion_instance(cfg)
    assert [rec["violation"] for rec in rep.trials] == [False, True]
    assert math.isnan(rep.summary["max_ratio"])


def test_inclusion_instance_propagates_inapplicability():
    cfg = ExperimentConfig(experiment="inclusion-instance", r=2,
                           p="3/2,3/2", q="4/3,4/3", n=4)
    with pytest.raises(InapplicableError):
        run_inclusion_instance(cfg)
    with pytest.raises(ValueError):
        run_inclusion_instance(ExperimentConfig(experiment="inclusion-instance",
                                                r=2, p="2,2", n=4))


# ------------------------------------------------------------------- reports

def test_report_json_round_trips_and_rounds():
    cfg = ExperimentConfig(experiment="verify", form="gauss:m=2", n=4, trials=2)
    rep = run_verify(cfg)
    payload = json.loads(rep.to_json())
    assert payload["experiment"] == "verify"
    assert payload["config"]["form"] == "gauss:m=2"
    assert len(payload["trials"]) == 2
    # every float in the file is at most 12 significant digits
    text = rep.to_json()
    assert f"{rep.summary['max_ratio']:.12g}" in text


def test_report_csv_shape(tmp_path):
    cfg = ExperimentConfig(experiment="verify", form="gauss:m=2", n=4, trials=3)
    rep = run_verify(cfg)
    csv_text = rep.to_csv()
    lines = csv_text.strip().split("\n")
    assert len(lines) == 4
    assert lines[0].split(",")[0] == "trial"
    assert lines[1].endswith("false")
    out = tmp_path / "rep.csv"
    rep.write(out, "csv")
    assert out.read_text() == csv_text
    with pytest.raises(ValueError):
        rep.write(out, "yaml")


def test_report_write_json_is_stable(tmp_path):
    cfg = ExperimentConfig(experiment="sharpness", form="dot:m=2",
                           sweep=(4, 8, 16))
    rep = run_sharpness(cfg)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    rep.write(p1)
    run_sharpness(cfg).write(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_slack_constants():
    assert SLACK_EXACT == 1e-9
    assert SLACK_ASCENT == 0.05
