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
from critnorm.opnorm import ASCENT_DEFAULTS
from critnorm import (
    ExperimentConfig,
    ExponentVector,
    ExtRational,
    FormFactory,
    GrowthFit,
    InapplicableError,
    MultilinearForm,
    SLACK_ASCENT,
    SLACK_EXACT,
    child_seed,
    fit_growth,
    inclusion_exponents,
    mixed_norm,
    parse_form_spec,
    run_base_hl,
    run_bilinear_law,
    run_inclusion_instance,
    run_sharpness,
    run_verify,
    save_tensor,
    weak_norm,
)


# ------------------------------------------------------------- configuration

def test_config_coerces_exact_fields():
    cfg = ExperimentConfig(experiment="verify", form="gauss:m=3", exponents="inf,3,12/5")
    assert isinstance(cfg.exponents, ExponentVector)
    assert ExperimentConfig("verify", form="gauss:m=3", exponents="printed").exponents == "printed"
    assert ExperimentConfig("bilinear-law", form="t0:n1=2", a="4/3", b="inf").a == \
        ExtRational("4/3")
    cfg = ExperimentConfig("inclusion-instance", r=2, p="2,2", q=[4, 4])
    assert isinstance(cfg.p, ExponentVector) and isinstance(cfg.q, ExponentVector)
    assert ExperimentConfig("sharpness", form="dot:m=3", sweep=[4, 8, 16]).sweep == (4, 8, 16)
    assert ExperimentConfig("sharpness", form="dot:m=3", sweep="4,8,16").sweep == (4, 8, 16)


@pytest.mark.parametrize("sweep, bad", [((4, 8.7, 16), "8.7"), ("4,x,8", "'x'"),
                                        ((4, "8", None), "None")],
                         ids=["float", "letter", "none"])
def test_config_refuses_a_sweep_entry_that_is_no_integer(sweep, bad):
    """An entry is an integer, given as one or as text; any other is refused,
    not truncated, and named."""
    with pytest.raises(ValueError, match=f"^sweep entries must be integers, got {bad}$"):
        ExperimentConfig("sharpness", form="dot:m=3", sweep=sweep)
    assert ExperimentConfig("sharpness", form="dot:m=3", sweep=(np.int64(4), "8")).sweep == (4, 8)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="verify", form="gauss:m=2", trials=0)
    with pytest.raises(ValueError, match="sweep values must increase strictly"):
        ExperimentConfig(experiment="sharpness", form="gauss:m=2", sweep=(8, 8))
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="verify", form="gauss:m=2", exponents="best")
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="verify", form="gauss:m=2", constant="two")


def test_config_refuses_a_setting_its_experiment_does_not_read():
    """A field outside the experiment's reads must keep its default, so no
    setting is dropped silently; a default given explicitly is not a setting."""
    with pytest.raises(ValueError, match="^verify does not read sweep, a, space, datasets$"):
        ExperimentConfig("verify", form="gauss:m=3", n=3, sweep=(4, 8, 16), datasets=9, a=2,
                         space=3)
    with pytest.raises(ValueError, match="^base-hl does not read exponents$"):
        ExperimentConfig("base-hl", m=3, exponents="printed")
    cfg = ExperimentConfig("bilinear-law", form="t0:n1=2", n=4, a=2, b=2, exponents="derived",
                           restarts=ASCENT_DEFAULTS.restarts, datasets=6)
    assert run_bilinear_law(cfg).violations == 0


def test_config_refuses_an_experiment_no_runner_reads():
    with pytest.raises(ValueError, match="unknown experiment 'nonsense'"):
        ExperimentConfig("nonsense", form="gauss:m=2", n=3)


# one config that each experiment runs
_CONFIGS = {
    "verify": {"form": "dot:m=3", "n": 4},
    "sharpness": {"form": "dot:m=2", "sweep": (2, 3, 4)},
    "bilinear-law": {"form": "t0:n1=2", "n": 4, "a": 2, "b": "inf"},
    "base-hl": {"m": 3, "n": 3},
    "inclusion-instance": {"r": 2, "p": "2,2", "q": "4,4", "n": 3},
}


@pytest.mark.parametrize("runner, made_for", [(runner, other) for runner in _CONFIGS
                                              for other in _CONFIGS if other != runner])
def test_a_runner_refuses_a_config_made_for_another_experiment(runner, made_for, monkeypatch):
    """A config was checked against the settings its own experiment reads
    and needs, so another runner would read settings nobody checked.  The
    refusal names both experiments and comes before any form is built."""
    built = []
    monkeypatch.setattr(FormFactory, "make", lambda self, **kw: built.append(kw))
    run = getattr(harness, "run_" + runner.replace("-", "_"))
    cfg = ExperimentConfig(made_for, **_CONFIGS[made_for])
    with pytest.raises(ValueError, match=f"^{runner} cannot run a config made for {made_for}$"):
        run(cfg)
    assert built == []


@pytest.mark.parametrize("settings, message", [
    ({"restarts": 0}, "restarts must be >= 1"),
    ({"tol": math.nan}, "tol must be positive and finite"),
    ({"tol": math.inf}, "tol must be positive and finite"),
    ({"tol": -1.0}, "tol must be positive and finite"),
    ({"max_iters": 0}, "max_iters must be >= 1"),
])
def test_config_refuses_bad_ascent_settings(settings, message):
    """Checked with the config, so a run whose norms are all exact, which
    never starts an ascent, refuses them too."""
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(experiment="verify", form="dot:m=3", n=8, **settings)


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


def test_verify_takes_an_explicit_order_vector():
    # all-inf orders give the max modulus, far below the norm
    cfg = ExperimentConfig(experiment="verify", form="gauss:m=2", n=5,
                           exponents="inf,inf", trials=2)
    rep = run_verify(cfg)
    assert (rep.config["exponents"], rep.config["exponents_used"]) == ("inf,inf", "inf,inf")
    assert rep.violations == 0


def _low_estimates(monkeypatch, low):
    """Route harness.norms through the real one, cutting the value of
    the estimates numbered in ``low`` (1-based, counted over the forms of
    every call in order) a thousandfold, which puts any ratio far above its
    constant.  Returns the log of (restarts, seed, value), one entry per
    estimate, and the number of forms of each call in ``log.calls``."""
    real = harness.norms
    log = _EstimateLog()

    def fake(forms, seeds, **kwargs):
        ests = real(forms, seeds, **kwargs)
        log.calls.append(len(ests))
        for i, (seed, est) in enumerate(zip(seeds, ests)):
            if len(log) + 1 in low:
                ests[i] = est = dataclasses.replace(est, value=est.value * 1e-3)
            log.append((kwargs["restarts"], seed, est.value))
        return ests

    monkeypatch.setattr(harness, "norms", fake)
    return log


class _EstimateLog(list):
    """One (restarts, seed, value) entry per estimate, plus ``calls``."""

    def __init__(self):
        super().__init__()
        self.calls = []


def _assert_one_retry(log):
    """The first two estimates are trial 0's and its 4x retry, at the
    default seed 42 and 16 restarts."""
    assert log[0][:2] == (16, child_seed(42, 0, 1))
    assert log[1][:2] == (64, child_seed(42, 0, 2))


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
    assert rec["norm"] == log[1][2]
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
    assert rec["norm"] == log[1][2]
    assert rep.violations == 1


@pytest.mark.parametrize("run, cfg", _RETRYING_RUNS, ids=["verify", "base-hl"])
def test_a_retry_that_ends_lower_keeps_the_first_estimate(monkeypatch, run, cfg):
    """Both passes give lower bounds on one norm, so a retried trial is
    judged by the larger: estimate 1 is cut to flag the trial, and its
    retry, estimate 2, is cut a thousandfold further."""
    _low_estimates(monkeypatch, low={1, 2})
    log = _low_estimates(monkeypatch, low={2})
    rec = run(cfg).trials[0]
    assert len(log) == 2
    _assert_one_retry(log)
    assert log[1][2] < log[0][2]
    assert rec["retried"] is True
    assert rec["norm"] == log[0][2]
    assert rec["ratio"] == rec["lhs"] / log[0][2]
    assert rec["violation"] is True


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


def test_an_exact_denominator_derives_no_seed(monkeypatch):
    """The exact singular value uses no seed, so an l_2 bilinear verify run
    derives only its form seeds (t, 0); an ascent run also derives each
    trial's denominator seed (t, 1)."""
    seeds = _count_calls(monkeypatch, harness, "child_seed")
    rep = run_verify(ExperimentConfig(experiment="verify", form="gauss:m=2", n=5, trials=3))
    assert [t["method"] for t in rep.trials] == ["exact-singular"] * 3
    assert seeds == [(42, t, 0) for t in range(3)]
    seeds.clear()
    rep = run_verify(ExperimentConfig(experiment="verify", form="gauss:m=3", n=4, trials=2))
    assert [t["method"] for t in rep.trials] == ["ascent"] * 2
    # the two trials are one batch: both forms are built, then both denominators seeded
    assert seeds == [(42, 0, 0), (42, 1, 0), (42, 0, 1), (42, 1, 1)]


@pytest.mark.parametrize("run, cfg", _RETRYING_RUNS, ids=["verify", "base-hl"])
def test_a_batch_retries_only_its_cut_trial(monkeypatch, run, cfg):
    """Five trials make one batch: one call estimates all five, and when only
    trial 2's estimate is cut, one more call retries trial 2 alone, at 64
    restarts and seed (2, 2).  Every other record is what an uncut run
    records, and so are trial 2's lhs and dims."""
    cfg = dataclasses.replace(cfg, trials=5)
    plain = run(cfg).trials
    log = _low_estimates(monkeypatch, low={3})
    cut = run(cfg).trials
    assert log.calls == [5, 1]
    assert [entry[:2] for entry in log] == \
        [(16, child_seed(42, t, 1)) for t in range(5)] + [(64, child_seed(42, 2, 2))]
    assert cut[:2] + cut[3:] == plain[:2] + plain[3:]
    assert cut[2]["retried"] is True and plain[2]["retried"] is False
    assert cut[2]["norm"] == log[5][2]
    assert cut[2]["violation"] is False
    assert {k: cut[2][k] for k in ("trial", "dims", "lhs")} == \
        {k: plain[2][k] for k in ("trial", "dims", "lhs")}


def test_trials_are_batched_up_to_the_chunk_size(monkeypatch):
    """A batch holds up to CHUNK_ELEMENTS coefficients: two trials of
    64**3 = 2**18 coefficients run one per call, and seven trials of 4**3 in
    one call, whose report is byte for byte that of one trial per call."""
    log = _low_estimates(monkeypatch, low=set())
    assert 64 ** 3 == harness.CHUNK_ELEMENTS
    run_verify(ExperimentConfig(experiment="verify", form="gauss:m=3", n=64,
                                trials=2, restarts=1, max_iters=3))
    assert log.calls == [1, 1]
    log.calls.clear()
    cfg = ExperimentConfig(experiment="verify", form="gauss:m=3", n=4, trials=7)
    batched = run_verify(cfg)
    assert log.calls == [7]
    monkeypatch.setattr(harness, "CHUNK_ELEMENTS", 1)
    log.calls.clear()
    assert run_verify(cfg).to_json() == batched.to_json()
    assert log.calls == [1] * 7


def test_exact_trials_do_not_depend_on_the_chunk_size(monkeypatch):
    """Exact-singular trials join no batch, so a run with CHUNK_ELEMENTS at 1
    writes the report of a default run, byte for byte, with no ascent."""
    log = _low_estimates(monkeypatch, low=set())
    cfg = ExperimentConfig(experiment="verify", form="gauss:dims=6x5", trials=7)
    default = run_verify(cfg)
    monkeypatch.setattr(harness, "CHUNK_ELEMENTS", 1)
    assert run_verify(cfg).to_json() == default.to_json()
    assert [t["method"] for t in default.trials] == ["exact-singular"] * 7
    assert log.calls == []


@pytest.mark.parametrize("run, cfg", [
    (run_verify, ExperimentConfig(experiment="verify", form="gauss:dims=64x64", trials=65)),
    (run_bilinear_law, ExperimentConfig(experiment="bilinear-law", form="gauss:m=2", n=64,
                                        a=2, b=2, trials=65)),
], ids=["verify", "bilinear-law"])
def test_exact_trials_are_recorded_as_they_are_built(monkeypatch, run, cfg, traced_peak):
    """A trial whose norm is exact takes it as soon as its form is built, and
    its form is released before the next one is built: 65 trials of 64 x 64
    forms (32 KB each) alternate builds and singular values, and never hold
    more than a few forms at once, where one 64-form batch would take 2 MB."""
    calls = []
    for owner, name in ((FormFactory, "make"), (opnorm, "spectral_norm")):
        real = getattr(owner, name)

        def logged(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, logged)
    rep, peak = traced_peak(lambda: run(cfg))
    assert rep.violations == 0
    assert calls == ["make", "spectral_norm"] * 65
    assert peak <= 6 * 64 * 64 * 8


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
                           sweep=(4, 8, 16, 32), exponents="printed")
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
    assert rec["norm"] == log[1][2]
    assert rec["violation"] is False
    assert list(rec) == ["n", "lhs", "norm", "method", "ratio", "retried", "violation"]
    assert rep.violations == 0


def test_sharpness_releases_each_form_before_building_the_next(traced_peak):
    """The 64 x 65536 form of the last point is built after the 64 x 32768
    one is released, so the run's peak stays within 1.2 times the largest
    tensor.  (t0 forms are dense; the diagonal witnesses keep no tensor.)"""
    cfg = ExperimentConfig(experiment="sharpness", form="t0:n1=64",
                           sweep=(8192, 16384, 32768, 65536))
    rep, peak = traced_peak(lambda: run_sharpness(cfg))
    assert rep.violations == 0
    assert peak <= 1.2 * 64 * 65536 * 8


def test_verify_releases_each_form_before_building_the_next(traced_peak):
    """Trials of 64**3 complex coefficients run one form at a time, and the
    previous form is released before the next is built: building one takes
    its tensor plus a real draw of half its size, so three trials peak at
    1.5 tensors, where holding the previous form would take 2.5."""
    cfg = ExperimentConfig(experiment="verify", form="gauss:m=3,scalar=complex", n=64,
                           trials=3, restarts=2, max_iters=4)
    _, peak = traced_peak(lambda: run_verify(cfg))
    assert peak <= 1.75 * 64 ** 3 * 16


@pytest.mark.parametrize("run, cfg", [
    (run_verify, ExperimentConfig(experiment="verify", form="dot:m=4", n=40, trials=3)),
    (run_sharpness, ExperimentConfig(experiment="sharpness", form="partial:m=4,r=1",
                                     sweep=(8, 16, 24, 32, 40))),
], ids=["verify-dot", "sharpness-partial"])
def test_witness_runs_never_build_a_dense_tensor(run, cfg, traced_peak):
    """A diagonal witness keeps its n nonzero entries, its mixed norm is
    reduced from them and its norm is closed-form, so a run over 40**4
    witnesses (20 MB each when dense) stays under 64 KB."""
    rep, peak = traced_peak(lambda: run(cfg))
    assert rep.violations == 0
    assert peak < 64 * 1024


def test_sharpness_reaches_n_1024_on_a_pinned_witness():
    """Under the printed orders partial:m=3,r=1 grows like n^(1/12); from
    n = 128 on its closed-form ratio exceeds the constant, a certified
    violation.  The dense tensor at n = 1024 would take 8.6 GB."""
    cfg = ExperimentConfig(experiment="sharpness", form="partial:m=3,r=1",
                           sweep=(64, 128, 256, 512, 1024), exponents="printed")
    rep = run_sharpness(cfg)
    assert rep.growth["slope"] == pytest.approx(1 / 12, abs=1e-12)
    assert [rec["n"] for rec in rep.trials if rec["violation"]] == [128, 256, 512, 1024]
    assert {rec["method"] for rec in rep.trials} == {"analytic"}


@pytest.mark.parametrize("extra", [{"trials": 5}, {"n": 99}, {"trials": 5, "n": 99}])
def test_sharpness_refuses_trials_and_n(extra):
    """Sharpness takes its dimensions from the sweep and runs one form per
    point, so its config refuses the settings it does not read."""
    with pytest.raises(ValueError, match="^sharpness does not read (n|trials|n, trials)$"):
        ExperimentConfig(experiment="sharpness", form="partial:m=3,r=1", sweep=(4, 8, 16),
                         **extra)


def test_sharpness_needs_three_points():
    with pytest.raises(ValueError):
        run_sharpness(ExperimentConfig(experiment="sharpness",
                                       form="dot:m=2", sweep=(4, 8)))


# -------------------------------------------------------------- bilinear law

def test_bilinear_law_row_form_is_tight():
    cfg = ExperimentConfig(experiment="bilinear-law", form="t0:n1=4", n=64,
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


def test_bilinear_law_requires_the_l2_domain(tmp_path):
    cfg = ExperimentConfig(experiment="bilinear-law", form="gauss:m=3",
                           n=4, a=2, b=2)
    with pytest.raises(ValueError, match="needs arity-2 forms"):
        run_bilinear_law(cfg)
    path = tmp_path / "l3.json"
    save_tensor(MultilinearForm(np.eye(2), domain_p=(3, 3)), path)
    with pytest.raises(ValueError, match="must live on l_2 x l_2"):
        run_bilinear_law(ExperimentConfig(experiment="bilinear-law",
                                          form=f"file:{path}", a=2, b=2))


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
    assert rep.config["target_orders"] == "3,12/5"
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


def _inclusion_one_weak_norm_at_a_time(cfg):
    """The inclusion-instance records with every weak norm taken by its own
    ``weak_norm`` call, data set by data set, in slot order."""
    target = inclusion_exponents(cfg.r, cfg.p, cfg.q)
    m = len(cfg.p)
    space = cfg.space if cfg.space is not None else ExtRational(2)
    base = ExponentVector.uniform(cfg.r, m)
    fac = parse_form_spec(cfg.form)
    records = []
    for t in range(cfg.trials):
        T = fac.make(n=cfg.n, seed=child_seed(cfg.seed, t, 0),
                     domain_p=ExponentVector.uniform(space, m))
        q_base = q_target = 0.0
        for d in range(cfg.datasets):
            mats = harness._battery_data(T.dims, space, cfg.seed, t, d, T.is_complex)
            values = harness._values_tensor(T.coeffs, mats)
            num_base, num_target = mixed_norm(values, base), mixed_norm(values, target)
            den_base = den_target = 1.0
            for k, X in enumerate(mats):
                wseed = child_seed(cfg.seed, t, d, k, 7)
                den_base *= weak_norm([X.T], cfg.p[k], space, seed=[wseed])[0]
                den_target *= weak_norm([X.T], cfg.q[k], space, seed=[wseed])[0]
            if den_base > 0:
                q_base = float(np.maximum(q_base, num_base / den_base))
            if den_target > 0:
                q_target = float(np.maximum(q_target, num_target / den_target))
        ratio = harness._ratio(q_target, q_base)
        records.append({"trial": t, "base_quotient": q_base, "target_quotient": q_target,
                        "ratio": ratio, "violation": not ratio <= 1 + SLACK_ASCENT})
    return records


INCLUSION_CASES = {
    "readme": dict(p="2,2,2", q="4,2,2", form="gauss:m=3", n=6, trials=2, datasets=4),
    "complex": dict(p="4/3,4/3", q="3/2,3/2", form="gauss:m=2,scalar=complex", n=5,
                    trials=3, datasets=5),
    "space-1": dict(p="2,2", q="4,4", form="gauss:m=2", n=4, trials=3, datasets=6, space=1),
    "space-inf": dict(p="4/3,4/3", q="3/2,3/2", form="gauss:m=2", n=4, trials=2, datasets=5,
                      space="inf"),
    "equal-orders": dict(p="4/3,4/3", q="4/3,4/3", form="gauss:m=2", n=4, trials=2,
                         datasets=3),
    "complex-m3-inf": dict(p="2,2,2", q="4,2,2", form="gauss:m=3,scalar=complex", n=4,
                           trials=3, datasets=6, space="inf"),
    "seedless": dict(p="2,2", q="4,4", form="dot:m=2", n=5, trials=2, datasets=4),
    "sign-space-1": dict(p="4/3,4/3,4/3", q="3/2,3/2,3/2", form="sign:m=3", n=5, trials=4,
                         datasets=5, space=1),
}


@pytest.mark.parametrize("case", INCLUSION_CASES)
def test_inclusion_records_equal_one_weak_norm_call_at_a_time(case):
    cfg = ExperimentConfig(experiment="inclusion-instance", r=2, **INCLUSION_CASES[case])
    assert run_inclusion_instance(cfg).trials == _inclusion_one_weak_norm_at_a_time(cfg)


def test_the_readme_inclusion_example_asks_each_weak_norm_once(monkeypatch):
    weak = _count_calls(monkeypatch, harness, "weak_norm")
    spectral = _count_calls(monkeypatch, opnorm, "spectral_norm")
    ascents = _count_calls(monkeypatch, opnorm, "_ascend")
    cfg = ExperimentConfig(experiment="inclusion-instance", r=2, **INCLUSION_CASES["readme"])
    run_inclusion_instance(cfg)
    # 8 data sets: slots 2 and 3 (p = q = 2) and slot 1's base are spectral,
    # slot 1's target (q = 4) is one ascent block per distinct pairing shape
    assert len(weak) == 2
    assert len(spectral) == 24
    assert 1 <= len(ascents) <= 3


def test_pending_weak_norm_sequences_stay_within_the_chunk(monkeypatch):
    cfg = ExperimentConfig(experiment="inclusion-instance", r=2, **INCLUSION_CASES["readme"])
    want = _inclusion_one_weak_norm_at_a_time(cfg)
    weak = _count_calls(monkeypatch, harness, "weak_norm")
    # a data set holds up to 108 sequence coefficients and a batch one trial,
    # so each trial's data sets settle in more than one pass
    monkeypatch.setattr(harness, "CHUNK_ELEMENTS", 150)
    assert run_inclusion_instance(cfg).trials == want
    assert len(weak) > 2 * cfg.trials
    assert max(sum(X.size for X in seqs) for seqs, *_ in weak) <= 150
    weak.clear()
    monkeypatch.setattr(harness, "CHUNK_ELEMENTS", 1)     # one data set at a time
    assert run_inclusion_instance(cfg).trials == want
    assert len(weak) == 2 * cfg.trials * cfg.datasets


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
    rep.write(out)
    assert out.read_text() == csv_text


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


@pytest.mark.parametrize("exact, slack", [(True, SLACK_EXACT), (False, SLACK_ASCENT)])
@pytest.mark.parametrize("C", [1, math.sqrt(2)])
def test_verdict_edges(exact, slack, C):
    """A ratio at C * (1 + slack) passes and the next float up does not; a
    NaN ratio is a violation; 0/0 passes as ratio 0 and a positive lhs over
    a zero denominator fails as ratio inf."""
    limit = C * (1 + slack)
    assert harness.verdict(limit, 1.0, C, exact) == {"ratio": limit, "violation": False}
    assert harness.verdict(np.nextafter(limit, math.inf), 1.0, C, exact)["violation"] is True
    nan = harness.verdict(math.nan, 1.0, C, exact)
    assert math.isnan(nan["ratio"]) and nan["violation"] is True
    assert harness.verdict(0.0, 0.0, C, exact) == {"ratio": 0.0, "violation": False}
    assert harness.verdict(2.0, 0.0, C, exact) == {"ratio": math.inf, "violation": True}


def test_verdict_slack_follows_the_denominator_kind():
    """The ascent slack is headroom for a lower bound only: the same ratio
    over an exact denominator is a violation.  ``retried`` sits between
    ratio and violation when given."""
    assert harness.verdict(1 + SLACK_ASCENT, 1.0, 1, exact=False)["violation"] is False
    assert harness.verdict(1 + SLACK_ASCENT, 1.0, 1, exact=True)["violation"] is True
    assert list(harness.verdict(1.0, 1.0, 1, False, retried=True)) == \
        ["ratio", "retried", "violation"]
