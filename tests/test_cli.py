"""Command line behavior: output, exit codes, and report files."""

import dataclasses
import inspect
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from critnorm import (VARIANTS, ExperimentConfig, ExponentVector, ExtRational, MultilinearForm,
                      NormEstimate, critical_exponents, inclusion_exponents,
                      make_gaussian_random, mixed_norm, parse_form_spec, run_verify,
                      save_tensor, to_dict, weak_norm)
from critnorm import harness, opnorm
from critnorm.cli import _build_parser, main
from critnorm.harness import EXPERIMENTS, fmt12, orders_at


def _save_with_bad_entry(T, index, bad, path):
    """Write ``T`` as ``save_tensor`` does, with the coefficient at ``index``
    replaced by ``bad``: a form refuses a non-finite entry, a file can hold one."""
    payload = to_dict(T)
    payload["coeffs"][int(np.ravel_multi_index(index, T.dims))] = bad
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def test_exponents_critical_family(capsys):
    assert main(["exponents", "--m", "3"]) == 0
    out = capsys.readouterr().out
    assert "s = inf,3,12/5" in out.splitlines()
    assert "s ~ inf,3,2.4" in out.splitlines()
    assert "constant = 2^(1/2) = 1.41421356237" in out


def test_exponents_json_output(capsys):
    assert main(["exponents", "--m", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["s"] == ["inf", "3", "12/5"]
    assert payload["s_decimal"] == ["inf", 3, 2.4]
    assert payload["constant"] == "2^(1/2)"
    assert payload["constant_decimal"] == pytest.approx(2 ** 0.5, rel=1e-11)


def test_exponents_inclusion_json_output(capsys):
    assert main(["exponents", "--r", "2", "--p", "4/3,4/3",
                 "--q", "3/2,3/2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["s"] == ["3", "12/5"]
    assert payload["s_decimal"] == [3, 2.4]


def test_exponents_variant_and_constant_flags(capsys):
    assert main(["exponents", "--m", "4", "--variant", "printed",
                 "--constant", "theorem"]) == 0
    out = capsys.readouterr().out
    assert "s = inf,3,12/5,2" in out.splitlines()
    assert "2^(3/2)" in out


def test_exponents_inclusion_mode(capsys):
    assert main(["exponents", "--r", "2", "--p", "4/3,4/3", "--q", "3/2,3/2"]) == 0
    assert "s = 3,12/5" in capsys.readouterr().out.splitlines()


def _printed_orders(capsys, argv) -> str:
    """The value of the ``s =`` line that ``exponents`` prints for ``argv``."""
    assert main(["exponents", *argv]) == 0
    (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("s = ")]
    return line[len("s = "):]


@pytest.mark.parametrize("variant", VARIANTS)
def test_the_printed_orders_parse_back_and_run_as_the_variant(variant, tmp_path, capsys):
    """The ``s =`` value is in the syntax of the order options: it parses to
    the critical family at every m, and at m = 3 it runs ``verify`` to the
    trials that the variant's name gives."""
    for m in range(2, 13):
        printed = _printed_orders(capsys, ["--m", str(m), "--variant", variant])
        assert ExponentVector(printed) == critical_exponents(m, variant)
    printed = _printed_orders(capsys, ["--m", "3", "--variant", variant])
    trials = []
    for orders in (printed, variant):
        out = tmp_path / f"{len(trials)}.json"
        assert main(["verify", "--form", "gauss:m=3", "--n", "4", "--trials", "2",
                     "--exponents", orders, "--out", str(out)]) == 0
        trials.append(json.loads(out.read_text())["trials"])
    assert trials[0] == trials[1]


@pytest.mark.parametrize("r, p, q", [("2", "2,2", "4,4"), ("2", "4/3,4/3", "3/2,3/2"),
                                     ("1", "2,2,2", "4,4,4"), ("1", "3/2,2,3", "2,4,inf")])
def test_the_printed_inclusion_orders_parse_back_and_run(r, p, q, capsys):
    """In inclusion mode the ``s =`` value parses to ``inclusion_exponents``
    and, given to ``norm mixed --exponents``, takes the lhs at those orders."""
    printed = _printed_orders(capsys, ["--r", r, "--p", p, "--q", q])
    s = inclusion_exponents(r, p, q)
    assert ExponentVector(printed) == s
    form = f"gauss:m={len(s)}"
    assert main(["norm", "mixed", "--form", form, "--n", "3", "--seed", "7",
                 "--exponents", printed]) == 0
    want = fmt12(mixed_norm(parse_form_spec(form).make(n=3, seed=7), s))
    assert capsys.readouterr().out.strip() == want


def test_exponents_inapplicable_is_exit_2(capsys):
    assert main(["exponents", "--r", "2", "--p", "3/2,3/2", "--q", "4/3,4/3"]) == 2
    assert "inapplicable:" in capsys.readouterr().err


def test_exponents_usage_error(capsys):
    assert main(["exponents"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value, message", [
    ("x", "Invalid literal for Fraction: 'x'"), ("1/0", "'1/0' has a zero denominator"),
], ids=["bad-literal", "zero-denominator"])
@pytest.mark.parametrize("option", ["--p", "--q"])
def test_admissible_prints_its_parsers_message(option, value, message, capsys):
    """A bad scalar order prints ``ExtRational``'s own message, as a
    ``harness.PARSERS`` option prints its parser's."""
    argv = {"--p": "4", "--q": "4", "--a": "2", "--b": "inf", option: value}
    with pytest.raises(SystemExit) as exc:
        main(["admissible", *(t for kv in argv.items() for t in kv)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"error: argument {option}: {message}")


def test_an_order_has_one_infinity_token_and_one_argument(capsys):
    """``inf``, as ``str`` prints it, is the one spelling of infinity, and
    ``ExtRational`` takes one value: a Fraction, not a (num, den) pair."""
    for token in ("+inf", "infinity", "oo", "INF"):
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            ExtRational(token)
    with pytest.raises(TypeError):
        ExtRational(3, 2)
    with pytest.raises(SystemExit) as exc:
        main(["admissible", "--p", "infinity", "--q", "4", "--a", "2", "--b", "inf"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        "error: argument --p: Invalid literal for Fraction: 'infinity'")


def test_admissible_exit_codes(capsys):
    assert main(["admissible", "--p", "4", "--q", "4", "--a", "2", "--b", "2"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["admissible", "--p", "4", "--q", "4", "--a", "4/3", "--b", "2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("false\n")
    assert "3/2" in out
    assert main(["admissible", "--p", "2", "--q", "2", "--a", "2", "--b", "2"]) == 2
    assert "critical line" in capsys.readouterr().err


def test_norm_mixed(capsys):
    assert main(["norm", "mixed", "--form", "dot:m=3,n=8",
                 "--exponents", "inf,3,12/5"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_norm_mixed_variant_name(capsys):
    # "derived" resolves to (inf, 3, 12/5) at the form's arity
    assert main(["norm", "mixed", "--form", "dot:m=3,n=8",
                 "--exponents", "derived"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_norm_op_exact_case(capsys):
    assert main(["norm", "op", "--form", "t0:n1=4,n2=9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 3
    assert payload["method"] == "exact-singular"
    assert payload["converged"] is True


def test_norm_op_ascent_case(capsys):
    assert main(["norm", "op", "--form", "partial:m=3,n=8,r=1",
                 "--restarts", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "ascent"
    assert payload["value"] == pytest.approx(2.0, rel=1e-6)
    assert payload["restarts_used"] == 6
    assert payload["iterations"] > 0


def test_norm_op_on_an_arity_1_form(capsys):
    """A linear form's norm is exact: on its default l_1 domain, the largest
    coefficient modulus, taken with no restart or sweep."""
    assert main(["norm", "op", "--form", "gauss:dims=6", "--restarts", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    want = float(f"{np.abs(make_gaussian_random((6,), seed=42).coeffs).max():.12g}")
    assert payload == {"value": want, "method": "exact-dual", "restarts_used": 0,
                       "iterations": 0, "converged": True}


def test_the_ascent_defaults_have_one_definition():
    """``ascent_norm``, ``norms``, ``ExperimentConfig`` and the ``norm``
    command all default to ``opnorm.ASCENT_DEFAULTS``: the command seeds by
    it and leaves an ascent setting it is not given to ``norms``."""
    defaults = opnorm.ASCENT_DEFAULTS
    assert tuple(defaults) == (16, 1e-10, 500, 42)
    for fn in (opnorm.ascent_norm, opnorm.norms):
        for name, param in inspect.signature(fn).parameters.items():
            if name in defaults._fields:
                assert param.default == getattr(defaults, name), (fn.__name__, name)
    cfg = ExperimentConfig("verify", form="dot:m=2")
    args = _build_parser().parse_args(["norm", "op", "--form", "dot:m=2"])
    for name in defaults._fields:
        assert getattr(cfg, name) == getattr(defaults, name)
        assert getattr(args, name) == (defaults.seed if name == "seed" else None)


def test_one_exact_norm_decision_reaches_every_caller(monkeypatch, capsys):
    """``exact_norm`` alone decides that a norm is exact: stubbed in every
    module that binds it, it gives ``norm op``, ``verify`` and ``weak_norm``
    their norms, on forms that would otherwise take an ascent, on the linear
    form ``norm op`` would take as exact-dual and on the l_2 x l_2 pairing
    ``weak_norm`` would take as exact-singular; no ascent runs and no
    singular value is taken."""
    real = opnorm.exact_norm
    bound = [module for name, module in list(sys.modules.items())
             if name.split(".")[0] == "critnorm" and getattr(module, "exact_norm", None) is real]
    assert {module.__name__ for module in bound} >= {"critnorm", "critnorm.opnorm",
                                                     "critnorm.harness"}
    for module in bound:
        monkeypatch.setattr(module, "exact_norm", lambda T: NormEstimate(1.0, "stub"))

    def no_ascent(*args, **kwargs):
        raise AssertionError("an ascent ran")

    monkeypatch.setattr(opnorm, "_ascend", no_ascent)
    monkeypatch.setattr(opnorm, "spectral_norm", no_ascent)
    for form in (["gauss:m=3", "--n", "4"], ["gauss:dims=6"]):
        assert main(["norm", "op", "--form", *form]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == "stub"
    rep = run_verify(ExperimentConfig(experiment="verify", form="gauss:m=3", n=4, trials=3))
    assert [t["method"] for t in rep.trials] == ["stub"] * 3
    X = make_gaussian_random((3, 5), seed=1).coeffs
    assert weak_norm([X], 4, 2, seed=[2]) == [1.0]
    assert weak_norm([X, X.T], 2, 2, seed=[2, 3]) == [1.0, 1.0]


EXPERIMENT_ARGS = {
    "verify": ["--form", "gauss:m=3", "--n", "4", "--trials", "2"],
    "sharpness": ["--form", "partial:m=3,r=1", "--sweep", "4,8,16"],
    "bilinear-law": ["--form", "t0:n1=4", "--n", "8", "--a", "1", "--b", "inf", "--trials", "2"],
    "base-hl": ["--m", "3", "--n", "4", "--trials", "2"],
    "inclusion-instance": ["--r", "2", "--p", "2,2", "--q", "4,4", "--form", "gauss:m=2",
                           "--n", "3", "--trials", "2", "--datasets", "2"],
}


@pytest.mark.parametrize("flag", [True, False])
def test_one_verdict_reaches_every_experiment(monkeypatch, tmp_path, capsys, flag):
    """``harness.verdict`` alone decides what a ratio proves: stubbed in
    every module that binds it, its ratio and violation reach the records
    of all five experiments, their summary counts and the exit code."""
    real = harness.verdict
    bound = [module for name, module in list(sys.modules.items())
             if name.split(".")[0] == "critnorm" and getattr(module, "verdict", None) is real]
    assert "critnorm.harness" in {module.__name__ for module in bound}
    calls = []

    def stub(lhs, denominator, C, exact, retried=None):
        calls.append((C, exact))
        flags = {} if retried is None else {"retried": retried}
        return {"ratio": 0.25, **flags, "violation": flag}

    for module in bound:
        monkeypatch.setattr(module, "verdict", stub)
    for experiment, args in EXPERIMENT_ARGS.items():
        calls.clear()
        out = tmp_path / f"{experiment}.json"
        assert main([experiment, *args, "--out", str(out)]) == (1 if flag else 0)
        payload = json.loads(out.read_text())
        trials, violations = payload["trials"], len(payload["trials"]) if flag else 0
        assert [(t["ratio"], t["violation"]) for t in trials] == [(0.25, flag)] * len(trials)
        assert payload["summary"]["violations"] == violations
        assert f"{violations} violations" in capsys.readouterr().out
        if experiment in ("bilinear-law", "inclusion-instance"):
            assert set(calls) == {(1, experiment == "bilinear-law")}


RECORD_PATHS = {   # command line -> the method of its trials' estimates
    "verify --form dot:m=3 --n 4 --trials 2": "analytic",
    "verify --form gauss:m=2 --n 4 --trials 2": "exact-singular",
    "verify --form gauss:m=3 --n 4 --trials 2": "ascent",
    "sharpness --form gauss:m=3 --sweep 3,4,5": "ascent",
    "base-hl --m 3 --n 4 --trials 2": "ascent",
}


@pytest.mark.parametrize("argv", list(RECORD_PATHS))
def test_one_record_path_reaches_every_ratio_experiment(argv, monkeypatch, tmp_path):
    """``harness._checked`` alone turns a trial's estimate into its norm,
    method, ratio, retried and violation: stubbed, its fields reach analytic
    and exact-singular trials, and the ascent trials of verify, sharpness
    and base-hl, where the first one it flags comes back retried."""
    calls = []

    def stub(lhs, est, C, retried):
        calls.append((est.method, retried))
        flagged = est.method == "ascent" and len(calls) == 1
        return {"norm": -1.0, "method": f"stub-{est.method}", "ratio": 0.25,
                "retried": retried, "violation": flagged}

    monkeypatch.setattr(harness, "_checked", stub)
    out = tmp_path / "report.json"
    assert main([*argv.split(), "--out", str(out)]) == 0
    trials = json.loads(out.read_text())["trials"]
    method = RECORD_PATHS[argv]
    assert [(t["norm"], t["method"], t["ratio"], t["violation"]) for t in trials] == \
        [(-1.0, f"stub-{method}", 0.25, False)] * len(trials)
    assert {m for m, _ in calls} == {method}
    assert calls.count((method, True)) == (method == "ascent")
    if not argv.startswith("sharpness"):
        assert [t["retried"] for t in trials] == [method == "ascent"] + [False] * (len(trials) - 1)


def test_norm_mixed_needs_orders(capsys):
    assert main(["norm", "mixed", "--form", "dot:m=2,n=4"]) == 2
    assert "--exponents" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["exponents", "--m", "3", "--r", "2", "--p", "2,2", "--q", "4,4"],
     "inclusion mode does not read --m"),
    (["exponents", "--r", "2", "--p", "2,2", "--q", "4,4", "--variant", "derived",
      "--constant", "abstract"], "inclusion mode does not read --variant, --constant"),
    (["norm", "op", "--form", "dot:m=3", "--n", "8", "--exponents", "inf,3,2"],
     "op mode does not read --exponents"),
    (["norm", "mixed", "--form", "dot:m=3", "--n", "8", "--exponents", "inf,3,2",
      "--restarts", "4", "--tol", "1e-3", "--max-iters", "3"],
     "mixed mode does not read --restarts, --tol, --max-iters"),
], ids=["exponents-m", "exponents-variant-constant", "norm-op", "norm-mixed"])
def test_an_option_its_mode_does_not_read_is_exit_2_with_one_error_line(argv, message, capsys):
    """An option is read or refused, never dropped silently; options at
    their default values are refused too, because they were given."""
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_both_norm_modes_read_the_seed_of_a_random_form(capsys):
    for mode, extra in (("mixed", ["--exponents", "inf,3,2"]), ("op", [])):
        printed = []
        for seed in ("3", "4"):
            assert main(["norm", mode, "--form", "gauss:m=3", "--n", "4", "--seed", seed,
                         *extra]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] != printed[1]


def test_file_form(tmp_path, capsys):
    T = make_gaussian_random((3, 3), seed=4)
    path = tmp_path / "t.json"
    save_tensor(T, path)
    assert main(["norm", "op", "--form", f"file:{path}", "--restarts", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] > 0


def test_norm_tensor_flag(tmp_path, capsys):
    T = make_gaussian_random((3, 3), seed=4)
    path = tmp_path / "t.json"
    save_tensor(T, path)
    assert main(["norm", "mixed", "--form", f"file:{path}",
                 "--exponents", "inf,2"]) == 0
    want = float(np.abs(T.coeffs).max())
    got = float(capsys.readouterr().out)
    # row with the largest l_2 norm, so at least the largest entry
    assert got >= want


@pytest.mark.parametrize("mode", [["op"], ["mixed", "--exponents", "inf,2"]])
@pytest.mark.parametrize("flag", ["--form"])
def test_a_tensor_file_refuses_n_whichever_flag_names_it(flag, mode, tmp_path, capsys):
    """A file fixes its dimensions: ``--form file:FILE``, the one flag that
    names a file, refuses ``--n`` with exit 2 and one error line."""
    path = tmp_path / "t.json"
    save_tensor(make_gaussian_random((3, 3), seed=4), path)
    assert main(["norm", mode[0], flag, f"file:{path}", "--n", "5", *mode[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the file form spec fixes its dimensions, "
                            "so a separate n = 5 cannot apply\n")


def test_verify_writes_report_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "--form", "gauss:m=3", "--n", "5",
                 "--trials", "4", "--out", str(out)])
    assert code == 0
    assert "verify: 4 trials, 0 violations" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["summary"]["violations"] == 0
    assert len(payload["trials"]) == 4


def test_verify_csv_output(tmp_path):
    out = tmp_path / "verify.csv"
    assert main(["verify", "--form", "gauss:m=2", "--n", "4",
                 "--trials", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("trial,")
    assert len(lines) == 3


@pytest.mark.parametrize("argv", [
    ["norm", "mixed", "--form", "dot:m=2,n=3", "--orders", "inf,2"],
    ["norm", "op", "--tensor", "{tensor}"],
    ["verify", "--form", "gauss:m=2", "--n", "3", "--output", "{out}"],
    ["verify", "--form", "gauss:m=2", "--n", "3", "--out", "{out}", "--format", "csv"],
], ids=["orders", "tensor", "output", "format"])
def test_a_removed_alias_is_a_usage_error(argv, tmp_path, capsys):
    """``--orders``, ``--tensor FILE``, ``--output`` and ``--format`` are
    gone: each spelling is refused with exit 2 before anything runs, and
    nothing is written; a report's format follows from its path."""
    tensor, out = tmp_path / "t.json", tmp_path / "report.json"
    save_tensor(make_gaussian_random((3, 3), seed=4), tensor)
    with pytest.raises(SystemExit) as exc:
        main([a.format(tensor=tensor, out=out) for a in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--form", "gauss:m=2", "--n", "3", "--tri", "2", "--max", "5"],
    ["exponents", "--m", "3", "--var", "printed"],
    ["norm", "op", "--form", "gauss:m=2", "--n", "3", "--rest", "2"],
], ids=["verify", "exponents", "norm"])
def test_an_abbreviated_option_is_a_usage_error(argv, capsys):
    """Each option has one spelling: no parser matches a prefix, so an
    abbreviation is refused with exit 2 before anything runs."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    (["exponents", "--m", "2050"], "error: 2^(1024) is past the float range\n"),
    (["exponents", "--m", "2050", "--json"], "error: 2^(1024) is past the float range\n"),
    (["verify", "--form", "dot:m=2050", "--n", "1"], "error: 2^(1024) is past the float range\n"),
    (["verify", "--form", "gauss:m=2", "--n", "3", "--trials", "99999999999999999999"], None),
    (["verify", "--form", "gauss:m=50", "--n", "2"], None),
], ids=["constant", "constant-json", "verify-constant", "trials", "allocation"])
def test_an_input_too_large_to_compute_is_exit_2_with_one_error_line(argv, message, capsys):
    """A constant past the float range, a trial count past the index range
    and an 8 PiB coefficient array each fail at once: exit 2, one error
    line, nothing on stdout, no traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message is None or captured.err == message


def test_sharpness_violations_exit_one(capsys):
    # orders far off the critical family blow past the constant as n grows
    code = main(["sharpness", "--form", "dot:m=3", "--sweep", "4,8,16,32,64",
                 "--exponents", "4,inf,inf"])
    assert code == 1
    out = capsys.readouterr().out
    assert "slope 0.25" in out
    assert "violation at" in out


def test_sharpness_reports_the_trimmed_refit_past_the_residual_bound(tmp_path, capsys):
    """Gaussian m = 2 points have exact singular-value denominators and a
    fit residual of 0.110, past 0.02: the JSON report adds the refit without
    the smallest point, and the printed line keeps the full fit's slope."""
    out = tmp_path / "sharp.json"
    assert main(["sharpness", "--form", "gauss:m=2", "--sweep", "2,3,4,8", "--seed", "1",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == ("sharpness: 4 trials, 0 violations, max ratio "
                                       "0.847117000808, constant 1, slope 0.0264639378898\n")
    report = json.loads(out.read_text(encoding="utf-8"))
    assert {rec["method"] for rec in report["trials"]} == {"exact-singular"}
    assert report["growth"]["residual"] == pytest.approx(0.110, abs=5e-4)
    trimmed = harness.fit_growth([(rec["n"], rec["ratio"]) for rec in report["trials"][1:]])
    assert report["growth_trimmed"] == pytest.approx(trimmed.as_dict(), rel=1e-9)


def test_sharpness_refuses_trials_and_n(capsys):
    # sharpness reads neither, so argparse does not offer them
    with pytest.raises(SystemExit) as exc:
        main(["sharpness", "--form", "partial:m=3,r=1", "--sweep", "4,8,16",
              "--trials", "5", "--n", "99"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "--trials" in captured.err


# experiment -> (a valid command line, the options it does not read); a
# run's orders have one option, --exponents, so --variant is none of theirs
_UNREAD_OPTIONS = {
    "verify": (["--form", "dot:m=3", "--n", "4", "--exponents", "inf,3,2"], ("--variant",)),
    "sharpness": (["--form", "dot:m=3", "--sweep", "4,8,16"], ("--n", "--trials", "--variant")),
    "bilinear-law": (["--form", "t0:n1=4", "--n", "8", "--a", "1", "--b", "inf"],
                     ("--restarts", "--tol", "--max-iters")),
    "inclusion-instance": (["--r", "2", "--p", "2,2", "--q", "4,4", "--n", "3"],
                           ("--restarts", "--tol", "--max-iters")),
}


@pytest.mark.parametrize("command, flag", [(c, f) for c, (_, flags) in _UNREAD_OPTIONS.items()
                                           for f in flags])
def test_options_an_experiment_never_reads_are_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *_UNREAD_OPTIONS[command][0], flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["partial:m=3,n=8,r=1", "t0:n1=4,n2=16"])
def test_sharpness_refuses_a_spec_that_pins_the_swept_dimension(spec, capsys):
    assert main(["sharpness", "--form", spec, "--sweep", "4,8,16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: the form spec pins the swept dimension" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--form", "dot:m=3,n=8", "--n", "16"],
     "error: the dot form spec fixes its dimensions, so a separate n = 16 cannot apply"),
    (["verify", "--form", "gauss:m=3,seed=1", "--n", "6", "--trials", "3"],
     "error: the form spec pins seed=1, so all 3 trials would be one form"),
    (["bilinear-law", "--form", "t0:n1=4,n2=16", "--n", "8", "--a", "1", "--b", "inf"],
     "error: the t0 form spec fixes its dimensions"),
    (["norm", "op", "--form", "gauss:dims=4x4,seed=1", "--n", "8"],
     "error: the gauss form spec fixes its dimensions"),
    # dims= fixes the arity and every dimension, so m= or n= beside it is refused
    (["verify", "--form", "gauss:m=3,dims=4x4", "--trials", "2"], "error: dims= fixes"),
    (["verify", "--form", "gauss:dims=4x4,n=9", "--trials", "2"], "error: dims= fixes"),
], ids=["pinned-n", "pinned-seed", "pinned-n2", "pinned-dims", "dims-and-m", "dims-and-n"])
def test_a_spec_that_pins_what_an_option_sets_is_exit_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1


_NO_KIND = "unknown form kind ''; choose from ['dot', 'file', 'gauss', 'partial', 'sign', 't0']"


@pytest.mark.parametrize("argv, message", [
    (["norm", "op", "--form", "dot:m=3,m=4", "--n", "4"], "parameter 'm' is given twice"),
    (["verify", "--form", "dot:m=abc", "--n", "3"], "parameter 'm' must be an integer, got 'abc'"),
    (["verify", "--form", "gauss:dims=4x"],
     "parameter 'dims' must be integers joined by x, like 4x8x6, got '4x'"),
    (["verify", "--form", "gauss:m=2", "--n", "3", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["norm", "op", "--form", "gauss:m=2", "--n", "3", "--seed", "-1"],
     "seed must be >= 0, got -1"),
    (["verify", "--form", "gauss:m=2", "--n", "-3"],
     "all dimensions must be positive, got (-3, -3)"),
    # an empty spec is parsed, not replaced by a runner's default spec
    (["verify", "--form", "", "--n", "3"], _NO_KIND),
    (["base-hl", "--m", "3", "--form", "", "--n", "3"], _NO_KIND),
    # the refusals of an option's value that only a run can judge
    (["verify", "--form", "gauss:m=2", "--n", "3", "--exponents", "inf"],
     "1 orders given for arity-2 forms"),
    (["inclusion-instance", "--r", "1/2", "--p", "2,2", "--q", "4,4", "--n", "3"],
     "r must be >= 1, got 1/2"),
    (["exponents", "--r", "2", "--p", "2,2", "--q", "4"],
     "length mismatch: p has 2 entries, q has 1"),
    (["inclusion-instance", "--r", "2", "--p", "2,2", "--q", "4,4", "--n", "3",
      "--datasets", "0"], "datasets must be >= 1, got 0"),
    (["inclusion-instance", "--r", "2", "--p", "2,2", "--q", "4,4", "--n", "3",
      "--space", "0"], "the data space order must be >= 1, got 0"),
    (["bilinear-law", "--form", "t0:n1=4", "--n", "4", "--a", "0", "--b", "1"],
     "a must be positive, got 0"),
    (["verify", "--form", "gauss:m=2", "--n", "3", "--trials", "0"], "trials must be >= 1, got 0"),
    (["verify", "--form", "gauss:m=3", "--n", "3", "--restarts", "0"],
     "restarts must be >= 1, got 0"),
    (["norm", "op", "--form", "gauss:m=3", "--n", "3", "--max-iters", "0"],
     "max_iters must be >= 1, got 0"),
], ids=["repeated-key", "m-not-an-integer", "dims-not-integers", "verify-negative-seed",
        "norm-op-negative-seed", "gauss-negative-n", "verify-empty-spec", "base-hl-empty-spec",
        "too-few-orders", "r-below-1", "length-mismatch", "no-datasets", "space-below-1",
        "a-not-positive", "no-trials", "no-restarts", "no-max-iters"])
def test_a_bad_spec_value_seed_or_dimension_is_exit_2_naming_it(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["norm", "op", "--form", "gauss:m=3", "--n", "4"],
    ["verify", "--form", "gauss:m=3", "--n", "4"],
], ids=["norm-op", "verify"])
def test_a_non_finite_tol_is_exit_2(argv, tol, capsys):
    # nan never freezes a row, and inf freezes every row after one sweep
    assert main([*argv, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: tol must be positive and finite, got {tol}\n"


@pytest.mark.parametrize("argv, message", [
    (["verify", "--form", "gauss:dims=4x4", "--tol", "nan"],
     "tol must be positive and finite, got nan"),
    (["verify", "--form", "gauss:dims=4x4", "--tol", "-1", "--restarts", "0"],
     "restarts must be >= 1, got 0"),
    (["verify", "--form", "dot:m=3", "--n", "8", "--restarts", "0"],
     "restarts must be >= 1, got 0"),
    (["verify", "--form", "dot:m=3", "--n", "8", "--max-iters", "0"],
     "max_iters must be >= 1, got 0"),
    (["norm", "op", "--form", "gauss:dims=4x4", "--tol", "0"],
     "tol must be positive and finite, got 0.0"),
], ids=["exact-nan-tol", "exact-bad-tol-and-restarts", "analytic-restarts",
        "analytic-max-iters", "norm-op-exact"])
def test_bad_ascent_settings_are_exit_2_when_no_ascent_runs(argv, message, tmp_path, capsys):
    """Every norm of these runs is exact, so no ascent would look at the
    settings; the run refuses them anyway and writes no report."""
    out = tmp_path / "r.json"
    assert main([*argv, *(["--out", str(out)] if argv[0] == "verify" else [])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_bilinear_law_cli(capsys):
    assert main(["bilinear-law", "--form", "t0:n1=4,n2=64",
                 "--a", "1", "--b", "inf"]) == 0
    assert capsys.readouterr().out.strip().endswith("max ratio 1")


def test_base_hl_cli(capsys):
    assert main(["base-hl", "--m", "3", "--n", "4", "--trials", "2"]) == 0
    assert "base-hl: 2 trials, 0 violations" in capsys.readouterr().out


def test_inclusion_instance_cli(capsys):
    code = main(["inclusion-instance", "--r", "2", "--p", "4/3,4/3",
                 "--q", "3/2,3/2", "--n", "4", "--trials", "2",
                 "--datasets", "3"])
    assert code == 0
    assert "inclusion-instance: 2 trials, 0 violations" in capsys.readouterr().out


def test_inclusion_instance_inapplicable(capsys):
    code = main(["inclusion-instance", "--r", "4", "--p", "4/3,4/3",
                 "--q", "2,2", "--n", "4"])
    assert code == 2
    assert "inapplicable:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, needs, arity", [
    (["inclusion-instance", "--r", "2", "--p", "2,2", "--q", "4,4",
      "--form", "gauss:m=3", "--n", "3"], 2, 3),
    (["base-hl", "--m", "4", "--form", "gauss:m=2", "--n", "3"], 3, 2),
])
def test_a_form_of_the_wrong_arity_is_exit_2_with_one_error_line(argv, needs, arity, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: this run needs forms of {needs} slots, "
                            f"but the gauss form has arity {arity}\n")


def test_verify_on_an_inf_coefficient_is_exit_2_without_warnings(tmp_path):
    """An inf in a saved tensor is refused when the file is loaded: exit 2
    with one message, and no NumPy RuntimeWarning or traceback on stderr."""
    path = tmp_path / "inf.json"
    T = make_gaussian_random((4, 4), seed=3).with_domain((2, 2))
    _save_with_bad_entry(T, (1, 2), np.inf, path)
    for argv in (["verify", "--form", f"file:{path}"],
                 ["norm", "op", "--form", f"file:{path}"]):
        proc = subprocess.run([sys.executable, "-m", "critnorm.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "finite" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


_MALFORMED_FILES = {
    "missing-coeffs": {"m": 2, "dims": [2, 2], "scalar": "real"},
    "coeffs-not-a-list": {"m": 2, "dims": [2, 2], "scalar": "real", "coeffs": 4},
    "complex-not-pairs": {"m": 2, "dims": [2, 2], "scalar": "complex",
                          "coeffs": [1, 2, 3, 4]},
    "complex-ragged-pairs": {"m": 2, "dims": [2, 2], "scalar": "complex",
                             "coeffs": [[1, 2], [3], [5, 6], [7, 8]]},
    "not-an-object": [1, 2, 3, 4],
    "m-float": {"m": 2.7, "dims": [2, 2], "scalar": "real", "coeffs": [1, 2, 3, 4]},
    "dims-float": {"m": 2, "dims": [2.9, 2], "scalar": "real", "coeffs": [1, 2, 3, 4]},
    "domain-float": {"m": 2, "dims": [2, 2], "scalar": "real", "coeffs": [1, 2, 3, 4],
                     "domain_p": [2.5, 2]},
    "domain-bool": {"m": 2, "dims": [2, 2], "scalar": "real", "coeffs": [1, 2, 3, 4],
                    "domain_p": [True, 2]},
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_FILES))
def test_a_malformed_tensor_file_is_exit_2_with_one_error_line(name, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_MALFORMED_FILES[name]), encoding="utf-8")
    for argv in (["norm", "op", "--form", f"file:{path}"],
                 ["verify", "--form", f"file:{path}"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def _refused(argv, flags, capsys) -> str:
    """Run ``argv`` in-process (``flags`` None) or under ``python *flags``,
    check exit 2 with no stdout and no warning, and return its one stderr
    line, an ``error:`` line."""
    if flags is None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        out, err = capsys.readouterr()
        assert not caught
    else:
        proc = subprocess.run([sys.executable, *flags, "-m", "critnorm.cli", *argv],
                              capture_output=True, text=True)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("flags", [None, ["-O"]], ids=["in-process", "optimized"])
def test_an_ascent_that_overflows_is_exit_2_without_warnings(flags, tmp_path, capsys):
    """Huge but finite coefficients overflow float64 inside the ascent: exit
    2 with one ``error:`` line that says so, no NumPy RuntimeWarning and no
    stdout, also under python -O, and also when three trials share one
    batched ascent.  (A verify at the critical orders overflows at its lhs
    first; at orders inf its lhs is the finite largest entry.)"""
    path = tmp_path / "huge.json"
    save_tensor(MultilinearForm(np.full((3, 3, 3), 1e308)), path)
    for argv in (["verify", "--form", f"file:{path}"],
                 ["verify", "--form", f"file:{path}", "--trials", "3"],
                 ["verify", "--form", f"file:{path}", "--exponents", "inf,inf,inf",
                  "--trials", "3"],
                 ["norm", "op", "--form", f"file:{path}"]):
        assert "overflowed" in _refused(argv, flags, capsys)


@pytest.mark.parametrize("flags", [None, ["-O"]], ids=["in-process", "optimized"])
def test_a_mixed_norm_that_overflows_is_exit_2_without_warnings(flags, tmp_path, capsys):
    """A mixed norm past the float range, of finite entries of 1e308 or of
    an order as small as 1/1000, is refused: exit 2 with one ``error:``
    line that says it overflowed and names the cause, no NumPy
    RuntimeWarning and no stdout, also under python -O.  The moduli are
    divided by the largest first, so only the entries' overflow can be
    mended by rescaling them."""
    path = tmp_path / "huge.json"
    save_tensor(MultilinearForm(np.full((2, 2), 1e308)), path)
    for argv, cause in (
            (["norm", "mixed", "--form", f"file:{path}", "--exponents", "1,1"],
             "; rescale the coefficients"),
            (["verify", "--form", "gauss:m=2", "--n", "3", "--exponents", "inf,1/1000"],
             "; the orders are too small"),
            (["norm", "mixed", "--form", "gauss:m=3", "--n", "3", "--exponents", "1/100000,1,1"],
             "; the orders are too small")):
        line = _refused(argv, flags, capsys)
        assert "overflowed" in line and line.endswith(cause)


@pytest.mark.parametrize("flags", [None, ["-O"]], ids=["in-process", "optimized"])
def test_an_overflowing_singular_value_is_exit_2_without_warnings(flags, tmp_path, capsys):
    """A bilinear l_2 form with finite entries of 1e308 has a largest
    singular value past the float range, and a linear form of them on
    l_inf a dual l_1 norm past it: exit 2 with one ``error:`` line that
    says the entries are too large, no warning and no stdout, also under
    python -O."""
    path = tmp_path / "huge.json"
    save_tensor(MultilinearForm(np.full((2, 2), 1e308), domain_p=(2, 2)), path)
    linear = tmp_path / "huge-linear.json"
    save_tensor(MultilinearForm(np.full(4, 1e308), domain_p=("inf",)), linear)
    for argv in (["verify", "--form", f"file:{path}"],
                 ["norm", "op", "--form", f"file:{path}"],
                 ["norm", "op", "--form", f"file:{linear}"]):
        assert "too large" in _refused(argv, flags, capsys)


def test_norm_mixed_on_a_nan_coefficient_is_exit_2(tmp_path, capsys):
    path = tmp_path / "nan.json"
    _save_with_bad_entry(make_gaussian_random((4, 4), seed=3), (0, 0), np.nan, path)
    assert main(["norm", "mixed", "--form", f"file:{path}", "--exponents", "derived"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_broken_exponent_identity_is_exit_2(flags):
    """The slot-2 check of critical_exponents survives python -O and the CLI
    turns it into exit 2 with a message."""
    script = ("import sys\n"
              "from critnorm import exponents\n"
              "from critnorm.cli import main\n"
              "exponents.inclusion_exponents = "
              "lambda r, p, q: exponents.ExponentVector(['5'] * len(p))\n"
              "sys.exit(main(['exponents', '--m', '3']))\n")
    proc = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "error: derived slot-2 order 5 must equal the arity 3" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["admissible", "--p", "1/0", "--q", "4", "--a", "2", "--b", "inf"],
    ["verify", "--exponents", "inf,1/0"],
], ids=["admissible", "verify"])
def test_a_zero_denominator_is_a_usage_error(argv):
    proc = subprocess.run([sys.executable, "-m", "critnorm.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr and "1/0" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


_NOT_ORDERS = ("'pritned' is neither a variant (derived, printed, corollary-printed, "
               "corollary-derived, lower-bound) nor an order vector such as inf,3,12/5")


@pytest.mark.parametrize("argv, message", [
    (["verify", "--form", "dot:m=3", "--n", "4", "--exponents", "pritned"], _NOT_ORDERS),
    (["norm", "mixed", "--form", "dot:m=3", "--n", "4", "--exponents", "pritned"], _NOT_ORDERS),
    (["verify", "--form", "dot:m=3", "--n", "4", "--exponents", "inf,3,x"],
     "Invalid literal for Fraction: 'x'"),
    (["inclusion-instance", "--r", "2", "--q", "4,4", "--p", "2,0"],
     "norm orders must be positive, got 0"),
], ids=["verify", "norm", "bad-entry", "nonpositive"])
def test_a_bad_order_option_prints_its_parsers_message(argv, message, capsys):
    """argparse prints the ``harness.PARSERS`` parser's own message, not
    only an "invalid mixed_orders value"; the library raises the same one."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(f"error: argument {argv[-2]}: {message}")
    with pytest.raises(ValueError) as exc:
        harness.PARSERS[argv[-2].lstrip("-")](argv[-1])
    assert str(exc.value) == message
    with pytest.raises(ValueError, match="^'pritned' is neither a variant"):
        ExperimentConfig("verify", form="dot:m=3", n=4, exponents="pritned")


def test_unknown_command_raises_usage():
    with pytest.raises(SystemExit):
        main(["optimize"])


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "critnorm.cli", "exponents",
                           "--m", "2"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "s = inf,2" in proc.stdout.splitlines()


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_verify_on_a_nan_coefficient_is_exit_2(tmp_path, flags):
    """A NaN coefficient in a tensor file is refused when the form is built:
    the run ends with a message and exit 2, also under python -O, where
    asserts are stripped."""
    path = tmp_path / "nan.json"
    _save_with_bad_entry(make_gaussian_random((4, 4, 4), seed=3), (1, 2, 3), np.nan, path)
    proc = subprocess.run([sys.executable, *flags, "-m", "critnorm.cli", "verify",
                           "--form", f"file:{path}"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "violations" not in proc.stdout


# ------------------------------------------------------- experiment settings

_EXPERIMENT_RUNS = {
    "verify": ["--form", "gauss:m=2", "--n", "3", "--exponents", "inf,2"],
    "sharpness": ["--form", "dot:m=2", "--sweep", "2,3,4"],
    "bilinear-law": ["--form", "t0:n1=2", "--n", "4", "--a", "2", "--b", "inf"],
    "base-hl": ["--m", "3", "--n", "3"],
    "inclusion-instance": ["--r", "2", "--p", "2,2", "--q", "4,4", "--n", "3",
                           "--datasets", "2", "--space", "2"],
}
# keys a runner adds to its config block besides the settings it reads
_REPORT_EXTRAS = {"experiment", "exponents_used", "domain", "target_orders"}


def test_each_experiment_offers_exactly_the_settings_it_reads():
    pinned = {
        "verify": "form n trials seed exponents constant restarts tol max_iters",
        "sharpness": "form sweep exponents constant seed restarts tol max_iters",
        "bilinear-law": "form n trials seed a b",
        "base-hl": "form m n trials seed restarts tol max_iters",
        "inclusion-instance": "form n trials datasets seed r p q space",
    }
    assert {name: set(row.reads) for name, row in EXPERIMENTS.items()} == \
        {name: set(fields.split()) for name, fields in pinned.items()}
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    config_fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for name, (reads, *_) in EXPERIMENTS.items():
        dests = {a.dest for a in subparsers.choices[name]._actions}
        assert dests & config_fields == set(reads), name


@pytest.mark.parametrize("name", sorted(_EXPERIMENT_RUNS))
def test_a_report_config_echoes_only_settings_the_run_read(name, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main([name, *_EXPERIMENT_RUNS[name], "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert set(config) <= set(EXPERIMENTS[name].reads) | _REPORT_EXTRAS
    assert config["experiment"] == name


@pytest.mark.parametrize("name", sorted(_EXPERIMENT_RUNS))
def test_a_report_config_block_rebuilds_its_config_and_trials(name, tmp_path, capsys):
    """Each setting is echoed in the syntax its option takes (an order
    vector as inf,2, an extended rational as inf), so the config block
    parses back into a config whose run writes the same trials.  Each
    extra parses back too, into the orders the run used."""
    out = tmp_path / "report.json"
    assert main([name, *_EXPERIMENT_RUNS[name], "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    cfg = ExperimentConfig(**{k: v for k, v in report["config"].items() if k in fields})
    rerun = json.loads(getattr(harness, "run_" + name.replace("-", "_"))(cfg).to_json())
    assert rerun == report
    extras = {k: ExponentVector(v) for k, v in report["config"].items()
              if k not in fields | {"experiment"}}
    if name in ("verify", "sharpness"):
        arity = parse_form_spec(cfg.form).make(n=2, seed=cfg.seed).arity
        assert extras == {"exponents_used": orders_at(cfg.exponents, arity)}
    elif name == "base-hl":
        assert extras == {"domain": ExponentVector.uniform(2 * (cfg.m - 1), cfg.m - 1)}
    elif name == "inclusion-instance":
        assert extras == {"target_orders": inclusion_exponents(cfg.r, cfg.p, cfg.q)}
    else:
        assert extras == {}


# The orders and ratios that verify on sign:m=M (n 3, two trials) and
# sharpness on partial:m=M,r=1 (sweep 4,8,16) gave for each critical
# variant when it was named by a --variant option of its own.
_VARIANT_RUNS = {
    (3, "derived"): ("inf,3,12/5",
                     [0.435745853979, 0.513116971891], [1.0, 1.0, 1.0]),
    (3, "printed"): ("inf,12/5,2",
                     [0.523303299108, 0.616221133871], [1.12246204831, 1.189207115, 1.25992104989]),
    (3, "corollary-printed"): ("inf,3,2",
                               [0.477521981651, 0.562310876853], [1.0, 1.0, 1.0]),
    (3, "corollary-derived"): ("inf,6,3", [0.331095249728, 0.389884586156],
                               [0.793700525984, 0.707106781187, 0.629960524947]),
    (3, "lower-bound"): ("inf,3,3/2",
                         [0.573473794673, 0.67529991231], [1.0, 1.0, 1.0]),
    (4, "derived"): ("inf,4,3,12/5",
                     [0.318097283664, 0.267003720212], [1.0, 1.0, 1.0]),
    (4, "printed"): ("inf,3,12/5,2",
                     [0.418639568621, 0.351396657533], [1.12246204831, 1.189207115, 1.25992104989]),
    (4, "corollary-printed"): ("inf,4,8/3,2",
                               [0.364922059641, 0.306307386185], [1.0, 1.0, 1.0]),
    (4, "corollary-derived"): ("inf,8,4,8/3", [0.241701667637, 0.202878954819],
                               [0.840896415254, 0.771105412704, 0.707106781187]),
    (4, "lower-bound"): ("inf,4,2,4/3",
                         [0.550960657055, 0.462464009217], [1.0, 1.0, 1.0]),
}


@pytest.mark.parametrize("m, variant", sorted(_VARIANT_RUNS))
def test_exponents_names_a_variant_as_variant_did(m, variant, tmp_path, capsys):
    """--exponents V gives the orders and ratios --variant V gave, and the
    trials of the same orders written out as a vector."""
    used, *ratios = _VARIANT_RUNS[m, variant]
    runs = [["verify", "--form", f"sign:m={m}", "--n", "3", "--trials", "2"],
            ["sharpness", "--form", f"partial:m={m},r=1", "--sweep", "4,8,16"]]
    for argv, want in zip(runs, ratios):
        reports = []
        for orders in (variant, used):
            out = tmp_path / f"{argv[0]}-{len(reports)}.json"
            assert main([*argv, "--exponents", orders, "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        named, spelled = reports
        assert named["config"]["exponents"] == variant
        assert named["config"]["exponents_used"] == spelled["config"]["exponents_used"] == used
        assert named["trials"] == spelled["trials"]
        assert [t["ratio"] for t in named["trials"]] == pytest.approx(want, rel=1e-9)


def test_the_cached_parser_carries_nothing_from_one_call_to_the_next(tmp_path, capsys):
    """``main`` reuses one parser per process; an option given in one call
    must not reach the next, and a usage error must not break it."""
    assert _build_parser() is _build_parser()
    norm = ["norm", "op", "--form", "dot:m=3", "--n", "8"]
    assert main([*norm, "--seed", "5"]) == 0
    seeded = capsys.readouterr().out
    assert main(norm) == 0
    default = capsys.readouterr().out
    assert main([*norm, "--seed", "42"]) == 0
    assert default == capsys.readouterr().out != seeded

    verify = ["verify", "--form", "gauss:m=2", "--n", "3", "--exponents", "inf,2"]
    assert main([*verify, "--trials", "2", "--out", str(tmp_path / "a.json")]) == 0
    assert main([*verify, "--out", str(tmp_path / "b.json")]) == 0
    a = json.loads((tmp_path / "a.json").read_text())
    b = json.loads((tmp_path / "b.json").read_text())
    assert (a["config"]["trials"], b["config"]["trials"]) == (2, 1)

    with pytest.raises(SystemExit) as exc:
        main([*verify, "--no-such-option"])
    assert exc.value.code == 2
    assert main(verify) == 0
    assert "verify: 1 trials" in capsys.readouterr().out


def test_a_runner_rebound_after_the_parser_is_built_is_the_one_that_runs(monkeypatch, capsys):
    """Tracing rebinds the harness runners in every critnorm module; the
    once-built parser must not keep calling the originals."""
    _build_parser()
    calls = []

    def counting(cfg):
        calls.append(cfg.experiment)
        return original(cfg)

    original = harness.run_verify
    monkeypatch.setattr(harness, "run_verify", counting)
    assert main(["verify", "--form", "gauss:m=2", "--n", "3", "--exponents", "inf,2"]) == 0
    assert calls == ["verify"]
