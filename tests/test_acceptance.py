"""Acceptance gate.

One test per release criterion, in order.  Each prints exactly one
``criterion NN [PASS|FAIL] name: detail`` line and then asserts, so a plain
``pytest -v tests/test_acceptance.py`` doubles as the acceptance checklist.
Randomness is seeded through child streams; reruns are bit-identical.
"""

import math
from fractions import Fraction

import numpy as np

from critnorm import (
    ExperimentConfig,
    ExponentVector,
    ExtRational,
    MultilinearForm,
    ascent_norm,
    child_rng,
    conjugate,
    critical_exponents,
    dual_argmax,
    fit_growth,
    inclusion_exponents,
    lp_norm,
    make_dot,
    make_partial_dot,
    make_sign_random,
    make_t0,
    mixed_norm,
    run_base_hl,
    run_bilinear_law,
    run_sharpness,
    run_verify,
    spectral_norm,
    tail_sum,
    weak_norm,
)
from critnorm import opnorm
from critnorm.opnorm import _ascend, _normalize_rows


def _report(num, name, ok, detail=""):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_critical_exponent_families_exact():
    ok = (critical_exponents(2) == ExponentVector("inf, 2")
          and critical_exponents(3) == ExponentVector("inf, 3, 12/5")
          and critical_exponents(4) == ExponentVector("inf, 4, 3, 12/5"))
    checked = 0
    for m in range(2, 101):
        s = critical_exponents(m)
        low = critical_exponents(m, "lower-bound")
        ok = ok and s[0].is_inf and s[1] == ExtRational(m)
        ok = ok and all(s[k] >= low[k] for k in range(m))
        checked += 1
    _report(1, "critical exponent families", ok,
            f"m=2,3,4 frozen vectors exact; s_2 = m and lower-bound "
            f"domination exact for {checked} arities")


def test_criterion_02_inclusion_relation_on_random_applicable_triples():
    ok = inclusion_exponents(2, "4/3,4/3", "3/2,3/2") == ExponentVector("3, 12/5")
    rng = child_rng(2024)
    cases = 0
    branch2 = 0
    while cases < 1000:
        m = int(rng.integers(2, 7))
        r = 1 + Fraction(int(rng.integers(0, 16)), 8)
        p = [1 + Fraction(int(rng.integers(0, 25)), 8) for _ in range(m)]
        raw = [Fraction(int(rng.integers(0, 9)), 8) / pk for pk in p]
        total = sum(raw)
        budget = Fraction(int(rng.integers(0, 9)), 8) / r
        scale = Fraction(1) if total == 0 or total <= budget else budget / total
        deltas = [d * scale for d in raw]
        if 1 / r - sum(deltas) == 0 and deltas[0] == 0:
            deltas = [d / 2 for d in deltas]
        q = [ExtRational.from_reciprocal(1 / pk - d) for pk, d in zip(p, deltas)]
        P = ExponentVector([ExtRational(x) for x in p])
        Q = ExponentVector(q)
        s = inclusion_exponents(ExtRational(r), P, Q)
        for k in range(1, m + 1):
            lhs = s[k - 1].reciprocal()
            rhs = Fraction(1) / r - tail_sum(P, k) + tail_sum(Q, k)
            ok = ok and lhs == rhs
        ok = ok and all(s[i] >= s[i + 1] for i in range(m - 1))
        ok = ok and all(e >= ExtRational(r) for e in s)
        if Q[0] > P[0]:
            branch2 += 1
        cases += 1
    ok = ok and 0 < branch2 < cases
    _report(2, "inclusion-shift relation", ok,
            f"{cases} seeded applicable triples satisfy the defining "
            f"relation exactly ({branch2} exercised the strict first slot); "
            f"worked instance (3, 12/5) exact")


def test_criterion_03_row_sup_never_exceeds_the_singular_value():
    rng = child_rng(3)
    worst_gap = -np.inf
    worst_diag = 0.0
    ok = True
    for case in range(400):
        A = rng.standard_normal((16, 16))
        if case >= 200:
            A = A + 1j * rng.standard_normal((16, 16))
        sigma = spectral_norm(A).value
        row_sup = mixed_norm(A, "inf,2")
        worst_gap = max(worst_gap, row_sup - sigma)
        ok = ok and row_sup <= sigma + 1e-10
        d = np.abs(rng.standard_normal(16))
        D = np.diag(d if case < 200 else d * (1 + 1j) / math.sqrt(2))
        gap = abs(mixed_norm(D, "inf,2") - spectral_norm(D).value)
        worst_diag = max(worst_diag, gap)
        ok = ok and gap <= 1e-10
    _report(3, "bilinear row-sup vs singular value", ok,
            f"400 random 16x16 (200 complex): max(row_sup - sigma) = "
            f"{worst_gap:.3e} <= 1e-10; diagonal equality gap {worst_diag:.3e}")


def test_criterion_04_ascent_recovers_closed_form_norms():
    targets = []
    for m in (2, 3, 4):
        for n in (4, 8):
            targets.append((f"dot m={m} n={n}", make_dot(m, n), 1.0))
    targets.append(("partial m=3 n=8 r=1", make_partial_dot(3, 8, 1), 2.0))
    targets.append(("partial m=4 n=16 r=2", make_partial_dot(4, 16, 2), 4.0))
    targets.append(("t0 n2=9", make_t0(4, 9), 3.0))
    ok = True
    worst = 0.0
    for label, T, want in targets:
        est = ascent_norm(T, restarts=16, seed=42)
        rel = abs(est.value - want) / want
        worst = max(worst, rel)
        ok = ok and est.value >= want * (1 - 1e-6) and est.value <= want * (1 + 1e-9)
    _report(4, "ascent recovers closed-form norms", ok,
            f"{len(targets)} witness forms, 16 restarts, seed 42; "
            f"worst relative error {worst:.3e} (required: within 1e-6 "
            f"below, never 1e-9 above)")


def test_criterion_05_verify_experiment_holds_on_gaussian_forms():
    rep = run_verify(ExperimentConfig(experiment="verify", form="gauss:m=3",
                                      n=8, trials=100))
    dot = run_verify(ExperimentConfig(experiment="verify", form="dot:m=3", n=8))
    pin = run_verify(ExperimentConfig(experiment="verify",
                                      form="partial:m=3,r=1", n=8))
    ok = (rep.violations == 0
          and rep.summary["constant"] == math.sqrt(2) * 1.0
          and abs(dot.trials[0]["ratio"] - 1) <= 1e-9
          and abs(pin.trials[0]["ratio"] - 1) <= 1e-9)
    _report(5, "verify experiment", ok,
            f"100 gaussian 8x8x8 trials: 0 violations against sqrt(2) with "
            f"5% ascent slack (max ratio {rep.summary['max_ratio']:.6f}); "
            f"equality witnesses at ratio 1 within 1e-9")


def test_criterion_06_sharpness_slopes():
    flat = run_sharpness(ExperimentConfig(
        experiment="sharpness", form="partial:m=3,r=1", sweep=(4, 8, 16, 32, 64)))
    printed = run_sharpness(ExperimentConfig(
        experiment="sharpness", form="partial:m=3,r=1", sweep=(4, 8, 16, 32, 64),
        exponents="printed"))
    off = run_sharpness(ExperimentConfig(
        experiment="sharpness", form="dot:m=3", sweep=(4, 8, 16, 32, 64),
        exponents="4,inf,inf"))
    s1, s2, s3 = (flat.growth["slope"], printed.growth["slope"], off.growth["slope"])
    ok = (abs(s1) <= 0.01 and abs(s2 - 1 / 12) <= 0.01 and abs(s3 - 0.25) <= 0.01
          and off.violations > 0)
    _report(6, "sharpness slopes", ok,
            f"derived family flat (slope {s1:.4f}); index-shifted printed "
            f"family grows at {s2:.4f} (want 1/12); off-family orders grow "
            f"at {s3:.4f} (want 1/4) and violate the constant at large n")


def test_criterion_07_bilinear_law():
    tight = run_bilinear_law(ExperimentConfig(
        experiment="bilinear-law", form="t0:n1=4,n2=64", a=1, b="inf"))
    signs = run_bilinear_law(ExperimentConfig(
        experiment="bilinear-law", form="sign:m=2", n=32, a=2, b=2, trials=100))
    ok = (abs(tight.trials[0]["ratio"] - 1) <= 1e-9
          and signs.violations == 0
          and all(rec["method"] == "exact-singular" for rec in signs.trials))
    _report(7, "dimension-weighted bilinear law", ok,
            f"row form attains the (a=1, b=inf) bound at ratio "
            f"{tight.trials[0]['ratio']:.12f}; 100 sign 32x32 trials at "
            f"a=b=2: 0 violations (max ratio {signs.summary['max_ratio']:.6f})")


def test_criterion_08_widened_domain_coefficient_bound():
    rep = run_base_hl(ExperimentConfig(experiment="base-hl", m=3, n=8, trials=100))
    ok = (rep.violations == 0
          and rep.summary["constant"] == math.sqrt(2) * 1.0
          and all(rec["method"] == "ascent" for rec in rep.trials))
    _report(8, "widened-domain coefficient bound", ok,
            f"100 gaussian 8x8 bilinear forms on the l_4 x l_4 domain: "
            f"full-l_2 coefficient norm within sqrt(2) * ascent norm * 1.05 "
            f"every time (max ratio {rep.summary['max_ratio']:.6f})")


def test_criterion_09_norm_calculus_properties(monkeypatch):
    rng = child_rng(9)
    grid = [ExtRational(t) for t in ("1", "3/2", "2", "3")] + [ExtRational("inf")]
    ok = True
    # exact power-of-two homogeneity and order monotonicity, 1000 cases
    for _ in range(1000):
        ndim = int(rng.integers(2, 4))
        shape = tuple(int(rng.integers(1, 5)) for _ in range(ndim))
        A = rng.standard_normal(shape)
        idx = [int(rng.integers(0, len(grid))) for _ in range(ndim)]
        s = ExponentVector([grid[i] for i in idx])
        c = 2.0 ** int(rng.integers(-8, 9))
        ok = ok and mixed_norm(c * A, s) == c * mixed_norm(A, s)
        bumped = list(idx)
        j = int(rng.integers(0, ndim))
        bumped[j] = int(rng.integers(bumped[j], len(grid)))
        hi = ExponentVector([grid[i] for i in bumped])
        ok = ok and mixed_norm(A, hi) <= mixed_norm(A, s) * (1 + 1e-12)
    homog_ok = ok
    # comparison gap stays nonnegative, infinite outer order included
    gap_ok = True
    for _ in range(500):
        W = np.abs(rng.standard_normal((int(rng.integers(1, 7)),
                                        int(rng.integers(1, 7)))))
        i = int(rng.integers(0, len(grid)))
        j = int(rng.integers(i, len(grid)))
        gap = mixed_norm(W.T, (grid[i], grid[j])) - mixed_norm(W, (grid[j], grid[i]))
        gap_ok = gap_ok and gap >= -1e-12 * max(W.max(), 1.0)
    ok = ok and gap_ok
    # slot maximizer dominates 1000 random feasible competitors per case
    dual_ok = True
    for case in range(20):
        p = grid[case % len(grid)]
        c = rng.standard_normal(12)
        value, x = dual_argmax(c, p)
        dual_ok = dual_ok and lp_norm(x, p) <= 1 + 1e-12
        dual_ok = dual_ok and float(np.dot(c, x)) >= value - 1e-12 * (1 + value)
        for z in _normalize_rows(rng.standard_normal((1000, 12)), p):
            dual_ok = dual_ok and float(np.dot(c, z)) <= value * (1 + 1e-12)
    ok = ok and dual_ok
    # block ascent never decreases, within a sweep or across sweeps
    sweeps = []
    sweep = opnorm._sweep

    def recording(group, X):
        before, after, Y = sweep(group, X)
        sweeps.append((before, after))
        return before, after, Y

    monkeypatch.setattr(opnorm, "_sweep", recording)
    trace_ok = True
    for trial in range(10):
        T = MultilinearForm(rng.standard_normal((4, 4, 4)), domain_p=("3", "3", "3"))
        X = [_normalize_rows(rng.standard_normal((1, 4)), T.domain_p[k]) for k in range(3)]
        sweeps.clear()
        values, _, _, conv = _ascend([T], X, 1e-10, 200)
        trace = [after for _, after in sweeps]
        trace_ok = trace_ok and conv.all() and np.array_equal(trace[-1], values)
        trace_ok = trace_ok and all((b >= a - 1e-9 * (1 + a)).all()
                                    for a, b in sweeps)
        trace_ok = trace_ok and all((b >= a - 1e-9 * (1 + a)).all()
                                    for a, b in zip(trace, trace[1:]))
    ok = ok and trace_ok
    # canonical basis has unit weak norm at the conjugate order
    weak_ok = True
    worst_weak = 0.0
    for m in (2, 3, 4):
        for n in (4, 8):
            (w,) = weak_norm([np.eye(n)], conjugate(m), m, seed=[2])
            worst_weak = max(worst_weak, abs(w - 1))
            weak_ok = weak_ok and abs(w - 1) <= 1e-6
    ok = ok and weak_ok
    _report(9, "norm calculus properties", ok,
            f"homogeneity+monotonicity 1000 cases exact/1e-12 "
            f"({'ok' if homog_ok else 'FAIL'}); comparison gap >= -1e-12 on "
            f"500 cases ({'ok' if gap_ok else 'FAIL'}); slot maximizer beat "
            f"1000 competitors in 20 cases ({'ok' if dual_ok else 'FAIL'}); "
            f"ascent traces nondecreasing ({'ok' if trace_ok else 'FAIL'}); "
            f"canonical weak norms off by {worst_weak:.2e} max")


def test_criterion_10_random_sign_norm_growth():
    sigmas = []
    for seed in range(100):
        A = make_sign_random(2, 64, seed=seed)
        sigmas.append(spectral_norm(A.coeffs).value)
    inside = sum(1 for s in sigmas if 8.0 <= s <= 24.0)
    medians = []
    for n in (16, 32, 64):
        vals = [spectral_norm(make_sign_random(2, n, seed=1000 + i).coeffs).value
                for i in range(40)]
        medians.append((n, float(np.median(vals))))
    slope = fit_growth(medians).slope
    ok = inside >= 95 and abs(slope - 0.5) <= 0.05
    _report(10, "random sign norm growth", ok,
            f"{inside}/100 sign 64x64 spectral norms inside [8, 24]; median "
            f"norm growth slope {slope:.4f} over n = 16, 32, 64 (want 0.5)")
