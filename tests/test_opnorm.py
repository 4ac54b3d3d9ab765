"""Operator-norm estimation: slot maximizers, the exact bilinear l_2 case,
and the seeded block ascent.

The ascent only ever reports attained values, so the tests here check three
things over and over: feasibility of the witness, attainment of the reported
value, and domination by cheap upper bounds.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critnorm import (
    AscentInvariantError,
    MultilinearForm,
    ascent_norm,
    child_rng,
    conjugate,
    dual_argmax,
    evaluate,
    lp_norm,
    make_dot,
    make_gaussian_random,
    make_partial_dot,
    make_sign_random,
    make_t0,
    operator_norm,
    spectral_norm,
    upper_bound_l1,
)
from critnorm import opnorm
from critnorm.opnorm import _ascend, _random_unit, _sweep

P_GRID = ("1", "4/3", "3/2", "2", "3", "inf")


# ------------------------------------------------------------- dual_argmax

def test_dual_argmax_p1_concentrates_on_the_peak():
    value, x = dual_argmax(np.array([3.0, -4.0]), 1)
    assert value == 4.0
    assert np.array_equal(x, [0.0, -1.0])


def test_dual_argmax_p1_takes_the_first_peak_on_ties():
    value, x = dual_argmax(np.array([-2.0, 2.0]), 1)
    assert value == 2.0
    assert np.array_equal(x, [-1.0, 0.0])


def test_dual_argmax_pinf_is_the_sign_pattern():
    value, x = dual_argmax(np.array([3.0, -4.0]), "inf")
    assert value == 7.0
    assert np.array_equal(x, [1.0, -1.0])


def test_dual_argmax_p2_is_the_normalized_vector():
    value, x = dual_argmax(np.array([3.0, -4.0]), 2)
    assert value == pytest.approx(5.0, rel=1e-15)
    assert np.allclose(x, [0.6, -0.8])


def test_dual_argmax_conjugate_norm_value():
    c = np.array([3.0, -4.0])
    value, x = dual_argmax(c, "4/3")
    assert value == pytest.approx((3**4 + 4**4) ** 0.25, rel=1e-14)
    assert lp_norm(x, "4/3") == pytest.approx(1.0, rel=1e-14)
    assert float(np.dot(c, x)) == pytest.approx(value, rel=1e-14)


def test_dual_argmax_complex_phases_are_conjugated():
    c = np.array([1 + 1j, 0.0])
    value, x = dual_argmax(c, "inf")
    assert value == pytest.approx(math.sqrt(2), rel=1e-15)
    paired = complex(np.dot(c, x))
    assert paired.imag == pytest.approx(0.0, abs=1e-15)
    assert paired.real == pytest.approx(value, rel=1e-14)


@pytest.mark.parametrize("p", ["1", "4/3", "2", "3", "inf"])
def test_dual_argmax_complex_subnormal_entry_gives_a_finite_unit_maximizer(p):
    c = np.array([1 + 1j, 3e-318 + 1e-318j, 0, -2j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, x = dual_argmax(c, p)
    assert np.isfinite(x).all()
    assert lp_norm(x, p) == pytest.approx(1.0, rel=1e-12)
    assert value == pytest.approx(lp_norm(c, conjugate(p)), rel=1e-12)
    paired = complex(np.dot(c, x))
    assert paired.real == pytest.approx(value, rel=1e-12)
    assert paired.imag == pytest.approx(0.0, abs=1e-12)


def test_dual_argmax_zero_vector_and_errors():
    value, x = dual_argmax(np.zeros(3), 2)
    assert value == 0.0
    assert np.array_equal(x, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="unit balls require p >= 1"):
        dual_argmax(np.ones(2), "1/2")
    for bad in (np.float64(1.0), np.ones((2, 2, 2)), np.array([])):
        with pytest.raises(ValueError, match="expected a nonempty vector or"):
            dual_argmax(bad, 2)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("p", ["1", "4/3", "2", "3", "inf"])
def test_dual_argmax_block_matches_row_by_row_calls(p, field):
    rng = np.random.default_rng(40)
    C = rng.standard_normal((5, 6))
    if field == "complex":
        C = C + 1j * rng.standard_normal((5, 6))
    C[1] *= 1e-3
    C[2] = 0
    values, X = dual_argmax(C, p)
    assert values.shape == (5,)
    assert X.shape == C.shape
    for r in range(len(C)):
        value, x = dual_argmax(C[r], p)
        assert values[r] == value
        assert np.array_equal(X[r], x)
    assert values[2] == 0.0
    assert np.array_equal(X[2], [1, 0, 0, 0, 0, 0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=8),
       st.sampled_from(P_GRID), st.integers(0, 2**31 - 1))
def test_dual_argmax_beats_random_feasible_competitors(entries, p, seed):
    c = np.array(entries)
    value, x = dual_argmax(c, p)
    assert lp_norm(x, p) <= 1 + 1e-12
    assert float(np.dot(c, x)) >= value - 1e-12 * (1 + value)
    rng = child_rng(seed)
    for _ in range(50):
        z = _random_unit(rng, c.size, p, False)
        assert float(np.dot(c, z)) <= value * (1 + 1e-12) + 1e-12


# ----------------------------------------------------------- spectral_norm

def test_spectral_norm_diagonal():
    est = spectral_norm(np.diag([3.0, 4.0]))
    assert est.value == 4.0
    assert est.method == "exact-singular"


def test_spectral_norm_witness_attains():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((5, 7))
    est = spectral_norm(A)
    T = MultilinearForm(A, domain_p=(2, 2))
    x, y = est.maximizer
    assert lp_norm(x, 2) == pytest.approx(1.0, rel=1e-12)
    assert lp_norm(y, 2) == pytest.approx(1.0, rel=1e-12)
    assert evaluate(T, [x, y]) == pytest.approx(est.value, rel=1e-12)


def test_spectral_norm_complex_witness_attains_with_real_pairing():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    est = spectral_norm(A)
    T = MultilinearForm(A, domain_p=(2, 2))
    val = evaluate(T, est.maximizer)
    assert complex(val).imag == pytest.approx(0.0, abs=1e-10)
    assert complex(val).real == pytest.approx(est.value, rel=1e-12)


def test_spectral_norm_rejects_non_matrices():
    with pytest.raises(ValueError):
        spectral_norm(np.ones((2, 2, 2)))


def _spectral_cases():
    rng = np.random.default_rng(21)
    cases = {}
    for shape in [(3, 5), (5, 3), (16, 16), (40, 17), (17, 40), (64, 64)]:
        for field in ("real", "complex"):
            A = rng.standard_normal(shape)
            if field == "complex":
                A = A + 1j * rng.standard_normal(shape)
            cases[f"{field}-{shape[0]}x{shape[1]}"] = A
    cases["1x1"] = np.array([[-2.5]])
    cases["1xn"] = rng.standard_normal((1, 30))
    cases["nx1"] = rng.standard_normal((30, 1)) * 1j
    cases["eye5"] = np.eye(5)
    cases["eye20"] = np.eye(20)
    cases["t0-64x256"] = make_t0(64, 256).coeffs
    cases["near-tie"] = np.diag([1.0, 1.0 + 1e-13, 1.0 - 1e-9, 0.5])
    cases["near-tie-20"] = np.diag([1.0, 1.0 + 1e-13, 1.0 - 1e-9, 0.5] * 5)
    A = rng.standard_normal((24, 30)) + 1j * rng.standard_normal((24, 30))
    cases["huge"] = A * 1e200
    cases["tiny"] = A * 1e-200
    return cases


_SPECTRAL_CASES = _spectral_cases()


@pytest.mark.parametrize("witness_min_dim", [None, 1], ids=["default", "always-gram"])
@pytest.mark.parametrize("name", sorted(_SPECTRAL_CASES))
def test_spectral_norm_matches_the_full_svd_and_attains(name, witness_min_dim, monkeypatch):
    """sigma agrees with the full SVD and the witness is a unit pair whose
    plain pairing attains it, on the direct-SVD path for small matrices and
    on the Gram-solve path (forced for every size with ``always-gram``)."""
    if witness_min_dim is not None:
        monkeypatch.setattr(opnorm, "_WITNESS_MIN_DIM", witness_min_dim)
    A = _SPECTRAL_CASES[name]
    est = spectral_norm(A)
    sigma = np.linalg.svd(A, compute_uv=False)[0]
    assert est.value == pytest.approx(sigma, rel=1e-13)
    assert est.method == "exact-singular"
    x, y = est.maximizer
    assert x.shape == (A.shape[0],) and y.shape == (A.shape[1],)
    assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(y) == pytest.approx(1.0, rel=1e-12)
    val = complex(x @ A @ y)
    assert val.real == pytest.approx(est.value, rel=1e-12)
    assert val.imag == pytest.approx(0.0, abs=1e-12 * est.value)


@pytest.mark.parametrize("shape", [(3, 5), (20, 30)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_spectral_norm_of_the_zero_matrix_is_zero_at_e0(shape, dtype):
    est = spectral_norm(np.zeros(shape, dtype=dtype))
    assert est.value == 0.0
    x, y = est.maximizer
    np.testing.assert_array_equal(x, np.eye(shape[0])[0])
    np.testing.assert_array_equal(y, np.eye(shape[1])[0])


def _linalg_spy(monkeypatch):
    """Record every np.linalg.svd call as its compute_uv flag, and every
    np.linalg.solve call as "solve"."""
    calls = []
    svd, solve = np.linalg.svd, np.linalg.solve

    def svd_spy(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    def solve_spy(a, b):
        calls.append("solve")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    monkeypatch.setattr(np.linalg, "solve", solve_spy)
    return calls


def _read_witness_twice(est, calls):
    """The calls the first read of ``est.maximizer`` makes; a second read makes none."""
    before = len(calls)
    pair = est.maximizer
    made = calls[before:]
    assert est.maximizer is pair
    assert len(calls) == before + len(made)
    return made


def test_spectral_norm_takes_one_values_only_svd_on_a_generic_matrix(monkeypatch):
    calls = _linalg_spy(monkeypatch)
    est = spectral_norm(np.random.default_rng(22).standard_normal((64, 64)))
    assert calls == [False]
    assert _read_witness_twice(est, calls) == ["solve"]


def test_spectral_norm_runs_the_full_svd_below_the_witness_size(monkeypatch):
    calls = _linalg_spy(monkeypatch)
    est = spectral_norm(np.random.default_rng(23).standard_normal((6, 40)))
    assert calls == [False]
    assert _read_witness_twice(est, calls) == [True]
    assert calls == [False, True]


@pytest.mark.parametrize("case", ["2x2", "20x20"])
def test_spectral_norm_falls_back_when_the_ones_start_misses(case, monkeypatch):
    """The top right singular vector (1, -1, 0, ...)/sqrt(2) is orthogonal to
    the all-ones start, so the Gram solve misses sigma and the full SVD runs."""
    if case == "2x2":
        monkeypatch.setattr(opnorm, "_WITNESS_MIN_DIM", 1)
        A = np.array([[1.0, -1.0], [0.0, 0.0]])
    else:
        A = np.zeros((20, 20))
        A[0, :2] = [2.0, -2.0]
        A[2:, 2:] = np.eye(18)
    calls = _linalg_spy(monkeypatch)
    est = spectral_norm(A)
    assert calls == [False]
    assert est.value == pytest.approx(math.sqrt(2) * A[0, 0], rel=1e-15)
    assert _read_witness_twice(est, calls) == ["solve", True]
    assert [c for c in calls if c != "solve"] == [False, True]
    x, y = est.maximizer
    assert x @ A @ y == pytest.approx(est.value, rel=1e-12)


def test_spectral_witness_ignores_later_writes_to_the_matrix():
    """The pair is computed on the first read, from the matrix as it was
    when the norm was taken."""
    A = np.random.default_rng(24).standard_normal((20, 30))
    est = spectral_norm(A)
    A[:] = 0.0
    x, y = est.maximizer
    B = np.random.default_rng(24).standard_normal((20, 30))
    assert x @ B @ y == pytest.approx(est.value, rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n", [2, 20])
def test_spectral_norm_rejects_non_finite_entries(bad, n):
    A = np.eye(n)
    A[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        spectral_norm(A)


def test_spectral_norm_rejects_an_overflowing_singular_value():
    with pytest.raises(ValueError, match="too large"):
        spectral_norm(np.full((2, 2), 1e308))


# ------------------------------------------------------------------- sweep

_AX = "abcde"
_SWEEP_ORDERS = ("3/2", "1", "inf", "3", "3/2")


def _einsum_gradient(coeffs, xs, k):
    """Reference: contract one restart's vectors into every slot but k."""
    spec, ops = [_AX[:coeffs.ndim]], [coeffs]
    for i, x in enumerate(xs):
        if i != k:
            spec.append(_AX[i])
            ops.append(x)
    return np.einsum(",".join(spec) + "->" + _AX[k], *ops)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("chunk", ["whole", "chunked"])
@pytest.mark.parametrize("dims", [(4,), (1,), (5, 3), (1, 4), (4, 1), (3, 4, 2),
                                  (2, 1, 5), (2, 3, 4, 2), (1, 3, 1, 2),
                                  (3, 2, 1, 3, 2), (2, 2, 2, 2, 2)])
def test_slot_gradient_matches_a_per_row_einsum(dims, field, chunk, monkeypatch):
    """Every slot gradient of one sweep matches the einsum gradient of a
    one-row Gauss-Seidel sweep: slot k maximizes the gradient at the new
    slots 0..k-1 and the old slots k+1..m-1 through ``dual_argmax``."""
    if chunk == "chunked":
        # a one-element cap leaves min(n_0, n_{m-1}) rows per chunk
        monkeypatch.setattr(opnorm, "_GRADIENT_CHUNK", 1)
    rng = np.random.default_rng(sum(dims) + 10 * len(dims))
    R = 3
    orders = _SWEEP_ORDERS[:len(dims)]

    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if field == "complex" else z

    coeffs = draw(*dims)
    X = [draw(R, n) for n in dims]
    before, after, Y = _sweep(coeffs, X, orders)
    assert before.shape == after.shape == (R,)
    assert [y.shape for y in Y] == [(R, n) for n in dims]
    for r in range(R):
        xs = [x[r] for x in X]
        # rounding scale: the same contraction over all moduli
        size = evaluate(MultilinearForm(np.abs(coeffs)), [np.abs(x) for x in xs])
        assert abs(before[r] - abs(evaluate(MultilinearForm(coeffs), xs))) <= 1e-12 * size
        for k, p in enumerate(orders):
            ref = _einsum_gradient(coeffs, xs, k)
            scale = lp_norm(_einsum_gradient(np.abs(coeffs), [np.abs(x) for x in xs], k),
                            conjugate(p))
            value, xs[k] = dual_argmax(ref, p)
            assert np.all(np.abs(Y[k][r] - xs[k]) <= 1e-12 * scale / value)
        assert abs(after[r] - value) <= 1e-12 * scale


# ------------------------------------------------------------- ascent_norm

def test_ascent_finds_the_dot_form_norm():
    T = make_dot(3, 4)
    est = ascent_norm(T, restarts=6, seed=42)
    assert est.method == "ascent"
    assert est.value == pytest.approx(1.0, rel=1e-6)
    assert est.value <= 1.0 + 1e-9
    assert est.converged
    assert est.restarts_used == 6
    assert est.iterations >= 6


def test_ascent_finds_the_partial_dot_norm():
    T = make_partial_dot(3, 8, 1)
    est = ascent_norm(T, restarts=8, seed=42)
    assert est.value == pytest.approx(2.0, rel=1e-6)
    assert est.value <= 2.0 * (1 + 1e-9)


def test_ascent_matches_the_exact_singular_value():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((6, 6))
    sigma = spectral_norm(A).value
    est = ascent_norm(MultilinearForm(A, domain_p=(2, 2)), restarts=12, seed=3)
    assert est.value <= sigma * (1 + 1e-9)
    assert est.value == pytest.approx(sigma, rel=1e-8)


def test_ascent_witness_is_feasible_and_attains():
    T = make_t0(3, 9)
    est = ascent_norm(T, restarts=6, seed=1)
    assert est.value == pytest.approx(3.0, rel=1e-6)
    for x, p in zip(est.maximizer, T.domain_p):
        assert lp_norm(x, p) <= 1 + 1e-9
    assert abs(evaluate(T, est.maximizer)) == pytest.approx(est.value, rel=1e-12)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("p", ["1", "4/3", "2", "inf"])
def test_ascent_on_an_arity_1_form_is_the_dual_norm(p, field):
    rng = np.random.default_rng(8)
    c = rng.standard_normal(6)
    if field == "complex":
        c = c + 1j * rng.standard_normal(6)
    est = ascent_norm(MultilinearForm(c, domain_p=(p,)), restarts=4, seed=2)
    assert est.value == pytest.approx(lp_norm(c, conjugate(p)), rel=1e-12)
    assert est.converged
    assert lp_norm(est.maximizer[0], p) <= 1 + 1e-12
    assert abs(evaluate(MultilinearForm(c), est.maximizer)) == pytest.approx(est.value, rel=1e-12)


def test_ascent_zero_form():
    est = ascent_norm(MultilinearForm(np.zeros((2, 3))))
    assert est.value == 0.0
    assert est.converged
    assert [v.tolist() for v in est.maximizer] == [[1.0, 0.0], [1.0, 0.0, 0.0]]


def test_ascent_is_deterministic_in_the_seed():
    rng = np.random.default_rng(5)
    T = MultilinearForm(rng.standard_normal((4, 4, 4)))
    a = ascent_norm(T, restarts=3, seed=9).value
    b = ascent_norm(T, restarts=3, seed=9).value
    assert a == b


def test_ascent_never_exceeds_the_l1_bound():
    rng = np.random.default_rng(6)
    for trial in range(5):
        T = MultilinearForm(rng.standard_normal((3, 4, 2)))
        est = ascent_norm(T, restarts=4, seed=trial)
        assert est.value <= upper_bound_l1(T) * (1 + 1e-12)


def test_ascent_validation():
    T = make_dot(2, 2)
    with pytest.raises(ValueError):
        ascent_norm(T, restarts=0)
    with pytest.raises(ValueError):
        ascent_norm(T, tol=0.0)
    with pytest.raises(ValueError):
        ascent_norm(T, max_iters=0)


def test_ascent_trace_is_nondecreasing():
    """Each block maximization dominates the previous value, so the sweep
    trace can only go up (within rounding)."""
    rng = np.random.default_rng(30)
    for trial in range(10):
        T = MultilinearForm(rng.standard_normal((4, 4, 4)),
                            domain_p=("3", "3", "3"))
        start = child_rng(100 + trial)
        starts = [[_random_unit(start, n, T.domain_p[k], False)
                   for k, n in enumerate(T.dims)] for _ in range(4)]
        X = [np.array([s[k] for s in starts]) for k in range(T.arity)]
        values, _, trace, sweeps, converged = _ascend(T, X, 1e-10, 200)
        assert converged.all()
        assert np.array_equal(trace[-1], values)
        assert len(trace) == sweeps.max()
        for a, b in zip(trace, trace[1:]):
            assert (b >= a - 1e-9 * (1 + a)).all()


def test_ascent_sweep_counts_are_pinned():
    """Sweep counts at the default settings.  Batching the restarts must
    not move any restart's convergence, so these match the sweeps of one
    restart at a time."""
    est = ascent_norm(make_dot(3, 8))
    assert (est.iterations, est.converged) == (113, True)
    est = ascent_norm(make_gaussian_random((5, 4, 6), seed=11))
    assert (est.iterations, est.converged) == (298, True)
    assert est.value == pytest.approx(8.43981788789356, rel=1e-12)
    est = ascent_norm(make_gaussian_random((4, 4, 4), seed=11, scalar_field="complex"))
    assert (est.iterations, est.converged) == (523, True)
    assert est.value == pytest.approx(9.57431180794739, rel=1e-12)
    est = ascent_norm(make_sign_random(4, 5, seed=3))
    assert (est.iterations, est.converged) == (269, True)
    assert est.value == pytest.approx(25.225026458099524, rel=1e-12)
    est = ascent_norm(make_gaussian_random((3, 4, 2, 5, 3), seed=11))
    assert (est.iterations, est.converged) == (213, True)
    assert est.value == pytest.approx(23.548618119913158, rel=1e-12)


@pytest.mark.parametrize("dims", [(5, 4, 6), (3, 5, 4, 6)])
def test_ascent_row_chunks_are_independent(dims, monkeypatch):
    """Restarts are independent rows, so sweeping them in chunks of a few
    rows gives every restart the same sweeps and the same value.  Values
    may move in the last bit: BLAS rounds a row of a matrix product
    according to where it falls in the row block (at (5, 4, 6) the best
    value moves by one ulp), so they are compared at 1e-14 relative."""
    T = MultilinearForm(make_gaussian_random(dims, seed=4).coeffs,
                        domain_p=("3/2",) * len(dims))
    whole = ascent_norm(T, restarts=64, seed=5)
    # a one-element cap leaves a few rows per chunk
    monkeypatch.setattr(opnorm, "_GRADIENT_CHUNK", 1)
    chunked = ascent_norm(T, restarts=64, seed=5)
    assert (chunked.iterations, chunked.converged) == (whole.iterations, whole.converged)
    assert chunked.value == pytest.approx(whole.value, rel=1e-14)
    for a, b in zip(chunked.maximizer, whole.maximizer):
        assert np.allclose(a, b, rtol=0, atol=1e-14)


def test_ascent_calls_dual_argmax_through_the_module_name(monkeypatch):
    """Tracing wraps ``opnorm.dual_argmax``; the sweep must call that name,
    once per slot for each block of rows it sweeps."""
    calls = []

    def counting(c, p):
        calls.append(p)
        return dual_argmax(c, p)

    monkeypatch.setattr(opnorm, "dual_argmax", counting)
    T = make_gaussian_random((4, 3, 5), seed=2)
    ascent_norm(T, restarts=4, seed=1)
    assert calls
    assert len(calls) % T.arity == 0


def test_ascent_rejects_a_nan_coefficient():
    """A NaN coefficient is refused when the form is built, so no ascent starts."""
    coeffs = np.ones((3, 3, 3))
    coeffs[0, 1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        MultilinearForm(coeffs)


def test_ascent_value_above_the_l1_bound_raises(monkeypatch):
    monkeypatch.setattr(opnorm, "upper_bound_l1", lambda T: 0.0)
    with pytest.raises(AscentInvariantError, match="l1 coefficient bound"):
        ascent_norm(make_dot(3, 3), restarts=2)


def test_ascent_complex_forms_report_modulus():
    rng = np.random.default_rng(31)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    T = MultilinearForm(A, domain_p=(3, 3))
    est = ascent_norm(T, restarts=4, seed=2)
    assert est.value > 0
    assert abs(evaluate(T, est.maximizer)) == pytest.approx(est.value, rel=1e-10)


# ----------------------------------------------------------- operator_norm

def test_operator_norm_dispatch():
    A = np.diag([1.0, 2.0])
    assert operator_norm(MultilinearForm(A, domain_p=(2, 2))).method == "exact-singular"
    assert operator_norm(MultilinearForm(A, domain_p=(4, 2))).method == "ascent"
    assert operator_norm(make_dot(3, 3)).method == "ascent"


def test_operator_norm_exact_case_value():
    est = operator_norm(make_t0(4, 16))
    assert est.method == "exact-singular"
    assert est.value == pytest.approx(4.0, rel=1e-12)
