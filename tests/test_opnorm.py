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
    exact_norm,
    lp_norm,
    make_dot,
    make_gaussian_random,
    make_partial_dot,
    make_sign_random,
    make_t0,
    norms,
    spectral_norm,
    upper_bound_l1,
)
from critnorm import opnorm
from critnorm.opnorm import _ascend, _normalize_rows, _sweep, _unit_starts

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


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("shape", [(7,), (5, 7)], ids=["1-d", "2-d"])
@pytest.mark.parametrize("p", ["1", "4/3", "3/2", "2", "3", "4", "12/5", "inf"])
def test_dual_argmax_zero_row_guards_keep_the_other_rows_bits(p, shape, field):
    """A block with no all-zero row skips the zero-row guards; one appended
    all-zero row makes them run.  The other rows keep the same bits either
    way.  ``value=False`` gives the same maximizers and no value, and a
    ``_Ball`` gives what its order does."""
    rng = np.random.default_rng(41)
    C = rng.standard_normal(shape) * np.logspace(-3, 3, shape[-1])
    if field == "complex":
        C = C + 1j * rng.standard_normal(shape)
    padded = np.vstack([C.reshape(-1, shape[-1]), np.zeros(shape[-1], dtype=C.dtype)])
    plain_v, plain_X = dual_argmax(C, p)
    guarded_v, guarded_X = dual_argmax(padded, p)
    assert np.asarray(plain_v).tobytes() == guarded_v[:-1].tobytes()
    assert plain_X.tobytes() == guarded_X[:-1].tobytes()
    assert guarded_v[-1] == 0.0
    assert np.array_equal(guarded_X[-1], np.eye(shape[-1])[0])
    none, lean_X = dual_argmax(C, p, value=False)
    assert none is None
    assert lean_X.tobytes() == plain_X.tobytes()
    none, lean_X = dual_argmax(padded, p, value=False)
    assert none is None
    assert lean_X.tobytes() == guarded_X.tobytes()
    ball_v, ball_X = dual_argmax(C, opnorm._Ball(p))
    assert np.asarray(ball_v).tobytes() == np.asarray(plain_v).tobytes()
    assert ball_X.tobytes() == plain_X.tobytes()


def _signed_zero_block():
    """A real block with +0.0 and -0.0 entries among nonzero ones, a row of
    signed zeros alone and a row with a single nonzero entry."""
    C = np.array([[1.5, -0.0, -2.0, 0.0, 3.0],
                  [-0.0, 0.0, -0.0, -0.0, 0.0],
                  [-0.0, -0.0, 0.25, -0.0, 0.0],
                  [-4.0, 2.0, -0.0, 1.0, -1.0]])
    assert np.signbit(C[C == 0]).any() and not np.signbit(C[C == 0]).all()
    return C


@pytest.mark.parametrize("p", ["4/3", "3/2", "2", "3", "7"])
def test_dual_argmax_signs_signed_zeros_like_the_phase_multiply(p):
    """For 1 < p < inf a real maximizer takes its signs from c by copysign.
    Against the phase multiply, +-1 (c < 0 giving -1) times the maximizer
    of |c|, the values are bit for bit the same and every entry compares
    equal; only the sign of a zero entry where c is -0.0 may differ."""
    C = _signed_zero_block()
    values, X = dual_argmax(C, p)
    ref_values, ref_X = dual_argmax(np.abs(C), p)
    ref_X = np.where(C < 0, -1.0, 1.0) * ref_X
    assert values.tobytes() == ref_values.tobytes()
    assert (X == ref_X).all()
    assert values[1] == 0.0
    assert np.array_equal(X[1], [1, 0, 0, 0, 0]) and not np.signbit(X[1, 0])
    # copysign: a zero entry carries the sign bit of its c
    assert (np.signbit(X[[0, 2, 3]]) == np.signbit(C[[0, 2, 3]])).all()


@pytest.mark.parametrize("p", ["1", "inf"])
def test_dual_argmax_maps_negative_zero_to_plus_one_at_the_ends(p):
    """At p = 1 and p = inf a real maximizer keeps the +-1 phase (c < 0
    giving -1), so a -0.0 entry that gets weight gets +1, never -1."""
    C = _signed_zero_block()
    _, X = dual_argmax(C, p)
    assert X[1, 0] == 1.0 and not np.signbit(X[1, 0])
    if p == "inf":
        rows = [0, 2, 3]   # row 1 is all zero and gets the first unit vector
        zeros = C[rows] == 0
        assert X[rows][zeros].tolist() == [1.0] * int(zeros.sum())
        assert not np.signbit(X[rows][zeros]).any()
    else:
        assert X.tolist() == [[0, 0, 0, 0, 1], [1, 0, 0, 0, 0],
                              [0, 0, 1, 0, 0], [-1, 0, 0, 0, 0]]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("p", ["5/4", "3/2", "2", "3", "4", "7"])
def test_dual_argmax_block_values_norms_and_pairings(p, field):
    """Row by row, at 1e-13 relative: the value is the conjugate norm of the
    row, the maximizer has unit l_p norm, and it pairs with the row to the
    value.  The block mixes rows spread over 24 decades, all-zero rows and,
    when complex, subnormal rows near 1e-309, whose moduli still carry 48
    bits; a subnormal row's pairing is taken at 2^600 times the row, which
    power-of-two scaling leaves exact."""
    rng = np.random.default_rng(42)
    shape = (12, 9)
    C = rng.standard_normal(shape) * np.logspace(-12, 12, shape[0])[:, np.newaxis]
    if field == "complex":
        C = C + 1j * rng.standard_normal(shape) * np.abs(C)
        C[4] = (rng.standard_normal(9) + 1j * rng.standard_normal(9)) * 1e-309
        C[7] = np.where(np.arange(9) % 2, 3 * C[4], 0)
    C[2] = 0
    C[9] = 0
    values, X = dual_argmax(C, p)
    for c, x, value in zip(C, X, values):
        assert lp_norm(x, p) == pytest.approx(1.0, rel=1e-13)
        assert value == pytest.approx(lp_norm(c, conjugate(p)), rel=1e-13)
        scaled = 2.0 ** 600 if np.abs(c).max() < 1e-300 else 1.0
        paired = complex(np.dot(c * scaled, x))
        assert paired.real == pytest.approx(value * scaled, rel=1e-13)
        assert paired.imag == pytest.approx(0.0, abs=1e-13 * (value * scaled))
    assert values[2] == values[9] == 0.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=8),
       st.sampled_from(P_GRID), st.integers(0, 2**31 - 1))
def test_dual_argmax_beats_random_feasible_competitors(entries, p, seed):
    c = np.array(entries)
    value, x = dual_argmax(c, p)
    assert lp_norm(x, p) <= 1 + 1e-12
    assert float(np.dot(c, x)) >= value - 1e-12 * (1 + value)
    rng = child_rng(seed)
    for z in _normalize_rows(rng.standard_normal((50, c.size)), p):
        assert float(np.dot(c, z)) <= value * (1 + 1e-12) + 1e-12


# ----------------------------------------------------------- spectral_norm

def test_spectral_norm_diagonal():
    est = spectral_norm(np.diag([3.0, 4.0]))
    assert est.value == 4.0
    assert est.method == "exact-singular"
    assert est.maximizer is None


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
    cases["huge-1e300"] = rng.standard_normal((20, 18)) * 1e300
    cases["tiny-1e-300"] = rng.standard_normal((18, 20)) * 1e-300
    cases["subnormal"] = rng.standard_normal((12, 9)) * 1e-310
    cases["complex-1xn"] = rng.standard_normal((1, 30)) + 1j * rng.standard_normal((1, 30))
    cases["complex-nx1"] = rng.standard_normal((30, 1)) + 1j * rng.standard_normal((30, 1))
    return cases


_SPECTRAL_CASES = _spectral_cases()


@pytest.mark.parametrize("padding", [0, 1], ids=["default", "always-gram"])
@pytest.mark.parametrize("name", sorted(_SPECTRAL_CASES))
def test_spectral_norm_matches_the_full_svd_and_attains(name, padding):
    """sigma agrees with the full SVD on real and complex, tall and wide,
    near-tied, huge, tiny and subnormal matrices, and the SVD's top singular
    pair attains it under the plain pairing.  ``always-gram`` appends a zero
    row and column, which leaves sigma as it is but makes the Gram matrix at
    least 2 x 2, so vectors and 1 x 1 matrices also reach the eigensolver."""
    A = _SPECTRAL_CASES[name]
    A = np.pad(A, ((0, padding), (0, padding)))
    est = spectral_norm(A)
    U, S, Vh = np.linalg.svd(A)
    assert est.value == pytest.approx(S[0], rel=1e-13)
    assert est.method == "exact-singular"
    assert est.maximizer is None
    val = complex(U[:, 0].conj() @ A @ Vh[0].conj())
    assert val.real == pytest.approx(est.value, rel=1e-12)
    assert val.imag == pytest.approx(0.0, abs=1e-12 * est.value)


@pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.int64, np.bool_])
def test_spectral_norm_works_in_double_precision_whatever_the_dtype(dtype):
    """The Gram matrix of a single-precision or integer matrix is formed in
    float64 or complex128, so sigma keeps double-precision accuracy."""
    A = (np.random.default_rng(26).standard_normal((9, 7)) * 4).astype(dtype)
    A64 = A.astype(np.result_type(A.dtype, np.float64))
    sigma = np.linalg.svd(A64, compute_uv=False)[0]
    assert spectral_norm(A).value == pytest.approx(sigma, rel=1e-13)


@pytest.mark.parametrize("shape", [(3, 5), (20, 30)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_spectral_norm_of_the_zero_matrix_is_zero_at_e0(shape, dtype):
    A = np.zeros(shape, dtype=dtype)
    est = spectral_norm(A)
    assert est.value == 0.0
    assert est.maximizer is None
    assert np.eye(shape[0])[0] @ A @ np.eye(shape[1])[0] == est.value


def _linalg_spy(monkeypatch):
    """Record every np.linalg.svd call as its compute_uv flag and every
    np.linalg.eigvalsh call as "eigvalsh"."""
    calls = []
    svd, eigvalsh = np.linalg.svd, np.linalg.eigvalsh

    def svd_spy(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    def eigvalsh_spy(a, *args, **kwargs):
        calls.append("eigvalsh")
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_spy)
    return calls


def test_spectral_norm_takes_one_gram_eigenvalue_on_a_generic_matrix(monkeypatch):
    rng = np.random.default_rng(22)
    calls = _linalg_spy(monkeypatch)
    for shape in [(64, 64), (40, 70), (70, 40)]:
        for A in (rng.standard_normal(shape),
                  rng.standard_normal(shape) + 1j * rng.standard_normal(shape)):
            calls.clear()
            spectral_norm(A)
            assert calls == ["eigvalsh"]


@pytest.mark.parametrize("shape", [(1, 30), (30, 1), (1, 1)])
def test_spectral_norm_of_a_vector_calls_no_lapack(shape, monkeypatch):
    """A 1 x 1 Gram matrix is its own eigenvalue, so sigma is the vector's
    l_2 norm without an eigenvalue call; the zero matrix needs none either."""
    A = np.random.default_rng(25).standard_normal(shape)
    calls = _linalg_spy(monkeypatch)
    assert spectral_norm(A).value == pytest.approx(math.sqrt((A * A).sum()), rel=1e-15)
    assert spectral_norm(np.zeros((20, 30))).value == 0.0
    assert calls == []


@pytest.mark.parametrize("case", ["2x2", "20x20"])
def test_spectral_norm_with_a_top_singular_vector_orthogonal_to_ones(case, monkeypatch):
    """The top right singular vector (1, -1, 0, ...)/sqrt(2) is orthogonal to
    the all-ones vector; sigma still comes from one Gram eigenvalue."""
    if case == "2x2":
        A = np.array([[1.0, -1.0], [0.0, 0.0]])
    else:
        A = np.zeros((20, 20))
        A[0, :2] = [2.0, -2.0]
        A[2:, 2:] = np.eye(18)
    calls = _linalg_spy(monkeypatch)
    est = spectral_norm(A)
    assert calls == ["eigvalsh"]
    assert est.value == pytest.approx(math.sqrt(2) * A[0, 0], rel=1e-15)


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
                                  (3, 2, 1, 3, 2), (2, 2, 2, 2, 2),
                                  (3, 1, 4), (2, 5, 1, 3), (4, 6, 2)])
def test_slot_gradient_matches_a_per_row_einsum(dims, field, chunk, monkeypatch):
    """Every slot gradient of one sweep matches the einsum gradient of a
    one-row Gauss-Seidel sweep: slot k maximizes the gradient at the new
    slots 0..k-1 and the old slots k+1..m-1 through ``dual_argmax``.  Row
    counts 1, 2, 3 and 16 take different BLAS paths; the last dims have n_1
    apart from both n_0 and n_{m-1}.  A sweep of a two-form ``_Group``,
    with another form's rows after these, gives these rows the same bits."""
    if chunk == "chunked":
        # a one-element cap leaves min(n_0, n_1) rows per chunk
        monkeypatch.setattr(opnorm, "_GRADIENT_CHUNK", 1)
    rng = np.random.default_rng(sum(dims) + 10 * len(dims))
    orders = _SWEEP_ORDERS[:len(dims)]

    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if field == "complex" else z

    coeffs = draw(*dims)
    other = draw(*dims)
    for R in (3, 1, 2, 16):
        X = [draw(R, n) for n in dims]
        before, after, Y = _sweep(opnorm._Group([coeffs], orders, [R]), X)
        assert before.shape == after.shape == (R,)
        assert [y.shape for y in Y] == [(R, n) for n in dims]
        pair = _sweep(opnorm._Group([coeffs, other], orders, [R, 2]),
                      [np.concatenate([x, draw(2, n)]) for x, n in zip(X, dims)])
        assert [a.tobytes() for a in (before, after, *Y)] == \
            [a[:R].tobytes() for a in (pair[0], pair[1], *pair[2])]
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


def test_a_sweep_allocates_one_tensor_sized_intermediate(traced_peak):
    """On gauss m=4 n=24 at R=16, an ascent's scratch buffer (in its
    ``_Group``) holds the one intermediate of R * |T| / min(n_0, n_1)
    elements, and a sweep allocates no tensor-sized block at all, only the
    (R, n^2) contractions of it and (R, n) blocks.  A group of two such
    forms has a buffer of twice the size, which holds both forms' prefixes,
    and its sweep allocates no more per form."""
    T = make_gaussian_random((24,) * 4, seed=1)
    U = make_gaussian_random((24,) * 4, seed=3)
    R, n = 16, 24
    rng = np.random.default_rng(2)
    X = [rng.standard_normal((R, n)) for _ in range(4)]
    orders = ("4",) * 4
    intermediate = R * T.coeffs.size // n * 8
    contraction = R * n * n * 8
    block = R * n * 8
    group = opnorm._Group([T.coeffs], orders, [R])
    assert group.scratch.nbytes == intermediate
    _, peak = traced_peak(lambda: _sweep(group, X))
    assert peak <= contraction + 16 * block
    pair = opnorm._Group([T.coeffs, U.coeffs], orders, [R, R])
    assert pair.scratch.nbytes == 2 * intermediate
    X2 = [np.concatenate([x, x]) for x in X]
    _, peak = traced_peak(lambda: _sweep(pair, X2))
    assert peak <= 2 * (contraction + 16 * block)


def test_a_ragged_group_sweep_stays_within_one_intermediate_per_form(traced_peak):
    """Three gauss m=4 n=24 forms start with R=16 rows each, and after
    freezes hold 16, 5 and 1 active rows: the recut group's sweep, whose
    wave lays the three forms' intermediates side by side in the buffer,
    allocates no more than three one-form sweeps may."""
    forms = [make_gaussian_random((24,) * 4, seed=s).coeffs for s in (1, 3, 4)]
    R, n = 16, 24
    rng = np.random.default_rng(2)
    group = opnorm._Group(forms, ("4",) * 4, [R] * 3)
    group.cut([16, 5, 1])
    X = [rng.standard_normal((22, n)) for _ in range(4)]
    contraction = R * n * n * 8
    block = R * n * 8
    _, peak = traced_peak(lambda: _sweep(group, X))
    assert peak <= 3 * (contraction + 16 * block)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dims", [(3, 4, 2), (3, 2, 4, 2)])
def test_each_form_of_a_group_adds_only_its_two_tensor_reads(dims, field, monkeypatch):
    """A sweep of a group of F same-shape forms calls ``np.matmul`` twice
    per extra form, for the slot-1 and the prefix reads of its rows; the
    slot contractions and folds run once over the whole group."""
    rng = np.random.default_rng(7)
    calls = []
    matmul = np.matmul

    def counting(*args, **kwargs):
        calls.append(None)
        return matmul(*args, **kwargs)

    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if field == "complex" else z

    R, counts = 4, {}
    for F in (1, 3, 6):
        group = opnorm._Group([draw(*dims) for _ in range(F)], ("3",) * len(dims), [R] * F)
        X = [draw(F * R, n) for n in dims]
        monkeypatch.setattr(np, "matmul", counting)
        _sweep(group, X)
        monkeypatch.setattr(np, "matmul", matmul)
        counts[F], calls[:] = len(calls), []
    assert counts[3] - counts[1] == 4
    assert counts[6] - counts[1] == 10


def test_sweep_chunks_keep_the_slot_1_intermediate_within_the_cap(traced_peak, monkeypatch):
    """With n_1 the smallest side, the R * |T| / n_1 intermediate sets the
    chunk: at a cap of |T| elements a chunk has n_1 = 4 rows, where a rule
    on n_0 or n_{m-1} would sweep all 32 rows at once into 8 |T|.  The
    ascent's scratch buffer holds one chunk's intermediate, |T| elements,
    and the sweep allocates only the (R, n) blocks the chunks return."""
    monkeypatch.setattr(opnorm, "_GRADIENT_CHUNK", 1)
    coeffs = np.random.default_rng(3).standard_normal((64, 4, 64))
    R = 32
    X = [np.random.default_rng(4).standard_normal((R, n)) for n in coeffs.shape]
    orders = ("3",) * 3
    group = opnorm._Group([coeffs], orders, [R])
    assert group.scratch.nbytes == coeffs.nbytes
    _, peak = traced_peak(lambda: _sweep(group, X))
    assert peak <= 0.75 * coeffs.nbytes


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


def _record_sweeps(monkeypatch):
    """Wrap ``opnorm._sweep`` so each call appends its (before, after) row
    values to the returned list.  A chunked sweep would also record its
    chunks, so callers keep blocks under the chunk cap."""
    recorded = []
    sweep = opnorm._sweep

    def recording(group, X):
        before, after, Y = sweep(group, X)
        recorded.append((before.copy(), after.copy()))
        return before, after, Y

    monkeypatch.setattr(opnorm, "_sweep", recording)
    return recorded


def test_ascent_trace_is_nondecreasing(monkeypatch):
    """Each block maximization dominates the previous value, so every row's
    value can only go up (within rounding): within a sweep, and from one
    sweep to the next.  The per-row trace is rebuilt from the recorded
    sweeps by freezing rows as ``_ascend`` does."""
    recorded = _record_sweeps(monkeypatch)
    rng = np.random.default_rng(30)
    for trial in range(10):
        T = MultilinearForm(rng.standard_normal((4, 4, 4)),
                            domain_p=("3", "3", "3"))
        X = _unit_starts(T, 4, [100 + trial])
        recorded.clear()
        values, _, sweeps, converged = _ascend([T], X, 1e-10, 200)
        assert converged.all()
        assert len(recorded) == sweeps.max()
        trace = np.zeros(len(values))
        counts = np.zeros(len(values), dtype=np.int64)
        active = np.arange(len(values))
        for s, (before, after) in enumerate(recorded):
            assert len(after) == len(active)
            assert (after >= before - 1e-9 * (1 + before)).all()
            if s:
                a = trace[active]
                assert (after >= a - 1e-9 * (1 + a)).all()
            trace[active] = after
            counts[active] += 1
            active = active[after - before > 1e-10 * np.maximum(after, 1e-300)]
        assert not active.size
        assert np.array_equal(trace, values)
        assert np.array_equal(counts, sweeps)


def _one_vector_starts(T, restarts, seed, rng_of=child_rng):
    """Restart r's start drawn one vector at a time: from the child stream
    (seed, r), slot after slot, a Gaussian vector (plus i times one for a
    complex form) redrawn while all zero, divided by its lp_norm."""
    starts = []
    for r in range(restarts):
        rng = rng_of(seed, r)
        row = []
        for k, size in enumerate(T.dims):
            while True:
                g = rng.standard_normal(size)
                if T.is_complex:
                    g = g + 1j * rng.standard_normal(size)
                if g.any():
                    break
            row.append(g / lp_norm(g, T.domain_p[k]))
        starts.append(row)
    return starts


@pytest.mark.parametrize("p", ("1", "4/3", "3/2", "2", "3", "12/5", "inf"))
@pytest.mark.parametrize("field", ("real", "complex"))
def test_unit_starts_match_one_vector_at_a_time(p, field):
    """The start blocks of a group are drawn one start per row and
    normalized a block at a time, yet each row is bit-identical to drawing
    restart r's vectors from the child stream (seed, r), slot after slot,
    and dividing each by its lp_norm; and each form's rows of a group of
    three are byte for byte the starts of that form alone."""
    seeds = (3, 0, 2)
    for n in (1, 3, 8):
        T = make_gaussian_random((n, n + 1, 2), seed=1, scalar_field=field)
        T = MultilinearForm(T.coeffs, domain_p=(p, "3", "inf" if p == "1" else "1"))
        group = _unit_starts(T, 5, seeds)
        for f, seed in enumerate(seeds):
            X = _unit_starts(T, 5, [seed])
            for k in range(T.arity):
                assert group[k][5 * f:5 * f + 5].tobytes() == X[k].tobytes()
            for r, ref in enumerate(_one_vector_starts(T, 5, seed)):
                for k in range(T.arity):
                    assert X[k][r].dtype == ref[k].dtype
                    assert X[k][r].tobytes() == ref[k].tobytes()


@pytest.mark.parametrize("field", ("real", "complex"))
def test_unit_starts_redraw_a_slot_that_drew_all_zeros(field, monkeypatch):
    """A start whose first draw for some slot is all zeros is drawn again
    slot by slot, with that slot redrawn, exactly as the one-vector loop
    draws it.  A stub stream zeroes the values at chosen positions of
    chosen child streams, so both draw orders see the same values."""
    T = make_gaussian_random((3, 4, 2), seed=1, scalar_field=field)
    T = MultilinearForm(T.coeffs, domain_p=("3/2", "1", "inf"))
    width = 2 if field == "complex" else 1
    # (seed, restart) -> stream positions drawn as zero: slot 1's first
    # draw of restart 2 under seed 8, and slot 0's of restart 0 under seed 5
    zeroed = {(8, 2): range(3 * width, 7 * width), (5, 0): range(0, 3 * width)}
    opened = []

    class Stream:
        def __init__(self, seed, r):
            self.rng, self.zeros, self.pos = child_rng(seed, r), zeroed.get((seed, r), ()), 0
            opened.append((seed, r))

        def standard_normal(self, size=None, out=None):
            g = self.rng.standard_normal(size, out=out)
            for i in range(g.size):
                if self.pos + i in self.zeros:
                    g[i] = 0.0
            self.pos += g.size
            return g

    monkeypatch.setattr(opnorm, "child_rng", Stream)
    seeds = (5, 8, 1)
    X = _unit_starts(T, 3, seeds)
    # one stream per start, and one more for each start drawn again
    assert sorted(opened[9:]) == sorted(zeroed)
    for f, seed in enumerate(seeds):
        for r, ref in enumerate(_one_vector_starts(T, 3, seed, Stream)):
            for k in range(T.arity):
                assert X[k][3 * f + r].tobytes() == ref[k].tobytes()
            assert all(x.any() for x in ref)


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
    once per slot for each block of rows it sweeps, in slot order.  Only
    the last slot's call asks for the value, the one the sweep reports."""
    calls = []

    def counting(c, p, **kwargs):
        calls.append((np.shape(c)[-1], kwargs.get("value", True)))
        return dual_argmax(c, p, **kwargs)

    monkeypatch.setattr(opnorm, "dual_argmax", counting)
    T = make_gaussian_random((4, 3, 5), seed=2)
    ascent_norm(T, restarts=4, seed=1)
    assert calls
    assert len(calls) % T.arity == 0
    m = T.arity
    for i, (n, value) in enumerate(calls):
        assert n == T.dims[i % m]
        assert value == (i % m == m - 1)


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


# ------------------------------------------------------------------- norms

_BATCH_DIMS = {1: (5,), 2: (4, 3), 3: (3, 4, 2), 4: (3, 2, 4, 2), 5: (2, 3, 2, 2, 3)}
_BATCH_DOMAINS = {1: ("inf",), 2: ("1", "3"), 3: ("inf", "3/2", "1"),
                  4: ("4", "1", "inf", "3"), 5: ("3/2", "inf", "2", "1", "5")}


def _assert_same_estimate(got, want):
    """Two estimates with the same bits: value, counts, flag and maximizer."""
    assert (got.value, got.method, got.restarts_used, got.iterations, got.converged) == \
        (want.value, want.method, want.restarts_used, want.iterations, want.converged)
    assert [x.dtype for x in got.maximizer] == [x.dtype for x in want.maximizer]
    assert [x.tobytes() for x in got.maximizer] == [x.tobytes() for x in want.maximizer]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("arity", [1, 2, 3, 4, 5])
def test_ascent_norms_match_ascent_norm_bit_for_bit(arity, field):
    """A batch of K = 1..7 forms on one domain (holding p = 1 and inf from
    arity 2 on), at 16 restarts for odd K and one for even K, and with a
    zero form second from K = 3 on: every ``norms`` estimate is the one
    ``ascent_norm`` gives that form and seed alone, bit for bit."""
    dims, dom = _BATCH_DIMS[arity], _BATCH_DOMAINS[arity]
    for K in range(1, 8):
        restarts = 16 if K % 2 else 1
        forms = [MultilinearForm(make_gaussian_random(dims, seed=10 * K + f,
                                                      scalar_field=field).coeffs, domain_p=dom)
                 for f in range(K)]
        if K >= 3:
            forms[1] = MultilinearForm(np.zeros(dims, dtype=forms[0].coeffs.dtype), domain_p=dom)
        seeds = [100 + 3 * f for f in range(K)]
        batched = norms(forms, seeds, restarts=restarts)
        assert len(batched) == K
        for T, seed, est in zip(forms, seeds, batched):
            _assert_same_estimate(est, ascent_norm(T, restarts=restarts, seed=seed))
        if K >= 3:
            assert (batched[1].value, batched[1].restarts_used) == (0.0, 0)


def test_ascent_norms_groups_mixed_forms_and_sweeps_chunked_rows(monkeypatch):
    """Forms of different dims, dtype or domain in one ``norms`` call are
    grouped, and the estimates come back in call order.  With a one-element
    cap each form's rows sweep in chunks of min(n_0, n_1) rows, several
    chunks to a wave, and every ascent estimate still has the bits of
    ``ascent_norm`` under the same cap.  The 4 x 4 forms on the default
    l_2 x l_2 domain get exactly what ``spectral_norm`` gives them, and the
    one on l_4 x l_4 the ascent."""
    monkeypatch.setattr(opnorm, "_GRADIENT_CHUNK", 1)
    forms = []
    for f in range(8):
        dims = (4, 4) if f % 4 == 3 else (3, 4, 2)
        field = "complex" if f % 4 == 1 else "real"
        dom = ("3/2",) * len(dims) if f % 4 == 2 else None
        T = make_gaussian_random(dims, seed=f, scalar_field=field)
        forms.append(MultilinearForm(T.coeffs, domain_p=dom))
    forms.append(MultilinearForm(make_gaussian_random((4, 4), seed=8).coeffs, domain_p=(4, 4)))
    seeds = list(range(20, 29))
    for f, (est, T, seed) in enumerate(zip(norms(forms, seeds), forms, seeds)):
        if f % 4 == 3:
            assert (est.value, est.method) == (spectral_norm(T.coeffs).value, "exact-singular")
        else:
            _assert_same_estimate(est, ascent_norm(T, seed=seed))


def test_ascent_norms_hands_one_form_to_ascent_norm(monkeypatch):
    """A lone ascent form, alone or beside exact forms, goes through
    ``opnorm.ascent_norm`` by name, so a wrapper of that function sees it;
    a batch of ascent forms does not."""
    calls = []
    real = opnorm.ascent_norm

    def counting(T, *args, **kwargs):
        calls.append(T)
        return real(T, *args, **kwargs)

    monkeypatch.setattr(opnorm, "ascent_norm", counting)
    T = make_gaussian_random((3, 3, 3), seed=1)
    norms([T], [5], restarts=2)
    assert calls == [T]
    norms([T, T], [5, 6], restarts=2)
    assert calls == [T]
    assert norms([], []) == []
    ests = norms([make_t0(3, 4), T, make_t0(2, 2)], [1, 5, 2], restarts=2)
    assert calls == [T, T]
    assert [est.method for est in ests] == ["exact-singular", "ascent", "exact-singular"]


def test_ascent_norms_validation():
    """The seed count and the ascent settings are refused up front, even
    when every form's norm is exact."""
    T = make_dot(2, 2)
    with pytest.raises(ValueError, match="seeds"):
        norms([T, T], [1])
    for bad in ({"restarts": 0}, {"tol": 0.0}, {"tol": math.nan}, {"tol": math.inf},
                {"max_iters": 0}):
        with pytest.raises(ValueError):
            norms([T, T], [1, 2], **bad)
        with pytest.raises(ValueError):
            norms([make_t0(2, 2)], [1], **bad)


# -------------------------------------------------------------- exact_norm

def test_operator_norm_dispatch():
    """``exact_norm`` takes the l_2 x l_2 bilinear case and nothing else, and
    ``norms`` follows it."""
    A = np.diag([1.0, 2.0])
    forms = [MultilinearForm(A, domain_p=(2, 2)), MultilinearForm(A, domain_p=(4, 2)),
             make_dot(3, 3)]
    assert [est.method for est in norms(forms, [42] * 3)] == \
        ["exact-singular", "ascent", "ascent"]
    assert exact_norm(forms[0]).value == 2.0
    assert exact_norm(forms[1]) is None and exact_norm(forms[2]) is None


def test_operator_norm_exact_case_value():
    est = norms([make_t0(4, 16)], [42])[0]
    assert est.method == "exact-singular"
    assert est.value == pytest.approx(4.0, rel=1e-12)
