"""Forms, mixed norms, weak norms, the comparison gap and JSON interchange.

Closed-form values frozen here were computed by hand: nested norms of tiny
integer matrices, the 2x2 identity comparison gap 2 - sqrt(2), singular
values of small stacked bases.
"""

import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critnorm import tensor
from critnorm import (
    VARIANTS,
    ExponentVector,
    MultilinearForm,
    conjugate,
    critical_exponents,
    evaluate,
    from_dict,
    load_tensor,
    lp_norm,
    make_dot,
    make_gaussian_random,
    make_partial_dot,
    make_t0,
    mixed_norm,
    norms,
    save_tensor,
    to_dict,
    weak_norm,
)

ORDER_GRID = ("1", "3/2", "2", "3", "inf")


def _orders(tokens):
    return ExponentVector(",".join(tokens))


# -------------------------------------------------------------------- forms

def test_form_defaults_to_the_critical_domain():
    T = MultilinearForm(np.ones((2, 2, 2)))
    assert T.arity == 3
    assert T.dims == (2, 2, 2)
    assert T.domain_p == ExponentVector.uniform(3, 3)
    assert T.scalar_field == "real"
    assert T.analytic_norm is None


def test_the_default_domain_is_shared_and_an_explicit_one_is_checked():
    T = MultilinearForm(np.ones((2, 2, 2)))
    assert MultilinearForm(np.zeros((4, 3, 5))).domain_p is T.domain_p
    assert MultilinearForm(np.ones(3)).domain_p == ExponentVector("1")
    with pytest.raises(ValueError, match="< 1"):
        MultilinearForm(np.ones((2, 2)), domain_p=ExponentVector("1/2, 2"))
    with pytest.raises(ValueError, match="< 1"):
        T.with_domain((3, "1/2", 3))
    assert T.with_domain(None).domain_p is T.domain_p
    assert "domain_p" not in to_dict(T.with_domain((3, 3, 3)))
    assert to_dict(T.with_domain((3, 3, 4)))["domain_p"] == ["3", "3", "4"]


def test_form_coefficients_are_frozen_copies():
    src = np.ones((2, 2))
    T = MultilinearForm(src)
    src[0, 0] = 7.0
    assert T.coeffs[0, 0] == 1.0
    with pytest.raises(ValueError):
        T.coeffs[0, 0] = 5.0


def test_form_takes_over_a_read_only_array_it_may_keep():
    own = np.ones((3, 4))
    own.setflags(write=False)
    assert MultilinearForm(own).coeffs is own
    pairs = np.arange(24.0)
    pairs.setflags(write=False)
    view = pairs.view(np.complex128).reshape(3, 4)
    assert MultilinearForm(view).coeffs is view


def test_form_copies_any_array_it_may_not_keep():
    base = np.ones((3, 3))
    view = base[:]
    view.setflags(write=False)
    assert not np.shares_memory(MultilinearForm(view).coeffs, base)
    for arr in (np.ones((3, 3), dtype=np.float32), np.ones((3, 4)).T):
        arr.setflags(write=False)
        T = MultilinearForm(arr)
        assert not np.shares_memory(T.coeffs, arr)
        assert T.coeffs.dtype == np.float64 and T.coeffs.flags.c_contiguous


def test_with_domain_shares_the_coefficients(traced_peak):
    T = make_gaussian_random((24,) * 4, seed=3)
    U, peak = traced_peak(lambda: T.with_domain((2, 2, 2, 2)))
    assert np.shares_memory(T.coeffs, U.coeffs)
    # one bool chunk of the finiteness check, against a tensor 8x its size
    assert peak < 2 * tensor.CHUNK_ELEMENTS < T.coeffs.nbytes


@pytest.mark.parametrize("make", [lambda: make_gaussian_random((4, 5, 6), seed=3),
                                  lambda: make_partial_dot(3, 5, 1)], ids=["dense", "block"])
def test_with_domain_shares_the_storage_without_a_second_finiteness_scan(make, monkeypatch):
    """``with_domain`` hands its form the source's coefficient array, or
    its block, as it is: no ``np.isfinite`` call, and the closed-form norm
    drops."""
    T = make()

    def scan(*args, **kwargs):
        raise AssertionError("with_domain checked the coefficients again")

    monkeypatch.setattr(np, "isfinite", scan)
    U = T.with_domain((2, 2, 2))
    monkeypatch.undo()
    assert U.domain_p == ExponentVector("2, 2, 2") and U.analytic_norm is None
    assert U._block is T._block
    if T._block is None:
        assert np.shares_memory(T.coeffs, U.coeffs)
    assert mixed_norm(U, "2,2,2") == mixed_norm(T, "2,2,2")


@pytest.mark.parametrize("scalar", ["real", "complex"])
def test_the_chunked_finiteness_check_reaches_the_last_chunk(scalar, monkeypatch):
    dtype = np.complex128 if scalar == "complex" else np.float64
    bad = complex(1.0, np.nan) if scalar == "complex" else np.nan
    big = np.ones(tensor.CHUNK_ELEMENTS + 3, dtype=dtype)
    big[-1] = bad
    with pytest.raises(ValueError, match="finite"):
        MultilinearForm(big)
    monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", 4)
    small = np.ones((3, 5), dtype=dtype)
    MultilinearForm(small)
    small[2, 4] = bad
    with pytest.raises(ValueError, match="finite"):
        MultilinearForm(small)
    with pytest.raises(ValueError, match="finite"):
        mixed_norm(small, "2,2")


def test_form_validation():
    with pytest.raises(ValueError):
        MultilinearForm(np.ones((2, 0)))
    with pytest.raises(ValueError):
        MultilinearForm(np.float64(3.0))
    with pytest.raises(ValueError):
        MultilinearForm(np.ones((2, 2)), domain_p=(2, 2, 2))
    with pytest.raises(ValueError):
        MultilinearForm(np.ones((2, 2)), domain_p=("1/2", 2))


def test_with_domain_drops_analytic_metadata():
    T = MultilinearForm(np.eye(3), analytic_norm=1.0)
    U = T.with_domain((4, "4/3"))
    assert U.domain_p == ExponentVector("4, 4/3")
    assert U.analytic_norm is None
    assert "2x2" not in repr(U)
    assert "3x3" in repr(U)


def test_complex_detection():
    T = MultilinearForm(np.array([[1 + 1j, 0], [0, 1]]))
    assert T.is_complex and T.scalar_field == "complex"
    assert T.coeffs.dtype == np.complex128


# ----------------------------------------------------------------- evaluate

def test_evaluate_small_bilinear_by_hand():
    T = MultilinearForm(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert evaluate(T, ([1.0, 1.0], [1.0, -1.0])) == -2.0
    assert evaluate(T, ([1.0, 0.0], [0.0, 1.0])) == 2.0


def test_evaluate_is_multilinear_in_each_slot():
    rng = np.random.default_rng(3)
    T = MultilinearForm(rng.standard_normal((3, 4, 2)))
    xs = [rng.standard_normal(d) for d in T.dims]
    ys = rng.standard_normal(3)
    lhs = evaluate(T, [xs[0] + 2.0 * ys, xs[1], xs[2]])
    rhs = evaluate(T, xs) + 2.0 * evaluate(T, [ys, xs[1], xs[2]])
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_evaluate_shape_errors():
    T = MultilinearForm(np.ones((2, 3)))
    with pytest.raises(ValueError):
        evaluate(T, ([1.0, 0.0],))
    with pytest.raises(ValueError):
        evaluate(T, ([1.0, 0.0], [1.0, 0.0]))


# --------------------------------------------------------------- mixed norms

def test_mixed_norm_small_frozen_values():
    A = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert mixed_norm(A, "inf,2") == 5.0
    assert mixed_norm(A, "1,inf") == 4.0
    assert mixed_norm(A, "1,1") == 7.0
    assert mixed_norm(A, "inf,inf") == 4.0
    assert mixed_norm(np.ones((2, 2, 2)), "inf,2,1") == pytest.approx(2 * math.sqrt(2), rel=1e-15)


def test_mixed_norm_on_forms_and_arrays_agrees():
    T = MultilinearForm(np.arange(8.0).reshape(2, 2, 2))
    s = ExponentVector("inf, 3, 12/5")
    assert mixed_norm(T, s) == mixed_norm(T.coeffs, s)


def test_mixed_norm_zero_and_order_count():
    assert mixed_norm(np.zeros((3, 3)), "2,2") == 0.0
    with pytest.raises(ValueError):
        mixed_norm(np.ones((2, 2)), "2,2,2")


def test_mixed_norm_extreme_magnitudes_do_not_overflow():
    A = np.full((2, 2), 1e200)
    v = mixed_norm(A, "2,2")
    assert v == pytest.approx(2e200, rel=1e-15)
    B = np.full((4,), 1e-200)
    assert mixed_norm(B, ExponentVector(("1000",))) == pytest.approx(
        1e-200 * 4 ** 0.001, rel=1e-12)


def _mixed_norm_reference(arr, orders):
    """The nested norm with every entry raised to its power, zeros included."""
    work = np.abs(arr).astype(np.float64)
    scale = float(work.max())
    work = work / scale
    for order in reversed(ExponentVector(orders)):
        if order.is_inf:
            work = work.max(axis=-1)
        else:
            e = float(order.fraction)
            work = np.power(work, e).sum(axis=-1) ** (1.0 / e)
    return float(work) * scale


def _zero_skip_cases():
    rng = np.random.default_rng(17)
    holes = rng.standard_normal((6, 7, 5))
    holes[rng.random(holes.shape) < 0.6] = 0.0
    holes[2] = 0.0                       # a zero block reaches the outer levels
    return {
        "dot-m4n12": make_dot(4, 12).coeffs,
        "partial-m4n12r1": make_partial_dot(4, 12, 1).coeffs,
        "t0-8x30": make_t0(8, 30).coeffs,
        "dense-real": make_gaussian_random((9, 8, 7), seed=5).coeffs,
        "dense-complex": make_gaussian_random((6, 5, 4, 3), seed=5, scalar_field="complex").coeffs,
        "holes": holes,
        "holes-complex": holes * (1 - 2j),
    }


_ZERO_SKIP_CASES = _zero_skip_cases()


@pytest.mark.parametrize("name", sorted(_ZERO_SKIP_CASES))
def test_mixed_norm_zero_skip_is_bit_identical_to_the_plain_formula(name):
    arr = _ZERO_SKIP_CASES[name]
    m = arr.ndim
    families = [critical_exponents(m)] if m > 1 else []
    families += [ExponentVector.uniform(o, m) for o in ("1", "2", "7/3")]
    families += [ExponentVector(("3/2", "inf", "5", "1")[:m])]
    for orders in families:
        assert mixed_norm(arr, orders) == _mixed_norm_reference(arr, orders), orders


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
def test_mixed_norm_rejects_non_finite_coefficients(bad):
    A = np.ones((3, 3), dtype=complex if isinstance(bad, complex) else float)
    A[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        mixed_norm(A, "inf,2")


def _chunking_cases():
    cases = dict(_ZERO_SKIP_CASES)
    rng = np.random.default_rng(23)
    cases["arity-1"] = rng.standard_normal(11)
    cases["arity-1-complex"] = rng.standard_normal(9) * (2 + 1j)
    cases["all-zero-leading-rows"] = np.concatenate(
        [np.zeros((3, 4, 2)), rng.standard_normal((2, 4, 2))])
    return cases


_CHUNKING_CASES = _chunking_cases()


@pytest.mark.parametrize("chunk", [1, 3, 7, 50])
@pytest.mark.parametrize("name", sorted(_CHUNKING_CASES))
def test_chunked_mixed_norm_is_bit_identical_to_one_chunk(name, chunk, monkeypatch):
    arr = _CHUNKING_CASES[name]
    m = arr.ndim
    families = [critical_exponents(m)] if m > 1 else [ExponentVector("inf")]
    families += [ExponentVector.uniform(o, m) for o in ("1", "2", "7/3", "inf")]
    families += [ExponentVector(("3/2", "inf", "5", "1")[:m]),
                 ExponentVector(("inf", "5/2", "inf", "3")[:m])]
    whole = [mixed_norm(arr, orders) for orders in families]
    monkeypatch.setattr(tensor, "CHUNK_ELEMENTS", chunk)
    chunked = [mixed_norm(arr, orders) for orders in families]
    assert [v.hex() for v in chunked] == [v.hex() for v in whole]


def _support_cases():
    """(m, r, n) of every pinned diagonal checked against its dense tensor:
    m = 2..6, r = 0..m-2, n capped at 8 from m = 5 on."""
    return [(m, r, n) for m in range(2, 7) for r in range(m - 1)
            for n in (1, 2, 3, 5, 8, 13, 24, 40) if m < 5 or n <= 8]


@pytest.mark.parametrize("m, r, n", _support_cases())
def test_support_mixed_norm_has_the_dense_bits(m, r, n):
    """A witness's mixed norm, reduced from its compressed block, equals the
    one reduced from its dense tensor under ==, for every variant and for
    orders with inf at an inner level."""
    T = make_partial_dot(m, n, r)
    families = [critical_exponents(m, v) for v in VARIANTS]
    families += [ExponentVector(("inf", "3", "12/5", "inf", "1", "5/3")[:m]),
                 ExponentVector(("7/3",) * (m - 1) + ("inf",)),
                 ExponentVector((("3/2", "inf") * 3)[:m]),
                 ExponentVector.uniform("1", m), ExponentVector.uniform("inf", m)]
    dense = T.coeffs
    for orders in families:
        assert mixed_norm(T, orders) == mixed_norm(dense, orders), orders


@pytest.mark.parametrize("groups", [(2, 1), (1, 2, 1), (3,), (1, 1, 2), (2, 2), (1, 3)])
def test_a_general_block_reduces_to_the_dense_value(groups):
    """Each axis of a block takes the order of its group's first slot,
    whatever the group sizes, and an axis may be shorter than its slots'
    dimension: a random block agrees with its dense tensor up to summation
    order, and the dense tensor holds the block on its group diagonals."""
    rng = np.random.default_rng(31)
    U = rng.standard_normal(tuple(rng.integers(1, 5, size=len(groups))))
    dims = tuple(int(u + rng.integers(0, 2)) for u, g in zip(U.shape, groups) for _ in range(g))
    T = MultilinearForm._from_block(dims, U, groups)
    assert np.count_nonzero(T.coeffs) == U.size
    diagonal = tuple(i for i, g in zip(np.indices(U.shape), groups) for _ in range(g))
    assert np.array_equal(T.coeffs[diagonal], U)
    m = len(dims)
    for orders in [critical_exponents(m), ExponentVector.uniform("3/2", m),
                   ExponentVector((("inf", "7/3") * 2)[:m]),
                   ExponentVector((("2", "inf") * 2)[:m])]:
        assert mixed_norm(T, orders) == pytest.approx(mixed_norm(T.coeffs, orders), rel=1e-13)


def test_a_block_refuses_non_finite_values_and_mismatched_orders():
    for bad in (np.nan, np.inf, -np.inf):
        U = np.ones((1, 3))
        U[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            MultilinearForm._from_block((3, 3, 3), U, (1, 2))
    with pytest.raises(ValueError, match="expected 2 orders"):
        mixed_norm(make_dot(2, 3), "2,2,2")


def test_all_inf_mixed_norm_is_the_max_modulus():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((3, 4, 5))
    assert mixed_norm(A, "inf,inf,inf") == np.abs(A).max()


_entry = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=1e6).map(lambda v: v),
    st.floats(min_value=1e-6, max_value=1e6).map(lambda v: -v),
)


@st.composite
def small_arrays(draw, min_dims=2, max_dims=3):
    ndim = draw(st.integers(min_dims, max_dims))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(ndim))
    flat = draw(st.lists(_entry, min_size=int(np.prod(shape)),
                         max_size=int(np.prod(shape))))
    return np.array(flat).reshape(shape)


@settings(max_examples=150, deadline=None)
@given(small_arrays(), st.integers(-10, 10), st.data())
def test_mixed_norm_power_of_two_homogeneity_is_exact(A, k, data):
    """Scaling by 2^k changes no mantissa, so the factored-out-maximum
    evaluation must commute with it bit for bit."""
    s = _orders(data.draw(st.tuples(*[st.sampled_from(ORDER_GRID)] * A.ndim)))
    c = 2.0 ** k
    assert mixed_norm(c * A, s) == c * mixed_norm(A, s)


@settings(max_examples=150, deadline=None)
@given(small_arrays(), st.data())
def test_mixed_norm_is_monotone_decreasing_in_each_order(A, data):
    grid = [g for g in ORDER_GRID]
    lo = data.draw(st.tuples(*[st.sampled_from(grid)] * A.ndim))
    hi = tuple(data.draw(st.sampled_from(grid[grid.index(t):])) for t in lo)
    big = mixed_norm(A, _orders(lo))
    small = mixed_norm(A, _orders(hi))
    assert small <= big * (1 + 1e-12) + 1e-300


@settings(max_examples=100, deadline=None)
@given(small_arrays(min_dims=1, max_dims=1),
       st.sampled_from(ORDER_GRID), st.sampled_from(ORDER_GRID))
def test_lp_norm_matches_single_axis_mixed_norm(x, t1, t2):
    assert lp_norm(x, t1) == mixed_norm(x, ExponentVector((t1,)))
    if ORDER_GRID.index(t2) >= ORDER_GRID.index(t1):
        assert lp_norm(x, t2) <= lp_norm(x, t1) * (1 + 1e-12)


def test_lp_norm_frozen_values():
    assert lp_norm([3.0, 4.0], 2) == 5.0
    assert lp_norm([3.0, 4.0], 1) == 7.0
    assert lp_norm([3.0, -4.0], "inf") == 4.0
    assert lp_norm([3.0, 4.0], "1/2") == pytest.approx(7 + 4 * math.sqrt(3), rel=1e-14)
    assert lp_norm([], 2) == 0.0
    with pytest.raises(ValueError):
        lp_norm([1.0], 0)


@pytest.mark.parametrize("x, order, message", [
    ([1.0, 1.0, 1.0], "1/1000", "overflowed"),
    ([1e308, 1e308], 1, "overflowed"),
    ([], 0, "positive"),
])
def test_lp_norm_refuses_an_overflow_and_a_zero_order(x, order, message):
    """lp_norm is mixed_norm on one axis, with its refusals: a result past the
    float range raises without a RuntimeWarning, and so does order 0 on an
    empty vector."""
    with pytest.raises(ValueError, match=message):
        lp_norm(x, order)


# --------------------------------------------------------------- weak norms

def test_weak_norm_of_one_vector_is_its_container_norm():
    # a single row reduces to |c| * x with |c| <= 1, so the weak norm is the
    # plain l_q norm whatever p is
    assert weak_norm([3.0, 4.0], "3/2", 2, seed=5) == pytest.approx(5.0, rel=1e-9)
    assert weak_norm([3.0, 4.0], 3, "inf", seed=5) == pytest.approx(4.0, rel=1e-9)


def test_weak_norm_l2_l2_is_the_top_singular_value():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert weak_norm(X, 2, 2) == pytest.approx(math.sqrt(3), rel=1e-12)


def test_weak_norm_canonical_basis_is_one_at_the_conjugate_order():
    for m in (2, 3, 4):
        w = weak_norm(np.eye(6), conjugate(m), m, seed=2)
        assert w == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("p, q", [(3, 4), (2, 2)])
def test_weak_norm_is_the_pairing_operator_norm_at_fixed_settings(p, q):
    # the seed is the only setting a caller passes
    assert list(inspect.signature(weak_norm).parameters) == ["vectors", "p", "space_q", "seed"]
    X = make_gaussian_random((3, 5), seed=4).coeffs
    pairing = MultilinearForm(X, domain_p=(conjugate(p), conjugate(q)))
    want = norms([pairing], [9], restarts=8, tol=1e-12, max_iters=200)[0].value
    assert weak_norm(X, p, q, seed=9) == want


def test_weak_norm_input_validation():
    with pytest.raises(ValueError):
        weak_norm(np.ones((2, 2, 2)), 2, 2)
    with pytest.raises(ValueError):
        weak_norm(np.eye(2), "1/2", 2)
    with pytest.raises(ValueError):
        weak_norm(np.eye(2), 2, "2/3")


def _weak_sequences(scalar_field):
    """Sequences of mixed lengths and dimensions, one-vector ones included,
    with a zero sequence and a repeat of the first at its seed; one seed each."""
    seqs = [make_gaussian_random(dims, seed=i, scalar_field=scalar_field).coeffs
            for i, dims in enumerate([(3, 5), (1, 5), (5, 5), (1, 4), (3, 5), (2, 4)])]
    seeds = [11 * i + 3 for i in range(len(seqs))]
    seqs.insert(2, seqs[0])
    seeds.insert(2, seeds[0])
    seqs.append(np.zeros((2, 5), dtype=seqs[0].dtype))
    seeds.append(1)
    return seqs, seeds


@pytest.mark.parametrize("scalar_field", ["real", "complex"])
@pytest.mark.parametrize("q", ["1", "2", "inf"])
@pytest.mark.parametrize("p", ["1", "4/3", "2", "4", "inf"])
def test_list_weak_norm_equals_one_call_per_sequence_bitwise(p, q, scalar_field):
    seqs, seeds = _weak_sequences(scalar_field)
    want = [weak_norm(X, p, q, seed=s) for X, s in zip(seqs, seeds)]
    assert weak_norm(seqs, p, q, seed=seeds) == want
    assert want[2] == want[0] and want[-1] == 0.0


def test_list_weak_norm_input_validation():
    seqs = [np.eye(2), np.ones((1, 3))]
    assert weak_norm([], 2, 2, seed=[]) == []
    with pytest.raises(ValueError):
        weak_norm(seqs, "1/2", 2, seed=[1, 2])
    with pytest.raises(ValueError):
        weak_norm(seqs, 2, "2/3", seed=[1, 2])
    for p in (2, 3):   # the spectral and the ascent path
        with pytest.raises(ValueError):
            weak_norm([np.eye(2), np.ones((2, 2, 2))], p, 2, seed=[1, 2])
        with pytest.raises(ValueError):
            weak_norm([np.eye(2), np.ones((0, 3))], p, 2, seed=[1, 2])
        with pytest.raises(ValueError):
            weak_norm(seqs, p, 2, seed=[1])
        with pytest.raises(ValueError):
            weak_norm(seqs, p, 2, seed=[1, 2, 3])


# ------------------------------------------------------------ comparison gap

def _comparison_gap(W, p, q):
    """Columns-inside minus rows-inside mixed norm of a nonnegative matrix;
    by Minkowski's inequality it is nonnegative when p <= q."""
    return mixed_norm(W.T, (p, q)) - mixed_norm(W, (q, p))


def test_comparison_gap_identity_matrix_frozen_value():
    assert _comparison_gap(np.eye(2), 1, 2) == pytest.approx(2 - math.sqrt(2), rel=1e-15)
    assert _comparison_gap(np.eye(2), 1, "inf") == pytest.approx(1.0, rel=1e-15)


def test_comparison_gap_vanishes_when_orders_match():
    rng = np.random.default_rng(8)
    A = np.abs(rng.standard_normal((5, 7)))
    for t in ("1", "2", "inf"):
        assert abs(_comparison_gap(A, t, t)) <= 1e-12 * A.max()


@settings(max_examples=200, deadline=None)
@given(small_arrays(min_dims=2, max_dims=2), st.data())
def test_comparison_gap_is_nonnegative(A, data):
    W = np.abs(A)
    i = data.draw(st.integers(0, len(ORDER_GRID) - 1))
    j = data.draw(st.integers(i, len(ORDER_GRID) - 1))
    gap = _comparison_gap(W, ORDER_GRID[i], ORDER_GRID[j])
    assert gap >= -1e-12 * max(W.max(), 1.0)


# ---------------------------------------------------------------- memory
#
# Peaks are tracemalloc's count of bytes allocated during the call (see the
# traced_peak fixture), so each bound is exact rather than a loose RSS read.

def test_mixed_norm_scratch_is_bounded_by_the_chunk(traced_peak):
    # the dense tensor, so the chunked path runs (the form itself takes the block path)
    A = make_dot(4, 40).coeffs
    assert A.size > 4 * tensor.CHUNK_ELEMENTS
    value, peak = traced_peak(lambda: mixed_norm(A, critical_exponents(4)))
    assert value == 1.0
    # one chunk of float64 moduli plus its zero mask, never two chunks
    assert peak <= 1.5 * tensor.CHUNK_ELEMENTS * 8


def test_a_witness_and_its_mixed_norm_stay_within_64_kb(traced_peak):
    """make_dot(4, 40) keeps its block of 40 ones, not its 20 MB tensor, and
    its mixed norm is reduced from the block."""
    value, peak = traced_peak(lambda: mixed_norm(make_dot(4, 40), critical_exponents(4)))
    assert value == 1.0
    assert peak < 64 * 1024


# ------------------------------------------------------------------ interchange

def test_json_round_trip_real(tmp_path):
    T = MultilinearForm(np.arange(6.0).reshape(2, 3))
    path = tmp_path / "t.json"
    save_tensor(T, path)
    U = load_tensor(path)
    assert np.array_equal(U.coeffs, T.coeffs)
    assert U.domain_p == T.domain_p
    assert U.scalar_field == "real"


def test_json_round_trip_complex_with_custom_domain(tmp_path):
    arr = np.array([[1 + 2j, 0], [0, 1 - 1j]])
    T = MultilinearForm(arr, domain_p=("4/3", "inf"))
    path = tmp_path / "t.json"
    save_tensor(T, path)
    U = load_tensor(path)
    assert np.array_equal(U.coeffs, T.coeffs)
    assert U.domain_p == ExponentVector("4/3, inf")
    assert U.is_complex


def test_json_domain_field_only_when_not_critical():
    assert "domain_p" not in to_dict(MultilinearForm(np.eye(2)))
    assert to_dict(MultilinearForm(np.eye(2), domain_p=(4, 4)))["domain_p"] == ["4", "4"]


def test_from_dict_validation():
    good = to_dict(MultilinearForm(np.eye(2)))
    bad = dict(good, dims=[2, 3])
    with pytest.raises(ValueError):
        from_dict(bad)
    bad = dict(good, coeffs=good["coeffs"][:-1])
    with pytest.raises(ValueError):
        from_dict(bad)
    bad = dict(good, scalar="quaternion")
    with pytest.raises(ValueError):
        from_dict(bad)


_GOOD_PAYLOAD = {"m": 2, "dims": [2, 2], "scalar": "complex",
                 "coeffs": [[1, 2], [3, 4], [5, 6], [7, 8]]}
MALFORMED_PAYLOADS = {
    "not-an-object": [1, 2],
    "missing-coeffs": {k: v for k, v in _GOOD_PAYLOAD.items() if k != "coeffs"},
    "missing-m": {k: v for k, v in _GOOD_PAYLOAD.items() if k != "m"},
    "coeffs-not-a-list": dict(_GOOD_PAYLOAD, coeffs="abcd"),
    "dims-not-a-list": dict(_GOOD_PAYLOAD, dims=4),
    "domain-not-a-list": dict(_GOOD_PAYLOAD, domain_p=5),
    "m-not-a-number": dict(_GOOD_PAYLOAD, m=None),
    "complex-scalars": dict(_GOOD_PAYLOAD, coeffs=[1, 2, 3, 4]),
    "complex-triple": dict(_GOOD_PAYLOAD, coeffs=[[1, 2], [3, 4], [5, 6, 0], [7, 8]]),
    "complex-single": dict(_GOOD_PAYLOAD, coeffs=[[1, 2], [3], [5, 6], [7, 8]]),
    "complex-object": dict(_GOOD_PAYLOAD, coeffs=[[1, 2], [3, {}], [5, 6], [7, 8]]),
    "real-pairs": dict(_GOOD_PAYLOAD, scalar="real"),
    "real-object": dict(_GOOD_PAYLOAD, scalar="real", coeffs=[1, 2, {}, 4]),
    "m-float": dict(_GOOD_PAYLOAD, m=2.7),
    "m-bool": dict(_GOOD_PAYLOAD, m=True, dims=[4]),
    "dims-float": dict(_GOOD_PAYLOAD, dims=[2.9, 2]),
    "dims-bool": dict(_GOOD_PAYLOAD, dims=[True, 4]),
    "domain-float": dict(_GOOD_PAYLOAD, domain_p=[2.5, 2]),
    "domain-bool": dict(_GOOD_PAYLOAD, domain_p=[True, 2]),
    "domain-null": dict(_GOOD_PAYLOAD, domain_p=[None, 2]),
    "domain-object": dict(_GOOD_PAYLOAD, domain_p=[{}, 2]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_PAYLOADS))
def test_from_dict_refuses_malformed_payloads_with_value_error(name):
    from_dict(_GOOD_PAYLOAD)
    pattern = r"\[re, im\] pairs" if name.startswith("complex") else None
    with pytest.raises(ValueError, match=pattern):
        from_dict(MALFORMED_PAYLOADS[name])


@pytest.mark.parametrize("scalar", ["real", "complex"])
def test_from_dict_is_bit_exact_and_keeps_the_parsed_array(scalar):
    T = make_gaussian_random((16, 12), seed=9, scalar_field=scalar)
    payload = to_dict(T)
    U = from_dict(payload)
    assert U.coeffs.tobytes() == T.coeffs.tobytes()
    if scalar == "complex":
        expected = np.array([complex(re, im) for re, im in payload["coeffs"]])
        assert U.coeffs.tobytes() == expected.tobytes()
    # a copy made by the form would own its data; the parsed array is a
    # flat float64 list of values (of [re, im] pairs for complex forms)
    parsed = U.coeffs.base
    assert parsed.dtype == np.float64 and parsed.shape == (
        (U.coeffs.size, 2) if scalar == "complex" else (U.coeffs.size,))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("scalar", ["real", "complex"])
def test_from_dict_rejects_non_finite_coefficients(bad, scalar, tmp_path):
    coeffs = np.eye(2, dtype=complex if scalar == "complex" else float)
    payload = to_dict(MultilinearForm(coeffs))
    payload["coeffs"][1] = [bad, 0.0] if scalar == "complex" else bad
    with pytest.raises(ValueError, match="finite"):
        from_dict(payload)
    path = tmp_path / "bad.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with pytest.raises(ValueError, match="finite"):
        load_tensor(path)
    coeffs[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        MultilinearForm(coeffs)
