"""Symmetries that the lhs and the operator norm must respect.

Flipping signs (or multiplying by the unimodular phases 1, -1, i, -i) in
any slot, and permuting the coordinates of the sup slot, leave every
operation of ``mixed_norm`` on the same values, so the lhs keeps its bits.
Permuting another slot's coordinates or padding every slot with a zero
coordinate reorders sums, so there the lhs agrees to a few ulps.  On the
critical domain l_m^m a block-diagonal sum T_1 + T_2 has lhs = max(lhs_1,
lhs_2), slot 1 being a sup, and norm = max(norm_1, norm_2), by Hoelder with
m factors.  A form with a single nonzero slot-1 slice on (l_3, l_2, l_2)
has the slice's spectral norm and, at (inf, s_2, s_3), the lhs of the
slice at (s_2, s_3).
"""

import math

import numpy as np
import pytest

from critnorm import (MultilinearForm, critical_exponents, make_gaussian_random, mixed_norm,
                      norms, spectral_norm)
from critnorm.opnorm import ASCENT_DEFAULTS
from critnorm.rng import child_rng

CASES = [(2, 5), (3, 4), (4, 3)]


def _ulps(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def _block_sum(A, B):
    """The m-linear form whose coefficients are A on the first block of
    every slot, B on the second, and zero elsewhere."""
    m, n = A.ndim, A.shape[0]
    D = np.zeros((2 * n,) * m, dtype=np.result_type(A, B))
    D[(slice(0, n),) * m] = A
    D[(slice(n, 2 * n),) * m] = B
    return D


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("m, n", CASES)
@pytest.mark.parametrize("seed", range(4))
def test_the_lhs_keeps_its_bits_under_unimodular_scalings_and_sup_slot_permutations(
        m, n, seed, field):
    s = critical_exponents(m, "derived")
    T = make_gaussian_random((n,) * m, seed, field).coeffs
    want = mixed_norm(T, s)
    rng = child_rng(seed, 1)
    units = [1, -1] if field == "real" else [1, -1, 1j, -1j]
    for k in range(m):
        shape = [1] * m
        shape[k] = n
        assert mixed_norm(T * rng.choice(units, size=n).reshape(shape), s) == want
    assert mixed_norm(T[rng.permutation(n)], s) == want


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("m, n", CASES)
@pytest.mark.parametrize("seed", range(4))
def test_the_lhs_holds_under_other_permutations_and_zero_padding(m, n, seed, field):
    s = critical_exponents(m, "derived")
    T = make_gaussian_random((n,) * m, seed, field).coeffs
    want = mixed_norm(T, s)
    rng = child_rng(seed, 2)
    for k in range(1, m):
        assert mixed_norm(np.take(T, rng.permutation(n), axis=k), s) == \
            pytest.approx(want, rel=1e-15, abs=0)
    assert mixed_norm(np.pad(T, [(0, 1)] * m), s) == pytest.approx(want, rel=1e-15, abs=0)


@pytest.mark.parametrize("m, n", CASES)
@pytest.mark.parametrize("seed", range(4))
def test_the_lhs_of_a_block_sum_is_the_larger_lhs(m, n, seed):
    s = critical_exponents(m, "derived")
    A = make_gaussian_random((n,) * m, seed).coeffs
    B = 2 * make_gaussian_random((n,) * m, seed + 100).coeffs
    want = max(mixed_norm(A, s), mixed_norm(B, s))
    assert mixed_norm(_block_sum(A, B), s) == pytest.approx(want, rel=1e-15, abs=0)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("seed", range(4))
def test_the_norm_of_a_block_sum_is_the_larger_norm(seed, field):
    """On l_3^3 with 2x2x2 blocks; the ascents run to tol 1e-12 with 64
    restarts, so the three norms agree within the default tol."""
    A = make_gaussian_random((2, 2, 2), seed, field).coeffs
    B = make_gaussian_random((2, 2, 2), seed + 100, field).coeffs
    forms = [MultilinearForm(A), MultilinearForm(B), MultilinearForm(_block_sum(A, B))]
    ests = norms(forms, [seed] * 3, restarts=64, tol=1e-12, max_iters=5000)
    assert all(est.method == "ascent" and est.converged for est in ests)
    assert ests[2].value == pytest.approx(max(ests[0].value, ests[1].value),
                                          rel=ASCENT_DEFAULTS.tol, abs=0)


@pytest.mark.parametrize("seed", [0, 1, 2, 68, 170, 190])
def test_a_single_slice_form_reduces_to_its_slice(seed):
    """The sup-slot reduction on (l_3, l_2, l_2).  The lhs is held to two
    ulps, not to its bits: the slice alone takes its last root of a NumPy
    scalar where the form takes it of an array of slice values, NumPy's
    scalar and array powers differ in the last bit on about 5% of inputs,
    and the rescaling after the root can turn that ulp into two (seeds 68,
    170 and 190 are two off)."""
    A = make_gaussian_random((4, 4), seed).coeffs
    C = np.zeros((3, 4, 4))
    C[seed % 3] = A
    T = MultilinearForm(C, domain_p=(3, 2, 2))
    s = critical_exponents(3, "derived")
    assert _ulps(mixed_norm(T, s), mixed_norm(A, s[1:])) <= 2
    est = norms([T], [seed])[0]
    assert est.method == "ascent"
    assert est.value == pytest.approx(spectral_norm(A).value, rel=1e-8, abs=0)
