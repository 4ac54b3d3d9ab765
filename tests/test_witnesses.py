"""Witness form constructors and the compact form-spec language."""

import hashlib

import numpy as np
import pytest

from critnorm import (
    ExponentVector,
    FormFactory,
    critical_exponents,
    evaluate,
    make_dot,
    make_gaussian_random,
    make_partial_dot,
    make_sign_random,
    make_t0,
    mixed_norm,
    parse_form_spec,
    save_tensor,
    spectral_norm,
)
from critnorm import witnesses
from critnorm.rng import child_rng


# ------------------------------------------------------------- constructors

def test_dot_form_is_the_diagonal():
    T = make_dot(3, 4)
    assert T.dims == (4, 4, 4)
    assert T.analytic_norm == 1.0
    assert T.coeffs.sum() == 4.0
    assert T.coeffs[1, 1, 1] == 1.0 and T.coeffs[0, 1, 1] == 0.0
    u = np.full(4, 4 ** (-1 / 3))
    assert evaluate(T, [u, u, u]) == pytest.approx(1.0, rel=1e-12)


def test_dot_mixed_norm_attains_one_at_the_critical_orders():
    for m in (2, 3, 4):
        T = make_dot(m, 8)
        assert mixed_norm(T, critical_exponents(m)) == 1.0


def test_partial_dot_pins_leading_slots():
    T = make_partial_dot(3, 4, 1)
    assert T.coeffs[0, 2, 2] == 1.0
    assert T.coeffs[1, 2, 2] == 0.0
    assert T.analytic_norm == pytest.approx(4 ** (1 / 3), rel=1e-15)
    assert make_partial_dot(3, 4, 0).analytic_norm == 1.0


def test_partial_dot_equality_case_at_one_pinned_slot():
    """With r <= 1 the critical mixed norm lands on the same float expression
    n^(r/m) as the closed-form operator norm: the only surviving all-ones
    fiber sits at axis r+1 and s_2 = m."""
    for m, r in ((3, 0), (3, 1), (4, 1), (5, 1)):
        T = make_partial_dot(m, 5, r)
        assert mixed_norm(T, critical_exponents(m)) == T.analytic_norm


def test_partial_dot_mixed_norm_drops_below_the_norm_past_one_pin():
    # r >= 2 pins move the all-ones fiber to axis r+1 where the order is
    # smaller than m, so the mixed norm n^(1/s_{r+1}) sits strictly below
    # the operator norm n^(r/m)
    for m, r, n in ((4, 2, 5), (5, 3, 5)):
        T = make_partial_dot(m, n, r)
        s = critical_exponents(m)
        got = mixed_norm(T, s)
        assert got == pytest.approx(float(n) ** float(s[r].reciprocal()), rel=1e-12)
        assert got < T.analytic_norm


def test_partial_dot_range_checks():
    with pytest.raises(ValueError):
        make_partial_dot(3, 4, 2)
    with pytest.raises(ValueError):
        make_partial_dot(3, 4, -1)
    with pytest.raises(ValueError):
        make_partial_dot(1, 4, 0)


def test_t0_structure_and_norm():
    T = make_t0(3, 9)
    assert T.dims == (3, 9)
    assert T.domain_p == ExponentVector("2,2")
    assert np.array_equal(T.coeffs[0], np.ones(9))
    assert np.array_equal(T.coeffs[1], np.zeros(9))
    assert T.analytic_norm == 3.0
    assert spectral_norm(T.coeffs).value == pytest.approx(3.0, rel=1e-14)


def test_sign_random_entries_and_determinism():
    T = make_sign_random(2, 16, seed=7)
    assert set(np.unique(T.coeffs)) == {-1.0, 1.0}
    U = make_sign_random(2, 16, seed=7)
    assert np.array_equal(T.coeffs, U.coeffs)
    V = make_sign_random(2, 16, seed=8)
    assert not np.array_equal(T.coeffs, V.coeffs)


def test_gaussian_random_real_and_complex():
    T = make_gaussian_random((3, 4), seed=1)
    assert T.scalar_field == "real"
    C = make_gaussian_random((3, 4), seed=1, scalar_field="complex")
    assert C.is_complex
    # the real draw is the real part of the complex draw under the same seed
    assert np.array_equal(C.coeffs.real, T.coeffs)
    with pytest.raises(ValueError):
        make_gaussian_random((3, 4), seed=1, scalar_field="rational")
    with pytest.raises(ValueError):
        make_gaussian_random((), seed=1)
    with pytest.raises(ValueError, match=r"^all dimensions must be positive, got \(3, -1\)$"):
        make_gaussian_random((3, -1), seed=1)


# Leading 16 hex digits of the sha256 of each form's coefficient bytes, as
# drawn before the builders filled their arrays in place: the streams and the
# arithmetic that turns draws into coefficients must not move.
_COEFF_DIGESTS = {
    (0, "real"): "788cd3f4e13a868c",
    (0, "complex"): "235236349a0693cd",
    (0, "sign"): "2ba980f61c8ec547",
    (7, "real"): "b4302218a3cf2bb9",
    (7, "complex"): "f9078b37738991ba",
    (7, "sign"): "30d3bc7affb99b58",
    (2024, "real"): "44edadf43831d542",
    (2024, "complex"): "7d16d18dae914a2a",
    (2024, "sign"): "d2b53788c064ea43",
}


@pytest.mark.parametrize("seed, kind", sorted(_COEFF_DIGESTS))
def test_random_coefficients_are_bit_identical_to_the_frozen_draws(seed, kind):
    if kind == "sign":
        T = make_sign_random(3, 5, seed)
    else:
        T = make_gaussian_random((5, 4, 3), seed, kind)
    digest = hashlib.sha256(T.coeffs.tobytes()).hexdigest()[:16]
    assert digest == _COEFF_DIGESTS[seed, kind]


def test_builders_hand_their_array_to_the_form(traced_peak):
    T, peak = traced_peak(lambda: make_dot(4, 40))
    assert peak <= 1.1 * T.coeffs.nbytes
    G, peak = traced_peak(lambda: make_gaussian_random((24,) * 4, seed=3))
    assert peak <= 1.5 * G.coeffs.nbytes
    # the complex array plus one float64 draw of half its size
    C, peak = traced_peak(lambda: make_gaussian_random((24,) * 4, 3, "complex"))
    assert peak <= 1.6 * C.coeffs.nbytes
    for form in (T, G, make_sign_random(3, 4, 1), make_t0(3, 4),
                 make_gaussian_random((3, 4), 1, "complex")):
        assert form.coeffs.flags.owndata and not form.coeffs.flags.writeable


def _dense_partial_dot(m, n, r):
    """The diagonal witness as a dense builder makes it: zeros, then ones
    at (0, ..., 0, j, ..., j) by index assignment."""
    coeffs = np.zeros((n,) * m)
    coeffs[(np.zeros(n, dtype=int),) * r + (np.arange(n),) * (m - r)] = 1.0
    return coeffs


@pytest.mark.parametrize("m, n, r", [(2, 1, 0), (2, 7, 0), (3, 5, 1), (4, 6, 2), (5, 3, 3)])
def test_witness_coefficients_are_built_once_with_the_dense_bytes(m, n, r):
    T = make_partial_dot(m, n, r)
    A = T.coeffs
    assert A.tobytes() == _dense_partial_dot(m, n, r).tobytes()
    assert A.shape == T.dims and A.dtype == np.float64
    assert not A.flags.writeable
    assert T.coeffs is A


def test_witness_metadata_does_not_build_the_coefficients(traced_peak):
    """dims, arity, is_complex, repr, with_domain and mixed_norm read the
    block alone: the 20 MB tensor of make_dot(4, 40) is first allocated
    when coeffs is read."""
    T = make_dot(4, 40)

    def metadata():
        U = T.with_domain((2, 4, 4, 4))
        return (T.dims, T.arity, T.is_complex, repr(T), U.dims, repr(U),
                mixed_norm(U, critical_exponents(4)))

    (dims, arity, is_complex, text, udims, utext, value), peak = traced_peak(metadata)
    assert (dims, arity, is_complex, udims) == ((40,) * 4, 4, False, (40,) * 4)
    assert text == "MultilinearForm(real 40x40x40x40 on l_4,4,4,4)"
    assert "on l_2,4,4,4" in utext and value == 1.0
    assert peak < 64 * 1024
    _, peak = traced_peak(lambda: T.coeffs)
    assert peak >= 40 ** 4 * 8


def test_sign_random_peaks_at_one_tensor(traced_peak):
    """The sign draws go slice by slice into the float64 tensor, so no int64
    copy of it is made: the peak is the tensor plus the form's finiteness
    chunk (1% of it here)."""
    T, peak = traced_peak(lambda: make_sign_random(4, 40, seed=3))
    assert peak <= 1.1 * T.coeffs.nbytes


@pytest.mark.parametrize("m, n, slice_", [(2, 5, 7), (3, 5, 1), (4, 24, None),
                                          (3, 64, None), (4, 40, None)])
def test_sign_random_slices_read_the_stream_as_one_draw(m, n, slice_, monkeypatch):
    """Drawing in slices, of any size, gives the bits of one int64 draw of
    the whole tensor mapped to +-1."""
    if slice_ is not None:
        monkeypatch.setattr(witnesses, "_SIGN_SLICE", slice_)
    whole = child_rng(9).integers(0, 2, size=(n,) * m).astype(np.float64) * 2.0 - 1.0
    assert make_sign_random(m, n, seed=9).coeffs.tobytes() == whole.tobytes()


# ---------------------------------------------------------------- factories

def test_parse_pinned_spec_builds_without_arguments():
    fac = parse_form_spec("partial:m=3,n=8,r=1")
    T = fac.make()
    assert T.dims == (8, 8, 8)


def test_parse_family_spec_takes_sweep_dimension_and_seed():
    fac = parse_form_spec("gauss:m=3")
    T = fac.make(n=4, seed=11)
    assert T.dims == (4, 4, 4)
    U = fac.make(n=4, seed=11)
    assert np.array_equal(T.coeffs, U.coeffs)
    with pytest.raises(ValueError):
        fac.make(seed=11)       # no dimension anywhere
    with pytest.raises(ValueError):
        parse_form_spec("gauss:m=3,n=4").make(n=4)  # no seed anywhere


def test_pinned_values_win_over_passed_ones():
    fac = parse_form_spec("sign:m=2,n=4,seed=3")
    T = fac.make(seed=999)
    assert T.dims == (4, 4)
    assert np.array_equal(T.coeffs, make_sign_random(2, 4, 3).coeffs)


@pytest.mark.parametrize("spec, takes_n, takes_seed", [
    ("dot:m=3", True, False),
    ("dot:m=3,n=8", False, False),
    ("partial:m=3,r=1", True, False),
    ("partial:m=3,n=8,r=1", False, False),
    ("t0:n1=4", True, False),
    ("t0:n1=4,n2=16", False, False),
    ("sign:m=2", True, True),
    ("sign:m=2,n=4,seed=3", False, False),
    ("gauss:m=3", True, True),
    ("gauss:m=3,seed=1", True, False),
    ("gauss:dims=2x3", False, True),
    ("file:form.json", False, False),
])
def test_factory_states_what_a_spec_leaves_free(spec, takes_n, takes_seed):
    fac = parse_form_spec(spec)
    assert (fac.takes_n, fac.takes_seed) == (takes_n, takes_seed)
    if not takes_n:   # a pinned dimension refuses a passed one before any build
        with pytest.raises(ValueError, match="fixes its dimensions, so a separate n = 16"):
            fac.make(n=16, seed=1)


def test_gauss_dims_spec():
    fac = parse_form_spec("gauss:dims=2x3x4,seed=5")
    T = fac.make()
    assert T.dims == (2, 3, 4)
    with pytest.raises(ValueError):
        fac.make(n=8)   # explicit dims exclude a sweep dimension


@pytest.mark.parametrize("spec", ["gauss:m=3,dims=4x4", "gauss:dims=4x4,n=9",
                                  "gauss:m=2,n=4,dims=4x4"])
def test_gauss_dims_refuses_m_and_n(spec):
    with pytest.raises(ValueError, match="dims= fixes the arity and every dimension"):
        parse_form_spec(spec)


def test_gauss_scalar_parameter():
    fac = parse_form_spec("gauss:m=2,n=3,seed=1,scalar=complex")
    assert fac.make().is_complex


def test_t0_spec_defaults_second_dimension_to_the_sweep():
    fac = parse_form_spec("t0:n1=4")
    assert fac.make(n=64).dims == (4, 64)
    assert parse_form_spec("t0:n1=4,n2=9").make().dims == (4, 9)


def test_file_spec_round_trip(tmp_path):
    T = make_gaussian_random((2, 5), seed=3)
    path = tmp_path / "form.json"
    save_tensor(T, path)
    fac = parse_form_spec(f"file:{path}")
    U = fac.make()
    assert np.array_equal(U.coeffs, T.coeffs)
    with pytest.raises(ValueError):
        fac.make(n=3)


def test_make_with_domain_override():
    fac = parse_form_spec("dot:m=3,n=4")
    T = fac.make(domain_p=(4, 4, 4))
    assert T.domain_p == ExponentVector.uniform(4, 3)
    assert T.analytic_norm is None  # metadata tied to the default domain drops


def test_spec_parse_errors():
    with pytest.raises(ValueError):
        parse_form_spec("hadamard:m=2")
    with pytest.raises(ValueError):
        parse_form_spec("dot:n=4")          # missing m
    with pytest.raises(ValueError):
        parse_form_spec("partial:m=3,n=4")  # missing r
    with pytest.raises(ValueError):
        parse_form_spec("t0:n2=4")          # missing n1
    with pytest.raises(ValueError):
        parse_form_spec("dot:m=3,r=1")      # r does not apply to dot
    with pytest.raises(ValueError):
        parse_form_spec("dot:m")            # malformed pair
    with pytest.raises(ValueError):
        parse_form_spec("file:")


@pytest.mark.parametrize("spec, key", [("dot:m=3,m=4", "m"), ("gauss:seed=1,m=2,seed=1", "seed"),
                                       ("t0:n1=4,n2=8,n2=8", "n2")])
def test_a_repeated_key_is_refused(spec, key):
    with pytest.raises(ValueError, match=f"^parameter '{key}' is given twice$"):
        parse_form_spec(spec)


@pytest.mark.parametrize("spec", ["gauss", "gauss:", "gauss:n=4", "gauss:scalar=complex,seed=1"])
def test_a_gauss_spec_without_dims_or_m_is_refused_when_parsed(spec):
    with pytest.raises(ValueError, match=r"^gauss forms need dims=AxBx\.\.\. or m= plus"):
        parse_form_spec(spec)


@pytest.mark.parametrize("kind", sorted(witnesses._KINDS))
def test_every_kind_is_built_by_the_builder_of_its_row(kind, tmp_path, monkeypatch):
    """``make`` hands a kind's row builder the spec's keys, with n filled
    into the row's dimension key and a free seed filled for a random kind."""
    _, keys, required, dim = witnesses._KINDS[kind]
    calls = []
    monkeypatch.setitem(witnesses._KINDS, kind,
                        (lambda **kw: calls.append(kw) or make_dot(2, 2), keys, required, dim))
    spec = {"dot": "dot:m=3", "partial": "partial:m=3,r=1", "t0": "t0:n1=2", "sign": "sign:m=2",
            "gauss": "gauss:m=2,scalar=complex", "file": f"file:{tmp_path}"}[kind]
    parse_form_spec(spec).make(n=5 if dim else None, seed=9)
    expected = {**parse_form_spec(spec).params, **({dim: 5} if dim else {}),
                **({"seed": 9} if "seed" in keys else {})}
    assert calls == [expected]


def test_factory_is_frozen():
    fac = parse_form_spec("dot:m=2,n=2")
    with pytest.raises(AttributeError):
        fac.kind = "sign"
