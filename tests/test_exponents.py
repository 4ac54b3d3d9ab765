"""Exact exponent arithmetic: extended rationals, conjugates, the critical
families, the inclusion-shift pipeline, and bilinear admissibility.

Expected values here were derived by hand from the defining identities and
are frozen as exact Fractions; nothing in this file touches floats except
the float-rejection tests themselves.
"""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critnorm import exponents
from critnorm import (
    CONSTANT_CHOICES,
    ExponentInvariantError,
    ExponentVector,
    ExtRational,
    INF,
    InapplicableError,
    VARIANTS,
    bilinear_admissibility,
    conjugate,
    criterion,
    critical_exponents,
    inclusion_exponents,
    inequality_constant,
    tail_sum,
)


def _F(text):
    return Fraction(text)


# ---------------------------------------------------------------- ExtRational

def test_ext_rational_parsing_and_str():
    assert ExtRational("4/3").fraction == _F("4/3")
    assert ExtRational(3).fraction == 3
    assert ExtRational(Fraction(7, 2)).fraction == _F("7/2")
    assert ExtRational(" inf ").is_inf and ExtRational(INF) == INF
    assert str(INF) == "inf"
    assert str(ExtRational("12/5")) == "12/5"
    assert repr(ExtRational("4/3")) == "ExtRational('4/3')"


def test_ext_rational_rejects_floats():
    with pytest.raises(TypeError):
        ExtRational(1.5)
    with pytest.raises(TypeError):
        ExtRational(True)
    with pytest.raises(TypeError):
        ExponentVector((2, 0.5))


def test_a_zero_denominator_is_a_value_error():
    for token in ("1/0", " 3/0 ", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            ExtRational(token)
    with pytest.raises(ValueError):
        ExponentVector("inf,1/0")


def test_reciprocal_pair():
    assert INF.reciprocal() == 0 and type(INF.reciprocal()) is Fraction
    assert ExtRational(4).reciprocal() == Fraction(1, 4)
    assert ExtRational.from_reciprocal(Fraction(0)).is_inf
    assert ExtRational.from_reciprocal(_F("5/12")) == ExtRational("12/5")
    with pytest.raises(ZeroDivisionError):
        ExtRational(0).reciprocal()
    with pytest.raises(ValueError):
        ExtRational.from_reciprocal(_F("-1/2"))


def test_ordering_puts_inf_on_top():
    vals = [INF, ExtRational(1), ExtRational("3/2"), ExtRational(100)]
    assert sorted(vals) == [ExtRational(1), ExtRational("3/2"), ExtRational(100), INF]
    assert INF > 10**9
    assert not (INF < INF)
    assert INF == ExtRational("inf")
    assert hash(INF) == hash(ExtRational("inf"))


def test_all_six_comparisons_follow_one_order():
    vals = [ExtRational(0), ExtRational("1/2"), ExtRational(1), ExtRational("3/2"), INF]
    for i, x in enumerate(vals):
        for j, y in enumerate(vals):
            assert (x < y, x <= y, x > y, x >= y, x == y, x != y) == \
                (i < j, i <= j, i > j, i >= j, i == j, i != j)
    assert ExtRational(2) >= 2 and ExtRational(2) <= Fraction(2) and INF > Fraction(4, 3)
    assert 3 > ExtRational(2) and 1 <= ExtRational(1)
    # a token string is input to parse, not a value to compare with
    assert ExtRational(2) != "2" and not ExtRational(2) == "2"
    with pytest.raises(TypeError):
        ExtRational(2) <= "2"
    with pytest.raises(TypeError):
        ExtRational(1) <= 1.0
    with pytest.raises(TypeError):
        ExtRational(1) > 1.0


def test_addition_absorbs_infinity():
    """Exponents are summed as Fractions on their exact reciprocals, where
    1/inf = 0 absorbs an infinite order; ExtRational has no addition."""
    assert tail_sum((INF, 5), 1) == Fraction(1, 5)
    assert ExtRational.from_reciprocal(INF.reciprocal() + Fraction(1, 2)) == 2
    with pytest.raises(TypeError):
        ExtRational(1) + ExtRational(2)
    with pytest.raises(TypeError):
        INF + 5
    assert float(INF) == float("inf")
    assert float(ExtRational("3/2")) == 1.5


@given(st.fractions(min_value="1/64", max_value=64, max_denominator=64))
def test_reciprocal_is_an_involution(f):
    x = ExtRational(f)
    assert 1 / x.reciprocal() == x
    assert ExtRational.from_reciprocal(x.reciprocal()) == x


# ------------------------------------------------------------ conjugate index

def test_conjugate_worked_values():
    assert conjugate(1).is_inf
    assert conjugate(INF) == ExtRational(1)
    assert conjugate(2) == ExtRational(2)
    assert conjugate(4) == ExtRational("4/3")
    assert conjugate(ExtRational("3/2")) == ExtRational(3)
    with pytest.raises(ValueError):
        conjugate(ExtRational("1/2"))


@given(st.one_of(st.just(INF),
                 st.fractions(min_value=1, max_value=64, max_denominator=32)))
def test_conjugate_involution_and_holder_identity(p):
    p = ExtRational(p)
    q = conjugate(p)
    assert conjugate(q) == p
    assert p.reciprocal() + q.reciprocal() == 1


# ------------------------------------------------------------ exponent vectors

def test_exponent_vector_parse_and_str():
    v = ExponentVector("inf, 3, 12/5")
    assert v == ExponentVector((INF, 3, "12/5"))
    assert str(v) == "inf,3,12/5" and repr(v) == "ExponentVector('inf,3,12/5')"
    assert ExponentVector.uniform(2, 3) == ExponentVector((2, 2, 2))
    with pytest.raises(ValueError):
        ExponentVector(())
    with pytest.raises(ValueError):
        ExponentVector((1, 0))


_ORDERS = st.one_of(st.just(INF), st.integers(1, 10**6),
                    st.fractions(min_value="1/1000", max_value=10**6, max_denominator=10**4))


@given(st.lists(_ORDERS, min_size=1, max_size=6),
       st.one_of(st.just(INF), st.integers(), st.fractions()))
def test_str_is_the_syntax_the_constructors_parse(entries, value):
    """An order vector's text is the option syntax (inf,3,12/5), so a
    report's config block parses back into the orders it was written from."""
    v = ExponentVector(entries)
    assert ExponentVector(str(v)) == v
    e = ExtRational(value)
    assert ExtRational(str(e)) == e


def test_tail_sum_reciprocal_tails():
    p = ExponentVector("4/3, 4/3")
    assert tail_sum(p, 1) == _F("3/2")
    assert tail_sum(p, 2) == _F("3/4")
    assert tail_sum(ExponentVector("inf, 2"), 1) == _F("1/2")
    with pytest.raises(IndexError):
        tail_sum(p, 3)


# -------------------------------------------------------- critical families

def test_critical_families_small_m_frozen():
    assert critical_exponents(2) == ExponentVector("inf, 2")
    assert critical_exponents(3) == ExponentVector("inf, 3, 12/5")
    assert critical_exponents(4) == ExponentVector("inf, 4, 3, 12/5")
    assert critical_exponents(3, "printed") == ExponentVector("inf, 12/5, 2")
    assert critical_exponents(3, "corollary-printed") == ExponentVector("inf, 3, 2")
    assert critical_exponents(3, "corollary-derived") == ExponentVector("inf, 6, 3")
    assert critical_exponents(3, "lower-bound") == ExponentVector("inf, 3, 3/2")
    assert critical_exponents(4, "printed") == ExponentVector("inf, 3, 12/5, 2")


def test_critical_family_structure_all_m_to_100():
    """Exact structural facts: s_1 = inf, s_2 = m, closed form for every slot,
    nonincreasing, and entrywise domination of the lower-bound family."""
    for m in range(2, 101):
        s = critical_exponents(m)
        low = critical_exponents(m, "lower-bound")
        assert s[0].is_inf and low[0].is_inf
        assert s[1] == ExtRational(m)
        for k in range(2, m + 1):
            assert s[k - 1] == ExtRational(Fraction(2 * m * (m - 1), k * (m - 2) + 2))
        assert all(s[i] >= s[i + 1] for i in range(m - 1))
        assert all(s[k] >= low[k] for k in range(m))
        assert s[1] == low[1]  # equality holds in the first summed slot only


def test_a_broken_derived_family_raises_instead_of_asserting(monkeypatch):
    """The slot-2 identity s_2 = m is checked by an exception, so it holds
    under python -O as well; it is a ValueError, which the CLI maps to exit 2."""
    monkeypatch.setattr(exponents, "inclusion_exponents",
                        lambda r, p, q: ExponentVector(["5"] * len(p)))
    with pytest.raises(ExponentInvariantError, match="slot-2 order 5 must equal the arity 3"):
        critical_exponents(3)
    assert issubclass(ExponentInvariantError, ValueError)


def test_an_entry_below_the_budget_raises_an_invariant_error(monkeypatch):
    """With the applicability budget forced positive, the negative reciprocal
    of r = 2, p = (1, 1), q = (inf, inf) reaches the per-slot check."""
    monkeypatch.setattr(exponents, "criterion", lambda r, p, q: Fraction(1))
    with pytest.raises(ExponentInvariantError, match="1/s_1 = -3/2 < 0"):
        inclusion_exponents(2, "1,1", "inf,inf")


def test_variant_registry():
    assert set(VARIANTS) == {"derived", "printed", "corollary-printed",
                             "corollary-derived", "lower-bound"}
    with pytest.raises(ValueError):
        critical_exponents(3, "fastest")
    with pytest.raises(ValueError):
        critical_exponents(1)
    with pytest.raises(ValueError):
        critical_exponents(True)


def test_printed_family_is_the_derived_formula_shifted_one_slot():
    for m in range(3, 12):
        printed = critical_exponents(m, "printed")
        for k in range(2, m + 1):
            expect = Fraction(2 * m * (m - 1), (k + 1) * (m - 2) + 2)
            assert printed[k - 1] == ExtRational(expect)


def test_derived_family_comes_from_the_inclusion_pipeline():
    """(s_2..s_m) must equal the shift applied to the widened-base data:
    r = 2, p = (2(m-1))* repeated, q = m* repeated, all of length m - 1."""
    for m in range(3, 12):
        s = critical_exponents(m)
        p = ExponentVector([conjugate(2 * (m - 1))] * (m - 1))
        q = ExponentVector([conjugate(m)] * (m - 1))
        assert inclusion_exponents(2, p, q) == ExponentVector(s[1:])


def test_corollary_derived_family_closed_form():
    for m in range(2, 12):
        s = critical_exponents(m, "corollary-derived")
        assert s[0].is_inf
        for k in range(2, m + 1):
            assert s[k - 1] == ExtRational(Fraction(2 * m, k - 1))
        p = ExponentVector([conjugate(2 * m)] * m)
        q = ExponentVector([conjugate(m)] * m)
        assert criterion(2, p, q) == 0
        assert inclusion_exponents(2, p, q) == s


# ------------------------------------------------------ inclusion-shift rules

def test_inclusion_worked_instance():
    s = inclusion_exponents(2, "4/3,4/3", "3/2,3/2")
    assert s == ExponentVector("3, 12/5")
    assert criterion(2, ExponentVector("4/3,4/3"),
                     ExponentVector("3/2,3/2")) == _F("1/3")


def test_inclusion_critical_bilinear_instance():
    # criterion exactly zero forces the strict first-slot branch; the first
    # output order is infinite
    p = ExponentVector("4/3,4/3")
    q = ExponentVector("2,2")
    assert criterion(2, p, q) == 0
    assert inclusion_exponents(2, p, q) == ExponentVector("inf, 4")


def test_inclusion_rejects_shrinking_summed_slots():
    with pytest.raises(InapplicableError, match="slot|q\\[2\\]"):
        inclusion_exponents(2, "4/3,4/3", "4/3,6/5")
    with pytest.raises(InapplicableError):
        inclusion_exponents(2, "3/2,3/2", "4/3,3/2")


def test_inclusion_rejects_zero_criterion_without_first_slot_gain():
    # budget exactly 0 with q_1 = p_1: the whole 1/2 drop sits in slot 2
    assert criterion(2, "2,4/3", "2,4") == 0
    with pytest.raises(InapplicableError, match="> 0"):
        inclusion_exponents(2, "2,4/3", "2,4")
    # the same drop in the first slot is fine and gives an infinite lead order
    assert inclusion_exponents(2, "4/3,2", "4,2") == ExponentVector("inf, 2")
    # strictly negative budget fails in either branch
    assert criterion(4, "4/3,4/3", "2,2") == _F("-1/4")
    with pytest.raises(InapplicableError, match="negative"):
        inclusion_exponents(4, "4/3,4/3", "2,2")


@st.composite
def applicable_triples(draw):
    """Constructively applicable (r, p, q): draw reciprocal drops per slot,
    then shrink them so the criterion stays nonnegative."""
    m = draw(st.integers(min_value=2, max_value=6))
    r = draw(st.fractions(min_value=1, max_value=8, max_denominator=8))
    p = [draw(st.fractions(min_value=1, max_value=16, max_denominator=8))
         for _ in range(m)]
    raw = []
    for pk in p:
        w = draw(st.fractions(min_value=0, max_value=1, max_denominator=8))
        raw.append(w * Fraction(1, pk))
    total = sum(raw)
    budget = draw(st.fractions(min_value=0, max_value=1, max_denominator=8)) / r
    scale = Fraction(1) if total == 0 or total <= budget else budget / total
    deltas = [d * scale for d in raw]
    crit = 1 / r - sum(deltas)
    if crit == 0 and deltas[0] == 0:
        deltas = [d / 2 for d in deltas]  # reopen the budget
    q = [ExtRational.from_reciprocal(Fraction(1, pk) - d)
         for pk, d in zip(p, deltas)]
    return (ExtRational(r),
            ExponentVector([ExtRational(pk) for pk in p]),
            ExponentVector(q))


@settings(max_examples=200)
@given(applicable_triples())
def test_inclusion_relation_holds_exactly(triple):
    r, p, q = triple
    s = inclusion_exponents(r, p, q)
    assert len(s) == len(p)
    for k in range(1, len(p) + 1):
        lhs = s[k - 1].reciprocal()
        rhs = r.reciprocal() - tail_sum(p, k) + tail_sum(q, k)
        assert lhs == rhs
    # orders never increase along the vector and never dip below r
    assert all(s[i] >= s[i + 1] for i in range(len(p) - 1))
    assert all(sk >= r for sk in s)


def _long_triple_with_infinite_orders(rng):
    """A seeded applicable (r, p, q) of length up to 40 with infinite
    entries: an infinite p_k forces q_k = inf, and a finite one may drop its
    whole reciprocal, making q_k infinite."""
    m = rng.randint(1, 40)
    r = 1 + Fraction(rng.randint(0, 56), 8)
    inv_p = [Fraction(0) if rng.random() < 0.2 else 1 / (1 + Fraction(rng.randint(0, 120), 8))
             for _ in range(m)]
    raw = [rng.choice([Fraction(0), Fraction(1), Fraction(rng.randint(0, 8), 8)]) * ip
           for ip in inv_p]
    total = sum(raw)
    budget = Fraction(rng.randint(0, 8), 8) / r
    scale = Fraction(1) if total <= budget else budget / total
    deltas = [d * scale for d in raw]
    if 1 / r == sum(deltas) and deltas[0] == 0:
        deltas = [d / 2 for d in deltas]  # reopen the budget
    return (ExtRational(r),
            ExponentVector([ExtRational.from_reciprocal(ip) for ip in inv_p]),
            ExponentVector([ExtRational.from_reciprocal(ip - d) for ip, d in zip(inv_p, deltas)]))


def test_inclusion_shift_equals_the_tail_sum_formula():
    """The shift sums its reciprocal tails in one pass; on 300 seeded
    triples of length 1..40 every entry equals, exactly, the one built from
    ``tail_sum`` slot by slot."""
    rng = random.Random(19)
    with_inf = [0, 0, 0]
    for _ in range(300):
        r, p, q = _long_triple_with_infinite_orders(rng)
        inv_r = r.reciprocal()
        ref = ExponentVector([ExtRational.from_reciprocal(inv_r - tail_sum(p, k)
                                                          + tail_sum(q, k))
                              for k in range(1, len(p) + 1)])
        assert inclusion_exponents(r, p, q) == ref
        for i, v in enumerate((p, q, ref)):
            with_inf[i] += any(e.is_inf for e in v)
    assert min(with_inf) >= 10


# --------------------------------------------------------------- the constant

def test_constant_values():
    assert str(inequality_constant(3, "abstract")) == "2^(1/2)"
    assert inequality_constant(2, "abstract").value == 1.0
    assert inequality_constant(4, "abstract").value == 2.0
    assert inequality_constant(3, "abstract").value == 2.0 ** 0.5
    assert inequality_constant(3) == inequality_constant(3, "abstract")
    assert inequality_constant(3, "theorem").exponent == Fraction(1)
    assert inequality_constant(4, "theorem").exponent == _F("3/2")
    assert set(CONSTANT_CHOICES) == {"abstract", "theorem"}
    with pytest.raises(ValueError):
        inequality_constant(3, "nonsense")


def test_a_constant_past_the_float_range_is_a_value_error():
    assert inequality_constant(2049).value == 2.0 ** 1023.5
    c = inequality_constant(2050)
    assert str(c) == "2^(1024)"
    with pytest.raises(ValueError, match=r"^2\^\(1024\) is past the float range$"):
        c.value


# ------------------------------------------------------ bilinear admissibility

def test_admissibility_worked_examples():
    assert bilinear_admissibility(4, 4, 2, 2).ok is True
    assert bilinear_admissibility(4, 4, "4/3", 2).ok is False
    assert bilinear_admissibility("inf", "inf", "4/3", "4/3").ok is True


def test_admissibility_reports_every_failed_condition():
    res = bilinear_admissibility(4, 4, "4/3", 2)
    assert not res.ok
    assert len(res.failures) == 1
    assert "3/2" in res.failures[0]
    res2 = bilinear_admissibility(4, 4, 1, 1)
    assert len(res2.failures) == 3


def test_admissibility_thresholds_are_exact():
    # the outcome is the verdict and the failed conditions, each quoting its
    # exact threshold
    assert [f.name for f in dataclasses.fields(exponents.BilinearAdmissibility)] == \
        ["ok", "failures"]
    assert bilinear_admissibility(4, 4, 2, 2).ok   # 1/a + 1/b equals the budget 1
    res = bilinear_admissibility(4, 4, 1, 1)
    assert res.failures == ("a = 1 < q/(q-1) = 4/3",
                            "b = 1 < pq/(pq-p-q) = 2",
                            "1/a + 1/b = 2 > 3/2 - (1/p + 1/q) = 1")


def test_admissibility_domain_errors():
    with pytest.raises(ValueError):
        bilinear_admissibility(2, 2, 2, 2)      # on the critical line
    with pytest.raises(ValueError):
        bilinear_admissibility("3/2", 4, 2, 2)  # p below 2
    with pytest.raises(ValueError):
        bilinear_admissibility(4, 4, 0, 2)


@st.composite
def subcritical_pairs(draw):
    p = draw(st.one_of(st.just(INF),
                       st.fractions(min_value=2, max_value=64, max_denominator=16)))
    q = draw(st.one_of(st.just(INF),
                       st.fractions(min_value=2, max_value=64, max_denominator=16)))
    p, q = ExtRational(p), ExtRational(q)
    if p.reciprocal() + q.reciprocal() >= 1:
        q = INF
    return p, q


@settings(max_examples=200)
@given(subcritical_pairs(),
       st.fractions(min_value=0, max_value=4, max_denominator=8),
       st.fractions(min_value=0, max_value=4, max_denominator=8))
def test_admissibility_is_monotone_in_a_and_b(pq, da, db):
    """Raising a or b can never break admissibility: every condition is a
    lower bound on a, b, or both reciprocals."""
    p, q = pq
    base = bilinear_admissibility(p, q, 2, 2)
    if base.ok:
        assert bilinear_admissibility(p, q, ExtRational(Fraction(2) + da),
                                      ExtRational(Fraction(2) + db)).ok
