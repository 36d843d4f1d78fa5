from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghkit.capacity import INF, ONE, ZERO, Cap
from ghkit.io import parse_capacity

fractions = st.fractions(max_denominator=50)
caps = st.builds(Cap, fractions, st.integers(min_value=0, max_value=5))


def test_constants():
    assert ZERO == Cap(0)
    assert ONE == Cap(1)
    assert INF == Cap(0, 1)
    assert not ZERO
    assert ONE and INF


def test_infinite_dominates_any_finite():
    assert Cap(Fraction(10**9)) < INF
    assert INF + Cap(-5) > Cap(10**12)


@given(caps, caps)
def test_order_matches_lexicographic_key(a, b):
    assert (a < b) == ((a.inf, a.fin) < (b.inf, b.fin))
    assert (a == b) == ((a.inf, a.fin) == (b.inf, b.fin))


@given(caps, caps)
def test_addition_componentwise(a, b):
    s = a + b
    assert s.fin == a.fin + b.fin and s.inf == a.inf + b.inf
    assert s - b == a


@given(caps, st.integers(min_value=-4, max_value=4))
def test_scalar_multiplication(a, k):
    p = a * k
    assert p.fin == a.fin * k and p.inf == a.inf * k


@given(st.builds(Cap, fractions, st.integers(min_value=-3, max_value=5)))
def test_capacity_text_round_trip(a):
    assert parse_capacity(str(a)) == a


@pytest.mark.parametrize(
    "cap, text",
    [(INF * 2, "2*inf"), (-INF, "-1*inf"), (INF, "inf"), (Cap(Fraction(1, 3), 2), "2*inf+1/3")],
)
def test_capacity_text_form(cap, text):
    assert str(cap) == text and parse_capacity(text) == cap


def test_parse_capacity_forms():
    assert parse_capacity("inf") == INF
    assert parse_capacity("3/4") == Cap(Fraction(3, 4))
    assert parse_capacity("7") == Cap(7)
    assert parse_capacity("2*inf+1/3") == Cap(Fraction(1, 3), 2)


def test_hash_consistent_with_eq():
    assert hash(Cap(Fraction(2, 4))) == hash(Cap(Fraction(1, 2)))


@given(fractions)
def test_finite_cap_hashes_like_its_number(f):
    assert Cap(f) == f and hash(Cap(f)) == hash(f)
    assert {f: 1}.get(Cap(f)) == 1


def test_int_keys_find_caps():
    assert Cap(3) == 3 and hash(Cap(3)) == hash(3)
    assert {3: "x"}.get(Cap(3)) == "x"
    assert {Cap(3): "x"}.get(3) == "x"
    assert len({Cap(3), 3, Fraction(3)}) == 1


def test_comparison_with_non_numbers_is_not_implemented():
    assert Cap.__eq__(Cap(1), "a") is NotImplemented
    assert Cap.__lt__(Cap(1), None) is NotImplemented
    assert Cap(1) != "a" and not (Cap(1) == "a")
    assert INF != object()
    with pytest.raises(TypeError):
        Cap(1) < "a"
    with pytest.raises(TypeError):
        Cap(1) + "a"


@given(caps, st.integers(min_value=0, max_value=8))
def test_int_encoding_round_trip(a, extra_bits):
    denom = a.fin.denominator * 3
    bits = abs(a.fin.numerator * 3).bit_length() + 1 + extra_bits
    x = a.to_int(denom, bits)
    assert x == a.inf * 2**bits + a.fin * denom
    assert Cap.from_int(x, denom, bits) == a
    assert Cap.from_int(-x, denom, bits) == -a


def test_immutable():
    c = Cap(1)
    with pytest.raises(AttributeError):
        c.fin = Fraction(2)
