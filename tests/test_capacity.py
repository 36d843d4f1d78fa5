import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghkit.capacity import INF, ZERO, Cap
from ghkit.io import parse_capacity
from ghkit.maxflow import _split

fractions = st.fractions(max_denominator=50)
caps = st.builds(Cap, fractions, st.integers(min_value=0, max_value=5))

# Finite parts up to the perturbed scale 2**(2m) * L (denominators up to
# 2**200), and infinite tiers of either sign.
wide_fractions = st.one_of(
    fractions,
    st.builds(Fraction, st.integers(-(2**210), 2**210), st.integers(1, 2**200)),
)
wide_caps = st.builds(Cap, wide_fractions, st.integers(min_value=-3, max_value=3))
numbers = st.one_of(
    st.integers(-(10**30), 10**30),
    wide_fractions,
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def cap_pairs(draw):
    """Two Caps: independent, on the same infinite tier, or equal."""
    a = draw(wide_caps)
    kind = draw(st.sampled_from(["any", "same tier", "equal"]))
    if kind == "any":
        return a, draw(wide_caps)
    if kind == "same tier":
        return a, Cap(draw(wide_fractions), a.inf)
    return a, Cap(Fraction(a.fin.numerator * 3, a.fin.denominator * 3), a.inf)


def key(x):
    """The reference order: (inf, fin) tuples, a number on tier 0."""
    return (x.inf, x.fin) if isinstance(x, Cap) else (0, Fraction(x))


COMPARISONS = [operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge]


def test_constants():
    assert ZERO == Cap(0)
    assert INF == Cap(0, 1)
    assert not ZERO
    assert INF


def test_infinite_dominates_any_finite():
    assert Cap(Fraction(10**9)) < INF
    assert INF + Cap(-5) > Cap(10**12)


@given(cap_pairs())
def test_order_matches_lexicographic_key(pair):
    a, b = pair
    for op in COMPARISONS:
        assert op(a, b) is op(key(a), key(b)), op
    if a == b:
        assert hash(a) == hash(b)
    assert hash(a) == (hash(a.fin) if a.inf == 0 else hash((a.inf, a.fin)))


@given(cap_pairs())
def test_addition_componentwise(pair):
    a, b = pair
    for op in (operator.add, operator.sub):
        c = op(a, b)
        assert type(c) is Cap and (c.inf, c.fin) == (op(a.inf, b.inf), op(a.fin, b.fin))
    assert (-a).inf == -a.inf and (-a).fin == -a.fin
    assert a + b - b == a and a - a == ZERO and -(-a) == a
    assert bool(a) is (key(a) != (0, 0))


@given(wide_caps, numbers)
def test_number_operands_on_either_side_match_the_tuple_reference(a, x):
    for op in COMPARISONS:
        assert op(a, x) is op(key(a), key(x)), op
        assert op(x, a) is op(key(x), key(a)), op
    for c, want in (
        (a + x, (a.inf, a.fin + Fraction(x))),
        (x + a, (a.inf, Fraction(x) + a.fin)),
        (a - x, (a.inf, a.fin - Fraction(x))),
        (x - a, (-a.inf, Fraction(x) - a.fin)),
    ):
        assert type(c) is Cap and (c.inf, c.fin) == want
    if a.inf == 0 and a == x:
        assert hash(a) == hash(x)


@given(wide_caps, st.integers(min_value=-(2**70), max_value=2**70))
def test_scalar_multiplication(a, k):
    for p in (a * k, k * a):
        assert type(p) is Cap and (p.inf, p.fin) == (a.inf * k, a.fin * k)


@given(st.builds(Cap, wide_fractions), numbers)
def test_number_factors_convert_exactly(a, k):
    # a float factor is converted by Fraction before it meets a.fin
    for p in (a * k, k * a):
        assert type(p) is Cap and p == Cap(a.fin * Fraction(k))


@given(st.builds(Cap, fractions, st.integers(min_value=-3, max_value=5)))
def test_capacity_text_round_trip(a):
    assert parse_capacity(str(a)) == a


@pytest.mark.parametrize(
    "cap, text",
    [(INF * 2, "2*inf"), (-INF, "-1*inf"), (INF, "inf"), (Cap(Fraction(1, 3), 2), "2*inf+1/3")],
)
def test_capacity_text_form(cap, text):
    assert str(cap) == text and parse_capacity(text) == cap


@pytest.mark.parametrize("cap, text", [(Cap(Fraction(1, 3)), "Cap(1/3)"), (Cap(Fraction(1, 3), 2), "Cap(1/3, inf=2)")])
def test_cap_repr(cap, text):
    assert repr(cap) == text


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
    for other in ("a", None, object(), [1], 1j):
        for name in ("eq", "ne", "lt", "le", "gt", "ge", "add", "radd", "sub", "rsub"):
            assert getattr(Cap, f"__{name}__")(Cap(1), other) is NotImplemented, (name, other)
        assert Cap(1) != other and not (Cap(1) == other)
        assert INF != other
        with pytest.raises(TypeError):
            Cap(1) < other
        with pytest.raises(TypeError):
            other <= INF
        with pytest.raises(TypeError):
            Cap(1) + other
        with pytest.raises(TypeError):
            other - Cap(1)
        with pytest.raises(TypeError):
            Cap(1) * other


def test_two_caps_do_not_multiply():
    with pytest.raises(TypeError):
        INF * Cap(2)


@pytest.mark.parametrize(
    "build",
    [lambda: INF * Fraction(1, 2), lambda: Cap(1, 3) * Fraction(1, 2), lambda: Cap(0, 1.5)],
    ids=["inf-halved", "odd-tier-halved", "float-tier"],
)
def test_non_integral_infinite_tier_is_rejected(build):
    # int() would truncate the tier: INF / 2 would come out finite
    with pytest.raises(ValueError, match="infinite tier"):
        build()


def test_integral_tiers_and_finite_halves_are_kept():
    assert Cap(0, 2.0) == Cap(0, 2) and type(Cap(0, 2.0).inf) is int
    assert Cap(1, 4) * Fraction(1, 2) == Cap(Fraction(1, 2), 2)
    assert Cap(3) * Fraction(1, 2) == Cap(Fraction(3, 2))


def test_every_cap_is_built_through_init(monkeypatch):
    """Each arithmetic result is exactly one Cap.__init__ call and a
    Cap-Cap comparison none, so a counter patched into __init__ (as the
    benchmark's tracer does) counts every allocation; a number operand
    adds exactly one, its conversion."""
    built = []
    original = Cap.__init__

    def counting_init(obj, *args, **kwargs):
        built.append(1)
        original(obj, *args, **kwargs)

    monkeypatch.setattr(Cap, "__init__", counting_init)
    a, b = Cap(Fraction(1, 3), 1), Cap(Fraction(2, 5))
    for f, allocs in [
        (lambda: a + b, 1), (lambda: a - b, 1), (lambda: -a, 1), (lambda: a * 3, 1),
        (lambda: 3 * a, 1), (lambda: a + 1, 2), (lambda: 1 - a, 2), (lambda: Cap(7), 1),
        (lambda: a < 1, 1), (lambda: a == Fraction(1, 3), 1),
        *[(lambda op=op: op(a, b), 0) for op in COMPARISONS],
        (lambda: bool(a), 0), (lambda: hash(a), 0),
    ]:
        built.clear()
        f()
        assert len(built) == allocs


@given(caps, st.integers(min_value=0, max_value=8))
def test_int_encoding_round_trip(a, extra_bits):
    """The max-flow kernel's int inf * 2**bits + fin * D, packed from the
    pair (inf, fin * D), splits back into that pair while
    |fin * D| < 2**(bits-1)."""
    denom = a.fin.denominator * 3
    fin = a.fin.numerator * 3
    bits = abs(fin).bit_length() + 1 + extra_bits
    x = (a.inf << bits) + fin
    assert x == a.inf * 2**bits + a.fin * denom
    assert _split(x, bits) == (a.inf, fin)
    assert _split(-x, bits) == (-a.inf, -fin)


def test_immutable():
    c = Cap(1)
    with pytest.raises(AttributeError):
        c.fin = Fraction(2)
