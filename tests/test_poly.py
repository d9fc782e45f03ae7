from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lattice_lab import (
    BlockOrder,
    ExponentOverflow,
    MonomialIdeal,
    Poly,
    PolyRing,
    RingMismatch,
    ZeroPolynomial,
    compare,
    degrevlex,
    lex,
    sort_key,
)

from oracles import tuple_order_key


@pytest.fixture(scope="module")
def R3():
    return PolyRing(("x", "y", "z"))


# -- compare -------------------------------------------------------------------

def test_compare_reflexive(R3):
    assert compare(degrevlex(), R3, (1, 2, 0), (1, 2, 0)) == 0


def test_lex_ignores_degree(R3):
    # x vs y^2 under lex x>y>z
    assert compare(lex(("x", "y", "z")), R3, (1, 0, 0), (0, 2, 0)) == 1


def test_degrevlex_tie_break(R3):
    # xz vs y^2: equal degree, reverse-lex tie-break makes xz smaller
    assert compare(degrevlex(("x", "y", "z")), R3, (1, 0, 1), (0, 2, 0)) == -1


def test_compare_rejects_wrong_length(R3):
    with pytest.raises(RingMismatch):
        compare(lex(), R3, (1, 0), (0, 1, 0))


def test_wrong_length_errors_name_the_monomial(R3):
    """compare, PolyRing.monomial and MonomialIdeal share one message."""
    said = "monomial (1, 0) has 2 exponents, not 3"
    for check in (lambda: compare(lex(), R3, (0, 1, 0), (1, 0)),
                  lambda: compare(lex(), R3, [1, 0], (0, 1, 0)),
                  lambda: R3.monomial([1, 0]),
                  lambda: MonomialIdeal(R3, [[1, 0]])):
        with pytest.raises(RingMismatch) as err:
            check()
        assert str(err.value) == said


def test_wrong_length_monomials_and_unknown_names_are_rejected(R3):
    """A monomial must have one exponent per variable: a longer tuple is not
    truncated and a shorter one is not padded."""
    for exps in ((1, 2, 3, 4), (0, 0, 0, 1), (1,), (1, 2), ()):
        with pytest.raises(RingMismatch):
            Poly(R3, {exps: 1})
        with pytest.raises(RingMismatch):
            R3.monomial(exps)
        with pytest.raises(RingMismatch):
            R3.monomial(exps, 0)
    with pytest.raises(RingMismatch):
        R3.monomial({"q": 1})
    # a zero coefficient is dropped before the length is read, as in any sum
    assert Poly(R3, {(1, 2): 0}) == R3.zero()


def test_compare_rejects_exponents_outside_the_weights(R3):
    # past MAX_EXPONENT the weight key would no longer separate monomials
    with pytest.raises(ExponentOverflow):
        compare(lex(), R3, (1 << 15, 0, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        compare(lex(), R3, (-1, 0, 0), (0, 1, 0))


def test_order_priority_must_be_permutation(R3):
    with pytest.raises(RingMismatch):
        lex(("x", "y")).resolve(R3)


exps = st.tuples(*[st.integers(min_value=0, max_value=6)] * 3)
perms = st.permutations(("x", "y", "z"))


@st.composite
def an_order(draw):
    kind = draw(st.sampled_from(["lex", "degrevlex"]))
    prio = tuple(draw(perms))
    return lex(prio) if kind == "lex" else degrevlex(prio)


@given(an_order(), exps, exps, exps)
def test_order_multiplicative(order, a, b, t):
    R = PolyRing(("x", "y", "z"))
    c = compare(order, R, a, b)
    at = tuple(x + y for x, y in zip(a, t))
    bt = tuple(x + y for x, y in zip(b, t))
    assert compare(order, R, at, bt) == c


@given(an_order(), exps)
def test_one_is_minimal(order, a):
    R = PolyRing(("x", "y", "z"))
    if any(a):
        assert compare(order, R, (0, 0, 0), a) == -1


def _sign(a, b):
    return (a > b) - (a < b)


big_exps = st.tuples(*[st.one_of(st.integers(0, 6),
                                 st.integers((1 << 15) - 4, (1 << 15) - 1))] * 3)


@given(an_order(), big_exps, big_exps)
def test_weight_key_agrees_with_tuple_key(order, a, b):
    """The weight key orders monomials as the textbook tuple key does, up to
    the largest exponent a Poly holds."""
    R = PolyRing(("x", "y", "z"))
    oracle = tuple_order_key(order, R)
    key = sort_key(order, R)
    assert _sign(key(a), key(b)) == _sign(oracle(a), oracle(b))
    assert compare(order, R, a, b) == _sign(oracle(a), oracle(b))


exps4 = st.tuples(*[st.integers(min_value=0, max_value=6)] * 4)


@given(st.permutations(("x", "y", "z", "w")), st.integers(1, 2),
       st.sampled_from((lex, degrevlex)), exps4, exps4)
def test_block_weight_key_agrees_with_tuple_key(perm, d, inner, a, b):
    R = PolyRing(("x", "y", "z", "w"))
    order = BlockOrder(tuple(perm[:d]), inner(tuple(perm)))
    oracle = tuple_order_key(order, R)
    assert compare(order, R, a, b) == _sign(oracle(a), oracle(b))


@given(st.permutations(("x", "y", "z", "w")), exps, exps)
def test_block_order_eliminates(drop_then_rest, a, b):
    R = PolyRing(("x", "y", "z", "w"))
    order = BlockOrder((drop_then_rest[0],), degrevlex(R.variables))
    w = order.weights(R)
    i = R.index[drop_then_rest[0]]
    ea = list(a) + [0]
    eb = list(b) + [0]
    ea[i], eb[i] = 1, 0
    ka = sum(e * wi for e, wi in zip(ea, w))
    kb = sum(e * wi for e, wi in zip(eb, w))
    assert ka > kb  # anything involving the dropped variable is larger


# -- arithmetic ------------------------------------------------------------------

def test_add_zero(R3):
    f = R3.from_string("x*y - z^2")
    assert f + R3.zero() == f


def test_published_identity():
    R = PolyRing(("a", "b", "c", "d", "e"))
    f = (R.from_string("b - d") * R.from_string("b*d - a*e")
         - R.var("b") * R.from_string("c*d - a*e"))
    f = f + R.var("d") * R.from_string("b*c - a*e")
    assert f == R.from_string("b^2*d - b*d^2")


def test_product_against_naive_oracle(R3):
    f = R3.from_string("x*y - z^2 + 2")
    g = f * f
    # naive term-by-term oracle
    acc = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in f.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            acc[m] = acc.get(m, 0) + c1 * c2
    assert g == Poly(R3, acc)


small_coeff = st.integers(min_value=-4, max_value=4)


@st.composite
def a_poly(draw):
    R = PolyRing(("x", "y", "z"))
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n):
        m = draw(st.tuples(*[st.integers(0, 3)] * 3))
        terms[m] = terms.get(m, 0) + draw(small_coeff)
    return Poly(R, terms)


@given(a_poly(), a_poly(), a_poly())
@settings(max_examples=60)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(a_poly())
@settings(max_examples=60)
def test_serialize_parse_round_trip(f):
    assert f.ring.from_string(f.to_string()) == f


def test_ring_mismatch_raises(R3):
    other = PolyRing(("x", "y"))
    with pytest.raises(RingMismatch):
        R3.from_string("x") + other.from_string("x")


# -- leading terms ---------------------------------------------------------------

def test_leading_term_constant(R3):
    c, m = R3.constant(5).leading_term()
    assert c == 5 and m == (0, 0, 0)


def test_leading_term_zero_raises(R3):
    with pytest.raises(ZeroPolynomial):
        R3.zero().leading_term()


def test_leading_term_lex_example():
    R = PolyRing(tuple("abcdefg"))
    f = R.from_string("a*e - b*c")
    c, m = f.leading_term(lex(R.variables))
    assert c == 1
    assert m == tuple(1 if v in "ae" else 0 for v in R.variables)


def test_leading_term_degrevlex_example():
    R = PolyRing(("x1", "y1", "z"))
    f = R.from_string("y1^2*z - y1*z^2")
    _, m = f.leading_term(degrevlex(R.variables))
    assert m == (0, 2, 1)


# -- text form -------------------------------------------------------------------

def test_canonical_text(R3):
    f = R3.from_string("x*y - z^2 + 1/2")
    assert f.to_string() == "x*y - z^2 + 1/2"
    assert str(R3.zero()) == "0"
    assert str(-R3.var("x")) == "-x"


def test_parse_rejects_junk(R3):
    with pytest.raises(ValueError):
        R3.from_string("x +* y")
    with pytest.raises(RingMismatch):
        R3.from_string("q + 1")
    with pytest.raises(ValueError, match="nested too deeply"):
        R3.from_string("(" * 1000 + "x" + ")" * 1000)
    assert R3.from_string("(" * 300 + "x" + ")" * 300) == R3.var("x")


def test_parse_rejects_zero_denominator(R3):
    with pytest.raises(ValueError, match="zero denominator"):
        R3.from_string("1/0*x")
    assert R3.from_string("3/4*x - 1/2") == R3.var("x").scale(Fraction(3, 4)) \
        - R3.constant(Fraction(1, 2))


# -- prime field -----------------------------------------------------------------

def test_gf_p_arithmetic():
    R = PolyRing(("x", "y"), char=5)
    f = R.from_string("2*x + 3*x")
    assert f == R.zero()
    g = R.from_string("3*x*y")
    assert g.monic() == R.from_string("x*y")
    assert (R.var("x") + R.var("y")) ** 5 == R.var("x") ** 5 + R.var("y") ** 5


@pytest.mark.parametrize("char", [-1, 1, 4, 6, 32001, 3215031751])
def test_ring_rejects_non_prime_characteristic(char):
    with pytest.raises(ValueError, match="0 or a prime"):
        PolyRing(("x",), char)


@pytest.mark.parametrize("char", [0, 2, 3, 41, 43, 32003, 2**31 - 1, 2**61 - 1])
def test_ring_accepts_zero_and_primes(char):
    assert PolyRing(("x",), char).char == char


def test_ring_rejects_characteristic_past_the_exact_range():
    from lattice_lab.poly import _PRIME_LIMIT

    # 2^127 - 1 is prime, but past the range where the test is proven exact
    assert 2**127 - 1 > _PRIME_LIMIT
    for char in (_PRIME_LIMIT, 2**127 - 1):
        with pytest.raises(ValueError, match="0 or a prime"):
            PolyRing(("x",), char)


def test_primality_matches_trial_division():
    from lattice_lab.poly import _is_prime

    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert all(_is_prime(n) == trial(n) for n in range(20000))
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)


def test_gf_p_rejects_fractions():
    R = PolyRing(("x",), char=5)
    with pytest.raises(ValueError):
        R.from_string("1/2*x")


def test_rational_coefficients_are_fractions_kept_as_given():
    """Over Q a Fraction is its own coefficient, not a rebuilt copy; any
    other rational value becomes a Fraction."""
    R = PolyRing(("x", "y"))
    q = Fraction(-3, 4)
    assert R.coeff(q) is q
    for value, expected in ((7, Fraction(7)), (True, Fraction(1)), (0.5, Fraction(1, 2))):
        c = R.coeff(value)
        assert c == expected and type(c) is Fraction
    assert next(iter(R.monomial((1, 0), q).terms.values())) is q


def test_gf_p_coefficients_are_residues():
    R = PolyRing(("x", "y"), char=5)
    for value, residue in ((7, 2), (-1, 4), (Fraction(3, 1), 3),
                           (Fraction(-8, 2), 1), (True, 1), (6.0, 1)):
        c = R.coeff(value)
        assert c == residue and type(c) is int
    for value in (2.5, Fraction(1, 2)):
        with pytest.raises(ValueError, match="not an integer"):
            R.coeff(value)
    with pytest.raises(ValueError, match="not an integer"):
        R.constant(Fraction(1, 5))
    with pytest.raises(ValueError, match="not an integer"):
        R.monomial((1, 0), Fraction(1, 2))
    assert R.monomial((1, 0), Fraction(6, 2)) - R.var("y") == R.from_string("3*x - y")
