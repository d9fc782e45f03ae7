import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from lattice_lab import (
    Ideal,
    MonomialIdeal,
    PolyRing,
    RingMismatch,
    ZeroDivisor,
    buchberger,
    colon,
    degrevlex,
    eliminate,
    ideal_equal,
    ideal_member,
    initial_ideal,
    intersect,
    is_squarefree,
    krull_dim,
    lex,
    normal_form,
    radical_member,
    saturate,
    verify_groebner,
)
from lattice_lab import groebner
from lattice_lab.errors import ExponentOverflow, PreconditionViolated
from lattice_lab.fixtures import (
    build_fixture, diamond_m3, ladder, lattice_n, lattice_q, lk)
from lattice_lab.groebner import exact_div, spolynomial
from lattice_lab.poly import BlockOrder, Poly, compare, product, sort_key
from lattice_lab.workflows import (
    _initial_ideals_certify, join_meet_ideal, minimal_primes)

from conftest import closure_lattices, count_engine_runs
from oracles import (
    buchberger_all_pairs,
    intersect_by_elimination,
    membership_by_linear_algebra,
    monomials_of_degree,
    random_homogeneous_difference,
    saturate_by_passes,
)


@pytest.fixture(scope="module")
def Q_ideal():
    return join_meet_ideal(lattice_q())


@pytest.fixture(scope="module")
def N_ideal():
    return join_meet_ideal(lattice_n())


# -- buchberger -------------------------------------------------------------

def test_single_binomial_is_its_own_basis():
    R = PolyRing(("x", "y", "z", "w"))
    f = R.from_string("x*y - z*w")
    gb = buchberger([f], degrevlex(R.variables))
    assert list(gb.basis) == [f]


def test_q_lex_basis_matches_published_basis(Q_ideal):
    order = lex(tuple("abcdefg"))
    gb = Q_ideal.ideal.groebner(order)
    got = [g.to_string(order) for g in gb.basis]
    assert got == ["a*e - b*c", "a*g - c*f", "b*g - e*f", "c*d - c*f", "d*e - e*f"]


def _lk_generating_family(ring, n, k):
    """Documented generating family for the two-rail-plus-diamond ideal."""
    x = lambda i: ring.var(f"x{i}")
    y = lambda i: ring.var(f"y{i}")
    z = ring.var("z")
    G = [x(k + 1) * z - y(k) * z, y(k) ** 2 * z - y(k) * z ** 2]
    for i in range(1, k):
        G.append(x(i) * y(k + 1) - y(i) * z)
        G.append(y(i) * y(k) * z - y(i) * z ** 2)
    for j in range(k + 1, n + 1):
        G.append(x(k) * y(j) - x(j) * z)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if j != k + 1 and i != k:
                G.append(x(j) * y(i) - x(i) * y(j))
    for i in range(1, k + 1):
        G.append(x(k + 1) * y(i) - y(i) * z)
    for j in range(k + 2, n + 1):
        G.append(x(j) * y(k) - x(j) * z)
    for i in range(1, k):
        for j in range(k + 2, n + 1):
            G.append(x(i) * x(k + 1) * y(j) - x(i) * y(j) * z)
            G.append(x(i) * y(k) * y(j) - x(i) * y(j) * z)
    return G


def test_lk_42_family_is_a_groebner_basis():
    jm = join_meet_ideal(lk(4, 2))
    R = jm.ring
    G = _lk_generating_family(R, 4, 2)
    # every member lies in the ideal, and the leading terms generate the
    # initial ideal: exactly the statement that the family is a basis
    assert all(ideal_member(g, jm.ideal) for g in G)
    leads = MonomialIdeal(R, [g.leading_monomial() for g in G])
    assert leads == initial_ideal(jm.ideal)


def test_basis_independent_of_generator_order(Q_ideal):
    order = degrevlex(Q_ideal.ring.variables)
    reference = buchberger(list(Q_ideal.ideal.generators), order)
    rng = random.Random(7)
    for _ in range(5):
        gens = list(Q_ideal.ideal.generators)
        rng.shuffle(gens)
        assert buchberger(gens, order) == reference


@pytest.mark.parametrize("spell", [lex, degrevlex])
def test_an_order_and_its_explicit_priority_are_one_order(spell):
    """``lex()`` and ``degrevlex()`` are the ring's native priority spelled
    out: an ideal caches one basis for both, and bases built apart under
    the two spellings compare equal."""
    jm = join_meet_ideal(lattice_q())
    ring = jm.ring
    implicit, explicit = spell(), spell(ring.variables)
    assert jm.ideal.groebner(implicit) is jm.ideal.groebner(explicit)
    gens = list(jm.ideal.generators)
    assert buchberger(gens, implicit) == buchberger(gens, explicit)
    assert buchberger(gens, spell(ring.variables[::-1])) != buchberger(gens, implicit)


def test_monomial_generators_skip_the_pair_loop(monkeypatch):
    """Monomial generators have zero S-elements, so buchberger returns their
    minimal generators without entering the pair loop, and the result is the
    basis the loop computes."""
    R = PolyRing(("x", "y", "z"))
    gens = [R.from_string(t) for t in
            ("x^2*y", "x*y", "3*y*z^2", "x*y*z", "z^3", "2*x^3")]
    order = lex(("z", "x", "y"))
    ctx = groebner._Ctx(R, order)
    looped = groebner.ReducedGB(ctx, binomial=groebner._binomial_buchberger(
        ctx, groebner._binomial_elements(ctx, gens)))

    def entered(*args):
        raise AssertionError("the pair loop ran")

    monkeypatch.setattr(groebner, "_buchberger_core", entered)
    gb = buchberger(gens, order)
    assert gb == looped
    assert set(gb.leading_monomials()) == MonomialIdeal(
        R, [g.leading_monomial() for g in gens]).gens


# -- pair update against a criteria-free Buchberger ----------------------------
# Inhomogeneous and generic inputs stay in three variables: the oracle treats
# every pair, and its bases grow fast.

P = 32003


def _orders(names):
    return st.tuples(st.sampled_from((lex, degrevlex)), st.permutations(names))


def _monos(nvars, top):
    return st.tuples(*(st.integers(0, top) for _ in range(nvars)))


@given(char=st.sampled_from((0, P)), order=_orders("xyzw"), data=st.data())
@settings(max_examples=80, deadline=None)
def test_pure_difference_basis_matches_all_pairs_oracle(char, order, data):
    R = PolyRing(tuple("xyzw"), char)
    monos = monomials_of_degree(R.nvars, data.draw(st.integers(1, 3)))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(monos),
                                         st.sampled_from(monos)),
                               min_size=1, max_size=5))
    gens = [R.monomial(u) - R.monomial(v) for u, v in pairs]
    order = order[0](tuple(order[1]))
    gb = buchberger(gens, order, ring=R)
    assert gb._binomial is not None
    assert list(gb.basis) == buchberger_all_pairs(gens, order, R)


@given(char=st.sampled_from((0, P)), order=_orders("xyz"),
       pairs=st.lists(st.tuples(_monos(3, 2), _monos(3, 2)), min_size=1, max_size=4),
       m=_monos(3, 2), block=st.booleans())
@settings(max_examples=80, deadline=None)
def test_saturation_shaped_basis_matches_all_pairs_oracle(char, order, pairs, m,
                                                          block):
    """Inhomogeneous pure differences plus 1 - t*m, the element saturation
    adds, under the elimination order for t or an order over all variables."""
    R = PolyRing(tuple("xyzt"), char)
    gens = [R.monomial(u + (0,)) - R.monomial(v + (0,)) for u, v in pairs]
    gens.append(R.one() - R.monomial(m + (1,)))
    kind, perm = order
    inner = kind(tuple(perm) + ("t",))
    order = BlockOrder(("t",), inner) if block else inner
    gb = buchberger(gens, order, ring=R)
    assert gb._binomial is not None
    assert list(gb.basis) == buchberger_all_pairs(gens, order, R)


@given(char=st.sampled_from((0, P)), order=_orders("xyz"),
       polys=st.lists(st.lists(st.tuples(_monos(3, 1), st.integers(-3, 3),
                                         st.integers(1, 4)),
                               min_size=1, max_size=3),
                      min_size=1, max_size=2))
@settings(max_examples=80, deadline=None)
def test_generic_basis_matches_all_pairs_oracle(char, order, polys):
    """Coefficients c/d over Q (c over GF(p)), so leads that are not
    integral or not units of Z meet the oracle too."""
    R = PolyRing(tuple("xyz"), char)
    gens = [sum((R.monomial(m, Fraction(c, d) if char == 0 else c)
                 for m, c, d in terms), R.zero()) for terms in polys]
    gens.append(R.from_string("x*y + 2*z + 3"))  # three terms: the generic engine
    order = order[0](tuple(order[1]))
    gb = buchberger(gens, order, ring=R)
    assert gb._generic is not None
    assert list(gb.basis) == buchberger_all_pairs(gens, order, R)


def test_zero_ideal_empty_basis():
    R = PolyRing(("x",))
    assert len(buchberger([R.zero()], ring=R)) == 0


def test_binomial_and_generic_paths_agree():
    # pure-difference inputs run the fast path; perturbing the generator
    # list with a redundant four-term combination forces the generic path
    R = PolyRing(("x", "y", "z", "w"))
    gens = [R.from_string(s) for s in ("x*y - z*w", "x*z - y*w", "y^2 - z^2")]
    fast = buchberger(gens, degrevlex(R.variables))
    extra = gens + [gens[0] + gens[1]]
    slow = buchberger(extra, degrevlex(R.variables))
    assert fast == slow
    assert verify_groebner(fast)


_VARS4 = ("x", "y", "z", "w")


@st.composite
def _difference_sets(draw):
    """1-3 pure differences in four variables, homogeneous or not."""
    if draw(st.booleans()):
        monos = st.sampled_from(monomials_of_degree(4, draw(st.integers(1, 3))))
        pair = st.tuples(monos, monos)
    else:
        mono = st.tuples(*[st.integers(0, 2)] * 4)
        pair = st.tuples(mono, mono)
    return draw(st.lists(pair, min_size=1, max_size=3))


@given(pairs=_difference_sets(), char=st.sampled_from((0, 32003)),
       kind=st.sampled_from((lex, degrevlex)), perm=st.permutations(_VARS4))
@settings(max_examples=80, deadline=None)
def test_generic_and_binomial_instantiations_agree(pairs, char, kind, perm):
    R = PolyRing(_VARS4, char)
    gens = [g for g in (R.monomial(a) - R.monomial(b) for a, b in pairs) if g]
    assume(gens)
    order = kind(tuple(perm))
    fast = buchberger(gens, order, ring=R)
    # a four-term multiple of a generator forces the generic elements
    slow = buchberger(gens + [gens[0] * (2 * R.var("x") + 3)], order, ring=R)
    assert fast._binomial is not None and slow._binomial is None
    assert fast == slow
    assert verify_groebner(fast)


_VARS3 = ("x", "y", "z")
_terms3 = st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * 3), st.integers(-3, 3)),
                   min_size=1, max_size=3)


@given(polys=st.lists(_terms3, min_size=1, max_size=3), char=st.sampled_from((0, 32003)),
       kind=st.sampled_from((lex, degrevlex)), perm=st.permutations(_VARS3))
@settings(max_examples=60, deadline=None)
def test_generic_elements_with_any_leading_coefficient(polys, char, kind, perm):
    R = PolyRing(_VARS3, char)
    gens = [g for g in (sum((R.monomial(m, c) for m, c in terms), R.zero())
                        for terms in polys) if g]
    assume(gens)
    gb = buchberger(gens, kind(tuple(perm)), ring=R)
    assert verify_groebner(gb)
    assert all(not gb.reduce(g) for g in gens)


# -- normal form --------------------------------------------------------------

def test_normal_form_of_basis_members_is_zero(Q_ideal):
    gb = Q_ideal.ideal.groebner()
    for g in gb.basis:
        assert not normal_form(g, gb)


def test_normal_form_published_nonmember(N_ideal):
    gb = N_ideal.ideal.groebner()
    w = N_ideal.ring.from_string("a*d*g*l - a*f*g*l")
    assert normal_form(w, gb)


def test_normal_form_published_square_member(N_ideal):
    R = N_ideal.ring
    gb = N_ideal.ideal.groebner()
    f = R.from_string("a*g*l") * (R.var("d") - R.var("f"))
    assert not normal_form(f * (R.var("d") - R.var("f")), gb)


def test_normal_form_idempotent(N_ideal):
    R = N_ideal.ring
    gb = N_ideal.ideal.groebner()
    rng = random.Random(3)
    monos = list(itertools.combinations_with_replacement(range(R.nvars), 3))
    for _ in range(25):
        terms = {}
        for _ in range(4):
            pick = rng.choice(monos)
            m = tuple(pick.count(i) for i in range(R.nvars))
            terms[m] = terms.get(m, 0) + rng.randint(-3, 3)
        f = type(R.zero())(R, terms)
        r = gb.reduce(f)
        assert gb.reduce(r) == r
        assert not gb.reduce(f - r)  # difference lies in the ideal


# -- membership ----------------------------------------------------------------

def test_zero_always_member(Q_ideal):
    assert ideal_member(Q_ideal.ring.zero(), Q_ideal.ideal)


def test_published_membership_facts(N_ideal):
    R = N_ideal.ring
    assert not ideal_member(R.from_string("a*d*g*l - a*f*g*l"), N_ideal.ideal)
    assert ideal_member(R.from_string("a*d*h - a*f*h"), N_ideal.ideal)
    assert ideal_member(R.from_string("c*d*l - c*f*l"), N_ideal.ideal)


def test_ring_mismatch(Q_ideal):
    other = PolyRing(("x",))
    with pytest.raises(RingMismatch):
        ideal_member(other.var("x"), Q_ideal.ideal)


# -- radical membership ----------------------------------------------------------

def test_members_are_radical_members(Q_ideal):
    g = Q_ideal.ideal.generators[0]
    assert radical_member(g, Q_ideal.ideal)


def test_x_in_radical_of_x_squared():
    R = PolyRing(("x", "y"))
    I = Ideal(R, ["x^2"])
    assert radical_member(R.var("x"), I)
    assert not ideal_member(R.var("x"), I)
    assert not radical_member(R.var("y"), I)


def test_published_radical_membership(N_ideal):
    w = N_ideal.ring.from_string("a*d*g*l - a*f*g*l")
    assert radical_member(w, N_ideal.ideal)


# -- eliminate / intersect / colon / saturate -------------------------------------

def test_eliminate_nothing_is_identity(Q_ideal):
    assert eliminate(Q_ideal.ideal, set()) is Q_ideal.ideal


def test_eliminate_parametrization():
    R = PolyRing(("x", "y", "t"))
    E = eliminate(Ideal(R, ["x - t", "y - t^2"]), {"t"})
    S = E.ring
    assert S.variables == ("x", "y")
    assert ideal_equal(E, Ideal(S, ["y - x^2"]))


def test_intersect_self(Q_ideal):
    assert ideal_equal(intersect(Q_ideal.ideal, Q_ideal.ideal), Q_ideal.ideal)


def test_intersect_principal_monomials():
    R = PolyRing(("x", "y"))
    got = intersect(Ideal(R, ["x"]), Ideal(R, ["y"]))
    assert ideal_equal(got, Ideal(R, ["x*y"]))
    # a zero side takes the general route: t*J holds no t-free element
    for char in (0, P):
        R = PolyRing(("x", "y"), char)
        zero, some = Ideal(R, []), Ideal(R, ["x*y - y^2", "x^2 + 2*y"])
        for a, b in ((zero, some), (some, zero), (zero, zero)):
            meet = intersect(a, b)
            assert meet.ring == R and meet.generators == ()


def test_intersect_monomial_fast_path_matches_elimination():
    R = PolyRing(("x", "y", "z"))
    a = Ideal(R, ["x^2", "y*z"])
    b = Ideal(R, ["x*y", "z^2"])
    got = intersect(a, b)
    # independent route: eliminate t from t*a + (1-t)*b built by hand
    ext = R.extend(["t"])
    t = ext.var("t")
    gens = [t * g.map_ring(ext) for g in a.generators]
    gens += [(ext.one() - t) * g.map_ring(ext) for g in b.generators]
    ref = eliminate(Ideal(ext, gens), {"t"})
    assert ideal_equal(got, Ideal(R, [g.map_ring(R) for g in ref.generators]))


def _naive_minimal(monos):
    """Reference minimalisation on exponent tuples."""
    monos = set(monos)
    return {m for m in monos
            if not any(d != m and all(x <= y for x, y in zip(d, m)) for d in monos)}


_small_monomials = st.lists(
    st.tuples(*[st.integers(0, 3)] * 4), min_size=1, max_size=7)


_UNIT4 = (0, 0, 0, 0)


@given(_small_monomials, _small_monomials)
@settings(max_examples=150, deadline=None)
def test_monomial_intersection_matches_tuple_reference(ma, mb):
    """intersect on MonomialIdeals (packed lcms), MonomialIdeal's packed
    minimalisation and the elimination route on monomial Ideals agree with
    pairwise lcms minimalised on tuples, and ideal_equal on MonomialIdeals
    compares minimal generators."""
    R = PolyRing(("w", "x", "y", "z"))
    lcms = [tuple(map(max, u, v)) for u in ma for v in mb]
    want = _naive_minimal(lcms)
    assert MonomialIdeal(R, lcms).gens == want
    a, b = MonomialIdeal(R, ma), MonomialIdeal(R, mb)
    meet = intersect(a, b)
    assert isinstance(meet, MonomialIdeal) and meet.gens == want
    assert ideal_equal(meet, MonomialIdeal(R, want))
    assert ideal_equal(intersect(b, a), meet)
    assert ideal_equal(meet, a) == (_naive_minimal(ma) == want)
    got = intersect(Ideal(R, [R.monomial(m) for m in ma]),
                    Ideal(R, [R.monomial(m) for m in mb]))
    key = sort_key(R.default_order, R)
    assert [g.leading_monomial() for g in got.generators] == sorted(
        want, key=key, reverse=True)
    # the zero ideal absorbs, the unit ideal is neutral
    zero, unit = MonomialIdeal(R, []), MonomialIdeal(R, [_UNIT4])
    assert intersect(a, zero).gens == intersect(zero, a).gens == frozenset()
    assert intersect(a, unit) == intersect(unit, a) == a
    assert intersect(unit, unit) == unit
    # the packed ideal from intersect reads like the public one, and both
    # like the tuple reference
    public = MonomialIdeal(R, want)
    assert meet == public and hash(meet) == hash(public)
    assert len(meet) == len(want)
    assert meet.sorted_gens() == sorted(want, key=key, reverse=True)
    assert meet.is_squarefree() == all(e <= 1 for m in want for e in m)
    for m in itertools.product(range(4), repeat=4):
        divisible = any(all(x <= y for x, y in zip(g, m)) for g in want)
        assert meet.contains(m) == public.contains(m) == divisible


def test_monomial_ideal_with_an_ideal_is_a_typed_error():
    R = PolyRing(("x", "y"))
    mono, ideal = MonomialIdeal(R, [(1, 0)]), Ideal(R, ["x"])
    for a, b in ((mono, ideal), (ideal, mono)):
        with pytest.raises(PreconditionViolated):
            intersect(a, b)
        with pytest.raises(PreconditionViolated):
            ideal_equal(a, b)
    with pytest.raises(RingMismatch):
        intersect(mono, MonomialIdeal(PolyRing(("x", "z")), [(1, 0)]))


def _lead_cases(char):
    """(generators, order) whose bases are binomial, all-monomial, generic,
    and binomial and generic under a BlockOrder."""
    R = PolyRing(("x", "y", "z", "w"), char)
    jm = join_meet_ideal(lattice_q(), char)
    block = BlockOrder(("z",), degrevlex(("x", "y", "w", "z")))
    generic = [R.from_string(t) for t in
               ("x^2 + 2*y*z - w", "3*x*y - z^2 + 1", "y^3 - x*w")]
    return [
        (jm.ideal.generators, jm.ring.default_order),
        (jm.ideal.generators, lex(tuple(reversed(jm.ring.variables)))),
        ([R.from_string(t) for t in ("x^2*y", "y*z^3", "x*w", "z^2*w^2")],
         lex(("w", "z", "y", "x"))),
        (generic, degrevlex()),
        (generic, lex(("z", "y", "x", "w"))),
        (generic, block),
        ([R.from_string(t) for t in ("x*y - z^2", "x^2 - y*w", "z*w - x*y")],
         block),
    ]


@pytest.mark.parametrize("char", [0, P])
def test_leading_monomials_match_the_basis(char):
    """Leads read off the engine's elements equal the leads of the Poly
    basis, on binomial, all-monomial and generic bases."""
    kinds = set()
    for gens, order in _lead_cases(char):
        gb = buchberger(gens, order)
        kinds.add("binomial" if gb._binomial is not None else "generic")
        assert gb.leading_monomials() == tuple(
            g.leading_monomial(gb.order) for g in gb.basis)
    assert kinds == {"binomial", "generic"}


@pytest.mark.parametrize("char", [0, P])
def test_bases_read_through_their_elements_build_no_polys(monkeypatch, char):
    """A basis read through ``initial_ideal``, ``reduce``, ``len``,
    ``contains_one`` or the colon bases never becomes Polys, on binomial,
    all-monomial and generic bases; ``basis``, built when read, is then the
    reference reduced basis."""
    def built(*args):
        raise AssertionError("a basis became Polys")

    monkeypatch.setattr(groebner.ReducedGB, "basis", property(built))
    cases = _lead_cases(char)
    bases = []
    for gens, order in cases:
        ideal = Ideal(gens[0].ring, gens)
        gb = ideal.groebner(order)
        assert initial_ideal(ideal, order).gens == set(gb.leading_monomials())
        assert not any(gb.reduce(g) for g in gens)
        assert len(gb) == len(gb.leading_monomials()) > 0
        assert not gb.contains_one()
        bases.append(gb)
    R = cases[-1][0][0].ring
    for gens, n in (([], 0), ([R.one()], 1), (["x + y + 1", "x + y"], 1)):
        gb = Ideal(R, gens).groebner()
        assert (len(gb), gb.contains_one()) == (n, n == 1)
    jm = Ideal(cases[0][0][0].ring, cases[0][0])
    for i in range(jm.ring.nvars):
        groebner._binomial_colons(jm, i)
    monkeypatch.undo()
    for (gens, order), gb in zip(cases, bases):
        assert list(gb.basis) == buchberger_all_pairs(gens, order, gb.ring)


@pytest.mark.parametrize("char", [0, P])
def test_bases_from_either_engine_compare_equal(char):
    """A reduced basis is unique, so the generic engine's basis of
    (x - y, x + y) equals the binomial engine's basis of (x, y); bases one
    sign apart differ."""
    R = PolyRing(("x", "y"), char)
    generic, binomial = Ideal(R, ["x - y", "x + y"]), Ideal(R, ["x", "y"])
    assert generic.groebner()._generic and binomial.groebner()._binomial
    assert generic.groebner() == binomial.groebner()
    assert ideal_equal(generic, binomial) and ideal_equal(binomial, generic)
    minus, plus = Ideal(R, ["x - y"]), Ideal(R, ["x + y"])
    assert minus.groebner() != plus.groebner()
    assert not ideal_equal(minus, plus)


@pytest.mark.parametrize("char", [0, P])
def test_equality_and_elimination_read_no_basis_they_start_from(monkeypatch, char):
    """ideal_equal compares engine elements, and saturate and eliminate keep
    the elements free of the dropped variables before any becomes a Poly:
    none of them reads ``basis`` of a basis it compares or eliminates from.
    Only the kept elements are built, over the smaller ring."""
    read = groebner.ReducedGB.basis.fget
    built_over = set()

    def basis(gb):
        if gb.ring not in built_over:
            raise AssertionError(f"a basis over {gb.ring} became Polys")
        return read(gb)

    I = join_meet_ideal(lattice_q(), char).ideal
    R = I.ring
    f = product([R.var(v) for v in R.variables], R)
    sat_want = saturate_by_passes(I, f).generators
    S = PolyRing(("x", "y"), char)
    cases = [(names, gens, want)
             for names in (("x", "y", "t"), ("t", "x", "y"), ("x", "t", "y"))
             for gens, want in ((["x - t", "y - t^2"], "x^2 - y"),
                                (["x - 2*t", "y - t^2"], "x^2 - 4*y"))]
    monkeypatch.setattr(groebner.ReducedGB, "basis", property(basis))
    assert ideal_equal(Ideal(R, I.generators[::-1]), I)
    assert ideal_equal(Ideal(S, ["x - y", "x + y"]), Ideal(S, ["x", "y"]))
    built_over.add(R)
    assert saturate(I, f).generators == sat_want
    built_over.add(S)
    for names, gens, want in cases:
        meet = eliminate(Ideal(PolyRing(names, char), gens), {"t"})
        assert meet.ring == S and meet.generators == (S.from_string(want),)


def test_monomial_ideal_rejects_out_of_range_exponents():
    R = PolyRing(("x", "y"))
    with pytest.raises(ExponentOverflow):
        MonomialIdeal(R, [(1 << 16, 0)])
    with pytest.raises(ValueError):
        MonomialIdeal(R, [(1, -1)])


def test_monomial_ideal_rejects_wrong_length_monomials():
    """Packing would drop a fourth exponent or read a short tuple as
    padded; the unit ideal and (x) must not come out of such input."""
    R = PolyRing(("x", "y", "z"))
    for monos in ([(1, 2, 3, 4)], [(0, 0, 0, 1)], [(1,)], [(1, 0, 0), (0, 1)]):
        with pytest.raises(RingMismatch):
            MonomialIdeal(R, monos)


def test_monomial_ideal_contains_rejects_wrong_length_monomials():
    """Membership zipped exponent tuples: a short tuple or one with an extra
    exponent got an answer instead of an error."""
    ideal = MonomialIdeal(PolyRing(("x", "y", "z")), [(1, 0, 0)])
    for mono in ((1,), (1, 0, 0, 5)):
        with pytest.raises(RingMismatch):
            ideal.contains(mono)
    assert ideal.contains((1, 2, 0)) and not ideal.contains((0, 2, 1))


@pytest.mark.parametrize("mono,error", [
    ((1, 0), RingMismatch),
    ((1, 0, 0, 0), RingMismatch),
    ((1, -1, 0), ValueError),
    ((0, 0, 1 << 15), ExponentOverflow),
], ids=["short", "long", "negative", "overflow"])
def test_every_entry_checks_a_monomial_by_one_rule(mono, error):
    """Poly, compare, PolyRing.monomial (with a zero coefficient too),
    MonomialIdeal and its membership test raise the same error for the same
    bad exponent tuple."""
    R = PolyRing(("x", "y", "z"))
    ideal = MonomialIdeal(R, [(1, 0, 0)])
    for entry in (lambda: Poly(R, {mono: 1}),
                  lambda: Poly(R, {(0, 0, 0): 1, mono: 2}),
                  lambda: compare(degrevlex(), R, mono, (0, 0, 0)),
                  lambda: compare(lex(), R, (0, 0, 0), mono),
                  lambda: R.monomial(mono),
                  lambda: R.monomial(mono, 0),
                  lambda: MonomialIdeal(R, [(0, 1, 0), mono]),
                  lambda: ideal.contains(mono)):
        with pytest.raises(error) as err:
            entry()
        assert type(err.value) is error


@pytest.mark.parametrize("char", [0, P])
def test_initial_ideal_is_the_ideal_of_the_leads_under_any_order(char):
    """initial_ideal repacks the basis's packed leads into the default
    layout: under lex, permuted degrevlex and block orders it equals, hashes
    and reads like the public MonomialIdeal of the leads."""
    cases = _lead_cases(char)
    cases += [(cases[0][0], degrevlex(tuple("dbfagce"))),
              (cases[3][0], degrevlex(("w", "y", "x", "z")))]
    for gens, order in cases:
        ideal = Ideal(gens[0].ring, gens)
        ini = initial_ideal(ideal, order)
        want = MonomialIdeal(ideal.ring, ideal.groebner(order).leading_monomials())
        assert ini == want and hash(ini) == hash(want)
        assert ini.sorted_gens() == want.sorted_gens() and ini.gens == want.gens


@pytest.mark.parametrize("char", [0, P])
@pytest.mark.parametrize("spec", ["R", "Lk:6:3"])
def test_initial_ideal_certificate_packs_and_unpacks_no_tuples(monkeypatch, spec, char):
    """The certificate reads, meets and compares initial ideals in the
    engine's packed form: it runs no public MonomialIdeal constructor and
    reads no exponent tuple back."""
    L = build_fixture(spec)
    jm = join_meet_ideal(L, char)
    parts = [c.ideal for c in minimal_primes(L, char, _verify=False)]

    def refuse(*args):
        raise AssertionError("exponent tuples were packed or unpacked")

    monkeypatch.setattr(MonomialIdeal, "__init__", refuse)
    monkeypatch.setattr(MonomialIdeal, "gens", property(refuse))
    assert _initial_ideals_certify(jm.ideal, parts)


def test_lk_intersection_identity():
    jm = join_meet_ideal(lk(3, 1))
    R = jm.ring
    a = jm.ideal.plus([R.var("x2") - R.var("y1")])
    b = jm.ideal.plus([R.var("z")])
    assert ideal_equal(intersect(a, b), jm.ideal)


@pytest.mark.parametrize("char", [0, 32003])
def test_intersection_sharing_generators_stays_binomial(monkeypatch, char):
    """Both sides contain the join-meet ideal I: its generators stay out of
    the t and (1-t) products, and the rest are a pure difference and a
    monomial, so no generic element is ever formed."""
    jm = join_meet_ideal(lk(4, 2), char)
    R = jm.ring
    a = jm.ideal.plus([R.var("x3") - R.var("y2")])
    b = jm.ideal.plus([R.var("z")])
    calls = count_engine_runs(monkeypatch)
    meet = intersect(a, b)
    assert calls["_generic_buchberger"] == 0
    assert ideal_equal(meet, jm.ideal)


_shared_side = st.lists(st.tuples(_monos(3, 2), _monos(3, 2)), min_size=1, max_size=3)
_extra_side = st.lists(st.tuples(_monos(3, 2), st.none() | _monos(3, 2)),
                       min_size=1, max_size=2)


@given(char=st.sampled_from((0, P)), shared=_shared_side, fa=_extra_side,
       fb=_extra_side)
@settings(max_examples=60, deadline=None)
def test_intersect_matches_elimination_of_every_generator(char, shared, fa, fb):
    """Pure differences both sides share, plus monomials or pure
    differences of each side's own: keeping the shared generators out of
    the t and (1-t) products gives the same ideal as the route that
    multiplies them all."""
    R = PolyRing(_VARS3, char)

    def gens(pairs):
        return [R.monomial(u) - (R.zero() if v is None else R.monomial(v))
                for u, v in pairs]

    common = gens(shared)
    a = Ideal(R, common + gens(fa))
    b = Ideal(R, gens(fb) + common[::-1])
    assume(a.generators and b.generators)
    assert ideal_equal(intersect(a, b), intersect_by_elimination(a, b))


def test_colon_and_saturate(Q_ideal):
    R = Q_ideal.ring
    prod = R.one()
    for v in R.variables:
        prod = prod * R.var(v)
    c = colon(Q_ideal.ideal, prod)
    s = saturate(Q_ideal.ideal, prod)
    J = Ideal(R, ["a*e - b*c", "a*g - c*f", "b*g - e*f", "d - f"])
    assert ideal_equal(c, s)
    assert ideal_equal(c, J)


def test_saturate_by_one(Q_ideal):
    assert ideal_equal(saturate(Q_ideal.ideal, Q_ideal.ring.one()), Q_ideal.ideal)


def test_saturate_regular_variables_fixed_point():
    D = join_meet_ideal(ladder(3))
    R = D.ring
    I = D.ideal.plus([R.var("x2") - R.var("y1")])
    prod = R.one()
    for v in R.variables:
        prod = prod * R.var(v)
    assert ideal_equal(saturate(I, prod), I)


def test_saturate_matches_pass_chain():
    R = PolyRing(("x", "y", "z"))
    I = Ideal(R, ["x*y - z^2", "y^2 - x*z"])
    f = R.from_string("x*y")
    assert saturate(I, f).generators == saturate_by_passes(I, f).generators


def test_saturate_rejects_an_element_of_another_ring():
    """f from another field gave a silent answer, and f from fewer variables
    an error that named a monomial instead of the two rings."""
    R = PolyRing(("x", "y", "z"))
    I = Ideal(R, ["x*y - z^2"])
    for S in (PolyRing(("x", "y", "z"), 32003), PolyRing(("x", "y"))):
        with pytest.raises(RingMismatch) as err:
            saturate(I, S.var("x"))
        assert str(err.value) == f"{S} vs {R}"


@pytest.mark.parametrize("lattice", [diamond_m3(), lk(3, 1)], ids=["M3", "Lk31"])
def test_saturate_by_all_variables_matches_pass_chain(lattice):
    # the ideals are not saturated, so some pass divides out its variable
    I = join_meet_ideal(lattice).ideal
    R = I.ring
    f = product([R.var(v) for v in R.variables], R)
    sat = saturate(I, f)
    assert not ideal_equal(sat, I)
    # f's last variable is the ring's last, so both return the reduced basis
    # under the default order
    assert sat.generators == saturate_by_passes(I, f).generators
    assert sat.generators == sat.groebner().basis


@pytest.mark.parametrize("char", [0, 32003])
def test_saturate_by_non_monic_monomial_stays_binomial(monkeypatch, char):
    """A unit changes no saturation: saturate makes a monomial monic, so
    1 - t*f stays a pure difference and the binomial engine runs."""
    I = join_meet_ideal(diamond_m3(), char).ideal
    R = I.ring
    xy, x = R.var(R.variables[1]) * R.var(R.variables[2]), R.var(R.variables[1])
    expected = [saturate(I, xy).generators, saturate(I, x).generators]
    calls = count_engine_runs(monkeypatch)
    assert [saturate(I, 2 * xy).generators, saturate(I, -x).generators] == expected
    assert calls == {"_buchberger_core": 2, "_generic_buchberger": 0}


def test_saturate_by_monomial_is_one_engine_run(monkeypatch):
    I = join_meet_ideal(lattice_q()).ideal
    R = I.ring
    f = product([R.var(v) for v in R.variables], R)
    calls = count_engine_runs(monkeypatch)
    saturate(I, f)
    assert calls == {"_buchberger_core": 1, "_generic_buchberger": 0}


def _saturate_by_colon(I, f):
    """I : f^∞ as the fixed point of I : f, (I : f) : f, ..."""
    while True:
        J = colon(I, f)
        if ideal_equal(J, I):
            return I
        I = J


_ZERO_BY = (("variable", "x"), ("monomial", "x^2*y"), ("difference", "x - y"),
            ("constant", "3"))


@pytest.mark.parametrize("gens,f,expected,char", [
    (["x*y - x"], "x", ["y - 1"], 0),  # not homogeneous, still binomial
    (["x*y + y"], "x + 1", ["y"], 0),  # f not a monomial
    (["x^2*y + x*y^2 + y"], "y", ["x^2 + x*y + 1"], 0),
    (["x*y + y"], "x + 1", ["y"], P),
    (["x^2*y + x*y^2 + y"], "y", ["x^2 + x*y + 1"], P),
] + [([], f, [], char) for char in (0, P) for _, f in _ZERO_BY],
    ids=["inhomogeneous-difference", "binomial-f", "trinomial", f"binomial-f-char{P}",
         f"trinomial-char{P}"]
    + [f"zero-by-{kind}-char{char}" for char in (0, P) for kind, _ in _ZERO_BY])
def test_saturate_generic_route(gens, f, expected, char):
    """The zero ideal takes the general route too: the basis of (1 - t*f)
    has no t-free element."""
    R = PolyRing(("x", "y"), char)
    I, f = Ideal(R, gens), R.from_string(f)
    sat = saturate(I, f)
    assert ideal_equal(sat, Ideal(R, expected))
    assert ideal_equal(sat, _saturate_by_colon(I, f))


def _refuse_extended_ring_arithmetic(monkeypatch, ring):
    """Poly.map_ring raises, and so do Poly's *, + and - on a Poly of a
    ring with a variable that ``ring`` lacks."""
    def refuse(*args):
        raise AssertionError("a Poly was mapped into another ring")

    monkeypatch.setattr(Poly, "map_ring", refuse)
    for op in ("__mul__", "__add__", "__sub__"):
        def guarded(self, other, _original=getattr(Poly, op)):
            for p in (self, other):
                if isinstance(p, Poly) and set(p.ring.variables) - set(ring.variables):
                    raise AssertionError(f"Poly arithmetic in {p.ring}")
            return _original(self, other)

        monkeypatch.setattr(Poly, op, guarded)


# pinned answers of the elimination route, one generic saturation per field
_GENERIC_SATURATION = {
    0: ["y^3*z - x*y*z^2 + 2*y*z^2", "x^2*y - y*z", "x*y^2 + 2*x*z - z^2",
        "x^2*z + 1/2*y^2*z - 1/2*x*z^2"],
    P: ["y^3*z + 32002*x*y*z^2 + 2*y*z^2", "x^2*y + 32002*y*z",
        "x*y^2 + 2*x*z + 32002*z^2", "x^2*z + 16002*y^2*z + 16001*x*z^2"],
}


@pytest.mark.parametrize("char", [0, P])
def test_extended_ring_generators_are_built_once(monkeypatch, char):
    """saturate and intersect build each generator of K[x, t] as one Poly
    from the terms of its factors: none is mapped into the larger ring, and
    no Poly of it is multiplied, added or subtracted.  The references are
    computed before the patches go on."""
    runs = []  # (input ring, call, check of its answer)
    for spec in ("N5", "Lk:6:3"):
        I = join_meet_ideal(build_fixture(spec), char).ideal
        f = I.ring.monomial(dict.fromkeys(I.ring.variables, 1))
        want = saturate_by_passes(I, f).generators
        runs.append((I.ring, lambda I=I, f=f: saturate(I, f),
                     lambda got, want=want: got.generators == want))
    R = PolyRing(_VARS3, char)
    I = Ideal(R, ["x^2*y - y*z", "x*y^2 + 2*x*z - z^2"])
    runs.append((R, lambda: saturate(I, R.from_string("x + y + 1")),
                 lambda got: [str(g) for g in got.generators]
                 == _GENERIC_SATURATION[char]))
    jm = join_meet_ideal(lk(3, 1), char)
    S = jm.ring
    pairs = [(jm.ideal.plus([S.var("z")]), jm.ideal.plus([S.var("x2") - S.var("y1")])),
             (Ideal(R, ["x^2 + 2*y*z - 1", "y^2 - x*z + 3"]),
              Ideal(R, ["x*y - z^2 + 5", "x - 2*y + z"]))]
    for a, b in pairs:
        want = intersect_by_elimination(a, b)
        runs.append((a.ring, lambda a=a, b=b: intersect(a, b),
                     lambda got, want=want: ideal_equal(got, want)))
    for ring, call, check in runs:
        with monkeypatch.context() as m:
            _refuse_extended_ring_arithmetic(m, ring)
            got = call()
        assert check(got)


@pytest.mark.parametrize("char", [0, P])
@pytest.mark.parametrize("variables", [("t", "x"), ("t", "t0", "x")])
def test_saturate_and_intersect_over_rings_that_use_t(variables, char):
    """The auxiliary variable takes a name the ring lacks; the answers are
    pinned from the route that mapped every generator into K[x, t]."""
    R = PolyRing(variables, char)
    sat = saturate(Ideal(R, ["t*x - x"]), R.var("x"))
    assert ideal_equal(sat, Ideal(R, ["t - 1"]))
    assert ideal_equal(intersect(Ideal(R, ["t"]), Ideal(R, ["x"])), Ideal(R, ["t*x"]))
    if len(variables) == 3:
        sat = saturate(Ideal(R, ["t*x - t0*x", "t0^2*x - x"]), R.var("x"))
        assert ideal_equal(sat, Ideal(R, ["t0^2 - 1", "t - t0"]))
        meet = intersect(Ideal(R, ["t - t0"]), Ideal(R, ["x*t0 + 1"]))
        assert ideal_equal(meet, Ideal(R, ["t*t0*x - t0^2*x + t - t0"]))
        assert meet.ring == R


def test_colon_of_zero_divisor_raises(Q_ideal):
    with pytest.raises(ZeroDivisor):
        colon(Q_ideal.ideal, Q_ideal.ring.zero())
    with pytest.raises(ZeroDivisor):
        saturate(Q_ideal.ideal, Q_ideal.ring.zero())


def test_exact_div():
    R = PolyRing(("x", "y"))
    f = R.from_string("x^2*y - x*y^2")
    assert exact_div(f, R.from_string("x*y")) == R.from_string("x - y")
    with pytest.raises(ValueError):
        exact_div(R.from_string("x^2 + y"), R.var("x"))


# -- ideal equality -----------------------------------------------------------------

def test_ideal_equal_permuted(Q_ideal):
    gens = list(Q_ideal.ideal.generators)
    assert ideal_equal(Ideal(Q_ideal.ring, gens[::-1]), Q_ideal.ideal)


def test_ideal_equal_distinguishes(Q_ideal):
    sub = Ideal(Q_ideal.ring, Q_ideal.ideal.generators[:2])
    assert not ideal_equal(sub, Q_ideal.ideal)


# -- initial ideal / squarefree / dimension -------------------------------------------

def test_zero_ideal_initial_empty():
    R = PolyRing(("x",))
    assert len(initial_ideal(Ideal(R, []))) == 0
    assert is_squarefree(initial_ideal(Ideal(R, [])))


def test_squarefree_basics():
    R = PolyRing(("x", "y"))
    assert is_squarefree(MonomialIdeal(R, [(1, 0)]))
    assert not is_squarefree(MonomialIdeal(R, [(2, 0)]))


def test_q_lex_initial_squarefree(Q_ideal):
    assert is_squarefree(initial_ideal(Q_ideal.ideal, lex(tuple("abcdefg"))))


def test_lk_degrevlex_initial_not_squarefree():
    jm = join_meet_ideal(lk(3, 1))
    ini = initial_ideal(jm.ideal)
    assert not is_squarefree(ini)
    y1sq_z = tuple(
        {"y1": 2, "z": 1}.get(v, 0) for v in jm.ring.variables
    )
    assert y1sq_z in ini.gens


def test_krull_dim_examples():
    R2 = PolyRing(("x", "y"))
    assert krull_dim(MonomialIdeal(R2, [])) == 2
    # the zero ideal has no support to meet: the search ends at once
    for char in (0, P):
        for names in ((), ("x",), ("x", "y", "z")):
            R = PolyRing(names, char)
            assert krull_dim(MonomialIdeal(R, [])) == R.nvars
    assert krull_dim(MonomialIdeal(R2, [(1, 1)])) == 1
    jm = join_meet_ideal(lk(3, 1))
    assert krull_dim(initial_ideal(jm.ideal)) == 3


def test_krull_dim_of_the_unit_ideal_is_a_typed_error():
    R = PolyRing(("x", "y"))
    with pytest.raises(PreconditionViolated):
        krull_dim(initial_ideal(Ideal(R, [R.one()])))


def test_dimension_invariant_across_orders(Q_ideal):
    R = Q_ideal.ring
    dims = set()
    for order in (degrevlex(R.variables), lex(R.variables),
                  degrevlex(tuple(reversed(R.variables))),
                  lex(tuple(reversed(R.variables)))):
        dims.add(krull_dim(initial_ideal(Q_ideal.ideal, order)))
    assert len(dims) == 1


# -- post-hoc verification and binomial closure ---------------------------------------

def test_every_computed_basis_passes_spolynomial_check():
    cases = [
        join_meet_ideal(lattice_q()).ideal.groebner(lex(tuple("abcdefg"))),
        join_meet_ideal(lattice_n()).ideal.groebner(),
        join_meet_ideal(lk(3, 2)).ideal.groebner(),
    ]
    for gb in cases:
        assert verify_groebner(gb)


def test_join_meet_bases_stay_binomial():
    for L in (lattice_q(), lattice_n(), lk(3, 1), ladder(3)):
        jm = join_meet_ideal(L)
        for order in (degrevlex(jm.ring.variables), lex(jm.ring.variables)):
            gb = jm.ideal.groebner(order)
            assert all(len(g.terms) <= 2 for g in gb.basis)


@given(L=closure_lattices(), char=st.sampled_from((0, 32003)), data=st.data())
@settings(max_examples=60, deadline=None)
def test_minimal_basis_with_unreduced_tails_is_a_groebner_basis(L, char, data):
    # the pair loop only top-reduces, so the minimal basis it returns keeps
    # unreduced tails; it must still be a Groebner basis, and interreducing
    # it must give the reduced basis
    jm = join_meet_ideal(L, char)
    ring = jm.ring
    kind = data.draw(st.sampled_from((lex, degrevlex)))
    order = kind(tuple(data.draw(st.permutations(ring.variables))))
    ctx = groebner._Ctx(ring, order)
    elements = groebner._binomial_elements(ctx, jm.ideal.generators)
    kept = groebner._buchberger_core(ctx, elements, groebner._bin_s_element,
                                     groebner._bin_reduce)
    assert verify_groebner(groebner.ReducedGB(ctx, binomial=kept))
    reduced = groebner._bin_interreduced(ctx, kept)
    assert reduced == groebner._binomial_buchberger(ctx, elements)
    assert groebner.ReducedGB(ctx, binomial=reduced) == buchberger(
        jm.ideal.generators, order, ring=ring)
    leads = [e[1] for e in reduced]
    for _, lp, _, tp in reduced:
        assert not any(ctx.divides(o, lp) for o in leads if o != lp)
        assert tp < 0 or not any(ctx.divides(o, tp) for o in leads)


def _xyz_elements(*pairs):
    """Binomial elements under lex x > y > z from exponent-tuple pairs."""
    ring = PolyRing(("x", "y", "z"))
    ctx = groebner._Ctx(ring, lex(ring.variables))
    return ctx, [(*ctx.key_pack(u), *ctx.key_pack(v)) for u, v in pairs]


def test_top_reduction_stops_when_the_terms_meet():
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    ctx, (el, *basis) = _xyz_elements((y, x), (x, y), (y, z))
    # x -> y meets the other term, though y itself still reduces to z
    assert groebner._bin_reduce_monomial(*el[:2], basis, ctx.hmask) != el[:2]
    assert groebner._bin_reduce(ctx, el, basis) is None


def test_top_reduction_leaves_the_tail_to_interreduction():
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    ctx, (xy, yz) = _xyz_elements((x, y), (y, z))
    assert groebner._bin_reduce(ctx, xy, [yz]) == xy  # tail y is not normal
    (xz,) = _xyz_elements((x, z))[1]
    assert groebner._bin_interreduced(ctx, [yz, xy]) == [xz, yz]


# -- membership oracle -----------------------------------------------------------------

def test_membership_matches_bruteforce_oracle():
    rng = random.Random(20240201)
    agree = 0
    for case in range(500):
        nvars = rng.randint(2, 4)
        ring = PolyRing(tuple(f"v{i}" for i in range(nvars)))
        gens = []
        for _ in range(rng.randint(2, 4)):
            g = random_homogeneous_difference(ring, rng, 2)
            if g:
                gens.append(g)
        if not gens:
            continue
        ideal = Ideal(ring, gens)
        if rng.random() < 0.5:
            # a certified member: random monomial combination of generators
            f = ring.zero()
            for g in gens:
                m = rng.choice(monomials_of_degree(nvars, rng.randint(0, 2)))
                f = f + ring.monomial(m) * g
            # pad all parts to a common degree so the oracle bound is exact
            parts = {}
            for t, c in f.terms.items():
                parts.setdefault(sum(t), {})[t] = c
            if not parts:
                continue
            d = max(parts)
            f = type(ring.zero())(ring, parts[d])
        else:
            f = random_homogeneous_difference(ring, rng, rng.randint(2, 4))
        if not f:
            continue
        assert ideal_member(f, ideal) == membership_by_linear_algebra(
            f, list(ideal.generators), ring
        ), (case, [str(g) for g in gens], str(f))
        agree += 1
    assert agree >= 400  # the rest of the 500 draws degenerate to zero


# -- the pair loop's stop hook and the goal-directed initial ideal -------------


def _orders_of(ring, rnd):
    names = list(ring.variables)
    rnd.shuffle(names)
    return [ring.default_order, degrevlex(tuple(reversed(ring.variables))),
            degrevlex(tuple(names)), lex(tuple(names))]


def _assert_leads_complete_below_next_pair(ideal, order):
    """Homogeneous input: before each pair leaves the heap, the minimal
    leads added so far, of degree below that pair's, are exactly the final
    leads of that degree; and a hook that never stops changes nothing."""
    ctx = groebner._Ctx(ideal.ring, order)
    elements = groebner._binomial_elements(ctx, ideal.generators)
    steps = (groebner._bin_s_element, groebner._bin_reduce)
    seen = []

    def watch(basis, degree):
        seen.append((degree, [e[1] for e in basis]))
        return False

    kept = groebner._buchberger_core(ctx, elements, *steps, stop=watch)
    assert kept == groebner._buchberger_core(ctx, elements, *steps)
    final = [e[1] for e in kept]
    for degree, leads in seen:
        below = [p for p in leads if ctx.degree(p) < degree]
        assert (groebner._minimal_packed(ctx, below)
                == {p for p in final if ctx.degree(p) < degree})
    return seen


@pytest.mark.parametrize("spec", ["Q", "R", "N", "Lk:5:2", "Lk:6:3"])
def test_stop_hook_sees_leads_complete_below_the_next_pair(spec):
    ideal = join_meet_ideal(build_fixture(spec)).ideal
    for order in _orders_of(ideal.ring, random.Random(spec)):
        assert _assert_leads_complete_below_next_pair(ideal, order)


@given(closure_lattices(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_stop_hook_sees_leads_complete_below_the_next_pair_on_closure_systems(L, rnd):
    ideal = join_meet_ideal(L).ideal
    for order in _orders_of(ideal.ring, rnd):
        _assert_leads_complete_below_next_pair(ideal, order)


@given(closure_lattices(), st.sampled_from([0, P]), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_initial_ideal_toward_decides_containment_exactly(L, char, rnd):
    """Goals are in(I) under each order and the meet of the components'
    initial ideals: the answer is None exactly when in(I) misses a goal
    generator, and otherwise lies in in(I) and contains the goal.  No
    basis is left in the ideal's cache."""
    jm = join_meet_ideal(L, char)
    ring = jm.ring
    orders = _orders_of(ring, rnd)
    whole = {order: initial_ideal(jm.ideal, order) for order in orders}
    parts = [c.ideal for c in minimal_primes(L, char, _verify=False)]
    meet = initial_ideal(parts[0], orders[1])
    for p in parts[1:]:
        meet = intersect(meet, initial_ideal(p, orders[1]))
    for order in orders:
        for goal in [*whole.values(), meet]:
            fresh = Ideal(ring, jm.ideal.generators)
            got = groebner._initial_ideal_toward(fresh, order, goal)
            inside = all(whole[order].contains(m) for m in goal.gens)
            assert (got is not None) is inside
            if inside:
                assert all(whole[order].contains(m) for m in got.gens)
                assert all(got.contains(m) for m in goal.gens)
            assert not fresh._cache


def test_initial_ideal_toward_reads_a_cached_basis_whole(monkeypatch):
    ideal = join_meet_ideal(lk(5, 2)).ideal
    order = degrevlex(tuple(reversed(ideal.ring.variables)))
    whole = initial_ideal(ideal, order)
    calls = count_engine_runs(monkeypatch)
    empty = MonomialIdeal(ideal.ring, [])
    assert groebner._initial_ideal_toward(ideal, order, empty) == whole
    assert calls["_buchberger_core"] == 0
