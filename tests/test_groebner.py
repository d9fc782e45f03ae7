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
from lattice_lab.errors import ExponentOverflow
from lattice_lab.fixtures import diamond_m3, ladder, lattice_n, lattice_q, lk
from lattice_lab.groebner import exact_div, spolynomial
from lattice_lab.poly import sort_key
from lattice_lab.workflows import join_meet_ideal

from oracles import membership_by_linear_algebra, monomials_of_degree, random_homogeneous_difference


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


def test_zero_ideal_empty_basis():
    R = PolyRing(("x",))
    assert len(buchberger([R.zero()], ring=R)) == 0


def test_binomial_and_generic_paths_agree():
    # pure-difference inputs run the fast path; perturbing the generator
    # list with a redundant三-term combination forces the generic path
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


@given(_small_monomials, _small_monomials)
@settings(max_examples=150, deadline=None)
def test_monomial_intersection_matches_tuple_reference(ma, mb):
    """The packed monomial branch of intersect and MonomialIdeal's packed
    minimalisation agree with pairwise lcms minimalised on tuples."""
    R = PolyRing(("w", "x", "y", "z"))
    lcms = [tuple(map(max, u, v)) for u in ma for v in mb]
    want = _naive_minimal(lcms)
    assert MonomialIdeal(R, lcms).gens == want
    got = intersect(Ideal(R, [R.monomial(m) for m in ma]),
                    Ideal(R, [R.monomial(m) for m in mb]))
    key = sort_key(R.default_order, R)
    assert [g.leading_monomial() for g in got.generators] == sorted(
        want, key=key, reverse=True)


def test_monomial_ideal_rejects_out_of_range_exponents():
    R = PolyRing(("x", "y"))
    with pytest.raises(ExponentOverflow):
        MonomialIdeal(R, [(1 << 16, 0)])
    with pytest.raises(ValueError):
        MonomialIdeal(R, [(1, -1)])


def test_lk_intersection_identity():
    jm = join_meet_ideal(lk(3, 1))
    R = jm.ring
    a = jm.ideal.plus([R.var("x2") - R.var("y1")])
    b = jm.ideal.plus([R.var("z")])
    assert ideal_equal(intersect(a, b), jm.ideal)


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


def _saturate_by_elimination(I, f):
    R = I.ring
    ext = R.extend(["t"])
    t = ext.var("t")
    gens = [g.map_ring(ext) for g in I.generators]
    gens.append(ext.one() - t * f.map_ring(ext))
    ref = eliminate(Ideal(ext, gens), {"t"})
    return Ideal(R, [g.map_ring(R) for g in ref.generators])


def test_saturate_fast_path_matches_elimination():
    R = PolyRing(("x", "y", "z"))
    I = Ideal(R, ["x*y - z^2", "y^2 - x*z"])
    f = R.from_string("x*y")
    fast = saturate(I, f)  # homogeneous pure differences: variable route
    assert ideal_equal(fast, _saturate_by_elimination(I, f))


@pytest.mark.parametrize("lattice", [diamond_m3(), lk(3, 1)], ids=["M3", "Lk31"])
def test_saturate_by_all_variables_matches_elimination(lattice):
    # the ideals are not saturated, so some pass divides out its variable
    I = join_meet_ideal(lattice).ideal
    R = I.ring
    f = R.one()
    for v in R.variables:
        f = f * R.var(v)
    fast = saturate(I, f)
    assert not ideal_equal(fast, I)
    # the last pass saturates by the last variable under degrevlex with it
    # last, the default order, so it returns the reduced basis itself
    ref = _saturate_by_elimination(I, f)
    assert fast.generators == ref.groebner().basis


def _saturate_by_colon(I, f):
    """I : f^∞ as the fixed point of I : f, (I : f) : f, ..."""
    while True:
        J = colon(I, f)
        if ideal_equal(J, I):
            return I
        I = J


@pytest.mark.parametrize("gens,f,expected", [
    (["x*y - x"], "x", ["y - 1"]),  # a pure difference, not homogeneous
    (["x*y + y"], "x + 1", ["y"]),  # f not a monomial
    (["x^2*y + x*y^2 + y"], "y", ["x^2 + x*y + 1"]),
], ids=["inhomogeneous-difference", "binomial-f", "trinomial"])
def test_saturate_generic_route(gens, f, expected):
    R = PolyRing(("x", "y"))
    I, f = Ideal(R, gens), R.from_string(f)
    sat = saturate(I, f)
    assert ideal_equal(sat, Ideal(R, expected))
    assert ideal_equal(sat, _saturate_by_colon(I, f))


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
    assert krull_dim(MonomialIdeal(R2, [(1, 1)])) == 1
    jm = join_meet_ideal(lk(3, 1))
    assert krull_dim(initial_ideal(jm.ideal)) == 3


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
