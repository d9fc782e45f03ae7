import functools
import itertools
import math
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lattice_lab import (
    Ideal,
    IntersectionMismatch,
    NotPureDifference,
    NotSaturatedInput,
    PolyRing,
    PrimeComponent,
    certify_prime_component,
    colon,
    component_prime,
    degrevlex,
    dual,
    ideal_equal,
    ideal_member,
    initial_ideal,
    join_irreducibles,
    join_meet_ideal,
    krull_dim,
    lattice_from_json,
    lex,
    lk_suite,
    minimal_primes,
    radical_certificate,
    saturate,
    squarefree_order_scan,
)
from lattice_lab.errors import BadParameters, ExponentOverflow, PreconditionViolated
from lattice_lab.fixtures import (
    build_fixture,
    chain,
    diamond_m3,
    divisor_ladder,
    ladder,
    lattice_n,
    lattice_q,
    lattice_r,
    lk,
    pentagon_n5,
)
from lattice_lab import groebner, workflows
from lattice_lab.groebner import (
    MonomialIdeal,
    ReducedGB,
    _binomial_colons,
    buchberger,
    ideal_contains,
)
from lattice_lab.lattice import (
    basic_binomial_pairs,
    build_lattice,
    enumerate_admissible_sets,
    restrict_to_complement,
)
from lattice_lab.poly import MonomialOrder, Poly, compare, product, sort_key
from lattice_lab.snf import echelon_basis, smith_normal_form
from lattice_lab.workflows import (
    _colon_witness,
    _component_gens,
    _FLIP,
    _Cone,
    _cone_tables,
    _degree_three_seeds,
    _holds,
    _initial_ideals_certify,
    _intersect_all,
    _kept,
    _monomial_normal_forms,
    _order_tables,
    _prime_component,
    _rules,
    _scan_orders,
    _settling_stop,
    _sliced,
    _squarefree_under,
    _two_term_sides,
    _witness_search,
)

from conftest import (
    closure_lattices,
    count_engine_runs,
    distributive_corpus,
    product_lattice,
    radical_fixture_corpus,
    small_corpus,
)
from oracles import (
    certify_saturated_part,
    initial_ideals_certify_full,
    minimal_primes_all_pairs,
    radical_certificate_whole_bases,
    saturate_by_passes,
    scan_orders_uncached,
    witness_search_poly,
)


# -- join-meet ideal -----------------------------------------------------------

def test_chain_has_zero_ideal():
    assert not join_meet_ideal(chain(5)).generators
    assert not basic_binomial_pairs(chain(5))


def test_lk_generators_include_published_triple():
    jm = join_meet_ideal(lk(3, 1))
    R = jm.ring
    gens = set(jm.generators)
    for s in ("y1*z - x1*y2", "x2*z - x1*y2", "x2*y1 - x1*y2"):
        assert R.from_string(s) in gens


def test_q_basic_binomials(lattice_Q):
    jm = join_meet_ideal(lattice_Q)
    R = jm.ring
    expected = {R.from_string(s) for s in
                ("b*c - a*e", "c*d - a*g", "c*f - a*g", "d*e - b*g", "e*f - b*g")}
    assert set(jm.generators) == expected
    pairs = basic_binomial_pairs(lattice_Q)
    assert [p for p, _ in pairs] == lattice_Q.incomparable_pairs()
    assert list(jm.generators) == [
        R.monomial({a: 1, b: 1}) - R.monomial({c: 1, d: 1})
        for (a, b), (c, d) in pairs]


def test_generator_count_equals_incomparable_pairs():
    for name, L in small_corpus():
        jm = join_meet_ideal(L)
        assert len(jm.generators) == len(L.incomparable_pairs()), name


def test_dual_has_same_ideal():
    for L in (lk(3, 1), lattice_q(), lattice_n()):
        a = join_meet_ideal(L)
        b = join_meet_ideal(dual(L))
        assert set(a.generators) == set(b.generators)


# -- primality certification ------------------------------------------------------

def test_single_primitive_binomial_is_prime():
    R = PolyRing(("x", "y", "z", "w"))
    assert certify_prime_component(Ideal(R, ["x*y - z*w"]))
    # row (1, 1, -2, 0) has gcd 1, so its lattice is saturated
    assert certify_prime_component(Ideal(R, ["x*y - z^2"]))


def test_published_component_j_is_prime(lattice_Q):
    R = join_meet_ideal(lattice_Q).ring
    J = Ideal(R, ["a*e - b*c", "a*g - c*f", "b*g - e*f", "d - f"])
    assert certify_prime_component(J)


def test_ladder_with_diagonal_is_prime():
    for n in (2, 3, 4):
        jm = join_meet_ideal(ladder(n))
        I = jm.plus([jm.ring.var("x2") - jm.ring.var("y1")])
        assert certify_prime_component(I)


def test_non_pure_difference_rejected():
    R = PolyRing(("x", "y"))
    with pytest.raises(NotPureDifference):
        certify_prime_component(Ideal(R, ["x^2 + y"]))
    with pytest.raises(NotPureDifference):
        certify_prime_component(Ideal(R, ["x^2"]))  # monomial, not a variable


def test_variables_among_generators_are_split_off():
    R = PolyRing(("x", "y", "z", "w"))
    assert certify_prime_component(Ideal(R, ["z", "x*y - w^2"]))
    assert certify_prime_component(Ideal(R, ["2*z", "x*y - w^2"]))  # z up to a unit
    with pytest.raises(NotPureDifference):
        certify_prime_component(Ideal(R, ["x", "x*y - z*w"]))  # x in both


def test_inhomogeneous_part_is_saturated_by_elimination():
    # not homogeneous: the 1 - t*f elimination needs no grading
    R = PolyRing(("x", "y", "z"))
    assert certify_prime_component(Ideal(R, ["x - y^2"]))
    # saturated w.r.t. xyz, but its lattice 2Z(1,-1,-1) is not saturated
    assert not certify_prime_component(Ideal(R, ["x^2 - y^2*z^2"]))


def test_unsaturated_input_rejected():
    R = PolyRing(("x", "y", "z"))
    # x*(y - z) generates an ideal not saturated w.r.t. x
    with pytest.raises(NotSaturatedInput):
        certify_prime_component(Ideal(R, ["x*y - x*z"]))


def test_non_saturated_lattice_not_certified():
    R = PolyRing(("x", "y"))
    # x^2 - y^2 is saturated w.r.t. xy but its exponent lattice 2Z(1,-1)
    # is not saturated, so the ideal is not prime
    assert not certify_prime_component(Ideal(R, ["x^2 - y^2"]))


def test_prime_component_reads_certificate_and_dim_off_one_basis():
    # the generators are (z, x^2 - y^2): the certificate must skip the
    # variable z and still see the non-saturated lattice 2Z(1,-1,0)
    R = PolyRing(("x", "y", "z"))
    ideal = Ideal(R, ["z", "x^2 - y^2"])
    comp = _prime_component(("z",), ideal, _two_term_sides(ideal))
    assert not comp.certified_prime
    assert comp.dim == 1


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("spec", ["Q", "N5", "Lk:4:2"])
def test_component_prime_computes_no_basis_of_its_ring(monkeypatch, spec, char):
    """The certificate and the dimension come from the component's own
    generators.  The saturation's elimination calls buchberger on a list of
    generators, so only a basis of the component's ring would go through
    Ideal.groebner."""
    L = build_fixture(spec)
    sets = enumerate_admissible_sets(L)

    def facts():
        return [(c.certified_prime, c.dim, c.generators_text())
                for c in (component_prime(L, adm, char) for adm in sets)]

    want = facts()

    def refuse(self, order=None):
        raise AssertionError("a Groebner basis of the component's ring")

    monkeypatch.setattr(Ideal, "groebner", refuse)
    assert facts() == want


def _assert_generator_and_basis_rows_agree(L, char):
    """The nonzero invariant factors of the rows u - v of each minimal
    component's two-term generators equal those of its reduced basis's
    two-term elements: both span Λ_A."""
    def factors(polys):
        rows = [tuple(a - b for a, b in zip(*g.terms)) for g in polys
                if len(g.terms) == 2]
        return smith_normal_form(rows).nonzero_factors

    for c in minimal_primes(L, char, _verify=False):
        assert factors(c.ideal.generators) == factors(c.ideal.groebner().basis)


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("spec", ["Q", "R", "N", "M3", "N5", "Chain:3",
                                  "DivisorLadder:3", "Lk:3:1", "Lk:5:2", "Lk:6:3"])
def test_generator_and_basis_rows_give_one_smith_form(spec, char):
    _assert_generator_and_basis_rows_agree(build_fixture(spec), char)


@given(closure_lattices(), st.sampled_from([0, 32003]))
@settings(max_examples=60, deadline=None)
def test_generator_and_basis_rows_give_one_smith_form_on_closure_systems(L, char):
    _assert_generator_and_basis_rows_agree(L, char)


def test_distributive_fixtures_have_prime_saturation():
    # background oracle: for these lattices the saturated ideal is prime
    for name, L in distributive_corpus():
        comp = component_prime(L, ())
        assert comp.certified_prime, name


# -- component primes ----------------------------------------------------------------

def test_full_admissible_set_gives_maximal_ideal(lattice_Q):
    comp = component_prime(lattice_Q, tuple(lattice_Q.elements))
    R = comp.ideal.ring
    assert set(comp.ideal.generators) == {R.var(v) for v in lattice_Q.elements}
    assert comp.certified_prime and comp.dim == 0
    # components of variables alone, with survivors: a chain's one
    # survivor, and Q without c, e, g (a chain); each Smith form has no rows
    for char in (0, 32003):
        for lattice, adm, dim in ((chain(3), ("a", "b"), 1),
                                  (lattice_Q, ("c", "e", "g"), 4)):
            comp = component_prime(lattice, adm, char)
            assert comp.generators_text() == adm
            assert comp.certified_prime and comp.dim == dim


def test_empty_admissible_set_on_q_gives_j(lattice_Q):
    comp = component_prime(lattice_Q, ())
    R = comp.ideal.ring
    J = Ideal(R, ["a*e - b*c", "a*g - c*f", "b*g - e*f", "d - f"])
    assert ideal_equal(comp.ideal, J)
    assert comp.certified_prime


def test_paper_admissible_set_not_minimal(lattice_Q):
    comp = component_prime(lattice_Q, ("d", "f", "g"))
    base = component_prime(lattice_Q, ())
    assert comp.certified_prime
    assert ideal_contains(comp.ideal, base.ideal)
    assert not ideal_equal(comp.ideal, base.ideal)


# -- minimal primes ---------------------------------------------------------------------

def test_chain_single_zero_component():
    comps = minimal_primes(chain(4))
    assert len(comps) == 1
    assert not comps[0].ideal.generators
    assert comps[0].certified_prime and comps[0].dim == 4


def test_q_minimal_primes_match_published_list(lattice_Q):
    comps = minimal_primes(lattice_Q)
    R = comps[0].ideal.ring
    expected = [
        Ideal(R, ["a*e - b*c", "a*g - c*f", "b*g - e*f", "d - f"]),
        Ideal(R, [R.var(v) for v in "abce"]),
        Ideal(R, [R.var(v) for v in "ceg"]),
    ]
    assert len(comps) == 3
    for e in expected:
        assert any(ideal_equal(c.ideal, e) for c in comps)


def test_lk21_minimal_primes_match_expected_seven():
    from lattice_lab.workflows import lk_expected_primes

    L = lk(2, 1)
    jm = join_meet_ideal(L)
    comps = minimal_primes(L)
    expected = lk_expected_primes(2, 1, jm.ring, jm)
    assert len(comps) == 7
    used = set()
    for name, ideal in expected:
        hit = [c for c in comps if ideal_equal(c.ideal, ideal)]
        assert len(hit) == 1, name
        used.add(hit[0].admissible)
    assert len(used) == 7


def test_minimal_primes_postconditions(lattice_Q):
    for L in (lattice_Q, lk(2, 1)):
        jm = join_meet_ideal(L)
        comps = minimal_primes(L)
        for c in comps:
            assert c.certified_prime
            assert ideal_contains(c.ideal, jm)
        for a, b in itertools.permutations(comps, 2):
            assert not ideal_contains(b.ideal, a.ideal)


def test_minimal_primes_mismatch_for_non_radical():
    with pytest.raises(IntersectionMismatch):
        minimal_primes(lattice_n())


def test_dual_minimal_primes_agree(lattice_Q):
    ours = minimal_primes(lattice_Q)
    theirs = minimal_primes(dual(lattice_Q))
    assert len(ours) == len(theirs)
    for c in ours:
        assert any(ideal_equal(c.ideal, d.ideal) for d in theirs)


def _component_facts(components):
    return [(c.admissible, c.generators_text(), c.certified_prime, c.dim)
            for c in components]


def _assert_certificate_and_dim_match_fresh_bases(components):
    """The certificate and the dimension, read off each component's own
    generators, agree with ones computed from fresh bases."""
    for c in components:
        ring = c.ideal.ring
        binomials = [g for g in c.ideal.generators if len(g.terms) == 2]
        assert c.certified_prime == certify_saturated_part(ring, binomials)
        fresh = Ideal(ring, c.ideal.generators)
        assert c.dim == krull_dim(initial_ideal(fresh))


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("make", [
    pytest.param(lattice_q, id="Q"), pytest.param(lattice_r, id="R"),
    pytest.param(lattice_n, id="N"), pytest.param(diamond_m3, id="M3"),
    pytest.param(pentagon_n5, id="N5"),
    pytest.param(lambda: chain(4), id="Chain4"),
    pytest.param(lambda: divisor_ladder(3), id="DivisorLadder3"),
    pytest.param(lambda: product_lattice(ladder(2), chain(2)), id="B3"),
    pytest.param(lambda: dual(lattice_q()), id="dual(Q)"),
] + [pytest.param(lambda n=n, k=k: lk(n, k), id=f"Lk({n},{k})")
     for n in range(2, 7) for k in range(1, n)])
def test_minimal_primes_match_all_pairs_oracle(make, char):
    L = make()
    components = minimal_primes(L, char, _verify=False)
    assert (_component_facts(components)
            == _component_facts(minimal_primes_all_pairs(L, char)))
    _assert_certificate_and_dim_match_fresh_bases(components)


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("spec", ["Q", "R", "N", "Lk:5:2"])
def test_component_dim_is_krull_dim_on_every_admissible_set(spec, char):
    """The dimension read off the Smith form, |L| - |A| - rank Λ_A, equals
    the Krull dimension of a fresh basis's initial ideal on every
    admissible set, not only on the minimal ones."""
    L = build_fixture(spec)
    sets = enumerate_admissible_sets(L)
    assert len(sets) > len(minimal_primes(L, char, _verify=False))
    for adm in sets:
        c = component_prime(L, adm, char)
        fresh = Ideal(c.ideal.ring, c.ideal.generators)
        assert c.dim == krull_dim(initial_ideal(fresh))


@given(closure_lattices(), st.sampled_from([0, 32003]))
@settings(max_examples=150, deadline=None)
def test_minimal_primes_match_all_pairs_oracle_on_closure_systems(L, char):
    components = minimal_primes(L, char, _verify=False)
    assert (_component_facts(components)
            == _component_facts(minimal_primes_all_pairs(L, char)))
    _assert_certificate_and_dim_match_fresh_bases(components)


def _assert_basic_row_generators_lie_above(L, char):
    """Every two-term generator x^u - x^v of a minimal P_M whose row u - v
    is ± a basic row reduces to 0 modulo P_A, for every admissible A ⊇ M:
    the reason ``minimal_primes`` drops those generators from its
    domination test."""
    rows = set()
    for g in join_meet_ideal(L, char).generators:
        u, v = g.terms
        rows.add(tuple(a - b for a, b in zip(u, v)))
        rows.add(tuple(b - a for a, b in zip(u, v)))
    sets = [frozenset(a) for a in enumerate_admissible_sets(L)]
    bases = {}
    checked = 0
    for c in minimal_primes(L, char, _verify=False):
        gens = [g for g in c.ideal.generators if len(g.terms) == 2
                and tuple(a - b for a, b in zip(*g.terms)) in rows]
        for A in sets:
            if not gens or not A >= frozenset(c.admissible):
                continue
            if A not in bases:
                bases[A] = component_prime(L, A, char).ideal.groebner()
            for g in gens:
                assert not bases[A].reduce(g), (c.admissible, sorted(A), g)
                checked += 1
    return checked


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("spec", ["Q", "R", "N", "N5", "DivisorLadder:3",
                                  "Lk:4:2", "Lk:5:2"])
def test_basic_row_generators_lie_in_every_admissible_superset(spec, char):
    assert _assert_basic_row_generators_lie_above(build_fixture(spec), char)


@given(closure_lattices(), st.sampled_from([0, 32003]))
@settings(max_examples=60, deadline=None)
def test_basic_row_generators_lie_in_every_admissible_superset_on_closure_systems(
        L, char):
    _assert_basic_row_generators_lie_above(L, char)


@pytest.mark.parametrize("spec, bases", [("Lk:7:3", 31), ("Lk:10:5", 255)])
def test_minimal_primes_hermite_bases(monkeypatch, spec, bases):
    """A Hermite basis of Λ_A is built only for the sets that neither a
    component with basic-row generators alone nor a test without Λ_A
    settles; on Lk every one of them is the test against P_∅."""
    built = []

    def counting(rows):
        built.append(len(rows))
        return echelon_basis(rows)

    monkeypatch.setattr(workflows, "echelon_basis", counting)
    assert len(minimal_primes(build_fixture(spec), _verify=False)) == 7
    assert len(built) == bases


@pytest.mark.parametrize("name, runs", [
    pytest.param(name, runs, id=name)
    for name, runs in (("Q", 2), ("R", 6), ("Lk:6:3", 6), ("N", 12))])
@pytest.mark.parametrize("char", [0, 32003])
def test_minimal_primes_engine_runs(monkeypatch, name, runs, char):
    """Each saturation is one run, the elimination of 1 - t*f.  Each
    saturated candidate gets one basis, under the reversed order, which the
    verify step reads (the SNF certificate and the dimension read its
    generators).  The join-meet ideal adds no run: fiber walks decide
    whether in(I) holds the meet of the components' initial ideals.
    Monomial ideals never enter the pair loop.  Lk:6:3 is 6 runs (three
    saturations and three component bases): the reversed order, tried
    first, certifies every Lk, so the default-order component bases that
    the default pass needs are never built.  On N neither order
    certifies, so the default pass adds the component bases, and the
    colon witness of its third variable c decides: the bases under
    degrevlex with a, b and c last are three runs, and the intersection
    fold and its generic engine never run."""
    calls = count_engine_runs(monkeypatch)
    if name == "N":
        with pytest.raises(IntersectionMismatch):
            minimal_primes(build_fixture(name), char)
    else:
        minimal_primes(build_fixture(name), char)
    assert calls == {"_buchberger_core": runs, "_generic_buchberger": 0}


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("run, runs", [
    pytest.param(lambda char: radical_certificate(lattice_n(), char), 16,
                 id="radical-N"),
    pytest.param(lambda char: lk_suite(6, 3, char), 13, id="lk-6-3"),
    pytest.param(lambda char: lk_suite(4, 2, char), 13, id="lk-4-2"),
    pytest.param(lambda char: lk_suite(6, 1, char), 10, id="lk-6-1"),
])
def test_certify_verbs_run_no_generic_engine(monkeypatch, run, runs, char):
    """N's non-radicality is decided by its colon witness, whose bases the
    capped search's fallback reads again from the cache, and radical's
    squarefree family on N is one whole basis and three runs settled early.
    The lk suite's intersection identity is the meet of the initial ideals
    its earlier stages computed, so it runs no elimination and builds no
    basis of the meet.  The suite matches each
    component with its expected prime under the order whose basis the
    component caches, so it builds no component basis under the default
    order, and fiber walks decide the initial-ideal certificate, so the
    join-meet ideal gets no run for it.  No generic engine runs."""
    calls = count_engine_runs(monkeypatch)
    run(char)
    assert calls == {"_buchberger_core": runs, "_generic_buchberger": 0}


@pytest.mark.parametrize("char", [0, 32003])
def test_radical_n_walks_the_colons_once(monkeypatch, char):
    """N's components are all certified prime and the initial-ideal
    certificate fails on them, so the decomposition check walks the colons;
    that one walk's witness also bounds the witness search."""
    walks = []

    def counted(ideal):
        walks.append(ideal)
        return _colon_witness(ideal)

    monkeypatch.setattr(workflows, "_colon_witness", counted)
    assert radical_certificate(lattice_n(), char).verdict == "not_radical"
    assert len(walks) == 1


@pytest.mark.parametrize("char", [0, 32003])
def test_uncertified_component_keeps_the_answers(monkeypatch, char):
    """No fixture has a component that is not certified prime, so the ∅
    component is made to report one.  M3's certificate holds before any
    colon walk, so radical walks the colons itself and, with no
    decomposition to trust, ends inconclusive.  On N the check walks the
    colons, but their witness decides nothing without certified primes, so
    the fold decides the mismatch, and radical's search reads the same
    walk's witness as its bound."""
    prime_component = workflows._prime_component

    def uncertified(adm, ideal, sides):
        comp = prime_component(adm, ideal, sides)
        if adm:
            return comp
        return PrimeComponent(comp.admissible, comp.ideal, False, comp.dim)

    walks = []

    def counted(ideal):
        walks.append(ideal)
        return _colon_witness(ideal)

    monkeypatch.setattr(workflows, "_prime_component", uncertified)
    monkeypatch.setattr(workflows, "_colon_witness", counted)

    cert = radical_certificate(diamond_m3(), char)
    assert (cert.verdict, cert.route, len(walks)) == ("inconclusive", None, 1)
    walks.clear()
    cert = radical_certificate(lattice_n(), char)
    assert (cert.verdict, cert.route, len(walks)) == ("not_radical", "witness", 1)
    if char == 0:
        assert str(cert.witness) == "a*d*g*l - a*f*g*l"
    walks.clear()
    with pytest.raises(IntersectionMismatch):
        minimal_primes(lattice_n(), char)
    assert len(walks) == 1
    walks.clear()
    assert not all(c.certified_prime for c in minimal_primes(diamond_m3(), char))
    assert not walks


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("verb", ["radical", "primes"])
def test_fold9_is_decided_by_the_fold(monkeypatch, verb, char):
    """Neither order's initial-ideal certificate holds on this closure
    lattice and its colons give no witness, so the intersection fold
    verifies the decomposition (goldens radical_fold9, primes_fold9_char0)."""
    text = (Path(__file__).parent / "data" / "closure_fold9.json").read_text(
        encoding="utf-8")
    L = lattice_from_json(text)
    steps = []

    def watched(name):
        step = getattr(workflows, name)

        def run(*args):
            out = step(*args)
            steps.append((name, out))
            return out
        monkeypatch.setattr(workflows, name, run)

    route = ["_initial_ideals_certify", "_colon_witness", "_intersect_all"]
    for name in route:
        watched(name)
    if verb == "radical":
        assert radical_certificate(L, char).route == "prime_intersection"
    else:
        assert len(minimal_primes(L, char)) == 9
    assert [name for name, _ in steps] == route
    assert steps[0][1] is False and steps[1][1] is None


@pytest.mark.parametrize("char", [0, 32003])
def test_radical_certificate_builds_each_basis_once(monkeypatch, char):
    """R's squarefree-order family is one whole default-order basis of
    its join-meet ideal plus three runs settled at their first lead that
    is not squarefree.  The decomposition is six runs (three saturations
    and three component bases): fiber walks decide the initial-ideal
    certificate, so the join-meet ideal adds no run.  So the certificate
    makes 1 + 3 + 6."""
    calls = count_engine_runs(monkeypatch)
    assert radical_certificate(lattice_r(), char).route == "prime_intersection"
    assert calls["_buchberger_core"] == 10


def _certificate_facts(cert):
    return (cert.verdict, cert.route, cert.detail, str(cert.witness),
            [(c.admissible, c.certified_prime, c.dim) for c in cert.components])


@given(closure_lattices(), st.sampled_from([0, 32003]))
@settings(max_examples=40, deadline=None)
def test_settled_family_runs_match_whole_initial_ideals(L, char):
    """Each order of radical's squarefree family gives the verdict of a
    whole initial ideal, on ideals that cache no basis, and the certificate
    equals the one made on whole bases throughout."""
    ring = join_meet_ideal(L, char).ring
    rev = tuple(reversed(ring.variables))
    for order in (ring.default_order, lex(ring.variables), degrevlex(rev), lex(rev)):
        whole = initial_ideal(join_meet_ideal(L, char), order)
        assert _squarefree_under(join_meet_ideal(L, char), order) == whole.is_squarefree()
    assert (_certificate_facts(radical_certificate(L, char))
            == _certificate_facts(radical_certificate_whole_bases(L, char)))


def _certificate_against_fold(L, char):
    """The initial-ideal certificate's verdict on L's decomposition, which
    must equal the two-pass full-basis oracle's, run on ideals of its own so
    that neither reads a basis the other cached; it is checked against the
    intersection fold whenever it holds, and is None when a component is
    the zero ideal and the fold does not apply."""
    def fresh():
        jm = join_meet_ideal(L, char)
        return jm, [c.ideal for c in minimal_primes(L, char, _verify=False)]

    ideal, parts = fresh()
    certified = _initial_ideals_certify(ideal, parts)
    assert certified == initial_ideals_certify_full(*fresh())
    if not all(p.generators for p in parts):
        return None
    if certified:
        assert ideal_equal(_intersect_all(parts), ideal)
    return certified


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("spec", [
    "Chain:4", "M3", "N5", "DivisorLadder:3", "Q", "R",
] + [f"Lk:{n}:{k}" for n in range(2, 7) for k in range(1, n)])
def test_initial_ideal_certificate_agrees_with_fold(spec, char):
    """Every radical bundled fixture is certified, and the full-basis
    oracle and the fold agree."""
    want = None if spec.startswith("Chain") else True
    assert _certificate_against_fold(build_fixture(spec), char) is want


@given(closure_lattices(), st.sampled_from([0, 32003]))
@settings(max_examples=100, deadline=None)
def test_initial_ideal_certificate_agrees_with_fold_on_closure_systems(L, char):
    _certificate_against_fold(L, char)


@pytest.mark.parametrize("char", [0, 32003])
def test_initial_ideal_certificate_fails_on_non_radical_n(char):
    """N is not radical: neither order certifies, and the colon witness
    raises instead."""
    assert _certificate_against_fold(lattice_n(), char) is False
    with pytest.raises(IntersectionMismatch):
        minimal_primes(lattice_n(), char)


@pytest.mark.parametrize("char", [0, 32003])
def test_primes_lk_never_builds_the_default_order_basis(monkeypatch, char):
    """The reversed order, tried first, certifies Lk:6:3, so no pair loop
    runs under the default order: neither I's basis nor a component's."""
    orders = []
    core = groebner._buchberger_core

    def watched(ctx, *args, **kwargs):
        orders.append(ctx.order)
        return core(ctx, *args, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger_core", watched)
    L = build_fixture("Lk:6:3")
    assert len(minimal_primes(L, char)) == 7
    default = join_meet_ideal(L, char).ring.default_order
    assert orders and default not in orders


def _refuse(self):
    raise AssertionError("a Poly basis was built")


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("spec", ["Q", "R", "Lk:6:3"])
def test_certificate_builds_no_poly_basis(monkeypatch, spec, char):
    """The certificate reads initial ideals off the engine's own elements
    and reduces I's generators by the cached component bases: no basis is
    turned into Polys."""
    L = build_fixture(spec)
    ideal = join_meet_ideal(L, char)
    parts = [c.ideal for c in minimal_primes(L, char, _verify=False)]
    monkeypatch.setattr(ReducedGB, "basis", property(_refuse))
    assert _initial_ideals_certify(ideal, parts)


@pytest.mark.parametrize("make", [
    pytest.param(lattice_q, id="Q"), pytest.param(lattice_r, id="R"),
    pytest.param(lambda: lk(5, 2), id="Lk(5,2)"),
])
def test_admissible_sets_give_distinct_component_bases(make):
    """The variables in P_A are exactly those of A, so distinct admissible
    sets never share a reduced basis and need no deduplication."""
    L = make()
    ring = join_meet_ideal(L).ring
    bases = [buchberger(_component_gens(L, adm, ring), ring=ring).basis
             for adm in enumerate_admissible_sets(L)]
    assert len(set(bases)) == len(bases)


def test_lk_10_5_has_seven_components():
    for (n, k), dims in (((10, 5), [6, 6, 6, 6, 10, 10, 10]),
                         ((12, 6), [7, 7, 7, 7, 12, 12, 12])):
        comps = minimal_primes(lk(n, k))
        assert sorted(c.dim for c in comps) == dims, (n, k)


# -- admissible restriction matches the variable-killing image ----------------------------

def test_restriction_ideal_is_zeroed_image():
    for name, L in small_corpus():
        if len(L.elements) > 10:
            continue
        jm = join_meet_ideal(L)
        for adm in enumerate_admissible_sets(L):
            if len(adm) in (0, len(L.elements)):
                continue
            sub = restrict_to_complement(L, adm)
            sub_jm = join_meet_ideal(sub)
            images = [
                g.zero_out(adm).map_ring(sub_jm.ring)
                for g in jm.generators
            ]
            images = [g for g in images if g]
            assert ideal_equal(Ideal(sub_jm.ring, images), sub_jm), (
                name, adm)


# -- dimension facts -------------------------------------------------------------------

def test_distributive_dimension_formula():
    for name, L in distributive_corpus():
        jm = join_meet_ideal(L)
        dim = krull_dim(initial_ideal(jm))
        assert dim == len(join_irreducibles(L)) + 1, name


# -- saturation against the Bayer–Stillman pass chain ---------------------------------------

def _assert_saturations_match_passes(L, char):
    """Every complement ideal that ``minimal_primes`` saturates gives the
    pass chain's generators, in the same order."""
    calls = []

    def recording(ideal, f):
        sat = saturate(ideal, f)
        calls.append((ideal, f, sat))
        return sat

    with mock.patch.object(workflows, "saturate", recording):
        minimal_primes(L, char, _verify=False)
    for ideal, f, sat in calls:
        assert sat.generators == saturate_by_passes(ideal, f).generators
    return len(calls)


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("spec", ["Q", "R", "N", "N5", "Lk:6:3", "Lk:8:4"])
def test_saturate_matches_pass_chain_on_fixtures(spec, char):
    _assert_saturations_match_passes(build_fixture(spec), char)


@given(closure_lattices(), st.sampled_from([0, 32003]))
@settings(max_examples=100, deadline=None)
def test_saturate_matches_pass_chain_on_closure_systems(L, char):
    _assert_saturations_match_passes(L, char)


# -- colon equals saturation on radical fixtures -------------------------------------------

def test_colon_equals_saturation_on_radical_fixtures():
    for name, L in radical_fixture_corpus():
        jm = join_meet_ideal(L)
        if not jm.generators:
            continue
        prod = product([jm.ring.var(v) for v in jm.ring.variables], jm.ring)
        c = colon(jm, prod)
        s = saturate(jm, prod)
        assert ideal_equal(c, s), name
        assert ideal_contains(c, jm), name


# -- radicality certificates -----------------------------------------------------------

def test_q_certificate_radical_via_squarefree(lattice_Q):
    cert = radical_certificate(lattice_Q)
    assert cert.is_radical and cert.route == "squarefree_order"


def test_distributive_fixtures_radical():
    for name, L in distributive_corpus():
        assert radical_certificate(L).is_radical, name


def test_n_certificate_not_radical_with_published_witness(lattice_N):
    cert = radical_certificate(lattice_N)
    assert cert.verdict == "not_radical"
    assert str(cert.witness) == "a*d*g*l - a*f*g*l"


def test_r_certificate_radical_via_prime_intersection(lattice_R):
    cert = radical_certificate(lattice_R)
    assert cert.is_radical
    assert cert.route == "prime_intersection"
    assert all(c.certified_prime for c in cert.components)


def test_m3_certificate_reports_a_definite_verdict():
    # not asserted in the source material; report whatever the machinery finds
    cert = radical_certificate(diamond_m3())
    assert cert.verdict in ("radical", "not_radical", "inconclusive")


@pytest.mark.parametrize("bound", [0, -3])
def test_radical_certificate_rejects_degree_bound_below_one(lattice_N, bound):
    with pytest.raises(PreconditionViolated):
        radical_certificate(lattice_N, degree_bound=bound)


def test_radical_certificate_honours_small_degree_bound(lattice_N):
    cert = radical_certificate(lattice_N, degree_bound=3)
    assert cert.verdict == "inconclusive"
    assert cert.detail.endswith("no witness up to degree 3")


@given(closure_lattices(), st.sampled_from([0, 32003]))
@settings(max_examples=30, deadline=None)
def test_certificate_witness_lies_in_the_radical_on_closure_systems(L, char):
    cert = radical_certificate(L, char)
    if cert.verdict == "not_radical":
        I = join_meet_ideal(L, char)
        w = cert.witness
        assert not ideal_member(w, I)
        assert ideal_member(w ** 2, I) or ideal_member(w ** 4, I)


# -- colon witnesses ----------------------------------------------------------------------

def _colons_match_colon(L, char):
    """Check both one-basis colons of every variable against ``colon``, and
    the colon witness against membership; return the witness."""
    I = join_meet_ideal(L, char)
    ring = I.ring
    for i, v in enumerate(ring.variables):
        x = ring.var(v)
        ctx, colon1, colon2 = _binomial_colons(I, i)
        once = colon(I, x)
        assert ideal_equal(Ideal(ring, ReducedGB(ctx, binomial=colon1).basis), once)
        assert ideal_equal(Ideal(ring, ReducedGB(ctx, binomial=colon2).basis),
                           colon(once, x))
    w = _colon_witness(I)
    if w is not None:
        assert not ideal_member(w, I)
        assert ideal_member(w * w, I)
    return w


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("spec", ["N", "R", "Q", "Lk:4:2"])
def test_colon_bases_match_colon_on_fixtures(spec, char):
    """Only N is not radical; its first variable with I : x ≠ I : x² is c."""
    w = _colons_match_colon(build_fixture(spec), char)
    if spec == "N":
        assert w == w.ring.from_string("b*c*g*l - a*c*l^2")
    else:
        assert w is None


@given(closure_lattices(), st.sampled_from([0, 32003]))
@settings(max_examples=30, deadline=None)
def test_colon_bases_match_colon_on_closure_systems(L, char):
    _colons_match_colon(L, char)


# -- the witness search against the Poly oracle ----------------------------------------

def _same_witness(L, jm, bound, power_cap):
    got = _witness_search(L, jm, bound, power_cap)
    want = witness_search_poly(L, jm, bound, power_cap)
    assert (got is None) == (want is None)
    assert str(got) == str(want)
    return got


# (fixture, char, power_cap, degree bound); on N bound 3 exhausts both rounds
_WITNESS_CASES = [
    ("N", 32003, 2, 3), ("N", 0, 4, 4), ("N", 32003, 4, 5), ("N", 32003, 8, 6),
    ("N", 0, 2, 6), ("M3", 0, 8, 3), ("M3", 32003, 4, 4), ("N5", 32003, 8, 3),
    ("N5", 0, 2, 4), ("Chain:4", 0, 4, 4), ("Chain:4", 32003, 8, 3),
    ("Lk:3:1", 0, 2, 3), ("Lk:3:1", 0, 4, 3), ("Lk:3:1", 32003, 8, 3),
]


@pytest.mark.parametrize("name, char, power_cap, bound", _WITNESS_CASES)
def test_witness_search_matches_poly_oracle(name, char, power_cap, bound):
    L = build_fixture(name)
    got = _same_witness(L, join_meet_ideal(L, char), bound, power_cap)
    if name == "N":
        assert (got is None) == (bound == 3)


# (degree bound, power cap); the Poly oracle takes seconds at (4, 8)
_CLOSURE_BOUNDS = [(b, c) for b in (2, 3, 4) for c in (2, 4, 8) if b * c < 32]


@given(closure_lattices(max_elements=7), st.sampled_from([0, 32003]),
       st.sampled_from(_CLOSURE_BOUNDS))
@settings(max_examples=15, deadline=None)
def test_witness_search_matches_poly_oracle_on_closure_systems(L, char, bounds):
    _same_witness(L, join_meet_ideal(L, char), *bounds)


def _capped_search_inputs(L, char, bound):
    """The join-meet ideal, the cap and the certified components with which
    ``radical_certificate`` runs the witness search."""
    jm = join_meet_ideal(L, char)
    primes = [c for c in minimal_primes(L, char, _verify=False)
              if c.certified_prime]
    w = _colon_witness(jm)
    return jm, bound if w is None else min(bound, w.total_degree()), primes


def _capped_prefiltered_search(L, char, bound):
    """The search as ``radical_certificate`` runs it, beside the Poly
    oracle's search under the same cap."""
    jm, cap, primes = _capped_search_inputs(L, char, bound)
    got = _witness_search(L, jm, cap, 4, primes)
    want = witness_search_poly(L, jm, cap, 4)
    assert str(got) == str(want)
    return got


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("bound", [3, 4, 6])
def test_prefiltered_capped_search_matches_poly_oracle_on_n(char, bound):
    got = _capped_prefiltered_search(lattice_n(), char, bound)
    assert (got is None) == (bound == 3)


@given(closure_lattices(max_elements=7), st.sampled_from([0, 32003]),
       st.sampled_from([2, 3, 4]))
@settings(max_examples=15, deadline=None)
def test_prefiltered_capped_search_matches_poly_oracle_on_closure_systems(
        L, char, bound):
    _capped_prefiltered_search(L, char, bound)


@given(closure_lattices(max_elements=9), st.sampled_from([0, 32003]),
       st.sampled_from([2, 3, 4]))
@settings(max_examples=25, deadline=None)
def test_component_filter_keeps_the_unfiltered_witness(L, char, bound):
    """Certified components drop only candidates outside √I, so the capped
    search returns what it returns with no components."""
    jm, cap, primes = _capped_search_inputs(L, char, bound)
    assert (str(_witness_search(L, jm, cap, 4, primes))
            == str(_witness_search(L, jm, cap, 4, primes=())))


@pytest.mark.parametrize("char", [0, 32003])
def test_radical_n_takes_few_candidates_to_normal_forms(monkeypatch, char):
    """Of N's 707 round-one candidates up to its witness, 96 lie in every
    certified component and reach a normal form."""
    candidates = workflows._witness_candidates
    seen = []

    def counted(*args):
        for pair in candidates(*args):
            seen.append(pair)
            yield pair

    monkeypatch.setattr(workflows, "_witness_candidates", counted)
    cert = radical_certificate(lattice_n(), char)
    assert cert.detail == "witness found at degree 4"
    assert len(seen) == 96
    seen.clear()
    jm = join_meet_ideal(lattice_n(), char)
    assert str(_witness_search(lattice_n(), jm, 4, 4)) == str(cert.witness)
    assert len(seen) == 707


def test_witness_search_power_overflow_raises():
    # over GF(2) each square of a two-term difference has two terms, so the
    # powers of the first candidate reach the field width quickly
    L = chain(2)
    with pytest.raises(ExponentOverflow):
        _witness_search(L, join_meet_ideal(L, 2), 2, 1 << 14)


def _round_two_lattice():
    """A six-element closure lattice whose witness only round two finds."""
    return build_lattice(
        ["s0", "s1", "s18", "s22", "s31", "s4"],
        [("s0", "s1"), ("s0", "s18"), ("s0", "s4"), ("s1", "s31"),
         ("s18", "s22"), ("s22", "s31"), ("s4", "s22")])


@pytest.mark.parametrize("char, witness, colon_witness", [
    (0, "s1^2*s4 - s1*s31*s4", "s0*s1*s31 - s0*s31^2"),
    (32003, "s1^2*s4 + 32002*s1*s31*s4", "s0*s1*s31 + 32002*s0*s31^2"),
])
def test_radical_certificate_takes_a_round_two_witness(char, witness, colon_witness):
    """The witness trades s1 for s31 above it, not for an incomparable
    partner, so round one never proposes it; it comes before the colon
    witness of the same degree."""
    L = _round_two_lattice()
    assert {"s1", "s31"} not in [set(p) for p in L.incomparable_pairs()]
    cert = radical_certificate(L, char)
    assert (cert.verdict, cert.route) == ("not_radical", "witness")
    assert str(cert.witness) == witness
    assert cert.detail == "witness found at degree 3"
    jm = join_meet_ideal(L, char)
    assert str(_colon_witness(jm)) == colon_witness
    assert str(_same_witness(L, jm, 3, 4)) == witness


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("name, bound", [("N", 3), ("N", 4), ("round two", 3)])
def test_witness_search_builds_only_its_witness(name, bound, char, monkeypatch):
    """Candidates stay packed: the one Poly the search builds is the witness
    it returns, and standard monomials are read off their normal forms, not
    off the initial ideal."""
    L = lattice_n() if name == "N" else _round_two_lattice()
    jm = join_meet_ideal(L, char)
    jm.groebner()
    built = []
    init = Poly.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def unused(*args, **kwargs):
        raise AssertionError("the search reads no initial ideal")

    monkeypatch.setattr(Poly, "__init__", counted)
    monkeypatch.setattr(workflows, "initial_ideal", unused)
    w = _witness_search(L, jm, bound, 4)
    monkeypatch.undo()
    assert (w is None) == (name == "N" and bound == 3)
    assert built == ([] if w is None else [w])


@functools.lru_cache(maxsize=None)
def _nf_basis(name, char, variant):
    """Reduced basis of a join-meet ideal under the default order, under lex
    with the priority reversed, or plus the monomial of the first three
    variables (so that some normal forms are 0)."""
    jm = join_meet_ideal(build_fixture(name), char)
    ring = jm.ring
    if variant == "lex-reversed":
        return ring, jm.groebner(lex(tuple(reversed(ring.variables))))
    if variant == "plus-monomial":
        cube = ring.monomial(tuple(int(i < 3) for i in range(ring.nvars)))
        return ring, buchberger(jm.generators + (cube,), ring=ring)
    return ring, jm.groebner()


@given(st.sampled_from(["N", "Q", "R", "M3"]), st.sampled_from([0, 32003]),
       st.sampled_from(["default", "lex-reversed", "plus-monomial"]), st.data())
@settings(max_examples=150, deadline=None)
def test_monomial_normal_forms_multiply_and_match_reduce(name, char, variant, data):
    ring, gb = _nf_basis(name, char, variant)
    ctx = gb._ctx
    nf = _monomial_normal_forms(gb)
    mono = st.tuples(*[st.integers(0, 3)] * ring.nvars)
    u, v = data.draw(mono), data.draw(mono)
    uv = tuple(a + b for a, b in zip(u, v))
    a, b, ab = (nf(*ctx.key_pack(m)) for m in (u, v, uv))
    if a is None or b is None:
        assert ab is None
    else:
        assert ab == nf(a[0] + b[0], a[1] + b[1])
    for m, r in ((u, a), (v, b), (uv, ab)):
        reduced = gb.reduce(ring.monomial(m))
        if r is None:
            assert not reduced
        else:
            assert r[0] == ctx.key_packed(r[1])
            assert reduced == ring.monomial(ctx.unpack(r[1]))
        assert nf(*ctx.key_pack(m)) == r


# -- squarefree order scan ----------------------------------------------------------------

def test_scan_chain_vacuously_squarefree():
    rep = squarefree_order_scan(chain(4))
    assert rep.exhaustive
    assert rep.any_squarefree
    assert rep.total_orders == 48
    assert all(c["squarefree"] == c["orders"] for c in rep.counts.values())


def test_scan_q_lex_identity_is_squarefree(lattice_Q):
    rep = squarefree_order_scan(lattice_Q, kinds=("lex",))
    assert rep.any_squarefree
    assert rep.witness_kind == "lex"
    assert rep.witness_priority == tuple("abcdefg")


def test_scan_lk21_exhaustive_no_squarefree():
    rep = squarefree_order_scan(lk(2, 1))
    assert rep.exhaustive
    assert rep.total_orders == 240
    assert not rep.any_squarefree


def test_scan_sampled_is_seeded_and_deterministic(lattice_N):
    a = squarefree_order_scan(lattice_N, exhaustive=False, sample=40, seed=5)
    b = squarefree_order_scan(lattice_N, exhaustive=False, sample=40, seed=5)
    assert a == b
    assert a.total_orders == 80
    assert not a.any_squarefree


def _boolean_cube():
    """B3 = B2 x chain(2): lex squarefree under most but not all orders."""
    return product_lattice(ladder(2), chain(2))


def _cube_without_a_coatom():
    """B3 with the coatom {2, 3} removed, as a closure system on {0, 1, 2, 3}
    (s<bits>): of its 5,040 orders, 3,324 are squarefree under lex and
    3,240 under degrevlex, and they meet 68 initial ideals."""
    return build_lattice(
        ["s0", "s10", "s15", "s2", "s4", "s6", "s8"],
        [("s0", "s2"), ("s0", "s4"), ("s0", "s8"), ("s2", "s6"), ("s2", "s10"),
         ("s4", "s6"), ("s8", "s10"), ("s6", "s15"), ("s10", "s15")])


_BOTH = ("lex", "degrevlex")


# each case: lattice, kinds, ("full",) | ("sample", count, seed) |
# ("prefix", count)
_ORACLE_CASES = [
    pytest.param(lambda: lk(2, 1), _BOTH, ("full",), id="Lk21-full"),
    pytest.param(lattice_q, _BOTH, ("full",), id="Q-full"),
    pytest.param(lattice_q, ("lex",), ("full",), id="Q-full-lex"),
    pytest.param(_cube_without_a_coatom, _BOTH, ("full",),
                 id="B3-minus-coatom-full"),
    pytest.param(lattice_n, _BOTH, ("sample", 100, 3), id="N-sample"),
    pytest.param(lattice_r, _BOTH, ("sample", 100, 5), id="R-sample"),
    # most orders settle on degree-three seeds and fiber cones
    pytest.param(lattice_r, _BOTH, ("sample", 200, 7), id="R-sample-200"),
    pytest.param(_boolean_cube, ("lex",), ("sample", 100, 1),
                 id="B3-sample-lex"),
    # the first lex order is not squarefree, the first degrevlex one is: the
    # witness is the first squarefree order of the scan, of either kind
    pytest.param(_boolean_cube, _BOTH, ("sample", 100, 38),
                 id="B3-stop-on-first"),
    pytest.param(lattice_n, _BOTH, ("prefix", 20000), id="N-prefix-20k",
                 marks=pytest.mark.slow),
]


def _sampled(n, count, seed):
    """The permutations of a sampled scan, by squarefree_order_scan's recipe."""
    rng = random.Random(seed)
    return [tuple(rng.sample(range(n), n)) for _ in range(count)]


def _verdicts(rep):
    """(counts, witness) of a ScanReport, as the oracle gives them."""
    witness = (rep.witness_kind, rep.witness_priority) if rep.any_squarefree \
        else None
    return rep.counts, witness


@pytest.mark.parametrize("make, kinds, perms", _ORACLE_CASES)
def test_scan_cone_cache_matches_uncached_oracle(make, kinds, perms):
    """A sampled scan settles non-squarefree orders at their first
    non-squarefree lead, so it reports no count of distinct initial
    ideals; full and prefix scans match all three figures."""
    lattice = make()
    n = len(lattice.elements)
    if perms[0] == "prefix":
        ps = list(itertools.islice(itertools.permutations(range(n)), perms[1]))
        counts, witness, distinct = _scan_orders(lattice, kinds, ps, 0)
    else:
        if perms[0] == "full":
            ps = itertools.permutations(range(n))
            options = dict(exhaustive=True)
        else:
            _, count, seed = perms
            ps = _sampled(n, count, seed)
            options = dict(exhaustive=False, sample=count, seed=seed)
        rep = squarefree_order_scan(lattice, kinds=kinds, **options)
        counts, witness = _verdicts(rep)
        distinct = rep.distinct_initial_ideals
    want = scan_orders_uncached(lattice, kinds, ps, 0)
    if perms[0] == "sample":
        want = (*want[:2], None)
    assert (counts, witness, distinct) == want


@given(closure_lattices(), st.sampled_from([0, 32003]),
       st.sampled_from([("lex",), ("degrevlex",), _BOTH, _BOTH[::-1]]),
       st.integers(0, 1 << 20))
@settings(max_examples=100, deadline=None)
def test_sampled_scan_matches_uncached_oracle_on_closure_systems(L, char, kinds,
                                                                 seed):
    """Negative cones (``_Cone``) never change a verdict: the counts and the
    witness of a sampled scan are the whole-basis oracle's."""
    count = 30
    rep = squarefree_order_scan(L, kinds=kinds, exhaustive=False, sample=count,
                                seed=seed, char=char)
    ps = _sampled(len(L.elements), count, seed)
    assert _verdicts(rep) == scan_orders_uncached(L, kinds, ps, char)[:2]


def test_sampled_scan_runs_stop_at_the_first_non_squarefree_lead(monkeypatch,
                                                                  lattice_R):
    """No order of R is squarefree, so every run of a sampled scan ends at
    its hook: 11 runs for R's 200 sampled orders (seed 5), forming 414
    S-elements where the whole reduced bases form 13,701.  The degree-three
    seeds settle every order whose in(I) has a minimal generator of degree
    three that is not squarefree before any run, and the fiber cone of a
    run's lead holds every order under which that lead is a minimal
    generator of in(I), so few orders need a run of their own."""
    calls = {"runs": 0, "stopped": 0, "s_elements": 0}
    core, s_element = groebner._buchberger_core, groebner._bin_s_element

    def run(*args, **kwargs):
        calls["runs"] += 1
        kept = core(*args, **kwargs)
        calls["stopped"] += kept is None
        return kept

    def formed(*args):
        calls["s_elements"] += 1
        return s_element(*args)

    monkeypatch.setattr(groebner, "_buchberger_core", run)
    monkeypatch.setattr(groebner, "_bin_s_element", formed)
    rep = squarefree_order_scan(lattice_R, exhaustive=False, sample=100, seed=5)
    assert not rep.any_squarefree and rep.total_orders == 200
    assert calls == {"runs": 11, "stopped": 11, "s_elements": 414}


@st.composite
def _ordered_pairs(draw):
    """A priority of n variables and two exponent tuples of one degree,
    equal ones included."""
    n = draw(st.integers(1, 7))
    degree = draw(st.integers(0, 6))
    picks = st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree)
    a, b = (tuple(map(draw(picks).count, range(n))) for _ in "ab")
    return draw(st.permutations(range(n))), a, b


def _reading(kind, perm):
    """The order in which the ``kind`` order with priority ``perm`` reads
    the variables: the priority under lex, reversed under degrevlex."""
    return perm if kind == "lex" else perm[::-1]


def _cone_of(pairs):
    """A cone whose only rules are those of the (above, below) ``pairs``,
    all of which it keeps."""
    return _Cone(len(pairs[0][0]), pairs)


@given(_ordered_pairs())
def test_rules_rank_pairs_of_one_degree_as_compare_does(case):
    """The scan's one order rule (``_rules``, read by ``_Cone.contains`` in
    the reading order) must rank a pair of one degree, both ways round, as
    ``compare`` does under the same order, under both kinds.  Equal tuples
    have an empty support, and no order keeps either way round."""
    perm, a, b = case
    ring = PolyRing([f"x{i}" for i in range(len(perm))])
    for kind in ("lex", "degrevlex"):
        order = MonomialOrder(kind, tuple(ring.variables[i] for i in perm))
        sign = compare(order, ring, a, b)
        kept = tuple(_cone_of([pair]).contains(kind, _reading(kind, perm))
                     for pair in ((a, b), (b, a)))
        assert kept == (sign > 0, sign < 0)
    if a == b:
        assert _rules([(a, b)]) == [(0, 0)]


_FIBER_LATTICES = st.one_of(st.sampled_from([lattice_n, lattice_r, diamond_m3])
                           .map(lambda make: make()), closure_lattices())


def _fibers(jm, order=None):
    """The fiber components (``groebner._Fibers``) of the join-meet ideal's
    moves, packed by the context of ``order``, the default one if None."""
    ring = jm.ring
    ctx = (groebner._default_ctx(ring) if order is None
           else groebner._Ctx(ring, order))
    return groebner._Fibers(ctx, groebner._binomial_elements(ctx, jm.generators))


def _drawn_order(ring, kind, rnd):
    perm = tuple(rnd.sample(range(ring.nvars), ring.nvars))
    return perm, MonomialOrder(kind, tuple(ring.variables[i] for i in perm))


@given(_FIBER_LATTICES, st.sampled_from(["lex", "degrevlex"]),
       st.sampled_from([0, 32003]), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_standard_monomials_are_the_least_of_their_fiber_components(L, kind, char,
                                                                    rnd):
    """I is spanned in each degree by differences along moves, so a monomial
    of degree 2 to 4 lies outside in(I) exactly when it is the least of its
    fiber component (``groebner._Fibers``); in(I) comes from a whole reduced
    basis, and the least by the order's own key (``sort_key``).  The
    certificate's stopping walk, in the order's own packing and by its
    packed key, reaches a smaller key from m exactly when m is not the
    least of the component the scan reads."""
    jm = join_meet_ideal(L, char)
    ring = jm.ring
    _, order = _drawn_order(ring, kind, rnd)
    ini = initial_ideal(jm, order)
    key = sort_key(order, ring)
    fibers = _fibers(jm)
    ctx = fibers.ctx
    walker = _fibers(jm, order)
    there, below = walker.ctx.repacker(ctx), walker.ctx.key_packed
    for degree in (2, 3, 4):
        left = {ctx.pack(tuple(map(c.count, range(ring.nvars))))
                for c in itertools.combinations_with_replacement(range(ring.nvars),
                                                                 degree)}
        while left:
            packed = fibers.component(left.pop())
            left -= packed
            component = [ctx.unpack(p) for p in packed]
            least = min(component, key=key)
            assert [v for v in component if not ini.contains(v)] == [least]
            for p, v in zip(packed, component):
                top = below(there(p))
                assert any(below(c) < top for c in walker.walk(there(p))) is (
                    v != least)


def _stopping_lead(jm, kind, perm):
    """The lead, as an exponent tuple, at which a sampled scan's run under
    the order stops, or None when the run ends with a whole reduced basis."""
    ring = jm.ring
    ctx = groebner._Ctx(ring, MonomialOrder(kind, tuple(ring.variables[i] for i in perm)))
    elements = [(*ctx.key_pack(a), *ctx.key_pack(b))
                for a, b in (tuple(g.terms) for g in jm.generators)]
    stash = []
    if groebner._binomial_buchberger(ctx, elements,
                                     stop=_settling_stop(ctx, stash)) is not None:
        return None
    return ctx.unpack(stash[0][1])


@given(_FIBER_LATTICES, st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_negative_cone_holds_its_own_order_and_only_orders_it_settles(L, rnd):
    """The fiber cone (``_Cone.settled``) of a settled run's stopping lead
    m is exact: it holds a drawn order, the run's own among them, exactly
    when m is a minimal generator of the in(I) of a whole reduced basis
    under that order."""
    jm = join_meet_ideal(L)
    ring = jm.ring
    fibers = _fibers(jm)
    drawn = [(kind, *_drawn_order(ring, kind, rnd))
             for _ in range(12) for kind in ("lex", "degrevlex")]
    for kind, perm, _ in drawn:
        m = _stopping_lead(jm, kind, perm)
        if m is None:
            continue
        cone = _Cone.settled(fibers.ctx.pack(m), fibers)
        assert cone.contains(kind, _reading(kind, perm))
        for other, operm, order in drawn:
            assert cone.contains(other, _reading(other, operm)) == (
                m in initial_ideal(jm, order).gens)


def _assert_seeds_hold_the_cubic_non_squarefree_generators(L, char, rnd, draws):
    """Under each drawn order of either kind, the degree-three seeds whose
    fiber cones hold it (``_degree_three_seeds``) are exactly the minimal
    generators of degree three that are not squarefree of the in(I) of a
    whole reduced basis."""
    jm = join_meet_ideal(L, char)
    ring = jm.ring
    fibers = _fibers(jm)
    seeds = {m: _Cone.settled(fibers.ctx.pack(m), fibers)
             for m in _degree_three_seeds([tuple(g.terms) for g in jm.generators])}
    for _ in range(draws):
        for kind in ("lex", "degrevlex"):
            perm, order = _drawn_order(ring, kind, rnd)
            held = {m for m, cone in seeds.items()
                    if cone.contains(kind, _reading(kind, perm))}
            assert held == {m for m in initial_ideal(jm, order).gens
                            if sum(m) == 3 and max(m) > 1}


@given(closure_lattices(), st.sampled_from([0, 32003]),
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_degree_three_seeds_that_hold_are_the_cubic_generators(L, char, rnd):
    _assert_seeds_hold_the_cubic_non_squarefree_generators(L, char, rnd, 3)


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("spec", ["N", "R", "M3", "Lk:5:2", "DivisorLadder:3"])
def test_degree_three_seeds_that_hold_are_the_cubic_generators_of_fixtures(spec,
                                                                          char):
    _assert_seeds_hold_the_cubic_non_squarefree_generators(
        build_fixture(spec), char, random.Random(spec), 6)


def _keeps(rule, kind, reading):
    """Reference for one (support, wrong) rule (``_rules``): the ``kind``
    order that reads the variables in ``reading`` keeps it when the first
    variable of the support it reads is outside W under lex, and inside W
    under degrevlex."""
    support, wrong = rule
    for v in reading:
        if support >> v & 1:
            return bool(wrong >> v & 1) == (kind == "degrevlex")
    return False


@st.composite
def _rule_sweeps(draw):
    """A kind, a reading order of n variables, (support, wrong) rules over
    them, empty supports included, and two bitmasks over the rules."""
    n = draw(st.integers(1, 7))
    subsets = st.integers(0, (1 << n) - 1)
    rules = draw(st.lists(st.tuples(subsets, subsets).map(lambda r: (r[0], r[0] & r[1])),
                          max_size=12))
    masks = st.integers(0, (1 << len(rules)) - 1)
    return (draw(st.sampled_from(["lex", "degrevlex"])), n,
            draw(st.permutations(range(n))), rules, draw(masks), draw(masks))


@given(_rule_sweeps())
def test_one_sweep_decides_each_rule_as_the_rule_alone_does(case):
    """The bit-sliced pass (``_kept``, ``_holds``) under the kind's flip
    (``_FLIP``) gives the kept mask, the all-kept answer and the any-kept
    answer that reading each rule on its own gives."""
    kind, n, reading, rules, every, some = case
    flip = _FLIP[kind]
    kept = [_keeps(rule, kind, reading) for rule in rules]
    sliced = _sliced(rules, n)
    assert _kept(sliced, reading, flip) == sum(1 << j for j, k in enumerate(kept) if k)
    in_every = [k for j, k in enumerate(kept) if every >> j & 1]
    in_some = [k for j, k in enumerate(kept) if some >> j & 1]
    assert _holds(sliced, reading, flip, every, 0) == all(in_every)
    assert _holds(sliced, reading, flip, 0, some) == (not some or any(in_some))
    assert _holds(sliced, reading, flip, every, some) == (
        all(in_every) and (not some or any(in_some)))


@given(_rule_sweeps())
def test_degrevlex_flip_counts_orders_as_the_complemented_rules_do(case):
    """The degrevlex flip (``_FLIP``) of ``_order_tables`` reads each rule
    (D, W) as the explicit degrevlex rule (D, D minus W) read with flip 0:
    the same bad sets and the same counts of the reading orders."""
    _, n, _, rules, _, _ = case
    explicit = [(support, support ^ wrong) for support, wrong in rules]
    assert _order_tables(rules, n, _FLIP["degrevlex"]) == _order_tables(explicit, n, 0)


def test_scan_q_witness_is_the_first_order(lattice_Q):
    rep = squarefree_order_scan(lattice_Q)
    assert rep.counts["lex"] == {"orders": 5040, "squarefree": 5040}
    assert (rep.witness_kind, rep.witness_priority) == ("lex", tuple("abcdefg"))
    assert rep.distinct_initial_ideals == 12


_KINDS = [("lex",), ("degrevlex",), _BOTH, _BOTH[::-1]]


@given(closure_lattices(max_elements=7), st.sampled_from([0, 32003]),
       st.sampled_from(_KINDS))
@settings(max_examples=40, deadline=None)
def test_exhaustive_scan_counts_cones_as_the_per_order_scan_visits_them(L, char,
                                                                        kinds):
    """The cone counter (``_count_orders``) reports the counts, the witness
    and the distinct initial ideals that visiting every order in itertools
    order with whole bases (``_scan_orders``) finds."""
    rep = squarefree_order_scan(L, kinds=kinds, exhaustive=True, char=char)
    perms = itertools.permutations(range(len(L.elements)))
    assert (*_verdicts(rep), rep.distinct_initial_ideals) == _scan_orders(
        L, kinds, perms, char, settle=False)


def _late_witness_lattice():
    """A closure lattice on {0, ..., 4} (s<bits>) whose first squarefree
    priority is not the identity under either kind, and whose first
    degrevlex one comes before its first lex one."""
    return build_lattice(
        ["s0", "s10", "s2", "s20", "s31", "s4", "s6"],
        [("s0", "s2"), ("s0", "s4"), ("s10", "s31"), ("s2", "s10"), ("s2", "s6"),
         ("s20", "s31"), ("s4", "s20"), ("s4", "s6"), ("s6", "s31")])


@pytest.mark.parametrize("kinds", _KINDS, ids="-".join)
def test_exhaustive_scan_witness_is_the_first_squarefree_priority(kinds):
    """The greedy witness (``_first_squarefree``) reads lex priorities front
    to back and degrevlex ones from the end of the reading order."""
    L = _late_witness_lattice()
    rep = squarefree_order_scan(L, kinds=kinds, exhaustive=True)
    perms = itertools.permutations(range(len(L.elements)))
    assert (*_verdicts(rep), rep.distinct_initial_ideals) == _scan_orders(
        L, kinds, perms, 0, settle=False)
    if "degrevlex" in kinds:
        assert (rep.witness_kind, rep.witness_priority) == (
            "degrevlex", ("s0", "s10", "s2", "s20", "s4", "s6", "s31"))


def test_exhaustive_scan_counts_divisor_ladder_4():
    """2·10! orders, beyond the default exhaustive threshold, all
    squarefree, in 120 cones."""
    rep = squarefree_order_scan(divisor_ladder(4), exhaustive=True)
    assert rep.total_orders == 2 * 3628800
    assert rep.counts == {k: {"orders": 3628800, "squarefree": 3628800}
                          for k in _BOTH}
    assert (rep.witness_kind, rep.witness_priority) == (
        "lex", tuple(divisor_ladder(4).elements))
    assert rep.distinct_initial_ideals == 120


@pytest.mark.slow
def test_exhaustive_scan_counts_r(lattice_R):
    """2·10! orders of R, none squarefree under either kind, in 2,030
    cones."""
    rep = squarefree_order_scan(lattice_R, exhaustive=True)
    assert rep.total_orders == 2 * 3628800
    assert rep.counts == {k: {"orders": 3628800, "squarefree": 0} for k in _BOTH}
    assert not rep.any_squarefree
    assert (rep.witness_kind, rep.witness_priority) == (None, None)
    assert rep.distinct_initial_ideals == 2030


_UP_TO_EIGHT = {name: L for name, L in small_corpus() + distributive_corpus()
                + radical_fixture_corpus() + [("DivLadder3", divisor_ladder(3)),
                                              ("B3-minus-coatom",
                                               _cube_without_a_coatom())]
                if len(L.elements) <= 8}


@pytest.mark.parametrize("name", sorted(_UP_TO_EIGHT))
def test_exhaustive_scan_orders_are_the_sum_of_cone_counts(name):
    """Each kind's ``orders`` is summed from its cones' counts, and comes to
    n!: every order lies in exactly one cone.  A cone met under either kind
    is in a kind's table exactly when it holds an order of that kind."""
    L = _UP_TO_EIGHT[name]
    n = len(L.elements)
    rep = squarefree_order_scan(L, exhaustive=True)
    tables = _cone_tables(L, _BOTH, 0)
    for kind in _BOTH:
        per_cone = [count[0] for _, _, count in tables[kind]]
        assert all(per_cone)
        assert rep.counts[kind]["orders"] == sum(per_cone) == math.factorial(n)
        assert rep.counts[kind]["squarefree"] == sum(
            count[0] for cone, _, count in tables[kind] if cone.squarefree)
    cones = {id(e[0]): e[0] for entries in tables.values() for e in entries}
    for kind in _BOTH:
        tabled = {id(e[0]) for e in tables[kind]}
        for key, cone in cones.items():
            assert (key in tabled) == (
                _order_tables(cone.rules, n, _FLIP[kind])[1][0] > 0)


@pytest.mark.parametrize("kinds", [_BOTH, _BOTH[::-1]], ids="-".join)
def test_exhaustive_scan_runs_the_engine_once_per_cone(monkeypatch, kinds):
    """Each new cone is tabled under every kind at once, so a leaf of the
    prefix walk (``_cone_tables``) is always an order no known cone holds:
    the engine runs once per distinct initial ideal, and no order is tested
    against a cone one at a time (``_Cone.contains``)."""
    calls = {"engine": 0, "contains": 0}
    engine, contains = workflows._binomial_buchberger, _Cone.contains

    def counted_engine(*args, **kwargs):
        calls["engine"] += 1
        return engine(*args, **kwargs)

    def counted_contains(*args, **kwargs):
        calls["contains"] += 1
        return contains(*args, **kwargs)

    monkeypatch.setattr(workflows, "_binomial_buchberger", counted_engine)
    monkeypatch.setattr(_Cone, "contains", counted_contains)
    rep = squarefree_order_scan(lattice_n(), kinds=kinds, exhaustive=True)
    assert calls == {"engine": 386, "contains": 0}
    assert rep.distinct_initial_ideals == 386
    calls["engine"] = 0
    tables = _cone_tables(lattice_n(), _BOTH, 0)
    assert calls == {"engine": 386, "contains": 0}
    assert (len(tables["lex"]), len(tables["degrevlex"])) == (374, 249)
    lex = {id(e[0]) for e in tables["lex"]}
    degrevlex = {id(e[0]) for e in tables["degrevlex"]}
    assert (len(lex & degrevlex), len(lex | degrevlex)) == (237, 386)


@pytest.mark.parametrize("bad", [
    pytest.param(dict(sample=0), id="bad0"),
    pytest.param(dict(sample=-3), id="bad1"),
    pytest.param(dict(kinds=()), id="bad4"),
    pytest.param(dict(kinds=("lex", "bogus")), id="bad5"),
    pytest.param(dict(kinds=("lex", "degrevlex", "lex")), id="bad6"),
])
def test_scan_rejects_empty_scans(lattice_N, bad):
    """A repeated kind is rejected too: its orders would be counted once per
    entry of kinds."""
    with pytest.raises(PreconditionViolated):
        squarefree_order_scan(lattice_N, exhaustive=False, **bad)


# -- the two-rail family suite ---------------------------------------------------------------

@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_lk_suite_passes(n, k):
    rep = lk_suite(n, k)
    failing = [s.name for s in rep.stages if not s.passed]
    assert rep.passed, failing
    assert rep.quotient_dim == n


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("n,k", [(n, k) for n in range(3, 8) for k in range(1, n)])
def test_lk_intersection_identity_needs_no_elimination(monkeypatch, n, k, char):
    """The meet of in(I + (x_{k+1} - y_k)) and in(I + (z)) is in(I) on every
    Lk(n, k) checked, so the stage meets monomial ideals only."""
    meets = []
    meet = workflows.intersect

    def watched(a, b):
        meets.append(type(a))
        return meet(a, b)

    monkeypatch.setattr(workflows, "intersect", watched)
    rep = lk_suite(n, k, char)
    assert rep.passed
    assert set(meets) == {MonomialIdeal}


@pytest.mark.parametrize("char", [0, 32003])
def test_lk_intersection_identity_falls_back_to_elimination(monkeypatch, char):
    """When the initial ideals' meet is not in(I), which on no Lk happens,
    the elimination decides the identity."""
    jm = join_meet_ideal(lk(4, 2), char)
    ini_z = initial_ideal(jm.plus([jm.ring.var("z")]))
    meets = []
    meet = workflows.intersect

    def spoiled(a, b):
        meets.append(type(a))
        # the stage's meet is the only one with in(I + (z)) as a side
        return a if b == ini_z else meet(a, b)

    monkeypatch.setattr(workflows, "intersect", spoiled)
    rep = lk_suite(4, 2, char)
    assert rep.passed
    assert meets.count(Ideal) == 1


def test_lk_suite_bad_parameters():
    with pytest.raises(BadParameters):
        lk_suite(3, 3)
    with pytest.raises(BadParameters):
        lk_suite(1, 1)


# -- prime field lane --------------------------------------------------------------------

def test_workflows_over_gf5(lattice_Q):
    comps = minimal_primes(lattice_Q, char=5)
    assert len(comps) == 3
    assert all(c.certified_prime for c in comps)
    assert lk_suite(2, 1, char=5).passed
    cert = radical_certificate(lattice_Q, char=5)
    assert cert.is_radical and cert.route == "squarefree_order"
