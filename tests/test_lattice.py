import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings

from lattice_lab import (
    AdmissibleSet,
    NoBounds,
    NotALattice,
    NotAPoset,
    NotAdmissible,
    PreconditionViolated,
    build_lattice,
    dual,
    enumerate_admissible_sets,
    find_rank2_diamond,
    is_distributive,
    is_modular,
    join_irreducibles,
    restrict_to_complement,
)
from lattice_lab.fixtures import (
    build_fixture,
    chain,
    diamond_m3,
    divisor_ladder,
    ladder,
    lattice_n,
    lattice_q,
    lk,
    pentagon_n5,
)
from lattice_lab.lattice import basic_binomial_pairs, is_admissible

from conftest import closure_lattices, product_lattice, small_corpus
from oracles import admissible_masks_by_loop


# -- build_lattice ----------------------------------------------------------

def test_three_chain_join_meet():
    L = build_lattice(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert L.join("a", "c") == "c"
    assert L.meet("a", "c") == "a"
    assert L.join("b", "b") == "b"


def test_no_upper_bound_raises():
    with pytest.raises(NotALattice) as exc:
        build_lattice(["a", "b", "c", "d"], [("a", "b"), ("a", "c")])
    assert exc.value.pair == ("b", "c")


def test_cycle_raises():
    with pytest.raises(NotAPoset) as exc:
        build_lattice(["a", "b"], [("a", "b"), ("b", "a")])
    assert exc.value.cycle == ("a", "b")
    # d and e lie above the cycle, not on it; b is its least-index element
    with pytest.raises(NotAPoset) as exc:
        build_lattice(list("abcde"), [("a", "b"), ("b", "c"), ("c", "b"),
                                      ("c", "d"), ("a", "e"), ("e", "d")])
    assert exc.value.cycle == ("b", "c")


def test_empty_raises():
    with pytest.raises(NoBounds):
        build_lattice([], [])


def test_q_structure(lattice_Q):
    # brute-force closure oracle over the cover relation
    L = lattice_Q
    assert len(L) == 7
    assert L.join("b", "c") == "e"
    assert L.join("c", "d") == "g"
    assert L.meet("e", "f") == "b"
    # the two maximal chains have different lengths, so Q is not graded
    assert not L.is_graded


def test_absorption_exhaustive():
    for name, L in small_corpus():
        for x in L.elements:
            for y in L.elements:
                assert L.meet(x, L.join(x, y)) == x, (name, x, y)
                assert L.join(x, L.meet(x, y)) == x, (name, x, y)


def test_join_meet_tables_commutative_associative_idempotent():
    for name, L in small_corpus():
        els = L.elements
        for x in els:
            assert L.join(x, x) == x and L.meet(x, x) == x
            for y in els:
                assert L.join(x, y) == L.join(y, x)
                assert L.meet(x, y) == L.meet(y, x)
        if len(els) <= 9:
            for x, y, z in itertools.product(els, repeat=3):
                assert L.join(x, L.join(y, z)) == L.join(L.join(x, y), z)
                assert L.meet(x, L.meet(y, z)) == L.meet(L.meet(x, y), z)


# -- distributivity / modularity against the sublattice oracle ---------------

def _has_sublattice_pattern(L, kind):
    """Exhaustive 5-subset search for M3 or N5 patterns."""
    for subset in itertools.combinations(L.elements, 5):
        sset = set(subset)
        closed = all(
            L.join(x, y) in sset and L.meet(x, y) in sset
            for x, y in itertools.combinations(subset, 2)
        )
        if not closed:
            continue
        bot = next(x for x in subset if all(L.le(x, y) for y in subset))
        top = next(x for x in subset if all(L.le(y, x) for y in subset))
        mids = [x for x in subset if x != bot and x != top]
        if len(mids) != 3:
            continue
        comparable = [
            (x, y) for x, y in itertools.combinations(mids, 2)
            if L.le(x, y) or L.le(y, x)
        ]
        if kind == "M3" and not comparable:
            return True
        if kind == "N5" and len(comparable) == 1:
            return True
    return False


def test_distributive_matches_forbidden_sublattice_oracle():
    for name, L in small_corpus():
        expected = not (_has_sublattice_pattern(L, "M3")
                        or _has_sublattice_pattern(L, "N5"))
        assert is_distributive(L).distributive == expected, name


def test_modular_matches_pentagon_oracle():
    for name, L in small_corpus():
        expected = not _has_sublattice_pattern(L, "N5")
        assert is_modular(L).modular == expected, name


def test_chain_distributive():
    assert is_distributive(chain(6)).distributive


def test_q_not_distributive_and_not_modular(lattice_Q):
    # Q contains the pentagon {a, c, d, f, g}: c is incomparable to the
    # chain d < f, with meets a and joins g (consistent with Q having three
    # minimal primes rather than being prime)
    rep = is_distributive(lattice_Q)
    assert not rep.distributive and rep.witness is not None
    mod = is_modular(lattice_Q)
    assert not mod.modular
    w = mod.witness
    assert w.kind == "pentagon"
    assert set(w.elements) == {"a", "c", "d", "f", "g"}


def test_n_modular_not_distributive(lattice_N):
    L = lattice_N
    rep = is_distributive(L)
    assert not rep.distributive
    x, y, z = rep.witness
    assert L.meet(x, L.join(y, z)) != L.join(L.meet(x, y), L.meet(x, z))
    # the diamond middles also witness the failure
    assert L.meet("d", L.join("e", "f")) != L.join(L.meet("d", "e"), L.meet("d", "f"))
    assert is_modular(L).modular


def test_pentagon_not_modular_with_witness():
    rep = is_modular(pentagon_n5())
    assert not rep.modular
    assert rep.witness.kind == "pentagon"
    assert set(rep.witness.elements) == {"a", "b", "c", "e", "f"}


def _assert_pentagon(L, w):
    lo, hi, lone = w.middles
    assert w.kind == "pentagon" and len(set(w.elements)) == 5
    assert L.le(w.min_element, lo) and L.le(lo, hi) and L.le(hi, w.max_element)
    for x in (lo, hi):
        assert not L.le(x, lone) and not L.le(lone, x)
        assert L.join(x, lone) == w.max_element
        assert L.meet(x, lone) == w.min_element


@given(closure_lattices())
@settings(max_examples=100, deadline=None)
def test_modular_witness_is_a_pentagon_on_closure_systems(L):
    rep = is_modular(L)
    assert rep.modular == (not _has_sublattice_pattern(L, "N5"))
    assert (rep.witness is None) == rep.modular
    if rep.witness is not None:
        _assert_pentagon(L, rep.witness)


def test_pentagon_read_off_the_first_failing_triple():
    # x = b <= z = f with y = g fails the modular law first:
    # g∧f = a < b∨(g∧f) = b < (b∨g)∧f = f < b∨g = d
    L = build_lattice(list("abcdefg"), [
        ("a", "b"), ("a", "e"), ("a", "g"), ("b", "f"), ("c", "d"),
        ("e", "c"), ("e", "f"), ("f", "d"), ("g", "c")])
    w = is_modular(L).witness
    _assert_pentagon(L, w)
    assert w.elements == ("a", "b", "f", "g", "d")


def test_lk_modular():
    assert is_modular(lk(3, 1)).modular
    assert not is_distributive(lk(3, 1)).distributive


# -- rank-2 diamond ----------------------------------------------------------

def test_diamond_in_n(lattice_N):
    d = find_rank2_diamond(lattice_N)
    assert d.bottom == "c" and d.top == "h"
    assert set(d.atoms) == {"d", "e", "f"}


def test_diamond_in_lk21():
    d = find_rank2_diamond(lk(2, 1))
    assert d.bottom == "x1" and d.top == "y2"
    assert set(d.atoms) == {"x2", "y1", "z"}


def test_diamond_in_m3_times_chain_matches_bruteforce():
    L = product_lattice(diamond_m3(), chain(2))
    assert is_modular(L).modular and not is_distributive(L).distributive
    got = find_rank2_diamond(L)
    # brute-force scan over all height-two intervals
    expected = []
    for b in L.elements:
        for t in L.elements:
            if b != t and L.le(b, t) and L.rank(t) - L.rank(b) == 2:
                mids = [m for m in L.elements
                        if m not in (b, t) and L.le(b, m) and L.le(m, t)]
                if len(mids) >= 3 and all(
                    L.join(x, y) == t and L.meet(x, y) == b
                    for x, y in itertools.combinations(mids, 2)
                ):
                    expected.append((b, t, frozenset(mids)))
    assert (got.bottom, got.top, frozenset(got.atoms)) in expected


def test_diamond_invariants_on_modular_fixtures():
    for L in (lattice_n(), lk(2, 1), lk(3, 1), lk(3, 2), diamond_m3()):
        d = find_rank2_diamond(L)
        assert L.rank(d.top) - L.rank(d.bottom) == 2
        assert len(d.atoms) >= 3
        for x in d.atoms:
            assert L.le(d.bottom, x) and L.le(x, d.top)
        for x, y in itertools.combinations(d.atoms, 2):
            assert L.join(x, y) == d.top and L.meet(x, y) == d.bottom


def test_diamond_rejects_distributive_and_nonmodular():
    with pytest.raises(PreconditionViolated):
        find_rank2_diamond(chain(4))
    with pytest.raises(PreconditionViolated):
        find_rank2_diamond(pentagon_n5())


# -- admissible sets ----------------------------------------------------------

def test_chain_all_subsets_admissible():
    L = chain(4)
    assert len(enumerate_admissible_sets(L)) == 16


def test_q_admissible_contains_paper_set(lattice_Q):
    sets = [frozenset(a.members) for a in enumerate_admissible_sets(lattice_Q)]
    assert frozenset({"g", "d", "f"}) in sets


def test_admissible_matches_bruteforce_filter():
    for name, L in small_corpus():
        pairs = basic_binomial_pairs(L)
        brute = []
        for r in range(len(L.elements) + 1):
            for combo in itertools.combinations(L.elements, r):
                s = set(combo)
                if all(
                    (bool(s & {a, b})) == (bool(s & {c, d}))
                    for (a, b), (c, d) in pairs
                ):
                    brute.append(frozenset(combo))
        ours = [frozenset(a.members) for a in enumerate_admissible_sets(L)]
        assert sorted(map(sorted, ours)) == sorted(map(sorted, brute)), name
        assert frozenset() in ours and frozenset(L.elements) in ours


def test_admissible_recheck():
    for name, L in small_corpus():
        admissible = {frozenset(a.members) for a in enumerate_admissible_sets(L)}
        for r in range(len(L.elements) + 1):
            for combo in itertools.combinations(L.elements, r):
                ok = is_admissible(L, combo) is None
                assert ok == (frozenset(combo) in admissible), (name, combo)


def test_enumeration_order_is_size_then_lexicographic(lattice_Q):
    sets = enumerate_admissible_sets(lattice_Q)
    keys = [
        (len(a.members), tuple(lattice_Q.index[e] for e in a.members))
        for a in sets
    ]
    assert keys == sorted(keys)


@pytest.mark.parametrize("spec", ["Q", "R", "N", "N5"] + [
    f"Lk:{n}:{k}" for n in range(2, 8) for k in range(1, n)])
def test_backtracking_matches_mask_loop(spec):
    L = build_fixture(spec)
    assert ([a.members for a in enumerate_admissible_sets(L)]
            == admissible_masks_by_loop(L))


@given(closure_lattices())
@settings(max_examples=60, deadline=None)
def test_backtracking_matches_mask_loop_on_closure_systems(L):
    assert ([a.members for a in enumerate_admissible_sets(L)]
            == admissible_masks_by_loop(L))


# -- restriction ---------------------------------------------------------------

def test_restrict_empty_set_is_identity(lattice_Q):
    assert restrict_to_complement(lattice_Q, AdmissibleSet(())) == lattice_Q


def test_restrict_q_to_chain(lattice_Q):
    sub = restrict_to_complement(lattice_Q, AdmissibleSet(("c", "e", "g")))
    assert sub.elements == ("a", "b", "d", "f")
    assert sub.covers == (("a", "b"), ("b", "d"), ("d", "f"))


def test_restrict_q_paper_set(lattice_Q):
    sub = restrict_to_complement(lattice_Q, AdmissibleSet(("d", "f", "g")))
    assert set(sub.elements) == {"a", "b", "c", "e"}


def test_restrict_rejects_non_admissible(lattice_Q):
    with pytest.raises(NotAdmissible):
        restrict_to_complement(lattice_Q, AdmissibleSet(("b",)))


def test_restriction_covers_are_the_induced_covers():
    """b covers a in the complement when a < b in L and no kept element lies
    strictly between them."""
    for name, L in small_corpus():
        for adm in enumerate_admissible_sets(L):
            if len(adm.members) == len(L.elements):
                continue
            sub = restrict_to_complement(L, adm)
            keep = [e for e in L.elements if e not in adm]
            covers = {(a, b) for a in keep for b in keep
                      if a != b and L.le(a, b)
                      and not any(c not in (a, b) and L.le(a, c) and L.le(c, b)
                                  for c in keep)}
            assert sub.elements == tuple(keep), name
            assert set(sub.covers) == covers, (name, adm.members)


def test_restriction_closed_under_ambient_operations():
    for name, L in small_corpus():
        for adm in enumerate_admissible_sets(L):
            if len(adm.members) in (0, len(L.elements)):
                continue
            sub = restrict_to_complement(L, adm)
            for x, y in itertools.combinations(sub.elements, 2):
                assert L.join(x, y) in set(sub.elements)
                assert L.meet(x, y) in set(sub.elements)


def _covers_by_definition(L):
    """Pairs a < b with no element strictly between them, read off ``le``."""
    E = L.elements
    return {(a, b) for a in E for b in E
            if a != b and L.le(a, b)
            and not any(c not in (a, b) and L.le(a, c) and L.le(c, b)
                        for c in E)}


def _check_covers(L):
    # rebuilt from every strict comparability, so the builder itself must
    # drop the pairs that are not covers
    full = build_lattice(L.elements, [(a, b) for a in L.elements
                                      for b in L.elements
                                      if a != b and L.le(a, b)])
    expected = _covers_by_definition(L)
    assert set(L.covers) == expected
    assert set(full.covers) == expected
    assert full.is_graded == L.is_graded
    assert full.height == L.height


@pytest.mark.parametrize("spec", ["Q", "N", "R", "M3", "N5", "Chain:1",
                                  "Chain:5", "DivisorLadder:3", "Lk:2:1",
                                  "Lk:4:2", "Lk:6:3"])
def test_covers_match_definition_on_fixtures_and_duals(spec):
    L = build_fixture(spec)
    _check_covers(L)
    _check_covers(dual(L))


@given(closure_lattices())
@settings(max_examples=60, deadline=None)
def test_covers_match_definition_on_closure_systems(L):
    _check_covers(L)
    _check_covers(dual(L))


# -- join irreducibles, dual ----------------------------------------------------

def test_chain_join_irreducibles():
    assert join_irreducibles(chain(5)) == ("b", "c", "d", "e")


def test_ladder_join_irreducibles():
    for n in (2, 3, 4, 5):
        L = ladder(n)
        expected = {f"x{i}" for i in range(2, n + 1)} | {"y1"}
        assert set(join_irreducibles(L)) == expected
        assert len(expected) == n


def test_q_join_irreducibles(lattice_Q):
    assert set(join_irreducibles(lattice_Q)) == {"b", "c", "d", "f"}


def test_dual_chain():
    d = dual(chain(3))
    assert d.le("c", "a")
    assert d.join("a", "c") == "a"


def test_dual_involution():
    for name, L in small_corpus():
        assert dual(dual(L)) == L, name


# -- fixtures -------------------------------------------------------------------

def test_fixture_lk21():
    L = build_fixture("Lk:2:1")
    assert set(L.elements) == {"x1", "x2", "y1", "y2", "z"}
    assert L.meet("z", "y1") == "x1"
    assert L.join("z", "y1") == "y2"


def test_fixture_divisor_ladder_1_is_square():
    L = build_fixture("DivisorLadder:1")
    assert len(L.elements) == 4
    assert is_distributive(L).distributive


def test_fixture_n_graded_of_height_4(lattice_N):
    assert lattice_N.is_graded
    assert lattice_N.top_rank == 4


def _chain_height_bruteforce(L):
    """Edges in the longest strictly increasing chain, read off ``le`` only."""
    els = L.elements

    @lru_cache(maxsize=None)
    def above(a):
        return max((1 + above(b) for b in els if b != a and L.le(a, b)),
                   default=0)

    return max(above(a) for a in els)


_HEIGHT_CASES = [(name, L) for name, L in small_corpus()] + [
    ("Lk(5,2)", lk(5, 2)), ("DivisorLadder3", divisor_ladder(3)),
    ("Chain1", chain(1)),
]


@pytest.mark.parametrize("name, L", _HEIGHT_CASES, ids=[c[0] for c in _HEIGHT_CASES])
def test_height_is_the_longest_chain(name, L):
    assert L.height == _chain_height_bruteforce(L)
    if L.is_graded:
        assert L.top_rank == L.height


def test_height_of_non_graded_pentagon():
    L = pentagon_n5()
    assert not L.is_graded
    assert L.height == 3
    with pytest.raises(PreconditionViolated):
        L.top_rank
    with pytest.raises(PreconditionViolated):
        L.rank("c")


@given(closure_lattices())
@settings(max_examples=100, deadline=None)
def test_height_is_the_longest_chain_on_closure_systems(L):
    assert L.height == _chain_height_bruteforce(L)


def test_fixture_bad_parameters():
    from lattice_lab import BadParameters

    with pytest.raises(BadParameters):
        build_fixture("Lk:3:3")
    with pytest.raises(BadParameters):
        build_fixture("Chain:0")
    with pytest.raises(BadParameters):
        build_fixture("Mystery")
    with pytest.raises(BadParameters):
        build_fixture("Lk:a:1")


@pytest.mark.parametrize("spec, message", [
    ("Nope:3", "unknown fixture 'Nope'"),
    ("Nope:x", "invalid literal for int() with base 10: 'x'"),
    ("Q:1", "expected 0 parameters, got 1"),
    ("Chain", "expected 1 parameters, got 0"),
    ("Lk:3:", "invalid literal for int() with base 10: ''"),
    ("Lk:3:3", "need n >= 2 and 1 <= k <= n-1, got n=3, k=3"),
])
def test_fixture_spec_error_messages(spec, message):
    from lattice_lab import BadParameters

    with pytest.raises(BadParameters) as info:
        build_fixture(spec)
    assert str(info.value) == message
