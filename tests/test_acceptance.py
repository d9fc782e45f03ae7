"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criterion 7 enumerates all 9! variable permutations for
two order families and dominates the runtime (expect 15-25 minutes on one
core).

Criterion 5's component-dimension multiset is asserted exactly as published
and is expected to fail: the two ladder-quotient components have dimension
n-k+1 and k+1 (a two-rail grid quotient has dimension one more than its
chain length), so the published values n-k and k are off by one.  See the
decisions ledger for the analysis.  Every other part of criterion 5 passes.
"""

import itertools
import random
import time

import pytest

from lattice_lab import (
    Ideal,
    PolyRing,
    colon,
    ideal_equal,
    ideal_member,
    initial_ideal,
    join_meet_ideal,
    lex,
    lk_suite,
    minimal_primes,
    normal_form,
    radical_certificate,
    radical_member,
    saturate,
    squarefree_order_scan,
    verify_groebner,
)
from lattice_lab.fixtures import ladder, lattice_n, lattice_q, lk
from lattice_lab.lattice import basic_binomial_pairs, enumerate_admissible_sets
from lattice_lab.poly import product
from lattice_lab.snf import det, smith_normal_form
from lattice_lab.workflows import lk_family_initial_monomials

from conftest import radical_fixture_corpus, small_corpus
from oracles import membership_by_linear_algebra, random_homogeneous_difference


def _report(criterion, ok, elapsed, note=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {criterion}: {status} "
          f"({elapsed:.2f}s){' - ' + note if note else ''}")
    assert ok, f"criterion {criterion}: {note}"


def test_criterion_1_exact_q_basis():
    started = time.perf_counter()
    jm = join_meet_ideal(lattice_q())
    order = lex(tuple("abcdefg"))
    gb = jm.ideal.groebner(order)
    got = [g.to_string(order) for g in gb.basis]
    expected = ["a*e - b*c", "a*g - c*f", "b*g - e*f", "c*d - c*f", "d*e - e*f"]
    elapsed = time.perf_counter() - started
    _report(1, got == expected and elapsed < 1.0, elapsed,
            "reduced lex basis reproduced exactly")


def test_criterion_2_q_minimal_primes():
    started = time.perf_counter()
    comps = minimal_primes(lattice_q())  # raises on intersection mismatch
    R = comps[0].ideal.ring
    expected = [
        Ideal(R, ["a*e - b*c", "a*g - c*f", "b*g - e*f", "d - f"]),
        Ideal(R, [R.var(v) for v in "abce"]),
        Ideal(R, [R.var(v) for v in "ceg"]),
    ]
    ok = len(comps) == 3 and all(
        sum(1 for c in comps if ideal_equal(c.ideal, e)) == 1 for e in expected
    )
    elapsed = time.perf_counter() - started
    _report(2, ok and elapsed < 5.0, elapsed,
            "three components, intersection verified")


def test_criterion_3_n_not_radical():
    started = time.perf_counter()
    N = lattice_n()
    cert = radical_certificate(N)
    jm = join_meet_ideal(N)
    R = jm.ring
    witness = R.from_string("a*d*g*l - a*f*g*l")
    ok = cert.verdict == "not_radical" and cert.witness == witness
    gb = jm.ideal.groebner()
    ok = ok and bool(normal_form(witness, gb))
    ok = ok and radical_member(witness, jm.ideal)
    listed = ["c*e*l - c*f*l", "c*d*l - c*f*l", "c*e*h - c*f*h",
              "a*e*h - a*f*h", "c*d*h - c*f*h", "a*d*h - a*f*h",
              "c*f^2*l - c^2*h*l", "a*d^2*l - a*c*h*l",
              "c*f^2*h - c^2*h^2", "a*f^2*h - a*c*h^2"]
    basis = set(gb.basis)
    ok = ok and all(R.from_string(s) in basis for s in listed)
    elapsed = time.perf_counter() - started
    _report(3, ok and elapsed < 30.0, elapsed,
            "witness reproduced; ten listed binomials contained in the basis")


def test_criterion_4_initial_ideal_family():
    started = time.perf_counter()
    ok = True
    for n in range(2, 7):
        for k in range(1, n):
            jm = join_meet_ideal(lk(n, k))
            got = initial_ideal(jm.ideal)
            want = lk_family_initial_monomials(n, k, jm.ring)
            if got != want:
                ok = False
    elapsed = time.perf_counter() - started
    _report(4, ok and elapsed < 60.0, elapsed,
            "minimal generators match the published family for all (n, k)")


def test_criterion_5_lk_pipeline():
    started = time.perf_counter()
    failures = []
    for n in range(2, 7):
        for k in range(1, n):
            rep = lk_suite(n, k)
            for s in rep.stages:
                if not s.passed:
                    failures.append((n, k, s.name, s.detail))
            if rep.quotient_dim != n:
                failures.append((n, k, "quotient_dim", rep.quotient_dim))
    elapsed = time.perf_counter() - started
    _report(5, not failures and elapsed < 300.0, elapsed,
            "pipeline stages including intersection identity, squarefree "
            "verdicts, seven primes, and quotient dimension"
            + (f"; failures: {failures}" if failures else ""))


@pytest.mark.xfail(
    strict=True,
    reason="published component dimensions for the two ladder-quotient primes "
           "are off by one (a two-rail grid quotient has dimension chain "
           "length + 1); computed values are n-k+1 and k+1 - see the "
           "decisions ledger",
)
def test_criterion_5_published_dimension_multiset():
    for n in range(2, 7):
        for k in range(1, n):
            rep = lk_suite(n, k)
            published = sorted([n, n, n, n - k, k, n - k + 1, k + 1])
            got = sorted(rep.component_dims.values())
            assert got == published, (
                f"(n={n}, k={k}): computed {got}, published {published}"
            )


def test_criterion_6_r_radical_via_prime_intersection(lattice_R):
    started = time.perf_counter()
    cert = radical_certificate(lattice_R)
    ok = (cert.is_radical and cert.route == "prime_intersection"
          and all(c.certified_prime for c in cert.components))
    elapsed = time.perf_counter() - started
    _report(6, ok and elapsed < 600.0, elapsed,
            f"radical via {len(cert.components)} certified primes")


def test_criterion_8_property_suites():
    started = time.perf_counter()
    notes = []

    # S-polynomial zero-reduction on every basis computed here
    bases = [
        join_meet_ideal(lattice_q()).ideal.groebner(lex(tuple("abcdefg"))),
        join_meet_ideal(lattice_n()).ideal.groebner(),
        join_meet_ideal(lk(3, 2)).ideal.groebner(),
        join_meet_ideal(ladder(3)).ideal.groebner(),
    ]
    assert all(verify_groebner(gb) for gb in bases)
    notes.append("s-poly checks")

    # normal-form idempotence and oracle membership on 500 seeded cases
    rng = random.Random(20240201)
    checked = 0
    for _ in range(500):
        nvars = rng.randint(2, 4)
        ring = PolyRing(tuple(f"v{i}" for i in range(nvars)))
        gens = [g for g in (random_homogeneous_difference(ring, rng, 2)
                            for _ in range(rng.randint(2, 4))) if g]
        if not gens:
            continue
        ideal = Ideal(ring, gens)
        f = random_homogeneous_difference(ring, rng, rng.randint(2, 4))
        if not f:
            continue
        gb = ideal.groebner()
        r = gb.reduce(f)
        assert gb.reduce(r) == r
        assert bool(r) != ideal_member(f, ideal)
        assert ideal_member(f, ideal) == membership_by_linear_algebra(
            f, list(ideal.generators), ring)
        checked += 1
    assert checked >= 400
    notes.append(f"{checked} membership cases vs linear-algebra oracle")

    # colon equals saturation on the radical fixtures
    for name, L in radical_fixture_corpus():
        jm = join_meet_ideal(L)
        if not jm.ideal.generators:
            continue
        prod = product([jm.ring.var(v) for v in jm.ring.variables], jm.ring)
        assert ideal_equal(colon(jm.ideal, prod), saturate(jm.ideal, prod)), name
    notes.append("colon == saturation")

    # admissible enumeration equals brute-force subset filtering
    for name, L in small_corpus():
        pairs = basic_binomial_pairs(L)
        ours = {frozenset(a.members) for a in enumerate_admissible_sets(L)}
        brute = set()
        for r in range(len(L.elements) + 1):
            for combo in itertools.combinations(L.elements, r):
                s = set(combo)
                if all(bool(s & {a, b}) == bool(s & {c, d})
                       for (a, b), (c, d) in pairs):
                    brute.add(frozenset(combo))
        assert ours == brute, name
    notes.append("admissible enumeration")

    # Smith form invariants on 200 random integer matrices
    rng = random.Random(20240202)
    for _ in range(200):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.randint(-12, 12) for _ in range(c)] for _ in range(r)]
        form = smith_normal_form(M)
        nz = form.nonzero_factors
        assert all(x > 0 for x in nz)
        assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
        assert abs(det([list(x) for x in form.U])) == 1
        assert abs(det([list(x) for x in form.V])) == 1
    notes.append("SNF divisibility chains")

    elapsed = time.perf_counter() - started
    _report(8, True, elapsed, "; ".join(notes))


@pytest.mark.slow
def test_criterion_7_exhaustive_order_scans():
    started = time.perf_counter()
    small = squarefree_order_scan(lk(2, 1), exhaustive=True)
    ok = small.total_orders == 240 and not small.any_squarefree
    big = squarefree_order_scan(lattice_n(), exhaustive=True)
    ok = ok and big.total_orders == 2 * 362880 and not big.any_squarefree
    elapsed = time.perf_counter() - started
    _report(7, ok and elapsed < 1800.0, elapsed,
            f"no squarefree initial ideal among {big.total_orders} orders "
            f"for the nine-element example and {small.total_orders} for the "
            f"five-element one")
