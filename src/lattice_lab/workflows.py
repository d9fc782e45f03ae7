"""Lattice-ideal workflows: join-meet ideals, component primes, radicality
certificates, squarefree order scans, and the two-rail-family suite.

The decomposition machinery follows one recipe: for an admissible subset A of
a lattice L, the candidate prime is the join-meet ideal of L \\ A saturated by
the product of the surviving variables, plus the variables of A.  One Smith
normal form of its exponent-difference lattice Λ_A gives both the primality
certificate (prime iff saturated) and the dimension |L| - |A| - rank Λ_A.

The saturated part is the lattice ideal of Λ_A, the integer span of the
exponent differences of the basic binomials that avoid A, so domination
between candidates is decided by integer-lattice membership before anything
is saturated (see ``minimal_primes``); only the candidates that test leaves
standing are saturated, and they are the minimal components.

That the join-meet ideal I is the intersection of the minimal components is
checked in three steps.  First from initial ideals: in(∩ P_A) ⊆ ∩ in(P_A)
under any order, and J ⊆ K with in(J) = in(K) forces J = K, so I ⊆ every
P_A together with in(I) = ∩ in(P_A) proves I = ∩ P_A.  Two orders are
tried, degrevlex with the variables reversed first, under which the
component bases are built, then the default one.  The initial ideals stay
MonomialIdeals, which meet by pairwise lcms; in(I) is grown only until its
leads cover ∩ in(P_A) or a generator of it is known to lie outside, and
I ⊆ P_A is read off normal forms modulo P_A's basis under the same order.
Then, when every component is certified prime, a colon witness disproves
it: for a variable x with I : x ≠ I : x², an f in I : x² \\ I : x gives
w = x·f outside I with w² in I, so I is not radical, while an intersection
of primes is.  Both colons come from one binomial basis of I per variable.
Only when neither step decides are the components themselves intersected
and compared with I.

The colon witness also bounds the radicality certificate's search for an
element of √I \\ I: the search stops at the witness's degree, and the
witness is the answer when the search finds nothing below it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import reduce
from operator import ge, gt, itemgetter, lt

from .errors import (
    IntersectionMismatch,
    NotPureDifference,
    NotSaturatedInput,
    PreconditionViolated,
)
from .fixtures import lk as build_lk
from .groebner import (
    Ideal,
    MonomialIdeal,
    ReducedGB,
    _bin_reduce_monomial,
    _binomial_buchberger,
    _binomial_colons,
    _binomial_shape,
    _Ctx,
    _initial_ideal_toward,
    _overflow,
    buchberger,
    ideal_equal,
    initial_ideal,
    intersect,
    krull_dim,
    saturate,
)
from .lattice import (
    AdmissibleSet,
    basic_binomial_pairs,
    enumerate_admissible_sets,
    restrict_to_complement,
)
from .poly import (
    MAX_EXPONENT,
    MonomialOrder,
    PolyRing,
    degrevlex,
    lex,
)
from .snf import echelon_basis, smith_normal_form


@dataclass(frozen=True)
class JoinMeetIdeal:
    """The ideal generated by ab - (a∧b)(a∨b) over incomparable pairs."""

    lattice: object
    ideal: Ideal

    @property
    def ring(self):
        return self.ideal.ring


@dataclass(frozen=True)
class PrimeComponent:
    admissible: AdmissibleSet
    ideal: Ideal
    certified_prime: bool
    dim: int

    def generators_text(self):
        return tuple(str(g) for g in self.ideal.generators)


def _basic_binomials(lattice, ring):
    """ab - (a∧b)(a∨b) in ``ring`` for every incomparable pair of
    ``lattice``, in pair order."""
    return [ring.monomial({a: 1, b: 1}) - ring.monomial({c: 1, d: 1})
            for (a, b), (c, d) in basic_binomial_pairs(lattice)]


def join_meet_ideal(lattice, char=0):
    """The basic binomial of every incomparable pair, in pair order."""
    ring = PolyRing(lattice.elements, char)
    return JoinMeetIdeal(lattice, Ideal(ring, _basic_binomials(lattice, ring)))


# ---------------------------------------------------------------------------
# prime components
# ---------------------------------------------------------------------------


def certify_prime_component(ideal):
    """True iff the component ideal (pure differences + variables) is prime.

    Each generator must be a variable (up to a unit) or a pure difference
    that involves none of those variables, else NotPureDifference.  The
    pure-difference part must already be saturated with respect to the
    product of the other variables, else NotSaturatedInput; its
    exponent-difference lattice is then saturated exactly when the component
    is prime (Eisenbud–Sturmfels 1996), read off the part's own rows u - v
    as in ``_prime_component``.
    """
    ring = ideal.ring
    variables, binomials = set(), []
    for g in ideal.generators:
        shape = _binomial_shape(g)
        if shape is None or (len(shape) == 1 and sum(shape[0]) != 1):
            raise NotPureDifference(g)
        if len(shape) == 1:
            variables.add(shape[0].index(1))
        else:
            binomials.append(g)
    for g in binomials:
        if variables.intersection(g.support()):
            raise NotPureDifference(g)
    part = Ideal(ring, binomials)
    if binomials:
        survivors = [v for i, v in enumerate(ring.variables) if i not in variables]
        sat = saturate(part, ring.monomial(dict.fromkeys(survivors, 1)))
        if not ideal_equal(sat, part):
            raise NotSaturatedInput(
                "pure-difference part is not saturated w.r.t. its variables"
            )
    return smith_normal_form([d for _, _, d in _binomial_sides(binomials)]).saturated


def _component_gens(lattice, admissible, ring):
    """Saturated binomial part + variables of A, as generators in ``ring``."""
    members = set(admissible)
    survivors = [e for e in lattice.elements if e not in members]
    gens = []
    if survivors:
        sub = restrict_to_complement(lattice, admissible)
        binoms = _basic_binomials(sub, ring)
        if binoms:
            sat = saturate(Ideal(ring, binoms),
                           ring.monomial(dict.fromkeys(survivors, 1)))
            gens.extend(sat.generators)
    gens.extend(ring.var(v) for v in admissible)
    return tuple(gens)


def component_prime(lattice, admissible, char=0):
    """The candidate prime P_A: saturated complement ideal plus A's variables."""
    if not isinstance(admissible, AdmissibleSet):
        admissible = AdmissibleSet(tuple(admissible))
    ring = PolyRing(lattice.elements, char)
    gens = _component_gens(lattice, admissible, ring)
    return _prime_component(admissible, Ideal(ring, gens))


def _two_term_sides(ideal):
    """``_binomial_sides`` of the two-term generators of a component."""
    return _binomial_sides(g for g in ideal.generators if len(g.terms) == 2)


def _prime_component(admissible, ideal, sides=None):
    """PrimeComponent of P_A, the variables of A plus the lattice ideal of
    Λ_A: one Smith form gives its certificate and its dimension
    |L| - |A| - rank Λ_A (Eisenbud–Sturmfels 1996), also when Λ_A = 0 and
    the form has no rows.  Its rows are the u - v of P_A's own two-term
    generators x^u - x^v (``sides``, their ``_two_term_sides`` when the
    caller has them), and no basis of P_A is read: pure differences that
    generate a lattice ideal I_L span L, as x^u ≡ x^v modulo them exactly
    when a chain of their moves joins u to v."""
    if sides is None:
        sides = _two_term_sides(ideal)
    snf = smith_normal_form([d for _, _, d in sides])
    return PrimeComponent(admissible, ideal, snf.saturated,
                          ideal.ring.nvars - len(admissible) - len(snf.nonzero_factors))


def _intersect_all(ideals):
    """Fold ideals by intersection, monomial components first."""
    monomial = [i for i in ideals if all(len(g.terms) == 1 for g in i.generators)]
    rest = [i for i in ideals if not all(len(g.terms) == 1 for g in i.generators)]
    rest.sort(key=lambda i: sum(len(g.terms) for g in i.generators))
    acc = None
    for part in monomial + rest:
        acc = part if acc is None else intersect(acc, part)
    return acc


def _support_mask(exps):
    mask = 0
    for i, e in enumerate(exps):
        if e:
            mask |= 1 << i
    return mask


def _binomial_sides(binomials):
    """(support mask of u, support mask of v, u - v) of each x^u - x^v."""
    out = []
    for g in binomials:
        u, v = g.terms
        out.append((_support_mask(u), _support_mask(v),
                    tuple(a - b for a, b in zip(u, v))))
    return out


def _lattice_dominated(below, mask, basic):
    """True when some P_M in ``below`` (binomial sides of each) lies in P_A,
    for the admissible set A given by ``mask``.

    For M inside A, P_M lies in P_A exactly when each binomial x^u - x^v of
    P_M has a variable of A in both monomials, or in neither and u - v lies
    in Λ_A.  Λ_A is spanned by the rows u - v of the basic binomials
    (``basic``) that avoid A; A being admissible, each avoids A on both sides
    or on neither.  The reason: P_A meets the ring of the variables outside
    A in the lattice ideal of Λ_A, which holds no monomial and contains
    x^u - x^v exactly when u - v is in Λ_A.  Λ_A is reduced only when some
    binomial needs it.
    """
    span = None
    for sides in below:
        avoiding = []
        for mu, mv, diff in sides:
            hit_u, hit_v = mu & mask, mv & mask
            if not (hit_u or hit_v):
                avoiding.append(diff)
            elif not (hit_u and hit_v):
                break
        else:
            if avoiding and span is None:
                span = echelon_basis([d for mu, mv, d in basic
                                      if not (mu | mv) & mask])
            if all(span.contains(d) for d in avoiding):
                return True
    return False


def minimal_primes(lattice, char=0, _verify=True):
    """Inclusion-minimal component primes plus the verified intersection.

    Admissible sets are walked smallest first.  P_M lies in P_A only when
    M lies in A (the variables in P_A are exactly those of A), and
    containment is transitive, so each set A is compared only with the
    minimal components found so far whose admissible set is strictly inside
    A's.  That test is integer-lattice membership (``_lattice_dominated``),
    since the binomial part of each P_A is the lattice ideal of Λ_A; it
    runs before any saturation, and a set that passes it is saturated and
    kept.

    The components' intersection is then checked against the join-meet
    ideal I (``_verify_decomposition``): first by the initial-ideal
    certificate (I ⊆ every P_A, and in(I) = ∩ in(P_A) under degrevlex with
    the variables reversed or the default order), then by a colon
    witness when every component is certified prime, and only when neither
    decides by intersecting the components.  A mismatch raises
    IntersectionMismatch, so the caller asserts the join-meet ideal is
    radical (or accepts the error as a non-radicality signal).
    """
    jm = join_meet_ideal(lattice, char)
    ring = jm.ring
    index = lattice.index
    basic = _binomial_sides(jm.ideal.generators)
    first = _certificate_orders(ring)[0]

    found = []  # (mask, binomial sides, component) of each minimal component
    for adm in enumerate_admissible_sets(lattice):
        mask = 0
        for e in adm:
            mask |= 1 << index[e]
        below = [sides for m, sides, _ in found if m != mask and m & mask == m]
        if _lattice_dominated(below, mask, basic):
            continue
        ideal = Ideal(ring, _component_gens(lattice, adm, ring))
        # the component's basis under the certificate's first order, cached
        # in the ideal for the initial-ideal certificate, which reads it
        # for in(P_A) and for the containment I ⊆ P_A; built by name
        # because the traced benchmark (perfbench/layers.py) requires a
        # buchberger call made directly from minimal_primes
        buchberger(ideal, first)
        sides = _two_term_sides(ideal)
        found.append((mask, sides, _prime_component(adm, ideal, sides)))
    components = [c for _, _, c in found]
    if _verify:
        _verify_decomposition(jm, components)
    return components


def _certificate_orders(ring):
    """The orders the initial-ideal certificate tries, in turn: degrevlex
    with the variables reversed, then the default order."""
    return degrevlex(tuple(reversed(ring.variables))), ring.default_order


def _initial_ideals_certify(ideal, parts):
    """True when initial ideals prove ``ideal`` = ∩ ``parts``.

    For any monomial order, in(∩ P) ⊆ ∩ in(P), and J ⊆ K with in(J) = in(K)
    forces J = K.  So if I ⊆ every P and in(I) = ∩ in(P), then in(I) ⊆
    in(∩ P) ⊆ ∩ in(P) = in(I) and I = ∩ P.  The orders come from
    ``_certificate_orders``: the reversed one first, under which
    ``minimal_primes`` caches the component bases, then the default one.
    Initial ideals stay MonomialIdeals throughout.

    in(I) grows only as far as it must (``_initial_ideal_toward``): once
    its leads contain M = ∩ in(P), they are M, since in(I) ⊆ M; and on the
    homogeneous join-meet ideal a pass fails as soon as a generator of M
    lies below the degree the pair loop has completed.  A basis of I the
    ideal caches is read whole.  I ⊆ P is decided by normal forms modulo
    P's basis under the pass's order, the one ``minimal_primes`` cached
    for the first pass.  False means neither order proves it, not that the
    ideals differ.
    """
    for order in _certificate_orders(ideal.ring):
        meet = reduce(intersect, (initial_ideal(p, order) for p in parts))
        ini = _initial_ideal_toward(ideal, order, meet)
        if ini is not None and ideal_equal(meet, ini):
            return all(not p.groebner(order).reduce(g)
                       for p in parts for g in ideal.generators)
    return False


def _verify_decomposition(jm, components):
    """Raise IntersectionMismatch unless the join-meet ideal is the
    intersection of the components.

    The initial-ideal certificate decides first.  When it fails and every
    component is certified prime, a colon witness (``_colon_witness``)
    raises at once: each P_A contains I by construction, so ∩ P_A is
    radical, and a colon witness proves I is not.  Only otherwise does the
    intersection fold run.  ``jm`` keeps its reduced bases, so a caller
    that has computed them pays for none."""
    ideal = jm.ideal
    parts = [c.ideal for c in components]
    if _initial_ideals_certify(ideal, parts):
        return
    if (all(c.certified_prime for c in components)
            and _colon_witness(ideal) is not None):
        raise IntersectionMismatch(jm.lattice)
    if not ideal_equal(_intersect_all(parts), ideal):
        raise IntersectionMismatch(jm.lattice)


def _colon_witness(ideal):
    """A colon witness of a homogeneous pure-difference ideal I, or None.

    For a variable x with I : x ≠ I : x², and f in I : x² but not in I : x,
    w = x·f lies outside I while w² = f·(x²f) lies in I, so w is in √I \\ I
    (a radical I has I : x = I : x² for every x).  The variables are walked
    in ring order, and the first one whose colons differ gives f: the first
    element of the basis of I : x², by decreasing lead, that the basis of
    I : x does not reduce to 0.  Both bases come from the one binomial basis
    of I under degrevlex with x last (``_binomial_colons``), and an element
    u - v lies in I : x exactly when x^u and x^v have one normal form
    modulo its basis.  Only w becomes a Poly.
    """
    for i in range(ideal.ring.nvars):
        ctx, colon1, colon2 = _binomial_colons(ideal, i)
        hm = ctx.hmask
        for lk, lp, tk, tp in sorted(colon2, key=lambda e: -e[0]):
            tail = None if tp < 0 else _bin_reduce_monomial(tk, tp, colon1, hm)
            if _bin_reduce_monomial(lk, lp, colon1, hm) != tail:
                x, wx = 1 << ctx.shifts[i], ctx.weights[i]
                w = (lk + wx, lp + x, tk + wx, -1 if tp < 0 else tp + x)
                return ReducedGB(ctx, binomial=[w]).basis[0]
    return None


# ---------------------------------------------------------------------------
# radicality certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadicalCertificate:
    verdict: str  # "radical" | "not_radical" | "inconclusive"
    route: str | None = None  # "squarefree_order" | "prime_intersection" | "witness"
    witness: object = None  # Poly for not_radical
    witness_order: object = None
    components: tuple = ()
    detail: str = ""

    @property
    def is_radical(self):
        return self.verdict == "radical"


def _all_monomials(ctx, degree):
    """The monomials of the given degree as (key, packed) pairs of ``ctx``,
    by increasing key: a monomial's key is the dot product of its exponents
    with ``ctx.weights``, and distinct monomials have distinct keys."""
    units = [(w, 1 << s) for w, s in zip(ctx.weights, ctx.shifts)]
    return sorted((sum(w for w, _ in c), sum(u for _, u in c))
                  for c in itertools.combinations_with_replacement(units, degree))


def _monomial_normal_forms(gb):
    """Memoised normal form of a monomial modulo a binomial reduced basis.

    Returns ``nf(key, packed)``, which gives the (key, packed) standard
    monomial that the monomial reduces to, or None when it reduces to 0.
    The memo lives as long as the returned function.
    """
    basis, hm = gb._binomial, gb._ctx.hmask
    memo = {}

    def nf(key, pk):
        out = memo.get(pk, memo)
        if out is memo:
            out = memo[pk] = _bin_reduce_monomial(key, pk, basis, hm)
        return out

    return nf


def _witness_search(jm, degree_bound, power_cap, primes=()):
    """First pure difference in √I \\ I among bounded-degree candidates.

    Candidates come in two rounds.  Round one rewrites a single variable of a
    monomial into an incomparable partner (differences m - m*y/x for an
    incomparable pair (x, y)); these products of a monomial with a difference
    of atoms are exactly the shape that witnesses non-radicality for diamond
    insertions.  Round two falls back to arbitrary equal-degree differences
    of standard monomials.  Membership in the radical is established by a
    power landing in the ideal, so the certificate is self-contained.

    Candidates are (key, packed) monomials of the ideal's binomial reduced
    basis from start to finish, and every test runs on them
    (``_monomial_normal_forms``): a monomial is standard exactly when it is
    its own normal form, x^u - x^v lies outside I exactly when the normal
    forms of x^u and x^v differ, and the 2^i-th power is squared in reduced
    form, since NF(ab) = NF(NF(a)·NF(b)) when a ≡ NF(a) modulo I.  The power
    lies in I exactly when it reduces to the empty sum.  Only the returned
    witness becomes a Poly, through ``ReducedGB.basis``.  A pure-difference
    ideal contains no monomial (its elements vanish at the all-ones point),
    so no normal form here is 0.

    ``primes`` holds the admissible sets A of prime components P_A ⊇ I.  A
    candidate with a variable of A in exactly one of its monomials is
    nonzero modulo P_A, so it lies outside P_A ⊇ √I and is skipped before
    any normal form is taken.
    """
    ring = jm.ring
    gb = jm.ideal.groebner()
    ctx = gb._ctx
    hm = ctx.hmask
    char = ring.char
    nf = _monomial_normal_forms(gb)
    # the packed mask of A's fields, for each A
    masks = [ctx.pack([MAX_EXPONENT - 1 if v in adm else 0 for v in ring.variables])
             for adm in primes]

    def is_witness(u, v):
        """u - v ((key, packed) pairs) is outside I and some 2^i-th power
        up to the cap is inside."""
        for m in masks:
            if bool(u[1] & m) != bool(v[1] & m):
                return False
        a, b = nf(*u), nf(*v)
        if a == b:
            return False
        power = {a: 1, b: -1}
        exponent = 1
        while exponent * 2 <= power_cap:
            terms = list(power.items())
            power = {}
            for i, ((ki, pi), ci) in enumerate(terms):
                for j in range(i, len(terms)):
                    (kj, pj), cj = terms[j]
                    pk = pi + pj
                    if pk & hm:
                        _overflow()
                    t = nf(ki + kj, pk)
                    c = ci * cj if i == j else 2 * ci * cj
                    power[t] = power.get(t, 0) + c
            if char:
                power = {t: c % char for t, c in power.items() if c % char}
            else:
                power = {t: c for t, c in power.items() if c}
            exponent *= 2
            if not power:
                return True
        return False

    # rewriting one x into an incomparable y of smaller key, one packed add:
    # (x's field mask, key change, packed change)
    w, sh = ctx.weights, ctx.shifts
    moves = [((MAX_EXPONENT - 1) << sh[x], w[y] - w[x], (1 << sh[y]) - (1 << sh[x]))
             for pair in jm.lattice.incomparable_pairs()
             for x, y in itertools.permutations(map(ring.index.get, pair))
             if w[y] < w[x]]

    def candidates():
        for d in range(2, degree_bound + 1):
            for k, p in _all_monomials(ctx, d):
                for v in sorted({(k + dk, p + dp) for f, dk, dp in moves if p & f}):
                    yield (k, p), v
        for d in range(2, degree_bound + 1):
            std = [u for u in _all_monomials(ctx, d) if nf(*u) == u]
            for j, u in enumerate(std):
                for v in std[:j]:
                    yield u, v

    for u, v in candidates():
        if is_witness(u, v):
            return ReducedGB(ctx, binomial=[(*u, *v)]).basis[0]
    return None


def radical_certificate(lattice, char=0, degree_bound=None):
    """Three-stage radicality check.

    1. squarefree initial ideal over a small fixed order family -> radical;
    2. all component primes certified and their intersection equals the
       ideal -> radical with the decomposition;
    3. bounded search for a pure-difference element of √I \\ I -> not
       radical with the witness; otherwise inconclusive.

    ``degree_bound`` (default: the lattice's height plus 2) must be at
    least 1.  A candidate is a witness when its square or fourth power lies
    in the ideal.  When I has a colon witness w (``_colon_witness``), the
    search stops at min(bound, deg w) and skips the candidates that a
    certified component rules out; if it finds nothing and deg w is within
    the bound, w is the witness.
    """
    if degree_bound is not None and degree_bound < 1:
        raise PreconditionViolated(
            f"degree_bound must be at least 1, got {degree_bound}")
    jm = join_meet_ideal(lattice, char)
    ring = jm.ring
    if not jm.ideal.generators:
        return RadicalCertificate("radical", route="squarefree_order",
                                  witness_order=ring.default_order,
                                  detail="zero ideal")
    rev = tuple(reversed(ring.variables))
    for order in (degrevlex(ring.variables), lex(ring.variables),
                  degrevlex(rev), lex(rev)):
        ini = initial_ideal(jm.ideal, order)
        if ini.is_squarefree():
            return RadicalCertificate(
                "radical", route="squarefree_order", witness_order=order,
                detail=f"squarefree initial ideal under {order.describe(ring)}",
            )
    components = minimal_primes(lattice, char, _verify=False)
    primes = [c for c in components if c.certified_prime]
    # only an intersection of certified primes proves I radical, so only
    # then is it checked, in _verify_decomposition's steps, which walk the
    # colons once for both the check and the search's bound; the bases of
    # jm computed above serve the check too
    all_prime = len(primes) == len(components)
    parts = [c.ideal for c in components]
    verified = all_prime and _initial_ideals_certify(jm.ideal, parts)
    colon = None if verified else _colon_witness(jm.ideal)
    if all_prime and not verified and colon is None:
        verified = ideal_equal(_intersect_all(parts), jm.ideal)
    if verified:
        return RadicalCertificate(
            "radical", route="prime_intersection",
            components=tuple(components),
            detail="all component primes certified; intersection verified",
        )
    bound = lattice.height + 2 if degree_bound is None else degree_bound
    cap = bound if colon is None else min(bound, colon.total_degree())
    witness = _witness_search(jm, cap, 4, [c.admissible for c in primes])
    if witness is None and colon is not None and colon.total_degree() <= bound:
        witness = colon
    if witness is not None:
        return RadicalCertificate(
            "not_radical", route="witness", witness=witness,
            detail=f"witness found at degree {witness.total_degree()}",
        )
    return RadicalCertificate(
        "inconclusive",
        detail=f"no squarefree order, no certified decomposition, and no "
               f"witness up to degree {bound}",
    )


# ---------------------------------------------------------------------------
# squarefree order scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanReport:
    """The verdicts of a squarefree order scan.

    ``distinct_initial_ideals`` counts the distinct initial ideals of an
    exhaustive scan.  It is None for a sampled scan, which settles a
    non-squarefree order at its first non-squarefree lead m: every order
    that keeps m above the other term of m's element and each m/x least in
    its fiber component has m as a minimal generator of its in(I) (proof at
    ``squarefree_order_scan``).  So a sampled scan never learns the whole
    of that order's in(I).
    """

    total_orders: int
    any_squarefree: bool
    witness_kind: str | None
    witness_priority: tuple | None
    counts: dict
    exhaustive: bool
    sample_size: int | None
    seed: int
    distinct_initial_ideals: int | None


def _tuple_order(kind, perm):
    """The key and comparison of the ``kind`` order with priority ``perm``
    (variable indices, highest first) on exponent tuples of one degree: the
    order puts a above b exactly when ``above(key(a), key(b))``.  Lex reads
    the tuples in ``perm`` order and the larger is above.  Degrevlex reads
    them in reversed ``perm`` order and the smaller is above, which holds
    only between tuples of one degree, as the two terms of every binomial of
    a homogeneous ideal are."""
    if kind == "lex":
        return itemgetter(*perm), gt
    return itemgetter(*perm[::-1]), lt


def _fiber_component(start, moves):
    """The monomials, as exponent tuples, that a chain of moves joins to
    ``start``, ``start`` included: a move trades the term a of a generator
    a - b for b in a monomial that a divides, and ``moves`` holds each
    generator's (a, b) and (b, a)."""
    seen = {start}
    todo = [start]
    for u in todo:
        for a, b in moves:
            if all(map(ge, u, a)):
                v = tuple(x - y + z for x, y, z in zip(u, a, b))
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
    return seen


class _Cone:
    """Groebner cone of one reduced basis G of a join-meet ideal I, or a
    negative cone of a run stopped at its first non-squarefree lead.

    An order lies in the cone when it picks the same leading term in every
    element of G; G is then its reduced basis too (Mora–Robbiano), so the
    squarefree verdict carries over.  Under such an order the leading term
    of each generator lies in in(I) = <lead(G)>; ``off_first`` and
    ``off_second`` mark the generators whose first or second monomial does
    not, so one bitmask per order rejects most cones before any comparison
    is made.  ``pairs`` holds the (above, below) exponent tuples that an
    order in the cone ranks that way, the last one to fail at the front;
    for G, the (lead, tail) of each binomial.  The two tuples of a pair
    have one degree, so ``_tuple_order``'s rule for the kind compares them.

    A negative cone (``settled``) keeps the element g = m - t of a sampled
    run that stopped at its non-squarefree lead m, and holds every order
    that puts m above t and each m/x least in its fiber component; no such
    order is squarefree (``squarefree_order_scan``).  Its masks are empty.
    """

    __slots__ = ("leads", "squarefree", "off_first", "off_second", "pairs")

    def __init__(self, ctx, elements, gens):
        """``elements``: binomial elements of G, packed by ``ctx``, the
        context of the run that found them; ``gens``: the (first, second)
        exponent tuples of each generator of I."""
        unpack = ctx.unpack
        self.squarefree = not any(e[1] & ctx.above_one for e in elements)
        leads = self.leads = frozenset(unpack(e[1]) for e in elements)
        # I is generated in degree two, so every lead has degree >= 2 and a
        # degree-two monomial lies in <lead(G)> exactly when it is a lead
        self.off_first = self.off_second = 0
        for i, (m1, m2) in enumerate(gens):
            if m1 not in leads:
                self.off_first |= 1 << i
            if m2 not in leads:
                self.off_second |= 1 << i
        self.pairs = [(unpack(lp), unpack(tp)) for _, lp, _, tp in elements if tp >= 0]

    @classmethod
    def settled(cls, ctx, g, moves):
        """The negative cone of the element ``g``, packed by ``ctx``, whose
        lead m stopped a run: (m, tail(g)), and (c, m/x) for each variable x
        dividing m and each other monomial c of m/x's fiber component
        (``_fiber_component`` over ``moves``)."""
        cone = cls.__new__(cls)
        cone.squarefree, cone.leads = False, None
        cone.off_first = cone.off_second = 0
        m = ctx.unpack(g[1])
        cone.pairs = [(m, ctx.unpack(g[3]))]
        for i, e in enumerate(m):
            if e:
                below = (*m[:i], e - 1, *m[i + 1:])
                cone.pairs += [(c, below) for c in _fiber_component(below, moves)
                               if c != below]
        return cone

    def contains(self, key, above):
        """True when the order of ``_tuple_order``'s (key, above) lies in
        the cone."""
        pairs = self.pairs
        for j, (high, low) in enumerate(pairs):
            if not above(key(high), key(low)):
                if j:
                    pairs.insert(0, pairs.pop(j))
                return False
        return True


def _settling_stop(ctx, stash):
    """A stop hook for the pair loop (``_buchberger_core``) on a homogeneous
    binomial ideal: it ends the run at the first added lead that is not
    squarefree (one with a bit of ``ctx.above_one``) and leaves that lead's
    element in ``stash``, for a negative cone (``_Cone.settled``)."""
    seen = 0

    def stop(basis, degree):
        nonlocal seen
        for e in basis[seen:]:
            if e[1] & ctx.above_one:
                stash.append(e)
                return True
        seen = len(basis)
        return False

    return stop


def _scan_orders(lattice, kinds, perms, char, settle=False):
    """Scan (kind, permutation) pairs.

    Returns the per-kind counts, the first squarefree (kind, priority) and
    the leading-term set, as exponent tuples, of each distinct initial ideal
    met.  The ideal scanned is the join-meet ideal, whose generators
    ab - (a∧b)(a∨b) are homogeneous of degree two; the degrevlex rule of
    ``_tuple_order`` and ``settle`` both rely on that.  Each order is tested
    against the Groebner cones found so far, most recently used first, by
    comparing exponent tuples (``_tuple_order``).  Only an order outside all
    of them becomes an order object, and the engine runs in that order's
    own packing (``_Ctx``).  The new cone unpacks the run's basis once into
    exponent tuples.

    With ``settle`` (sampled scans), a run stops at its first lead m that
    is not squarefree (``_settling_stop``) and leaves a negative cone
    (``_Cone.settled``) of the orders under which m is a minimal generator
    of in(I) (proof at ``squarefree_order_scan``).  A squarefree verdict,
    and so the witness, comes only from a whole reduced basis, and the
    leading-term sets are those of the whole bases, so they count the
    distinct initial ideals only when nothing settles.
    """
    jm = join_meet_ideal(lattice, char)
    ring = jm.ring
    gens = [tuple(g.terms) for g in jm.ideal.generators]
    moves = gens + [(m2, m1) for m1, m2 in gens]
    everything = (1 << len(gens)) - 1
    counts = {k: {"orders": 0, "squarefree": 0} for k in kinds}
    witness = None
    cones = []
    leading = []
    for perm in perms:
        for kind in kinds:
            key, above = _tuple_order(kind, perm)
            first = sum(1 << i for i, (m1, m2) in enumerate(gens)
                        if above(key(m1), key(m2)))
            second = everything ^ first
            for c, cone in enumerate(cones):
                if (first & cone.off_first or second & cone.off_second
                        or not cone.contains(key, above)):
                    continue
                if c:
                    cones.insert(0, cones.pop(c))
                break
            else:
                ctx = _Ctx(ring, MonomialOrder(
                    kind, tuple(ring.variables[i] for i in perm)))
                elements = [(*ctx.key_pack(m1), *ctx.key_pack(m2)) for m1, m2 in gens]
                stash = []
                basis = _binomial_buchberger(
                    ctx, elements, stop=_settling_stop(ctx, stash) if settle else None)
                if basis is None:
                    cone = _Cone.settled(ctx, stash[0], moves)
                else:
                    cone = _Cone(ctx, basis, gens)
                    leading.append(cone.leads)
                cones.insert(0, cone)
            counts[kind]["orders"] += 1
            if cone.squarefree:
                counts[kind]["squarefree"] += 1
                if witness is None:
                    witness = (kind, tuple(ring.variables[i] for i in perm))
    return counts, witness, leading


def squarefree_order_scan(lattice, kinds=("lex", "degrevlex"), exhaustive=None,
                          sample=10000, seed=0, char=0):
    """Per-order squarefree verdicts over Lex/DegRevLex variable permutations;
    ``kinds`` names each of the two at most once.

    Exhausts all permutations for rings with at most eight variables by
    default and takes a seeded sample above that; ``exhaustive=True`` forces
    the full enumeration.  The scan's permutations form one stream, all of
    them in itertools order or ``sample`` draws of ``random.Random(seed)``,
    scanned in this process by one ``_scan_orders`` call, so one cone cache
    serves every order.

    The engine runs once per Groebner cone met, not once per order: each
    order is tested against the cones found so far by comparing exponent
    tuples (``_tuple_order``).  Lex reads them in priority order; degrevlex
    reads them in reversed priority order, which ranks only monomials of
    one degree, so the scan needs homogeneous input, as every join-meet
    ideal is.

    A sampled scan settles a non-squarefree order at its first lead m that
    is not squarefree, of degree d, in the element g = m - t, and keeps a
    negative cone (``_Cone.settled``).  The proof that no order in it is
    squarefree rests on fibers (Diaconis–Sturmfels 1998): I is spanned in
    each degree e by the differences x^u - x^v along moves w·(a - b) of its
    generators a - b, so in(I)_e holds every monomial of degree e but the
    least of each fiber component.  Pairs leave the heap by degree on the
    homogeneous I, so when g is added the leads so far generate in(I) below
    d, and none divides m: each m/x is least in its component.  Under any
    order that puts m above t and each m/x least in its component, m lies
    in in(I) and no m/x does, so m is a minimal generator of in(I), and the
    order is not squarefree.  A squarefree verdict and the witness come
    only from whole reduced bases, and exhaustive scans build only those.
    A sampled scan does not learn each order's whole in(I), so its report's
    ``distinct_initial_ideals`` is None.
    """
    if not 0 < len(kinds) == len(set(kinds) & {"lex", "degrevlex"}):
        raise PreconditionViolated(
            f"kinds must name lex or degrevlex, each once, got {tuple(kinds)}")
    if sample < 1:
        raise PreconditionViolated(f"sample must be at least 1, got {sample}")
    n = len(lattice.elements)
    if exhaustive is None:
        exhaustive = n <= 8
    if exhaustive:
        total, perms = math.factorial(n), itertools.permutations(range(n))
    else:
        rng = random.Random(seed)
        total = sample
        perms = (tuple(rng.sample(range(n), n)) for _ in range(sample))
    counts, witness, leading = _scan_orders(lattice, kinds, perms, char,
                                            settle=not exhaustive)
    return ScanReport(
        total_orders=total * len(kinds),
        any_squarefree=witness is not None,
        witness_kind=witness[0] if witness else None,
        witness_priority=witness[1] if witness else None,
        counts=counts,
        exhaustive=exhaustive,
        sample_size=None if exhaustive else sample,
        seed=seed,
        distinct_initial_ideals=len(leading) if exhaustive else None,
    )


# ---------------------------------------------------------------------------
# the two-rail family suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class LkReport:
    n: int
    k: int
    stages: tuple
    component_dims: dict
    quotient_dim: int

    @property
    def passed(self):
        return all(s.passed for s in self.stages)


def lk_family_initial_monomials(n, k, ring):
    """The expected minimal generators of the degrevlex initial ideal."""
    monos = set()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            monos.add(_name_mono(ring, {f"x{j}": 1, f"y{i}": 1}))
    for i in range(1, k):
        monos.add(_name_mono(ring, {f"x{i}": 1, f"y{k + 1}": 1}))
    for j in range(k + 1, n + 1):
        monos.add(_name_mono(ring, {f"x{k}": 1, f"y{j}": 1}))
    for i in range(1, k):
        for j in range(k + 2, n + 1):
            monos.add(_name_mono(ring, {f"x{i}": 1, f"x{k + 1}": 1, f"y{j}": 1}))
            monos.add(_name_mono(ring, {f"x{i}": 1, f"y{k}": 1, f"y{j}": 1}))
    for i in range(1, k):
        monos.add(_name_mono(ring, {f"y{i}": 1, f"y{k}": 1, "z": 1}))
    monos.add(_name_mono(ring, {f"x{k + 1}": 1, "z": 1}))
    monos.add(_name_mono(ring, {f"y{k}": 2, "z": 1}))
    return MonomialIdeal(ring, monos)


def lk_expected_primes(n, k, ring, ideal):
    """The seven expected minimal primes, as (name, Ideal) pairs."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    ys = [f"y{i}" for i in range(1, n + 1)]

    def ladder_binomials(lo, hi):
        out = []
        for i in range(lo, hi + 1):
            for j in range(i + 1, hi + 1):
                out.append(
                    ring.monomial({f"x{j}": 1, f"y{i}": 1})
                    - ring.monomial({f"x{i}": 1, f"y{j}": 1})
                )
        return out

    zvar = ring.var("z")
    P = Ideal(ring, list(ideal.generators)
              + [zvar - ring.var(f"x{k + 1}"), zvar - ring.var(f"y{k}")])
    P1 = Ideal(ring, [zvar] + [ring.var(v) for v in xs])
    P1x = Ideal(ring, [zvar] + [ring.var(v) for v in ys])
    P2 = Ideal(ring, [zvar]
               + [ring.var(v) for v in xs[:k] + ys[:k]]
               + ladder_binomials(k + 1, n))
    P2x = Ideal(ring, [zvar]
                + [ring.var(v) for v in xs[k:] + ys[k:]]
                + ladder_binomials(1, k))
    P3 = Ideal(ring, [ring.var(v) for v in xs + ys[:k]])
    P3x = Ideal(ring, [ring.var(v) for v in ys + xs[k:]])
    return [("P", P), ("P1", P1), ("P1x", P1x), ("P2", P2), ("P2x", P2x),
            ("P3", P3), ("P3x", P3x)]


def lk_suite(n, k, char=0):
    """Verify the documented facts about the two-rail-plus-diamond family;
    ``fixtures.lk`` raises BadParameters for an (n, k) outside the family."""
    lattice = build_lk(n, k)
    jm = join_meet_ideal(lattice, char)
    ring = jm.ring
    I = jm.ideal
    stages = []

    ini = initial_ideal(I)
    expected = lk_family_initial_monomials(n, k, ring)
    stages.append(StageResult(
        "initial_ideal_family", ini == expected,
        "" if ini == expected else f"got {ini!r}, expected {expected!r}",
    ))

    zvar = ring.var("z")
    diag = ring.var(f"x{k + 1}") - ring.var(f"y{k}")
    I_z = I.plus([zvar])
    I_diag = I.plus([diag])

    ini_z = initial_ideal(I_z)
    want_z = MonomialIdeal(ring, [*ini.gens, _name_mono(ring, {"z": 1})])
    stages.append(StageResult("ini_with_z", ini_z == want_z,
                              "" if ini_z == want_z else f"{ini_z!r}"))

    ini_diag = initial_ideal(I_diag)
    extra = [_name_mono(ring, {f"x{k + 1}": 1})]
    extra += [_name_mono(ring, {f"y{i}": 1, f"y{k}": 1}) for i in range(1, k)]
    extra += [_name_mono(ring, {f"y{k}": 2})]
    want_diag = MonomialIdeal(ring, [*ini.gens, *extra])
    stages.append(StageResult("ini_with_diagonal", ini_diag == want_diag,
                              "" if ini_diag == want_diag else f"{ini_diag!r}"))

    meet = intersect(I_diag, I_z)
    ok_meet = ideal_equal(meet, I)
    stages.append(StageResult("intersection_identity", ok_meet))

    stages.append(StageResult("squarefree_with_z", ini_z.is_squarefree()))

    lex_order = lex(("z",) + tuple(f"x{i}" for i in range(1, n + 1))
                    + tuple(f"y{i}" for i in range(1, n + 1)))
    ini_diag_lex = initial_ideal(I_diag, lex_order)
    stages.append(StageResult("squarefree_with_diagonal_lex",
                              ini_diag_lex.is_squarefree()))

    components = minimal_primes(lattice, char)
    # P_A holds exactly the variables of A: match it with that prime alone,
    # by reduced bases under the order whose basis each component caches
    first = _certificate_orders(ring)[0]
    expected = {frozenset(ring.variables[i] for g in ideal.generators
                          if len(g.terms) == 1 for i in g.support()): (name, ideal)
                for name, ideal in lk_expected_primes(n, k, ring, I)}
    names = {}
    for comp in components:
        name, ideal = expected.get(frozenset(comp.admissible), (None, None))
        if ideal is not None and comp.ideal.groebner(first) == ideal.groebner(first):
            names[name] = comp
    matched = len(components) == len(expected) == len(names)
    stages.append(StageResult(
        "minimal_primes", matched,
        "" if matched else f"{len(components)} components, matched {sorted(names)}",
    ))

    dims = {name: comp.dim for name, comp in sorted(names.items())}
    # quotient dimensions: P, P1, P1x reach n; the two variable-only primes
    # and the two ladder primes land at n-k+1 and k+1
    want_dims = {"P": n, "P1": n, "P1x": n, "P2": n - k + 1, "P2x": k + 1,
                 "P3": n - k + 1, "P3x": k + 1}
    dims_ok = matched and dims == want_dims
    stages.append(StageResult(
        "component_dimensions", dims_ok,
        "" if dims_ok else f"got {dims}, expected {want_dims}",
    ))

    qdim = krull_dim(ini)
    stages.append(StageResult("quotient_dimension", qdim == n,
                              "" if qdim == n else f"got {qdim}"))

    return LkReport(n=n, k=k, stages=tuple(stages), component_dims=dims,
                    quotient_dim=qdim)


def _name_mono(ring, spec):
    """Exponent tuple of the monomial given as {variable name: exponent}."""
    e = [0] * ring.nvars
    for name, c in spec.items():
        e[ring.index[name]] += c
    return tuple(e)
