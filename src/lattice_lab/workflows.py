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
checked in one place, ``_decomposition_holds``, which ``minimal_primes`` and
``radical_certificate`` both read, in three steps.  First from initial
ideals: in(∩ P_A) ⊆ ∩ in(P_A) under any order, and J ⊆ K with in(J) = in(K)
forces J = K, so I ⊆ every P_A together with in(I) = ∩ in(P_A) proves
I = ∩ P_A.  Two orders are tried, degrevlex with the variables reversed
first, under which the component bases are built, then the default one.  The
initial ideals stay MonomialIdeals, which meet by pairwise lcms; whether
in(I) holds each generator of ∩ in(P_A) is decided by a walk over its fiber
component, with no basis of I, and I ⊆ P_A is read off P_A's basis under
the same order: by variable masks for the generators of I that meet A, and
by normal forms for those that avoid it.  One fiber walker, ``groebner._Fibers``,
serves that test and the sampled order scan's fiber cones.  Then the
colons are walked once, and when every component is certified prime a
colon witness disproves it: for a variable x with I : x ≠ I : x², an f in
I : x² \\ I : x gives w = x·f outside I with w² in I, so I is not radical,
while an intersection of primes is.  Both colons come from one binomial
basis of I per variable.  Only when neither step decides are the
components themselves intersected and compared with I.

The colon witness also bounds the radicality certificate's search for an
element of √I \\ I: the search stops at the witness's degree, and the
witness is the answer when the search finds nothing below it.  The certified
components bound it too, as √I lies in each: a candidate reaches a normal
form only when it lies in every certified P_A, which for a rewrite
(m/x)(x - y) is read off A and one Hermite basis of Λ_A.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import reduce

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
    _binomial_elements,
    _binomial_shape,
    _Ctx,
    _default_ctx,
    _Fibers,
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
    basic_binomial_pairs,
    enumerate_admissible_sets,
    restrict_to_complement,
)
from .poly import (
    MAX_EXPONENT,
    MonomialOrder,
    PolyRing,
    _FIELD_BITS,
    degrevlex,
    lex,
)
from .snf import echelon_basis, smith_normal_form


@dataclass(frozen=True)
class PrimeComponent:
    admissible: tuple  # the element names of A
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
    """The Ideal generated by ab - (a∧b)(a∨b) over the incomparable pairs,
    one basic binomial per pair, in pair order."""
    ring = PolyRing(lattice.elements, char)
    return Ideal(ring, _basic_binomials(lattice, ring))


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


def _component_gens(lattice, admissible, ring, ideal=None):
    """P_A as an Ideal of ``ring``: the saturated binomial part S
    (``saturate``), then the variables of A, made by ``S.plus``, so that its
    bases start from the one S caches (``Ideal.groebner``).  For A = ∅ the
    part is the join-meet ideal itself, and ``ideal``, when given, is
    saturated in its stead, so a basis it caches starts the run."""
    members = set(admissible)
    survivors = [e for e in lattice.elements if e not in members]
    variables = [ring.var(v) for v in admissible]
    if survivors:
        sub = restrict_to_complement(lattice, admissible)
        part = (ideal if ideal is not None and not admissible
                else Ideal(ring, _basic_binomials(sub, ring)))
        if part.generators:
            sat = saturate(part, ring.monomial(dict.fromkeys(survivors, 1)))
            return sat.plus(variables)
    return Ideal(ring, variables)


def component_prime(lattice, admissible, char=0):
    """The candidate prime P_A: saturated complement ideal plus A's
    variables, for any iterable of A's elements."""
    admissible = tuple(admissible)
    ring = PolyRing(lattice.elements, char)
    ideal = _component_gens(lattice, admissible, ring)
    return _prime_component(admissible, ideal, _two_term_sides(ideal))


def _two_term_sides(ideal):
    """``_binomial_sides`` of the two-term generators of a component."""
    return _binomial_sides(g for g in ideal.generators if len(g.terms) == 2)


def _prime_component(admissible, ideal, sides):
    """PrimeComponent of P_A, the variables of A plus the lattice ideal of
    Λ_A: one Smith form gives its certificate and its dimension
    |L| - |A| - rank Λ_A (Eisenbud–Sturmfels 1996), also when Λ_A = 0 and
    the form has no rows.  Its rows are the u - v of P_A's own two-term
    generators x^u - x^v (``sides``, their ``_two_term_sides``), and no
    basis of P_A is read: pure differences that generate a lattice ideal
    I_L span L, as x^u ≡ x^v modulo them exactly when a chain of their
    moves joins u to v."""
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
    """True when some P_M in ``below`` lies in P_A, for the admissible set
    A given by ``mask``; each P_M is given by the binomial sides of its
    two-term generators that are not basic rows (``minimal_primes``), and
    none of those lists is empty.

    For M inside A, P_M lies in P_A exactly when each binomial x^u - x^v of
    P_M has a variable of A in both monomials, or in neither and u - v lies
    in Λ_A.  Λ_A is spanned by the rows u - v of the basic binomials
    (``basic``) that avoid A; A being admissible, each avoids A on both sides
    or on neither.  The reason: P_A meets the ring of the variables outside
    A in the lattice ideal of Λ_A, which holds no monomial and contains
    x^u - x^v exactly when u - v is in Λ_A.  A generator whose row is ± a
    basic row always passes, so it was dropped from ``below``.  Each P_M is
    first read without Λ_A, and a Hermite basis of Λ_A is built only when
    no P_M passes without one and some P_M has binomials avoiding A.
    """
    pending = []
    for sides in below:
        avoiding = []
        for mu, mv, diff in sides:
            hit_u, hit_v = mu & mask, mv & mask
            if not (hit_u or hit_v):
                avoiding.append(diff)
            elif not (hit_u and hit_v):
                break
        else:
            if not avoiding:
                return True
            pending.append(avoiding)
    if not pending:
        return False
    span = echelon_basis([d for mu, mv, d in basic if not (mu | mv) & mask])
    return any(all(span.contains(d) for d in avoiding) for avoiding in pending)


def minimal_primes(lattice, char=0, _verify=True, _ideal=None):
    """Inclusion-minimal component primes plus the verified intersection.

    Admissible sets are walked smallest first (``enumerate_admissible_sets``
    walks them in rank order and sorts the leaves).  P_M lies in P_A only
    when M lies in A (the variables in P_A are exactly those of A), and
    containment is transitive, so each set A is compared only with the
    minimal components found so far whose admissible set is strictly inside
    A's.  That test is integer-lattice membership (``_lattice_dominated``),
    since the binomial part of each P_A is the lattice ideal of Λ_A; it
    runs before any saturation, and a set that passes it is saturated and
    kept.

    Of each minimal P_M only the two-term generators x^u - x^v whose row
    u - v is not ± a basic row e_a + e_b - e_{a∧b} - e_{a∨b} are kept for
    that test, since the others lie in every admissible P_A with A ⊇ M: if
    both monomials hit A, the generator is in (x_A); if neither does, the
    row's support lies in supp(u) ∪ supp(v), so the row avoids A and u - v
    is in Λ_A; and exactly one cannot hit A, as that monomial would hit A
    in {a, b} or in {a∧b, a∨b}, and admissibility then makes the other one
    hit A too.  A component with no other two-term generator lies in every
    admissible strict superset, so the subset test alone settles those
    sets, and only the rest reach ``_lattice_dominated``.

    The components' intersection is then checked against the join-meet
    ideal I (``_decomposition_holds``), and a mismatch raises
    IntersectionMismatch, so the caller asserts the join-meet ideal is
    radical (or accepts the error as a non-radicality signal).
    ``_verify=False`` skips the check.

    Each component's basis under the certificate's first order is asked
    for here, and ``Ideal.groebner`` starts it from the saturated part's.
    ``_ideal`` is I when the caller holds it (``radical_certificate``,
    ``lk_suite``): the bases it caches are then read, by the P_∅
    saturation (``_component_gens``) and by the check.
    """
    I = join_meet_ideal(lattice, char) if _ideal is None else _ideal
    ring = I.ring
    index = lattice.index
    basic = _binomial_sides(I.generators)
    rows = {d for _, _, d in basic}
    rows.update([tuple(-x for x in d) for d in rows])
    first = _certificate_orders(ring)[0]

    components = []
    found = []  # (mask, sides of its other two-term generators) per component
    for adm in enumerate_admissible_sets(lattice):
        mask = 0
        for e in adm:
            mask |= 1 << index[e]
        # each set is walked once, so every earlier mask differs from it
        below = [rest for m, rest in found if m & mask == m]
        if not all(below) or _lattice_dominated(below, mask, basic):
            continue
        ideal = _component_gens(lattice, adm, ring, I)
        # the component's basis under the certificate's first order, cached
        # in the ideal for the initial-ideal certificate, which reads it
        # for in(P_A) and for the containment I ⊆ P_A; built by name
        # because the traced benchmark (perfbench/layers.py) requires a
        # buchberger call made directly from minimal_primes
        buchberger(ideal, first)
        sides = _two_term_sides(ideal)
        found.append((mask, [s for s in sides if s[2] not in rows]))
        components.append(_prime_component(adm, ideal, sides))
    if _verify and not _decomposition_holds(I, components)[0]:
        raise IntersectionMismatch(lattice)
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

    As I ⊆ every P, in(I) ⊆ M = ∩ in(P), so in(I) = M once every minimal
    generator of M lies in in(I).  ``_initial_ideal_toward`` decides that
    by fiber walks on the homogeneous join-meet ideal, and runs no engine
    on I; a basis of I the ideal caches is read whole.  I ⊆ P is decided
    on P's basis under the pass's order, one that ``minimal_primes`` cached
    for each pass, by variable masks first (``_contains_generators``): on
    a component P_A only the generators of I that avoid A are reduced.
    False means neither order proves it, not that the ideals differ.
    """
    for order in _certificate_orders(ideal.ring):
        meet = reduce(intersect, (initial_ideal(p, order) for p in parts))
        ini = _initial_ideal_toward(ideal, order, meet)
        if ini is not None and ideal_equal(meet, ini):
            supports = [[_support_mask(m) for m in g.terms] for g in ideal.generators]
            return all(_contains_generators(p.groebner(order), ideal.generators,
                                            supports) for p in parts)
    return False


def _contains_generators(gb, generators, supports):
    """True when the ideal of the reduced basis ``gb`` holds every
    generator; ``supports`` lists the support mask of each term of each
    generator, by ring index.

    The variables among gb's own monomial elements make a mask: a
    generator each of whose terms meets it lies in the ideal of those
    variables, so only the others are reduced.  On P_A those variables are
    A's (the lattice ideal of Λ_A holds no monomial), and when A is
    admissible each basic binomial meets A in both terms or in neither, so
    the others are the generators that avoid A."""
    mask = 0
    if gb._binomial is not None:
        bits = {1 << s: 1 << i for i, s in enumerate(gb._ctx.shifts)}
        for _, lp, _, tp in gb._binomial:
            if tp < 0:
                mask |= bits.get(lp, 0)
    return all(not gb.reduce(g) for g, terms in zip(generators, supports)
               if not all(m & mask for m in terms))


def _decomposition_holds(ideal, components):
    """(holds, colon): whether ``ideal`` is the intersection of the
    components, and the colon witness the check met, or None.

    The one check, in three steps.  The initial-ideal certificate
    (``_initial_ideals_certify``) decides first, from the components'
    bases and fiber walks on I, and then no colon is walked.  Otherwise
    the colons are walked once (``_colon_witness``): a witness decides
    False when every component is certified prime, since each P_A contains
    I by construction, so ∩ P_A is radical, and a colon witness proves I
    is not.  Only otherwise are the components intersected
    (``_intersect_all``) and compared with I.  ``ideal`` keeps its reduced
    bases, so a caller that has computed them pays for none: the default
    certificate pass reads a cached default-order basis whole, and so does
    the colon walk's pass for the last variable.  The components from
    ``minimal_primes`` cache their bases under the first certificate order,
    and their default-order ones are read off (``Ideal.groebner``), so
    neither pass runs the engine on a component."""
    parts = [c.ideal for c in components]
    if _initial_ideals_certify(ideal, parts):
        return True, None
    colon = _colon_witness(ideal)
    if colon is not None and all(c.certified_prime for c in components):
        return False, colon
    return ideal_equal(_intersect_all(parts), ideal), colon


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
    components: tuple = ()
    detail: str = ""

    @property
    def is_radical(self):
        return self.verdict == "radical"


def _all_monomials(ctx):
    """``monomials(d)``: the monomials of degree d as (key, packed) pairs of
    ``ctx``, by increasing key.  A monomial's key is the dot product of its
    exponents with ``ctx.weights``, and distinct monomials have distinct
    keys.

    Degree d is built from degree d - 1, each degree once: a monomial made
    of variables up to index i (by ring index, i its last one) gains one
    more of i or of a later variable, one add of key and packed unit each,
    so every monomial is made exactly once.  Each degree is sorted once."""
    units = list(enumerate(zip(ctx.weights, (1 << s for s in ctx.shifts))))
    after = [units[i:] for i in range(len(units) + 1)]
    levels = [[(0, 0, 0)]]  # (key, packed, index of the last variable)
    ordered = {}

    def monomials(degree):
        out = ordered.get(degree)
        if out is None:
            while len(levels) <= degree:
                levels.append([(k + w, p + u, j) for k, p, last in levels[-1]
                               for j, (w, u) in after[last]])
            out = ordered[degree] = sorted((k, p) for k, p, _ in levels[degree])
        return out

    return monomials


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


def _witness_search(lattice, ideal, degree_bound, power_cap, primes=()):
    """First pure difference in √I \\ I among bounded-degree candidates.

    Candidates come in two rounds (``_witness_candidates``).  Round one
    rewrites a single variable of a monomial into an incomparable partner
    (differences m - m*y/x for an incomparable pair (x, y)); these products
    of a monomial with a difference of atoms are exactly the shape that
    witnesses non-radicality for diamond insertions.  Round two falls back to
    arbitrary equal-degree differences of standard monomials.  Membership in
    the radical is established by a power landing in the ideal, so the
    certificate is self-contained.

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

    ``ideal`` is the join-meet ideal I of ``lattice``, whose incomparable
    pairs give round one's rewrites.  ``primes`` holds PrimeComponents P_A ⊇
    I certified prime, so √I lies in each of them, and a candidate outside
    one of them is dropped before any normal form is taken.  That drops no
    witness, and the first witness is the one the search finds without them.
    """
    gb = ideal.groebner()
    ctx = gb._ctx
    hm = ctx.hmask
    char = ideal.ring.char
    nf = _monomial_normal_forms(gb)

    def is_witness(u, v):
        """u - v ((key, packed) pairs) is outside I and some 2^i-th power
        up to the cap is inside."""
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

    for u, v in _witness_candidates(lattice, ctx, nf, degree_bound, primes):
        if is_witness(u, v):
            return ReducedGB(ctx, binomial=[(*u, *v)]).basis[0]
    return None


def _witness_candidates(lattice, ctx, nf, degree_bound, primes):
    """The witness search's candidates u - v, as pairs of (key, packed)
    monomials of ``ctx``, in search order, less those that some P_A in
    ``primes`` rules out.

    P_A = (x_A) + I_{Λ_A} is prime, and a monomial lies in it exactly when
    it holds a variable of A, as the lattice ideal I_{Λ_A} holds none.  A
    round-one candidate m - m·y/x = (m/x)(x - y) therefore lies in P_A
    exactly when m/x hits A or x - y lies in P_A, and x - y does exactly
    when both x and y are in A, or neither is and e_x - e_y lies in Λ_A
    (Eisenbud–Sturmfels 1996), which one Hermite basis of P_A's two-term
    rows decides.  So each rewrite x → y carries the fields of the sets A
    whose P_A misses x - y, and its candidate is kept exactly when m/x hits
    each of them: that is membership in ∩ P_A.  Round two keeps a
    candidate unless a variable of some A is in exactly one of its
    monomials, which puts it outside that P_A.
    """
    ring = ctx.ring
    full = MAX_EXPONENT - 1
    w, sh = ctx.weights, ctx.shifts
    # each A's variables by index with a Hermite basis of Λ_A, and the
    # packed mask of A's fields
    comps = [({ring.index[v] for v in c.admissible},
              echelon_basis([d for _, _, d in _two_term_sides(c.ideal)]))
             for c in primes]
    masks = [ctx.pack([full if i in members else 0 for i in range(ring.nvars)])
             for members, _ in comps]

    def misses(x, y):
        """The field masks of the sets A whose P_A misses x - y."""
        diff = [0] * ring.nvars
        diff[x], diff[y] = 1, -1
        return [mask for (members, span), mask in zip(comps, masks)
                if (x in members) != (y in members)
                or (x not in members and not span.contains(diff))]

    # rewriting one x into an incomparable y of smaller key, one packed add:
    # (x's field mask, key change, packed change, x's unit, masks it must hit)
    moves = [(full << sh[x], w[y] - w[x], (1 << sh[y]) - (1 << sh[x]), 1 << sh[x],
              misses(x, y))
             for pair in lattice.incomparable_pairs()
             for x, y in itertools.permutations(map(ring.index.get, pair))
             if w[y] < w[x]]
    # each degree's monomials are built once, when a round first reaches it
    monomials = _all_monomials(ctx)
    for d in range(2, degree_bound + 1):
        for k, p in monomials(d):
            for v in sorted({(k + dk, p + dp) for f, dk, dp, x, hit in moves
                             if p & f and all((p - x) & m for m in hit)}):
                yield (k, p), v
    for d in range(2, degree_bound + 1):
        std = [u for u in monomials(d) if nf(*u) == u]
        for j, u in enumerate(std):
            for v in std[:j]:
                if all(bool(u[1] & m) == bool(v[1] & m) for m in masks):
                    yield u, v


def _squarefree_under(ideal, order):
    """Whether in(I) under ``order`` is squarefree, for a homogeneous
    pure-difference ideal I.  Under the default order the whole basis is
    built and cached, as the colon walk and the witness search read it.
    Under any other order the run stops at its first lead m that is not
    squarefree: m is then a minimal generator of in(I), by the proof at
    ``squarefree_order_scan``.  A yes or no is all it needs, so it does not
    settle the rest of m's degree as a sampled scan's run does
    (``_settling_stop``), which would form several times the S-elements.  A
    run that ends by itself has built the reduced basis, whose leads are
    the minimal generators."""
    ring = ideal.ring
    if order == ring.default_order:
        return initial_ideal(ideal, order).is_squarefree()
    ctx = _Ctx(ring, order)
    seen = 0

    def stop(basis, degree):
        nonlocal seen
        if any(e[1] & ctx.above_one for e in basis[seen:]):
            return True
        seen = len(basis)
        return False

    basis = _binomial_buchberger(ctx, _binomial_elements(ctx, ideal.generators),
                                 stop=stop)
    return basis is not None and not any(e[1] & ctx.above_one for e in basis)


def radical_certificate(lattice, char=0, degree_bound=None):
    """Three-stage radicality check.

    1. squarefree initial ideal over a small fixed order family -> radical
       (``_squarefree_under``: the default order's whole basis, which later
       stages read, and three runs that stop at their first lead that is
       not squarefree);
    2. all component primes certified and their intersection equals the
       ideal (``_decomposition_holds``) -> radical with the decomposition;
    3. bounded search for a pure-difference element of √I \\ I -> not
       radical with the witness; otherwise inconclusive.

    ``degree_bound`` (default: the lattice's height plus 2) must be at
    least 1.  A candidate is a witness when its square or fourth power lies
    in the ideal.  When I has a colon witness w (``_colon_witness``, from
    the check's walk, or walked here when the check holds), the search
    stops at min(bound, deg w); if it finds nothing and deg w is within the
    bound, w is the witness.  The search gets the certified components and
    takes a normal form only of the candidates that lie in each of them
    (``_witness_candidates``), which drops no element of √I.
    """
    if degree_bound is not None and degree_bound < 1:
        raise PreconditionViolated(
            f"degree_bound must be at least 1, got {degree_bound}")
    I = join_meet_ideal(lattice, char)
    ring = I.ring
    if not I.generators:
        return RadicalCertificate("radical", route="squarefree_order",
                                  detail="zero ideal")
    rev = tuple(reversed(ring.variables))
    for order in (ring.default_order, lex(ring.variables),
                  degrevlex(rev), lex(rev)):
        if _squarefree_under(I, order):
            return RadicalCertificate(
                "radical", route="squarefree_order",
                detail=f"squarefree initial ideal under {order.describe(ring)}",
            )
    # the default-order basis of I built above starts the P_∅ saturation
    # and serves the check too
    components = minimal_primes(lattice, char, _verify=False, _ideal=I)
    primes = [c for c in components if c.certified_prime]
    holds, colon = _decomposition_holds(I, components)
    if holds and len(primes) == len(components):
        return RadicalCertificate(
            "radical", route="prime_intersection",
            components=tuple(components),
            detail="all component primes certified; intersection verified",
        )
    if holds and colon is None:
        # a component is not certified prime, so the decomposition proves
        # nothing; the check walks the colons only once its certificate
        # fails, and their witness bounds the search
        colon = _colon_witness(I)
    bound = lattice.height + 2 if degree_bound is None else degree_bound
    cap = bound if colon is None else min(bound, colon.total_degree())
    witness = _witness_search(lattice, I, cap, 4, primes)
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

    An exhaustive scan's ``counts`` sum the orders of each whole Groebner
    cone met, counted without visiting them, and its witness is the first
    squarefree priority in itertools order (``_count_orders``); a sampled
    scan counts the orders it draws.  ``distinct_initial_ideals`` counts the
    distinct initial ideals, one per cone, of an exhaustive scan.  It is
    None for a sampled scan, which settles a non-squarefree order on one
    minimal generator m of its in(I) that is not squarefree, through the
    fiber cone of the orders that have m as one (proof at
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


_FLIP = {"lex": 0, "degrevlex": -1}  # the mask each kind XORs into W


def _sliced(pairs, home):
    """The rules of (above, below) pairs of monomials of one degree, as a
    homogeneous binomial's are, packed by ``home``, the ring's default
    context, whose field v holds variable v, bit-sliced by variable: (on,
    off), where ``on[v]`` is the bitmask of the rules, by their place in
    ``pairs``, whose D holds v, and ``off[v]`` that of the rules whose W
    holds v.

    A pair's rule is (D, W): D is the support of above - below and W = {v :
    above_v < below_v}.  An order reads the variables in its priority under
    lex and in its reversed priority under degrevlex, and decides the rule
    at the first variable of D that it reads.  Lex wants the larger exponent
    there, so it keeps the rule when that variable is outside W, and
    degrevlex the smaller, so it keeps it exactly when lex does not: each
    kind XORs its flip (``_FLIP``) into W inside D.  One guard-bit compare
    each way gives both sets: the guard bit of field v survives in
    ((a | guard) - b) & guard exactly when a_v >= b_v, so D holds the fields
    whose guard bit survives one compare only, and W those where it survives
    only the compare of below against above."""
    hm = home.hmask
    on, off = [0] * home.n, [0] * home.n
    for j, (a, b) in enumerate(pairs):
        bit = 1 << j
        ge = ((a | hm) - b) & hm
        le = ((b | hm) - a) & hm
        support = ge ^ le
        while support:
            low = support & -support
            v = low.bit_length() // _FIELD_BITS - 1
            on[v] |= bit
            if le & low:
                off[v] |= bit
            support ^= low
    return on, off


def _kept(sliced, reading, flip):
    """The bitmask of the rules (``_sliced``) that the order of flip
    ``flip`` (``_FLIP``) reading the variables in ``reading`` keeps, in one
    pass: the rules of ``on[v]`` not decided before are decided at v, and
    those of ``off[v] ^ flip`` among them are broken.  No order keeps a
    rule of empty D."""
    on, off = sliced
    left, kept = -1, 0
    for v in reading:
        new = on[v] & left
        if new:
            kept |= new & ~(off[v] ^ flip)
            left ^= new
    return kept


def _holds(sliced, reading, flip, every, some):
    """True when the order of flip ``flip`` reading the variables in
    ``reading`` keeps each rule of the bitmask ``every`` and, unless
    ``some`` is 0, at least one rule of ``some``: the pass of ``_kept``,
    ended once the answer is known."""
    on, off = sliced
    left, met = every | some, not some
    for v in reading:
        new = on[v] & left
        if new:
            broken = new & (off[v] ^ flip)
            if broken & every:
                return False
            if not met and new & some & ~broken:
                met = True
                left &= every
            left &= ~new
            if not left:
                return met
    return met and not left & every


class _Cone:
    """The orders that rank given (above, below) pairs of monomials that
    way: the Groebner cone of one reduced basis G of a join-meet ideal I
    (``whole``), or the fiber cone of a monomial m (``settled``).

    The pairs come packed by the ring's default context, and ``sliced``
    holds their rules bit-sliced by variable (``_sliced``), one set for
    both kinds.  An order lies in the cone when it keeps every rule of the
    bitmask ``every`` and, unless ``some`` is 0, at least one rule of
    ``some``; a sampled scan tests an order so by one pass of its reading
    order under the kind's flip (``contains``), and an exhaustive scan
    counts a cone's orders from the same rules instead (``_order_tables``).

    An order lies in the cone of G when it picks the same leading term in
    every element of G; G is then its reduced basis too (proof at
    ``groebner.Ideal.groebner``), so the squarefree verdict carries over.
    Its rules are the (lead, tail) of each binomial, all in ``every``.
    Under such an order the leading term of each generator lies in in(I) =
    <lead(G)>; ``off_first`` and ``off_second`` mark the generators whose
    first or second monomial does not, so one bitmask per sampled order
    rejects most cones before any rule is read.

    The fiber cone of a monomial m that is not squarefree holds exactly the
    orders under which m is a minimal generator of in(I), so none of them
    is squarefree (``squarefree_order_scan``); its pairs come from the
    components of ``groebner._Fibers``.  Its masks are empty.
    """

    __slots__ = ("squarefree", "off_first", "off_second", "sliced", "every",
                 "some")

    def __init__(self, home, every, some=()):
        """The cone of the orders that rank each (above, below) pair of
        ``every`` that way and, when ``some`` has pairs, at least one pair of
        ``some``, each packed by ``home``, the ring's default context; not
        squarefree, and with empty masks."""
        pairs = list(every)
        self.every = (1 << len(pairs)) - 1
        pairs += some
        self.some = (1 << len(pairs)) - 1 ^ self.every
        self.sliced = _sliced(pairs, home)
        self.squarefree = False
        self.off_first = self.off_second = 0

    @classmethod
    def whole(cls, home, ctx, elements, gens):
        """The cone of G.  ``elements``: binomial elements of G, packed by
        ``ctx``, the context of the run that found them, and repacked to
        ``home``, the ring's default context; ``gens``: the (first, second)
        monomials of each generator of I, packed by ``home``."""
        there = home.repacker(ctx)
        pairs = [(there(lp), there(tp) if tp >= 0 else -1)
                 for _, lp, _, tp in elements]
        cone = cls(home, [pair for pair in pairs if pair[1] >= 0])
        cone.squarefree = not any(e[1] & ctx.above_one for e in elements)
        leads = {lead for lead, _ in pairs}
        # I is generated in degree two, so every lead has degree >= 2 and a
        # degree-two monomial lies in <lead(G)> exactly when it is a lead
        for i, (m1, m2) in enumerate(gens):
            if m1 not in leads:
                cone.off_first |= 1 << i
            if m2 not in leads:
                cone.off_second |= 1 << i
        return cone

    @classmethod
    def settled(cls, m, fibers):
        """The fiber cone of m, packed by ``fibers.ctx``, the ring's default
        context, from the components of ``fibers`` (``groebner._Fibers``) of
        I's generators.  By the lemma at ``squarefree_order_scan``, m/x lies
        outside in(I) exactly when it is least in its component, and m inside
        exactly when it is not least in its own.  So m is a minimal generator
        exactly when the order keeps (c, m/x) for each variable x dividing m
        and each other monomial c of m/x's component, all in ``every``, and
        (m, c) for at least one other monomial c of m's component, the rules
        of ``some``."""
        ctx = fibers.ctx
        every = []
        for s in ctx.shifts:
            if m >> s & (MAX_EXPONENT - 1):
                below = m - (1 << s)
                every += [(c, below) for c in fibers.component(below)
                          if c != below]
        return cls(ctx, every, [(m, c) for c in fibers.component(m) if c != m])

    def contains(self, kind, reading):
        """True when the ``kind`` order that reads the variables in
        ``reading`` lies in the cone (``_holds``)."""
        return _holds(self.sliced, reading, _FLIP[kind], self.every, self.some)


def _settling_stop(ctx, stash):
    """A stop hook for the pair loop (``_buchberger_core``) on the
    join-meet ideal: once a lead that is not squarefree (one with a bit of
    ``ctx.above_one``) is added, of degree d, the remaining pairs of degree
    d leave the heap, and the run ends before the first pair of the next
    degree, with every element of degree d whose lead is not squarefree in
    ``stash``, each for a fiber cone (``_Cone.settled``).

    The elements added since the hook's last call come from the pair that
    left then, of the degree it was told, as reduction keeps the degree on
    the homogeneous I; its generators, added before the first call, have
    squarefree leads.  When the run ends, the leads so far generate in(I)
    up to degree d and none divides another, so each lead of degree d is a
    minimal generator of in(I) (proof at ``squarefree_order_scan``)."""
    seen = last = 0

    def stop(basis, degree):
        nonlocal seen, last
        stash.extend(e for e in basis[seen:] if e[1] & ctx.above_one)
        if stash and degree > last:
            return True
        seen, last = len(basis), degree
        return False

    return stop


def _packed_generators(ring, gens, kind, perm):
    """The packing context of the ``kind`` order with priority ``perm``, and
    the (first, second) exponent tuples of ``gens`` packed by it, as the
    engine takes them."""
    ctx = _Ctx(ring, MonomialOrder(kind, tuple(ring.variables[i] for i in perm)))
    return ctx, [(*ctx.key_pack(m1), *ctx.key_pack(m2)) for m1, m2 in gens]


def _degree_three_seeds(gens):
    """The monomials x·t, as sorted exponent tuples, for each distinct term
    t of the join-meet generators ``gens`` and each variable x of t.

    The terms are squarefree of degree two, so x² is alone in its fiber
    and every degree-two lead is squarefree.  A monomial of degree three
    moves only when some term t divides it, and then it is x·t for a
    variable x, squarefree unless x divides t.  So the fiber cones of the
    seeds (``_Cone.settled``) together hold exactly the orders whose in(I)
    has a minimal generator of degree at most three that is not
    squarefree."""
    seeds = set()
    for t in {t for g in gens for t in g}:
        for x, e in enumerate(t):
            if e:
                seeds.add((*t[:x], e + 1, *t[x + 1:]))
    return sorted(seeds)


def _scan_orders(lattice, kinds, perms, char, settle=False):
    """Scan (kind, permutation) pairs one order at a time; sampled scans
    take this path.

    Returns the per-kind counts, the first squarefree (kind, priority) and
    the number of whole-basis cones met.  The ideal scanned is the join-meet
    ideal, whose generators ab - (a∧b)(a∨b) are homogeneous of degree two;
    the rules of ``_sliced`` and ``settle`` both rely on that.  Cones and
    the generators are packed by the ring's default context, ``home``, and
    hold no exponent tuples.  Each order is tested against the cones of one
    list, most recently used first, by one pass of its reading order over
    each cone's bit-sliced rules under its kind's flip (``_Cone.contains``),
    after the generator bitmask of ``_Cone``, kept from the generators'
    rules, sliced once per scan, in one pass too (``_kept``), once some cone
    has a mask.  The cone that holds it moves to the front.  Only an order
    outside all of them becomes an order object, and the engine runs in
    that order's own packing (``_Ctx``); its basis is repacked to ``home``
    once and sliced into the rules of a new cone at the front.

    With ``settle`` (sampled scans), the list starts with the fiber cones
    of the degree-three seeds (``_degree_three_seeds``), tried after every
    cone found so far.  A run goes on past its first lead that is not
    squarefree, of some degree d of at least four, until the last pair of
    degree d has left (``_settling_stop``), and leaves at the front the
    fiber cone (``_Cone.settled``) of each lead m of degree d that is not
    squarefree: the orders under which m is a minimal generator of in(I)
    (proof at ``squarefree_order_scan``), the run's own among them.  Fiber
    cones read the packed components of one ``_Fibers`` over ``home``, to
    which seeds and kept leads are packed.  A squarefree verdict, and so the
    witness, comes only from a whole reduced basis.  When nothing settles,
    the whole-basis count is the number of distinct initial ideals: the
    engine runs only for an order in no cone found so far, so its reduced
    basis is new, and so is its initial ideal, which determines the reduced
    basis.
    """
    I = join_meet_ideal(lattice, char)
    ring = I.ring
    gens = [tuple(g.terms) for g in I.generators]
    home = _default_ctx(ring)
    packed = [(home.pack(m1), home.pack(m2)) for m1, m2 in gens]
    fibers = _Fibers(home, _binomial_elements(home, I.generators))
    cones = ([_Cone.settled(home.pack(m), fibers)
              for m in _degree_three_seeds(gens)] if settle else [])
    gen_rules = _sliced(packed, home)
    everything = (1 << len(gens)) - 1
    counts = {k: {"orders": 0, "squarefree": 0} for k in kinds}
    witness = None
    whole = 0
    # fiber cones have empty masks, so the mask rejects nothing until a
    # whole cone is met
    masked = False
    first = second = 0
    for perm in perms:
        for kind in kinds:
            reading = perm if kind == "lex" else perm[::-1]
            if masked:
                first = _kept(gen_rules, reading, _FLIP[kind])
                second = everything ^ first
            for c, cone in enumerate(cones):
                if (first & cone.off_first or second & cone.off_second
                        or not cone.contains(kind, reading)):
                    continue
                if c:
                    cones.insert(0, cones.pop(c))
                break
            else:
                ctx, elements = _packed_generators(ring, gens, kind, perm)
                stash = []
                basis = _binomial_buchberger(
                    ctx, elements,
                    stop=_settling_stop(ctx, stash) if settle else None)
                if basis is None:
                    there = home.repacker(ctx)
                    new = [_Cone.settled(there(e[1]), fibers) for e in stash]
                else:
                    new = [_Cone.whole(home, ctx, basis, packed)]
                    masked = masked or bool(new[0].off_first | new[0].off_second)
                    whole += 1
                cones[:0] = new
                cone = new[0]
            counts[kind]["orders"] += 1
            if cone.squarefree:
                counts[kind]["squarefree"] += 1
                if witness is None:
                    witness = (kind, tuple(ring.variables[i] for i in perm))
    return counts, witness, whole


def _order_tables(sliced, flip):
    """The count table of the reading orders σ of flip ``flip``
    (``_FLIP``) that keep every rule of ``sliced`` (``_sliced``), placing σ
    front to back: for a set S of variables placed first (a bitmask) by a
    placing that keeps every rule, ``count[S]`` is the number of ways to
    place the rest without breaking one.  It is a dict over the sets that
    such placings reach.

    A rule (D, W) is decided at the first variable of D placed, so placing
    v after S breaks it when D misses S and v is in W ^ (D & flip): v is
    free unless ``on[v] & (off[v] ^ flip)`` meets a rule that no variable
    of S decides, and the recursion carries that set of rules down.
    count(S) sums count(S ∪ {v}) over the free v.  When some σ keeps every
    rule, every set reached has a completion: σ restricted to the variables
    left keeps every rule whose D misses S, and the placing that reached S
    decided the others.

    A placing that reaches S extends by v exactly when S ∪ {v} is a key: a
    rule v would decide has D ∩ (S ∪ {v}) = {v}, so each placing reaching
    S ∪ {v} decides it at v, and one did keep it.
    """
    on, off = sliced
    n = len(on)
    breaks = [o & (f ^ flip) for o, f in zip(on, off)]
    full = (1 << n) - 1
    count = {full: 1}

    def completions(placed, left):
        total = count.get(placed)
        if total is None:
            total = 0
            for v in range(n):
                bit = 1 << v
                if not placed & bit and not breaks[v] & left:
                    total += completions(placed | bit, left & ~on[v])
            count[placed] = total
        return total

    completions(0, -1)
    return count


def _cone_tables(lattice, kinds, char):
    """The whole Groebner cones that the ``kinds`` orders of every priority
    meet, each with the ``_order_tables`` count of its rules under each kind
    that meets it: a dict from kind to its list of (cone, count).

    A new cone is tabled under every kind at once, and enters a kind's list
    when it holds some order of that kind.  For each kind, a depth-first
    walk over prefixes of the reading order, in itertools order, starts
    from the cones already in the kind's list, keeps those whose table
    holds the prefix's set, and leaves a prefix once their counts of its
    completions add up to all (n - |prefix|)! of them.  A cone found below
    a prefix holds an order that extends it, so it joins the lists of
    every prefix on the path.  So a leaf is an order that no cone found so
    far holds, the engine runs there, and every run finds a new reduced
    basis.
    """
    I = join_meet_ideal(lattice, char)
    ring = I.ring
    n = ring.nvars
    gens = [tuple(g.terms) for g in I.generators]
    home = _default_ctx(ring)
    packed = [(home.pack(m1), home.pack(m2)) for m1, m2 in gens]
    rest = [math.factorial(n - depth) for depth in range(n + 1)]
    tables = {k: [] for k in kinds}
    path = []

    def meet(kind, reading):
        perm = reading if kind == "lex" else reading[::-1]
        ctx, elements = _packed_generators(ring, gens, kind, perm)
        cone = _Cone.whole(home, ctx, _binomial_buchberger(ctx, elements),
                           packed)
        for k in kinds:
            count = _order_tables(cone.sliced, _FLIP[k])
            if count[0]:
                tables[k].append((cone, count))
        # the cone holds the order just read, so its last entry is kind's
        for live in path:
            live.append(tables[kind][-1])

    def visit(kind, seq, placed, live):
        if sum(count[placed] for _, count in live) >= rest[len(seq)]:
            return
        if len(seq) == n:
            meet(kind, seq)
            return
        path.append(live)
        for v in range(n):
            bit = 1 << v
            if not placed & bit:
                visit(kind, seq + (v,), placed | bit,
                      [e for e in live if placed | bit in e[1]])
        path.pop()

    for kind in kinds:
        visit(kind, (), 0, list(tables[kind]))
    return tables


def _first_squarefree(kind, entries, n):
    """The first priority in itertools order of a ``kind`` order in one of
    the squarefree cones among ``entries`` (``_cone_tables``), or None.

    Each variable is the least that some squarefree cone still admits, so
    the walk never turns back, and one key test of the cone's count table
    (``_order_tables``) decides it.  Under lex the priority is the reading
    order, and the key is the prefix with v.  Under degrevlex the priority
    is the reading order reversed: v comes right before the end the prefix
    fixes, after a placing of the variables left, the key.  That placing
    extends by v: a rule that v would break has no variable of D left but
    v, so every placing of the variables left with v would break it, yet
    the step before found that set reached."""
    live = [e for e in entries if e[0].squarefree]
    if not live:
        return None
    flip = (1 << n) - 1 if kind == "degrevlex" else 0
    perm, placed = (), 0
    while len(perm) < n:
        for v in range(n):
            bit = 1 << v
            if placed & bit:
                continue
            key = (placed | bit) ^ flip
            kept = [e for e in live if key in e[1]]
            if kept:
                break
        perm, placed, live = perm + (v,), placed | bit, kept
    return perm


def _count_orders(lattice, kinds, char):
    """The exhaustive scan: (counts, witness, cones) as ``_scan_orders``
    gives them over all permutations in itertools order, from the cones'
    order counts (``_cone_tables``) instead of one visit per order.

    Each kind's orders are the sum of its cones' counts, which must come to
    n! since every order lies in exactly one cone.  The witness is the
    first squarefree priority over the kinds, the earlier kind in ``kinds``
    on a tie."""
    tables = _cone_tables(lattice, kinds, char)
    n = len(lattice.elements)
    counts = {}
    for kind, entries in tables.items():
        orders = sum(count[0] for _, count in entries)
        if orders != math.factorial(n):
            raise AssertionError(
                f"the {kind} cones hold {orders} orders, not {n}!")
        counts[kind] = {"orders": orders, "squarefree": sum(
            count[0] for cone, count in entries if cone.squarefree)}
    firsts = [(perm, i) for i, perm in enumerate(
        _first_squarefree(kind, tables[kind], n) for kind in kinds)
        if perm is not None]
    witness = None
    if firsts:
        perm, i = min(firsts)
        witness = (kinds[i], tuple(lattice.elements[v] for v in perm))
    cones = {id(e[0]) for entries in tables.values() for e in entries}
    return counts, witness, len(cones)


def squarefree_order_scan(lattice, kinds=("lex", "degrevlex"), exhaustive=None,
                          sample=10000, seed=0, char=0):
    """Per-order squarefree verdicts over Lex/DegRevLex variable permutations;
    ``kinds`` names each of the two at most once.

    Exhausts all permutations for rings with at most eight variables by
    default and takes a seeded sample above that; ``exhaustive=True`` forces
    the full enumeration.

    The engine runs once per Groebner cone met, not once per order.  An
    order lies in the cone of a reduced basis G when it picks the same
    leading term in every element of G; G is then its reduced basis too.
    Each element decides its lead by one rule, read at the first variable
    of its support that the order reads, which ranks only monomials of one
    degree, so the scan needs homogeneous input, as every join-meet ideal
    is.  A cone keeps its rules once, bit-sliced by variable from its pairs
    of packed monomials (``_sliced``), and both kinds of scan read them.

    An exhaustive scan visits no order one at a time: a subset recursion
    counts the orders of each kind in each cone from its bit-sliced rules
    (``_order_tables``), under every kind as soon as the cone is found; a
    walk over reading-order prefixes meets every cone and runs the engine
    only at an order no cone found so far holds (``_cone_tables``); the
    witness, the first squarefree priority in itertools order, is read
    greedily from the same tables (``_first_squarefree``,
    ``_count_orders``).  Every run yields a new reduced basis, so the runs
    are the distinct initial ideals.

    A sampled scan takes its ``sample`` draws of ``random.Random(seed)`` as
    one stream in this process, tests each against the cones found so far
    (``_scan_orders``), and settles a non-squarefree order on a minimal
    generator m of its in(I) that is not squarefree, keeping m's fiber cone
    (``_Cone.settled``): the orders under which m is such a generator.
    Fiber cones overlap, so they cannot be counted.  They rest on fibers
    (Diaconis–Sturmfels 1998): I is spanned in each degree e by the
    differences x^u - x^v along moves w·(a - b) of its generators a - b, so
    in(I)_e holds every monomial of degree e but the least of each fiber
    component.  So m is a minimal generator of in(I) exactly when each m/x,
    for a variable x dividing m, is least in its component and m is not
    least in its own, and the fiber cone is exact.  The first such m tried
    are the degree-three seeds x·t, from the generators' terms t alone
    (``_degree_three_seeds``); only an order that no cone found so far and
    no seed holds runs the engine.  Pairs leave the heap by degree on the
    homogeneous I, so once every pair of degree d has left, the leads so
    far generate in(I) up to degree d and none divides another: each lead
    of degree d is a minimal generator.  A run goes on past its first lead
    that is not squarefree, of degree d, until then, and keeps the fiber
    cone of every lead of degree d that is not squarefree
    (``_settling_stop``), so one run settles the orders of several.  The
    components come from one ``groebner._Fibers`` per scan, the walker that
    also decides the decomposition certificate (``_initial_ideal_toward``).  A
    squarefree verdict and the witness come only from whole reduced bases.
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
        total = math.factorial(n)
        counts, witness, whole = _count_orders(lattice, tuple(kinds), char)
    else:
        rng = random.Random(seed)
        total = sample
        perms = (tuple(rng.sample(range(n), n)) for _ in range(sample))
        counts, witness, whole = _scan_orders(lattice, kinds, perms, char,
                                              settle=True)
    return ScanReport(
        total_orders=total * len(kinds),
        any_squarefree=witness is not None,
        witness_kind=witness[0] if witness else None,
        witness_priority=witness[1] if witness else None,
        counts=counts,
        exhaustive=exhaustive,
        sample_size=None if exhaustive else sample,
        seed=seed,
        distinct_initial_ideals=whole if exhaustive else None,
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
    ``fixtures.lk`` raises BadParameters for an (n, k) outside the family.

    The intersection identity (I + (x_{k+1} - y_k)) ∩ (I + (z)) = I is read
    off the default-order initial ideals the stages before it computed:
    their meet is in(I) on every Lk(n, k) with 3 ≤ n ≤ 7, and then the
    identity holds.  Only when the meet differs are the ideals intersected
    by elimination and compared with I."""
    lattice = build_lk(n, k)
    I = join_meet_ideal(lattice, char)
    ring = I.ring
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

    # I lies in both sides, so in(I) ⊆ in(I_diag ∩ I_z) ⊆ in(I_diag) ∩ in(I_z):
    # when the meet of the initial ideals is in(I), the ideals are equal
    # (as in ``_initial_ideals_certify``); the elimination decides otherwise
    ok_meet = (ideal_equal(intersect(ini_diag, ini_z), ini)
               or ideal_equal(intersect(I_diag, I_z), I))
    stages.append(StageResult("intersection_identity", ok_meet))

    stages.append(StageResult("squarefree_with_z", ini_z.is_squarefree()))

    lex_order = lex(("z",) + tuple(f"x{i}" for i in range(1, n + 1))
                    + tuple(f"y{i}" for i in range(1, n + 1)))
    ini_diag_lex = initial_ideal(I_diag, lex_order)
    stages.append(StageResult("squarefree_with_diagonal_lex",
                              ini_diag_lex.is_squarefree()))

    # I's default-order basis, built for the first stage, starts the P_∅
    # saturation
    components = minimal_primes(lattice, char, _ideal=I)
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
