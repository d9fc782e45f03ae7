"""Independent brute-force oracles shared by the property and acceptance tests."""

from fractions import Fraction
from functools import lru_cache
from operator import add, sub

from lattice_lab import BlockOrder


def monomials_of_degree(nvars, degree):
    if nvars == 1:
        return [(degree,)]
    out = []
    for e in range(degree + 1):
        for rest in monomials_of_degree(nvars - 1, degree - e):
            out.append((e,) + rest)
    return out


def membership_by_linear_algebra(f, gens, ring, bound=None):
    """Ideal membership decided by exact Gaussian elimination.

    Without ``bound``, for homogeneous input: builds the column space of all
    monomial multiples of the generators at f's total degree and checks
    solvability, which decides membership.  With ``bound`` D, for any
    input: the columns are every multiple m·g of total degree at most D, so
    True proves membership and False proves only that no such combination
    reaches f.  Entirely independent of the Groebner machinery.
    """
    d = f.total_degree()
    cols = []
    for g in gens:
        dg = g.total_degree()
        degrees = [d - dg] if bound is None else range(bound - dg + 1)
        for e in degrees:
            if e >= 0:
                cols.extend((g, m) for m in monomials_of_degree(ring.nvars, e))
    monos = sorted({tuple(a + b for a, b in zip(m, t)) for g, m in cols
                    for t in g.terms} | set(f.terms))
    index = {m: i for i, m in enumerate(monos)}
    matrix = []
    for g, m in cols:
        col = [Fraction(0)] * len(monos)
        for t, c in g.terms.items():
            col[index[tuple(a + b for a, b in zip(m, t))]] += c
        matrix.append(col)
    target = [Fraction(0)] * len(monos)
    for t, c in f.terms.items():
        target[index[t]] += c
    rows = list(map(list, zip(*matrix))) if matrix else [[] for _ in target]
    aug = [row + [target[i]] for i, row in enumerate(rows)]
    ncols = len(matrix)
    pivot_row = 0
    for col in range(ncols):
        pivot = next((r for r in range(pivot_row, len(aug)) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[pivot_row], aug[pivot] = aug[pivot], aug[pivot_row]
        pv = aug[pivot_row][col]
        aug[pivot_row] = [x / pv for x in aug[pivot_row]]
        for r in range(len(aug)):
            if r != pivot_row and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[pivot_row])]
        pivot_row += 1
    for row in aug:
        if any(row[:-1]):
            continue
        if row[-1]:
            return False
    return True


def random_homogeneous_difference(ring, rng, degree):
    monos = monomials_of_degree(ring.nvars, degree)
    return ring.monomial(tuple(rng.choice(monos))) - ring.monomial(
        tuple(rng.choice(monos))
    )


def tuple_order_key(order, ring):
    """Textbook sort key (ascending = order) of a lex, degrevlex or block order.

    Lex compares exponents in priority order; degrevlex compares total degree,
    then prefers the smaller exponent of the lowest-priority variable; a block
    order compares the dropped block lexicographically, then the inner order.
    """
    if isinstance(order, BlockOrder):
        drop = [ring.index[v] for v in order.drop]
        inner = tuple_order_key(order.inner, ring)
        return lambda m: (tuple(m[i] for i in drop), inner(m))
    perm = [ring.index[v] for v in order.resolve(ring)]
    if order.kind == "lex":
        return lambda m: tuple(m[i] for i in perm)
    rev = perm[::-1]
    return lambda m: (sum(m), tuple(-m[i] for i in rev))


def scan_orders_uncached(lattice, kinds, perms, char=0):
    """Reference order scan: one minimal Groebner basis per order, no reuse.

    Returns (counts, witness, distinct initial ideals), where the witness is
    the first squarefree (kind, priority) in enumeration order and the last
    figure counts distinct leading-term sets among the orders scanned.
    """
    from lattice_lab.groebner import _bin_reduce, _bin_s_element, _buchberger_core, _Ctx
    from lattice_lab.poly import degrevlex, lex
    from lattice_lab.workflows import join_meet_ideal

    jm = join_meet_ideal(lattice, char)
    ring = jm.ring
    gens = [tuple(g.terms) for g in jm.generators]
    counts = {k: {"orders": 0, "squarefree": 0} for k in kinds}
    witness = None
    leading = set()
    for perm in perms:
        prio = tuple(ring.variables[i] for i in perm)
        for kind in kinds:
            order = lex(prio) if kind == "lex" else degrevlex(prio)
            ctx = _Ctx(ring, order)
            elements = [(*ctx.key_pack(m1), *ctx.key_pack(m2)) for m1, m2 in gens]
            minimal = _buchberger_core(ctx, elements, _bin_s_element, _bin_reduce)
            # exponent tuples: each order packs in a layout of its own
            leads = frozenset(ctx.unpack(lp) for _, lp, _, _ in minimal)
            leading.add(leads)
            counts[kind]["orders"] += 1
            if all(e <= 1 for m in leads for e in m):
                counts[kind]["squarefree"] += 1
                if witness is None:
                    witness = (kind, prio)
    return counts, witness, len(leading)


def saturate_by_passes(ideal, f):
    """Reference I : f^∞ for a homogeneous pure-difference ideal and a
    monomial f: one Bayer–Stillman pass per variable of f, in ring order.

    Under degrevlex with x last, dividing each element of a Groebner basis
    of a homogeneous I by the largest power of x that divides it gives a
    Groebner basis of I : x^∞ (Sturmfels, *Groebner Bases and Convex
    Polytopes*, Lemma 12.1); the pass then minimalises and interreduces.
    The last pass leaves the reduced basis under degrevlex with f's last
    variable last, by decreasing lead.
    """
    from lattice_lab.groebner import (
        Ideal, ReducedGB, _bin_interreduced, _bin_reduce, _bin_s_element,
        _binomial_elements, _buchberger_core, _Ctx, _minimal)
    from lattice_lab.poly import MAX_EXPONENT, degrevlex

    ring = ideal.ring
    assert all(g.is_homogeneous() for g in ideal.generators)
    (mono,) = f.terms
    ctx = _Ctx(ring, ring.default_order)
    elements = _binomial_elements(ctx, ideal.generators)
    assert elements is not None, "not a pure-difference ideal"
    low = MAX_EXPONENT - 1
    for index, exponent in enumerate(mono):
        if not exponent:
            continue
        var = ring.variables[index]
        prev, ctx = ctx, _Ctx(ring, degrevlex(
            tuple(v for v in ring.variables if v != var) + (var,)))
        # each pass's order packs in a layout of its own: repack through
        # exponent tuples
        elements = [(*ctx.key_pack(prev.unpack(lp)),
                     *((-1, -1) if tp < 0 else ctx.key_pack(prev.unpack(tp))))
                    for _, lp, _, tp in elements]
        shift = ctx.shifts[index]
        wvar = ctx.weights[index]
        divided = []
        for lk, lp, tk, tp in _buchberger_core(ctx, elements, _bin_s_element,
                                               _bin_reduce):
            m = (lp >> shift) & low
            if tp >= 0:
                m = min(m, (tp >> shift) & low)
                tp -= m << shift
                tk -= m * wvar
            divided.append((lk - m * wvar, lp - (m << shift), tk, tp))
        elements = _bin_interreduced(ctx, _minimal(divided, ctx.hmask))
    return Ideal(ring, ReducedGB(ctx, binomial=elements).basis)


def intersect_by_elimination(a, b):
    """Reference a ∩ b: t·a + (1-t)·b with every generator of both sides in
    a product, t eliminated; (1-t) multiplies the monomial side when there
    is one.  ``a``'s ring must not have a variable named t.
    """
    from lattice_lab.groebner import Ideal, eliminate

    ring = a.ring
    first, second = (b, a) if all(len(g.terms) == 1 for g in a.generators) else (a, b)
    ext = ring.extend(["t"])
    t = ext.var("t")
    gens = [t * g.map_ring(ext) for g in first.generators]
    gens += [(ext.one() - t) * g.map_ring(ext) for g in second.generators]
    meet = eliminate(Ideal(ext, gens), {"t"})
    return Ideal(ring, [g.map_ring(ring) for g in meet.generators])


def buchberger_all_pairs(gens, order, ring):
    """Reference reduced Groebner basis: Buchberger's algorithm on term
    dicts that treats every pair, with no coprime, chain or Gebauer–Möller
    criterion, then minimalisation and interreduction.  Returns the monic
    basis as Polys by decreasing lead, the shape of ``ReducedGB.basis``.
    """
    from lattice_lab.poly import Poly

    key = lru_cache(maxsize=None)(tuple_order_key(order, ring))
    char = ring.char

    def lead(f):
        return max(f, key=key)

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def monic(f):
        lm = lead(f)
        inv = 1 / f[lm] if char == 0 else pow(f[lm], -1, char)
        return lm, {m: c * inv if char == 0 else c * inv % char
                    for m, c in f.items()}

    def subtract(f, c, shift, g):
        # f -= c * x^shift * g, in place
        for m, gc in g.items():
            m = tuple(map(add, m, shift))
            v = f.get(m, 0) - c * gc
            if char:
                v %= char
            if v:
                f[m] = v
            else:
                f.pop(m, None)

    def normal_form(f, basis):
        f, rem = dict(f), {}
        while f:
            m = lead(f)
            for lg, g in basis:
                if divides(lg, m):
                    subtract(f, f[m], tuple(map(sub, m, lg)), g)
                    break
            else:
                rem[m] = f.pop(m)
        return rem

    basis = [monic(g.terms) for g in gens if g]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        (li, fi), (lj, fj) = basis[i], basis[j]
        lcm = tuple(map(max, li, lj))
        s = {}
        subtract(s, -1, tuple(map(sub, lcm, li)), fi)
        subtract(s, 1, tuple(map(sub, lcm, lj)), fj)
        r = normal_form(s, basis)
        if r:
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(monic(r))
    minimal = []
    for lg, g in sorted(basis, key=lambda e: key(e[0])):
        if not any(divides(lh, lg) for lh, _ in minimal):
            minimal.append((lg, g))
    reduced = []
    for lg, g in minimal:
        tail = normal_form({m: c for m, c in g.items() if m != lg},
                           [e for e in minimal if e[0] != lg])
        reduced.append(Poly(ring, {lg: 1, **tail}))
    return reduced[::-1]


def admissible_masks_by_loop(lattice):
    """Reference admissible sets: every one of the 2^n masks tested against
    every basic binomial, as element tuples by (size, index sequence)."""
    from lattice_lab.lattice import basic_binomial_pairs

    els, index = lattice.elements, lattice.index
    n = len(els)
    pairs = [((1 << index[a]) | (1 << index[b]), (1 << index[c]) | (1 << index[d]))
             for (a, b), (c, d) in basic_binomial_pairs(lattice)]
    found = [mask for mask in range(1 << n)
             if all(bool(mask & mab) == bool(mask & mcd) for mab, mcd in pairs)]
    found.sort(key=lambda m: (bin(m).count("1"),
                              tuple(i for i in range(n) if m >> i & 1)))
    return [tuple(els[i] for i in range(n) if m >> i & 1) for m in found]


def minimal_primes_all_pairs(lattice, char=0):
    """Reference decomposition: saturate and take a reduced Groebner basis
    for every admissible set, then keep each component that no other
    component with a strictly smaller admissible set reduces to zero into.

    Returns the components in enumeration order, without the intersection
    check.
    """
    from lattice_lab.groebner import Ideal, buchberger
    from lattice_lab.lattice import enumerate_admissible_sets
    from lattice_lab.workflows import (
        _component_gens,
        _prime_component,
        _two_term_sides,
        join_meet_ideal,
    )

    ring = join_meet_ideal(lattice, char).ring
    index = lattice.index
    raw = []
    seen = set()
    for adm in enumerate_admissible_sets(lattice):
        gens = _component_gens(lattice, adm, ring).generators
        gb = buchberger(gens, ring.default_order, ring=ring) if gens else None
        key = tuple(str(g) for g in gb.basis) if gb else ()
        if key in seen:
            continue  # admissible sets come smallest first; keep the first
        seen.add(key)
        mask = sum(1 << index[e] for e in adm)
        raw.append((adm, mask, Ideal(ring, gens), gb))
    minimal = []
    for adm, mask, ideal, gb in raw:
        dominated = gb is not None and any(
            mask2 != mask and mask2 & mask == mask2
            and all(not gb.reduce(g) for g in ideal2.generators)
            for _, mask2, ideal2, _ in raw)
        if not dominated:
            minimal.append(_prime_component(adm, ideal, _two_term_sides(ideal)))
    return minimal


def certify_saturated_part(ring, binomials):
    """Reference SNF certificate of an already-saturated pure-difference
    part: its own reduced basis, computed afresh, must hold no monomial, and
    the exponent differences of its elements must span a saturated lattice.
    """
    from lattice_lab.groebner import buchberger
    from lattice_lab.snf import smith_normal_form

    if not binomials:
        return True
    gb = buchberger(binomials, ring.default_order, ring=ring)
    if any(len(g.terms) == 1 for g in gb.basis):
        # a saturated proper pure-difference ideal has no monomials
        return False
    return smith_normal_form(
        [tuple(a - b for a, b in zip(*g.terms)) for g in gb.basis]).saturated


def witness_search_poly(lattice, ideal, degree_bound, power_cap=4):
    """Reference witness search on Poly arithmetic: the same two rounds of
    candidates as ``workflows._witness_search``, each decided by reducing
    the candidate and its powers f^2, f^4, ... up to the cap with
    ``ReducedGB.reduce``.  Round one's rewrites are read off the incomparable
    pairs of ``lattice``, whose join-meet ideal ``ideal`` is.
    """
    from lattice_lab.groebner import MonomialIdeal
    from lattice_lab.poly import sort_key

    def is_power_witness(f):
        power = f
        exponent = 1
        while exponent * 2 <= power_cap:
            power = power * power
            exponent *= 2
            if not gb.reduce(power):
                return True
        return False

    ring = ideal.ring
    gb = ideal.groebner()
    key = sort_key(ring.default_order, ring)
    pairs = [(ring.index[a], ring.index[b])
             for a, b in lattice.incomparable_pairs()]
    for d in range(2, degree_bound + 1):
        for m1 in sorted(monomials_of_degree(ring.nvars, d), key=key):
            partners = set()
            for ia, ib in pairs:
                for x, y in ((ia, ib), (ib, ia)):
                    if m1[x] >= 1:
                        m2 = list(m1)
                        m2[x] -= 1
                        m2[y] += 1
                        m2 = tuple(m2)
                        if key(m2) < key(m1):
                            partners.add(m2)
            lead = ring.monomial(m1)
            for m2 in sorted(partners, key=key):
                f = lead - ring.monomial(m2)
                if gb.reduce(f) and is_power_witness(f):
                    return f
    ini = MonomialIdeal(ring, gb.leading_monomials())
    for d in range(2, degree_bound + 1):
        std = sorted((m for m in monomials_of_degree(ring.nvars, d)
                      if not ini.contains(m)), key=key)
        for j in range(len(std)):
            mj = ring.monomial(std[j])
            for i in range(j):
                f = mj - ring.monomial(std[i])
                if gb.reduce(f) and is_power_witness(f):
                    return f
    return None


def initial_ideals_certify_full(ideal, parts):
    """Reference initial-ideal certificate on whole reduced bases: under the
    default order, then degrevlex with the variables reversed, in(I) is the
    initial ideal of I's full basis, compared with ∩ in(P), and I ⊆ every P
    is decided by reducing each generator of I as a Poly.
    """
    from functools import reduce

    from lattice_lab.groebner import ideal_equal, initial_ideal, intersect
    from lattice_lab.poly import degrevlex

    ring = ideal.ring
    for order in (ring.default_order, degrevlex(tuple(reversed(ring.variables)))):
        meet = reduce(intersect, (initial_ideal(p, order) for p in parts))
        if ideal_equal(meet, initial_ideal(ideal, order)):
            return all(not p.groebner().reduce(g)
                       for p in parts for g in ideal.generators)
    return False


def radical_certificate_whole_bases(lattice, char=0):
    """``workflows.radical_certificate`` with the two decisions that stop
    early made on whole reduced bases instead: the squarefree order family
    reads each order's whole in(I), and the initial-ideal certificate
    compares the whole in(I) with the meet of the components' initial
    ideals."""
    import pytest

    from lattice_lab import workflows
    from lattice_lab.groebner import initial_ideal

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workflows, "_squarefree_under",
                   lambda ideal, order: initial_ideal(ideal, order).is_squarefree())
        mp.setattr(workflows, "_initial_ideal_toward",
                   lambda ideal, order, goal: initial_ideal(ideal, order))
        return workflows.radical_certificate(lattice, char)
