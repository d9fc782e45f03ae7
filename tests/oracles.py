"""Independent brute-force oracles shared by the property and acceptance tests."""

from fractions import Fraction

from lattice_lab import BlockOrder


def monomials_of_degree(nvars, degree):
    if nvars == 1:
        return [(degree,)]
    out = []
    for e in range(degree + 1):
        for rest in monomials_of_degree(nvars - 1, degree - e):
            out.append((e,) + rest)
    return out


def membership_by_linear_algebra(f, gens, ring):
    """Homogeneous ideal membership decided by exact Gaussian elimination.

    Builds the column space of all monomial multiples of the generators at
    f's total degree and checks solvability; entirely independent of the
    Groebner machinery.
    """
    d = f.total_degree()
    cols = []
    for g in gens:
        dg = g.total_degree()
        if dg > d:
            continue
        for m in monomials_of_degree(ring.nvars, d - dg):
            cols.append((g, m))
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
    from lattice_lab.groebner import _binomial_buchberger, _Ctx
    from lattice_lab.poly import _FIELD_BITS, degrevlex, lex
    from lattice_lab.workflows import join_meet_ideal

    jm = join_meet_ideal(lattice, char)
    ring = jm.ring
    gens = [tuple(g.terms) for g in jm.ideal.generators]
    high = 0
    for i in range(ring.nvars):
        high |= ((1 << _FIELD_BITS) - 2) << (_FIELD_BITS * i)
    counts = {k: {"orders": 0, "squarefree": 0} for k in kinds}
    witness = None
    leading = set()
    for perm in perms:
        prio = tuple(ring.variables[i] for i in perm)
        for kind in kinds:
            order = lex(prio) if kind == "lex" else degrevlex(prio)
            ctx = _Ctx(ring, order)
            elements = [(*ctx.key_pack(m1), *ctx.key_pack(m2)) for m1, m2 in gens]
            minimal = _binomial_buchberger(ctx, elements, interreduce=False)
            leads = frozenset(lp for _, lp, _, _ in minimal)
            leading.add(leads)
            counts[kind]["orders"] += 1
            if all(lp & high == 0 for lp in leads):
                counts[kind]["squarefree"] += 1
                if witness is None:
                    witness = (kind, prio)
    return counts, witness, len(leading)


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
        join_meet_ideal,
    )

    ring = join_meet_ideal(lattice, char).ring
    index = lattice.index
    raw = []
    seen = set()
    for adm in enumerate_admissible_sets(lattice):
        gens = _component_gens(lattice, adm, ring)
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
            minimal.append(_prime_component(adm, ideal))
    return minimal


def certify_saturated_part(ring, binomials):
    """Reference SNF certificate of an already-saturated pure-difference
    part: its own reduced basis, computed afresh, must hold no monomial, and
    the exponent differences of its elements must span a saturated lattice.
    """
    from lattice_lab.groebner import buchberger
    from lattice_lab.snf import is_saturated

    if not binomials:
        return True
    gb = buchberger(binomials, ring.default_order, ring=ring)
    if any(len(g.terms) == 1 for g in gb.basis):
        # a saturated proper pure-difference ideal has no monomials
        return False
    return is_saturated([tuple(a - b for a, b in zip(*g.terms)) for g in gb.basis])


def witness_search_poly(jm, degree_bound, power_cap=4):
    """Reference witness search on Poly arithmetic: the same two rounds of
    candidates as ``workflows._witness_search``, each decided by reducing
    the candidate and its powers f^2, f^4, ... up to the cap with
    ``ReducedGB.reduce``.
    """
    from lattice_lab.groebner import MonomialIdeal
    from lattice_lab.poly import sort_key
    from lattice_lab.workflows import _all_monomials

    def is_power_witness(f):
        power = f
        exponent = 1
        while exponent * 2 <= power_cap:
            power = power * power
            exponent *= 2
            if not gb.reduce(power):
                return True
        return False

    ring = jm.ring
    gb = jm.ideal.groebner()
    key = sort_key(ring.default_order, ring)
    pairs = [(ring.index[a], ring.index[b])
             for a, b in jm.lattice.incomparable_pairs()]
    for d in range(2, degree_bound + 1):
        for m1 in sorted(_all_monomials(ring, d), key=key):
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
        std = sorted((m for m in _all_monomials(ring, d)
                      if not ini.contains(m)), key=key)
        for j in range(len(std)):
            mj = ring.monomial(std[j])
            for i in range(j):
                f = mj - ring.monomial(std[i])
                if gb.reduce(f) and is_power_witness(f):
                    return f
    return None
