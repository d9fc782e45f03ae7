"""Buchberger engine and derived ideal operations.

Two computation paths produce the same reduced Groebner bases:

* a binomial fast path for ideals generated by monomials and pure differences
  of monomials (closed under S-polynomials and reduction, so every element of
  every intermediate basis has at most two terms), and
* a generic path with fraction-free integer pseudo-reduction.

Monomials live in hot loops as packed integers (16-bit fields per variable)
so that divisibility is two big-int operations, and each monomial order is a
linear functional ``key(m) = dot(exponents, weights)`` (see poly.py), so that
order comparisons are single integer comparisons.
"""

from __future__ import annotations

import heapq
import itertools

from .errors import ExponentOverflow, RingMismatch, ZeroDivisor
from .poly import (
    BlockOrder,
    Poly,
    degrevlex,
    mono_degree,
    mono_divides,
    mono_is_squarefree,
    _FIELD_BITS,
)

_FIELD = _FIELD_BITS
_GUARD = 1 << (_FIELD - 1)  # high bit per field


def _overflow():
    raise ExponentOverflow(f"an exponent exceeds {_GUARD - 1} in the Groebner engine")


class _Ctx:
    """Packing and order-key helper bound to (ring, order).

    Exponents sit in 16-bit fields whose high (guard) bit stays clear: every
    packed add in the engine tests ``pk & hmask`` and raises
    ExponentOverflow, so field arithmetic below never carries or borrows.
    """

    __slots__ = ("ring", "order", "n", "weights", "shifts", "hmask",
                 "_pairs", "_ones", "_top", "_keys")

    def __init__(self, ring, order):
        self.ring = ring
        self.order = order
        self.n = ring.nvars
        self.weights = order.weights(ring)
        self.shifts = tuple(_FIELD * i for i in range(self.n))
        self.hmask = sum(_GUARD << s for s in self.shifts)
        # degree: fold odd fields onto even ones (32-bit slots), then one
        # multiply by a ones-per-slot vector leaves the total in the top slot
        slots = max(1, (self.n + 1) // 2)
        self._pairs = sum(((1 << _FIELD) - 1) << (2 * _FIELD * i) for i in range(slots))
        self._ones = sum(1 << (2 * _FIELD * i) for i in range(slots))
        self._top = 2 * _FIELD * (slots - 1)
        self._keys = {}

    def pack(self, exps):
        p = 0
        for e, s in zip(exps, self.shifts):
            p |= e << s
        return p

    def unpack(self, packed):
        m = _GUARD - 1
        return tuple((packed >> s) & m for s in self.shifts)

    def key_exps(self, exps):
        k = 0
        for e, w in zip(exps, self.weights):
            if e:
                k += e * w
        return k

    def key_pack(self, exps):
        """(order key, packed) of an exponent tuple in one pass."""
        k = p = 0
        for e, s, w in zip(exps, self.shifts, self.weights):
            if e:
                k += e * w
                p |= e << s
        return k, p

    def key_packed(self, packed):
        k = self._keys.get(packed)
        if k is None:
            k = 0
            for s, w in zip(self.shifts, self.weights):
                e = (packed >> s) & (_GUARD - 1)
                if e:
                    k += e * w
            self._keys[packed] = k
        return k

    def divides(self, a, b):
        """Packed divisibility a | b."""
        return ((b | self.hmask) - a) & self.hmask == self.hmask

    def lcm(self, a, b):
        """Packed lcm and its degree: per field, the guard bit of
        (a | guard) - b survives exactly when a >= b and selects a's field."""
        hm = self.hmask
        g = ((a | hm) - b) & hm
        sel = g - (g >> (_FIELD - 1))
        p = (a & sel) | (b & ~sel)
        pairs = self._pairs
        folded = (p & pairs) + ((p >> _FIELD) & pairs)
        return p, ((folded * self._ones) >> self._top) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# binomial fast path
# ---------------------------------------------------------------------------
# Element representation: (lead_key, lead_packed, tail_key, tail_packed);
# tail_packed == -1 encodes a plain monomial.  Coefficients are implicitly
# (+1, -1), which is preserved by S-polynomials and reduction.


def _bin_reduce_monomial(key, pk, basis, hm):
    """Fully reduce one monomial by the binomial basis; None if it reaches 0."""
    changed = True
    while changed:
        changed = False
        for lk, lp, tk, tp in basis:
            if lk <= key and ((pk | hm) - lp) & hm == hm:
                if tp < 0:
                    return None
                pk += tp - lp
                if pk & hm:
                    _overflow()
                key += tk - lk
                changed = True
                break
    return key, pk


def _binomial_buchberger(ctx, elements, chain_criterion=True, interreduce=True):
    """Reduced basis of a pure-difference/monomial ideal.

    ``elements`` is a list of (lead_key, lead_pk, tail_key, tail_pk) with
    tail_pk == -1 for monomials; orientation (lead > tail) is normalized here.
    """
    hm = ctx.hmask
    key_packed = ctx.key_packed

    basis = []

    def normalize(lk, lp, tk, tp):
        if tp < 0:
            return lk, lp, tk, tp
        if lp == tp:
            return None
        if lk < tk:
            lk, lp, tk, tp = tk, tp, lk, lp
        return lk, lp, tk, tp

    def reduce_element(lk, lp, tk, tp):
        lead = _bin_reduce_monomial(lk, lp, basis, hm)
        if tp < 0:
            if lead is None:
                return None
            return lead[0], lead[1], -1, -1
        tail = _bin_reduce_monomial(tk, tp, basis, hm)
        if lead is None and tail is None:
            return None
        if lead is None:
            return tail[0], tail[1], -1, -1
        if tail is None:
            return lead[0], lead[1], -1, -1
        return normalize(lead[0], lead[1], tail[0], tail[1])

    def shifted(lcm, f):
        """(key, packed) of (lcm / lead(f)) * tail(f)."""
        pk = lcm - f[1] + f[3]
        if pk & hm:
            _overflow()
        return key_packed(lcm) - f[0] + f[2], pk

    pairs = []
    pending = set()

    def push_pairs(j):
        lj = basis[j][1]
        for i in range(j):
            li = basis[i][1]
            lcm, deg = ctx.lcm(li, lj)
            if lcm == li + lj:  # coprime leading monomials
                continue
            heapq.heappush(pairs, (deg, key_packed(lcm), i, j, lcm))
            pending.add((i, j))

    for el in elements:
        el = normalize(*el)
        if el is None:
            continue
        el = reduce_element(*el)
        if el is None:
            continue
        basis.append(el)
        push_pairs(len(basis) - 1)

    while pairs:
        _, _, i, j, lcm = heapq.heappop(pairs)
        pending.discard((i, j))
        fi, fj = basis[i], basis[j]
        if chain_criterion:
            skip = False
            lh = lcm | hm
            for k, fk in enumerate(basis):
                if (lh - fk[1]) & hm == hm and k != i and k != j:  # lead(fk) | lcm
                    a = (i, k) if i < k else (k, i)
                    b = (j, k) if j < k else (k, j)
                    if a not in pending and b not in pending:
                        skip = True
                        break
            if skip:
                continue
        # S-element of u1 - v1, u2 - v2 is (lcm/u2) v2 - (lcm/u1) v1
        if fi[3] < 0 and fj[3] < 0:
            continue
        if fi[3] < 0:
            s = (*shifted(lcm, fj), -1, -1)
        elif fj[3] < 0:
            s = (*shifted(lcm, fi), -1, -1)
        else:
            m1k, m1p = shifted(lcm, fi)
            m2k, m2p = shifted(lcm, fj)
            if m1p == m2p:
                continue
            s = (m2k, m2p, m1k, m1p) if m2k > m1k else (m1k, m1p, m2k, m2p)
        s = reduce_element(*s)
        if s is not None:
            basis.append(s)
            push_pairs(len(basis) - 1)

    return _minimal_reduced(ctx, basis, interreduce)


def _minimal_reduced(ctx, basis, interreduce=True):
    """Minimal (and, if asked, reduced) basis from a binomial Groebner basis.

    Drops elements whose lead another lead divides, then reduces each tail
    by the others; the result is sorted by decreasing lead, or by increasing
    lead when not interreduced.
    """
    hm = ctx.hmask
    kept = []
    for e in sorted(basis, key=lambda e: e[0]):
        lh = e[1] | hm
        for k in kept:
            if (lh - k[1]) & hm == hm:  # lead(k) | lead(e)
                break
        else:
            kept.append(e)
    if not interreduce:
        return kept
    final = []
    for lk, lp, tk, tp in kept:
        if tp >= 0:
            others = [e for e in kept if e[1] != lp]
            tail = _bin_reduce_monomial(tk, tp, others, hm)
            if tail is not None:
                if tail[1] == lp:
                    raise AssertionError("tail reduced onto lead")
                final.append((lk, lp, tail[0], tail[1]))
                continue
        final.append((lk, lp, -1, -1))
    final.sort(key=lambda e: -e[0])
    return final


def _binomial_polys(ctx, elements):
    """Packed binomial elements -> Polys (lead - tail, or a monomial)."""
    ring = ctx.ring
    one, minus = ring.coeff(1), ring.coeff(-1)
    return [
        Poly(ring, {ctx.unpack(lp): one} if tp < 0
             else {ctx.unpack(lp): one, ctx.unpack(tp): minus})
        for _, lp, _, tp in elements
    ]


# ---------------------------------------------------------------------------
# generic path: fraction-free integer pseudo-reduction
# ---------------------------------------------------------------------------
# Internal polynomial: (terms: dict packed->int coeff, lead_pk, lead_key,
# lead_coeff).  Over Q the coefficients are primitive integers with positive
# leading coefficient; over GF(p) they are residues with monic lead.


from math import gcd as _gcd


def _content(terms):
    g = 0
    for c in terms.values():
        g = _gcd(g, abs(c))
        if g == 1:
            return 1
    return g or 1


def _make_entry(ctx, terms):
    """Normalize a term dict into an internal basis entry (or None if zero)."""
    terms = {m: c for m, c in terms.items() if c}
    if not terms:
        return None
    if ctx.ring.char == 0:
        g = _content(terms)
        if g > 1:
            terms = {m: c // g for m, c in terms.items()}
        lead = max(terms, key=ctx.key_packed)
        if terms[lead] < 0:
            terms = {m: -c for m, c in terms.items()}
    else:
        p = ctx.ring.char
        lead = max(terms, key=ctx.key_packed)
        inv = pow(terms[lead], -1, p)
        terms = {m: (c * inv) % p for m, c in terms.items()}
        terms = {m: c for m, c in terms.items() if c}
    return (terms, lead, ctx.key_packed(lead), terms[lead])


def _nf_generic(ctx, fterms, basis, track_scale=False):
    """Normal form of a term dict modulo basis entries.

    Returns (remainder dict, scale): over Q the true remainder equals
    remainder / scale; over GF(p) the scale is always 1.
    """
    char = ctx.ring.char
    key_packed = ctx.key_packed
    divides = ctx.divides
    hm = ctx.hmask
    p = {m: c for m, c in fterms.items() if c}
    rem = {}
    scale = 1
    while p:
        m = max(p, key=key_packed)
        mk = key_packed(m)
        c = p[m]
        reducer = None
        for entry in basis:
            if entry[2] <= mk and divides(entry[1], m):
                reducer = entry
                break
        if reducer is None:
            rem[m] = c
            del p[m]
            continue
        gterms, glead, _, glc = reducer
        shift = m - glead
        if char == 0:
            if glc != 1:
                scale *= glc
                for t in p:
                    p[t] *= glc
                for t in rem:
                    rem[t] *= glc
                c *= glc
            for t, gc in gterms.items():
                tt = t + shift
                if tt & hm:
                    _overflow()
                nv = p.get(tt, 0) - (c // glc) * gc
                if nv:
                    p[tt] = nv
                elif tt in p:
                    del p[tt]
        else:
            for t, gc in gterms.items():
                tt = t + shift
                if tt & hm:
                    _overflow()
                nv = (p.get(tt, 0) - c * gc) % char
                if nv:
                    p[tt] = nv
                elif tt in p:
                    del p[tt]
    if char == 0 and not track_scale and rem:
        g = _content(rem)
        if g > 1:
            rem = {m: c // g for m, c in rem.items()}
            scale = 1
    return rem, scale


def _generic_buchberger(ctx, entries, chain_criterion=False):
    """Reduced basis (internal entries) of arbitrary generators."""
    key_packed = ctx.key_packed
    divides = ctx.divides
    char = ctx.ring.char
    basis = []
    pairs = []
    pending = set()

    def push_pairs(j):
        lj = basis[j][1]
        for i in range(j):
            li = basis[i][1]
            lcm, deg = ctx.lcm(li, lj)
            if lcm == li + lj:
                continue
            heapq.heappush(pairs, (deg, key_packed(lcm), i, j))
            pending.add((i, j))

    for e in entries:
        if e is None:
            continue
        rem, _ = _nf_generic(ctx, e[0], basis)
        e = _make_entry(ctx, rem)
        if e is None:
            continue
        basis.append(e)
        push_pairs(len(basis) - 1)

    while pairs:
        deg, lcmk, i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        fi, fj = basis[i], basis[j]
        lcm, _ = ctx.lcm(fi[1], fj[1])
        if chain_criterion:
            skip = False
            for k in range(len(basis)):
                if k == i or k == j:
                    continue
                if divides(basis[k][1], lcm):
                    a = (i, k) if i < k else (k, i)
                    b = (j, k) if j < k else (k, j)
                    if a not in pending and b not in pending:
                        skip = True
                        break
            if skip:
                continue
        si = lcm - fi[1]
        sj = lcm - fj[1]
        s = {}
        if char == 0:
            ci, cj = fj[3], fi[3]
        else:
            ci, cj = 1, 1
        for t, c in fi[0].items():
            s[t + si] = s.get(t + si, 0) + ci * c
        for t, c in fj[0].items():
            s[t + sj] = s.get(t + sj, 0) - cj * c
        if any(t & ctx.hmask for t in s):
            _overflow()
        if char != 0:
            s = {m: c % char for m, c in s.items()}
        rem, _ = _nf_generic(ctx, s, basis)
        e = _make_entry(ctx, rem)
        if e is not None:
            basis.append(e)
            push_pairs(len(basis) - 1)

    # minimalize + interreduce
    order_idx = sorted(range(len(basis)), key=lambda i: basis[i][2])
    kept = []
    for i in order_idx:
        lp = basis[i][1]
        if any(divides(k[1], lp) for k in kept):
            continue
        kept.append(basis[i])
    final = []
    for e in kept:
        others = [k for k in kept if k[1] != e[1]]
        rem, _ = _nf_generic(ctx, e[0], others)
        e2 = _make_entry(ctx, rem)
        if e2 is not None:
            final.append(e2)
    final.sort(key=lambda e: -e[2])
    return final


# ---------------------------------------------------------------------------
# public objects
# ---------------------------------------------------------------------------


def _poly_to_terms(ctx, poly):
    """Poly -> (dict packed->int, scale) clearing denominators over Q."""
    if ctx.ring.char == 0:
        denom = 1
        for c in poly.terms.values():
            denom = denom * c.denominator // _gcd(denom, c.denominator)
        return {ctx.pack(m): int(c * denom) for m, c in poly.terms.items()}, denom
    return {ctx.pack(m): c for m, c in poly.terms.items()}, 1


def _entry_to_poly(ctx, entry):
    terms, lead, _, lc = entry
    ring = ctx.ring
    if ring.char == 0:
        from fractions import Fraction

        return Poly(ring, {ctx.unpack(m): Fraction(c, lc) for m, c in terms.items()})
    return Poly(ring, {ctx.unpack(m): c for m, c in terms.items()})


def _binomial_elements(ctx, polys):
    """Pure-difference/monomial elements for the fast path, or None."""
    out = []
    for g in polys:
        items = list(g.terms.items())
        if not items:
            continue
        if len(items) == 1:
            out.append((*ctx.key_pack(items[0][0]), -1, -1))
        elif len(items) == 2:
            (m1, c1), (m2, c2) = items
            if ctx.ring.coeff(c1 + c2) != 0:
                return None
            out.append((*ctx.key_pack(m1), *ctx.key_pack(m2)))
        else:
            return None
    return out


class ReducedGB:
    """Reduced Groebner basis: monic, inter-reduced, sorted by leading term.

    A basis from the binomial engine also keeps its packed elements in
    ``_binomial``; ``reduce`` then works term by term, because the normal
    form is linear and under a +-1 binomial basis a monomial reduces to a
    monomial or to 0.
    """

    __slots__ = ("ring", "order", "basis", "_ctx", "_prepared", "_binomial")

    def __init__(self, ring, order, basis, ctx=None, prepared=None):
        self.ring = ring
        self.order = order
        self.basis = tuple(basis)
        self._ctx = ctx
        self._prepared = prepared
        self._binomial = None

    def _engine(self):
        if self._ctx is None:
            self._ctx = _Ctx(self.ring, self.order)
        if self._prepared is None:
            entries = []
            for g in self.basis:
                terms, _ = _poly_to_terms(self._ctx, g)
                entries.append(_make_entry(self._ctx, terms))
            self._prepared = entries
        return self._ctx, self._prepared

    def reduce(self, f):
        """Unique normal form of f modulo this basis."""
        if f.ring != self.ring:
            raise RingMismatch(f"{f.ring} vs {self.ring}")
        if self._binomial is not None:
            return self._reduce_binomial(f)
        ctx, entries = self._engine()
        fterms, denom = _poly_to_terms(ctx, f)
        rem, scale = _nf_generic(ctx, fterms, entries, track_scale=True)
        if self.ring.char == 0:
            from fractions import Fraction

            total = denom * scale
            return Poly(self.ring, {ctx.unpack(m): Fraction(c, total) for m, c in rem.items()})
        inv = pow(denom * scale % self.ring.char, -1, self.ring.char) if rem else 1
        return Poly(self.ring, {ctx.unpack(m): c * inv for m, c in rem.items()})

    def _reduce_binomial(self, f):
        ctx = self._ctx
        basis, hm = self._binomial, ctx.hmask
        rem = {}
        keys = {}
        for m, c in f.terms.items():
            nf = _bin_reduce_monomial(*ctx.key_pack(m), basis, hm)
            if nf is not None:
                keys[nf[1]] = nf[0]
                rem[nf[1]] = rem.get(nf[1], 0) + c
        order = sorted(rem, key=keys.get, reverse=True)
        return Poly(self.ring, {ctx.unpack(pk): rem[pk] for pk in order})

    def leading_monomials(self):
        return tuple(g.leading_monomial(self.order) for g in self.basis)

    def contains_one(self):
        return len(self.basis) == 1 and self.basis[0] == self.ring.one()

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, ReducedGB)
            and self.ring == other.ring
            and self.order == other.order
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"ReducedGB({[str(g) for g in self.basis]})"


class MonomialIdeal:
    """Monomial ideal stored by its minimal generators."""

    __slots__ = ("ring", "gens")

    def __init__(self, ring, monomials):
        self.ring = ring
        monos = set(map(tuple, monomials))
        minimal = set()
        for m in sorted(monos, key=mono_degree):
            if not any(mono_divides(g, m) for g in minimal):
                minimal.add(m)
        self.gens = frozenset(minimal)

    def is_squarefree(self):
        return all(mono_is_squarefree(m) for m in self.gens)

    def contains(self, mono):
        return any(mono_divides(g, tuple(mono)) for g in self.gens)

    def with_extra(self, monomials):
        return MonomialIdeal(self.ring, set(self.gens) | set(map(tuple, monomials)))

    def sorted_gens(self):
        key = self.ring.default_order.key(self.ring)
        return sorted(self.gens, key=key, reverse=True)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.ring == other.ring
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.ring, self.gens))

    def __len__(self):
        return len(self.gens)

    def __repr__(self):
        names = [
            "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(self.ring.variables, m) if e)
            or "1"
            for m in self.sorted_gens()
        ]
        return f"MonomialIdeal({', '.join(names)})"


class Ideal:
    """Polynomial ideal with a per-order cache of reduced Groebner bases."""

    __slots__ = ("ring", "generators", "_cache")

    def __init__(self, ring, generators):
        self.ring = ring
        gens = []
        for g in generators:
            if isinstance(g, str):
                g = ring.from_string(g)
            if g.ring != ring:
                raise RingMismatch("generator from a different ring")
            if g:
                gens.append(g)
        self.generators = tuple(gens)
        self._cache = {}

    def groebner(self, order=None, chain_criterion=False):
        order = order or self.ring.default_order
        gb = self._cache.get(order)
        if gb is None:
            gb = buchberger(self.generators, order, ring=self.ring,
                            chain_criterion=chain_criterion)
            self._cache[order] = gb
        return gb

    def contains(self, f, order=None):
        return ideal_member(f, self, order)

    def plus(self, extra):
        extra = [self.ring.from_string(g) if isinstance(g, str) else g for g in extra]
        return Ideal(self.ring, self.generators + tuple(extra))

    def __repr__(self):
        return f"Ideal({[str(g) for g in self.generators]})"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def buchberger(gens, order=None, *, ring=None, chain_criterion=False):
    """Reduced Groebner basis of the given generators."""
    if isinstance(gens, Ideal):
        ring = gens.ring
        gens = gens.generators
    gens = list(gens)
    if ring is None:
        if not gens:
            raise ValueError("cannot infer ring from empty generators")
        ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatch("mixed rings in generator list")
    order = order or ring.default_order
    ctx = _Ctx(ring, order)
    gens = [g for g in gens if g]
    binelems = _binomial_elements(ctx, gens)
    if binelems is not None:
        reduced = _binomial_buchberger(ctx, binelems, chain_criterion=True)
        gb = ReducedGB(ring, order, _binomial_polys(ctx, reduced), ctx=ctx)
        gb._binomial = reduced
        return gb
    entries = []
    for g in gens:
        terms, _ = _poly_to_terms(ctx, g)
        entries.append(_make_entry(ctx, terms))
    reduced = _generic_buchberger(ctx, entries, chain_criterion=chain_criterion)
    basis = [_entry_to_poly(ctx, e) for e in reduced]
    return ReducedGB(ring, order, basis, ctx=ctx)


def normal_form(f, basis):
    """Remainder of f modulo a ReducedGB."""
    return basis.reduce(f)


def initial_ideal(ideal, order=None):
    """Minimal monomial generators of the ideal of leading terms."""
    order = order or ideal.ring.default_order
    gb = ideal.groebner(order)
    return MonomialIdeal(ideal.ring, gb.leading_monomials())


def is_squarefree(m):
    return m.is_squarefree()


def ideal_member(f, ideal, order=None):
    if f.ring != ideal.ring:
        raise RingMismatch(f"{f.ring} vs {ideal.ring}")
    if not f:
        return True
    return not ideal.groebner(order).reduce(f)


def _fresh_name(ring, base="t"):
    if base not in ring.index:
        return base
    for i in itertools.count():
        cand = f"{base}{i}"
        if cand not in ring.index:
            return cand


def radical_member(f, ideal):
    """Membership in the radical via an auxiliary variable: 1 - t*f trick."""
    if f.ring != ideal.ring:
        raise RingMismatch(f"{f.ring} vs {ideal.ring}")
    if not f:
        return True
    ring = ideal.ring
    t = _fresh_name(ring)
    ext = ring.extend([t])
    gens = [g.map_ring(ext) for g in ideal.generators]
    gens.append(ext.one() - ext.var(t) * f.map_ring(ext))
    gb = buchberger(gens, degrevlex(ext.variables), ring=ext, chain_criterion=True)
    return gb.contains_one()


def eliminate(ideal, drop):
    """Generators of ideal ∩ K[remaining variables]."""
    drop = set(drop)
    if not drop:
        return ideal
    ring = ideal.ring
    unknown = drop - set(ring.variables)
    if unknown:
        raise RingMismatch(f"unknown variables {sorted(unknown)}")
    keep = tuple(v for v in ring.variables if v not in drop)
    drop_sorted = tuple(v for v in ring.variables if v in drop)
    order = BlockOrder(drop_sorted, degrevlex(ring.variables))
    gb = buchberger(ideal.generators, order, ring=ring, chain_criterion=True)
    small = ring.restrict(keep)
    drop_idx = [ring.index[v] for v in drop_sorted]
    kept = []
    for g in gb.basis:
        if all(all(m[i] == 0 for i in drop_idx) for m in g.terms):
            kept.append(g.map_ring(small))
    return Ideal(small, kept)


def _gens_are_monomial(gens):
    return all(len(g.terms) == 1 for g in gens)


def _gens_are_pure_difference(gens):
    for g in gens:
        items = list(g.terms.items())
        if len(items) == 1:
            continue
        if len(items) == 2 and g.ring.coeff(items[0][1] + items[1][1]) == 0:
            continue
        return False
    return True


def intersect(a, b):
    """Ideal intersection via elimination of an auxiliary variable."""
    if a.ring != b.ring:
        raise RingMismatch(f"{a.ring} vs {b.ring}")
    ring = a.ring
    if not a.generators or not b.generators:
        return Ideal(ring, [])
    if _gens_are_monomial(a.generators) and _gens_are_monomial(b.generators):
        # classical: pairwise lcms generate the intersection
        monos = []
        for f in a.generators:
            (mf,) = f.terms
            for g in b.generators:
                (mg,) = g.terms
                monos.append(tuple(max(x, y) for x, y in zip(mf, mg)))
        minimal = MonomialIdeal(ring, monos)
        return Ideal(ring, [ring.monomial(m) for m in minimal.sorted_gens()])
    # orient so that (1-t) multiplies a monomial side when possible: then all
    # generators stay pure differences and the fast path applies
    if _gens_are_monomial(b.generators) and _gens_are_pure_difference(a.generators):
        first, second = a, b
    elif _gens_are_monomial(a.generators) and _gens_are_pure_difference(b.generators):
        first, second = b, a
    else:
        first, second = a, b
    t = _fresh_name(ring)
    ext = ring.extend([t])
    tv = ext.var(t)
    gens = [tv * g.map_ring(ext) for g in first.generators]
    gens += [(ext.one() - tv) * g.map_ring(ext) for g in second.generators]
    extended = Ideal(ext, gens)
    result = eliminate(extended, {t})
    return Ideal(ring, [g.map_ring(ring) for g in result.generators])


def exact_div(g, f, order=None):
    """Quotient g / f when f divides g exactly."""
    ring = g.ring
    order = order or ring.default_order
    q = ring.zero()
    r = g
    lc_f, lm_f = f.leading_term(order)
    while r:
        lc_r, lm_r = r.leading_term(order)
        if not mono_divides(lm_f, lm_r):
            raise ValueError("division is not exact")
        shift = tuple(a - b for a, b in zip(lm_r, lm_f))
        t = ring.monomial(shift, lc_r / lc_f if ring.char == 0
                          else lc_r * ring.coeff_inv(lc_f))
        q = q + t
        r = r - t * f
    return q


def colon(ideal, f):
    """Ideal quotient I : (f) via intersection with the principal ideal."""
    if not f:
        raise ZeroDivisor("colon by zero")
    meet = intersect(ideal, Ideal(ideal.ring, [f]))
    return Ideal(ideal.ring, [exact_div(g, f) for g in meet.generators])


def _saturate_binomial_by_variable(ring, gens, var):
    """I : var^∞ for a homogeneous pure-difference ideal, in one pass.

    Bayer–Stillman: under degrevlex with var last, dividing each element of
    a Groebner basis of a homogeneous I by the largest power of var that
    divides it gives a Groebner basis of I : var^∞ (Sturmfels, *Groebner
    Bases and Convex Polytopes*, Lemma 12.1); only minimalisation and
    interreduction remain.
    """
    prio = tuple(v for v in ring.variables if v != var) + (var,)
    ctx = _Ctx(ring, degrevlex(prio))
    shift = _FIELD * ring.index[var]
    wvar = ctx.weights[ring.index[var]]
    basis = _binomial_buchberger(ctx, _binomial_elements(ctx, gens), interreduce=False)
    divided = []
    for lk, lp, tk, tp in basis:
        m = (lp >> shift) & (_GUARD - 1)
        if tp >= 0:
            m = min(m, (tp >> shift) & (_GUARD - 1))
            tp -= m << shift
            tk -= m * wvar
        divided.append((lk - m * wvar, lp - (m << shift), tk, tp))
    return _binomial_polys(ctx, _minimal_reduced(ctx, divided))


def saturate(ideal, f):
    """I : f^∞, via 1 - t*f elimination; monomial f over a homogeneous
    pure-difference ideal takes a variable-by-variable fast route."""
    if not f:
        raise ZeroDivisor("saturation by zero")
    ring = ideal.ring
    if not ideal.generators:
        return Ideal(ring, [])
    if (
        len(f.terms) == 1
        and _gens_are_pure_difference(ideal.generators)
        and all(g.is_homogeneous() for g in ideal.generators)
    ):
        (mono,) = f.terms
        gens = list(ideal.generators)
        for i, e in enumerate(mono):
            if e:
                gens = _saturate_binomial_by_variable(ring, gens, ring.variables[i])
        return Ideal(ring, gens)
    t = _fresh_name(ring)
    ext = ring.extend([t])
    gens = [g.map_ring(ext) for g in ideal.generators]
    gens.append(ext.one() - ext.var(t) * f.map_ring(ext))
    result = eliminate(Ideal(ext, gens), {t})
    return Ideal(ring, [g.map_ring(ring) for g in result.generators])


def ideal_equal(a, b):
    """Equality via reduced bases under the ring's canonical order."""
    if a.ring != b.ring:
        raise RingMismatch(f"{a.ring} vs {b.ring}")
    return a.groebner().basis == b.groebner().basis


def ideal_contains(a, b):
    """True when ideal a ⊇ ideal b."""
    gb = a.groebner()
    return all(not gb.reduce(g) for g in b.generators)


def krull_dim(m, nvars=None):
    """Dimension of the quotient by a monomial ideal.

    Equals nvars minus the smallest number of variables meeting the support
    of every minimal generator.
    """
    if nvars is None:
        nvars = m.ring.nvars
    supports = []
    for g in m.gens:
        s = frozenset(i for i, e in enumerate(g) if e)
        if not s:
            raise ValueError("unit ideal has no quotient dimension")
        supports.append(s)
    if not supports:
        return nvars
    supports.sort(key=len)
    best = [nvars]

    def descend(remaining, chosen):
        if chosen >= best[0]:
            return
        if not remaining:
            best[0] = chosen
            return
        for v in sorted(remaining[0]):
            rest = [s for s in remaining if v not in s]
            descend(rest, chosen + 1)

    descend(supports, 0)
    return nvars - best[0]


def spolynomial(f, g, order=None):
    """S-polynomial of two nonzero polynomials."""
    ring = f.ring
    order = order or ring.default_order
    cf, mf = f.leading_term(order)
    cg, mg = g.leading_term(order)
    lcm = tuple(max(a, b) for a, b in zip(mf, mg))
    tf = ring.monomial(tuple(a - b for a, b in zip(lcm, mf)), 1)
    tg = ring.monomial(tuple(a - b for a, b in zip(lcm, mg)), 1)
    inv_cf = 1 / cf if ring.char == 0 else ring.coeff_inv(cf)
    inv_cg = 1 / cg if ring.char == 0 else ring.coeff_inv(cg)
    return tf * f.scale(inv_cf) - tg * g.scale(inv_cg)


def verify_groebner(gb):
    """Post-hoc check: every S-polynomial of every pair reduces to zero."""
    basis = gb.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = spolynomial(basis[i], basis[j], gb.order)
            if gb.reduce(s):
                return False
    return True
