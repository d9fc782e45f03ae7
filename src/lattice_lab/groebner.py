"""Buchberger engine and derived ideal operations.

One Buchberger loop computes every reduced Groebner basis.  It owns the pair
heap, the coprime and Gebauer–Möller chain criteria and minimalisation, and
takes its S-element and reduce steps from one of two element kinds:

* binomial elements, for ideals generated by monomials and pure differences
  of monomials (closed under S-polynomials and reduction, so every element of
  every intermediate basis has at most two terms), and
* generic elements, with fraction-free integer pseudo-reduction.

Monomials live in hot loops as packed integers (16-bit fields per variable)
so that divisibility is two big-int operations, and each monomial order is a
linear functional ``key(m) = dot(exponents, weights)`` (see poly.py), so that
order comparisons are single integer comparisons.
"""

from __future__ import annotations

import heapq
import itertools
import struct
from fractions import Fraction
from math import gcd as _gcd
from operator import mul

from .errors import ExponentOverflow, RingMismatch, ZeroDivisor
from .poly import (
    BlockOrder,
    Poly,
    MAX_EXPONENT,
    degrevlex,
    mono_divides,
    mono_is_squarefree,
    sort_key,
    _bad_exponent,
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
                 "_pairs", "_ones", "_top", "_keys", "_bytes", "_fields")

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
        self._bytes = _FIELD // 8 * self.n
        self._fields = struct.Struct(f"<{self.n}H").unpack

    def pack(self, exps):
        p = 0
        for e, s in zip(exps, self.shifts):
            p |= e << s
        return p

    def unpack(self, packed):
        # guard bits are clear, so each 16-bit field is one exponent
        return self._fields(packed.to_bytes(self._bytes, "little"))

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
            k = self._keys[packed] = sum(map(mul, self.unpack(packed), self.weights))
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
# the Buchberger loop
# ---------------------------------------------------------------------------
# Both element kinds start with (lead_key, lead_packed): the loop reads only
# those two fields and leaves the rest to the kind's own steps.


def _buchberger_core(ctx, elements, s_element, reduce):
    """Minimal Groebner basis of ``elements``, sorted by increasing lead.

    ``reduce(ctx, raw, basis)`` turns a raw element (an input or an
    S-element) into a basis element reduced by ``basis``, or None for zero;
    ``s_element(ctx, lcm, fi, fj)`` is the raw S-element of a pair, or None
    when it is zero.  Pairs leave the heap by lcm degree, then lcm key; the
    coprime criterion and the Gebauer–Möller chain criterion drop pairs.
    """
    hm = ctx.hmask
    lcm_of = ctx.lcm
    key_packed = ctx.key_packed
    basis = []
    pairs = []
    pending = set()

    def add(el):
        if el is None:
            return
        j, lj = len(basis), el[1]
        for i, fi in enumerate(basis):
            lcm, deg = lcm_of(fi[1], lj)
            if lcm != fi[1] + lj:  # leading monomials not coprime
                heapq.heappush(pairs, (deg, key_packed(lcm), i, j, lcm))
                pending.add((i, j))
        basis.append(el)

    for el in elements:
        add(reduce(ctx, el, basis))
    while pairs:
        _, _, i, j, lcm = heapq.heappop(pairs)
        pending.discard((i, j))
        lh = lcm | hm
        # chain criterion: (i, j) is redundant when some lead(fk) divides the
        # lcm and the pairs (i, k) and (j, k) have already been treated
        for k, fk in enumerate(basis):
            if (lh - fk[1]) & hm == hm and k != i and k != j:
                if (((i, k) if i < k else (k, i)) not in pending
                        and ((j, k) if j < k else (k, j)) not in pending):
                    break
        else:
            s = s_element(ctx, lcm, basis[i], basis[j])
            if s is not None:
                add(reduce(ctx, s, basis))
    return _minimal(basis, hm)


def _minimal(basis, hm):
    """Elements whose lead no other lead divides, by increasing lead; of
    equal leads the first is kept."""
    kept = []
    for e in sorted(basis, key=lambda e: e[0]):
        lh = e[1] | hm
        for k in kept:
            if (lh - k[1]) & hm == hm:  # lead(k) | lead(e)
                break
        else:
            kept.append(e)
    return kept


# ---------------------------------------------------------------------------
# binomial elements
# ---------------------------------------------------------------------------
# (lead_key, lead_packed, tail_key, tail_packed); tail_packed == -1 encodes a
# plain monomial.  Coefficients are implicitly (+1, -1), which is preserved
# by S-polynomials and reduction.


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


def _bin_reduce(ctx, el, basis):
    """Reduce both terms of a binomial, then orient it lead > tail.

    The terms reduce independently, so the input may come in either
    orientation.
    """
    hm = ctx.hmask
    lk, lp, tk, tp = el
    lead = _bin_reduce_monomial(lk, lp, basis, hm)
    tail = None if tp < 0 else _bin_reduce_monomial(tk, tp, basis, hm)
    if lead is None or tail is None:
        mono = lead or tail
        return None if mono is None else (*mono, -1, -1)
    if lead[1] == tail[1]:
        return None
    return (*lead, *tail) if lead[0] > tail[0] else (*tail, *lead)


def _bin_shifted(ctx, lcm, f):
    """(key, packed) of (lcm / lead(f)) * tail(f)."""
    pk = lcm - f[1] + f[3]
    if pk & ctx.hmask:
        _overflow()
    return ctx.key_packed(lcm) - f[0] + f[2], pk


def _bin_s_element(ctx, lcm, fi, fj):
    """S-element of u1 - v1, u2 - v2: (lcm/u2) v2 - (lcm/u1) v1, unoriented."""
    if fi[3] < 0:
        return None if fj[3] < 0 else (*_bin_shifted(ctx, lcm, fj), -1, -1)
    if fj[3] < 0:
        return (*_bin_shifted(ctx, lcm, fi), -1, -1)
    m1 = _bin_shifted(ctx, lcm, fi)
    m2 = _bin_shifted(ctx, lcm, fj)
    return None if m1[1] == m2[1] else (*m1, *m2)


def _bin_interreduced(ctx, kept):
    """The reduced basis of a minimal one, by decreasing lead.

    No lead of a minimal basis divides another, and no lead divides its own
    (smaller) tail, so only tails reduce, each by the whole basis.
    """
    hm = ctx.hmask
    final = []
    for e in kept:
        if e[3] < 0:
            final.append(e)
        else:
            tail = _bin_reduce_monomial(e[2], e[3], kept, hm)
            final.append(e[:2] + (tail or (-1, -1)))
    final.sort(key=lambda e: -e[0])
    return final


def _binomial_buchberger(ctx, elements, interreduce=True):
    """Reduced basis of a pure-difference/monomial ideal.

    ``elements`` are binomial elements in either orientation; without
    ``interreduce`` the minimal basis comes back by increasing lead.
    """
    kept = _buchberger_core(ctx, elements, _bin_s_element, _bin_reduce)
    return _bin_interreduced(ctx, kept) if interreduce else kept


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
# generic elements: fraction-free integer pseudo-reduction
# ---------------------------------------------------------------------------
# (lead_key, lead_packed, terms: dict packed->int coeff, lead_coeff).  Over Q
# the coefficients are primitive integers with positive leading coefficient;
# over GF(p) they are residues with monic lead.  Raw elements are term dicts.


def _content(terms):
    g = 0
    for c in terms.values():
        g = _gcd(g, abs(c))
        if g == 1:
            return 1
    return g or 1


def _make_entry(ctx, terms):
    """Normalize a term dict into a generic element (or None if zero)."""
    terms = {m: c for m, c in terms.items() if c}
    if not terms:
        return None
    lead = max(terms, key=ctx.key_packed)
    if ctx.ring.char == 0:
        g = _content(terms)
        if g > 1:
            terms = {m: c // g for m, c in terms.items()}
        if terms[lead] < 0:
            terms = {m: -c for m, c in terms.items()}
    else:
        p = ctx.ring.char
        inv = pow(terms[lead], -1, p)
        terms = {m: (c * inv) % p for m, c in terms.items()}
        terms = {m: c for m, c in terms.items() if c}
    return (ctx.key_packed(lead), lead, terms, terms[lead])


def _nf_generic(ctx, fterms, basis, track_scale=False):
    """Normal form of a term dict modulo generic elements.

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
            if entry[0] <= mk and divides(entry[1], m):
                reducer = entry
                break
        if reducer is None:
            rem[m] = c
            del p[m]
            continue
        _, glead, gterms, glc = reducer
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


def _gen_reduce(ctx, terms, basis):
    return _make_entry(ctx, _nf_generic(ctx, terms, basis)[0])


def _gen_s_element(ctx, lcm, fi, fj):
    """lc(fj) (lcm/lead fi) fi - lc(fi) (lcm/lead fj) fj as a term dict."""
    char = ctx.ring.char
    ci, cj = (fj[3], fi[3]) if char == 0 else (1, 1)
    si, sj = lcm - fi[1], lcm - fj[1]
    s = {}
    for t, c in fi[2].items():
        s[t + si] = s.get(t + si, 0) + ci * c
    for t, c in fj[2].items():
        s[t + sj] = s.get(t + sj, 0) - cj * c
    if any(t & ctx.hmask for t in s):
        _overflow()
    return {m: c % char for m, c in s.items()} if char else s


def _generic_buchberger(ctx, elements):
    """Reduced basis (generic elements) of a list of term dicts."""
    kept = _buchberger_core(ctx, elements, _gen_s_element, _gen_reduce)
    final = [_gen_reduce(ctx, e[2], [k for k in kept if k is not e]) for e in kept]
    final.sort(key=lambda e: -e[0])
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
    _, _, terms, lc = entry
    ring = ctx.ring
    if ring.char == 0:
        return Poly(ring, {ctx.unpack(m): Fraction(c, lc) for m, c in terms.items()})
    return Poly(ring, {ctx.unpack(m): c for m, c in terms.items()})


def _binomial_shape(g):
    """The monomials of g when g is a monomial (one) or a pure difference
    c*(x^u - x^v) (two), else None: the one shape test of the binomial
    engine."""
    if len(g.terms) > 2:
        return None
    if len(g.terms) == 2:
        c1, c2 = g.terms.values()
        if g.ring.coeff(c1 + c2) != 0:
            return None
    return tuple(g.terms)


def _binomial_elements(ctx, polys):
    """Pure-difference/monomial elements for the fast path, or None."""
    out = []
    for g in polys:
        shape = _binomial_shape(g)
        if shape is None:
            return None
        if len(shape) == 1:
            out.append((*ctx.key_pack(shape[0]), -1, -1))
        else:
            out.append((*ctx.key_pack(shape[0]), *ctx.key_pack(shape[1])))
    return out


class ReducedGB:
    """Reduced Groebner basis: monic, inter-reduced, sorted by leading term.

    It keeps the engine's own elements, packed binomial ones in ``_binomial``
    or generic ones in ``_generic``, and ``basis`` is their Poly form.  On a
    binomial basis ``reduce`` works term by term, because the normal form is
    linear and under a +-1 binomial basis a monomial reduces to a monomial
    or to 0.
    """

    __slots__ = ("ring", "order", "basis", "_ctx", "_binomial", "_generic")

    def __init__(self, ctx, *, binomial=None, generic=None):
        self.ring = ctx.ring
        self.order = ctx.order
        self._ctx = ctx
        self._binomial = binomial
        self._generic = generic
        self.basis = tuple(_binomial_polys(ctx, binomial) if binomial is not None
                           else (_entry_to_poly(ctx, e) for e in generic))

    def reduce(self, f):
        """Unique normal form of f modulo this basis."""
        if f.ring != self.ring:
            raise RingMismatch(f"{f.ring} vs {self.ring}")
        if self._binomial is not None:
            return self._reduce_binomial(f)
        ctx = self._ctx
        fterms, denom = _poly_to_terms(ctx, f)
        rem, scale = _nf_generic(ctx, fterms, self._generic, track_scale=True)
        if self.ring.char == 0:
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
        ctx = _Ctx(ring, ring.default_order)
        packed = []
        for m in monomials:
            # the range Poly enforces, so that packing is exact
            if min(m, default=0) < 0 or max(m, default=0) >= MAX_EXPONENT:
                _bad_exponent(m)
            packed.append(ctx.key_pack(m))
        self.gens = frozenset(ctx.unpack(pk) for _, pk in _minimal(packed, ctx.hmask))

    def is_squarefree(self):
        return all(mono_is_squarefree(m) for m in self.gens)

    def contains(self, mono):
        return any(mono_divides(g, tuple(mono)) for g in self.gens)

    def with_extra(self, monomials):
        return MonomialIdeal(self.ring, set(self.gens) | set(map(tuple, monomials)))

    def sorted_gens(self):
        key = sort_key(self.ring.default_order, self.ring)
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
        names = ", ".join(self.ring.monomial_text(m) for m in self.sorted_gens())
        return f"MonomialIdeal({names})"


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

    def groebner(self, order=None):
        order = order or self.ring.default_order
        gb = self._cache.get(order)
        if gb is None:
            gb = buchberger(self.generators, order, ring=self.ring)
            self._cache[order] = gb
        return gb

    def plus(self, extra):
        extra = [self.ring.from_string(g) if isinstance(g, str) else g for g in extra]
        return Ideal(self.ring, self.generators + tuple(extra))

    def __repr__(self):
        return f"Ideal({[str(g) for g in self.generators]})"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def buchberger(gens, order=None, *, ring=None):
    """Reduced Groebner basis of the given generators; an Ideal answers from
    its own per-order cache, the one store of its reduced bases."""
    if isinstance(gens, Ideal):
        return gens.groebner(order)
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
        if all(tp < 0 for _, _, _, tp in binelems):
            # the S-element of two monomials is zero: no pair needs treating,
            # and the minimal generators by decreasing lead are the basis
            return ReducedGB(ctx, binomial=_minimal(binelems, ctx.hmask)[::-1])
        return ReducedGB(ctx, binomial=_binomial_buchberger(ctx, binelems))
    return ReducedGB(ctx, generic=_generic_buchberger(
        ctx, [_poly_to_terms(ctx, g)[0] for g in gens]))


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
    """f lies in √I exactly when I : f^∞ is the unit ideal."""
    if f.ring != ideal.ring:
        raise RingMismatch(f"{f.ring} vs {ideal.ring}")
    if not f:
        return True
    return saturate(ideal, f).groebner().contains_one()


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
    gb = buchberger(ideal.generators, order, ring=ring)
    small = ring.restrict(keep)
    drop_idx = [ring.index[v] for v in drop_sorted]
    kept = []
    for g in gb.basis:
        if all(all(m[i] == 0 for i in drop_idx) for m in g.terms):
            kept.append(g.map_ring(small))
    return Ideal(small, kept)


def _gens_are_monomial(gens):
    return all(len(g.terms) == 1 for g in gens)


def intersect(a, b):
    """Ideal intersection via elimination of an auxiliary variable."""
    if a.ring != b.ring:
        raise RingMismatch(f"{a.ring} vs {b.ring}")
    ring = a.ring
    if not a.generators or not b.generators:
        return Ideal(ring, [])
    if _gens_are_monomial(a.generators) and _gens_are_monomial(b.generators):
        # classical: pairwise lcms generate the intersection.  A generator
        # of one side that lies in the other is in the intersection and
        # divides its own lcms, so it stands for them.  A proper divisor has
        # a smaller degree, so (degree, monomial) pairs minimalise like basis
        # elements; the minimal ones leave by decreasing key
        ctx = _Ctx(ring, ring.default_order)
        hm, lcm = ctx.hmask, ctx.lcm
        fs = [ctx.pack(m) for f in a.generators for m in f.terms]
        gs = [ctx.pack(m) for g in b.generators for m in g.terms]
        cands = set()
        rest = []
        for side, other in ((fs, gs), (gs, fs)):
            outside = []
            for f in side:
                fh = f | hm
                if any((fh - g) & hm == hm for g in other):
                    cands.add(lcm(f, f)[::-1])  # (degree, f)
                else:
                    outside.append(f)
            rest.append(outside)
        f_out, g_out = rest
        cands.update(lcm(f, g)[::-1] for f in f_out for g in g_out)
        kept = sorted((pk for _, pk in _minimal(cands, hm)),
                      key=ctx.key_packed, reverse=True)
        return Ideal(ring, [ring.monomial(ctx.unpack(pk)) for pk in kept])
    # (1-t) multiplies the monomial side when there is one: pure differences
    # on the other side then stay pure differences and the fast path applies
    first, second = (b, a) if _gens_are_monomial(a.generators) else (a, b)
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


def _saturate_binomial_by_variable(ring, elements, var):
    """(ctx, reduced elements) of I : var^∞ for a homogeneous pure-difference
    ideal given by binomial elements, in one pass.

    Bayer–Stillman: under degrevlex with var last, dividing each element of
    a Groebner basis of a homogeneous I by the largest power of var that
    divides it gives a Groebner basis of I : var^∞ (Sturmfels, *Groebner
    Bases and Convex Polytopes*, Lemma 12.1); only minimalisation and
    interreduction remain.  Packing does not depend on the order, so the
    elements only need new keys.
    """
    prio = tuple(v for v in ring.variables if v != var) + (var,)
    ctx = _Ctx(ring, degrevlex(prio))
    kp = ctx.key_packed
    elements = [(kp(lp), lp, -1 if tp < 0 else kp(tp), tp) for _, lp, _, tp in elements]
    shift = _FIELD * ring.index[var]
    wvar = ctx.weights[ring.index[var]]
    basis = _binomial_buchberger(ctx, elements, interreduce=False)
    divided = []
    for lk, lp, tk, tp in basis:
        m = (lp >> shift) & (_GUARD - 1)
        if tp >= 0:
            m = min(m, (tp >> shift) & (_GUARD - 1))
            tp -= m << shift
            tk -= m * wvar
        divided.append((lk - m * wvar, lp - (m << shift), tk, tp))
    return ctx, _bin_interreduced(ctx, _minimal(divided, ctx.hmask))


def saturate(ideal, f):
    """I : f^∞, via 1 - t*f elimination; monomial f over a homogeneous
    pure-difference ideal takes a variable-by-variable fast route."""
    if not f:
        raise ZeroDivisor("saturation by zero")
    ring = ideal.ring
    if not ideal.generators:
        return Ideal(ring, [])
    if len(f.terms) == 1 and all(g.is_homogeneous() for g in ideal.generators):
        ctx = _Ctx(ring, ring.default_order)
        elements = _binomial_elements(ctx, ideal.generators)
        if elements is not None:
            (mono,) = f.terms
            for i, e in enumerate(mono):
                if e:
                    ctx, elements = _saturate_binomial_by_variable(
                        ring, elements, ring.variables[i])
            return Ideal(ring, _binomial_polys(ctx, elements))
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


def krull_dim(m):
    """Dimension of the quotient of m's ring by the monomial ideal m.

    Equals the ring's number of variables minus the smallest number of
    variables meeting the support of every minimal generator.
    """
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
