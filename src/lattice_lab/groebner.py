"""Buchberger engine and derived ideal operations.

One Buchberger loop computes every reduced Groebner basis.  It owns the pair
heap, the Gebauer–Möller pair update and minimalisation, and takes its
S-element and reduce steps from one of two element kinds:

* binomial elements, for ideals generated by monomials and pure differences
  of monomials (closed under S-polynomials and reduction, so every element of
  every intermediate basis has at most two terms), and
* generic elements, monic, with coefficients in the field (Q or GF(p)).

Monomials live in hot loops as packed integers, one 16-bit field per
variable, so that divisibility is two big-int operations.  The fields are
laid out by the monomial order (``_Ctx``): then the order's key, the dot
product of the exponents with its weights (see poly.py), is a linear
function of the packed integer and its degree, so a key costs a few integer
operations and an order comparison is one integer comparison.  A
``MonomialIdeal`` keeps its minimal generators packed in the default layout.
"""

from __future__ import annotations

import heapq
import itertools
import struct
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter, pos

from .errors import (
    ExponentOverflow,
    PreconditionViolated,
    RingMismatch,
    ZeroDivisor,
)
from .poly import (
    BlockOrder,
    Poly,
    degrevlex,
    mono_divides,
    _check_monomial,
    _FIELD_BITS,
)

_FIELD = _FIELD_BITS
_GUARD = 1 << (_FIELD - 1)  # high bit per field


def _overflow():
    raise ExponentOverflow(f"an exponent exceeds {_GUARD - 1} in the Groebner engine")


@lru_cache(maxsize=None)
def _field_constants(n):
    """The constants of n fields that do not depend on their order: the
    guard mask, the mask of exponents above one (a packed monomial is
    squarefree when it has none of those bits), the degree fold's masks and
    shift (odd fields fold onto even ones in 32-bit slots, then one multiply
    by a ones-per-slot vector leaves the total in the top slot), the byte
    length and the fields' struct."""
    slots = max(1, (n + 1) // 2)
    return (sum(_GUARD << (_FIELD * f) for f in range(n)),
            sum((_GUARD - 2) << (_FIELD * f) for f in range(n)),
            sum(((1 << _FIELD) - 1) << (2 * _FIELD * i) for i in range(slots)),
            sum(1 << (2 * _FIELD * i) for i in range(slots)),
            2 * _FIELD * (slots - 1),
            _FIELD // 8 * n,
            struct.Struct(f"<{n}H"))


class _Ctx:
    """Packing and order-key helper bound to (ring, order).

    Exponents sit in 16-bit fields whose high (guard) bit stays clear: every
    packed add in the engine tests ``pk & hmask`` and raises
    ExponentOverflow, so field arithmetic below never carries or borrows.

    The fields follow the order, not the ring: the variable of rank r
    (highest first) sits in field n-1-r under lex and in field r under
    degrevlex, and a BlockOrder lays out by its inner order.  ``shifts[i]``
    is the bit offset of variable i's field.  The key of the order's weights
    (poly.py) is then linear in the packed integer p and its degree,

        key(p) = A*deg(p) + S*p + sum over dropped v of C_v*field_v(p),

    with A = 0 and S = 1 under lex, A = 2^(16(n+1)) and S = -1 under
    degrevlex, and C_v a dropped variable's block weight; ``linear`` holds
    (A, S, ((C_v, shift of v), ...)).
    """

    __slots__ = ("ring", "order", "n", "weights", "shifts", "hmask", "above_one",
                 "linear", "key_packed", "unpack", "_field_of", "_pairs", "_ones",
                 "_top", "_bytes", "_struct")

    def __init__(self, ring, order):
        self.ring = ring
        self.order = order
        n = self.n = ring.nvars
        self.weights = order.weights(ring)
        inner, drop = ((order.inner, order.drop) if isinstance(order, BlockOrder)
                       else (order, ()))
        by_field = [ring.index[v] for v in inner.resolve(ring)]
        if inner.kind == "lex":
            by_field.reverse()
        self._field_of = sorted(range(n), key=by_field.__getitem__)
        self.shifts = tuple(_FIELD * f for f in self._field_of)
        a = 0 if inner.kind == "lex" else 1 << (_FIELD * (n + 1))
        drops = ()
        if drop:
            inner_weights = inner.weights(ring)
            drops = tuple((self.weights[i] - inner_weights[i], self.shifts[i])
                          for i in map(ring.index.__getitem__, drop))
        self.linear = (a, -1 if a else 1, drops)
        (self.hmask, self.above_one, self._pairs, self._ones, self._top,
         self._bytes, self._struct) = _field_constants(n)
        self.key_packed = self._linear_key()
        self.unpack = self._unpacker()

    def _linear_key(self):
        """key(p) by the linear formula, for packed monomials p."""
        a, s, drops = self.linear
        pairs, ones, top, low = self._pairs, self._ones, self._top, _GUARD - 1

        def key(p):
            k = s * p
            if a:
                folded = (p & pairs) + ((p >> _FIELD) & pairs)
                k += a * (((folded * ones) >> top) & 0xFFFFFFFF)
            for c, sh in drops:
                k += c * ((p >> sh) & low)
            return k
        return key

    def _unpacker(self):
        """Packed -> exponent tuple: guard bits are clear, so each 16-bit
        field is one exponent, read in field order and put in ring order."""
        nbytes, fields = self._bytes, self._struct.unpack
        # the ring's own degrevlex layout needs no permutation, and so does
        # every layout of one variable, where itemgetter would give a scalar
        if self._field_of == list(range(self.n)):
            return lambda p: fields(p.to_bytes(nbytes, "little"))
        get = itemgetter(*self._field_of)
        return lambda p: get(fields(p.to_bytes(nbytes, "little")))

    def repacker(self, src):
        """The map from monomials packed by ``src``, a context on the same
        ring, to the same monomials packed by this one: one permutation of
        the fields."""
        if src._field_of == self._field_of:
            return pos
        # layouts differ only on two or more variables: get gives a tuple
        by_field = sorted(range(self.n), key=self._field_of.__getitem__)
        get = itemgetter(*(src._field_of[i] for i in by_field))
        nbytes, fields, pack = self._bytes, self._struct.unpack, self._struct.pack
        return lambda p: int.from_bytes(
            pack(*get(fields(p.to_bytes(nbytes, "little")))), "little")

    def pack(self, exps):
        p = 0
        for e, s in zip(exps, self.shifts):
            p |= e << s
        return p

    def key_pack(self, exps):
        """(order key, packed) of an exponent tuple in one pass."""
        k = p = 0
        for e, s, w in zip(exps, self.shifts, self.weights):
            if e:
                k += e * w
                p |= e << s
        return k, p

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
        return p, self.degree(p)

    def degree(self, p):
        """Total degree of a packed monomial, by the degree fold."""
        pairs = self._pairs
        folded = (p & pairs) + ((p >> _FIELD) & pairs)
        return ((folded * self._ones) >> self._top) & 0xFFFFFFFF


@lru_cache(maxsize=64)
def _default_ctx(ring):
    """The default-order context of ``ring``, one per ring.  Monomial ideals
    are packed in it, so it is built once, not per initial ideal; contexts of
    other orders are not kept, as the scan builds thousands of orders."""
    return _Ctx(ring, ring.default_order)


# ---------------------------------------------------------------------------
# the Buchberger loop
# ---------------------------------------------------------------------------
# Both element kinds start with (lead_key, lead_packed): the loop reads only
# those two fields and leaves the rest to the kind's own steps.


def _buchberger_core(ctx, elements, s_element, reduce, *, stop=None, known=()):
    """Minimal Groebner basis of ``known`` and ``elements``, sorted by
    increasing lead.

    ``reduce(ctx, raw, basis)`` turns a raw element (an input or an
    S-element) into a basis element reduced by ``basis``, or None for zero;
    ``s_element(ctx, lcm, key, fi, fj)`` is the raw S-element of a pair
    with lcm ``lcm`` of order key ``key``, or None when it is zero.  Pairs
    leave the heap by lcm degree, then lcm key.

    Pairs are installed as Gebauer and Möller (1988) do.  The new element
    h's pairs are walked by (packed lcm, coprime first), and one is kept
    only when no kept pair's lcm divides its lcm: that drops a pair whose
    lcm a smaller one divides (M), all but one pair of equal lcm (F), and
    every pair of an lcm that some coprime pair has (product criterion),
    after which the coprime pairs themselves go.  Packed a | b implies
    a <= b as integers, so the walk meets every proper divisor of an lcm
    before that lcm, and the kept pairs are one per minimal lcm, the first
    of its equals.  Only those pushed get a degree and a heap key.  An
    element whose lead lead(h) divides forms no more pairs and is left out
    of the result.

    ``known``, when given, is a reduced Groebner basis in ``ctx`` of the
    ideal of some generators (the incremental step of Gebauer and Möller).
    Its elements enter the basis and form pairs only with the elements
    added after them: the S-element of two of them top-reduces to zero by
    the known basis itself, so a run from all of them would add nothing
    for those pairs, and the run from ``known`` adds the same elements.

    ``stop(basis, degree)``, when given, is called before each pair leaves
    the heap with every element added so far, in order, and that pair's lcm
    degree; a true answer ends the run, which then returns None.
    """
    hm = ctx.hmask
    fold, ones, top = ctx._pairs, ctx._ones, ctx._top
    a, s, drops = ctx.linear
    low = _GUARD - 1
    basis = list(known)
    # indices of the elements whose lead no later lead divides: they form
    # pairs, and as every element is reduced by those before it, they end
    # as the minimal basis; no lead of a reduced basis divides another
    live = list(range(len(basis)))
    pairs = []

    def add(el):
        nonlocal live
        if el is None:
            return
        j, lj = len(basis), el[1]
        walk = []
        for i in live:
            li = basis[i][1]
            # the packed lcm, as in _Ctx.lcm
            g = ((li | hm) - lj) & hm
            sel = g - (g >> (_FIELD - 1))
            lcm = (li & sel) | (lj & ~sel)
            walk.append((lcm, lcm != li + lj, i))
        walk.sort()
        kept = []
        for lcm, not_coprime, i in walk:
            lh = lcm | hm
            for k in kept:
                if (lh - k) & hm == hm:
                    break
            else:
                kept.append(lcm)
                if not_coprime:
                    folded = (lcm & fold) + ((lcm >> _FIELD) & fold)
                    deg = ((folded * ones) >> top) & 0xFFFFFFFF
                    key = a * deg + s * lcm
                    for c, sh in drops:
                        key += c * ((lcm >> sh) & low)
                    heapq.heappush(pairs, (deg, key, i, j, lcm))
        live = [i for i in live if ((basis[i][1] | hm) - lj) & hm != hm]
        live.append(j)
        basis.append(el)

    for el in elements:
        add(reduce(ctx, el, basis))
    while pairs:
        if stop is not None and stop(basis, pairs[0][0]):
            return None
        _, key, i, j, lcm = heapq.heappop(pairs)
        s_el = s_element(ctx, lcm, key, basis[i], basis[j])
        if s_el is not None:
            add(reduce(ctx, s_el, basis))
    return sorted((basis[i] for i in live), key=itemgetter(0))


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


def _minimal_packed(ctx, packed):
    """The minimal packed monomials; a divisor is never the larger integer."""
    return frozenset(p for _, p in _minimal([(p, p) for p in packed], ctx.hmask))


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
    """Top-reduce a binomial u - v and orient it lead > tail; None for zero.

    Only the larger term is rewritten, until no lead of ``basis`` divides
    it, and the element is zero as soon as the two terms meet.  The tail is
    left as it is: the loop needs only leads, and ``_bin_interreduced``
    reduces the tails of the final basis.  The input may come in either
    orientation.
    """
    hm = ctx.hmask
    ak, ap, bk, bp = el
    if bp < 0:
        mono = _bin_reduce_monomial(ak, ap, basis, hm)
        return None if mono is None else (*mono, -1, -1)
    while ap != bp:
        if ak < bk:
            ak, ap, bk, bp = bk, bp, ak, ap
        for lk, lp, tk, tp in basis:
            if lk <= ak and ((ap | hm) - lp) & hm == hm:
                break
        else:
            return ak, ap, bk, bp
        if tp < 0:  # the larger term is 0 modulo basis, the smaller remains
            mono = _bin_reduce_monomial(bk, bp, basis, hm)
            return None if mono is None else (*mono, -1, -1)
        ap += tp - lp
        if ap & hm:
            _overflow()
        ak += tk - lk
    return None


def _bin_shifted(ctx, lcm, key, f):
    """(key, packed) of (lcm / lead(f)) * tail(f), for an lcm of key ``key``."""
    pk = lcm - f[1] + f[3]
    if pk & ctx.hmask:
        _overflow()
    return key - f[0] + f[2], pk


def _bin_s_element(ctx, lcm, key, fi, fj):
    """S-element of u1 - v1, u2 - v2: (lcm/u2) v2 - (lcm/u1) v1, unoriented."""
    if fi[3] < 0:
        return None if fj[3] < 0 else (*_bin_shifted(ctx, lcm, key, fj), -1, -1)
    if fj[3] < 0:
        return (*_bin_shifted(ctx, lcm, key, fi), -1, -1)
    m1 = _bin_shifted(ctx, lcm, key, fi)
    m2 = _bin_shifted(ctx, lcm, key, fj)
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


def _binomial_buchberger(ctx, elements, *, stop=None, known=()):
    """Reduced basis of a pure-difference/monomial ideal, given binomial
    elements in either orientation, or None when ``stop`` (as in
    ``_buchberger_core``) ends the run; the run starts from the reduced
    basis ``known`` of the other generators, when one is given."""
    kept = _buchberger_core(ctx, elements, _bin_s_element, _bin_reduce, stop=stop,
                            known=known)
    return None if kept is None else _bin_interreduced(ctx, kept)


# ---------------------------------------------------------------------------
# generic elements: monic, with field coefficients
# ---------------------------------------------------------------------------
# (lead_key, lead_packed, terms: dict packed->coeff) with terms[lead_packed]
# == 1.  Coefficients are residues over GF(p).  Over Q they are ints where
# possible, as int arithmetic is much the faster: inputs and new elements
# store integral values as ints, and Fractions enter only with non-integral
# ones.  Raw elements are term dicts.


def _rational(c):
    """A rational as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _make_entry(ctx, terms):
    """The monic element of a nonzero term dict, or None for the empty one."""
    if not terms:
        return None
    lead = max(terms, key=ctx.key_packed)
    lc = terms[lead]
    if lc != 1:
        char = ctx.ring.char
        if char:
            inv = pow(lc, -1, char)
            terms = {m: c * inv % char for m, c in terms.items()}
        else:
            inv = _rational(Fraction(1, lc))
            terms = {m: _rational(c * inv) for m, c in terms.items()}
    return ctx.key_packed(lead), lead, terms


def _subtract(ctx, p, c, shift, g):
    """p -= c * x^shift * (g - lead g) in place, for a generic element g."""
    char, hm = ctx.ring.char, ctx.hmask
    lead = g[1]
    for t, gc in g[2].items():
        if t == lead:
            continue
        tt = t + shift
        if tt & hm:
            _overflow()
        nv = p.get(tt, 0) - c * gc
        if char:
            nv %= char
        if nv:
            p[tt] = nv
        elif tt in p:
            del p[tt]


def _nf_generic(ctx, terms, basis):
    """Normal form of a term dict modulo generic elements, as a term dict."""
    key_packed = ctx.key_packed
    divides = ctx.divides
    p = {m: c for m, c in terms.items() if c}
    rem = {}
    while p:
        m = max(p, key=key_packed)
        mk = key_packed(m)
        c = p.pop(m)
        for g in basis:
            if g[0] <= mk and divides(g[1], m):
                # the lead term of c * x^(m - lead g) * g cancels c * x^m
                _subtract(ctx, p, c, m - g[1], g)
                break
        else:
            rem[m] = c
    return rem


def _gen_reduce(ctx, terms, basis):
    return _make_entry(ctx, _nf_generic(ctx, terms, basis))


def _gen_s_element(ctx, lcm, key, fi, fj):
    """(lcm/lead fi) fi - (lcm/lead fj) fj as a term dict; the leads cancel."""
    s = {}
    _subtract(ctx, s, -1, lcm - fi[1], fi)
    _subtract(ctx, s, 1, lcm - fj[1], fj)
    return s


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
    """Poly -> term dict, with integral rationals as ints."""
    return {ctx.pack(m): _rational(c) for m, c in poly.terms.items()}


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


def _binomial_elements(ctx, gens):
    """Pure-difference/monomial elements of Polys and of binomial
    ReducedGBs, repacked (``_rekeyed``), for the fast path, or None."""
    out = []
    for g in gens:
        if isinstance(g, ReducedGB):
            if g._binomial is None:
                return None
            out += _rekeyed(ctx, g._binomial, ctx.repacker(g._ctx))
            continue
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

    It is the engine's own elements, packed binomial ones in ``_binomial``
    or generic ones in ``_generic``, read one way (``_view``): ``basis``
    builds their Poly form when read, the one place engine elements become
    Polys, and as a reduced basis is unique, equal views make equal bases
    whichever engine built them.  On a binomial basis ``reduce`` works term
    by term, because the normal form is linear and under a +-1 binomial
    basis a monomial reduces to a monomial or to 0.
    """

    __slots__ = ("_ctx", "_binomial", "_generic")

    def __init__(self, ctx, *, binomial=None, generic=None):
        self._ctx = ctx
        self._binomial = binomial
        self._generic = generic

    ring = property(lambda self: self._ctx.ring)
    order = property(lambda self: self._ctx.order)

    def _view(self):
        """(lead, {packed: coeff}) per element by decreasing lead, any kind."""
        if self._binomial is None:
            return [(lead, terms) for _, lead, terms in self._generic]
        one, minus = self.ring.coeff(1), self.ring.coeff(-1)
        return [(lp, {lp: one} if tp < 0 else {lp: one, tp: minus})
                for _, lp, _, tp in self._binomial]

    @property
    def basis(self):
        """The elements as Polys, by decreasing lead."""
        ring, unpack = self.ring, self._ctx.unpack
        return tuple(Poly(ring, {unpack(m): c for m, c in terms.items()})
                     for _, terms in self._view())

    def _elements(self):
        return self._binomial if self._binomial is not None else self._generic

    def reduce(self, f):
        """Unique normal form of f modulo this basis."""
        if f.ring != self.ring:
            raise RingMismatch(f"{f.ring} vs {self.ring}")
        if self._binomial is not None:
            return self._reduce_binomial(f)
        ctx = self._ctx
        rem = _nf_generic(ctx, _poly_to_terms(ctx, f), self._generic)
        return Poly(self.ring, {ctx.unpack(m): c for m, c in rem.items()})

    def _reduce_binomial(self, f):
        ctx, ring = self._ctx, self.ring
        basis, hm = self._binomial, ctx.hmask
        rem = {}
        keys = {}
        for m, c in f.terms.items():
            nf = _bin_reduce_monomial(*ctx.key_pack(m), basis, hm)
            if nf is not None:
                keys[nf[1]] = nf[0]
                rem[nf[1]] = rem.get(nf[1], 0) + c
        # terms that cancel are dropped here, so a remainder of zero, the
        # common answer of a containment test, is neither sorted nor unpacked
        kept = [pk for pk, c in rem.items() if ring.coeff(c)]
        if not kept:
            return ring.zero()
        kept.sort(key=keys.get, reverse=True)
        return Poly(ring, {ctx.unpack(pk): rem[pk] for pk in kept})

    def leading_monomials(self):
        """Leads in basis order, read off the engine's own elements."""
        return tuple(self._ctx.unpack(e[1]) for e in self._elements())

    def contains_one(self):
        # a monic element whose lead is the monomial 1 (packed 0) is 1
        return len(self) == 1 and self._elements()[0][1] == 0

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self._elements())

    def __eq__(self, other):
        # the orders' weights on the ring, not the order objects: lex() and
        # lex(ring.variables) are one order, with one packing
        return (
            isinstance(other, ReducedGB)
            and self.ring == other.ring
            and self._ctx.weights == other._ctx.weights
            and self._view() == other._view()
        )

    def __repr__(self):
        return f"ReducedGB({[str(g) for g in self.basis]})"


class MonomialIdeal:
    """Monomial ideal stored by its minimal generators, packed in the ring's
    default-order layout.  The constructor alone checks and packs exponent
    tuples; the engine builds from packed leads (``_of_packed``), and
    ``gens``, ``sorted_gens`` and ``repr`` unpack when read."""

    __slots__ = ("_ctx", "_packed")

    def __init__(self, ring, monomials):
        ctx = _default_ctx(ring)
        self._ctx, self._packed = ctx, _minimal_packed(
            ctx, [ctx.pack(_check_monomial(ring, m)) for m in monomials])

    @classmethod
    def _of_packed(cls, ctx, packed):
        """The ideal of monomials packed by ``ctx``, a default-order context."""
        ideal = cls.__new__(cls)
        ideal._ctx, ideal._packed = ctx, _minimal_packed(ctx, packed)
        return ideal

    ring = property(lambda self: self._ctx.ring)
    gens = property(lambda self: frozenset(map(self._ctx.unpack, self._packed)))

    def is_squarefree(self):
        above_one = self._ctx.above_one
        return not any(p & above_one for p in self._packed)

    def contains(self, mono):
        ctx = self._ctx
        p = ctx.pack(_check_monomial(ctx.ring, tuple(mono)))
        return any(ctx.divides(g, p) for g in self._packed)

    def sorted_gens(self):
        ctx = self._ctx
        return [ctx.unpack(p)
                for p in sorted(self._packed, key=ctx.key_packed, reverse=True)]

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.ring == other.ring
            and self._packed == other._packed
        )

    def __hash__(self):
        return hash((self.ring, self._packed))

    def __len__(self):
        return len(self._packed)

    def __repr__(self):
        names = ", ".join(self.ring.monomial_text(m) for m in self.sorted_gens())
        return f"MonomialIdeal({names})"


class Ideal:
    """Polynomial ideal with a per-order cache of reduced Groebner bases; an
    ideal made by ``plus`` keeps its parent, whose generators come first in
    its own, and ``groebner`` alone decides where a basis comes from."""

    __slots__ = ("ring", "generators", "_cache", "_parent")

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
        self._parent = None

    def groebner(self, order=None):
        """The reduced basis under ``order``, cached by the order's weights
        on the ring, so that every spelling of one order shares one basis.
        A basis not cached comes from the first of these that applies:

        1. the cached basis under the order;
        2. a cached binomial basis each of whose elements keeps its lead
           under this order, rekeyed with no run;
        3. for an ideal made by ``plus``, the parent's basis by 1 or 2 and
           the extras, appended with no run when they are variables no
           element involves, else by one run from that basis;
        4. one run from a cached binomial basis of this ideal, else of its
           parent and the extras, no larger than the generators (a larger
           input forms more pairs), else from the generators.

        Step 2 (Mora–Robbiano 1988): let G be I's reduced basis under <,
        each g keeping its lead under <'.  Then M = <lead(G)> lies in
        in<'(I), so the monomials outside in<'(I), a basis of the quotient
        by I, lie among those outside M, a basis of it too: a basis inside a
        basis is all of it, so in<'(I) = M, and G, its tails outside M, is
        the reduced basis under <'.
        Step 3: the new variables' leads are coprime to G's, so each new
        pair reduces to zero (Buchberger's first criterion), and no lead
        divides another or a tail term unless G is {1}, which is excluded."""
        order = order or self.ring.default_order
        gb = self._cache.get(order.weights(self.ring))
        if gb is None:
            ctx = _Ctx(self.ring, order)
            gb = self._read_off(ctx)
            if gb is None:
                gb = self._cache[ctx.weights] = self._built(ctx)
        return gb

    def _read_off(self, ctx):
        """Steps 1 and 2 of ``groebner``, caching a read-off basis, or None;
        leads are compared up to the first that flips."""
        gb = self._cache.get(ctx.weights)
        for cached in self._cache.values() if gb is None else ():
            if cached._binomial is not None:
                out = _rekeyed(ctx, cached._binomial, ctx.repacker(cached._ctx))
                if all(tp < 0 or tk < lk for lk, _, tk, tp in out):
                    gb = self._cache[ctx.weights] = ReducedGB(
                        ctx, binomial=sorted(out, key=lambda e: -e[0]))
                    break
        return gb

    def _built(self, ctx):
        """Steps 3 and 4 of ``groebner``."""
        parent, inputs = self._parent, self.generators
        if parent is not None:
            extra = inputs[len(parent.generators):]
            known = parent._read_off(ctx)
            if known is not None and known._binomial is not None:
                gb = _plus_variables(known, extra)
                return gb if gb is not None else buchberger(
                    [known, *extra], ctx.order, ring=self.ring)
            seed = _binomial_basis(parent)
            if seed is not None:
                inputs = [seed, *extra]
        seed = _binomial_basis(self)
        return buchberger(inputs if seed is None else seed, ctx.order, ring=self.ring)

    def plus(self, extra):
        """The ideal of these generators and ``extra`` (Polys or strings),
        whose bases start from this ideal's (``groebner``, step 3)."""
        ideal = Ideal(self.ring, (*self.generators, *extra))
        ideal._parent = self
        return ideal

    def __repr__(self):
        return f"Ideal({[str(g) for g in self.generators]})"


def _binomial_basis(ideal):
    """The oldest binomial basis ``ideal`` caches no larger than its
    generators (``Ideal.groebner``, step 4), or None."""
    return next((gb for gb in ideal._cache.values() if gb._binomial is not None
                 and len(gb) <= len(ideal.generators)), None)


def _plus_variables(known, extra):
    """The binomial reduced basis ``known`` with the variables ``extra``, or
    None unless no element of it involves them and it is not {1} (step 3)."""
    ctx, added, fields = known._ctx, {}, 0
    for g in extra:
        mono, *more = g.terms
        if more or sum(mono) != 1:
            return None
        k, p = ctx.key_pack(mono)
        added[p] = (k, p, -1, -1)
        fields |= p * ((1 << _FIELD) - 1)  # the variable's whole field
    if any(lp == 0 or (lp | max(tp, 0)) & fields for _, lp, _, tp in known._binomial):
        return None
    return ReducedGB(ctx, binomial=sorted([*known._binomial, *added.values()],
                                          key=lambda e: -e[0]))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def buchberger(gens, order=None, *, ring=None):
    """Reduced Groebner basis of the given generators: an Ideal answers from
    its own cache (``Ideal.groebner``); else ``gens`` is a ReducedGB or an
    iterable of Polys and ReducedGBs, a binomial ReducedGB standing for its
    own elements, repacked with no Poly read.  A first one already under
    ``order`` is a reduced basis, so the run starts from it
    (``_buchberger_core``'s ``known``)."""
    if isinstance(gens, Ideal):
        return gens.groebner(order)
    gens = [gens] if isinstance(gens, ReducedGB) else list(gens)
    if ring is None:
        if not gens:
            raise ValueError("cannot infer ring from empty generators")
        ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatch("mixed rings in generator list")
    ctx = _Ctx(ring, order or ring.default_order)
    gens = [g for g in gens if g]
    binelems = _binomial_elements(ctx, gens)
    if binelems is not None:
        if all(tp < 0 for _, _, _, tp in binelems):
            # the S-element of two monomials is zero: no pair needs treating,
            # and the minimal generators by decreasing lead are the basis
            return ReducedGB(ctx, binomial=_minimal(binelems, ctx.hmask)[::-1])
        known = 0
        if isinstance(gens[0], ReducedGB) and gens[0]._ctx.weights == ctx.weights:
            known = len(gens[0])
        return ReducedGB(ctx, binomial=_binomial_buchberger(
            ctx, binelems[known:], known=binelems[:known]))
    return ReducedGB(ctx, generic=_generic_buchberger(ctx, [
        _poly_to_terms(ctx, p) for g in gens
        for p in (g.basis if isinstance(g, ReducedGB) else (g,))]))


def _rekeyed(ctx, elements, repack=pos):
    """Binomial elements with each monomial repacked by ``repack`` and keyed
    by ``ctx``, in their own order and orientation."""
    key = ctx.key_packed
    out = []
    for _, lp, _, tp in elements:
        lp = repack(lp)
        if tp < 0:
            out.append((key(lp), lp, -1, -1))
        else:
            tp = repack(tp)
            out.append((key(lp), lp, key(tp), tp))
    return out


def normal_form(f, basis):
    """Remainder of f modulo a ReducedGB."""
    return basis.reduce(f)


def initial_ideal(ideal, order=None):
    """Minimal monomial generators of the ideal of leading terms."""
    ring = ideal.ring
    order = order or ring.default_order
    gb = ideal.groebner(order)
    ctx = _default_ctx(ring)
    repack = ctx.repacker(gb._ctx)
    return MonomialIdeal._of_packed(ctx, [repack(e[1]) for e in gb._elements()])


def _initial_ideal_toward(ideal, order, goal):
    """A monomial ideal inside in(I) under ``order`` that contains the
    MonomialIdeal ``goal``, or None when in(I) does not contain ``goal``.

    ``ideal`` must be generated by homogeneous pure differences, as a
    join-meet ideal is; anything else raises PreconditionViolated
    (``_Fibers``).  A basis it caches gives the whole of in(I).  Otherwise
    no engine runs, and the answer is ``goal`` itself or None, decided by
    fiber walks: a generator m of ``goal`` lies in in(I) exactly when m is
    not the least of its fiber component, that is when the walk from m
    reaches a monomial of smaller key, and the walk stops at the first one.
    """
    ring = ideal.ring
    ctx = _Ctx(ring, order)
    fibers = _Fibers(ctx, _binomial_elements(ctx, ideal.generators))
    if order.weights(ring) in ideal._cache:
        return initial_ideal(ideal, order)
    # a component has one degree, so keys within it differ only by the
    # rest of the linear key (_Ctx): S*p plus the dropped-variable terms
    _, s, drops = ctx.linear
    key = ctx.key_packed if drops else s.__mul__
    for m in map(ctx.repacker(goal._ctx), goal._packed):
        top = key(m)
        if not any(key(c) < top for c in fibers.walk(m)):
            return None
    return goal


class _Fibers:
    """The fiber components of monomials packed by ``ctx`` under the moves
    of the binomial ``elements`` (``_binomial_elements``) of an ideal I.

    When I is generated by homogeneous pure differences, it is spanned in
    each degree d by the differences x^u - x^v along moves w·(a - b) of its
    generators a - b (Diaconis–Sturmfels 1998), so under any order in(I)_d
    holds every monomial of degree d but the least of each fiber component.
    A move, (a, b - a) packed, trades a for b in a monomial that a divides,
    for each generator both ways round.  Moves keep the degree, so every
    component is finite; any other generator raises PreconditionViolated.
    Components do not depend on the order, so ``component`` walks each once
    and keeps it, packed, for all its members.
    """

    __slots__ = ("ctx", "_moves", "_of")

    def __init__(self, ctx, elements):
        if elements is None or any(tp < 0 or ctx.degree(lp) != ctx.degree(tp)
                                   for _, lp, _, tp in elements):
            raise PreconditionViolated(
                "fiber walks need homogeneous pure-difference generators")
        self.ctx = ctx
        self._moves = [move for _, a, _, b in elements
                       for move in ((a, b - a), (b, a - b))]
        self._of = {}

    def walk(self, m):
        """The monomials of the packed monomial m's component, m first,
        each yielded when first reached, breadth first."""
        hm = self.ctx.hmask
        yield m
        seen, todo = {m}, [m]
        for c in todo:
            for a, change in self._moves:
                if ((c | hm) - a) & hm == hm:
                    d = c + change
                    if d not in seen:
                        yield d
                        seen.add(d)
                        todo.append(d)

    def component(self, m):
        """The frozenset of the monomials of the packed monomial m's
        component, m included."""
        found = self._of.get(m)
        if found is None:
            found = frozenset(self.walk(m))
            self._of.update(dict.fromkeys(found, found))
        return found


def is_squarefree(m):
    return m.is_squarefree()


def ideal_member(f, ideal, order=None):
    if f.ring != ideal.ring:
        raise RingMismatch(f"{f.ring} vs {ideal.ring}")
    if not f:
        return True
    return not ideal.groebner(order).reduce(f)


def radical_member(f, ideal):
    """f lies in √I exactly when I : f^∞ is the unit ideal."""
    if f.ring != ideal.ring:
        raise RingMismatch(f"{f.ring} vs {ideal.ring}")
    if not f:
        return True
    return saturate(ideal, f).groebner().contains_one()


def _eliminate(ring, gens, keep):
    """The step of ``eliminate``, ``intersect`` and ``saturate``'s Poly
    route: gens ∩ K[keep], by the reduced basis under BlockOrder(drop,
    degrevlex(keep + drop)), with ``drop`` the other variables.  An element
    is free of drop when its lead is, and drop's fields are the top ones
    (``_Ctx``), so the kept elements are those with leads below them;
    packed as they are, they are the reduced basis under degrevlex(keep) on
    the smaller ring, and only they become Polys."""
    drop = tuple(v for v in ring.variables if v not in keep)
    gb = buchberger(gens, BlockOrder(drop, degrevlex(keep + drop)), ring=ring)
    ctx = _Ctx(ring.restrict(v for v in ring.variables if v in keep), degrevlex(keep))
    top = 1 << (_FIELD * len(keep))
    kept = [(ctx.key_packed(lead), lead, terms)
            for lead, terms in gb._view() if lead < top]
    return Ideal(ctx.ring, ReducedGB(ctx, generic=kept).basis)


def _extended(ring):
    """K[x, t] for a last variable t that ``ring`` lacks (t, else t0, t1,
    ...)."""
    names = itertools.chain(["t"], (f"t{i}" for i in itertools.count()))
    return ring.extend([next(v for v in names if v not in ring.index)])


def _with_t(ring, rows):
    """K[x, t] (``_extended``) and each row as one Poly in it, built from
    its terms: a row [(g, e), ...] of Polys g of ``ring`` and distinct e is
    the sum of t^e·g, so (1 - t)·g is [(g, 0), (-g, 1)] and 1 - t·f is
    [(ring.one(), 0), (-f, 1)]."""
    ext = _extended(ring)
    return ext, [Poly(ext, {(*m, e): c for g, e in row for m, c in g.terms.items()})
                 for row in rows]


def eliminate(ideal, drop):
    """Generators of ideal ∩ K[remaining variables] (``_eliminate``)."""
    drop = set(drop)
    if not drop:
        return ideal
    ring = ideal.ring
    unknown = drop - set(ring.variables)
    if unknown:
        raise RingMismatch(f"unknown variables {sorted(unknown)}")
    return _eliminate(ring, ideal.generators,
                      tuple(v for v in ring.variables if v not in drop))


def _monomial_pair(a, b):
    """True for two MonomialIdeals, False for two Ideals, else an error."""
    if isinstance(a, MonomialIdeal) != isinstance(b, MonomialIdeal):
        raise PreconditionViolated("a MonomialIdeal paired with an Ideal")
    return isinstance(a, MonomialIdeal)


def intersect(a, b):
    """Intersection of two MonomialIdeals, by pairwise lcms (a generator of
    one side that lies in the other stands for its own lcms), or of two
    Ideals, by eliminating an auxiliary variable t (``_eliminate``) from
    generators built once each in K[x, t] (``_with_t``).

    Generators both sides share generate an ideal S inside both, and then
    (S + F) ∩ (S + G) = (S + tF + (1-t)G) ∩ K[x].  So shared generators stay
    out of the t and (1-t) products: a shared pure difference stays a pure
    difference, and the binomial engine still applies when the rest does.
    """
    if a.ring != b.ring:
        raise RingMismatch(f"{a.ring} vs {b.ring}")
    ring = a.ring
    if _monomial_pair(a, b):
        ctx = a._ctx
        hm = ctx.hmask
        sides = a._packed, b._packed
        meet, rest = set(), []
        for side, other in (sides, sides[::-1]):
            inside = {f for f in side if any(((f | hm) - g) & hm == hm for g in other)}
            meet |= inside
            rest.append([f for f in side if f not in inside])
        meet.update(ctx.lcm(f, g)[0] for f, g in itertools.product(*rest))
        return MonomialIdeal._of_packed(ctx, meet)
    shared = set(a.generators) & set(b.generators)
    first = [g for g in a.generators if g not in shared]
    second = [g for g in b.generators if g not in shared]
    # (1-t) multiplies the monomial side when there is one: pure differences
    # on the other side then stay pure differences and the fast path applies
    if all(len(g.terms) == 1 for g in first):
        first, second = second, first
    ext, gens = _with_t(ring, [[(g, 0)] for g in a.generators if g in shared]
                        + [[(g, 1)] for g in first]
                        + [[(g, 0), (-g, 1)] for g in second])
    # t is the one variable dropped and the last, so the result's ring is ring
    return _eliminate(ext, gens, ring.variables)


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
        t = ring.monomial(shift, lc_r * ring.coeff_inv(lc_f))
        q = q + t
        r = r - t * f
    return q


def colon(ideal, f):
    """Ideal quotient I : (f) via intersection with the principal ideal."""
    if not f:
        raise ZeroDivisor("colon by zero")
    meet = intersect(ideal, Ideal(ideal.ring, [f]))
    return Ideal(ideal.ring, [exact_div(g, f) for g in meet.generators])


def _binomial_colons(ideal, index):
    """Groebner bases of I : x and I : x², as binomial elements, for the
    variable x at ``index`` of a homogeneous pure-difference ideal I.

    Under degrevlex with x last, dividing each element g of a Groebner basis
    of a homogeneous I by x^min(e, v_x(g)) gives one of I : x^e (Sturmfels,
    *Groebner Bases and Convex Polytopes*, Lemma 12.1, applied e times), so
    both come from the one reduced basis of I under that order, which the
    Ideal caches.  Returns that order's context and the two bases, neither
    of them reduced.
    """
    ring = ideal.ring
    var = ring.variables[index]
    gb = ideal.groebner(degrevlex(
        tuple(v for v in ring.variables if v != var) + (var,)))
    ctx = gb._ctx
    shift, wx, low = ctx.shifts[index], ctx.weights[index], _GUARD - 1

    def divided(e):
        out = []
        for lk, lp, tk, tp in gb._binomial:
            m = min(e, (lp >> shift) & low)
            if tp >= 0:
                m = min(m, (tp >> shift) & low)
                tk, tp = tk - m * wx, tp - (m << shift)
            out.append((lk - m * wx, lp - (m << shift), tk, tp))
        return out

    return ctx, divided(1), divided(2)


def saturate(ideal, f):
    """I : f^∞, the t-free part of the reduced basis of I + (1 - t*f) under
    the elimination order BlockOrder(t, degrevlex(prio + t)).

    ``prio`` is the ring's variables, except that for a monomial f the last
    variable of f comes last: the t-free part is then the reduced basis
    under degrevlex(prio), the basis a Bayer–Stillman pass by that variable
    ends with.

    A monomial f over a pure-difference I takes the packed route: made
    monic (a unit changes no saturation), 1 - t*f is a pure difference, and
    the saturation is one binomial-engine run on I's generators and 1 - t*f
    packed straight into K[x, t], whose fields for x are those of
    degrevlex(prio) (``_Ctx`` ranks t last, in the top field).  So the
    t-free elements, keyed anew, are the reduced basis under
    degrevlex(prio); only they become Polys, and the answer caches them.
    When I has a binomial basis G under degrevlex(prio) with no run
    (``Ideal.groebner``, steps 1 and 2), the run starts from G and 1 - t*f
    alone (``_buchberger_core``'s ``known``): G is free of t, and on t-free
    monomials the block order is degrevlex(prio), so G is a reduced basis
    of I·K[x, t] under it.

    Any other f, and a monomial f over an I of the generic kind, take the
    Poly route: each generator is built once in K[x, t] (``_with_t``) and
    eliminate's step (``_eliminate``) runs the engine they call for.
    """
    ring = ideal.ring
    if f.ring != ring:
        raise RingMismatch(f"{f.ring} vs {ring}")
    if not f:
        raise ZeroDivisor("saturation by zero")
    prio = ring.variables
    if len(f.terms) == 1:
        (mono,) = f.terms
        last = max((i for i, e in enumerate(mono) if e), default=None)
        if last is not None:
            prio = prio[:last] + prio[last + 1:] + (prio[last],)
        sat = _saturate_packed(ideal, mono, prio)
        if sat is not None:
            return sat
        f = ring.monomial(mono)
    ext, gens = _with_t(ring, [[(g, 0)] for g in ideal.generators]
                        + [[(ring.one(), 0), (-f, 1)]])
    return _eliminate(ext, gens, prio)


def _saturate_packed(ideal, mono, prio):
    """``saturate``'s packed route for the monomial x^mono, or None when I
    is not of the binomial kind."""
    ring = ideal.ring
    ext = _extended(ring)
    t = ext.variables[-1:]
    ctx = _Ctx(ext, BlockOrder(t, degrevlex(prio + t)))
    small = _Ctx(ring, degrevlex(prio))
    known = ideal._read_off(small)
    if known is not None and known._binomial is not None:
        seed, elements = _rekeyed(ctx, known._binomial), []
    else:
        # exponent tuples of the ring are one short: key_pack leaves t at 0
        seed, elements = (), _binomial_elements(ctx, ideal.generators)
        if elements is None:
            return None
    elements.append((0, 0, *ctx.key_pack((*mono, 1))))  # 1 - t*x^mono
    top = 1 << (_FIELD * ring.nvars)
    gb = ReducedGB(small, binomial=_rekeyed(small, [
        e for e in _binomial_buchberger(ctx, elements, known=seed) if e[1] < top]))
    sat = Ideal(ring, gb.basis)
    sat._cache[small.weights] = gb
    return sat


def ideal_equal(a, b):
    """Equality of MonomialIdeals by minimal generators, of Ideals by reduced
    bases under the ring's canonical order (``ReducedGB`` equality)."""
    if a.ring != b.ring:
        raise RingMismatch(f"{a.ring} vs {b.ring}")
    if _monomial_pair(a, b):
        return a._packed == b._packed
    return a.groebner() == b.groebner()


def ideal_contains(a, b):
    """True when ideal a ⊇ ideal b."""
    gb = a.groebner()
    return all(not gb.reduce(g) for g in b.generators)


def krull_dim(m):
    """Dimension of the quotient of m's ring by the monomial ideal m.

    Equals the ring's number of variables minus the smallest number of
    variables meeting the support of every minimal generator.  The unit
    ideal has no quotient to measure and raises PreconditionViolated.
    """
    nvars = m.ring.nvars
    supports = []
    for g in m.gens:
        s = frozenset(i for i, e in enumerate(g) if e)
        if not s:
            raise PreconditionViolated("unit ideal has no quotient dimension")
        supports.append(s)
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
    return tf * f.scale(ring.coeff_inv(cf)) - tg * g.scale(ring.coeff_inv(cg))


def verify_groebner(gb):
    """Post-hoc check: every S-polynomial of every pair reduces to zero."""
    return not any(gb.reduce(spolynomial(f, g, gb.order))
                   for f, g in itertools.combinations(gb.basis, 2))
