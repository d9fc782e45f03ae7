"""Exact multivariate polynomials over Q or GF(p) with pluggable monomial orders.

Monomials are exponent tuples indexed by the ring's variable list.  Orders are
value objects usable as cache keys, and an order is its integer weight vector:
``sort_key(order, ring)(m) = dot(m, order.weights(ring))`` is strictly
monotone and additive under multiplication, so every comparison, here and in
the engine, is one integer comparison.  The weights separate exponents below
``MAX_EXPONENT``, which ``Poly`` enforces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul

from .errors import ExponentOverflow, RingMismatch, ZeroPolynomial

# Engine monomials pack each exponent into a 16-bit field whose high (guard)
# bit must stay clear, so exponents are capped at the field's 15 bits.
_FIELD_BITS = 16
MAX_EXPONENT = 1 << (_FIELD_BITS - 1)


def mono_mul(m1, m2):
    return tuple(a + b for a, b in zip(m1, m2))


def mono_divides(m1, m2):
    """True when m1 divides m2."""
    return all(a <= b for a, b in zip(m1, m2))


def mono_degree(m):
    return sum(m)


def mono_is_squarefree(m):
    return all(e <= 1 for e in m)


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative well-order on monomials.

    ``kind`` is "lex" or "degrevlex"; ``priority`` lists variable names from
    highest to lowest, or is None for the ring's native variable order.
    """

    kind: str
    priority: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("lex", "degrevlex"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.priority is not None:
            object.__setattr__(self, "priority", tuple(self.priority))

    def resolve(self, ring):
        """Priority as a variable-name tuple, validated against the ring."""
        if self.priority is None:
            return ring.variables
        if sorted(self.priority) != sorted(ring.variables):
            raise RingMismatch(
                f"order priority {self.priority} is not a permutation of "
                f"ring variables {ring.variables}"
            )
        return self.priority

    @lru_cache(maxsize=128)
    def weights(self, ring):
        """Integer weight per variable; key(m) = dot(m, weights).  Memoised
        per (order, ring), in a bounded cache so that an order scan's
        thousands of orders cannot grow it."""
        perm = tuple(ring.index[v] for v in self.resolve(ring))
        n = len(perm)
        w = [0] * n
        if self.kind == "lex":
            for r, i in enumerate(perm):
                w[i] = 1 << (_FIELD_BITS * (n - 1 - r))
        else:
            top = 1 << (_FIELD_BITS * (n + 1))
            for r, i in enumerate(perm):
                w[i] = top - (1 << (_FIELD_BITS * r))
        return tuple(w)

    def describe(self, ring):
        return f"{self.kind}:{','.join(self.resolve(ring))}"


@dataclass(frozen=True)
class BlockOrder:
    """Elimination order: ``drop`` block compared Lex first, ties by ``inner``."""

    drop: tuple
    inner: MonomialOrder

    def __post_init__(self):
        object.__setattr__(self, "drop", tuple(self.drop))

    def resolve(self, ring):
        return tuple(self.drop) + tuple(
            v for v in self.inner.resolve(ring) if v not in self.drop
        )

    @lru_cache(maxsize=128)
    def weights(self, ring):
        n = ring.nvars
        w = list(self.inner.weights(ring))
        shift = 1 << (_FIELD_BITS * (n + 4))
        d = len(self.drop)
        for r, v in enumerate(self.drop):
            w[ring.index[v]] += (1 << (_FIELD_BITS * (d - 1 - r))) * shift
        return tuple(w)

    def describe(self, ring):
        return f"block[{','.join(self.drop)}]+{self.inner.describe(ring)}"


def lex(priority=None):
    return MonomialOrder("lex", tuple(priority) if priority is not None else None)


def degrevlex(priority=None):
    return MonomialOrder("degrevlex", tuple(priority) if priority is not None else None)


def sort_key(order, ring):
    """Ascending sort key of ``order`` on exponent tuples of ``ring``."""
    w = order.weights(ring)
    return lambda m: sum(map(mul, m, w))


def compare(order, ring, m1, m2):
    """-1, 0 or 1 as m1 is below, equal to or above m2 under ``order``."""
    if len(m1) != ring.nvars or len(m2) != ring.nvars:
        raise RingMismatch("monomial length does not match ring")
    for m in (m1, m2):
        if any(e < 0 or e >= MAX_EXPONENT for e in m):
            _bad_exponent(m)
    key = sort_key(order, ring)
    a, b = key(m1), key(m2)
    return (a > b) - (a < b)


def _bad_exponent(m):
    if any(e < 0 for e in m):
        raise ValueError(f"negative exponent in {m}")
    raise ExponentOverflow(f"an exponent in {m} exceeds {MAX_EXPONENT - 1}")


# the first thirteen primes: Miller-Rabin with these bases is exact below
# _PRIME_LIMIT (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


@lru_cache(maxsize=None)
def _is_prime(n):
    """Exact primality test for 0 <= n < _PRIME_LIMIT."""
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PolyRing:
    """Polynomial ring over Q (char 0) or GF(p) with named variables.

    The characteristic must be 0 or a prime below 3.3e24, the range where
    primality is decided exactly; anything else raises ValueError.
    """

    __slots__ = ("variables", "char", "index", "nvars")

    def __init__(self, variables, char=0):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        if char != 0 and not (char < _PRIME_LIMIT and _is_prime(char)):
            raise ValueError(
                f"characteristic must be 0 or a prime below 3.3e24, got {char}")
        self.char = char
        self.index = {v: i for i, v in enumerate(self.variables)}
        self.nvars = len(self.variables)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.variables == other.variables
            and self.char == other.char
        )

    def __hash__(self):
        return hash((self.variables, self.char))

    def __repr__(self):
        field = "QQ" if self.char == 0 else f"GF({self.char})"
        return f"PolyRing({field}[{', '.join(self.variables)}])"

    # -- coefficient field -------------------------------------------------

    def coeff(self, c):
        if self.char == 0:
            return Fraction(c)
        return c % self.char

    def coeff_inv(self, c):
        if self.char == 0:
            return 1 / Fraction(c)
        return pow(c, -1, self.char)

    # -- construction ------------------------------------------------------

    @property
    def default_order(self):
        return degrevlex(self.variables)

    def zero(self):
        return Poly(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        c = self.coeff(c)
        if c == 0:
            return self.zero()
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, name):
        if name not in self.index:
            raise RingMismatch(f"unknown variable {name!r}")
        e = [0] * self.nvars
        e[self.index[name]] = 1
        return Poly(self, {tuple(e): self.coeff(1)})

    def monomial(self, exps, coeff=1):
        """Poly from {name: exponent} or a bare exponent tuple."""
        if isinstance(exps, dict):
            e = [0] * self.nvars
            for name, k in exps.items():
                e[self.index[name]] = k
            exps = tuple(e)
        c = self.coeff(coeff)
        if c == 0:
            return self.zero()
        return Poly(self, {tuple(exps): c})

    def extend(self, names):
        return PolyRing(self.variables + tuple(names), self.char)

    def restrict(self, names):
        return PolyRing(tuple(names), self.char)

    def from_string(self, text):
        return _parse_poly(self, text)

    def monomial_text(self, exps):
        """Text of the monomial with exponent tuple ``exps``: 'x^2*y', or '1'."""
        return "*".join(f"{v}^{e}" if e > 1 else v
                        for v, e in zip(self.variables, exps) if e) or "1"


class Poly:
    """Immutable polynomial: exponent-tuple -> nonzero coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        clean = {}
        for m, c in terms.items():
            c = ring.coeff(c)
            if c != 0:
                if any(e < 0 or e >= MAX_EXPONENT for e in m):
                    _bad_exponent(m)
                clean[m] = c
        self.terms = clean

    # -- basic protocol ----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        self._check(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            res[m] = res.get(m, 0) + c
        return Poly(self.ring, res)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                res[m] = res.get(m, 0) + c1 * c2
        return Poly(self.ring, res)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c):
        c = self.ring.coeff(c)
        if c == 0:
            return self.ring.zero()
        return Poly(self.ring, {m: cc * c for m, cc in self.terms.items()})

    # -- structure -----------------------------------------------------------

    def total_degree(self):
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def is_homogeneous(self):
        degs = {mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    def support(self):
        """Indices of variables that occur in some term."""
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    def leading_term(self, order=None):
        """(coefficient, exponent tuple) of the maximal term."""
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        m = max(self.terms, key=sort_key(order or self.ring.default_order, self.ring))
        return self.terms[m], m

    def leading_monomial(self, order=None):
        return self.leading_term(order)[1]

    def monic(self, order=None):
        if not self.terms:
            return self
        lc, _ = self.leading_term(order)
        if lc == 1:
            return self
        inv = self.ring.coeff_inv(lc)
        return Poly(self.ring, {m: c * inv for m, c in self.terms.items()})

    def sorted_terms(self, order=None):
        key = sort_key(order or self.ring.default_order, self.ring)
        return [(self.terms[m], m) for m in sorted(self.terms, key=key, reverse=True)]

    def zero_out(self, names):
        """Image under sending the named variables to zero."""
        idx = {self.ring.index[n] for n in names}
        res = {}
        for m, c in self.terms.items():
            if all(m[i] == 0 for i in idx):
                res[m] = res.get(m, 0) + c
        return Poly(self.ring, res)

    def map_ring(self, other_ring):
        """Reinterpret in ``other_ring``; variables map by name."""
        pos = [other_ring.index.get(v) for v in self.ring.variables]
        res = {}
        for m, c in self.terms.items():
            e = [0] * other_ring.nvars
            for i, k in enumerate(m):
                if k:
                    if pos[i] is None:
                        raise RingMismatch(
                            f"variable {self.ring.variables[i]} has no image"
                        )
                    e[pos[i]] = k
            res[tuple(e)] = res.get(tuple(e), 0) + c
        return Poly(other_ring, res)

    # -- text form -----------------------------------------------------------

    def to_string(self, order=None):
        if not self.terms:
            return "0"
        parts = []
        for c, m in self.sorted_terms(order):
            neg = c < 0
            mag = -c if neg else c
            if not any(m):
                body = str(mag)
            else:
                mono = self.ring.monomial_text(m)
                body = mono if mag == 1 else f"{mag}*{mono}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"Poly({self.to_string()})"


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^|\*\*|[*+/()-]))")


def _parse_poly(ring, text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot parse {text[pos:]!r}")
            break
        pos = m.end()
        if m.group(1):
            tokens.append(("int", int(m.group(1))))
        elif m.group(2):
            tokens.append(("name", m.group(2)))
        else:
            op = "^" if m.group(3) == "**" else m.group(3)
            tokens.append((op, op))
    tokens.append(("end", None))

    it = {"i": 0}

    def peek():
        return tokens[it["i"]]

    def take(kind=None):
        tok = tokens[it["i"]]
        if kind and tok[0] != kind:
            raise ValueError(f"expected {kind}, got {tok}")
        it["i"] += 1
        return tok

    def parse_factor():
        kind, val = peek()
        if kind == "int":
            take()
            if peek()[0] == "/":
                take()
                den = take("int")[1]
                if den == 0:
                    raise ValueError(f"zero denominator in {text!r}")
                return ring.constant(Fraction(val, den))
            return ring.constant(val)
        if kind == "name":
            take()
            exp = 1
            if peek()[0] == "^":
                take()
                exp = take("int")[1]
            return ring.var(val) ** exp
        if kind == "(":
            take()
            p = parse_sum()
            take(")")
            return p
        raise ValueError(f"unexpected token {peek()}")

    def parse_term():
        p = parse_factor()
        while peek()[0] == "*":
            take()
            p = p * parse_factor()
        return p

    def parse_sum():
        sign = 1
        if peek()[0] in ("+", "-"):
            sign = -1 if take()[0] == "-" else 1
        p = parse_term().scale(sign)
        while peek()[0] in ("+", "-"):
            op = take()[0]
            q = parse_term()
            p = p + q.scale(-1 if op == "-" else 1)
        return p

    # only Q has fraction coefficients, so parse_factor never sees GF(p) ones
    if ring.char != 0 and "/" in text:
        raise ValueError("fraction coefficients are not supported over GF(p)")
    result = parse_sum()
    take("end")
    return result


def product(polys, ring=None):
    polys = list(polys)
    if not polys:
        if ring is None:
            raise ValueError("empty product needs a ring")
        return ring.one()
    return reduce(lambda a, b: a * b, polys)
