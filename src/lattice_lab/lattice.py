"""Finite lattices: construction, structural tests, and admissible sets.

Elements are strings; the element list order is preserved and doubles as the
variable order in polynomial contexts.  Internally the order relation is kept
as per-element bitmasks, so joins and meets over desk-scale lattices are
cheap integer operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NoBounds,
    NotALattice,
    NotAPoset,
    NotAdmissible,
    PreconditionViolated,
)


@dataclass(frozen=True)
class SublatticeWitness:
    """Five elements realizing the pentagon or diamond order pattern."""

    kind: str  # "pentagon" | "diamond"
    min_element: str
    max_element: str
    middles: tuple

    @property
    def elements(self):
        return (self.min_element,) + tuple(self.middles) + (self.max_element,)


@dataclass(frozen=True)
class Rank2Interval:
    """Height-two interval whose strict interior is a pairwise diamond."""

    bottom: str
    top: str
    atoms: tuple


@dataclass(frozen=True)
class DistributivityReport:
    distributive: bool
    witness: tuple | None  # failing triple (x, y, z)


@dataclass(frozen=True)
class ModularityReport:
    modular: bool
    witness: SublatticeWitness | None


class Lattice:
    """Finite lattice with cached join/meet tables and structural facts."""

    __slots__ = (
        "elements", "covers", "index", "_up",
        "join_table", "meet_table", "is_graded", "_ranks",
    )

    def __init__(self, elements, covers, _internal=None):
        if _internal is None:
            raise TypeError("use build_lattice()")
        self.elements = tuple(elements)
        self.covers = tuple(covers)
        (self.index, self._up, self.join_table,
         self.meet_table, self.is_graded, self._ranks) = _internal

    # -- order queries -------------------------------------------------------

    def le(self, a, b):
        """a <= b in the lattice order."""
        return bool(self._up[self.index[a]] >> self.index[b] & 1)

    def join(self, a, b):
        return self.elements[self.join_table[self.index[a]][self.index[b]]]

    def meet(self, a, b):
        return self.elements[self.meet_table[self.index[a]][self.index[b]]]

    def rank(self, a):
        if not self.is_graded:
            raise PreconditionViolated("lattice is not graded")
        return self._ranks[self.index[a]]

    @property
    def top_rank(self):
        if not self.is_graded:
            raise PreconditionViolated("lattice is not graded")
        return self.height

    @property
    def height(self):
        """Length of the longest chain, graded or not."""
        return max(self._ranks)

    def incomparable_pairs(self):
        """Unordered incomparable pairs in element-index order."""
        out = []
        n = len(self.elements)
        for i in range(n):
            for j in range(i + 1, n):
                if not (self._up[i] >> j & 1) and not (self._up[j] >> i & 1):
                    out.append((self.elements[i], self.elements[j]))
        return out

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.elements == other.elements
            and set(self.covers) == set(other.covers)
        )

    def __hash__(self):
        return hash((self.elements, frozenset(self.covers)))

    def __repr__(self):
        return f"Lattice({len(self.elements)} elements)"


def _toposort(n, succ):
    indeg = [0] * n
    for i in range(n):
        for j in succ[i]:
            indeg[j] += 1
    queue = [i for i in range(n) if indeg[i] == 0]
    out = []
    while queue:
        i = queue.pop()
        out.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    return out


def _cycle(n, succ, placed):
    """One directed cycle among the nodes a toposort could not place, in
    cover order from its least index: each of them has a predecessor among
    them, so walking to predecessors must repeat a node."""
    left = set(range(n)) - set(placed)
    pred = [[] for _ in range(n)]
    for i in left:
        for j in succ[i]:
            pred[j].append(i)
    walk, node = [], min(left)
    while node not in walk:
        walk.append(node)
        node = min(i for i in pred[node] if i in left)
    cycle = walk[walk.index(node):][::-1]
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def build_lattice(elements, covers):
    """Construct a Lattice from element names and cover (lower, upper) pairs.

    Raises NotAPoset on a cycle, NoBounds when empty, and NotALattice with the
    offending pair when some join or meet fails to exist uniquely.
    """
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise ValueError("duplicate element names")
    if not elements:
        raise NoBounds("empty element list")
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    succ = [[] for _ in range(n)]
    for lo, hi in covers:
        if lo not in index or hi not in index:
            raise ValueError(f"cover ({lo}, {hi}) references unknown element")
        succ[index[lo]].append(index[hi])

    topo = _toposort(n, succ)
    if len(topo) < n:
        raise NotAPoset(elements[i] for i in _cycle(n, succ, topo))

    up = [1 << i for i in range(n)]
    for i in reversed(topo):
        for j in succ[i]:
            up[i] |= up[j]
    down = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(n):
            if up[j] >> i & 1:
                down[i] |= 1 << j

    full = (1 << n) - 1

    def least_of(mask, reach):
        # element of mask below (w.r.t. reach) every element of mask
        for i in range(n):
            if mask >> i & 1 and (reach[i] & mask) == mask:
                return i
        return None

    join_table = [[0] * n for _ in range(n)]
    meet_table = [[0] * n for _ in range(n)]
    for j in range(n):
        for i in range(j + 1):
            ub = up[i] & up[j]
            v = least_of(ub, up)
            if v is None:
                raise NotALattice((elements[i], elements[j]), "join")
            join_table[i][j] = join_table[j][i] = v
            lb = down[i] & down[j]
            w = least_of(lb, down)
            if w is None:
                raise NotALattice((elements[i], elements[j]), "meet")
            meet_table[i][j] = meet_table[j][i] = w

    if least_of(full, up) is None or least_of(full, down) is None:
        raise NoBounds("no unique minimum or maximum")

    # j covers i exactly when the interval [i, j] is {i, j}; longest-path
    # rank from the bottom; graded iff each cover steps by one
    reduction = [(i, j) for i in range(n) for j in range(n)
                 if i != j and up[i] & down[j] == (1 << i) | (1 << j)]
    ranks = [0] * n
    for i in topo:
        for (lo, hi) in reduction:
            if lo == i:
                ranks[hi] = max(ranks[hi], ranks[i] + 1)
    graded = all(ranks[hi] == ranks[lo] + 1 for lo, hi in reduction)

    cover_names = tuple(
        (elements[lo], elements[hi])
        for lo, hi in sorted(reduction)
    )
    return Lattice(
        elements,
        cover_names,
        _internal=(index, up, join_table, meet_table, graded,
                   tuple(ranks)),
    )


def is_distributive(lattice):
    """Check x∧(y∨z) == (x∧y)∨(x∧z) over all triples."""
    els = lattice.elements
    jt, mt = lattice.join_table, lattice.meet_table
    n = len(els)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mt[x][jt[y][z]] != jt[mt[x][y]][mt[x][z]]:
                    return DistributivityReport(False, (els[x], els[y], els[z]))
    return DistributivityReport(True, None)


def is_modular(lattice):
    """Check x<=z implies x∨(y∧z) == (x∨y)∧z; pentagon witness on failure.

    For x <= z, a = x∨(y∧z) <= b = (x∨y)∧z always holds, and y meets both
    in y∧z and joins both to x∨y; so the first triple with a != b gives the
    pentagon y∧z < a < b < x∨y with y beside the chain (Dedekind).
    """
    els = lattice.elements
    jt, mt = lattice.join_table, lattice.meet_table
    up = lattice._up
    n = len(els)
    for x in range(n):
        for z in range(n):
            if not (up[x] >> z & 1):
                continue
            for y in range(n):
                a, b = jt[x][mt[y][z]], mt[jt[x][y]][z]
                if a != b:
                    return ModularityReport(False, SublatticeWitness(
                        "pentagon", els[mt[y][z]], els[jt[x][y]],
                        (els[a], els[b], els[y])))
    return ModularityReport(True, None)


def find_rank2_diamond(lattice):
    """First height-two interval with at least three pairwise-diamond atoms.

    Requires a graded, modular, non-distributive lattice.
    """
    if not lattice.is_graded:
        raise PreconditionViolated("lattice is not graded")
    if is_distributive(lattice).distributive:
        raise PreconditionViolated("lattice is distributive")
    if not is_modular(lattice).modular:
        raise PreconditionViolated("lattice is not modular")
    els = lattice.elements
    n = len(els)
    up = lattice._up
    jt, mt = lattice.join_table, lattice.meet_table
    for bi in range(n):
        for ti in range(n):
            if ti == bi or not (up[bi] >> ti & 1):
                continue
            if lattice._ranks[ti] - lattice._ranks[bi] != 2:
                continue
            atoms = [
                m for m in range(n)
                if m != bi and m != ti and (up[bi] >> m & 1) and (up[m] >> ti & 1)
            ]
            if len(atoms) < 3:
                continue
            if all(
                jt[x][y] == ti and mt[x][y] == bi
                for i, x in enumerate(atoms) for y in atoms[i + 1:]
            ):
                return Rank2Interval(els[bi], els[ti],
                                     tuple(els[m] for m in atoms))
    raise PreconditionViolated("no height-two diamond interval found")


def basic_binomial_pairs(lattice):
    """((a, b), (meet, join)) for every incomparable pair, in index order."""
    out = []
    for a, b in lattice.incomparable_pairs():
        out.append(((a, b), (lattice.meet(a, b), lattice.join(a, b))))
    return out


def is_admissible(lattice, members):
    """Cover-both-or-none check; returns the offending pair or None."""
    mset = set(members)
    for (a, b), (c, d) in basic_binomial_pairs(lattice):
        hits_ab = a in mset or b in mset
        hits_cd = c in mset or d in mset
        if hits_ab != hits_cd:
            return (a, b)
    return None


def enumerate_admissible_sets(lattice):
    """All admissible subsets, ordered by (size, element-index sequence),
    each as the tuple of its element names.  A set is admissible when it
    covers both monomials of every basic binomial, or neither.

    Elements are placed in rank order (longest chain from the bottom, then
    index), in or out, and each basic binomial's rule (a set hits {a, b}
    exactly when it hits {c, d}) is checked as soon as its join d is
    placed: the meet c and the pair a, b lie below d, so they are placed
    before it, and a partial set that breaks a rule is never extended.
    Each set is held as a mask whose bit n-1-i stands for element i, so
    for sets of one size a larger mask has the smaller index sequence, and
    the leaves sort by the integer key (size, -mask).
    """
    els = lattice.elements
    n = len(els)
    index = lattice.index
    bit = [1 << (n - 1 - i) for i in range(n)]
    ranks = lattice._ranks
    placed = sorted(range(n), key=lambda i: (ranks[i], i))
    position = {i: p for p, i in enumerate(placed)}
    rules = [[] for _ in range(n)]  # by the position of the rule's join
    for (a, b), (c, d) in basic_binomial_pairs(lattice):
        rules[position[index[d]]].append(
            (bit[index[a]] | bit[index[b]], bit[index[c]] | bit[index[d]]))
    found = []
    stack = [(0, 0)]
    while stack:
        p, mask = stack.pop()
        if p == n:
            found.append(mask)
            continue
        for m in (mask, mask | bit[placed[p]]):
            for mab, mcd in rules[p]:
                if (not m & mab) != (not m & mcd):
                    break
            else:
                stack.append((p + 1, m))
    found.sort(key=lambda m: (m.bit_count(), -m))
    return [tuple(els[i] for i in range(n) if m & bit[i]) for m in found]


def restrict_to_complement(lattice, admissible):
    """Induced sublattice on the complement of an admissible set."""
    members = tuple(admissible)
    bad = is_admissible(lattice, members)
    if bad is not None:
        raise NotAdmissible(members, bad)
    keep = [e for e in lattice.elements if e not in set(members)]
    if keep == list(lattice.elements):
        return lattice
    # the induced order; build_lattice reduces it to its covers
    index, up = lattice.index, lattice._up
    order = [(a, b) for a in keep for b in keep
             if a != b and up[index[a]] >> index[b] & 1]
    sub = build_lattice(keep, order)
    # admissibility guarantees closure under the ambient join and meet
    for a, b in sub.incomparable_pairs():
        assert sub.join(a, b) == lattice.join(a, b)
        assert sub.meet(a, b) == lattice.meet(a, b)
    return sub


def join_irreducibles(lattice):
    """Non-minimum elements covering exactly one element."""
    counts = {e: 0 for e in lattice.elements}
    for lo, hi in lattice.covers:
        counts[hi] += 1
    return tuple(e for e in lattice.elements if counts[e] == 1)


def dual(lattice):
    """Order-reversed lattice on the same element list."""
    return build_lattice(lattice.elements, [(b, a) for a, b in lattice.covers])
