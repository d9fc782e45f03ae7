import heapq
import itertools
import types

import pytest
from hypothesis import assume, strategies as st

from lattice_lab import groebner
from lattice_lab.fixtures import (
    build_fixture,
    chain,
    diamond_m3,
    divisor_ladder,
    ladder,
    lattice_n,
    lattice_q,
    lattice_r,
    lk,
    pentagon_n5,
)
from lattice_lab.lattice import build_lattice


def product_lattice(a, b):
    """Direct product, elements named 'x.y'."""
    elements = [f"{p}.{q}" for p in a.elements for q in b.elements]
    covers = []
    for p in a.elements:
        for q in b.elements:
            for (lo, hi) in a.covers:
                if lo == p:
                    covers.append((f"{p}.{q}", f"{hi}.{q}"))
            for (lo, hi) in b.covers:
                if lo == q:
                    covers.append((f"{p}.{q}", f"{p}.{hi}"))
    return build_lattice(elements, covers)


def small_corpus():
    """Lattices with at most 12 elements, used by exhaustive invariants."""
    return [
        ("Chain4", chain(4)),
        ("M3", diamond_m3()),
        ("N5", pentagon_n5()),
        ("B2", ladder(2)),
        ("Ladder3", ladder(3)),
        ("Q", lattice_q()),
        ("N", lattice_n()),
        ("R", lattice_r()),
        ("Lk(2,1)", lk(2, 1)),
        ("Lk(3,1)", lk(3, 1)),
    ]


def distributive_corpus():
    return [
        ("Chain5", chain(5)),
        ("B2", ladder(2)),
        ("Ladder3", ladder(3)),
        ("Ladder4", ladder(4)),
        ("DivLadder2", divisor_ladder(2)),
        ("Chain2xChain3", product_lattice(chain(2), chain(3))),
    ]


def radical_fixture_corpus():
    """Lattices whose join-meet ideal is radical (distributive ones, the
    seven-element example with squarefree lex basis, the two-rail family,
    and the ten-element extension verified by its prime decomposition)."""
    return [
        ("Chain4", chain(4)),
        ("B2", ladder(2)),
        ("Ladder3", ladder(3)),
        ("Q", lattice_q()),
        ("Lk(2,1)", lk(2, 1)),
        ("Lk(3,1)", lk(3, 1)),
        ("Lk(3,2)", lk(3, 2)),
        ("R", lattice_r()),
    ]


@st.composite
def closure_lattices(draw, max_elements=12):
    """Lattice of a random closure system: subsets of a small ground set
    closed under intersection, with the ground set as top, by inclusion."""
    ground = draw(st.integers(4, 5))
    full = (1 << ground) - 1
    drawn = draw(st.lists(st.integers(0, full), min_size=3, max_size=8))
    sets = {full, *drawn}
    while True:
        more = {a & b for a in sets for b in sets} - sets
        if not more:
            break
        sets |= more
    assume(4 <= len(sets) <= max_elements)
    names = {m: f"s{m}" for m in sets}
    covers = [(names[a], names[b]) for a in sets for b in sets
              if a != b and a & b == a
              and not any(c not in (a, b) and a & c == a and c & b == c
                          for c in sets)]
    return build_lattice(sorted(names.values()), covers)


def count_engine_runs(monkeypatch):
    """Patch the pair loop and the generic engine to count their runs."""
    calls = {"_buchberger_core": 0, "_generic_buchberger": 0}
    for name in calls:
        original = getattr(groebner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(groebner, name, counted)
    return calls


def count_pairs_installed(monkeypatch):
    """Patch the pair loop to record each run's pairs: per run, a dict of
    the size of the known basis it starts from (``known``) and the (i, j)
    basis indices of every pair it pushes on its heap (``pairs``)."""
    runs = []
    original = groebner._buchberger_core

    def counted(*args, **kwargs):
        runs.append({"known": len(kwargs.get("known", ())), "pairs": []})
        return original(*args, **kwargs)

    def push(heap, item):
        runs[-1]["pairs"].append(item[2:4])
        heapq.heappush(heap, item)

    monkeypatch.setattr(groebner, "_buchberger_core", counted)
    monkeypatch.setattr(groebner, "heapq",
                        types.SimpleNamespace(heappush=push, heappop=heapq.heappop))
    return runs


@pytest.fixture(scope="session")
def lattice_Q():
    return lattice_q()


@pytest.fixture(scope="session")
def lattice_N():
    return lattice_n()


@pytest.fixture(scope="session")
def lattice_R():
    return lattice_r()
