import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from lattice_lab.snf import det, echelon_basis, smith_normal_form


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def test_identity():
    assert smith_normal_form([[1, 0], [0, 1]]).invariant_factors == (1, 1)
    # no rows: the form of a component with no two-term element
    empty = smith_normal_form([])
    assert empty.saturated and empty.nonzero_factors == ()


def test_diag_2_3_normalizes_to_1_6():
    assert smith_normal_form([[2, 0], [0, 3]]).invariant_factors == (1, 6)


def test_component_exponent_rows_saturated():
    # exponent rows of (ae-bc, ag-cf, bg-ef, d-f) over a..g
    rows = [
        [1, -1, -1, 0, 1, 0, 0],
        [1, 0, -1, 0, 0, -1, 1],
        [0, 1, 0, 0, -1, -1, 1],
        [0, 0, 0, 1, 0, -1, 0],
    ]
    form = smith_normal_form(rows)
    assert form.saturated
    assert all(d == 1 for d in form.nonzero_factors)


def test_unsaturated_row_lattice():
    assert not smith_normal_form([[2, -2]]).saturated
    assert smith_normal_form([[1, -1]]).saturated


def test_saturation_agrees_with_small_multiple_bruteforce():
    """Torsion-freeness cross-check: v in span_Q and 2v, 3v in the lattice
    while v is not, happens exactly when some invariant factor exceeds 1."""
    rng = random.Random(99)
    for _ in range(60):
        rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
        form = smith_normal_form(rows)
        torsion = any(d not in (0, 1) for d in form.invariant_factors)
        # brute force: search small vectors v with k*v in lattice, v not
        found = False
        for v in _small_vectors(4, 2):
            if _in_lattice(v, form):
                continue
            for k in (2, 3, 4, 5, 6):
                if _in_lattice([k * x for x in v], form):
                    found = True
                    break
            if found:
                break
        if found:
            assert torsion
        if not torsion:
            assert not found


def _small_vectors(n, bound):
    if n == 0:
        yield ()
        return
    for rest in _small_vectors(n - 1, bound):
        for x in range(-bound, bound + 1):
            yield (x,) + rest


def _in_lattice(v, form):
    """Exact membership of v in the integer row span of the matrix whose
    Smith form (with its transforms) is ``form``."""
    # solve y * diag = v * V  =>  check divisibility coordinate-wise
    vv = [sum(v[i] * form.V[i][j] for i in range(len(v)))
          for j in range(len(v))]
    diag = form.invariant_factors
    for j, val in enumerate(vv):
        d = diag[j] if j < len(diag) else 0
        if d == 0:
            if val != 0:
                return False
        elif val % d:
            return False
    return True


def test_200_random_matrices():
    rng = random.Random(20240202)
    for _ in range(200):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        M = [[rng.randint(-12, 12) for _ in range(c)] for _ in range(r)]
        form = smith_normal_form(M)
        P = _matmul(_matmul([list(x) for x in form.U], M),
                    [list(x) for x in form.V])
        for i in range(r):
            for j in range(c):
                assert P[i][j] == (form.invariant_factors[i] if i == j and
                                   i < min(r, c) else 0)
        nonzero = form.nonzero_factors
        assert all(x > 0 for x in nonzero)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert abs(det([list(x) for x in form.U])) == 1
        assert abs(det([list(x) for x in form.V])) == 1


def _snf_contains(rows, v):
    """v lies in the row lattice of ``rows`` exactly when appending it keeps
    the rank and the product of the nonzero invariant factors."""
    def rank_and_volume(m):
        factors = smith_normal_form(m).nonzero_factors if m else ()
        return len(factors), math.prod(factors)
    return rank_and_volume(rows) == rank_and_volume(rows + [list(v)])


@st.composite
def _rows_and_vector(draw):
    cols = draw(st.integers(1, 6))
    entry = st.integers(-4, 4)
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         max_size=5))
    rows += [[0] * cols] * draw(st.integers(0, 2))
    coeffs = [draw(st.integers(-3, 3)) for _ in rows]
    comb = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(cols)]
    content = math.gcd(*comb) or 1
    v = draw(st.sampled_from([
        comb,  # in the lattice
        [x // content for x in comb],  # in the rational span, maybe not in
        draw(st.lists(entry, min_size=cols, max_size=cols)),  # anywhere
    ]))
    return draw(st.permutations(rows)), v


@given(_rows_and_vector())
@settings(max_examples=300, deadline=None)
def test_echelon_membership_matches_snf(case):
    rows, v = case
    basis = echelon_basis(rows)
    assert basis.contains(v) == _snf_contains(rows, v)
    assert all(basis.contains(r) for r in rows)
    assert list(basis.pivots) == sorted(set(basis.pivots))
    for row, p in zip(basis.rows, basis.pivots):
        assert row[p] > 0 and not any(row[:p])
        assert _snf_contains(rows, row)
    rank = len(smith_normal_form(rows).nonzero_factors) if rows else 0
    assert len(basis.rows) == rank


@pytest.mark.parametrize("rows,v,inside", [
    ([[0, 0], [0, 0]], [0, 0], True),  # zero rows only
    ([[0, 0], [0, 0]], [1, 0], False),
    ([[-3, 1]], [3, -1], True),  # negative pivot
    ([[-3, 1]], [-6, 2], True),
    ([[-3, 1], [0, 0]], [1, 0], False),
    ([[2, -2]], [1, -1], False),  # in the rational span only
    ([[2, 0], [1, 1]], [1, -1], True),
    ([[1, 0, 0]], [0, 1, 0], False),  # outside the rational span
])
def test_echelon_membership_cases(rows, v, inside):
    assert echelon_basis(rows).contains(v) is inside
    assert _snf_contains(rows, v) is inside
