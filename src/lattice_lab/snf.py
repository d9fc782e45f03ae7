"""Smith normal form over the integers with recorded unimodular transforms."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SmithForm:
    """U * matrix * V == diag(invariant_factors), U and V unimodular."""

    invariant_factors: tuple
    U: tuple
    V: tuple

    @property
    def nonzero_factors(self):
        return tuple(d for d in self.invariant_factors if d != 0)

    @property
    def saturated(self):
        """True when the row lattice is saturated in Z^cols: the quotient is
        torsion-free, so every nonzero invariant factor equals one."""
        return all(d == 1 for d in self.nonzero_factors)


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix):
    """Diagonalize an integer matrix with row/column operations.

    Returns a SmithForm whose invariant factors satisfy d1 | d2 | ... and are
    non-negative, with the recorded transforms exact:
    U*m*V == diag(invariant_factors).
    """
    A = [list(map(int, row)) for row in matrix]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U = _identity(rows)
    V = _identity(cols)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        Arow, Asrc = A[dst], A[src]
        for k in range(cols):
            Arow[k] += c * Asrc[k]
        Ur, Us = U[dst], U[src]
        for k in range(rows):
            Ur[k] += c * Us[k]

    def add_col(src, dst, c):
        for r in A:
            r[dst] += c * r[src]
        for r in V:
            r[dst] += c * r[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # locate a nonzero pivot of minimal absolute value in the remaining block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = A[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear the pivot column
            dirty = False
            for i in range(t + 1, rows):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    add_row(t, i, -q)
                    if A[i][t]:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    add_col(t, j, -q)
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility: pivot must divide the remaining block
    # (fold an offending row in and restart the clearing loop)
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if A[i][j] % A[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if A[t][t] < 0:
            negate_row(t)
        t += 1

    diag = [A[i][i] if i < cols else 0 for i in range(min(rows, cols))]
    return SmithForm(
        invariant_factors=tuple(diag),
        U=tuple(tuple(r) for r in U),
        V=tuple(tuple(r) for r in V),
    )


@dataclass(frozen=True)
class EchelonBasis:
    """Row-echelon basis of an integer row lattice.

    ``pivots[i]`` is the column of the first nonzero entry of ``rows[i]``;
    that entry is positive and the pivot columns strictly increase.
    """

    rows: tuple
    pivots: tuple

    def contains(self, vector):
        """True when ``vector`` is an integer combination of the rows."""
        v = list(vector)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                q, r = divmod(c, row[p])
                if r:
                    return False
                for k in range(p, len(v)):
                    v[k] -= q * row[k]
        return not any(v)


def echelon_basis(matrix):
    """Integer row-echelon (Hermite) reduction of the rows of ``matrix``.

    Only unimodular row operations are used (Euclid on each column, then a
    sign flip), so the returned rows span the same lattice in Z^cols; zero
    rows are dropped.
    """
    rows = [list(map(int, r)) for r in matrix if any(r)]
    cols = len(rows[0]) if rows else 0
    basis, pivots = [], []
    for col in range(cols):
        # every row left in ``rows`` is zero in the columns before ``col``
        live = [r for r in rows if r[col]]
        if not live:
            continue
        while len(live) > 1:
            p = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not p:
                    q = r[col] // p[col]
                    for k in range(col, cols):
                        r[k] -= q * p[k]
            live = [p] + [r for r in live if r is not p and r[col]]
        (p,) = live
        if p[col] < 0:
            p[:] = [-x for x in p]
        basis.append(tuple(p))
        pivots.append(col)
        rows = [r for r in rows if r is not p and any(r)]
    return EchelonBasis(tuple(basis), tuple(pivots))


def is_saturated(matrix):
    """True when the row lattice is saturated in Z^cols (SmithForm.saturated)."""
    return smith_normal_form(matrix).saturated


def det(matrix):
    """Integer determinant by fraction-free (Bareiss) elimination."""
    A = [list(map(int, row)) for row in matrix]
    n = len(A)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]
