"""Exact linear algebra over any field-like scalar type.

Used for nullspace witnesses, total-derivative preimages and the
mode-oracle's Vandermonde-type solves.  Scalars only need +, -, *, /
and a truth value that means nonzero (int, Fraction, RationalFunction).

Matrices are dense lists of rows, but elimination skips zeros: each pivot
row is scaled at its nonzero columns only, and only the rows with a
nonzero entry in the pivot column are updated, at those columns.  The
derivative systems of the BRST checks are mostly zeros.  Entries that
elimination does not touch keep the scalar they came in as.
"""

from __future__ import annotations


def rref(rows, ncols):
    """Reduced row echelon form.  Returns (new_rows, pivot_column_list).

    ``rows`` is a list of lists of scalars; the input is not modified.
    """
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        # the pivot row is zero left of col: every earlier column is a
        # pivot column cleared in it or a column without a pivot
        nonzero = [j for j in range(col, len(prow)) if prow[j]]
        inv = prow[col]
        for j in nonzero:
            prow[j] = prow[j] / inv
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                for j in nonzero:
                    row[j] = row[j] - f * prow[j]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def solve(matrix, rhs, zero, one):
    """One solution of ``matrix @ x = rhs`` or None if inconsistent.

    ``matrix`` is a list of rows; free variables are set to ``zero``.
    """
    return solve_columns(matrix, [rhs], zero, one)[0]


def solve_columns(matrix, columns, zero, one):
    """``solve`` for each right-hand side in ``columns``, from one row
    reduction of ``[matrix | columns]``: a list with one solution, or
    None, per column."""
    if not matrix:
        return [None if any(rhs) else [] for rhs in columns]
    ncols = len(matrix[0])
    aug = [list(row) + [rhs[i] for rhs in columns]
           for i, row in enumerate(matrix)]
    red, pivots = rref(aug, ncols)
    out = []
    for j, rhs in enumerate(columns):
        # pivots lie in the matrix columns only, so an inconsistent column
        # leaves a row 0 ... 0 | nonzero that the check below catches
        x = [zero] * ncols
        for row, col in zip(red, pivots):
            x[col] = row[ncols + j]
        for row, b in zip(matrix, rhs):
            acc = zero
            for a, xi in zip(row, x):
                if a and xi:
                    acc = acc + a * xi
            if acc - b:
                x = None
                break
        out.append(x)
    return out


def solve_best(matrix, rhs, zero, one):
    """A solution of the consistent part of ``matrix @ x = rhs``.

    Always returns some x (free variables set to zero, inconsistent
    directions ignored); the caller decides what to do with the residual
    ``rhs - matrix @ x``.
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    red, pivots = rref(aug, ncols)
    x = [zero] * ncols
    for row, col in zip(red, pivots):
        x[col] = row[-1]
    return x


def nullspace(matrix, ncols, zero, one):
    """Basis of the right nullspace of ``matrix`` (list of column vectors)."""
    red, pivots = rref(matrix, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for row, pc in zip(red, pivots):
            v[pc] = zero - row[fc]
        basis.append(v)
    return basis


def left_nullspace(matrix, nrows, ncols, zero, one):
    """Basis of row vectors y with y @ matrix = 0."""
    transposed = [[matrix[i][j] for i in range(nrows)] for j in range(ncols)]
    return nullspace(transposed, nrows, zero, one)
