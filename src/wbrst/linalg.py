"""Exact linear algebra over any field-like scalar type.

One row reduction answers every question the package asks of a linear
system: ``rref`` of ``[matrix | columns]`` keeps all its rows, the pivot
rows first.  The pivot rows give one solution per column; the rows below
the rank are zero in the matrix columns, and their entries in the other
columns are a cokernel basis of the matrix applied to those columns.  So
a column is in the image exactly when its entries there are all zero, and
with an identity block appended they are the cokernel basis itself.

Scalars only need +, -, *, / and a truth value that means nonzero
(Fraction, RationalFunction).  The ints 0 and 1 combine exactly with
both, so free variables are 0 and identity blocks are 0 and 1; the
matrix columns themselves hold field scalars, since int / int is a float.

Matrices are dense lists of rows, but elimination skips zeros: each pivot
row is scaled at its nonzero columns only, and only the rows with a
nonzero entry in the pivot column are updated, at those columns.  The
derivative systems of the BRST checks are mostly zeros.  Entries that
elimination does not touch keep the scalar they came in as.
"""

from __future__ import annotations


def rref(rows, ncols):
    """Reduced row echelon form in the first ``ncols`` columns, carried
    across every column.  Returns (new_rows, pivot_column_list): every
    row, the pivot rows first, so the rows from ``len(pivots)`` on are
    zero in the first ``ncols`` columns.

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
    return rows, pivots


def solve_columns(matrix, columns):
    """(x, obstructions) for each right-hand side b in ``columns``, from
    one row reduction of ``[matrix | columns]``.  x solves the consistent
    part of ``matrix @ x = b``, free variables 0; the obstructions are the
    nonzero entries of b's column in the rows below the rank, a cokernel
    basis applied to b.  b is in the image exactly when there are none,
    and then x solves it."""
    ncols = len(matrix[0]) if matrix else 0
    aug = [list(row) + [b[i] for b in columns]
           for i, row in enumerate(matrix)]
    red, pivots = rref(aug, ncols)
    below = red[len(pivots):]
    out = []
    for j in range(ncols, ncols + len(columns)):
        x = [0] * ncols
        for row, col in zip(red, pivots):
            x[col] = row[j]
        out.append((x, [row[j] for row in below if row[j]]))
    return out


def solve(matrix, rhs):
    """One solution of ``matrix @ x = rhs``, free variables 0, or None if
    there is none."""
    (x, obstructions), = solve_columns(matrix, [rhs])
    return None if obstructions else x


def left_nullspace(matrix, nrows, ncols):
    """Basis of the row vectors y with ``y @ matrix = 0``, for a matrix
    of ``nrows`` rows and ``ncols`` columns: the identity part of the rows
    below the rank of ``[matrix | 1]``, nrows minus the rank of them."""
    aug = [list(row) + [int(i == k) for k in range(nrows)]
           for i, row in enumerate(matrix)]
    red, pivots = rref(aug, ncols)
    return [row[ncols:] for row in red[len(pivots):]]
