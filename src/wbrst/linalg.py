"""Exact linear algebra over any field-like scalar type.

One row reduction answers every question the package asks of a linear
system: ``rref`` of ``[matrix | columns]`` keeps all its rows, the pivot
rows first.  The pivot rows give one solution per column; the rows below
the rank are zero in the matrix columns, and their entries in the other
columns are a cokernel basis of the matrix applied to those columns, one
row per basis vector.  So a column is in the image exactly when its
entries there are all zero, and those of the unit columns are the basis.

A row is a sparse dict {column: nonzero scalar}, as in ``tensors.Mat``;
a right-hand side is a column {row: nonzero scalar}, and a solution
{column: nonzero scalar}, its free variables 0 and absent.  Elimination
updates only the rows that hold the pivot column, at the pivot row's
columns, and drops the entries that cancel; the entries it does not
touch keep the scalar they came in as.

Scalars only need +, -, *, / and a truth value that means nonzero
(Fraction, RationalFunction).  The int 1 of an identity block combines
exactly with both, but int / int is a float, so matrix entries are field
scalars.
"""

from __future__ import annotations

from .scalars import _add_into


def rref(rows, ncols):
    """Reduced row echelon form in the columns 0 .. ``ncols`` - 1, carried
    across every column.  Returns (new_rows, pivot_column_list): every
    row, the pivot rows first, so the rows from ``len(pivots)`` on have no
    entry in the first ``ncols`` columns.  The pivot of a column is the
    first row at or below the current rank that holds it.

    ``rows`` is a list of sparse rows; the input is not modified.
    """
    rows = [dict(r) for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if col in rows[i]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        inv = prow[col]
        for j, v in prow.items():
            prow[j] = v / inv
        for i, row in enumerate(rows):
            if i != r and col in row:
                f = -row[col]
                for j, v in prow.items():
                    _add_into(row, j, f * v)
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def solve_columns(matrix, columns):
    """(x, obstructions) for each right-hand side b in ``columns``, from
    one row reduction of ``[matrix | columns]``.  x solves the consistent
    part of ``matrix @ x = b``, free variables 0; the obstructions are the
    nonzero {k: y_k @ b}, y_k the cokernel basis of the k-th row below the
    rank, one basis for every column.  b is in the image exactly when
    there are none, and then x solves it."""
    ncols = 1 + max((max(row) for row in matrix if row), default=-1)
    aug = [dict(row) for row in matrix]
    for k, b in enumerate(columns):
        for i, v in b.items():
            aug[i][ncols + k] = v
    red, pivots = rref(aug, ncols)
    below = red[len(pivots):]
    out = []
    for j in range(ncols, ncols + len(columns)):
        x = {col: row[j] for row, col in zip(red, pivots) if j in row}
        out.append((x, {k: row[j] for k, row in enumerate(below) if j in row}))
    return out


def solve(matrix, rhs):
    """One solution of ``matrix @ x = rhs``, free variables 0, or None if
    there is none."""
    (x, obstructions), = solve_columns(matrix, [rhs])
    return None if obstructions else x
