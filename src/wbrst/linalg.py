"""Exact linear algebra over any field-like scalar type.

One construction answers every linear question the package asks: the
normal form of a vector modulo a row space, the vector less the
combination of the ``rref`` rows that clears each pivot column.  The
reduced echelon form of a row space is unique, so the normal form does
not depend on which rows were pivots, and it is zero exactly when the
vector lies in the row space.  Rows that carry a unit block past the
reduced columns record which input rows they combine, and minus the
normal form's unit block combines the input rows into the vector less
its normal form.

Rows and vectors are sparse dicts {column: nonzero scalar}, as in
``tensors.Mat``.  Elimination updates only the rows that hold the pivot
column, at the pivot row's columns, and drops the entries that cancel;
the entries it does not touch keep the scalar they came in as.  Scalars
only need +, -, *, / and a truth value that means nonzero (Fraction,
RationalFunction); the int 1 of a unit block combines exactly with both,
but int / int is a float, so matrix entries are field scalars.
"""

from __future__ import annotations

from .scalars import _add_into


def rref(rows, ncols):
    """Reduced row echelon form in the columns 0 .. ``ncols`` - 1, carried
    across every column: (pivot_rows, pivot_columns), row k 1 at
    pivot_columns[k] and 0 at every other pivot column.  The pivot of a
    column is the first row at or below the rank that holds it; the rows
    left below the rank are dropped, and the input is not modified."""
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
    return rows[:r], pivots


def normal_form(rows, pivots, vector):
    """``vector`` less the combination of ``rows`` that clears each of the
    ``pivots`` columns, for (rows, pivots) from ``rref``: one pass, as
    each pivot row is 0 at every other pivot.  ``vector`` is not modified."""
    out = dict(vector)
    for row, col in zip(rows, pivots):
        f = out.get(col)
        if f:
            f = -f
            for j, v in row.items():
                _add_into(out, j, f * v)
    return out
