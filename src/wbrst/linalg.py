"""Exact dense linear algebra over any field-like scalar type.

Used for nullspace witnesses, total-derivative preimages and the
mode-oracle's Vandermonde-type solves.  Scalars only need +, -, *, /
and a truth value that means nonzero (int, Fraction, RationalFunction).
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
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def solve(matrix, rhs, zero, one):
    """One solution of ``matrix @ x = rhs`` or None if inconsistent.

    ``matrix`` is a list of rows; free variables are set to ``zero``.
    """
    if not matrix:
        return None if any(rhs) else []
    ncols = len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    red, pivots = rref(aug, ncols)
    # inconsistency: a pivot in the augmented column shows up as a row
    # 0 ... 0 | nonzero surviving below the pivot rows
    used = [list(r) for r in red]
    x = [zero] * ncols
    for row, col in zip(used, pivots):
        x[col] = row[-1]
    # verify (also catches inconsistent systems)
    for row, b in zip(matrix, rhs):
        acc = zero
        for a, xi in zip(row, x):
            acc = acc + a * xi
        if acc - b:
            return None
    return x


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
