"""Exact linear algebra: zero-skipping elimination against a dense reference."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wbrst.linalg import left_nullspace, nullspace, rref, solve, solve_best
from wbrst.scalars import RF_ONE, RF_ZERO, RationalFunction, rf

C = RationalFunction.var("c")
G1 = RationalFunction.var("g1")


# -- the dense reference: every entry of every row, every time -------------


def dense_rref(rows, ncols):
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


def dense_solve(matrix, rhs, zero):
    if not matrix:
        return None if any(rhs) else []
    ncols = len(matrix[0])
    red, pivots = dense_rref([row + [b] for row, b in zip(matrix, rhs)],
                             ncols)
    x = [zero] * ncols
    for row, col in zip(red, pivots):
        x[col] = row[ncols]
    for row, b in zip(matrix, rhs):
        acc = zero
        for a, xi in zip(row, x):
            acc = acc + a * xi
        if acc - b:
            return None
    return x


def dense_solve_best(matrix, rhs, zero):
    if not matrix:
        return []
    ncols = len(matrix[0])
    red, pivots = dense_rref([row + [b] for row, b in zip(matrix, rhs)],
                             ncols)
    x = [zero] * ncols
    for row, col in zip(red, pivots):
        x[col] = row[-1]
    return x


def dense_nullspace(matrix, ncols, zero, one):
    red, pivots = dense_rref(matrix, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[fc] = one
        for row, pc in zip(red, pivots):
            v[pc] = zero - row[fc]
        basis.append(v)
    return basis


def _same(got, want):
    """Equal, entry by entry, with the same scalar type at each entry."""
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    if want is None:
        return got is None
    return type(got) is type(want) and got == want and str(got) == str(want)


# -- sparse matrices with zero rows, zero columns and unit entries ----------

_FRACTIONS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3),
              Fraction(5, 2)]
_FUNCTIONS = [RF_ONE, rf(-1), rf(Fraction(3, 4)), C, C + RF_ONE,
              RF_ONE / (C - rf(2)), C * G1 - rf(2), G1 / C]


@st.composite
def _systems(draw, nonzero, zero):
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(zero), st.just(zero), st.just(zero),
                      st.sampled_from(nonzero))
    matrix = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                           min_size=nrows, max_size=nrows))
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        matrix[i] = [zero] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in matrix:
            row[j] = zero
    rhs = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        # consistent: the image of a drawn vector
        x = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        rhs = []
        for row in matrix:
            acc = zero
            for a, xi in zip(row, x):
                acc = acc + a * xi
            rhs.append(acc)
    return matrix, rhs


def _check_against_dense(matrix, rhs, zero, one):
    ncols = len(matrix[0])
    before = [list(row) for row in matrix]
    assert _same(list(rref(matrix, ncols)), list(dense_rref(matrix, ncols)))
    aug = [row + [b] for row, b in zip(matrix, rhs)]
    assert _same(list(rref(aug, ncols)), list(dense_rref(aug, ncols)))
    assert _same(solve(matrix, rhs, zero, one),
                 dense_solve(matrix, rhs, zero))
    assert _same(solve_best(matrix, rhs, zero, one),
                 dense_solve_best(matrix, rhs, zero))
    assert _same(nullspace(matrix, ncols, zero, one),
                 dense_nullspace(matrix, ncols, zero, one))
    transposed = [list(col) for col in zip(*matrix)]
    assert _same(left_nullspace(matrix, len(matrix), ncols, zero, one),
                 dense_nullspace(transposed, len(matrix), zero, one))
    assert matrix == before  # the input is not modified


@settings(max_examples=150, deadline=None)
@given(_systems(_FRACTIONS, Fraction(0)))
def test_fraction_elimination_matches_dense(system):
    _check_against_dense(*system, Fraction(0), Fraction(1))


@settings(max_examples=80, deadline=None)
@given(_systems(_FUNCTIONS, RF_ZERO))
def test_rational_function_elimination_matches_dense(system):
    _check_against_dense(*system, RF_ZERO, RF_ONE)


def test_zero_matrix_and_inconsistent_column():
    z = Fraction(0)
    assert rref([[z, z], [z, z]], 2) == ([], [])
    # 0 x = 1 has no solution; solve_best ignores the inconsistent row
    assert solve([[z, z]], [Fraction(1)], z, Fraction(1)) is None
    assert solve_best([[z, z]], [Fraction(1)], z, Fraction(1)) == [z, z]
    assert nullspace([[z, z]], 2, z, Fraction(1)) == [[1, 0], [0, 1]]
