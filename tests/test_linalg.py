"""Exact linear algebra: zero-skipping elimination against a dense
reference, and the answers read from one reduction against independent
checks."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wbrst.linalg import left_nullspace, rref, solve, solve_columns
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
    return rows, pivots


def dense_solve(matrix, rhs):
    """x from the pivot rows of dense [matrix | rhs], free variables 0,
    and the nonzero entries of its rows below the rank in the rhs column."""
    ncols = len(matrix[0])
    red, pivots = dense_rref([row + [b] for row, b in zip(matrix, rhs)],
                             ncols)
    x = [0] * ncols
    for row, col in zip(red, pivots):
        x[col] = row[ncols]
    return x, [row[ncols] for row in red[len(pivots):] if row[ncols]]


def dense_left_nullspace(matrix, ncols):
    """The identity part of the rows below the rank of dense [matrix | 1]."""
    n = len(matrix)
    red, pivots = dense_rref([row + [int(i == k) for k in range(n)]
                              for i, row in enumerate(matrix)], ncols)
    return [row[ncols:] for row in red[len(pivots):]]


def _times(matrix, x, zero):
    out = []
    for row in matrix:
        acc = zero
        for a, xi in zip(row, x):
            acc = acc + a * xi
        out.append(acc)
    return out


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
        rhs = _times(matrix, x, zero)
    return matrix, rhs


def _check_against_dense(matrix, rhs, zero):
    ncols = len(matrix[0])
    before = [list(row) for row in matrix]
    red, pivots = rref(matrix, ncols)
    assert _same([red, pivots], list(dense_rref(matrix, ncols)))
    assert all(not a for row in red[len(pivots):] for a in row)
    aug = [row + [b] for row, b in zip(matrix, rhs)]
    assert _same(list(rref(aug, ncols)), list(dense_rref(aug, ncols)))

    # the image of a column of the matrix is always consistent
    first = [row[0] for row in matrix]
    got = solve_columns(matrix, [rhs, first])
    want = [dense_solve(matrix, rhs), dense_solve(matrix, first)]
    assert _same([x for x, _ in got], [x for x, _ in want])
    assert [o for _, o in got] == [o for _, o in want]
    assert not got[1][1]
    # no obstructions exactly when x solves the system: the check that
    # solve_columns leaves out, made here independently
    for (x, obstructions), b in zip(got, (rhs, first)):
        assert (not obstructions) == (_times(matrix, x, zero) == b)
    x, obstructions = got[0]
    assert solve(matrix, rhs) == (None if obstructions else x)

    # a left nullspace basis: y @ matrix = 0 for each of nrows - rank
    # independent rows
    ys = left_nullspace(matrix, len(matrix), ncols)
    assert ys == dense_left_nullspace(matrix, ncols)
    assert len(ys) == len(matrix) - len(pivots)
    for y in ys:
        assert not any(_times([list(col) for col in zip(*matrix)], y, zero))
    # the untouched identity entries are ints, and int / int is a float
    exact = [[zero + a for a in y] for y in ys]
    assert len(dense_rref(exact, len(matrix))[1]) == len(ys)
    assert matrix == before  # the input is not modified


@settings(max_examples=150, deadline=None)
@given(_systems(_FRACTIONS, Fraction(0)))
def test_fraction_elimination_matches_dense(system):
    _check_against_dense(*system, Fraction(0))


@settings(max_examples=80, deadline=None)
@given(_systems(_FUNCTIONS, RF_ZERO))
def test_rational_function_elimination_matches_dense(system):
    _check_against_dense(*system, RF_ZERO)


def test_zero_matrix_and_inconsistent_column():
    z = Fraction(0)
    assert rref([[z, z], [z, z]], 2) == ([[z, z], [z, z]], [])
    # 0 x = 1 has no solution: its obstruction is the 1 itself, and x
    # keeps the free variables at 0
    assert solve_columns([[z, z]], [[Fraction(1)]]) == [([0, 0], [1])]
    assert solve([[z, z]], [Fraction(1)]) is None
    # every row vector annihilates the zero matrix
    assert left_nullspace([[z, z], [z, z]], 2, 2) == [[1, 0], [0, 1]]
    assert left_nullspace([[], []], 2, 0) == [[1, 0], [0, 1]]
    assert left_nullspace([], 0, 3) == []
