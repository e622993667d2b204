"""Exact linear algebra: sparse-row elimination against a dense
reference, and the answers read from one reduction against independent
checks."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wbrst.linalg import rref, solve, solve_columns
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


def dense_solve(matrix, ncols, rhs):
    """x from the pivot rows of dense [matrix | rhs], free variables 0,
    and the nonzero entries of its rows below the rank in the rhs column,
    keyed by their row below the rank."""
    red, pivots = dense_rref([row + [b] for row, b in zip(matrix, rhs)],
                             ncols)
    x = [0] * ncols
    for row, col in zip(red, pivots):
        x[col] = row[ncols]
    return x, {k: row[ncols] for k, row in enumerate(red[len(pivots):])
               if row[ncols]}


def dense_left_nullspace(matrix, ncols):
    """The identity part of the rows below the rank of dense [matrix | 1]."""
    n = len(matrix)
    red, pivots = dense_rref([row + [int(i == k) for k in range(n)]
                              for i, row in enumerate(matrix)], ncols)
    return [row[ncols:] for row in red[len(pivots):]]


def sparse(row):
    """The nonzero entries of a dense row, {column: value}."""
    return {j: v for j, v in enumerate(row) if v}


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
    if isinstance(want, (list, tuple)):
        return (isinstance(got, type(want)) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same(got[k], w) for k, w in want.items()))
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
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.just(zero), st.just(zero), st.just(zero),
                      st.sampled_from(nonzero))
    matrix = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                           min_size=nrows, max_size=nrows))
    if nrows:
        for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
            matrix[i] = [zero] * ncols
    if ncols:
        for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
            for row in matrix:
                row[j] = zero
    rhs = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        # consistent: the image of a drawn vector
        x = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        rhs = _times(matrix, x, zero)
    return matrix, ncols, rhs


def _check_against_dense(matrix, ncols, rhs, zero):
    rows = [sparse(row) for row in matrix]
    before = [dict(row) for row in rows]

    # every row, pivot rows first and the rows below the rank after them,
    # as the dense reduction leaves it, without its zeros
    red, pivots = rref(rows, ncols)
    want_red, want_pivots = dense_rref(matrix, ncols)
    assert pivots == want_pivots
    assert _same(red, [sparse(row) for row in want_red])
    assert not any(j < ncols for row in red[len(pivots):] for j in row)
    aug = [row + [b] for row, b in zip(matrix, rhs)]
    red, pivots = rref([sparse(row) for row in aug], ncols)
    want_red, want_pivots = dense_rref(aug, ncols)
    assert pivots == want_pivots
    assert _same(red, [sparse(row) for row in want_red])

    # the image of a column of the matrix is always consistent
    first = [row[0] if ncols else zero for row in matrix]
    got = solve_columns(rows, [sparse(rhs), sparse(first)])
    want = [dense_solve(matrix, ncols, rhs),
            dense_solve(matrix, ncols, first)]
    assert _same(got, [(sparse(x), o) for x, o in want])
    assert not got[1][1]
    # no obstructions exactly when x solves the system: the check that
    # solve_columns leaves out, made here independently
    for (x, obstructions), b in zip(got, (rhs, first)):
        dense_x = [x.get(j, 0) for j in range(ncols)]
        assert (not obstructions) == (_times(matrix, dense_x, zero) == b)
    x, obstructions = got[0]
    assert solve(rows, sparse(rhs)) == (None if obstructions else x)

    # a left nullspace basis: y @ matrix = 0 for each of nrows - rank
    # independent rows, y_k read from the obstructions in row k of the
    # unit columns
    ys = {}
    for i, (_, obstructions) in enumerate(solve_columns(
            rows, [{i: 1} for i in range(len(rows))])):
        for k, w in obstructions.items():
            ys.setdefault(k, {})[i] = w
    ys = [ys[k] for k in range(len(rows) - len(pivots))]
    # equal values: the dense reference turns every identity entry it
    # updates into a field scalar, the sparse one only those it changes
    assert ys == [sparse(y) for y in dense_left_nullspace(matrix, ncols)]
    assert len(ys) == len(rows) - len(pivots)
    for y in ys:
        assert all(not sum((y.get(i, 0) * row[j]
                            for i, row in enumerate(matrix)), zero)
                   for j in range(ncols))
    # the untouched identity entries are ints, and int / int is a float
    exact = [[zero + y.get(i, 0) for i in range(len(rows))] for y in ys]
    assert len(dense_rref(exact, len(rows))[1]) == len(ys)
    assert rows == before  # the input is not modified


@settings(max_examples=150, deadline=None)
@given(_systems(_FRACTIONS, Fraction(0)))
def test_fraction_elimination_matches_dense(system):
    _check_against_dense(*system, Fraction(0))


@settings(max_examples=80, deadline=None)
@given(_systems(_FUNCTIONS, RF_ZERO))
def test_rational_function_elimination_matches_dense(system):
    _check_against_dense(*system, RF_ZERO)


def test_zero_matrix_and_inconsistent_column():
    assert rref([{}, {}], 2) == ([{}, {}], [])
    assert rref([], 3) == ([], [])
    # 0 x = 1 has no solution: its obstruction is the 1 itself, and x
    # keeps the free variables at 0
    assert solve_columns([{}], [{0: Fraction(1)}]) == [({}, {0: 1})]
    assert solve([{}], {0: Fraction(1)}) is None
    assert solve_columns([], [{}]) == [({}, {})]
    # every row vector annihilates the zero matrix: the unit columns are
    # obstructed each in its own row
    assert solve_columns([{}, {}], [{0: 1}, {1: 1}]) == [({}, {0: 1}),
                                                         ({}, {1: 1})]
    assert solve_columns([], []) == []
