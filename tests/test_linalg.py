"""Exact linear algebra: sparse-row elimination against a dense
reference, and the normal form read from one reduction against
independent checks."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wbrst.linalg import normal_form, rref
from wbrst.scalars import RF_ONE, RF_ZERO, RationalFunction, rf

C = RationalFunction.var("c")
G1 = RationalFunction.var("g1")


# -- the dense reference: every entry of every row, every time -------------


def dense_rref(rows, ncols):
    """Every row of the dense reduced echelon form, the pivot rows first."""
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


def dense_rank(rows, ncols):
    return len(dense_rref(rows, ncols)[1])


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
    vector = draw(st.lists(entry, min_size=ncols, max_size=ncols))
    if draw(st.booleans()):
        # in the row space: a drawn combination of the rows
        y = draw(st.lists(entry, min_size=nrows, max_size=nrows))
        vector = _times(list(map(list, zip(*matrix))), y, zero) if nrows \
            else [zero] * ncols
    return matrix, ncols, rhs, vector


def _check_against_dense(matrix, ncols, rhs, vector, zero):
    rows = [sparse(row) for row in matrix]
    before = [dict(row) for row in rows]

    # the pivot rows, as the dense reduction leaves them, without their
    # zeros; the rows below the rank are dropped
    red, pivots = rref(rows, ncols)
    want_red, want_pivots = dense_rref(matrix, ncols)
    assert pivots == want_pivots
    assert _same(red, [sparse(row) for row in want_red[:len(pivots)]])
    aug = [row + [b] for row, b in zip(matrix, rhs)]
    red_aug, pivots_aug = rref([sparse(row) for row in aug], ncols)
    want_red, want_pivots = dense_rref(aug, ncols)
    assert pivots_aug == want_pivots
    assert _same(red_aug,
                 [sparse(row) for row in want_red[:len(want_pivots)]])

    # the reduced echelon form of a row space is unique: the reversed rows
    # reduce to the same pivot rows, and give the same normal form
    v = sparse(vector)
    nf = normal_form(red, pivots, v)
    assert rref(rows[::-1], ncols) == (red, pivots)
    assert normal_form(*rref(rows[::-1], ncols), v) == nf

    # nf is zero at every pivot, and v - nf lies in the row space; so nf is
    # zero exactly when v lies there too
    assert not set(nf) & set(pivots)
    diff = [vector[j] - nf.get(j, zero) for j in range(ncols)]
    rank = len(pivots)
    assert dense_rank(matrix + [diff], ncols) == rank
    assert (not nf) == (dense_rank(matrix + [vector], ncols) == rank)

    # with a unit block, minus the block of the normal form combines the
    # input rows into v - nf
    n = len(rows)
    red_unit, pivots_unit = rref([{**row, ncols + i: 1}
                                  for i, row in enumerate(rows)], ncols)
    assert pivots_unit == pivots
    nf_unit = normal_form(red_unit, pivots_unit, v)
    assert {j: w for j, w in nf_unit.items() if j < ncols} == nf
    y = [-nf_unit.get(ncols + i, 0) for i in range(n)]
    assert [sum((y[i] * matrix[i][j] for i in range(n)), zero)
            for j in range(ncols)] == diff
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
    assert rref([{}, {}], 2) == ([], [])
    assert rref([], 3) == ([], [])
    # nothing to subtract: the normal form is the vector itself
    assert normal_form([], [], {0: Fraction(1)}) == {0: 1}
    assert normal_form([], [], {}) == {}
    # x + y and 2x + 2y span one line: x + 2y reduces to y, and the
    # combination 3x + 3y to nothing
    one = Fraction(1)
    red, pivots = rref([{0: one, 1: one}, {0: 2 * one, 1: 2 * one}], 2)
    assert (red, pivots) == ([{0: 1, 1: 1}], [0])
    assert normal_form(red, pivots, {0: one, 1: 2 * one}) == {1: 1}
    assert normal_form(red, pivots, {0: 3 * one, 1: 3 * one}) == {}
