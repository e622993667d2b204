"""Definition-file and expression parsing: round trips, conventions,
and error reporting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ALG_FILES, QLA_FILES, load_alg, read_data
from wbrst.analysis import validate_table
from wbrst.brst import CurrentFile
from wbrst.cli import main
from wbrst.fields import FieldExpr, Monomial
from wbrst.parsing import (MAX_NESTING, ParseError, format_algebra_file,
                           format_field_expr, format_monomial,
                           parse_algebra_file,
                           parse_coefficient, parse_field_expr, parse_qla_file)
from wbrst.scalars import RF_ONE, RationalFunction as RF


@pytest.mark.parametrize("name", ALG_FILES)
def test_algebra_file_round_trip(name):
    alg = load_alg(name)
    text = format_algebra_file(alg)
    again = parse_algebra_file(text)
    assert again.name == alg.name
    assert again.params == alg.params
    assert [g.name for g in again.generators] == [g.name for g in alg.generators]
    table1 = {k: v for k, v in alg.table_items()}
    table2 = {k: v for k, v in again.table_items()}
    assert set(table1) == set(table2)
    for key in table1:
        poles1, poles2 = table1[key], table2[key]
        assert set(poles1) == set(poles2), key
        for n in poles1:
            assert format_field_expr(poles1[n]) == format_field_expr(poles2[n])


@pytest.mark.parametrize("name", ALG_FILES)
def test_format_is_deterministic(name):
    alg = load_alg(name)
    assert format_algebra_file(alg) == format_algebra_file(load_alg(name))


def test_coefficient_round_trip():
    from wbrst.scalars import format_rational
    cases = [
        RF.const(Fraction(-3, 7)),
        RF.var("c"),
        (RF.var("c") + RF.const(1)) / (RF.var("c") - RF.const(2)),
        RF.var("g1") * RF.var("g2") - RF.const(Fraction(16, 261)),
    ]
    for v in cases:
        assert parse_coefficient(format_rational(v)) == v


def _round_trip_exprs(alg):
    ctx = alg.context()
    t = FieldExpr.generator(alg, "T")
    w = FieldExpr.generator(alg, "W")
    return [
        t,
        ctx.derivative(t, 2),
        ctx.normal_product(t, t).scaled(RF.var("c")),
        ctx.normal_product(t, ctx.normal_product(t, w)) - w.scaled(3),
    ]


def test_field_expr_round_trip():
    alg = load_alg("w3.alg")
    for e in _round_trip_exprs(alg):
        assert parse_field_expr(format_field_expr(e), alg,
                                ctx=alg.context()) == e


def _poly_in_c(coeffs):
    out = RF.const(0)
    for k in coeffs:
        out = out * RF.var("c") + RF.const(k)
    return out


# coefficients printed as one product or quotient, with no parentheses
# around the numerator: a rational times c^n, over a polynomial in c; so
# p/q, c^2, -c/2 and 2*c^3/(c^2+1) all occur
_SCALES = st.builds(
    lambda a, n, den: RF.const(a) * _poly_in_c([1] + [0] * n) / _poly_in_c(den),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.integers(0, 3),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any))


@settings(max_examples=60, deadline=None)
@given(_SCALES, st.integers(0, 3))
def test_any_coefficient_scales_a_field_from_the_left(w3_tables, k, i):
    from wbrst.scalars import format_rational
    alg = w3_tables[0]
    text = format_field_expr(_round_trip_exprs(alg)[i])
    assert (parse_field_expr(f"{format_rational(k)}*({text})", alg)
            == parse_field_expr(text, alg).scaled(k))


def test_a_quotient_scales_a_field_without_parentheses():
    alg = load_alg("w3.alg")
    t = FieldExpr.generator(alg, "T")
    assert parse_field_expr("2/3*T", alg) == t.scaled(Fraction(2, 3))
    assert parse_field_expr("c/2*T", alg) == parse_field_expr("(c/2)*T", alg)
    assert parse_field_expr("2*c^2/3*T - c*T", alg) == t.scaled(
        RF.var("c") * RF.var("c") * Fraction(2, 3) - RF.var("c"))


def test_signs_and_negative_powers():
    alg = load_alg("w3.alg")
    t, c = FieldExpr.generator(alg, "T"), RF.var("c")
    assert parse_field_expr("-T", alg) == t.scaled(-1)
    assert parse_field_expr("2*-T + -(-T)", alg) == t.scaled(-1)
    assert parse_field_expr("c^-2*T", alg) == t.scaled(1 / (c * c))
    assert parse_coefficient("-c^2") == -(c * c)


def test_monomial_formatting_right_nested():
    alg = load_alg("w3.alg")
    ctx = alg.context()
    t = FieldExpr.generator(alg, "T")
    ttt = ctx.normal_product(t, ctx.normal_product(t, t))
    assert any(format_monomial(m) == "N(T,N(T,T))" for m in ttt.terms)


def test_derivative_names_read_as_before():
    alg = load_alg("w3.alg")
    texts = ("D(T)", "D2(T)", "D10(T)", "D0(T)", "D01(T)")
    assert {x: format_field_expr(parse_field_expr(x, alg)) for x in texts} \
        == {"D(T)": "1*D(T)", "D2(T)": "1*D2(T)", "D10(T)": "1*D10(T)",
            "D0(T)": "1*T", "D01(T)": "1*D(T)"}


@pytest.mark.parametrize("command", [
    "cft brst w3 --c=21", "cft brst w3 --c 100", "cft validate w3"])
def test_the_parse_and_print_path_calls_no_re_function(monkeypatch, command):
    # a pattern compiled on first use costs a short command a millisecond;
    # only the tokenizer's pattern, compiled at import, is left
    import re
    from test_golden import golden_path, run_command
    expected = run_command(command)
    golden = golden_path(command)
    if golden.exists():
        assert expected == golden.read_text(encoding="utf-8")

    def refuse(*args, **kwargs):
        raise AssertionError(f"a re function was called with {args!r}")

    for name in ("compile", "match", "fullmatch", "search"):
        monkeypatch.setattr(re, name, refuse)
    assert run_command(command) == expected


def test_parse_error_reports_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse_field_expr("T + %", load_alg("w3.alg"))
    assert exc.value.column is not None

    bad = "algebra x\nfield T weight=2\nope T T : 1 -> Q\n"
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(bad)
    assert exc.value.line == 3


def test_unknown_directive_rejected():
    with pytest.raises(ParseError):
        parse_algebra_file("algebra x\nfrobnicate y\n")
    with pytest.raises(ParseError):
        parse_qla_file("dim 2\nwhatever 1\n")


def test_qla_one_based_indices():
    d = parse_qla_file(read_data("so3.qla"))
    assert d.n == 3
    # file line `c 1 2 3 = 1` lands on [(lower, lower), upper] = [(0, 1), 2]
    assert d.c.get(0 * 3 + 1, 2) == RF_ONE
    assert d.c.get(1 * 3 + 0, 2) == -RF_ONE


def test_qla_phi_modes():
    from wbrst.tensors import lie_super_twist, super_permutation
    d = parse_qla_file(read_data("super_ef.qla"))
    assert d.phi == lie_super_twist(d.parities)[0]
    d2 = parse_qla_file(read_data("lyubashenko.qla"))
    assert d2.phi == d2.sigma
    d3 = parse_qla_file("dim 2\nsigma 1 2 2 1 = 1\nsigma 2 1 1 2 = 1\n"
                        "sigma 1 1 1 1 = 1\nsigma 2 2 2 2 = 1\n")
    assert d3.phi == super_permutation((0, 0))


def test_qla_missing_dim_rejected():
    with pytest.raises(ParseError):
        parse_qla_file("parities e e\n")


def test_qla_parity_length_mismatch():
    with pytest.raises(ParseError):
        parse_qla_file("dim 3\nparities e e\n")


@pytest.mark.parametrize("name", QLA_FILES)
def test_qla_files_parse(name):
    d = parse_qla_file(read_data(name))
    assert d.n >= 2
    assert len(d.parities) == d.n


def test_comments_and_blank_lines_ignored():
    text = read_data("w3.alg") + "\n# trailing comment\n\n"
    alg = parse_algebra_file(text)
    assert alg.name == load_alg("w3.alg").name


def test_def_substitution():
    text = ("algebra d\nparam c\nfield T weight=2\n"
            "def k = c / 2\n"
            "ope T T : 4 -> k*one ; 2 -> 2*T ; 1 -> D(T)\n")
    alg = parse_algebra_file(text)
    pole4 = alg.table_entry("T", "T")[0][4]
    from wbrst.fields import UNIT
    assert pole4.terms[UNIT] == RF.var("c") / 2


def test_def_is_a_named_value():
    # a def is in scope for the later defs and for every ope line, also
    # one written above it, and it keeps its value inside any expression
    text = ("algebra d\nparam c\nfield T weight=2\n"
            "ope T T : 4 -> -h^2*one ; 2 -> 2*T ; 1 -> D(T)\n"
            "def k = c/2\ndef h = k - 1\n")
    pole4 = parse_algebra_file(text).table_entry("T", "T")[0][4]
    from wbrst.fields import UNIT
    h = RF.var("c") / 2 - 1
    assert pole4.terms[UNIT] == -(h * h)
    with pytest.raises(ParseError, match="unknown parameter 'k' at line 2"):
        parse_algebra_file("algebra d\ndef h = k\ndef k = 1\n")


def test_bindings_are_constants_at_parse_time():
    alg = parse_algebra_file(read_data("w3.alg"), {"c": 100})
    assert alg.params == ()
    pole6 = alg.table_entry("W", "W")[0][6]
    from wbrst.fields import UNIT
    assert pole6.terms[UNIT] == RF.const(Fraction(100, 3))


def test_binding_an_undeclared_parameter_rejected():
    with pytest.raises(ParseError, match="unknown parameter 'zeta'"):
        parse_algebra_file(read_data("w3.alg"), {"zeta": 1})


def test_coefficient_at_a_pole_raises_pole_error():
    from wbrst.scalars import PoleError
    with pytest.raises(PoleError, match="line 7"):
        parse_algebra_file(read_data("w3.alg"), {"c": Fraction(-22, 5)})


def test_a_table_reads_the_same_in_any_order_or_is_refused(tmp_path, capsys):
    # N(D(T),T) is normal-ordered with the product T T
    text = read_data("w3.alg").replace("N(T,D(T))", "N(D(T),T)")
    lines = text.splitlines(keepends=True)
    tt, ww = (next(i for i, line in enumerate(lines) if line.startswith(head))
              for head in ("ope T T", "ope W W"))
    # the T T line first: the W W pole 1 gets the reordering's corrections,
    # so it is not the bundled table's
    alg = parse_algebra_file(text, {"c": 100})
    pole1 = alg.table_entry("W", "W")[0][1]
    assert pole1.terms[Monomial((("T", 3),))] == RF.const(Fraction(11, 261))
    assert len(validate_table(alg)) == 1
    # the W W line first would read T T as zero: the T T line is refused
    moved = "".join(lines[:tt] + [lines[ww]] + lines[tt:ww] + lines[ww + 1:])
    want = (f"line {tt + 1} reads the product T T before it is given at "
            f"line {tt + 2}")
    with pytest.raises(ParseError, match=want):
        parse_algebra_file(moved, {"c": 100})
    path = tmp_path / "w3_moved.alg"
    path.write_text(moved, encoding="utf-8")
    assert main(["cft", "validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {want}\n"
    # a line that reads its own product is refused as well
    with pytest.raises(ParseError, match="line 3 reads the product A A "
                       "before it is given at line 3"):
        parse_algebra_file("algebra x\nfield A weight=2\n"
                           "ope A A : 4 -> one ; 2 -> N(D(A),A)\n")


@pytest.mark.parametrize("text, line", [
    ("algebra x\nfield A\n", 2),
    ("algebra x\nfield A weight=2 parity=weird\n", 2),
    ("algebra x\nfield A weight=1/0\n", 2),
    ("algebra x\nfield A weight=2\nope A A : x -> one\n", 3),
    # each name means one thing: a def may not reuse a parameter, field or
    # def name, wherever that is declared, and the algebra is named once
    ("algebra x\nparam c\ndef c = 5\n", 3),
    ("algebra x\ndef c = 5\nparam c\n", 2),
    ("algebra x\nfield A weight=2\ndef A = 5\n", 3),
    ("algebra x\ndef k = 1\ndef k = 2\n", 3),
    ("algebra x\nfield A weight=2\nalgebra y\n", 3),
    # a parameter may not reuse the name of a field, in either order, or
    # the name of the unit; nor may a def or a field
    ("algebra x\nparam T\nfield T weight=2\n", 3),
    ("algebra x\nfield T weight=2\nparam c T\n", 3),
    ("algebra x\nparam one\n", 2),
    ("algebra x\ndef one = 2\n", 2),
    ("algebra x\nfield A weight=2\nfield one weight=2\n", 3),
])
def test_algebra_file_faults_name_the_line(text, line):
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(text)
    assert exc.value.line == line


@pytest.mark.parametrize("ope_lines, message", [
    ("ope T T : 2 -> 2*T\nope T T : 1 -> D(T)\n",
     "operator product T T set twice at line 5"),
    ("ope T W : 2 -> 3*W\nope W T : 2 -> 3*W\n",
     "both orientations of W, T given; store only one at line 5"),
    ("ope T T : 0 -> one\n", "pole orders must be positive at line 4"),
], ids=["twice", "both-orientations", "pole-order-0"])
def test_pairs_the_table_refuses_name_their_line(tmp_path, capsys,
                                                 ope_lines, message):
    # OpeAlgebra.set_ope is what refuses these; the reader names the line
    path = tmp_path / "refused.alg"
    path.write_text("algebra x\nfield T weight=2\nfield W weight=3\n"
                    + ope_lines, encoding="utf-8")
    assert main(["cft", "validate", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_set_ope_refuses_a_frozen_algebra_and_a_foreign_pole():
    from wbrst.fields import FieldError, GeneratorDecl, OpeAlgebra
    frozen = parse_algebra_file("algebra x\nfield T weight=2\n")
    t = FieldExpr.generator(frozen, "T")
    with pytest.raises(FieldError, match="^algebra is frozen$"):
        frozen.set_ope("T", "T", {2: t})
    fresh = OpeAlgebra("y", [GeneratorDecl("T", Fraction(2))])
    with pytest.raises(FieldError, match="^pole data must be expressions "
                       "over this algebra$"):
        fresh.set_ope("T", "T", {2: t})
    assert fresh.table_items() == []


@pytest.mark.parametrize("text, line", [
    ("dim 2\nparities even bogus\n", 2),
    ("dim 2\nsigma 1 1 1 1 = 1\nsigma 2 2 2 2 = 1\n"
     "phi 1 1 1 1 = 1\nphi 1 2 1 2 = 1\n", 5),
    ("dim\n", 1),
    # an index outside 1..dim, whatever the value
    ("dim 1\nsigma 1 1 1 1 = 1\nsigma 1 1 1 2 = 1\n", 3),
    ("dim 1\nsigma 1 1 1 2 = 0\nsigma 1 1 1 1 = 1\n", 2),
    ("dim 2\nc 1 2 3 = 1\n", 2),
    ("dim 2\nphi = explicit\nphi 0 1 1 1 = 0\n", 3),
    # phi given twice
    ("dim 1\nsigma 1 1 1 1 = 1\nphi = sigma\nphi 1 1 1 1 = 5\n", 4),
    ("dim 1\nphi 1 1 1 1 = 5\nphi = superperm\n", 3),
    ("dim 1\nphi = superperm\nphi = sigma\n", 3),
    ("dim 1\nphi = explicit\nphi 1 1 1 1 = 1\nphi = explicit\n", 4),
    # a line given twice, whatever the values
    ("dim 1\ndim 1\n", 2),
    ("dim 2\nparities e e\nparities e o\n", 3),
    ("dim 1\nsigma 1 1 1 1 = 1\nsigma 1 1 1 1 = 1\n", 3),
    ("dim 2\nc 1 2 1 = 1\nc 2 1 1 = -1\nc 1 2 1 = 2\n", 4),
    ("dim 1\nphi = explicit\nphi 1 1 1 1 = 1\nphi 1 1 1 1 = 0\n", 4),
])
def test_qla_file_faults_name_the_line(text, line):
    with pytest.raises(ParseError) as exc:
        parse_qla_file(text)
    assert exc.value.line == line


def _current(text):
    return CurrentFile(text).current()


@pytest.mark.parametrize("parse, text, line, column", [
    # 0-based columns from the start of the line to the token itself, not
    # to the whitespace before it
    (parse_algebra_file, "algebra x\nfield T weight=2\nfield W weight=3\n"
     "ope T W : 2 -> 3*Q\n", 4, 17),
    (parse_algebra_file, "algebra x\nfield T weight=2\n"
     "  ope T T : 4 -> 2*one ; 2 ->  2*X ; 1 -> D(T)\n", 3, 33),
    (parse_algebra_file, "algebra x\nfield T weight=2\ndef k = 2*q\n", 3, 10),
    (parse_qla_file, "dim 1\nc 1 1 1 = 2*q\n", 2, 12),
    (parse_qla_file, "dim 1\n   sigma 1 1 1 1 =  2*q  # a = 1\n", 2, 22),
    # input that ends inside an expression: the column just past its last
    # character, before any trailing space, comment or next pole
    (parse_algebra_file, "algebra x\nfield T weight=2\ndef k = 2*\n", 3, 10),
    (parse_algebra_file, "algebra x\nfield T weight=2\n"
     "ope T T : 2 -> N(T,  ; 1 -> D(T)\n", 3, 19),
    (_current, "tables w3 w3_ghosts\nterm N(cT,T) +  # open\n", 2, 14),
    (parse_qla_file, "dim 1\nc 1 1 1 = 2*  \n", 2, 12),
], ids=["ope", "ope-indented-second-pole", "def", "qla", "qla-indented",
        "def-end", "ope-end", "term-end", "qla-end"])
def test_fault_columns_count_from_the_line_start(parse, text, line, column):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (line, column)


def _lines(heads, tokens):
    line = st.builds(lambda head, rest: " ".join((head, *rest)),
                     st.sampled_from(heads),
                     st.lists(st.sampled_from(tokens), max_size=8))
    return st.lists(line, max_size=8).map("\n".join)


_ALG_TEXT = _lines(
    ("algebra", "algebra", "param", "field", "def", "ope", "frobnicate"),
    ("T", "W", "c", "k", "0", "1", "3/2", "1/0", "+", "-", "*", "/", "^",
     "(", ")", ":", ";", "->", ",", "=", "one", "D(T)", "D2(W)", "N(T,W)",
     "N(", "weight=2", "weight=", "weight=1/0", "parity=odd",
     "parity=weird", "ghost=1", "ghost=x"))
_QLA_TEXT = _lines(
    ("dim", "parities", "sigma", "c", "phi", "frobnicate"),
    ("0", "1", "2", "3", "=", "-1", "1/2", "1/0", "c", "e", "odd", "bogus",
     "superperm", "sigma", "explicit"))


@settings(max_examples=40, deadline=None)
@given(_ALG_TEXT, st.sampled_from(({}, {"c": 0}, {"c": Fraction(-22, 5)})))
def test_algebra_parser_raises_only_bad_input(text, bindings):
    from wbrst.cli import BAD_INPUT
    try:
        parse_algebra_file(text, bindings)
    except BAD_INPUT:
        pass


@settings(max_examples=40, deadline=None)
@given(_QLA_TEXT)
def test_qla_parser_raises_only_bad_input(text):
    from wbrst.cli import BAD_INPUT
    try:
        parse_qla_file(text)
    except BAD_INPUT:
        pass


_FIELD_TOKENS = ("T", "W", "bT", "cT", "bW", "cW", "one", "c", "g1", "zeta",
                 "0", "2", "3/2", "1/0", "+", "-", "*", "/", "^", "(", ")",
                 ",", "D(", "D2(", "N(", "D(T)", "N(T,W)", "N(cT,bW)")
# a token string, or one wrapped in up to twice the allowed nesting
_FIELD_TEXT = st.one_of(
    st.lists(st.sampled_from(_FIELD_TOKENS), max_size=10).map(" ".join),
    st.builds(lambda opener, k, inner, closed: opener * k + inner
              + ")" * (k if closed else k // 2),
              st.sampled_from(("(", "D(", "N(T,", "-", "2*", "(-")),
              st.integers(0, 2 * MAX_NESTING),
              st.sampled_from(("T", "cT", "one", "c", "zeta", "")),
              st.booleans()))


@pytest.fixture(scope="module")
def w3_tables():
    return load_alg("w3.alg"), load_alg("w3_ghosts.alg")


@settings(max_examples=80, deadline=None)
@given(_FIELD_TEXT, st.booleans())
def test_field_expr_parser_raises_only_bad_input(w3_tables, text, ghosts):
    from wbrst.cli import BAD_INPUT
    try:
        parse_field_expr(text, w3_tables[ghosts])
    except BAD_INPUT:
        pass


def test_nesting_bound():
    w3 = load_alg("w3.alg")
    t = parse_field_expr("T", w3)
    ok = "(" * MAX_NESTING + "T" + ")" * MAX_NESTING
    assert parse_field_expr(ok, w3) == t
    with pytest.raises(ParseError, match="nested deeper") as exc:
        parse_field_expr("(" + ok + ")", w3, line=4)
    assert (exc.value.line, exc.value.column) == (4, MAX_NESTING)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_coefficient("(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1))
    # runs of signs and of scalar factors are read in loops, not nested
    assert parse_field_expr("-" * 4000 + "T", w3) == t
    assert parse_field_expr("1*" * 4000 + "T", w3) == t
    assert parse_coefficient("-+" * 4000 + "c") == RF.var("c")


@pytest.mark.parametrize("text", ["(c+1)^100000", "((c+1)^99)^99",
                                  "((3^999)^999)^999", "(a+b+c+d+e)^500",
                                  "(c+1)^-100000", "1^1000000000"])
def test_power_bound(text):
    # refused from the exponent and the base, before any multiplication
    with pytest.raises(ParseError, match="power") as exc:
        parse_coefficient(text, line=3)
    assert exc.value.line == 3


def test_power_within_the_bound():
    c = RF.var("c")
    assert parse_coefficient("(c+1)^1000").substitute({"c": 1}) == 2**1000
    assert parse_coefficient("(3^999)^999") == RF.const(3**(999 * 999))
    x = (c + 2) / (c + 1)
    assert parse_coefficient("((c+2)/(c+1))^-3") == 1 / (x * x * x)
    assert parse_coefficient("(c-c)^0") == parse_coefficient("c^0") == RF_ONE
