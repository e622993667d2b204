"""Command line interface: exit codes, JSON output, error handling."""

import json
import pathlib
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from wbrst.algebras import bundled_text
from wbrst.cli import COMMANDS, _match, _parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_qla_check_pass(capsys):
    code, payload, _ = run_json(capsys, "qla", "check", "so3")
    assert code == 0
    assert payload["ok"] is True
    assert all(e["pass"] for e in payload["checks"].values())


def test_qla_check_conjugates_sigma_once(monkeypatch, capsys):
    # sigma_tilde = phi sigma phi^-1 is shared by the twist and proof checks
    from functools import cached_property
    from wbrst.tensors import QlaData
    calls = []
    conjugate = QlaData.sigma_tilde.func

    def counted(self):
        calls.append(self)
        return conjugate(self)

    prop = cached_property(counted)
    prop.__set_name__(QlaData, "sigma_tilde")
    monkeypatch.setattr(QlaData, "sigma_tilde", prop)
    code, payload, _ = run_json(capsys, "qla", "check", "so3")
    assert code == 0 and payload["ok"] is True
    assert len(calls) == 1


def test_symbolic_brst_builds_one_derivative_system(monkeypatch, capsys):
    # nilpotency and critical_charge read the same system of pole 1 and
    # its one reduction; the second reduction re-checks the root c = 100
    import wbrst.brst
    calls, reductions = [], []
    derivative_system, rref = wbrst.brst.derivative_system, wbrst.brst.rref

    def counted(*args):
        calls.append(args)
        return derivative_system(*args)

    def counted_rref(rows, ncols):
        reductions.append(ncols)
        return rref(rows, ncols)

    monkeypatch.setattr(wbrst.brst, "derivative_system", counted)
    monkeypatch.setattr(wbrst.brst, "rref", counted_rref)
    code, payload, _ = run_json(capsys, "cft", "brst", "w3", "--symbolic-c")
    assert code == 1 and payload["critical_roots"] == ["100"]
    assert len(calls) == 1
    assert len(reductions) == 2


def test_qla_brst_builds_q_once(monkeypatch, capsys):
    import wbrst.omega
    calls = []
    build_q = wbrst.omega.build_q

    def counted(alg):
        calls.append(alg)
        return build_q(alg)

    monkeypatch.setattr(wbrst.omega, "build_q", counted)
    code, payload, _ = run_json(capsys, "qla", "brst", "so3")
    assert code == 0 and payload["verdict"] == "nilpotent"
    assert len(calls) == 1


def test_qla_check_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.qla"
    text = (
        "dim 3\n"
        + "".join(f"sigma {i} {j} {j} {i} = 1\n"
                  for i in (1, 2, 3) for j in (1, 2, 3))
        + "c 1 2 3 = 1\nc 2 1 3 = -1\nc 2 3 1 = 1\nc 3 2 1 = -1\n"
          "c 3 1 2 = 1\nc 1 3 2 = -1\nc 1 1 1 = 5\n")
    bad.write_text(text)
    code, payload, _ = run_json(capsys, "qla", "check", str(bad))
    assert code == 1
    assert payload["ok"] is False


def test_qla_brst_nilpotent(capsys):
    code, payload, _ = run_json(capsys, "qla", "brst", "super_ef")
    assert code == 0
    assert payload["verdict"] == "nilpotent"
    assert payload["ghost_number"] == 1


def test_cft_validate_bundled(capsys):
    code, payload, _ = run_json(capsys, "cft", "validate", "w3")
    assert code == 0
    assert payload["ok"] is True


def test_cft_validate_printed_variant(capsys):
    code, payload, _ = run_json(capsys, "cft", "validate", "w3",
                                "--a2", "printed")
    assert code == 1
    assert payload["issues"]


def test_cft_ope_with_binding(capsys):
    code, payload, _ = run_json(capsys, "cft", "ope", "w3", "T", "T",
                                "--set", "c=100")
    assert code == 0
    assert payload["poles"]["4"] == "50*one"


def test_cft_ope_scaled_by_a_quotient(capsys):
    # any coefficient scales a field from the left, p/q unparenthesized
    code, payload, _ = run_json(capsys, "cft", "ope", "w3", "2/3*T", "T",
                                "--set", "c=100")
    assert code == 0
    assert payload["poles"] == {"4": "(100/3)*one", "2": "(4/3)*T",
                                "1": "(2/3)*D(T)"}


@pytest.mark.parametrize("arg", ["T*2", "T/2", "2", "T + 2", "2 - T",
                                 "D(c)", "N(T,c)", "T^2", "1/0*T",
                                 "(2*T)*3"])
def test_cft_ope_coefficient_out_of_place_is_bad_input(capsys, arg):
    code, out, err = run(capsys, "cft", "ope", "w3", arg, "T",
                         "--set", "c=100")
    _no_traceback(code, err)
    assert out == ""


def test_cft_ope_bad_binding(capsys):
    code, _, err = run(capsys, "cft", "ope", "w3", "T", "T",
                       "--set", "zeta=1")
    assert code == 2
    assert "unknown parameter" in err


def test_cft_ope_duplicate_binding(capsys):
    # a name bound twice is refused, as the file parsers refuse it
    code, out, err = run(capsys, "cft", "ope", "w3", "W", "W",
                         "--set", "c=1", "--set", "c=2")
    assert code == 2 and out == ""
    assert "'c' given twice" in err


def test_cft_ope_of_a_high_derivative(capsys):
    # the derivative orders of a factor cost no recursion each: 1000 of
    # them would exceed Python's recursion limit
    code, payload, _ = run_json(capsys, "cft", "ope", "w3", "D1000(T)", "T",
                                "--set", "c=1")
    assert code == 0
    assert max(map(int, payload["poles"])) == 1004


def test_cft_ope_at_a_value_of_over_4300_digits(capsys):
    # Python's default limit on int-to-str conversion would refuse this
    # value as bad input
    c = "1" + "0" * 4398 + "1"
    code, payload, _ = run_json(capsys, "cft", "ope", "w3", "T", "T",
                                "--set", f"c={c}")
    assert code == 0
    assert payload["poles"]["4"] == f"({c}/2)*one"


def test_cft_jacobi(capsys):
    code, payload, _ = run_json(capsys, "cft", "jacobi", "w3", "T", "T", "W")
    assert code == 0
    assert payload["residuals"] == []


def test_cft_brst_w3_default(capsys):
    code, payload, _ = run_json(capsys, "cft", "brst", "w3")
    assert code == 0
    assert payload["verdict"] == "nilpotent"


def test_cft_brst_w3_off_critical(capsys):
    code, payload, _ = run_json(capsys, "cft", "brst", "w3", "--c", "50")
    assert code == 1
    assert payload["verdict"] == "obstructed"
    assert payload["obstruction"] != "0"


def test_cft_brst_conventional_point(capsys):
    code, payload, _ = run_json(capsys, "cft", "brst", "w3",
                                "--g1=0", "--g2=-16/261")
    assert code == 0
    assert payload["unconventional_terms"] == []


def test_cft_brst_w32(capsys):
    code, payload, _ = run_json(capsys, "cft", "brst", "w32")
    assert code == 0
    assert payload["verdict"] == "nilpotent"


def test_cft_critical(capsys):
    code, payload, _ = run_json(capsys, "cft", "critical", "w32")
    assert code == 0
    assert payload["roots"] == ["-2"]


def test_cft_solve_conventional(capsys):
    code, payload, _ = run_json(capsys, "cft", "solve-conventional")
    assert code == 0
    assert payload == {"g1": "0", "g2": "-16/261"}


def test_oracle_crosscheck(capsys):
    code, payload, _ = run_json(capsys, "oracle", "crosscheck",
                                "w3_ghosts_free", "--level", "2")
    assert code == 0
    assert payload["ok"] is True
    charges = {s["b"]: s["central_charge"] for s in payload["systems"]}
    assert charges == {"bT": "-26", "bW": "-74"}


def test_oracle_negative_level_is_bad_input(capsys):
    code, out, err = run(capsys, "oracle", "crosscheck", "w3_ghosts_free",
                         "--level=-1")
    _no_traceback(code, err)
    assert "level" in err
    assert out == ""
    code, payload, _ = run_json(capsys, "oracle", "crosscheck",
                                "w3_ghosts_free", "--level", "0")
    assert code == 0
    assert [s["states"] for s in payload["systems"]] == [2, 2]


def test_missing_file_exit_code(capsys):
    for argv in (("qla", "check", "no_such_table"),
                 ("cft", "validate", "no_such_table.alg")):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"no such file or bundled table: {argv[-1]}" in err


def test_bundled_text_reads_every_data_file():
    data = pathlib.Path(__file__).resolve().parent.parent / "src" / "wbrst" / "data"
    files = sorted(data.iterdir())
    assert files
    for f in files:
        stem, kind = f.name.rsplit(".", 1)
        assert bundled_text(stem, kind).encode("utf-8") == f.read_bytes()


def test_package_data_ships_every_data_file():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    import fnmatch
    root = pathlib.Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["wbrst"]
    package = root / "src" / "wbrst"
    for f in (package / "data").iterdir():
        name = f.relative_to(package).as_posix()
        assert any(fnmatch.fnmatch(name, g) for g in globs), name


@pytest.mark.parametrize("argv, parsers", [
    (("qla", "check", "so3"), 0),      # _match reads a valid command
    (("cft", "brst", "w3", "--json"), 0),
    (("-h",), 13),                     # help and errors: the full tree once
    (("qla", "-h"), 13),
    (("bogus",), 13),
    (("cft", "brst", "w5"), 0),        # a missing file is bad input
])
def test_only_help_and_errors_build_the_parser_tree(monkeypatch, capsys,
                                                    argv, parsers):
    import argparse
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    try:
        main(list(argv))
    except SystemExit:
        pass
    capsys.readouterr()
    assert len(built) == parsers


def test_command_runs_without_importing_argparse():
    import os
    import subprocess
    import sys
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = ("import contextlib, io, sys\n"
            "from wbrst.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['qla', 'check', 'so3', '--json'])\n"
            "print(code, 'argparse' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.stdout.split() == ["0", "False"], out.stderr


# every form of command line the benchmark issues (perfbench/generate.py)
_BENCH_ARGVS = (
    "qla check so3", "qla brst super_ef", "qla check lyubashenko",
    "qla check /tmp/x.qla", "qla brst /tmp/x.qla",
    "cft critical w3", "cft critical w32",
    "cft brst w3 --symbolic-c --g1 symbolic --g2 symbolic",
    "cft brst w32 --symbolic-c",
    "cft validate w3", "cft validate w3 --a2 printed",
    "cft jacobi w3 T T W", "cft jacobi w32_ghosts bT cp bm",
    "cft brst w3 --c=-22/5", "cft brst w32 --c=7/3", "cft brst w3 --c=100",
    "cft brst w3 --c=100 --g1=-49/6 --g2=-31/5",
    "cft brst w3 --g1=0 --g2=-16/261",
    "cft solve-conventional",
    "cft ope w3 W W --set c=33", "cft ope w3 W W --set c=-22/5",
    "oracle crosscheck w3_ghosts_free --level 4",
    "oracle crosscheck w32_ghosts_free --level 4",
)


@pytest.mark.parametrize("command", _BENCH_ARGVS)
def test_match_reads_every_benchmark_command(command):
    argv = command.split() + ["--json"]
    args = _match(argv)
    assert args is not None
    assert vars(args) == vars(_parser().parse_args(argv))


# bare words, some failing a type or a choice
_WORDS = ("qla", "check", "so3", "w3", "w32", "w5", "T", "W", "c=33",
          "printed", "consistent", "symbolic", "4", "1/2", "x", "")
# exact and abbreviated options, "=" forms, values starting with "-", "--",
# "-" and help
_OPTIONS = (
    "-2", "-16/261", "--", "-", "-h", "--help", "--json", "--js",
    "--json=1", "--c", "--c=-22/5", "--c=", "--g1", "--g2", "--g2=-16/261",
    "--g", "--symbolic-c", "--symbolic", "--symbolic-c=", "--a2",
    "--a2=printed", "--a2=x", "--set", "--set=c=1", "--se", "--level",
    "--level=4", "--level=x", "--lev",
)
_TOKENS = st.sampled_from(_WORDS + _OPTIONS)
_VALUES = st.sampled_from(_WORDS + ("-2", "-16/261", "-", "--", "-h"))


@st.composite
def _argvs(draw):
    """A command with as many words as it has positionals, a few of its
    options, alone, with a next token or with ``=``, and perhaps one more
    token, in any order; or any tokens at all."""
    if draw(st.booleans()):
        return draw(st.lists(_TOKENS, max_size=6))
    key = draw(st.sampled_from(sorted(COMMANDS)))
    n = sum(not name.startswith("-") for name, _ in COMMANDS[key][2])
    words = draw(st.lists(st.sampled_from(_WORDS), min_size=n, max_size=n))
    own = st.sampled_from(["--json"] + [
        name for name, _ in COMMANDS[key][2] if name.startswith("-")])
    option = (st.tuples(own) | st.tuples(own, _VALUES)
              | st.builds(lambda o, v: (f"{o}={v}",), own, _VALUES))
    items = ([(w,) for w in words] + draw(st.lists(option, max_size=3))
             + draw(st.lists(st.tuples(_TOKENS), max_size=1)))
    items = draw(st.permutations(items))
    return list(key) + [token for item in items for token in item]


# values of exactly "--", which argparse drops
_DASHED_VALUES = (["cft", "ope", "qla", "qla", "qla", "--set=--"],
                  ["oracle", "crosscheck", "w3_ghosts_free", "--level=--"],
                  ["cft", "brst", "w3", "--a2=--"])


@settings(max_examples=500, deadline=None)
@given(_argvs())
@example(_DASHED_VALUES[0])
@example(_DASHED_VALUES[1])
@example(_DASHED_VALUES[2])
def test_match_agrees_with_argparse(argv):
    import contextlib
    import io
    args = _match(argv)
    if args is None:
        return
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            expected = vars(_parser().parse_args(argv))
    except SystemExit:
        expected = "an argparse error"
    assert vars(args) == expected


@pytest.mark.parametrize("argv", _DASHED_VALUES + (
    ["cft", "brst", "w3", "--c=--"], ["cft", "ope", "w3", "W", "--", "--"],
    ["cft", "ope", "w3", "W", "W", "--set=c=1", "--set=--"]))
def test_a_value_of_two_dashes_is_a_missing_value(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("qla", "check", "so3"),                                # exit 0
    ("qla", "check", str(pathlib.Path(__file__).resolve().parent
                         / "data" / "so3_bad_c.qla")),      # exit 1
    ("qla", "check", "no_such_table"),                      # exit 2
    ("qla", "check", "so3", "--bogus"),                     # argparse exits
])
def test_main_restores_the_int_str_digit_limit(capsys, argv):
    import sys
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        try:
            main(list(argv))
        except SystemExit:
            pass
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)
    capsys.readouterr()


def test_python_dash_m_runs_the_command_line():
    import os
    import subprocess
    import sys
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-m", "wbrst", "qla", "check",
                          "so3", "--json"], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["ok"] is True


def test_filesystem_path_beats_bundled_name(tmp_path, capsys):
    f = tmp_path / "mini.alg"
    f.write_text("algebra mini\nfield T weight=2\n"
                 "ope T T : 4 -> 13*one ; 2 -> 2*T ; 1 -> D(T)\n")
    code, payload, _ = run_json(capsys, "cft", "validate", str(f))
    assert code == 0
    assert payload["algebra"] == "mini"


def test_json_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "cft", "brst", "w3", "--json")
    _, out2, _ = run(capsys, "cft", "brst", "w3", "--json")
    assert out1 == out2
    _, out3, _ = run(capsys, "qla", "check", "lyubashenko", "--json")
    _, out4, _ = run(capsys, "qla", "check", "lyubashenko", "--json")
    assert out3 == out4


def _no_traceback(code, err):
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("cft", "brst", "w3", "--c=-22/5"),
    ("cft", "brst", "w32", "--c=-1"),
    ("cft", "ope", "w3", "T", "T", "--set", "c=-22/5"),
])
def test_value_at_a_table_pole_is_bad_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    _no_traceback(code, err)
    assert out == ""
    # cft brst loads two tables: the message names the one at its pole
    # and the value bound there
    assert f"of table {argv[2]} at {argv[-1].lstrip('-')}" in err


def test_division_by_zero_in_a_user_table(tmp_path, capsys):
    f = tmp_path / "pole.alg"
    f.write_text("algebra pole\nfield T weight=2\n"
                 "ope T T : 4 -> (1/0)*one ; 2 -> 2*T ; 1 -> D(T)\n")
    code, _, err = run(capsys, "cft", "validate", str(f))
    _no_traceback(code, err)
    assert "line 3" in err


def test_power_beyond_the_bound_is_bad_input(tmp_path, capsys):
    # the same text on an .alg line and in a cft ope argument
    f = tmp_path / "power.alg"
    f.write_text("algebra power\nparam c\nfield T weight=2\n"
                 "ope T T : 4 -> ((c+1)^100000)*one ; 2 -> 2*T ; 1 -> D(T)\n")
    code, _, err = run(capsys, "cft", "validate", str(f))
    _no_traceback(code, err)
    assert "line 4" in err
    code, _, err = run(capsys, "cft", "ope", "w3", "(c+1)^100000*T", "T")
    _no_traceback(code, err)


def test_undeclared_parameter_is_bad_input(tmp_path, capsys):
    f = tmp_path / "undeclared.alg"
    f.write_text("algebra v\nfield T weight=2\n"
                 "ope T T : 4 -> (c/2)*one ; 2 -> 2*T ; 1 -> D(T)\n")
    code, _, err = run(capsys, "cft", "validate", str(f))
    _no_traceback(code, err)
    assert "parameter name 'c'" in err


def test_parameters_do_not_leak_between_files(tmp_path, capsys):
    first = tmp_path / "first.alg"
    first.write_text("algebra first\nparam k\nfield T weight=2\n"
                     "ope T T : 4 -> (k/2)*one ; 2 -> 2*T ; 1 -> D(T)\n")
    second = tmp_path / "second.alg"
    second.write_text(first.read_text().replace("param k\n", "")
                      .replace("first", "second"))
    code, _, _ = run(capsys, "cft", "validate", str(first))
    assert code == 0
    code, _, err = run(capsys, "cft", "validate", str(second))
    _no_traceback(code, err)
    assert "parameter name 'k'" in err


@pytest.mark.parametrize("line", [
    "param :", "param 3/2", "param N(T,W) weight=2", "param k k"])
def test_param_must_be_one_new_name(tmp_path, capsys, line):
    before = _scalar_probe()
    f = tmp_path / "param.alg"
    f.write_text(f"algebra p\n{line}\nfield T weight=2\n"
                 "ope T T : 4 -> (1/2)*one ; 2 -> 2*T ; 1 -> D(T)\n")
    code, _, err = run(capsys, "cft", "validate", str(f))
    _no_traceback(code, err)
    assert "line 2" in err
    assert _scalar_probe() == before


def _scalar_probe():
    """The print form and ring names of a fixed value, which no earlier
    computation may change."""
    from wbrst.scalars import format_rational, rf
    x = rf("(c^2*g2 - g1)/(3*g1 + c)")
    return format_rational(x), x.num.ring.symbols, x.den.ring.symbols


def test_deep_nesting_is_bad_input(tmp_path, capsys):
    deep = "(" * 2000 + "T" + ")" * 2000
    code, out, err = run(capsys, "cft", "ope", "w3", deep, "T",
                         "--set", "c=100")
    _no_traceback(code, err)
    assert "nested deeper" in err and out == ""
    f = tmp_path / "deep.alg"
    f.write_text("algebra deep\nfield T weight=2\n"
                 "ope T T : 4 -> " + "(" * 1500 + "1/2" + ")" * 1500
                 + "*one ; 2 -> 2*T ; 1 -> D(T)\n")
    code, out, err = run(capsys, "cft", "validate", str(f))
    _no_traceback(code, err)
    assert "nested deeper" in err and "line 3" in err


def test_runaway_normal_product_spends_its_fuel(capsys):
    # the rules would take minutes to parse this nest of ten fields; the
    # engine's fuel meter stops them, as bad input, within seconds
    nest = "N(W," * 9 + "T" + ")" * 9
    start = time.perf_counter()
    code, out, err = run(capsys, "cft", "ope", "w3", nest, "one",
                         "--set", "c=100")
    assert time.perf_counter() - start < 10
    _no_traceback(code, err)
    assert out == "" and "rewriting fuel exhausted" in err


def _mutated_qla(tmp_path, name, old, new):
    from conftest import read_data
    text = read_data(f"{name}.qla")
    assert old in text
    path = tmp_path / f"{name}-mutated.qla"
    path.write_text(text.replace(old, new))
    return str(path)


@pytest.mark.parametrize("name, old, new", [
    # sigma^{11}_{11} raised from 1 to 2: no longer involutive
    ("so3", "sigma 1 1 1 1 = 1", "sigma 1 1 1 1 = 2"),
    # sigma^{22}_{22} raised from -1 to 0: singular, so not involutive
    ("super_ef", "sigma 2 2 2 2 = -1", "sigma 2 2 2 2 = 0"),
])
def test_qla_brst_outside_the_omega_domain(tmp_path, capsys, name, old, new):
    path = _mutated_qla(tmp_path, name, old, new)
    code, out, err = run(capsys, "qla", "brst", path)
    _no_traceback(code, err)
    assert "involutive" in err


@pytest.mark.parametrize("text, message", [
    # under dim 1 the index 2 is out of range, reported as the file writes it
    ("dim 1\nsigma 1 1 1 2 = 1\n", "index outside 1..1 in sigma 1 1 1 2 "
                                    "at line 2"),
    ("dim 1\nsigma 1 1 1 2 = 0\n", "index outside 1..1 in sigma 1 1 1 2 "
                                    "at line 2"),
    ("dim 1\nsigma 1 1 1 1 = 1\nphi = sigma\nphi 1 1 1 1 = 5\n",
     "phi given twice at line 4"),
    ("dim 1\nphi = superperm\nphi 1 1 1 1 = 5\n", "phi given twice at line 3"),
    # a repeated line is bad input, not a silent overwrite
    ("dim 1\nsigma 1 1 1 1 = 1\nsigma 1 1 1 1 = 7\ndim 3\n",
     "sigma 1 1 1 1 given twice at line 3"),
    ("dim 1\nsigma 1 1 1 1 = 1\ndim 3\n", "dim given twice at line 3"),
    ("dim 1\nparities e\nparities o\n", "parities given twice at line 3"),
])
@pytest.mark.parametrize("cmd", ["check", "brst"])
def test_qla_file_faults_are_bad_input(tmp_path, capsys, cmd, text, message):
    path = tmp_path / "faulty.qla"
    path.write_text(text)
    code, out, err = run(capsys, "qla", cmd, str(path))
    _no_traceback(code, err)
    assert (out, err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("lines, message", [
    # a def substituted for a bound parameter would drop the binding
    ("param c\nfield T weight=2\ndef c = 5\n",
     "def 'c' reuses the name of a parameter at line 4"),
    ("field T weight=2\ndef T = 5\nparam c\n",
     "def 'T' reuses the name of a field at line 3"),
    ("param c\nfield T weight=2\ndef k = 5\ndef k = 6\n",
     "def 'k' reuses the name of an earlier def at line 5"),
    ("param c\nalgebra y\nfield T weight=2\n",
     "algebra given twice at line 3"),
    # a parameter named like a field would read as either one
    ("field T weight=2\nparam c T\n",
     "parameter 'T' reuses the name of a field at line 3"),
    ("param c T\nfield T weight=2\n",
     "parameter 'T' reuses the name of a field at line 3"),
    ("param c one\nfield T weight=2\n",
     "parameter 'one' reuses the name of the unit at line 2"),
])
def test_alg_file_shadowing_is_bad_input(tmp_path, capsys, lines, message):
    path = tmp_path / "shadow.alg"
    path.write_text("algebra x\n" + lines
                    + "ope T T : 4 -> c*one ; 2 -> 2*T ; 1 -> D(T)\n")
    code, out, err = run(capsys, "cft", "ope", str(path), "T", "T",
                         "--set", "c=7")
    _no_traceback(code, err)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("name", ["g2", "zzz"])
def test_qla_coefficient_may_not_name_a_parameter(tmp_path, capsys, name):
    # the .qla format declares no parameters, so a session parameter such
    # as g2 is as unknown in a coefficient as any other name
    path = _mutated_qla(tmp_path, "so3", "sigma 1 1 1 1 = 1",
                        f"sigma 1 1 1 1 = {name}")
    code, _, err = run(capsys, "qla", "check", path)
    _no_traceback(code, err)
    assert f"unknown parameter '{name}'" in err


def test_jacobi_with_a_zero_argument_has_no_residual(capsys):
    # the identity is trilinear, so a zero argument has nothing to check,
    # whatever the parities of the others
    for argv in (("0*one", "T", "W"), ("T", "0*one", "W"), ("T", "W", "0*one"),
                 ("0*one", "T+N(T,T)", "W")):
        code, payload, _ = run_json(capsys, "cft", "jacobi", "w3", *argv)
        assert (code, payload["ok"], payload["residuals"]) == (0, True, [])


def test_mixed_parity_argument_is_bad_input(capsys):
    code, out, err = run(capsys, "cft", "jacobi", "w3_ghosts", "bT+N(bT,cT)",
                         "cT", "cT", "--json")
    _no_traceback(code, err)
    assert out == ""
    assert "definite parity" in err


@pytest.mark.parametrize("option", ["--c=1/0", "--g1=1/0", "--g2=1/0"])
def test_brst_option_dividing_by_zero_is_bad_input(capsys, option):
    # read as --set reads a binding: exit 2 with an error line
    code, out, err = run(capsys, "cft", "brst", "w3", option)
    _no_traceback(code, err)
    assert out == ""
    assert f"{option[2:]!r} is not an exact rational" in err


@pytest.mark.parametrize("argv,message", [
    (("w32", "--g1=5/2"), "w32 takes no --g1"),
    (("w32", "--g2", "0"), "w32 takes no --g2"),
    (("w32", "--a2", "consistent"), "w32 takes no --a2"),
    (("w32", "--c=-2", "--g1=5/2", "--a2", "printed"),
     "w32 takes no --g1 or --a2"),
    (("w3", "--symbolic-c", "--c=7"),
     "--c and --symbolic-c exclude each other"),
    (("w32", "--symbolic-c", "--c", "-2"),
     "--c and --symbolic-c exclude each other"),
])
def test_brst_option_that_does_not_apply_is_bad_input(capsys, argv, message):
    code, out, err = run(capsys, "cft", "brst", *argv, "--json")
    _no_traceback(code, err)
    assert out == ""
    assert err == f"error: {message}\n"


MUTATED = str(pathlib.Path(__file__).resolve().parent / "data"
              / "w3_mutated.brst")


def test_mutated_current_file_fails_its_checks(capsys):
    # w3.brst with the coefficient 125/1566 changed to 125/1567
    assert pathlib.Path(MUTATED).read_text() == bundled_text(
        "w3", "brst").replace("125/1566", "125/1567")
    code, payload, _ = run_json(capsys, "cft", "brst", MUTATED)
    assert (code, payload["verdict"], payload["family"]) == (
        1, "obstructed", MUTATED)
    code, payload, _ = run_json(capsys, "cft", "critical", MUTATED)
    assert (code, payload["roots"]) == (1, [])


def test_current_file_on_the_w3_table_takes_every_option(capsys):
    # the options follow the tables a current lives on, not its name
    code, payload, _ = run_json(capsys, "cft", "brst", MUTATED, "--c",
                                "symbolic", "--g1=0", "--g2=-16/261",
                                "--a2", "printed")
    assert code == 1 and payload["critical_roots"] == []


@pytest.mark.parametrize("text, cmd, message", [
    ("tables w3 w3_ghosts\nterm N(cT,T)\nterms N(cW,W)\n", "brst",
     "unknown or misplaced directive 'terms' at line 3"),
    ("default c=1\ntables w3 w3_ghosts\n", "brst",
     "unknown or misplaced directive 'default' at line 1"),
    ("tables w3\ntables w3_ghosts\n", "critical",
     "unknown or misplaced directive 'tables' at line 2"),
    ("term N(cT,T)\n", "brst", "missing 'tables NAME ...' line at line 1"),
    ("tables w3 w5_ghosts\nterm N(cT,T)\n", "brst",
     "unknown table 'w5_ghosts' at line 1"),
    # a table named twice is refused, not merged into one
    ("# w3 twice\ntables w3 w3\nterm N(cT,T)\n", "brst",
     "table 'w3' given twice at line 2"),
    ("tables w3 w3_ghosts w3\nterm N(cT,T)\n", "critical",
     "table 'w3' given twice at line 1"),
    ("tables w3 w3_ghosts\ndefault k=1\n", "brst",
     "default 'k' is not a new parameter of the tables at line 2"),
    ("tables w3 w3_ghosts\ndefault c=1 g1=0\ndefault c=2\n", "brst",
     "default 'c' is not a new parameter of the tables at line 3"),
    ("tables w3 w3_ghosts\ndefault c=1/0\n", "brst",
     "c '1/0' is not a number at line 2"),
    ("tables w3 w3_ghosts\nterm N(cT,T)\nterm N(cT,Q)\n", "brst",
     "unknown field or parameter name 'Q' at line 3, column 10"),
    # a term of weight 2 beside terms of weight 1
    ("tables w3 w3_ghosts\nterm N(cT,T)\nterm N(cT,N(T,T))\n", "brst",
     "current must be odd with weight 1 and ghost number +1"),
    ("tables w3 w3_ghosts\nterm N(bT,T)\n", "critical",
     "current must be odd with weight 1 and ghost number +1"),
    ("tables w32_ghosts\nterm N(bT,N(cT,D(cT)))\n", "critical",
     "no table of the current declares 'c'"),
])
def test_current_file_faults_are_bad_input(tmp_path, capsys, text, cmd,
                                           message):
    path = tmp_path / "faulty.brst"
    path.write_text(text)
    code, out, err = run(capsys, "cft", cmd, str(path), "--json")
    _no_traceback(code, err)
    assert (out, err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("--g1=0",), "takes no --g1"),
    (("--symbolic-c",), "takes no --symbolic-c"),
    (("--c=5", "--a2", "printed"), "takes no --c or --a2"),
])
def test_option_off_the_current_tables_is_bad_input(tmp_path, capsys, argv,
                                                    message):
    path = tmp_path / "ghosts.brst"
    path.write_text("tables w32_ghosts\nterm N(bT,N(cT,D(cT)))\n")
    code, out, err = run(capsys, "cft", "brst", str(path), *argv)
    _no_traceback(code, err)
    assert err == f"error: {path} {message}\n"


@pytest.mark.parametrize("table", ["w32", "w3_ghosts", "w32.alg", "copy"])
def test_validate_printed_a2_is_bad_input_for_other_tables(
        tmp_path, capsys, table):
    # the as-printed a2 coefficient exists for the bundled w3 table only; a
    # file, even a copy of w3.alg, is read as it is
    if table == "copy":
        table = str(tmp_path / "w3.alg")
        pathlib.Path(table).write_text(bundled_text("w3", "alg"),
                                       encoding="utf-8")
    code, out, err = run(capsys, "cft", "validate", table, "--a2", "printed",
                         "--json")
    _no_traceback(code, err)
    assert out == ""
    assert err == ("error: --a2 printed applies only to the bundled table "
                   f"w3, not {table}\n")
