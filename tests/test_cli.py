"""Command line interface: exit codes, JSON output, error handling."""

import json
import pathlib

import pytest

from wbrst.algebras import bundled_text
from wbrst.cli import main


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


def test_cft_ope_bad_binding(capsys):
    code, _, err = run(capsys, "cft", "ope", "w3", "T", "T",
                       "--set", "zeta=1")
    assert code == 2
    assert "unknown parameter" in err


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
    code, _, err = run(capsys, "qla", "check", "no_such_table")
    assert code == 2
    assert "no such file" in err


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


@pytest.mark.parametrize("name", ["g2", "zzz"])
def test_qla_coefficient_may_not_name_a_parameter(tmp_path, capsys, name):
    # the .qla format declares no parameters, so a session parameter such
    # as g2 is as unknown in a coefficient as any other name
    path = _mutated_qla(tmp_path, "so3", "sigma 1 1 1 1 = 1",
                        f"sigma 1 1 1 1 = {name}")
    code, _, err = run(capsys, "qla", "check", path)
    _no_traceback(code, err)
    assert f"unknown parameter '{name}'" in err


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
