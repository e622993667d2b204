"""Golden CLI outputs: the ``--json`` stdout and exit code of fixed commands.

Every CLI example of README.md, plus the fully symbolic BRST and critical
charge reports, the critical root of the as-printed table and of
non-conventional ghosts, four numeric BRST reports (one obstructed), a
numeric W W product, a product of a depth-5 nested normal product, the
W3^(2) ghost oracle and a failing axiom check, must print exactly the
recorded bytes.
``tests/golden/oracle_crosscheck_digests.json`` holds the sha256 of the
``oracle crosscheck TABLE --level L --json`` stdout of both free ghost
tables at levels 0 to 8, where the whole reports are too long to keep.
``tests/golden/bundled_tables.txt`` holds ``format_algebra_file`` of the
bundled tables, loaded symbolic and with parameter values bound, so what
the parser reads from each definition file is pinned byte for byte.
``tests/golden/brst_currents.txt`` holds ``format_field_expr`` of the
bundled BRST currents at fixed parameter values, as their ``.brst`` files
define them.
``tests/golden/derive_brst.json`` holds the currents that ``derive_brst``
derives for the W3 and W3^(2) benchmark cases, as ``format_field_expr``
prints them, and the report messages of the unpinned cases.
Commands run from the root of the repository.  Each file in
``tests/golden/`` holds one command: a first line ``exit N``, then the
stdout verbatim.  ``tests/golden/cli_messages.json`` holds the help,
usage and error messages of ``MESSAGES``: stdout, stderr and exit code
of each, at a terminal width of 80.  To record them again (only when an
output change is intended), run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import sys

import pytest

from fractions import Fraction

from wbrst.algebras import bundle, load_bundled, w3, w32, w3_ghosts, w32_ghosts
from wbrst.brst import brst_w3, brst_w32, derive_brst
from wbrst.cli import main
from wbrst.fields import Monomial
from wbrst.parsing import format_algebra_file, format_field_expr

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

COMMANDS = (
    # README.md, section "Command line"
    "qla check so3",
    "qla brst super_ef",
    "cft validate w3",
    "cft validate w3 --a2 printed",
    "cft ope w3 T W --set c=100",
    "cft jacobi w3 T T W",
    "cft brst w3 --c 100",
    "cft brst w3 --symbolic-c",
    "cft critical w32",
    "cft solve-conventional",
    "oracle crosscheck w3_ghosts_free --level 4",
    # the second oracle benchmark check: half-integer weights (bp, cp)
    "oracle crosscheck w32_ghosts_free --level 4",
    # symbolic reports, where cancellation does most of the work
    "cft brst w3 --symbolic-c --g1 symbolic --g2 symbolic",
    "cft brst w32 --symbolic-c",
    "cft critical w3",
    # so3 with C^3_{12} = 2: the residual entries of the failing checks
    "qla check tests/data/so3_bad_c.qla",
    # the two color Lie algebras of README.md: braids that are not symmetric
    # matrices, where Q^2 = 0 (the Chevalley-Eilenberg differential of a
    # color Lie algebra) only if the c block is read in written order
    "qla check tests/data/color_borel_q2.qla",
    "qla brst tests/data/color_borel_q2.qla",
    "qla check tests/data/color_abelian_q2.qla",
    "qla brst tests/data/color_abelian_q2.qla",
    # the numeric BRST paths: W3^(2), the as-printed a2 table, non-conventional ghosts
    "cft brst w32 --c 7/3",
    "cft brst w3 --c 100 --a2 printed",
    "cft brst w3 --c 100 --g1=-49/6 --g2=-31/5",
    # an obstructed numeric check: its residual is the normal form of pole 1
    # modulo total derivatives
    "cft brst w3 --c 25/12",
    # the critical root of the as-printed a2 table and of non-conventional
    # ghosts, read from the coefficients of the normal form of pole 1
    "cft brst w3 --symbolic-c --a2 printed",
    "cft brst w3 --symbolic-c --g1 1/3 --g2 2/5",
    # a numeric OPE with W on both sides
    "cft ope w3 W W --set c=33",
    # a nested normal product: deeper ones spend the engine's fuel
    "cft ope w3 N(W,N(W,N(W,N(W,T)))) T --set c=100",
)


# help, usage and argument errors: each must print what argparse prints from
# the full parser tree
MESSAGES = (
    "-h",
    "qla -h",
    "cft -h",
    "cft brst -h",
    "qla check -h",
    "",
    "bogus",
    "qla bogus",
    "qla check",
    "qla check so3 --bogus",
    "oracle crosscheck w3_ghosts_free --level 1/2",
    "cft brst w5",
    "cft ope w3 T",
    # a value starting with "-" that is not a plain number needs the "="
    # form: argparse reads -16/261 as an option
    "cft brst w3 --g2 -16/261",
)
MESSAGES_GOLDEN = GOLDEN / "cli_messages.json"
DERIVE_GOLDEN = GOLDEN / "derive_brst.json"
DIGESTS_GOLDEN = GOLDEN / "oracle_crosscheck_digests.json"
TABLES_GOLDEN = GOLDEN / "bundled_tables.txt"
CURRENTS_GOLDEN = GOLDEN / "brst_currents.txt"

# (stem, bound values) of each bundled table load the golden pins
TABLE_LOADS = (
    ("w3", {}), ("w3", {"c": 100}), ("w3_printed", {}),
    ("w3_ghosts", {}), ("w3_ghosts", {"g1": 0, "g2": 0}),
    ("w3_ghosts", {"g1": Fraction(1, 3), "g2": Fraction(2, 5)}),
    ("w3_ghosts_free", {}), ("w32", {}), ("w32", {"c": -2}),
    ("w32_ghosts", {}), ("w32_ghosts_free", {}),
)

# (builder, keyword arguments) of each bundled current the golden pins
CURRENT_LOADS = (
    (brst_w3, {"g1": 0, "g2": 0, "c": 100}),
    (brst_w3, {"g1": None, "g2": None, "c": None}),
    (brst_w3, {"g1": Fraction(1, 3), "g2": Fraction(2, 5), "c": None}),
    (brst_w3, {"g1": 0, "g2": 0, "c": 100, "a2_mode": "as-printed"}),
    (brst_w32, {"c": None}), (brst_w32, {"c": -2}),
)


def golden_path(command: str) -> pathlib.Path:
    slug = re.sub(r"[^A-Za-z0-9]+", "_", command).strip("_")
    return GOLDEN / f"{slug}.txt"


def run_command(command: str) -> str:
    """``exit N`` and the ``--json`` stdout of one CLI command."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)  # contextlib.chdir needs Python 3.11
    try:
        with contextlib.redirect_stdout(out):
            code = main(command.split() + ["--json"])
    finally:
        os.chdir(cwd)
    return f"exit {code}\n{out.getvalue()}"


def run_message(command: str) -> dict:
    """Exit code, stdout and stderr of one command, 80 columns wide."""
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command.split())
    except SystemExit as exc:
        code = exc.code
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _mono(alg, *factors):
    return Monomial(tuple(sorted(factors, key=alg.factor_key)))


def run_derivations() -> dict:
    """The derived current (or the report message) of each derivation:
    W3 at c = 100 with and without its pin, and W3^(2) at c = -2 with the
    modified ghosts, cut at generator-degree 3, with and without its
    pins."""
    w3_alg = bundle("w3_brst", w3(100), w3_ghosts(0, 0))
    w3_lead = [_mono(w3_alg, ("T", 0), ("cT", 0)),
               _mono(w3_alg, ("W", 0), ("cW", 0))]
    w32_alg = bundle("w32_brst", w32(-2), w32_ghosts(modified=True))
    w32_lead = [_mono(w32_alg, ("T", 0), ("cT", 0)),
                _mono(w32_alg, ("U", 0), ("cU", 0)),
                _mono(w32_alg, ("Gp", 0), ("cp", 0)),
                _mono(w32_alg, ("Gm", 0), ("cm", 0))]
    cases = {
        "w3 c=100": (w3_alg, w3_lead, [], None),
        "w3 c=100 pinned": (w3_alg, w3_lead,
                            [_mono(w3_alg, ("T", 1), ("cW", 0))], None),
        "w32 c=-2 pinned max_degree=3": (
            w32_alg, w32_lead,
            [_mono(w32_alg, ("U", 1), ("cT", 0)),
             _mono(w32_alg, ("Gp", 0), ("cm", 0)),
             _mono(w32_alg, ("Gm", 0), ("cp", 0))], 3),
        "w32 c=-2 max_degree=3": (w32_alg, w32_lead, [], 3),
    }
    out = {}
    for name, (alg, lead, pin, max_degree) in cases.items():
        q, rep = derive_brst(alg, lead, pinned=pin, max_degree=max_degree)
        out[name] = (format_field_expr(q.expr) if q is not None
                     else {"message": rep.message})
    return out


def run_tables() -> str:
    """``format_algebra_file`` of each load of ``TABLE_LOADS``, each after
    a comment line naming the table and its bound values."""
    out = []
    for stem, values in TABLE_LOADS:
        at = " ".join(f"{p}={v}" for p, v in values.items())
        out.append(f"# {stem} {at or 'symbolic'}\n"
                   + format_algebra_file(load_bundled(stem, **values)))
    return "".join(out)


def run_currents() -> str:
    """``format_field_expr`` of each current of ``CURRENT_LOADS``, each
    after a comment line naming the builder and its arguments."""
    out = []
    for builder, kwargs in CURRENT_LOADS:
        at = " ".join(f"{k}={v}" for k, v in kwargs.items())
        out.append(f"# {builder.__name__} {at}\n"
                   + format_field_expr(builder(**kwargs).expr) + "\n")
    return "".join(out)


def run_digests() -> dict:
    """The sha256 of each oracle crosscheck's stdout, by table and level;
    every one of them exits 0."""
    out = {}
    for table in ("w3_ghosts_free", "w32_ghosts_free"):
        out[table] = {}
        for level in range(9):
            text = run_command(f"oracle crosscheck {table} --level {level}")
            code, stdout = text.split("\n", 1)
            assert code == "exit 0", (table, level)
            out[table][str(level)] = hashlib.sha256(
                stdout.encode()).hexdigest()
    return out


def test_golden_bundled_tables():
    assert run_tables() == TABLES_GOLDEN.read_text(encoding="utf-8")


def test_golden_brst_currents():
    assert run_currents() == CURRENTS_GOLDEN.read_text(encoding="utf-8")


def test_golden_oracle_digests():
    expected = json.loads(DIGESTS_GOLDEN.read_text(encoding="utf-8"))
    assert run_digests() == expected


def test_golden_derivations():
    expected = json.loads(DERIVE_GOLDEN.read_text(encoding="utf-8"))
    assert run_derivations() == expected


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_output(command):
    expected = golden_path(command).read_text(encoding="utf-8")
    assert run_command(command) == expected


@pytest.mark.parametrize("command", MESSAGES)
def test_golden_message(command):
    expected = json.loads(MESSAGES_GOLDEN.read_text(encoding="utf-8"))
    assert run_message(command) == expected[command]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    MESSAGES_GOLDEN.write_text(
        json.dumps({c: run_message(c) for c in MESSAGES}, indent=2) + "\n",
        encoding="utf-8")
    print(f"recorded {MESSAGES_GOLDEN.name}", file=sys.stderr)
    DERIVE_GOLDEN.write_text(json.dumps(run_derivations(), indent=2) + "\n",
                             encoding="utf-8")
    print(f"recorded {DERIVE_GOLDEN.name}", file=sys.stderr)
    TABLES_GOLDEN.write_text(run_tables(), encoding="utf-8")
    print(f"recorded {TABLES_GOLDEN.name}", file=sys.stderr)
    CURRENTS_GOLDEN.write_text(run_currents(), encoding="utf-8")
    print(f"recorded {CURRENTS_GOLDEN.name}", file=sys.stderr)
    DIGESTS_GOLDEN.write_text(json.dumps(run_digests(), indent=2) + "\n",
                              encoding="utf-8")
    print(f"recorded {DIGESTS_GOLDEN.name}", file=sys.stderr)
    for command in COMMANDS:
        golden_path(command).write_text(run_command(command), encoding="utf-8")
        print(f"recorded {golden_path(command).name}", file=sys.stderr)
