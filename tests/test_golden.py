"""Golden CLI outputs: the ``--json`` stdout and exit code of fixed commands.

Every CLI example of README.md, plus the fully symbolic BRST and critical
charge reports and a failing axiom check, must print exactly the recorded
bytes.  Commands run from the root of the repository.  Each file in
``tests/golden/`` holds one command: a first line ``exit N``, then the
stdout verbatim.  To record them again (only when an output change is
intended), run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import os
import pathlib
import re
import sys

import pytest

from wbrst.cli import main

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
    # symbolic reports, where cancellation does most of the work
    "cft brst w3 --symbolic-c --g1 symbolic --g2 symbolic",
    "cft brst w32 --symbolic-c",
    "cft critical w3",
    # so3 with C^3_{12} = 2: the residual entries of the failing checks
    "qla check tests/data/so3_bad_c.qla",
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


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_output(command):
    expected = golden_path(command).read_text(encoding="utf-8")
    assert run_command(command) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for command in COMMANDS:
        golden_path(command).write_text(run_command(command), encoding="utf-8")
        print(f"recorded {golden_path(command).name}", file=sys.stderr)
