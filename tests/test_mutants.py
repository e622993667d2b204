"""The exit-code contract on mutated definition files.

Each bundled ``.alg``, ``.brst`` and ``.qla`` file is mutated one token at
a time: a token of a definition (comments are left alone) is dropped,
duplicated or swapped with the next one.  A seeded sample of these
mutants runs in process through ``cli.main``, with the commands that read
the file's kind.  Every run must return 0 (pass), 1 (a check failed) or 2
(bad input) without raising, within ``WALL_S`` seconds: a mutant whose
rewriting runs away exits 2 once the engine's fuel is spent.
"""

import contextlib
import io
import pathlib
import random
import re
import time

import pytest

from wbrst.cli import main

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "wbrst" / "data"

# the commands that read each kind of file, the file in place of None
KIND_COMMANDS = {
    ".alg": (("cft", "validate", None),
             ("oracle", "crosscheck", None, "--level", "1")),
    ".brst": (("cft", "brst", None), ("cft", "critical", None)),
    ".qla": (("qla", "check", None), ("qla", "brst", None)),
}
TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|\S")
MUTANTS_PER_FILE = 60
WALL_S = 10.0


def tokens(text):
    """(start, end) of every token outside comments, in file order."""
    out, offset = [], 0
    for line in text.splitlines(keepends=True):
        code = line.split("#", 1)[0]
        out += [(offset + m.start(), offset + m.end())
                for m in TOKEN.finditer(code)]
        offset += len(line)
    return out


def mutants(text, rng, count):
    """``count`` (label, text) mutants, each changing one token."""
    spans = tokens(text)
    for _ in range(count):
        i = rng.randrange(len(spans))
        a, b = spans[i]
        kind = rng.choice(("drop", "duplicate", "swap"))
        if kind == "drop":
            yield f"drop {i}", text[:a] + text[b:]
        elif kind == "duplicate" or i + 1 == len(spans):
            # a space keeps the copy a token of its own: 3 -> 3 3, not 33
            yield f"duplicate {i}", text[:b] + " " + text[a:b] + text[b:]
        else:
            c, d = spans[i + 1]
            yield (f"swap {i}",
                   text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:])


def test_mutants_change_one_token():
    text = "dim 3  # a comment\nc 1 2 = -1\n"
    assert [text[a:b] for a, b in tokens(text)] == [
        "dim", "3", "c", "1", "2", "=", "-", "1"]
    seen = {label.split()[0]: mutant
            for label, mutant in mutants(text, random.Random(1), 40)}
    assert set(seen) == {"drop", "duplicate", "swap"}
    for mutant in seen.values():
        assert mutant != text and mutant.endswith("\n")
        assert "# a comment\n" in mutant


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.iterdir()))
def test_mutated_file_keeps_the_exit_code_contract(tmp_path, name):
    path = DATA / name
    rng = random.Random(name)  # str seeds are hashed stably
    for k, (label, text) in enumerate(mutants(
            path.read_text(encoding="utf-8"), rng, MUTANTS_PER_FILE)):
        mutant = tmp_path / f"m{k}{path.suffix}"
        mutant.write_text(text, encoding="utf-8")
        for command in KIND_COMMANDS[path.suffix]:
            argv = [str(mutant) if a is None else a for a in command]
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv + ["--json"])
            wall = time.perf_counter() - start
            where = (name, label, command[:2])
            assert code in (0, 1, 2), where
            assert wall < WALL_S, where
            assert "Traceback" not in err.getvalue(), where
