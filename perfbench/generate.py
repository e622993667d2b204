"""Seeded inputs for the benchmark workloads.

``workload(name, seed, pass_index, ...)`` returns one pass: the list of
checks the client issues, in order.  A check is a dict with a ``kind`` (the key its
verdict is judged by in ``run.py``), the ``commands`` a fresh worker runs
(CLI argument lists, or a ``["derive_brst", family]`` library call) and the
drawn parameters the judgement needs.  The same seed gives the same checks
and the same ``.qla`` files; the program only sees these generated inputs.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

# Generator triples the acceptance suite checks for Jacobi identities
# (tests/test_acceptance.py::test_table_validation_and_jacobi): every triple
# of every table, except the symbolic w3 triples above total weight 7.
_JACOBI_GENERATORS = {
    "w3": ("T", "W"),
    "w32": ("T", "U", "Gp", "Gm"),
    "w3_ghosts": ("bT", "cT", "bW", "cW"),
    "w32_ghosts": ("bT", "cT", "bU", "cU", "cp", "bp", "cm", "bm"),
}
_WEIGHTS = {"T": 2, "W": 3}

QLA_DATASETS = ("so3", "super_ef", "lyubashenko")
# mutations per dataset, split between sigma and C in proportion to their
# slot counts (n^4 and n^3), so every seed has the same mix
QLA_MUTATIONS_PER_DATASET = 4
ORACLE_TABLES = ("w3_ghosts_free", "w32_ghosts_free")
ORACLE_LEVEL = 4

# Seconds of the run budget one pass stands for: a run makes
# max(1, round(seconds / PASS_SECONDS)) passes, each with its own draws.
# A fixed count keeps the work of a run the same on fast and slow machines.
PASS_SECONDS = {"cft": 14, "qla": 3, "oracle": 30}


def jacobi_triples():
    out = []
    for table, gens in _JACOBI_GENERATORS.items():
        for triple in itertools.combinations_with_replacement(gens, 3):
            if table == "w3" and sum(_WEIGHTS[g] for g in triple) > 7:
                continue
            out.append((table, triple))
    return out


def _rational(rng, avoid):
    """A small nonzero rational outside ``avoid``."""
    while True:
        value = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        if value and value not in avoid:
            return value


def _opt(name, value):
    # one token, so argparse accepts negative values ("--g2=-5/11")
    return f"--{name}={value}"


def cft_checks(rng, answers):
    critical = {f: Fraction(v) for f, v in answers["critical_c"].items()}
    singular = {f: [Fraction(v) for v in vs]
                for f, vs in answers["singular_c"].items()}
    avoid = {v for vs in singular.values() for v in vs} | set(critical.values())
    checks = []
    for family in ("w3", "w32"):
        checks.append({"kind": "critical", "family": family,
                       "commands": [["cft", "critical", family]]})
    checks.append({"kind": "brst_symbolic", "family": "w3", "commands": [
        ["cft", "brst", "w3", "--symbolic-c", "--g1", "symbolic",
         "--g2", "symbolic"]]})
    checks.append({"kind": "brst_symbolic", "family": "w32", "commands": [
        ["cft", "brst", "w32", "--symbolic-c"]]})
    checks.append({"kind": "validate", "a2": "consistent",
                   "commands": [["cft", "validate", "w3"]]})
    checks.append({"kind": "validate", "a2": "printed",
                   "commands": [["cft", "validate", "w3", "--a2", "printed"]]})
    for table, triple in rng.sample(jacobi_triples(), 4):
        checks.append({"kind": "jacobi",
                       "commands": [["cft", "jacobi", table, *triple]]})
    # numeric c: generic draws, the critical value and a table pole.  The
    # counts place the median check among the numeric w3 currents, a
    # cluster of similar cost, so the median does not hop between clusters.
    for family, generic in (("w3", 9), ("w32", 1)):
        draws = [_rational(rng, avoid) for _ in range(generic)]
        for c in (*draws, critical[family], rng.choice(singular[family])):
            checks.append({"kind": "brst_c", "family": family, "c": str(c),
                           "commands": [["cft", "brst", family,
                                         _opt("c", c)]]})
    g1, g2 = _rational(rng, set()), _rational(rng, set())
    checks.append({"kind": "brst_ghosts", "g1": str(g1), "g2": str(g2),
                   "commands": [["cft", "brst", "w3", _opt("c", 100),
                                 _opt("g1", g1), _opt("g2", g2)]]})
    point = answers["conventional_point"]
    checks.append({"kind": "brst_conventional", "commands": [
        ["cft", "brst", "w3", _opt("g1", point["g1"]),
         _opt("g2", point["g2"])]]})
    checks.append({"kind": "solve_conventional",
                   "commands": [["cft", "solve-conventional"]]})
    for c in (_rational(rng, avoid), rng.choice(singular["w3"])):
        checks.append({"kind": "ope_ww", "c": str(c), "commands": [
            ["cft", "ope", "w3", "W", "W", "--set", f"c={c}"]]})
    for family in ("w3", "w32"):
        checks.append({"kind": "derive", "family": family,
                       "commands": [["derive_brst", family]]})
    return checks


def _qla_entries(text):
    """(header lines, {(head, indices): value}, phi mode) of a .qla file."""
    header, entries, phi = [], {}, None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()[0]
        if head in ("dim", "parities"):
            header.append(line)
        elif head == "phi" and line.split()[1] == "=":
            phi = line.split()[2]
        else:
            lhs, _, rhs = line.partition("=")
            parts = lhs.split()
            entries[(parts[0], tuple(int(x) for x in parts[1:]))] = \
                Fraction(rhs.strip())
    return header, entries, phi


def _qla_text(header, entries, phi, phi_entries):
    lines = list(header)
    lines += [f"{head} {' '.join(map(str, idx))} = {value}"
              for (head, idx), value in sorted(entries.items()) if value]
    if phi_entries is not None:
        # the twist of the parent dataset, kept fixed under the mutation
        lines += [f"phi {' '.join(map(str, idx))} = {value}"
                  for (_, idx), value in sorted(phi_entries.items())]
    elif phi is not None:
        lines.append(f"phi = {phi}")
    return "\n".join(lines) + "\n"


def qla_checks(rng, data_dir: Path, workdir: Path):
    checks = []
    for name in QLA_DATASETS:
        checks.append({"kind": "qla_bundled", "file": name, "commands": [
            ["qla", "check", name], ["qla", "brst", name]]})
    for name in QLA_DATASETS:
        header, entries, phi = _qla_entries(
            (data_dir / f"{name}.qla").read_text(encoding="utf-8"))
        n = int(header[0].split()[1])
        n_sigma = round(QLA_MUTATIONS_PER_DATASET * n / (n + 1))
        slots = (rng.sample([("sigma", idx) for idx in itertools.product(
                     range(1, n + 1), repeat=4)], n_sigma)
                 + rng.sample([("c", idx) for idx in itertools.product(
                     range(1, n + 1), repeat=3)],
                     QLA_MUTATIONS_PER_DATASET - n_sigma))
        phi_entries = ({k: v for k, v in entries.items() if k[0] == "sigma"}
                       if phi == "sigma" else None)
        for slot in slots:
            mutated = dict(entries)
            mutated[slot] = mutated.get(slot, Fraction(0)) + 1
            path = workdir / f"{name}-{slot[0]}-{''.join(map(str, slot[1]))}.qla"
            path.write_text(_qla_text(header, mutated, None if phi_entries
                                      else phi, phi_entries), encoding="utf-8")
            checks.append({"kind": "qla_mutation", "file": path.name,
                           "mutation": f"{slot[0]} {' '.join(map(str, slot[1]))} += 1",
                           "commands": [["qla", "check", str(path)],
                                        ["qla", "brst", str(path)]]})
    return checks


def oracle_checks(rng):
    return [{"kind": "oracle", "table": t, "commands": [
        ["oracle", "crosscheck", t, "--level", str(ORACLE_LEVEL)]]}
        for t in ORACLE_TABLES]


def workload(name, seed, pass_index, answers, data_dir: Path, workdir: Path):
    """The checks of one pass; each pass of a run draws its own inputs."""
    rng = random.Random(f"{name}:{seed}:{pass_index}")
    if name == "cft":
        checks = cft_checks(rng, answers)
    elif name == "qla":
        checks = qla_checks(rng, data_dir, workdir)
    elif name == "oracle":
        checks = oracle_checks(rng)
    else:
        raise ValueError(f"unknown workload {name!r}")
    # Checks of one kind cost alike; spread over the pass, they sample the
    # machine at different moments, so a slow spell does not move a median.
    rng.shuffle(checks)
    return checks
