"""Self-test of the benchmark.

    python3 perfbench/selftest.py

For each workload of BENCHMARK.json, on seed ``SEED``, it
  * runs the benchmark untraced and prints every end-to-end metric of
    BENCHMARK.json by name and unit;
  * runs two traced runs and requires every count to repeat exactly.
It requires that a raise which is not a known defect of the program is
judged a wrong verdict, and a known one is only counted.  Then, in a copy
of the benchmark's files, it requires a non-zero exit and no result line
from a run in a directory that holds only BENCHMARK.json and those files,
and a non-zero exit from a run judged against a deliberately wrong known
answer.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 7


def bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd)
    result = None
    lines = proc.stdout.strip().splitlines()
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stderr


def check_raises(problems):
    """Only the known defects may raise without a wrong verdict."""
    answers = json.loads((HERE / "known_answers.json").read_text())

    def cmd(argv, raised=None, code=None):
        return {"argv": argv, "code": code, "raised": raised, "payload": None}

    crash = "ZeroDivisionError: singular matrix"
    pole = answers["singular_c"]["w3"][0]
    cases = [  # (check, commands, a wrong verdict expected)
        ({"kind": "critical", "family": "w3"},
         [cmd(["cft", "critical", "w3"], crash)], True),
        ({"kind": "brst_c", "family": "w3", "c": "7/2"},
         [cmd(["cft", "brst", "w3", "--c=7/2"], crash)], True),
        ({"kind": "brst_c", "family": "w3", "c": pole},
         [cmd(["cft", "brst", "w3", f"--c={pole}"], crash)], False),
        ({"kind": "qla_bundled"},
         [cmd(["qla", "check", "so3"], code=0),
          cmd(["qla", "brst", "so3"], crash)], True),
        ({"kind": "qla_mutation", "mutation": "sigma 1 1 1 1 += 1"},
         [cmd(["qla", "check", "m.qla"], crash),
          cmd(["qla", "brst", "m.qla"], code=1)], True),
        ({"kind": "qla_mutation", "mutation": "sigma 1 1 1 1 += 1"},
         [cmd(["qla", "check", "m.qla"], code=1),
          cmd(["qla", "brst", "m.qla"], crash)], False),
        ({"kind": "oracle", "table": "w3_ghosts_free"},
         [cmd(["oracle", "crosscheck", "w3_ghosts_free"], crash)], True),
    ]
    for check, cmds, want_wrong in cases:
        raised, wrong = run.outcome(check, cmds, answers)
        if not raised or bool(wrong) != want_wrong:
            problems.append(f"a raise in {[c['argv'] for c in cmds]} was "
                            f"{'judged wrong' if wrong else 'only counted'}")
    print(f"raises: {len(cases)} cases judged")


def main():
    problems = []

    for workload in WORKLOADS:
        code, result, err = bench(workload, 0)
        if code != 0 or result is None or not result["correct"]:
            problems.append(f"{workload}: untraced run failed: {err[-500:]}")
            continue
        print(f"{workload}: {result['attempted']} checks, "
              f"{result['failed']} failed")
        for metric in BENCHMARK["end_to_end"]:
            got = result["metrics"].get(metric["name"])
            if got is None or got["unit"] != metric["unit"]:
                problems.append(f"{workload}: {metric['name']} missing")
                continue
            print(f"  {metric['name']} = {got['value']:.6g} {got['unit']}")
        counts = []
        for _ in range(2):
            code, result, err = bench(workload, 1)
            if code != 0 or result is None:
                problems.append(f"{workload}: traced run failed: {err[-500:]}")
                break
            missing = {m["name"] for m in BENCHMARK["per_layer"]} \
                - set(result["metrics"])
            if missing:
                problems.append(f"{workload}: per-layer {sorted(missing)} missing")
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if v["unit"] == "count"})
        if len(counts) == 2:
            diff = {k for k in counts[0] if counts[0][k] != counts[1].get(k)}
            print(f"  {len(counts[0])} trace counts, "
                  + (f"differing: {sorted(diff)}" if diff else "identical"))
            if diff:
                problems.append(f"{workload}: trace counts differ: {sorted(diff)}")

    check_raises(problems)

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        copy = Path(tmp)
        shutil.copytree(HERE, copy / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", copy)
        code, result, _ = bench("qla", 0, cwd=copy)
        print(f"without the program: exit {code}")
        if code == 0 or result is not None:
            problems.append("a run without the program did not fail")

        os.symlink(ROOT / "src", copy / "src")
        answers_file = copy / "perfbench" / "known_answers.json"
        answers = json.loads(answers_file.read_text())
        answers["critical_c"]["w3"] = "26"
        answers_file.write_text(json.dumps(answers))
        code, result, _ = bench("cft", 0, cwd=copy)
        print(f"wrong known answer: exit {code}")
        if code == 0 or (result and result["correct"]):
            problems.append("a wrong known answer was not caught")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
