"""Time-to-verdict benchmark for the wbrst checker.

    python3 perfbench/run.py --workload cft --seed 1 --seconds 30 --trace 0

One client issues one check at a time (a closed loop), each in a fresh
process forked from a worker (``worker.py``) that has only imported the
program, and judges every verdict against the hand-written
``known_answers.json``.  A pass runs one seeded draw of the workload's
checks; a run makes one pass per ``generate.PASS_SECONDS`` of ``--seconds``
(at least one), each pass with its own draw, and serves its checks from
``WORKERS`` fresh workers in turn.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics.  The last
line of standard output is the JSON result.  A verdict that differs from
the known answer makes the run exit 1.  A command that raises is a failed
check, counted in ``failed`` and never hidden; only a raise that is a known
defect of the program (``known_defect``) leaves the run correct, any other
raise is a wrong verdict.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench"
# a run stops with exit 1 once it has taken this many times the seconds its
# passes (generate.PASS_SECONDS) and its workers' imports (IMPORT_SECONDS
# each) stand for, so a slow program is measured and only a hung one is cut
DEADLINE_FACTOR = 20
IMPORT_SECONDS = 1
# an untraced run serves its checks from this many fresh workers in turn
# (on oracle some serve none), so setup_s is a median of this many imports
# spread over the run
WORKERS = 12
# seconds a stopping worker gets to end by itself, and its children to be
# gone once it is killed
STOP_SECONDS = 10

# the metric names and units every result line reports
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class HarnessError(Exception):
    """The benchmark itself could not run a check."""


# -- verdicts ----------------------------------------------------------------


def _pole_coefficient(text):
    """The rational coefficient of a pole printed as a multiple of ``one``."""
    coeff, star, unit = text.rpartition("*")
    if not star or unit != "one":
        return None
    return Fraction(coeff.strip("()"))


def judge(check, cmds, answers):
    """None when the verdict matches the known answer, else the mismatch."""
    kind = check["kind"]
    codes = [c["code"] for c in cmds]
    out = cmds[0]["payload"] or {}
    critical = answers.get("critical_c", {}).get(check.get("family"))
    singular = answers["singular_exit_code"]

    def need(ok, what):
        return None if ok else f"{what}; got exit {codes}, output {out}"

    if kind == "critical":
        return need(codes == [0] and out["roots"] == [critical],
                    f"roots [{critical}]")
    if kind == "brst_symbolic":
        return need(codes == [1] and out["verdict"] == "obstructed"
                    and out["critical_roots"] == [critical],
                    f"obstructed for symbolic c, critical roots [{critical}]")
    if kind == "validate":
        if check["a2"] == "consistent":
            return need(codes == [0] and out["ok"] is True, "a consistent table")
        issue = answers["printed_a2_issue"]
        return need(codes == [1] and out["issues"]
                    and all(issue in i for i in out["issues"]),
                    f"every issue at {issue!r}")
    if kind == "jacobi":
        return need(codes == [0] and out["ok"] is True
                    and out["residuals"] == [], "no Jacobi residual")
    if kind == "brst_c":
        c = Fraction(check["c"])
        if check["c"] in answers["singular_c"][check["family"]]:
            return need(codes == [singular], f"exit {singular} at a table pole")
        if c == Fraction(critical):
            return need(codes == [0] and out["verdict"] == "nilpotent",
                        "nilpotent at the critical charge")
        return need(codes == [1] and out["verdict"] == "obstructed",
                    "obstructed away from the critical charge")
    if kind == "brst_ghosts":
        return need(codes == [0] and out["verdict"] == "nilpotent"
                    and out["unconventional_terms"],
                    "nilpotent, with degree>3 terms off the conventional point")
    if kind == "brst_conventional":
        return need(codes == [0] and out["verdict"] == "nilpotent"
                    and out["unconventional_terms"] == [],
                    "nilpotent with no degree>3 term")
    if kind == "solve_conventional":
        return need(codes == [0] and out == answers["conventional_point"],
                    f"the point {answers['conventional_point']}")
    if kind == "ope_ww":
        if check["c"] in answers["singular_c"]["w3"]:
            return need(codes == [singular], f"exit {singular} at a table pole")
        want = Fraction(check["c"]) * Fraction(answers["ww_sixth_pole_over_c"])
        return need(codes == [0] and _pole_coefficient(
            out["poles"].get("6", "")) == want, f"sixth pole {want}*one")
    if kind == "derive":
        return need(codes == [0] and out.get("derived")
                    and out["verdict"] == answers["derive_brst"],
                    f"a derived current, {answers['derive_brst']}")
    if kind == "qla_bundled":
        brst = cmds[1]["payload"] or {}
        return need(codes == [0, 0] and out["ok"] is True
                    and brst["verdict"] == "nilpotent",
                    "all axioms pass and Q^2 = 0")
    if kind == "qla_mutation":
        rejected = any(code in (1, 2) for code in codes)
        return need(rejected == (answers["qla_mutation"] == "rejected"),
                    f"mutation {check['mutation']} {answers['qla_mutation']}")
    if kind == "oracle":
        want = answers["oracle_central_charges"][check["table"]]
        got = {s["b"]: Fraction(s["central_charge"])
               for s in out.get("systems", ())}
        return need(codes == [0] and out["ok"] is True
                    and got == {b: Fraction(v) for b, v in want.items()},
                    f"engine and modes agree, central charges {want}")
    raise HarnessError(f"no known answer for check kind {kind!r}")


def verdict(check, cmds, answers):
    try:
        return judge(check, cmds, answers)
    except (KeyError, TypeError, ValueError) as err:
        return f"output of the expected shape ({type(err).__name__}: {err})"


def known_defect(check, cmd, answers):
    """True when ``cmd`` raising is a known defect of the program:
    ``qla brst`` on a mutated file, or ``cft brst`` at a table pole."""
    if check["kind"] == "qla_mutation":
        return cmd["argv"][:2] == ["qla", "brst"]
    return (check["kind"] == "brst_c"
            and check["c"] in answers["singular_c"][check["family"]])


def outcome(check, cmds, answers):
    """(raises, mismatch) of one check's commands.  A raise that is not a
    known defect is a wrong verdict; a known one is counted, not judged."""
    raised = [c["raised"] for c in cmds if c["raised"]]
    for cmd in cmds:
        if cmd["raised"] and not known_defect(check, cmd, answers):
            return raised, f"a verdict, not the raise {cmd['raised']}"
    return raised, None if raised else verdict(check, cmds, answers)


# -- running -----------------------------------------------------------------


class Worker:
    """A running ``worker.py``: one fresh import of the program, then one
    forked child per check.  ``setup_s`` is the import's time."""

    def __init__(self, env, deadline, errlog):
        self.deadline = deadline
        self.errlog = errlog
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(SRC)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=errlog, text=True, env=env,
            cwd=ROOT, start_new_session=True)
        try:
            self.setup_s = self._reply("the import")["setup_s"]
        except BaseException:
            self.stop()
            raise

    def _reply(self, what):
        budget = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0, budget))
        if not ready:
            raise HarnessError(f"{what} had not ended when the run's time was up")
        line = self.proc.stdout.readline()
        if not line:
            self.errlog.flush()
            with open(self.errlog.name, encoding="utf-8") as log:
                raise HarnessError(f"the worker ended during {what}: "
                                   f"{log.read().strip()[-2000:]}")
        return json.loads(line)

    def run(self, check, trace):
        """The worker's result for ``check``, with the client's latency."""
        spec = {"commands": check["commands"], "trace": trace}
        t = time.perf_counter()
        try:
            self.proc.stdin.write(json.dumps(spec) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # _reply reports why the worker ended
        res = self._reply(f"the check {check['commands']}")
        res["latency_s"] = time.perf_counter() - t
        return res

    def stop(self):
        """End the worker and any child it forked, and wait for them."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=STOP_SECONDS)
            return  # the worker waits for each child before it replies
        except subprocess.TimeoutExpired:
            pass
        # the group outlives its leader until every child has ended
        os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        end = time.monotonic() + STOP_SECONDS
        while time.monotonic() < end:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def run_passes(draws, answers, trace, env, deadline, errlog, workers):
    """Issue every check of every pass once, spread over ``workers`` fresh
    workers in turn.  Returns (import times, per-pass wall seconds,
    per-check records)."""
    issued = [(k, check) for k, checks in enumerate(draws) for check in checks]
    # worker g serves the checks i with i * workers // len(issued) == g, so
    # the imports are spread over the run; a worker may serve none
    setups, walls, records = [], [0.0] * len(draws), []
    for g in range(workers):
        worker = Worker(env, deadline, errlog)
        try:
            setups.append(worker.setup_s)
            for i, (k, check) in enumerate(issued):
                if i * workers // len(issued) != g:
                    continue
                res = worker.run(check, trace)
                raised, wrong = outcome(check, res["commands"], answers)
                walls[k] += res["latency_s"]
                records.append({
                    "check": check, "rss_mb": res["rss_mb"],
                    "seconds": sum(c["seconds"] for c in res["commands"]),
                    "raised": raised, "wrong": wrong, "trace": res["trace"]})
        finally:
            worker.stop()
    return setups, walls, records


def tail(values):
    """(percentile, value) of the highest whole percentile with at least ten
    samples beyond it, or None when there is none above the median."""
    ordered = sorted(values)
    median = statistics.median(ordered)
    for pct in range(99, 50, -1):
        rank = -(-pct * len(ordered) // 100)  # nearest rank
        value = ordered[rank - 1]
        if sum(v > value for v in ordered) >= 10:
            return (pct, value) if value > median else None
    return None


def summarize_trace(records):
    total = {}
    for rec in records:
        for key, value in rec["trace"].items():
            total[key] = total.get(key, 0) + value
    return total


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("cft", "qla", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "wbrst" / "cli.py").is_file():
        print(f"error: no wbrst sources under {SRC}", file=sys.stderr)
        return 2
    answers = json.loads((HERE / "known_answers.json").read_text(
        encoding="utf-8"))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    passes = 1 if args.trace else max(1, round(
        args.seconds / generate.PASS_SECONDS[args.workload]))
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        draws = []
        for k in range(passes):
            workdir = Path(tmp) / f"pass{k}"
            workdir.mkdir()
            draws.append(generate.workload(args.workload, args.seed, k, answers,
                                           SRC / "wbrst" / "data", workdir))
        workers = 1 if args.trace else WORKERS
        # a traced run makes its one pass twice
        deadline = time.monotonic() + DEADLINE_FACTOR * (
            (2 if args.trace else passes) * generate.PASS_SECONDS[args.workload]
            + (2 if args.trace else workers) * IMPORT_SECONDS)
        with open(Path(tmp) / "workers.log", "w", encoding="utf-8") as errlog:
            try:
                # a warm-up import, untimed, so the first sample does not
                # pay for reading the program from disk
                Worker(env, deadline, errlog).stop()
                if args.trace:
                    _, (wall_u,), plain = run_passes(
                        draws, answers, 0, env, deadline, errlog, 1)
                    _, (wall_t,), traced = run_passes(
                        draws, answers, 1, env, deadline, errlog, 1)
                    records = plain + traced
                else:
                    setups, walls, records = run_passes(
                        draws, answers, 0, env, deadline, errlog, workers)
            except HarnessError as err:
                print(f"error: {err}", file=sys.stderr)
                return 1

    wrong = [r for r in records if r["wrong"]]
    failed = [r for r in records if r["raised"]]
    for rec in wrong:
        print(f"WRONG {rec['check']['commands']}: expected {rec['wrong']}",
              file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(draws)} pass(es) "
          f"of {len(draws[0])} checks, {len(records)} checks issued")
    kinds = sorted({(r["check"]["kind"], r["raised"][0]) for r in failed})
    for kind, err in kinds:
        print(f"  failed check ({kind}): {err}")
    print(f"fail_frac = {len(failed) / len(records):.4f} "
          f"({len(failed)} of {len(records)} checks raised)")

    if args.trace:
        totals = summarize_trace(traced)
        values = dict(totals, **{"trace.overhead_frac": wall_t / wall_u - 1})
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps({"untraced_wall_s": wall_u,
                                    "traced_wall_s": wall_t,
                                    "layers": totals}, indent=1,
                                   sort_keys=True) + "\n", encoding="utf-8")
        print(f"untraced pass {wall_u:.3f} s, traced pass {wall_t:.3f} s; "
              f"per-layer totals in {dump.relative_to(ROOT)}")
    else:
        # a check's time runs until its commands end, with a verdict or with
        # a known defect's raise; any other raise is a wrong verdict
        times = [r["seconds"] for r in records]
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(walls),
                  "verdict_p50_s": statistics.median(times),
                  "peak_rss_mb": max(r["rss_mb"] for r in records)}
        print("pass wall_s = " + ", ".join(f"{w:.3f}" for w in walls)
              + f"; setup_s over {len(setups)} imports")
        hi = tail(times)
        print(f"verdict_tail_s = "
              + (f"{hi[1]:.4f} s (p{hi[0]} of {len(times)} checks)"
                 if hi else f"n/a (no percentile above the median with ten "
                            f"of {len(times)} checks beyond it)"))
    result = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
              for m in METRICS["per_layer" if args.trace else "end_to_end"]}
    for name, m in result.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": len(records),
                      "failed": len(failed), "metrics": result}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
