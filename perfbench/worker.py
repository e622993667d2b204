"""A worker: one fresh interpreter that imports the program once and runs
each check in a process forked from that state, as a command line user
who has just started it.

    python3 worker.py SRC

Only ``sys`` and ``time`` are loaded before the timed import of
``wbrst.cli``; the first line the worker prints is ``{"setup_s": ...}``.
Then, for each check it reads as one JSON line on stdin (see
``generate.py``), it forks a child that runs the check's commands in order
and prints one JSON line: each command's exit code, output, any exception
it raised and its time, the child's peak resident set size and, for a
traced check, the per-layer trace.  Nothing of the program runs in the
worker itself, so each child starts with the module-level state a fresh
import leaves: the scalar cancel cache and the parameter registry are cold,
and nothing leaks from one check to the next.  The worker ends when stdin
closes.
"""

import sys
import time


def _derive(family):
    """The acceptance-test derivation of a BRST current (no subcommand)."""
    from wbrst.algebras import bundle, w3, w32, w3_ghosts, w32_ghosts
    from wbrst.brst import derive_brst, nilpotency
    from wbrst.fields import Monomial

    def mono(alg, *factors):
        return Monomial(tuple(sorted(factors, key=alg.factor_key)))

    if family == "w3":
        alg = bundle("w3_brst", w3(100), w3_ghosts(0, 0))
        lead = [mono(alg, ("T", 0), ("cT", 0)), mono(alg, ("W", 0), ("cW", 0))]
        pin = [mono(alg, ("T", 1), ("cW", 0))]
        q, rep = derive_brst(alg, lead, pinned=pin)
    else:
        alg = bundle("w32_brst", w32(-2), w32_ghosts(modified=True))
        lead = [mono(alg, ("T", 0), ("cT", 0)), mono(alg, ("U", 0), ("cU", 0)),
                mono(alg, ("Gp", 0), ("cp", 0)), mono(alg, ("Gm", 0), ("cm", 0))]
        pin = [mono(alg, ("U", 1), ("cT", 0)), mono(alg, ("Gp", 0), ("cm", 0)),
               mono(alg, ("Gm", 0), ("cp", 0))]
        q, rep = derive_brst(alg, lead, pinned=pin, max_degree=3)
    if q is None:
        return {"derived": False, "message": rep.message if rep else None}
    return {"derived": True, "verdict": nilpotency(q).to_json()["verdict"]}


def run_check(spec, cli):
    """The result of one check's commands, run in this process."""
    import contextlib
    import io
    import json
    import resource

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    results = []
    for argv in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        result = {"argv": argv, "code": None, "raised": None, "payload": None}
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if argv[0] == "derive_brst":
                    result["payload"] = _derive(argv[1])
                    result["code"] = 0
                else:
                    result["code"] = cli.main(argv + ["--json"])
        except SystemExit as exc:  # argparse rejecting the arguments
            result["code"] = exc.code
        except Exception as exc:  # a defect: counted, never hidden
            result["raised"] = f"{type(exc).__name__}: {exc}"
        result["seconds"] = time.perf_counter() - t
        if result["payload"] is None and out.getvalue().strip():
            try:
                result["payload"] = json.loads(out.getvalue())
            except ValueError:  # judged as a wrong verdict, not a crash
                result["payload"] = {"unparsed": out.getvalue()[-500:]}
        result["stderr"] = err.getvalue()[-500:]
        results.append(result)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"rss_mb": rss_mb, "commands": results,
            "trace": tracer.report() if tracer else None}


def main():
    t0 = time.perf_counter()
    import wbrst.cli
    setup_s = time.perf_counter() - t0

    import json
    import os
    import traceback

    src = os.path.realpath(sys.argv[1])
    if not os.path.realpath(wbrst.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"wbrst imported from {wbrst.cli.__file__}, not {src}")
    print(json.dumps({"setup_s": setup_s}), flush=True)
    for line in sys.stdin:
        spec = json.loads(line)
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child runs the check and never returns
            os.close(read_end)
            code = 1
            try:
                data = json.dumps(run_check(spec, wbrst.cli)) + "\n"
                with os.fdopen(write_end, "w") as pipe:
                    pipe.write(data)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stderr.flush()
                os._exit(code)
        os.close(write_end)
        with os.fdopen(read_end) as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0 or not data:
            raise SystemExit(f"the check {spec['commands']} ended without "
                             f"a result (status {status})")
        sys.stdout.write(data)
        sys.stdout.flush()


if __name__ == "__main__":
    main()
