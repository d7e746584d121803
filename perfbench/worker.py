"""Runs one workload in this interpreter and prints its result.

Started by ``run.py``; not meant to be run by hand.  Protocol on stdout:
one ``READY <t>`` line when set-up ends (``t`` read from CLOCK_MONOTONIC,
which every process on the host shares), then, unless ``--setup-only``, one
JSON line: the finished result with ``--trace 1``, else the raw counts, round
times and peak RSS that run.py combines.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

# The console-script entry point of the package, run in a fresh interpreter.
CLI_ENTRY = "import sys; from jointmix.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 120.0

_NULL_SPAN = contextlib.nullcontext()


class Tracer:
    """In-memory spans: name, start, end and the enclosing span's id."""

    def __init__(self, on: bool):
        self.on = on
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name, **attrs):
        return self._span(name, attrs) if self.on else _NULL_SPAN

    @contextlib.contextmanager
    def _span(self, name, attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class CliRunner:
    """Runs jointmix CLI calls one at a time and times them from outside."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.max_rss_mb = 0.0

    def __call__(self, args, python_args=None):
        """Run ``jointmix <args>``; return (seconds, exit code, stdout, peak RSS in MB)."""
        out_path = self.work / "stdout.txt"
        argv = [sys.executable, *(python_args or ["-c", CLI_ENTRY]), *map(str, args)]
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        killer = threading.Timer(CLI_TIMEOUT_S, _kill, (pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
        rss_mb = usage.ru_maxrss / 1024.0
        self.max_rss_mb = max(self.max_rss_mb, rss_mb)
        code = os.waitstatus_to_exitcode(status)
        if code < 0:
            raise RuntimeError(f"jointmix {' '.join(map(str, args))} killed by signal {-code}")
        return seconds, code, out_path.read_text(), rss_mb


def _kill(pid):
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def measure(ops, seconds, tracer):
    """Run whole rounds of ``ops`` until ``seconds`` of wall time have passed.

    Each op's ``run(tracer)`` returns (busy seconds, output); its
    ``check(output)`` raises when the output is wrong.  An op that raises in
    ``run`` counts as failed; a wrong output makes the run incorrect.
    ``op_s`` maps each kind of op to the busy seconds of every op of that
    kind that completed; ``kinds`` is the kind of each op of the list.
    """
    attempted = failed = rounds = 0
    correct = True
    op_s = {op.kind: [] for op in ops}
    deadline = time.monotonic() + seconds
    while True:
        rounds += 1
        for op in ops:
            attempted += 1
            with tracer.span("op", op=op.name):
                try:
                    dt, output = op.run(tracer)
                except Exception as exc:  # a failed operation is counted, not fatal
                    failed += 1
                    print(f"FAILED {op.name}: {exc!r}", file=sys.stderr)
                    continue
            op_s[op.kind].append(dt)
            try:
                op.check(output)
            except Exception as exc:  # malformed output is wrong output
                correct = False
                print(f"WRONG {op.name}: {exc}", file=sys.stderr)
        if time.monotonic() >= deadline:
            break
    return {"attempted": attempted, "failed": failed, "correct": correct,
            "rounds": rounds, "op_s": op_s, "kinds": [op.kind for op in ops]}


def ops_per_s(parts):
    """Completed operations per round over the time of a typical round, across
    the rounds of all ``parts`` (results of ``measure``).

    The typical round is the sum over the list's operations of the median
    busy time of the operation's kind, so a few seconds in which the host
    runs faster or slower than usual move only the operations that fell in
    them, not the whole figure.  A kind that never completed adds nothing.
    """
    rounds = sum(p["rounds"] for p in parts)
    done = sum(p["attempted"] - p["failed"] for p in parts)
    typical = 0.0
    for kind in parts[0]["kinds"]:
        times = [t for p in parts for t in p["op_s"][kind]]
        typical += statistics.median(times) if times else 0.0
    return done / rounds / typical if typical > 0 else 0.0


def _check_source():
    import jointmix

    src = (ROOT / "src").resolve()
    if src not in Path(jointmix.__file__).resolve().parents:
        raise SystemExit(f"jointmix imported from {jointmix.__file__}, not from {src}")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    _check_source()
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, work)
    print(f"READY {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer(bool(args.trace))
    res = measure(wl.ops, args.seconds, tracer)
    if args.trace:
        import layers

        metrics = layers.run(tracer, args.seed, work, wl.runner)
        metrics["trace.ops_per_s"] = (ops_per_s([res]), "1/s")
        tracer.dump(WORK / f"trace-{args.workload}-{args.seed}.json")
        result = {k: res[k] for k in ("correct", "attempted", "failed")}
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        result = dict(res)
        if wl.runner is not None:
            result["peak_rss_mb"] = wl.runner.max_rss_mb
        else:
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.cleanup()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
