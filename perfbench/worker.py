"""One pass of a workload, run in a fresh interpreter.

    python3 perfbench/worker.py JOB.json

The job file names the checkout's src/ directory, the fan documents and
the operations: (document index, subcommand) pairs, run one after the
other in a closed loop by this single thread.  One operation is one
`toricaut.cli.main([subcommand, document, "--json"])` call with stdout
captured.  The worker prints one JSON object: the import time, each
operation's wall time, exit code and output, the machine's speed while it
ran, the peak resident memory and, for a traced pass, the per-layer
aggregates.  With "setup_only" it only times the import.

The speed of the machine this was tuned on drifts by up to a factor of two
within a minute, for all code alike.  So the worker times a fixed piece of
pure-Python work (the speed probe) between operations and, on SIGPROF,
every SAMPLE_EVERY_S of CPU time inside them; the run divides each
operation's time by the probes taken around and during it.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import pathlib
import resource
import signal
import sys
import time
import traceback


PROBE_ROUNDS = 2000
SAMPLE_EVERY_S = 0.2


def speed_probe() -> float:
    """Seconds for a fixed piece of pure-Python work, the lesser of two tries."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        acc = {}
        for i in range(PROBE_ROUNDS):
            v = (i, i * 7 % 13, i * i % 97)
            acc[v] = sum(a * b for a, b in zip(v, v[::-1]))
        best = min(best, time.perf_counter() - start)
    return best


class SpeedSampler:
    """Speed probes with the time each was taken and the time it took."""

    def __init__(self):
        self.samples: list = []   # (end time, probe seconds, seconds spent)
        self.busy = False

    def sample(self, *_) -> None:
        if self.busy:
            return
        self.busy = True
        try:
            start = time.perf_counter()
            probe = speed_probe()
            end = time.perf_counter()
            self.samples.append((end, probe, end - start))
        finally:
            self.busy = False

    def every(self, seconds: float) -> None:
        """Also sample on SIGPROF every `seconds` of CPU time; 0 stops it."""
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, seconds, seconds)

    def annotate(self, record: dict) -> None:
        """Add the probe mean over the op's span (with the probes just before
        and after it) and the time spent sampling inside it."""
        ends = [t for t, _, _ in self.samples]
        first = max(bisect.bisect_left(ends, record["start"]) - 1, 0)
        last = bisect.bisect_right(ends, record["end"])
        inside = self.samples[first + 1:last]
        around = self.samples[first:last + 1]
        record["probe_s"] = sum(p for _, p, _ in around) / len(around)
        record["sampling_s"] = sum(d for _, _, d in inside)


class OperationTimeout(BaseException):
    """Raised by SIGALRM when an operation hits its time cap.  A
    BaseException, so no `except Exception` in the program swallows it."""


def _alarm(signum, frame):
    raise OperationTimeout()


def run_operation(main, argv: list, cap_s: float) -> dict:
    out, err = io.StringIO(), io.StringIO()
    record = {"code": None, "error": None, "kind": None}
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            record["code"] = main(argv)
    except OperationTimeout:
        record.update(kind="timeout", error=f"hit the {cap_s:g} s cap")
    except SystemExit as exc:
        record["code"] = exc.code
    except Exception as exc:  # noqa: BLE001 - the harness records every failure
        record.update(kind="exception",
                      error="".join(traceback.format_exception_only(type(exc), exc)).strip())
    finally:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    record.update(start=start, end=end, out=out.getvalue(), stderr=err.getvalue())
    return record


def main() -> None:
    job = json.loads(pathlib.Path(sys.argv[1]).read_text(encoding="utf-8"))
    probe_before = speed_probe()
    begin = time.perf_counter()
    sys.path.insert(0, job["src"])
    import toricaut  # noqa: F401
    import toricaut.cli
    setup_s = time.perf_counter() - begin
    setup_probe_s = (probe_before + speed_probe()) / 2
    if job.get("setup_only"):
        print(json.dumps({"setup_s": setup_s, "setup_probe_s": setup_probe_s}))
        return

    tracer = None
    cli_main = toricaut.cli.main
    if job["trace"]:
        from spans import ROOT_SPAN, Tracer
        tracer = Tracer()
        tracer.install()
        traced_main = cli_main

        def cli_main(argv):
            return tracer.call(ROOT_SPAN, traced_main, (argv,), {})

    signal.signal(signal.SIGALRM, _alarm)
    deadline = time.perf_counter() + job["budget_s"]
    records = []
    sampler = SpeedSampler()
    sampler.sample()
    if tracer is None:   # in a traced pass the probes would land inside spans
        sampler.every(SAMPLE_EVERY_S)
    for op, (doc, command) in enumerate(job["ops"]):
        if time.perf_counter() > deadline:
            records.append({"kind": "budget", "error": "run time budget spent before it started",
                            "code": None, "start": None, "end": None, "out": "", "stderr": ""})
            continue
        if tracer is not None:
            tracer.op = op
        records.append(run_operation(cli_main, [command, job["docs"][doc], "--json"],
                                     job["cap_s"]))
        sampler.sample()
    sampler.every(0)
    timed = [r for r in records if r["start"] is not None]
    for r in timed:
        sampler.annotate(r)
    result = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "loop_s": timed[-1]["end"] - timed[0]["start"] if timed else 0.0,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "records": records,
    }
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        tracer.write(job["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
