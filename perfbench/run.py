"""The toricaut benchmark: seeded fan-document workloads through the CLI.

    python3 perfbench/run.py --workload conjugates --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout.  A run generates the workload's documents
from the seed, then runs whole passes over them, one after another, each
pass in a fresh interpreter (perfbench/worker.py) so that no memo
survives from one pass to the next.  Passes start while the next one is
expected to end within --seconds; there is always at least one.  Every
output is checked against its reference (perfbench/check.py).

Times are scaled to a reference machine speed with the speed probes the
worker takes around and inside every operation (see perfbench/README.md);
the wall-clock figures are printed too and kept in the result file.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes, at least one of each, and reports the per-layer
metrics of the traced passes and the tracing overhead, their time
over the untraced passes' minus one.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  `correct` is false when an operation that reported success
returned a wrong answer; every failed operation (wrong answer, exception,
unexpected exit code, time cap, spent budget) counts in `failed`.  The full
result, with the environment and every failure, goes to
.perfbench/BENCH_<workload>_s<seed>_t<trace>.json, and a traced pass's
spans to .perfbench/spans_<workload>_s<seed>_p<pass>.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import generate  # noqa: E402
from spans import COUNTS, LAYERS, SELF_TIMES  # noqa: E402

IMPORT_ONLY_RUNS = 5    # extra fresh interpreters that only time the import
# Times are scaled to a machine on which worker.speed_probe takes this long:
# t * REFERENCE_PROBE_S / (probe time measured around and during t).  The
# unscaled figures go to the result file as end_to_end_wall.
REFERENCE_PROBE_S = 0.002
OP_CAP_S = 60.0         # per-operation time cap; a hit is a failure, not a hang
RUN_BUDGET_S = 140.0    # no operation starts after this much of a run

END_TO_END = {
    "setup_s": "s", "op_s_p50": "s", "op_s_tail": "s", "ops_per_s": "1/s",
    "ok_frac": "ratio", "peak_rss_mb": "MB",
}
TIMES = ("setup_s", "op_s_p50", "op_s_tail", "ops_per_s")
PER_LAYER_UNITS = {**{m: "s" for m in SELF_TIMES}, **{f"{layer}.self_s": "s" for layer in LAYERS},
                   **{c: "count" for c in COUNTS}, "roots.hit_ratio": "ratio",
                   "trace.overhead_frac": "ratio"}


def source_digest(root: pathlib.Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def commit(root: pathlib.Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_worker(job: dict, job_path: pathlib.Path, timeout_s: float) -> dict:
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                              capture_output=True, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return {"error": f"worker killed after {timeout_s:.0f} s"}
    if done.returncode != 0:
        return {"error": f"worker exited {done.returncode}: {done.stderr.strip()[-500:]}"}
    return json.loads(done.stdout.splitlines()[-1])


def op_seconds(record: dict, scaled: bool = True) -> float:
    """An operation's own time (speed probes taken inside it removed),
    scaled to the reference speed unless `scaled` is false."""
    seconds = record["end"] - record["start"] - record["sampling_s"]
    return seconds * REFERENCE_PROBE_S / record["probe_s"] if scaled else seconds


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n operations beyond it."""
    return max(50, math.floor(100 * (1 - 10 / n))) if n > 0 else 50


def quantile(values: list, p: float, steps: int = 32) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics
    weighted by the Beta((n+1)p, (n+1)(1-p)) mass over ((i-1)/n, i/n].
    It averages neighbouring operations, so it is steadier than the single
    order statistic when a pass has only a few dozen operations."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if not 0 < x < 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    weights = []
    for i in range(n):
        h = 1 / (n * steps)
        grid = [density(i / n + k * h) for k in range(steps + 1)]
        weights.append(h / 3 * (grid[0] + grid[-1] + 4 * sum(grid[1:-1:2])
                                + 2 * sum(grid[2:-1:2])))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def judge(cases: list, ops: list, records: list, goldens: pathlib.Path) -> list:
    """One failure entry per failed operation of a pass."""
    failures = []
    for (doc, command), rec in zip(ops, records):
        case = cases[doc]
        kind, detail = rec.get("kind"), rec.get("error")
        if kind is None and rec["code"] != check.EXPECTED_CODE:
            kind = "exit"
            reason = (check.check_output(case, command, rec["out"], goldens) if rec["out"]
                      else rec.get("stderr", "").strip()[-300:])
            detail = f"exit code {rec['code']}" + (f": {reason}" if reason else "")
        elif kind is None:
            detail = check.check_output(case, command, rec["out"], goldens)
            kind = "mismatch" if detail else None
        if kind is not None:
            failures.append({"document": case.name, "subcommand": command, "kind": kind,
                             "detail": detail})
    return failures


def run_workload(root: pathlib.Path, workload: str, seed: int, seconds: float, trace: bool,
                 size: str) -> dict:
    started = time.perf_counter()
    work = root / ".perfbench"
    cases = generate.generate(workload, seed, size, root)
    paths = generate.write_cases(cases, work / "docs" / f"{workload}-s{seed}")
    ops = [(k, command) for k, case in enumerate(cases) for command in case.commands]
    base_job = {"src": str(root / "src"), "docs": [str(p) for p in paths], "ops": ops,
                "cap_s": OP_CAP_S}
    job_path = work / f"job_{workload}_s{seed}.json"

    setups = []
    for _ in range(IMPORT_ONLY_RUNS):
        imported = run_worker({**base_job, "setup_only": True}, job_path, 60)
        if "error" in imported:
            raise RuntimeError(imported["error"])
        setups.append((imported["setup_s"], imported["setup_probe_s"]))

    passes, pass_walls = [], []
    loop_start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        budget = RUN_BUDGET_S - (time.perf_counter() - started)
        spans_path = work / f"spans_{workload}_s{seed}_p{len(passes)}.jsonl"
        t0 = time.perf_counter()
        result = run_worker({**base_job, "trace": traced, "budget_s": budget,
                             "spans_path": str(spans_path)},
                            job_path, max(budget, 0) + OP_CAP_S + 30)
        pass_walls.append(time.perf_counter() - t0)
        if "error" in result:
            records = [{"kind": "worker", "error": result["error"], "code": None,
                        "start": None, "end": None, "out": ""} for _ in ops]
            result = {"records": records, "loop_s": 0.0, "rss_mb": 0.0}
        else:
            setups.append((result["setup_s"], result["setup_probe_s"]))
        result["traced"] = traced
        result["failures"] = [{**f, "pass": len(passes)} for f in
                              judge(cases, ops, result["records"], root / "tests" / "goldens")]
        passes.append(result)
        elapsed = time.perf_counter() - loop_start
        need_more = trace and len(passes) < 2
        if not need_more and elapsed + max(pass_walls) > seconds:
            break
        if time.perf_counter() - started > RUN_BUDGET_S:
            break

    plain = [p for p in passes if not p["traced"]]
    q = tail_percentile(len(ops))
    attempted = len(ops) * len(passes)
    failures = [f for p in passes for f in p["failures"]]
    plain_failed = sum(len(p["failures"]) for p in plain)
    figures = {}
    for scaled in (True, False):
        durations = [op_seconds(r, scaled) for p in plain for r in p["records"]
                     if r["start"] is not None]
        setup = [t * REFERENCE_PROBE_S / probe if scaled else t for t, probe in setups]
        figures["end_to_end" if scaled else "end_to_end_wall"] = {
            "setup_s": statistics.median(setup),
            "op_s_p50": quantile(durations, 0.5) if durations else OP_CAP_S,
            "op_s_tail": quantile(durations, q / 100) if durations else OP_CAP_S,
            "ops_per_s": len(durations) / sum(durations) if durations else 0.0,
            "ok_frac": 1 - plain_failed / (len(ops) * len(plain)),
            "peak_rss_mb": max(p["rss_mb"] for p in plain),
        }
    out = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "correct": not any(f["kind"] == "mismatch" for f in failures),
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "passes": len(passes), "ops_per_pass": len(ops), "tail_percentile": q,
        **figures, "failures": failures,
        "setup_samples": setups, "pass_loop_s": [p["loop_s"] for p in passes],
        "operations": [[cases[doc].name, command] for doc, command in ops],
        "op_seconds": [[None if r["start"] is None else r["end"] - r["start"]
                        for r in p["records"]] for p in passes],
    }
    if trace:
        traced_passes = [p for p in passes if p["traced"] and "layers" in p]
        for p in traced_passes:
            speed = REFERENCE_PROBE_S / statistics.median(
                r["probe_s"] for r in p["records"] if r["start"] is not None)
            p["layers"] = {k: v * speed if PER_LAYER_UNITS.get(k) == "s" else v
                           for k, v in p["layers"].items()}
        layers = {key: statistics.median(p["layers"][key] for p in traced_passes)
                  for key in traced_passes[0]["layers"]} if traced_passes else {}
        traced_s, plain_s = (statistics.median(sum(op_seconds(r) for r in p["records"]
                                                   if r["start"] is not None) for p in group)
                             if group else 0.0 for group in (traced_passes, plain))
        layers["trace.overhead_frac"] = traced_s / plain_s - 1 if plain_s else 0.0
        out["per_layer"] = layers
    return out


def environment(root: pathlib.Path, seed: int) -> dict:
    return {
        "commit": commit(root), "src_sha256": source_digest(root),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "platform": platform.platform(), "seed": seed,
        "ops_per_pass": {w: sum(len(c.commands) for c in generate.generate(w, seed, "full", root))
                         for w in generate.WORKLOADS},
    }


def metrics_of(result: dict, trace: bool) -> dict:
    if trace:
        return {k: {"value": result["per_layer"].get(k, 0), "unit": u}
                for k, u in PER_LAYER_UNITS.items()}
    return {k: {"value": result["end_to_end"][k], "unit": u} for k, u in END_TO_END.items()}


def summary(result: dict, metrics: dict) -> list:
    lines = [f"workload {result['workload']} seed {result['seed']}: {result['passes']} pass(es) "
             f"of {result['ops_per_pass']} operations; tail = p{result['tail_percentile']}"]
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    if not result["trace"]:
        lines += [f"  {name} = {result['end_to_end_wall'][name]:.6g} {END_TO_END[name]} "
                  "(wall clock, not scaled)" for name in TIMES]
    lines.append(f"  failed_frac = {result['failed_frac']:.6g} ratio "
                 f"({result['failed']} of {result['attempted']})")
    lines += [f"  FAILED pass {f['pass']} {f['document']} {f['subcommand']}: {f['kind']}: "
              f"{f['detail']}"
              for f in result["failures"]]
    lines.append(f"  correct = {str(result['correct']).lower()}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(generate.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few small documents, for the benchmark's own tests")
    args = parser.parse_args()

    root = pathlib.Path.cwd()
    if not (root / "src" / "toricaut" / "__init__.py").is_file():
        print(f"error: {root} holds no src/toricaut; run from the root of a checkout",
              file=sys.stderr)
        return 2
    (root / ".perfbench").mkdir(exist_ok=True)
    env = environment(root, args.seed)
    workloads = list(generate.WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result = run_workload(root, workload, args.seed, args.seconds, trace, args.size)
        result["environment"] = env
        metrics = metrics_of(result, trace)
        name = f"BENCH_{workload}_s{args.seed}_t{args.trace}.json"
        (root / ".perfbench" / name).write_text(json.dumps(result, indent=1), encoding="utf-8")
        print("\n".join(summary(result, metrics)), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(workloads) == 1 else f"{workload}."
        combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
