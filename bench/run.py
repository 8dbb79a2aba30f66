"""parkdet benchmark: verdict throughput and latency, one client, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; parkdet is imported from its `src/`.
Workloads (see BENCHMARK.json and workloads.py): skel1-ineq,
parking-sparse, psd-certify, verify-all.

--trace 0 prints the end-to-end metrics. The closed loop runs whole
passes over the workload's instances, at least three, and more while the
next one is expected to end within --seconds. Each pass runs in a fresh
worker process, so every verdict is cold (see worker.py). A co-tenant on
a shared virtual machine can slow the machine by up to 1.8 times for a
whole run, so every timing is taken at reference pace (pace.py): scaled
by how much slower than usual a fixed reference computation ran right
before and after it. The benchmark and every process it starts run on
one CPU, so that the reference computation times the CPU the verdicts,
set-ups and CLI processes ran on: the co-tenants of two vCPUs differ.
Each instance's latency is the median of its paced cold verdicts over
the passes.
  setup_s         median, over fresh interpreters (after one warm-up; five
                  before each pass), of the paced time from process start,
                  through importing parkdet and generating the instances,
                  to being ready for the first verdict; on verify-all, the
                  CLI cold start
  verdicts_per_s  verdicts in the pool over the sum of the instances'
                  latencies: verdicts per second of wall time of a pass at
                  reference pace; on verify-all, the suite trials the
                  reports hold over that sum
  verdict_s.p50   median over the instances of their latencies
  verdict_s.tail  the latency with ten instances above it, or a quarter
                  of them when there are fewer than 40
  peak_rss_mb     largest peak RSS of a pass's worker process (on
                  verify-all, of the largest CLI process)
Every verdict is checked against a recorded answer. A wrong or raising
verdict counts in `failed`, and any failure makes `correct` false.

--trace 1 prints the per-layer metrics from a separate traced run: the
same passes untraced and traced, each in a fresh worker, and one pass
under tracemalloc. The spans of all traced passes go to .bench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pace import at_pace, reference
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
WORKER = ROOT / "bench" / "worker.py"
TRACE_DIR = ROOT / ".bench_out"
WORKLOADS = ("skel1-ineq", "parking-sparse", "psd-certify", "verify-all")
MIN_PASSES = 3
SETUP_PER_PASS = 5
LADDER = range(5, 10)
LADDER_LIMIT_S = 1.0
CHILD_TIMEOUT_S = 150


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def worker(*args: str) -> list:
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"worker {' '.join(args)} exited with {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def time_to_ready(cmd: list[str]) -> float:
    """Seconds from starting `cmd` until it prints its first line, at
    reference pace."""
    before = reference()
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        fail(f"set-up command {cmd[1:]} failed with {proc.returncode}")
    return at_pace(elapsed, before, reference())


def setup_command(workload: str, seed: int) -> list[str]:
    if workload == "verify-all":
        # CLI cold start: a trivial command, checked like any output
        cmd = [sys.executable, str(ROOT / "bench" / "cli_child.py"), "-", "0",
               "formulas", "--skel1", "3,1,1"]
        expect = "skeleton1_dim_complete = 20"
        check = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if check.stdout.strip() != expect:
            fail(f"CLI cold-start command printed {check.stdout!r}, expected {expect!r}")
        return cmd
    return [sys.executable, str(WORKER), "setup", workload, str(seed)]


def tail(latencies: list[float]) -> tuple[float, int]:
    """The value with ten samples above it (a quarter of them when there
    are fewer than 40), and how many are above it."""
    ordered = sorted(latencies)
    beyond = min(10, len(ordered) // 4)
    return ordered[-1 - beyond], beyond


def passes(workload: str, seed: int, seconds: float, at_least: int, between=None) -> list[dict]:
    """Untraced passes, each in a fresh worker: at least `at_least`, and
    more while one more, at the mean length so far, ends within `seconds`.
    `between()` runs before each pass."""
    out = []
    started = time.perf_counter()
    while len(out) < at_least or (time.perf_counter() - started) * (len(out) + 1) / len(out) <= seconds:
        if between is not None:
            between()
        [res] = worker("pass", workload, str(seed), str(len(out)))
        out.append(res)
    return out


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    cmd = setup_command(workload, seed)
    time_to_ready(cmd)  # warm-up: compiles bytecode on a fresh checkout
    # set-up samples spread over the run, so that one busy stretch of the
    # machine does not set the median
    samples = []
    runs = passes(workload, seed, seconds, MIN_PASSES,
                  between=lambda: samples.extend(time_to_ready(cmd) for _ in range(SETUP_PER_PASS)))
    setup = statistics.median(samples)
    latency = [statistics.median(lat) for lat in zip(*(r["paced"] for r in runs))]
    n = len(latency)
    weight = runs[0]["weight"]  # every pass checks the whole pool
    pass_rates = [r["weight"] / r["wall_s"] for r in runs]
    tail_value, beyond = tail(latency)
    metrics = {
        "setup_s": (setup, "s"),
        "verdicts_per_s": (weight / sum(latency), "1/s"),
        "verdict_s.p50": (statistics.median(latency), "s"),
        "verdict_s.tail": (tail_value, "s"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in runs) / 1024, "MB"),
    }
    per = "suite trials" if workload == "verify-all" else "verdicts"
    notes = {
        "setup_s": f"median of {len(samples)} fresh interpreters",
        "verdicts_per_s": f"{weight} {per} over the sum of {n} latencies, {len(runs)} passes; "
                          f"unpaced median pass {statistics.median(pass_rates):.4g}/s",
        "verdict_s.p50": f"{n} instances, median of {len(runs)} cold verdicts each",
        "verdict_s.tail": f"p{100 * (n - beyond) / n:.1f}, {n} instances, {beyond} above",
        "peak_rss_mb": f"largest of {len(runs)} passes",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}  ({notes[name]})")
    attempted = n * len(runs)
    failed = sum(r["failed"] for r in runs)
    print(f"verdicts_failed = {failed / attempted:.6g}  ({failed} of {attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def ladder_n_1s() -> tuple[int, int, int]:
    """Largest n on the 1-skeleton ladder whose verdict (after set-up)
    finishes within LADDER_LIMIT_S; also the verdicts attempted and failed."""
    best, attempted, failed = LADDER.start - 1, 0, 0
    for n in LADDER:
        proc = subprocess.Popen([sys.executable, str(WORKER), "ladder", str(n)], cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        try:
            if proc.stdout.readline().strip() != '"ready"':
                fail(f"ladder n={n} did not set up")
            attempted += 1
            try:
                out, _ = proc.communicate(timeout=LADDER_LIMIT_S)
            except subprocess.TimeoutExpired:
                break
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not json.loads(out)["ok"]:
            failed += 1
            break
        best = n
    return best, attempted, failed


def traced(workload: str, seed: int, seconds: float) -> dict:
    """Untraced passes for a third of the time, then the same passes traced,
    then one pass under tracemalloc for at most a sixth of the time, then
    the ladder: about as long as an untraced run."""
    plain = passes(workload, seed, seconds / 3, 1)
    tracer, verdicts, failed, wall = Tracer(), 0, 0, 0.0
    for k in range(len(plain)):
        [res] = worker("trace", workload, str(seed), str(k), "0")
        spans = Path(res["spans"])
        tracer.adopt(json.loads(spans.read_text(encoding="utf-8"))["spans"], None)
        spans.unlink()
        verdicts, failed, wall = verdicts + res["verdicts"], failed + res["failed"], wall + res["wall_s"]
    tracer.dump(TRACE_DIR / f"spans-{workload}-{seed}.json")
    metrics = layer_metrics(tracer.spans, verdicts, wall)
    metrics["trace.overhead"] = wall / sum(r["setup_s"] + r["wall_s"] for r in plain)
    metrics["trace.verdicts"] = verdicts
    [mem] = worker("trace", workload, str(seed), "0", "1", str(seconds / 6))
    spans = Path(mem["spans"])
    peak_kb = json.loads(spans.read_text(encoding="utf-8"))["peak_kb"]
    spans.unlink()
    for layer in ("multigraph", "monomial_ideals", "standard_count", "exact_linalg", "formulas", "suites"):
        metrics[f"{layer}.peak_kb"] = peak_kb.get(layer, 0.0)
    metrics["standard_count.ladder_n_1s"], ladder_attempted, ladder_failed = ladder_n_1s()
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    out = {}
    for m in units:
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    attempted = sum(len(r["latency"]) for r in plain) + verdicts + mem["verdicts"] + ladder_attempted
    failed += sum(r["failed"] for r in plain) + mem["failed"] + ladder_failed
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "parkdet" / "__init__.py").is_file():
        fail(f"no parkdet sources under {ROOT / 'src'}; run from a full checkout")
    if hasattr(os, "sched_setaffinity"):  # inherited by every process started below
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = (traced if args.trace else end_to_end)(args.workload, args.seed, args.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
