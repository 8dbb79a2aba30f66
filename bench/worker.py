"""The process that runs one pass of a workload; started by run.py.

    worker.py setup  WORKLOAD SEED                     set up, print "ready", exit
    worker.py pass   WORKLOAD SEED K                   set up, run pass K untraced
    worker.py trace  WORKLOAD SEED K MEMORY [SECONDS]  set up, run pass K traced
    worker.py ladder N                                 set up, print "ready", one 1-skeleton verdict

A pass sets up the workload, generating its instances from SEED, and
then checks every instance once, in an order drawn from SEED and K.
Each verdict's latency is also reported at reference pace (pace.py).
run.py starts each pass in a fresh process. Every verdict is therefore
cold: nothing an earlier pass left in the process, such as a memo, can
answer the same instance again.

`trace` wraps the calls into each layer (tracing.py) and writes the
spans to .bench_out/; with MEMORY 1 it records tracemalloc peaks
instead, and stops the pass after SECONDS. Every mode prints JSON
lines: `pass` and `trace` one, with the pass's results.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import parkdet  # noqa: E402,F401  (setup includes importing the package)

from pace import at_pace, reference  # noqa: E402
from tracing import Tracer, api  # noqa: E402
from workloads import ROOT, WORKLOADS, load_answers  # noqa: E402

TRACE_DIR = ROOT / ".bench_out"


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


class Pass:
    """One workload's instances, set up from `seed`; every verdict checked."""

    def __init__(self, workload, seed, answers, P):
        self.workload, self.seed, self.answers, self.P = workload, seed, answers, P
        started = time.perf_counter()
        self.insts = workload.generate(random.Random(seed), answers, P)
        self.setup_s = time.perf_counter() - started
        self.latency = [None] * len(self.insts)
        self.paced = [None] * len(self.insts)
        self.failed = 0
        self.pace = reference()

    def order(self, k):
        n = len(self.insts)
        return random.Random(f"{self.seed}/{k}").sample(range(n), n)

    def one(self, i, **extra):
        inst = self.insts[i]
        started = time.perf_counter()
        try:
            ok = self.workload.verdict(inst, self.answers, self.P, **extra)
        except Exception as exc:  # a raising verdict is a failed verdict
            print(f"verdict raised {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        self.latency[i] = time.perf_counter() - started
        after = reference()
        self.paced[i] = at_pace(self.latency[i], self.pace, after)
        self.pace = after
        if not ok:
            self.failed += 1
            if self.failed <= 3:
                print(f"wrong verdict on {inst if isinstance(inst, str) else inst[0]}", file=sys.stderr)

    def run(self, k, deadline=None):
        """Check the instances in pass k's order, until `deadline` if given;
        returns the seconds taken."""
        started = time.perf_counter()
        for i in self.order(k):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            self.one(i)
        return time.perf_counter() - started

    @property
    def verdicts(self):
        return sum(t is not None for t in self.latency)

    @property
    def weight(self):
        """The work the checked instances stand for (suite trials on verify-all)."""
        return sum(self.workload.weight(self.insts[i], self.answers)
                   for i, t in enumerate(self.latency) if t is not None)


def peak_rss_kb(workload):
    who = resource.RUSAGE_CHILDREN if workload.name == "verify-all" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def mode_pass(workload, seed, k):
    p = Pass(workload, seed, load_answers(workload.name), api())
    wall = p.run(k)
    emit({"latency": p.latency, "paced": p.paced, "weight": p.weight, "failed": p.failed, "setup_s": p.setup_s,
          "wall_s": wall, "peak_rss_kb": peak_rss_kb(workload)})


def mode_trace(workload, seed, k, memory, seconds):
    """Pass k with the calls into each layer wrapped; on verify-all the
    CLI child records its own spans, adopted under a span for the process."""
    TRACE_DIR.mkdir(exist_ok=True)
    tracer = Tracer(memory=memory)
    if memory:
        import tracemalloc
        tracemalloc.start()
    started = time.perf_counter()
    deadline = started + seconds if memory else None
    p = Pass(workload, seed, load_answers(workload.name), api(tracer))
    if workload.name != "verify-all":
        p.run(k, deadline)
    else:
        for i in p.order(k):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            child = TRACE_DIR / f"child-{seed}-{k}-{i}.json"
            span = len(tracer.spans)
            tracer.spans.append([span, None, "cli", "process", time.perf_counter(), 0.0, None])
            p.one(i, spans=str(child), memory=memory)
            tracer.spans[span][5] = time.perf_counter()
            if not child.exists():  # the CLI died before writing its spans; the verdict failed
                continue
            recorded = json.loads(child.read_text(encoding="utf-8"))
            child.unlink()
            tracer.adopt(recorded["spans"], span)
            for layer, kb in recorded["peak_kb"].items():
                tracer.peak_kb[layer] = max(tracer.peak_kb[layer], kb)
    wall = time.perf_counter() - started
    spans = TRACE_DIR / f"spans-{workload.name}-{seed}-{k}.json"
    tracer.dump(spans)
    emit({"spans": str(spans), "verdicts": p.verdicts, "failed": p.failed, "wall_s": wall})


def mode_ladder(n):
    P = api()
    want = load_answers("ladder")["instances"][str(n)]
    g = P.random_multigraph(n, 3, want["s"])
    ideal = P.skeleton_ideal(g, 1)
    emit("ready")
    dim, dt = P.count_standard(ideal), P.det(P.laplacians(g).qtilde)
    emit({"ok": dim == want["dim"] and dt == want["det"] and dim >= dt})


def main(argv):
    mode = argv[0]
    if mode == "ladder":
        return mode_ladder(int(argv[1]))
    workload, seed = WORKLOADS[argv[1]], int(argv[2])
    if mode == "setup":
        Pass(workload, seed, load_answers(workload.name), api())
        emit("ready")
    elif mode == "pass":
        mode_pass(workload, seed, int(argv[3]))
    elif mode == "trace":
        mode_trace(workload, seed, int(argv[3]), argv[4] == "1", float(argv[5]) if len(argv) > 5 else None)
    else:
        raise SystemExit(f"unknown mode {mode}")


if __name__ == "__main__":
    main(sys.argv[1:])
