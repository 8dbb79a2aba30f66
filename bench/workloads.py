"""The benchmark's workloads: seeded instance generation and verdicts.

Every workload draws its instances from a pool whose answers are
recorded in `bench/answers/<workload>.json` (written by `record.py`).
A run's instances are the whole pool. The seed orders every pass and,
on psd-certify, permutes the matrices, which keeps their answers; so
every instance a seed can produce has a recorded answer, and every seed
gives the same mix of sizes and costs. Counting time is heavy-tailed in the instance
(0.1 to 1.9 s among 1-skeletons at n = 7 on 2 vCPUs), so a per-seed
sample of a larger pool would move the throughput with the draw.

A verdict is one instance checked start to finish against its recorded
answer; it returns True when every recorded value matches.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ANSWERS = ROOT / "bench" / "answers"
CLI_CHILD = ROOT / "bench" / "cli_child.py"
CLI_TIMEOUT_S = 60


def load_answers(name: str) -> dict:
    return json.loads((ANSWERS / f"{name}.json").read_text(encoding="utf-8"))


# --- sparse graph families with known spanning-tree counts -------------------
# Vertex 0 is the root.


def cycle(P, n):
    return P.from_edges(n, [(i, i + 1, 1) for i in range(n)] + [(0, n, 1)])


def wheel(P, n):
    """Hub 0 joined to every vertex of the rim cycle 1..n."""
    rim = [(i, i + 1, 1) for i in range(1, n)] + [(1, n, 1)]
    return P.from_edges(n, [(0, i, 1) for i in range(1, n + 1)] + rim)


def fan(P, n):
    """Apex 0 joined to every vertex of the path 1..n."""
    return P.from_edges(n, [(0, i, 1) for i in range(1, n + 1)] + [(i, i + 1, 1) for i in range(1, n)])


def ladder(P, n):
    """Two paths 0..k-1 and k..2k-1 with rungs i-(k+i); n + 1 = 2k."""
    k = (n + 1) // 2
    if 2 * k != n + 1:
        raise ValueError(f"a ladder needs an even vertex count, got n={n}")
    rails = [(i, i + 1, 1) for i in range(k - 1)] + [(k + i, k + i + 1, 1) for i in range(k - 1)]
    return P.from_edges(n, rails + [(i, k + i, 1) for i in range(k)])


FAMILIES = {"cycle": cycle, "wheel": wheel, "fan": fan, "ladder": ladder}


# --- workloads -----------------------------------------------------------------


class Workload:
    def weight(self, inst, answers) -> int:
        """How many verdicts checking `inst` counts for in verdicts_per_s."""
        return 1


class Skel1Ineq(Workload):
    """1-skeleton ideal, count_standard, det(qtilde) and dim >= det on
    random_multigraph(n, 3, s), n in 5..7. The graphs are not relabeled:
    with random vertex orders the counting time of an n = 7 pool varied
    by up to a quarter."""

    name = "skel1-ineq"

    def generate(self, rng, answers, P):
        return [(key, P.random_multigraph(want["n"], 3, want["s"]))
                for key, want in answers["instances"].items()]

    def verdict(self, inst, answers, P):
        key, g = inst
        want = answers["instances"][key]
        dim = P.count_standard(P.skeleton_ideal(g, 1))
        dt = P.det(P.laplacians(g).qtilde)
        return dim == want["dim"] and dt == want["det"] and (dim >= dt) == want["geq"]


class ParkingSparse(Workload):
    """Full parking ideal, count_standard and det(ltilde) on cycles,
    wheels, fans and ladders at n = 11..13. The graphs keep their own
    labels: relabeling the rim of the 13-spoke wheel moved its counting
    time between 0.5 and 0.8 s, and with it the tail from seed to seed."""

    name = "parking-sparse"

    def generate(self, rng, answers, P):
        return [(key, FAMILIES[want["family"]](P, want["n"]))
                for key, want in answers["instances"].items()]

    def verdict(self, inst, answers, P):
        key, g = inst
        want = answers["instances"][key]
        dim = P.count_standard(P.parking_ideal(g))
        dt = P.det(P.laplacians(g).ltilde)
        return dim == want["trees"] and dt == want["trees"]


# closed form for det of a pool matrix, by (kind, matrix)
CLOSED_FORMS = {
    ("complete", "qtilde"): lambda P, p: P.skeleton1_dim_complete(p["n"], p["a"], p["b"]),
    ("complete", "ltilde"): lambda P, p: P.parking_dim_complete(p["n"], p["a"], p["b"]),
    ("minus-root", "qtilde"): lambda P, p: P.root_deleted_signless_det(p["n"], p["r"]),
}


def psd_graph(P, p):
    if p["kind"] == "complete":
        return P.complete_multigraph(p["n"], p["a"], p["b"])
    if p["kind"] == "minus-root":
        return P.complete_minus_root_edges(p["n"], p["r"])
    return P.random_multigraph(p["n"], 3, p["s"])


def perturbed(P, m, i, j):
    """m with m_ij = m_ji = m_ii + m_jj + 1, so the principal minor on
    {i, j} is negative and the matrix is not PSD."""
    rows = [list(row) for row in m.rows]
    rows[i][j] = rows[j][i] = rows[i][i] + rows[j][j] + 1
    return P.matrix(rows)


class PsdCertify(Workload):
    """has_dominant_diagonal, is_psd and det on matrices of order 16..40:
    Laplacians of complete and complete-minus-root multigraphs (against
    closed forms), of random multigraphs (0 <= det <= Hadamard bound),
    and perturbed non-PSD matrices. Each matrix is conjugated by a seeded
    permutation, which keeps its determinant, definiteness and dominance."""

    name = "psd-certify"

    def generate(self, rng, answers, P):
        out = []
        for key, p in answers["instances"].items():
            m = getattr(P.laplacians(psd_graph(P, p)), p["matrix"])
            if p["kind"] == "perturbed":
                m = perturbed(P, m, p["i"], p["j"])
            out.append((key, P.principal_submatrix(m, rng.sample(range(m.order), m.order))))
        return out

    def verdict(self, inst, answers, P):
        key, m = inst
        want = answers["instances"][key]
        dominant = P.has_dominant_diagonal(m)
        psd = P.is_psd(m)
        d = P.det(m)
        ok = (dominant, psd, d) == (want["dominant"], want["psd"], want["det"])
        closed = CLOSED_FORMS.get((want["kind"], want["matrix"]))
        if closed is not None:
            ok = ok and closed(P, want) == d
        if psd:
            hadamard = 1
            for i in range(m.order):
                hadamard *= m[i][i]
            ok = ok and 0 <= d <= hadamard
        return ok


_ELAPSED = re.compile(rb'"elapsed_ms": \d+')


def report_digest(stdout: bytes) -> str:
    """sha256 of a `verify all` report with every elapsed_ms set to 0."""
    return hashlib.sha256(_ELAPSED.sub(b'"elapsed_ms": 0', stdout)).hexdigest()


def cli_command(args: list[str], spans: str = "-", memory: bool = False) -> list[str]:
    return [sys.executable, str(CLI_CHILD), spans, "1" if memory else "0", *args]


class VerifyAll(Workload):
    """`parkdet verify all --seed k` in a fresh process per verdict, for
    each recorded suite seed k; the report must match the recorded digest
    byte for byte, apart from elapsed_ms. An invocation counts for the
    suite trials its report holds."""

    name = "verify-all"

    def generate(self, rng, answers, P):
        return sorted(answers["instances"], key=int)

    def weight(self, key, answers):
        return answers["instances"][key]["trials"]

    def verdict(self, key, answers, P, spans="-", memory=False):
        want = answers["instances"][key]
        proc = subprocess.run(cli_command(["verify", "all", "--seed", key], spans, memory),
                              cwd=ROOT, capture_output=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode == 0 and report_digest(proc.stdout) == want["sha256"]


WORKLOADS = {w.name: w for w in (Skel1Ineq(), ParkingSparse(), PsdCertify(), VerifyAll())}

