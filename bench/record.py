"""Record the answer pools in bench/answers/, cross-checked.

    python3 bench/record.py [workload ...]     # default: every pool

Answers come from parkdet itself. Each one is also checked by a second,
independent route where one exists, and recording stops at the first
disagreement:

- skel1-ineq: `det_cofactor` for the determinant; `count_standard_ie`
  for the dimension when the ideal has at most 22 generators; the
  1-skeleton ideal equals the matrix-skeleton ideal of qtilde;
- parking-sparse: the dimension equals det(ltilde) (matrix-tree
  theorem) and the family's closed-form tree count (cycle n+1, wheel
  L_2n - 2, fan F_2n, ladder by its three-term recurrence), also after
  a relabeling;
- psd-certify: det equals (-1)^n times the constant term of `char_poly`;
  closed forms from `parkdet.formulas`; Laplacians are PSD, perturbed
  matrices are not (a 2x2 principal minor is negative); 0 <= det <=
  product of the diagonal when PSD;
- verify-all: exit code 0 and the same report digest on two runs; the
  trial count agrees with each report's summary;
- ladder: `det_cofactor` up to order 8.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from parkdet.exact_linalg import char_poly, det_cofactor, is_psd  # noqa: E402
from parkdet.monomial_ideals import matrix_skeleton_ideal  # noqa: E402
from parkdet.standard_count import count_standard_ie  # noqa: E402

from tracing import api  # noqa: E402
from workloads import (ANSWERS, CLOSED_FORMS, FAMILIES, ROOT, cli_command, perturbed,  # noqa: E402
                       psd_graph, report_digest)

P = api()
LADDER_GRAPH_SEED = 7


def check(ok: bool, what: str):
    if not ok:
        raise SystemExit(f"cross-check failed: {what}")


def record_skel1_ineq() -> dict:
    instances = {}
    for n in (5, 6, 7):
        for s in range(12):
            g = P.random_multigraph(n, 3, s)
            ideal = P.skeleton_ideal(g, 1)
            qt = P.laplacians(g).qtilde
            dim, dt = P.count_standard(ideal), P.det(qt)
            check(dt == det_cofactor(qt), f"det n={n} s={s}")
            check(ideal == matrix_skeleton_ideal(qt), f"skeleton ideal n={n} s={s}")
            if len(ideal.gens) <= 22:
                check(dim == count_standard_ie(ideal), f"dim n={n} s={s}")
            instances[f"{n}-{s}"] = {"n": n, "s": s, "dim": dim, "det": dt, "geq": dim >= dt,
                                     "gens": len(ideal.gens)}
    return {"instances": instances}


def tree_count(family: str, n: int) -> int:
    if family == "cycle":
        return n + 1
    if family == "wheel":  # Lucas L_2n - 2
        a, b = 2, 1
        for _ in range(2 * n):
            a, b = b, a + b
        return a - 2
    if family == "fan":  # Fibonacci F_2n
        a, b = 0, 1
        for _ in range(2 * n):
            a, b = b, a + b
        return a
    k = (n + 1) // 2  # ladder with k rungs: t_k = 4 t_(k-1) - t_(k-2)
    a, b = 1, 4
    for _ in range(k - 1):
        a, b = b, 4 * b - a
    return a


def record_parking_sparse() -> dict:
    instances = {}
    rng = random.Random(0)
    for family, make in FAMILIES.items():
        for n in (11, 12, 13):
            if family == "ladder" and n % 2 == 0:
                continue
            g = make(P, n)
            ideal = P.parking_ideal(g)
            trees = tree_count(family, n)
            check(P.count_standard(ideal) == trees, f"{family} n={n} dim")
            check(P.det(P.laplacians(g).ltilde) == trees, f"{family} n={n} det")
            h = P.relabel_vertices(g, rng.sample(range(1, n + 1), n))
            check(P.count_standard(P.parking_ideal(h)) == trees, f"{family} n={n} relabeled")
            instances[f"{family}-{n}"] = {"family": family, "n": n, "trees": trees,
                                          "gens": len(ideal.gens)}
    return {"instances": instances}


def psd_pool(n: int) -> list[dict]:
    i, j = sorted(random.Random(n).sample(range(n), 2))
    return [{"kind": "complete", "matrix": "qtilde", "n": n, "a": 1, "b": 1},
            {"kind": "complete", "matrix": "ltilde", "n": n, "a": 3, "b": 2},
            {"kind": "minus-root", "matrix": "qtilde", "n": n, "r": n // 2},
            {"kind": "random", "matrix": "qtilde", "n": n, "s": 0},
            {"kind": "random", "matrix": "ltilde", "n": n, "s": 1},
            {"kind": "perturbed", "matrix": "qtilde", "n": n, "s": 0, "i": i, "j": j}]


def record_psd_certify() -> dict:
    instances = {}
    for n in (16, 22, 28, 34, 40):
        for p in psd_pool(n):
            g = psd_graph(P, p)
            m = getattr(P.laplacians(g), p["matrix"])
            if p["kind"] == "perturbed":
                m = perturbed(P, m, p["i"], p["j"])
                i, j = p["i"], p["j"]
                check(m[i][i] * m[j][j] < m[i][j] ** 2, f"negative minor {p}")
            dt = P.det(m)
            check(dt == (-1) ** n * char_poly(m).coeffs[0], f"det vs char_poly {p}")
            psd = is_psd(m)
            check(psd == (p["kind"] != "perturbed"), f"psd {p}")
            closed = CLOSED_FORMS.get((p["kind"], p["matrix"]))
            if closed is not None:
                check(closed(P, p) == dt, f"closed form {p}")
            if psd:
                hadamard = 1
                for k in range(n):
                    hadamard *= m[k][k]
                check(0 <= dt <= hadamard, f"hadamard {p}")
            key = "-".join(str(v) for v in p.values())
            instances[key] = {**p, "det": dt, "psd": psd, "dominant": P.has_dominant_diagonal(m)}
    return {"instances": instances}


def record_verify_all() -> dict:
    instances = {}
    for seed in range(6):
        digests = []
        for _ in range(2):
            proc = subprocess.run(cli_command(["verify", "all", "--seed", str(seed)]),
                                  cwd=ROOT, capture_output=True, timeout=120)
            check(proc.returncode == 0, f"verify all --seed {seed} exit {proc.returncode}")
            digests.append(report_digest(proc.stdout))
        check(digests[0] == digests[1], f"verify all --seed {seed} is not deterministic")
        reports = json.loads(proc.stdout)
        trials = sum(len(r["trials"]) for r in reports)
        check(trials == sum(r["summary"]["total"] for r in reports), f"verify all --seed {seed} trial count")
        instances[str(seed)] = {"sha256": digests[0], "bytes": len(proc.stdout), "trials": trials}
    return {"instances": instances}


def record_ladder() -> dict:
    instances = {}
    for n in range(5, 10):
        g = P.random_multigraph(n, 3, LADDER_GRAPH_SEED)
        qt = P.laplacians(g).qtilde
        dim, dt = P.count_standard(P.skeleton_ideal(g, 1)), P.det(qt)
        if n <= 8:
            check(dt == det_cofactor(qt), f"ladder det n={n}")
        instances[str(n)] = {"n": n, "s": LADDER_GRAPH_SEED, "dim": dim, "det": dt}
    return {"instances": instances}


RECORDERS = {
    "skel1-ineq": record_skel1_ineq,
    "parking-sparse": record_parking_sparse,
    "psd-certify": record_psd_certify,
    "verify-all": record_verify_all,
    "ladder": record_ladder,
}


def main(names: list[str]):
    for name in names or RECORDERS:
        started = time.perf_counter()
        data = RECORDERS[name]()
        (ANSWERS / f"{name}.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                                              encoding="utf-8")
        print(f"{name}: {len(data['instances'])} answers in {time.perf_counter() - started:.1f} s")


if __name__ == "__main__":
    main(sys.argv[1:])
