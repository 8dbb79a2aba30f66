"""Show that the correctness gate is live.

    python3 bench/gate_check.py [workload ...]     # default: every workload

For each workload, runs one pass in process against a copy of the
recorded answers in which one instance's answer is wrong: the pass must
report failed verdicts. The same pass against the true answers must
report none. Exits 1 otherwise.
"""

from __future__ import annotations

import copy
import sys

from tracing import api
from worker import Pass
from workloads import WORKLOADS, load_answers

SEED = 1
# the recorded field to make wrong, per workload
FIELD = {"skel1-ineq": "dim", "parking-sparse": "trees", "psd-certify": "det", "verify-all": "sha256"}


def failures(name: str, answers: dict) -> int:
    p = Pass(WORKLOADS[name], SEED, answers, api())
    p.run(0)
    return p.failed


def main(names: list[str]) -> int:
    live = True
    for name in names or WORKLOADS:
        answers = load_answers(name)
        wrong = copy.deepcopy(answers)
        first = Pass(WORKLOADS[name], SEED, answers, api()).insts[0]
        key = first if isinstance(first, str) else first[0]
        entry = wrong["instances"][key]
        field = FIELD[name]
        entry[field] = "0" * 64 if field == "sha256" else entry[field] + 1
        true_failed, wrong_failed = failures(name, answers), failures(name, wrong)
        ok = true_failed == 0 and wrong_failed >= 1
        live &= ok
        print(f"{name}: wrong {field} on {key}: {wrong_failed} failed verdicts; "
              f"true answers: {true_failed} failed -> {'gate live' if ok else 'GATE NOT LIVE'}")
    return 0 if live else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
