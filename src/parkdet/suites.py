"""Named verification suites with seeded instance generation and
structured, replayable reports.

Every suite is a generator, deterministic given (parameters, seed),
that yields each trial as the arguments of `Report.add`: the instance,
the two quantities compared (`dim`, `det`), then optionally a third
closed-form value, the relation tested and a pass flag. The runner
`_suite` registers adds them; any failing trial flips the report's exit
code to 2. A failing inequality trial would be a counterexample to the
dimension-determinant conjecture and is reported with the full instance
for replay. A trial that cannot be run on an instance (no root edge) is
yielded as skipped, 0 vs 0 and passed. Reports are data;
`cli.render_reports` writes them as JSON, CSV or text.

No count raises `NonArtinianError`: every ideal a suite counts is the
unit ideal or holds a pure power of each variable (x_v^deg(v) = m_{v} in
a skeleton ideal, x_l^h_ll in J_H; a connected graph's parking ideal has
a finite quotient, a disconnected one's is the unit ideal; likewise the
colon, step-weight and lambda ideals). Were one raised, it is a
ValueError, which the CLI turns into exit 1.
"""

from __future__ import annotations

import functools
import time
from math import prod
from typing import Callable

from .exact_linalg import (
    IntMatrix,
    _Frozen,
    det,
    has_dominant_diagonal,
    matmul,
    matrix,
    principal_submatrix,
    psd_det,
    transpose,
)
from .formulas import (
    parking_dim_complete,
    root_deleted_signless_det,
    step_weight_dim,
)
from .monomial_ideals import (
    MonomialIdeal,
    colon,
    matrix_skeleton_ideal,
    parking_ideal,
    skeleton_ideal,
    step_weight_ideal,
    lambda_ideal,
)
from .multigraph import (
    Multigraph,
    complete_minus_root_edges,
    complete_multigraph,
    delete_root_edge,
    from_edges,
    laplacians,
    merge_into_root,
    random_multigraph,
    random_root_deletion,
    relabel_vertices,
)
from .rng import SplitMix64
from .standard_count import (
    ENUMERATION_GUARD,
    IE_GENERATOR_GUARD,
    count_standard,
    count_standard_ie,
    enumerate_standard,
)


class Trial(_Frozen):
    __slots__ = ("id", "instance", "dim", "det", "formula", "relation", "passed")
    id: int
    instance: dict
    dim: int
    det: int
    formula: int | None
    relation: str  # "eq" | "geq"
    passed: bool

    def __init__(self, id: int, instance: dict, dim: int, det: int, formula: int | None,
                 relation: str, passed: bool):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "passed", passed)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "instance": self.instance,
            "dim": str(self.dim),
            "det": str(self.det),
            "formula": None if self.formula is None else str(self.formula),
            "relation": self.relation,
            "pass": self.passed,
        }


class Report:
    __slots__ = ("suite", "params", "seed", "trials", "elapsed_ms")

    def __init__(self, suite: str, params: dict, seed: int, trials: list[Trial] | None = None,
                 elapsed_ms: int = 0):
        self.suite = suite
        self.params = params
        self.seed = seed
        self.trials = [] if trials is None else trials
        self.elapsed_ms = elapsed_ms

    @property
    def failed(self) -> list[Trial]:
        return [t for t in self.trials if not t.passed]

    def add(self, instance: dict, dim: int, det: int, formula: int | None = None,
            relation: str = "eq", passed: bool | None = None):
        """Append the next trial. Unless `passed` is given, "eq" passes when
        dim, det and any formula agree, "geq" when dim >= det."""
        if passed is None:
            if relation == "eq":
                passed = dim == det and (formula is None or formula == dim)
            else:
                passed = dim >= det
        self.trials.append(Trial(len(self.trials), instance, dim, det, formula, relation, passed))

    @property
    def exit_code(self) -> int:
        return 0 if not self.failed else 2

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "seed": self.seed,
            "trials": [t.to_dict() for t in self.trials],
            "summary": {
                "total": len(self.trials),
                "failed": len(self.failed),
                "elapsed_ms": self.elapsed_ms,
            },
        }


def _skel1_dim(g: Multigraph) -> int:
    # for a single non-root vertex the 1-skeleton is already the full ideal
    return count_standard(skeleton_ideal(g, min(1, g.n - 1)))


def _graph_instance(g: Multigraph, label: str = "", **extra) -> dict:
    inst = {"label": label, "n": g.n, "adj": [list(row) for row in g.adj]}
    inst.update(extra)
    return inst


def _matrix_instance(h: IntMatrix, label: str = "", **extra) -> dict:
    inst = {"label": label, "n": h.order, "rows": [list(row) for row in h.rows]}
    inst.update(extra)
    return inst


# --- instance corpora --------------------------------------------------------


def path_graph(m: int) -> Multigraph:
    """Path 0-1-...-m."""
    return from_edges(m, [(i, i + 1, 1) for i in range(m)])


def cycle_graph(m: int) -> Multigraph:
    """Cycle through 0, 1, ..., m and back to 0."""
    return from_edges(m, [(i, i + 1, 1) for i in range(m)] + [(0, m, 1)])


def default_graph_corpus(seed: int = 0) -> list[tuple[str, Multigraph, int | None]]:
    """Deterministic mix of named graphs (with known spanning-tree counts)
    and seeded random multigraphs."""
    corpus: list[tuple[str, Multigraph, int | None]] = []
    for n in range(2, 6):
        corpus.append((f"K{n + 1}", complete_multigraph(n, 1, 1), (n + 1) ** (n - 1)))
    for n, a, b in [(2, 2, 1), (3, 2, 3), (4, 3, 2)]:
        corpus.append((f"K{n + 1}[a={a},b={b}]", complete_multigraph(n, a, b), parking_dim_complete(n, a, b)))
    for m in (2, 3, 4):
        corpus.append((f"P{m + 1}", path_graph(m), 1))
    for m in (3, 4):
        corpus.append((f"C{m + 1}", cycle_graph(m), m + 1))
    for n, r in [(3, 1), (3, 2), (4, 2)]:
        corpus.append((f"K{n + 1}-minus-{r}", complete_minus_root_edges(n, r), None))
    rng = SplitMix64(seed)
    for k in range(5):
        n = rng.randint(2, 4)
        corpus.append((f"random-{k}", random_multigraph(n, 2, rng.next_u64()), None))
    return corpus


def _random_dominant_psd(rng: SplitMix64, n: int, entry_max: int,
                         max_attempts: int = 2000) -> tuple[IntMatrix, int, int, str]:
    """Seeded PSD matrix in the dominant class with entries <= entry_max,
    returned with its determinant, which certifying it computes.

    Rotates among three strategies (truncated signless Laplacian of a
    random multigraph; diagonally dominant symmetric; Gram matrix with
    the diagonal lifted to row maxima); candidates violating the entry
    cap, the class condition or exact PSD-ness are discarded.
    """
    strategies = ("qtilde", "row-dominant", "gram-lift")
    for attempt in range(1, max_attempts + 1):
        strat = strategies[rng.randint(0, 2)]
        if strat == "qtilde":
            g = random_multigraph(n, 1 if n >= 4 else 2, rng.next_u64())
            h = laplacians(g).qtilde
        elif strat == "row-dominant":
            cap = max(1, entry_max // max(1, n - 1))
            off = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    off[i][j] = off[j][i] = rng.randint(0, cap)
            rows = []
            for i in range(n):
                s = sum(off[i])
                rows.append([s + rng.randint(0, 1) if i == j else off[i][j] for j in range(n)])
            h = matrix(rows)
        else:
            b = matrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
            h0 = matmul(transpose(b), b)
            rows = [list(r) for r in h0.rows]
            for i in range(n):
                rowmax = max((rows[i][j] for j in range(n) if j != i), default=0)
                if rows[i][i] < rowmax:
                    rows[i][i] = rowmax
            h = matrix(rows)
        if max(max(row) for row in h.rows) > entry_max:
            continue
        if has_dominant_diagonal(h) and (det_h := psd_det(h)) is not None:
            return h, det_h, attempt, strat
    raise ValueError(f"no admissible PSD instance found in {max_attempts} attempts (n={n}, entry_max={entry_max})")


# --- suites -------------------------------------------------------------------


SUITES: dict[str, Callable[..., Report]] = {}
# Each suite's parameters, seed included, with the smallest value it accepts
# for each, as `_suite` declares them: the CLI makes a verify flag for each
# and hands a suite its own, checked before any runs.
MINIMUMS: dict[str, dict[str, int]] = {}


def _suite(name: str, **params: tuple[int, int]):
    """Register a generator as the suite `name`, declaring each of its
    parameters, seed included, once as (default, minimum). A run fills in
    the defaults, builds the report (its params are the values without
    seed, its seed is 0 for a suite without one), calls
    `report.add(*trial)` for each trial the suite yields, takes a returned
    value other than None as the params, and times the run into
    elapsed_ms. No trial at all raises ValueError naming the suite; what
    the suite raises propagates, an unknown keyword as TypeError."""
    defaults = {p: default for p, (default, _) in params.items()}
    MINIMUMS[name] = {p: minimum for p, (_, minimum) in params.items()}

    def register(fn):
        @functools.wraps(fn)
        def run(**kwargs) -> Report:
            started = time.monotonic()
            values = {**defaults, **kwargs}
            report = Report(name, {p: v for p, v in values.items() if p != "seed"}, values.get("seed", 0))
            trials = fn(**values)
            try:
                while True:
                    report.add(*next(trials))
            except StopIteration as done:
                if done.value is not None:
                    report.params = done.value
            if not report.trials:
                raise ValueError(f"suite {name} ran 0 trials")
            report.elapsed_ms = int((time.monotonic() - started) * 1000)
            return report
        SUITES[name] = run
        return run
    return register


@_suite("matrix-tree", seed=(0, 0))
def suite_matrix_tree(seed: int):
    """Quotient dimension of the full parking ideal vs the truncated
    Laplacian determinant (the spanning-tree count). The report's params
    are the corpus size."""
    graphs = default_graph_corpus(seed)
    for label, g, known in graphs:
        yield _graph_instance(g, label), count_standard(parking_ideal(g)), det(laplacians(g).ltilde), known
    return {"graphs": len(graphs)}


@_suite("rc", n_max=(5, 1), a_max=(3, 1), b_max=(3, 1), trials=(100, 0), seed=(0, 0))
def suite_rc(n_max: int, a_max: int, b_max: int, trials: int, seed: int):
    """Dimension = determinant for root-deleted complete multigraphs:
    an exhaustive simple-graph grid checked three ways against the closed
    form, then seeded random root deletions."""
    for n in range(2, n_max + 1):
        for r in range(0, n + 1):
            g = complete_minus_root_edges(n, r)
            yield (_graph_instance(g, f"grid n={n} r={r}"), _skel1_dim(g),
                   det(laplacians(g).qtilde), root_deleted_signless_det(n, r))
    rng = SplitMix64(seed)
    for _ in range(trials):
        n = rng.randint(1, n_max)
        a = rng.randint(1, a_max)
        b = rng.randint(1, b_max)
        g = random_root_deletion(n, a, b, rng.next_u64())
        inst = _graph_instance(g, f"root-deletion n={n} a={a} b={b}")
        yield inst, _skel1_dim(g), det(laplacians(g).qtilde)


@_suite("ineq", n_max=(5, 1), mult_max=(3, 1), trials=(200, 0), seed=(0, 0))
def suite_ineq(n_max: int, mult_max: int, trials: int, seed: int):
    """Dimension >= determinant for arbitrary multigraphs, with the path
    on four vertices as a deterministic strict-inequality witness."""
    p4 = path_graph(3)
    yield _graph_instance(p4, "P4"), _skel1_dim(p4), det(laplacians(p4).qtilde), None, "geq"
    rng = SplitMix64(seed)
    for _ in range(trials):
        n = rng.randint(1, n_max)
        g = random_multigraph(n, mult_max, rng.next_u64())
        yield _graph_instance(g, f"random n={n}"), _skel1_dim(g), det(laplacians(g).qtilde), None, "geq"


@_suite("mt", n_max=(5, 1), entry_max=(6, 1), trials=(100, 1), seed=(0, 0))
def suite_mt(n_max: int, entry_max: int, trials: int, seed: int):
    """Dimension >= determinant for exactly-certified PSD matrices in the
    dominant class."""
    rng = SplitMix64(seed)
    for _ in range(trials):
        n = rng.randint(1, n_max)
        h, det_h, attempts, strat = _random_dominant_psd(rng, n, entry_max)
        inst = _matrix_instance(h, f"psd n={n}", strategy=strat, attempts=attempts)
        yield inst, count_standard(matrix_skeleton_ideal(h)), det_h, None, "geq"


@_suite("recurrence", n_max=(5, 1), a_max=(5, 2))
def suite_recurrence(n_max: int, a_max: int):
    """Exhaustive colon identity and dimension recurrence for the
    step-weight family, three-way against the alternating-sum closed form."""
    # every step-weight ideal the checks need, built and counted once
    ideals = {(n, r, a): step_weight_ideal(n, r, a)
              for n in range(n_max + 1) for r in range(n + 1) for a in range(2, a_max + 1)}
    dims = {key: count_standard(ideal) for key, ideal in ideals.items()}
    for n in range(1, n_max + 1):
        for r in range(1, n + 1):
            for a in range(2, a_max + 1):
                x = [0] * n
                x[n - r] = 1  # variable index n-r+1, 1-based
                quot = colon(ideals[n, r - 1, a], tuple(x))
                inst = {"label": f"colon n={n} r={r} a={a}", "n": n, "r": r, "a": a, "check": "colon"}
                yield inst, count_standard(quot), dims[n, r, a], None, "eq", quot == ideals[n, r, a]
                inst = {"label": f"recurrence n={n} r={r} a={a}", "n": n, "r": r, "a": a, "check": "recurrence"}
                yield inst, dims[n, r, a], dims[n, r - 1, a] - dims[n - 1, r - 1, a], step_weight_dim(n, r, a)


def _find_pivot_permutation(h: IntMatrix) -> tuple[IntMatrix, int, int]:
    """Permute h to a pivot index r: entries above r in its column are
    below the maximal off-diagonal entry b, entries right of r equal b.
    Returns the permuted matrix, r and b.

    h must be symmetric of order >= 2, as `_random_dominant_psd` draws
    are. No off-diagonal entry exceeds b, so pivoting on v forces the u
    with h_vu < b before v and those with h_vu = b after it; v qualifies
    when its row holds b, and some row does. The lexicographically first
    admissible permutation (smallest r on ties) is thus the minimum of
    (sorted(before) + [v] + sorted(after), len(before)) over qualifying v.
    """
    n = h.order
    b = max(h[i][j] for i in range(n) for j in range(n) if i != j)
    splits = []
    for v in range(n):
        before = [u for u in range(n) if u != v and h[v][u] < b]
        after = [u for u in range(n) if u != v and h[v][u] == b]
        if after:
            splits.append((before + [v] + after, len(before)))
    perm, r = min(splits)
    return principal_submatrix(h, perm), r, b


@_suite("decomp", trials=(50, 1), seed=(0, 0))
def suite_decomp(trials: int, seed: int):
    """Determinant and dimension splitting identities.

    Per graph instance (root-deleted complete multigraph with a chosen
    root edge 0-j):
      (a) det Q~ of the graph = det Q~ after deleting the edge
                                + det Q~ after merging j into the root;
      (b) the same additivity for the 1-skeleton quotient dimensions.
    Per matrix instance (PSD, dominant class, permuted to a pivot index r
    with off-diagonal maximum b; the pivot always exists and is built):
      (c) det H = (H_rr - b) det H2 + det T, where T has b at the pivot
          and H2 deletes the pivot row and column;
      (d) dim J_H = prod(H_ll - b, l > r) * dim J_H1 + (H_rr - b) * dim J_H2,
          where H1 is the leading principal block through r with b at the
          pivot.
    """
    rng = SplitMix64(seed)
    checked = 0
    attempts = 0
    while checked < trials and attempts < 20 * trials:
        attempts += 1
        n = rng.randint(2, 4)
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        g = random_root_deletion(n, a, b, rng.next_u64())
        base = _graph_instance(g, f"split n={n} a={a} b={b}")
        rooted = [j for j in range(1, n + 1) if g.adj[0][j] > 0]
        if not rooted:
            # yield the skips, then draw a replacement so every identity
            # still gets `trials` checked instances
            for identity in "ab":
                yield {**base, "identity": identity, "skipped": "no root edge"}, 0, 0, None, "eq", True
            continue
        checked += 1
        j = rng.choice(rooted)
        g1 = delete_root_edge(g, j)
        g2 = merge_into_root(g, j)
        lhs = det(laplacians(g).qtilde)
        rhs = det(laplacians(g1).qtilde) + det(laplacians(g2).qtilde)
        yield {**base, "identity": "a", "j": j}, lhs, rhs
        yield {**base, "identity": "b", "j": j}, _skel1_dim(g), _skel1_dim(g1) + _skel1_dim(g2)

    for _ in range(trials):
        n = rng.randint(2, 5)
        h, _, gen_attempts, strat = _random_dominant_psd(rng, n, 6)
        base = _matrix_instance(h, f"pivot-split n={n}", strategy=strat, attempts=gen_attempts)
        hp, r, b = _find_pivot_permutation(h)
        alpha = hp[r][r]
        keep = [i for i in range(n) if i != r]
        h2 = principal_submatrix(hp, keep)
        t_rows = [list(row) for row in hp.rows]
        t_rows[r][r] = b
        t = matrix(t_rows)
        lhs = det(hp)
        rhs = (alpha - b) * det(h2) + det(t)
        yield {**base, "identity": "c", "r": r, "b": b}, lhs, rhs
        h1 = principal_submatrix(t, range(r + 1))
        tail = prod(hp[l][l] - b for l in range(r + 1, n))
        dim_lhs = count_standard(matrix_skeleton_ideal(hp))
        dim_rhs = (tail * count_standard(matrix_skeleton_ideal(h1))
                   + (alpha - b) * count_standard(matrix_skeleton_ideal(h2)))
        yield {**base, "identity": "d", "r": r, "b": b}, dim_lhs, dim_rhs


def _shuffled(rng: SplitMix64, items: list) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randint(0, i)
        out[i], out[j] = out[j], out[i]
    return out


@_suite("properties", seed=(0, 0))
def suite_properties(seed: int):
    """Cross-cutting consistency checks on a deterministic corpus:
    agreement of the three counting routes, Hadamard and Fischer bounds
    on PSD matrices, permutation invariance of dimensions and
    determinants, and skeleton monotonicity."""
    corpus = default_graph_corpus(seed)
    rng = SplitMix64(seed)

    ideals: list[tuple[str, MonomialIdeal]] = []
    for label, g, _ in corpus:
        ideals.append((f"skel1({label})", skeleton_ideal(g, 1)))
        if g.n <= 4:
            ideals.append((f"parking({label})", parking_ideal(g)))
    for lam in [(1, 1), (2, 1), (3, 2, 2), (4, 2, 2, 1)]:
        ideals.append((f"lambda{lam}", lambda_ideal(lam)))
    for n, r, a in [(3, 1, 3), (4, 2, 2), (5, 5, 4)]:
        ideals.append((f"step({n},{r},{a})", step_weight_ideal(n, r, a)))

    for label, ideal in ideals:
        dim = count_standard(ideal)
        inst = {"label": f"oracle {label}", "check": "oracle-agreement", "nvars": ideal.nvars,
                "generators": [list(g) for g in ideal.gens]}
        if len(ideal.gens) <= IE_GENERATOR_GUARD:
            yield {**inst, "oracle": "inclusion-exclusion"}, dim, count_standard_ie(ideal)
        if dim <= ENUMERATION_GUARD:
            yield {**inst, "oracle": "enumeration"}, dim, len(enumerate_standard(ideal))

    psd_matrices: list[tuple[str, IntMatrix]] = []
    for label, g, _ in corpus:
        lap = laplacians(g)
        psd_matrices.append((f"qtilde({label})", lap.qtilde))
        psd_matrices.append((f"ltilde({label})", lap.ltilde))
    for k in range(4):
        n = rng.randint(2, 5)
        b = matrix([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
        psd_matrices.append((f"gram-{k}", matmul(transpose(b), b)))

    for label, m in psd_matrices:
        inst = {"label": f"bounds {label}", "check": "hadamard-fischer",
                "rows": [list(r) for r in m.rows]}
        det_m = psd_det(m)
        if det_m is None:
            yield {**inst, "error": "expected PSD"}, 0, 0, None, "eq", False
            continue
        diag_prod = prod(m[i][i] for i in range(m.order))
        yield {**inst, "bound": "hadamard"}, diag_prod, det_m, None, "geq"
        for k in range(1, m.order):
            a = principal_submatrix(m, range(k))
            c = principal_submatrix(m, range(k, m.order))
            yield {**inst, "bound": f"fischer-{k}"}, det(a) * det(c), det_m, None, "geq"

    for label, g, _ in corpus:
        if g.n < 2:
            continue
        perm = _shuffled(rng, list(range(1, g.n + 1)))
        gp = relabel_vertices(g, perm)
        inst = {"label": f"relabel {label}", "check": "permutation-invariance", "perm": perm}
        yield ({**inst, "quantity": "skel1-dim"},
               count_standard(skeleton_ideal(g, 1)), count_standard(skeleton_ideal(gp, 1)))
        lap, lapp = laplacians(g), laplacians(gp)
        yield {**inst, "quantity": "qtilde-det"}, det(lap.qtilde), det(lapp.qtilde)
        yield {**inst, "quantity": "ltilde-det"}, det(lap.ltilde), det(lapp.ltilde)

    for label, g, _ in corpus:
        if g.n < 2 or g.n > 4:
            continue
        counts = [count_standard(skeleton_ideal(g, k)) for k in range(g.n)]
        for k in range(g.n - 1):
            inst = {"label": f"monotone {label} k={k}", "check": "skeleton-monotonicity"}
            yield inst, counts[k], counts[k + 1], None, "geq"
