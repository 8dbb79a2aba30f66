"""Command-line interface.

Subcommands: gen (write instance graphs), ideal (dump generators),
dim (standard-monomial count), det (exact determinants), formulas
(closed-form values, one flag per entry of `_FORMULAS`) and verify (named
suites, whose reports `render_reports` writes as JSON, CSV or text).
Exit codes: 0 success / all trials passed, 2 at least one failing trial,
1 usage or I/O error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from json.encoder import encode_basestring_ascii

from . import suites as suites_mod
from .exact_linalg import det, matrix_from_json, parse_int
from .formulas import (
    flat_parking_count,
    parking_dim_complete,
    root_deleted_signless_det,
    skeleton1_dim_complete,
    steck_count,
    step_weight_dim,
    step_weight_identity_holds,
)
from .monomial_ideals import (
    ideal_to_json,
    ideal_to_text,
    lambda_ideal,
    matrix_skeleton_ideal,
    parking_ideal,
    skeleton_ideal,
    step_weight_ideal,
)
from .multigraph import (
    complete_minus_root_edges,
    complete_multigraph,
    format_graph,
    graph_to_json,
    laplacians,
    random_multigraph,
    random_root_deletion,
    parse_graph,
)
from .standard_count import count_standard


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _ints(text: str, flag: str, expect: int | None = None) -> tuple[int, ...]:
    try:
        values = tuple(parse_int(x, flag) for x in text.replace(",", " ").split())
    except ValueError:
        values = ()
    if not values:
        raise UsageError(f"{flag}: expected comma-separated integers, got {text!r}")
    if expect is not None and len(values) != expect:
        raise UsageError(f"{flag}: expected {expect} integers, got {len(values)} in {text!r}")
    return values


def _seed(text: str) -> int:
    """A --seed value: a decimal integer in [0, 2**64), the seeds that
    `rng.SplitMix64` takes without masking one onto another."""
    try:
        seed = parse_int(text, "--seed")
        ok = 0 <= seed < 2**64
    except ValueError:
        ok = False
    if not ok:
        raise UsageError(f"--seed: expected an integer in [0, 2**64), got {text!r}")
    return seed


def _int_flag(text: str) -> int:
    """An integer flag value, parsed as strictly as every other integer
    input (`parse_int`); argparse names the flag in the error."""
    try:
        return parse_int(text, "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _read(path: str, parse):
    """Parse the file at `path`; a malformed file's error names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_out(text: str, out: str | None):
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="parkdet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to this path instead of stdout")

    p = sub.add_parser("gen", parents=[common], help="generate an instance graph")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--kind", choices=["complete", "complete-minus", "random", "root-deletion"],
                   required=True)
    p.add_argument("--n", type=_int_flag, required=True)
    p.add_argument("--a", type=_int_flag, default=1)
    p.add_argument("--b", type=_int_flag, default=1)
    p.add_argument("--r", type=_int_flag, default=0)
    p.add_argument("--max-mult", type=_int_flag, default=2)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("ideal", parents=[common], help="dump minimal generators of an ideal")
    _add_ideal_source(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_ideal)

    p = sub.add_parser("dim", parents=[common], help="count standard monomials")
    _add_ideal_source(p)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("det", parents=[common], help="exact determinant")
    p.add_argument("--graph-file", default=None, help="graph in text or JSON format")
    p.add_argument("--matrix", choices=["l", "q", "ltilde", "qtilde"], default=None,
                   help="Laplace-type matrix of the graph (default qtilde; needs --graph-file)")
    p.add_argument("--matrix-file", default=None, help="JSON matrix (rows of decimal strings)")
    p.set_defaults(func=_cmd_det)

    p = sub.add_parser("formulas", parents=[common], help="evaluate closed forms")
    for flag, metavar, fn in _FORMULAS:
        p.add_argument(flag, metavar=metavar, dest=fn.__name__, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_formulas)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=sorted(suites_mod.SUITES) + ["all"])
    for param in _verify_params():
        flags = ("--n", "--n-max") if param == "n_max" else (_flag(param),)
        p.add_argument(*flags, dest=param, type=_seed if param == "seed" else _int_flag, default=None)
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.set_defaults(func=_cmd_verify)

    return parser


def _add_ideal_source(p: argparse.ArgumentParser):
    p.add_argument("--graph-file", default=None, help="graph in text or JSON format")
    p.add_argument("--skeleton", type=_int_flag, default=None, help="skeleton order k (needs --graph-file)")
    p.add_argument("--lambda-seq", metavar="l1,l2,...", default=None)
    p.add_argument("--step", metavar="n,r,a", default=None)
    p.add_argument("--matrix-file", default=None, help="dominant-class matrix (JSON rows)")


def _one_source(args, *dests: str) -> str:
    """The one of the input flags `dests` that is given."""
    given = [d for d in dests if getattr(args, d) is not None]
    if len(given) != 1:
        raise UsageError(f"give exactly one of {', '.join(map(_flag, dests))}")
    return given[0]


_IDEAL_SOURCES = ("graph_file", "lambda_seq", "step", "matrix_file")


def _resolve_ideal(args):
    source = _one_source(args, *_IDEAL_SOURCES)
    if args.skeleton is not None and source != "graph_file":
        raise UsageError("--skeleton needs --graph-file")
    if source == "graph_file":
        g = _read(args.graph_file, parse_graph)
        if args.skeleton is not None:
            return skeleton_ideal(g, args.skeleton)
        return parking_ideal(g)
    if source == "lambda_seq":
        return lambda_ideal(_ints(args.lambda_seq, "--lambda-seq"))
    if source == "step":
        n, r, a = _ints(args.step, "--step", 3)
        return step_weight_ideal(n, r, a)
    return _read(args.matrix_file, lambda text: matrix_skeleton_ideal(matrix_from_json(text)))


def _cmd_gen(args) -> int:
    if args.kind == "complete":
        g = complete_multigraph(args.n, args.a, args.b)
    elif args.kind == "complete-minus":
        g = complete_minus_root_edges(args.n, args.r)
    elif args.kind == "random":
        g = random_multigraph(args.n, args.max_mult, args.seed)
    else:
        g = random_root_deletion(args.n, args.a, args.b, args.seed)
    text = graph_to_json(g) + "\n" if args.format == "json" else format_graph(g)
    _write_out(text, args.out)
    return 0


def _cmd_ideal(args) -> int:
    ideal = _resolve_ideal(args)
    text = ideal_to_json(ideal) + "\n" if args.format == "json" else ideal_to_text(ideal)
    _write_out(text, args.out)
    return 0


def _cmd_dim(args) -> int:
    _write_out(f"{count_standard(_resolve_ideal(args))}\n", args.out)
    return 0


def _cmd_det(args) -> int:
    if _one_source(args, "graph_file", "matrix_file") == "matrix_file":
        if args.matrix is not None:
            raise UsageError("--matrix needs --graph-file")
        m = _read(args.matrix_file, matrix_from_json)
    else:
        m = getattr(laplacians(_read(args.graph_file, parse_graph)), args.matrix or "qtilde")
    _write_out(str(det(m)) + "\n", args.out)
    return 0


# The closed forms `formulas` evaluates, in output order: (flag, metavar,
# function). A metavar ending in "..." passes the whole list; any other
# passes exactly as many integers as it names.
_FORMULAS = [
    ("--parking", "n,a,b", parking_dim_complete),
    ("--skel1", "n,a,b", skeleton1_dim_complete),
    ("--qdet", "n,r", root_deleted_signless_det),
    ("--step-dim", "n,r,a", step_weight_dim),
    ("--steck", "l1,l2,...", steck_count),
    ("--flat", "l,x", flat_parking_count),
    ("--identity", "n,a", step_weight_identity_holds),
]


def _cmd_formulas(args) -> int:
    values: dict[str, str] = {}
    for flag, metavar, fn in _FORMULAS:
        text = getattr(args, fn.__name__)
        if text is None:
            continue
        if metavar.endswith("..."):
            value = fn(_ints(text, flag))
        else:
            value = fn(*_ints(text, flag, metavar.count(",") + 1))
        values[fn.__name__] = str(value).lower()  # bools print as true/false
    if not values:
        raise UsageError("no formula selected")
    if args.format == "json":
        _write_out(json.dumps(values) + "\n", args.out)
    else:
        _write_out("".join(f"{k} = {v}\n" for k, v in values.items()), args.out)
    return 0


def _flag(param: str) -> str:
    return "--" + param.replace("_", "-")


def _verify_params() -> dict[str, None]:
    """Every suite parameter, in the order the suites declare them: one
    verify flag each."""
    return dict.fromkeys(p for params in suites_mod.MINIMUMS.values() for p in params)


def _suite_kwargs(names: list[str], args) -> list[dict]:
    """Keyword arguments for each named suite: the verify flags it takes,
    the keys of its `suites.MINIMUMS`, each checked against its minimum
    before any suite runs; a single suite rejects a flag it does not take,
    --seed included (recurrence is exhaustive and takes none). A flag left
    out is not passed, so each suite runs with its own default."""
    minimums = suites_mod.MINIMUMS
    given = {p: v for p in _verify_params() if (v := getattr(args, p)) is not None}
    out = []
    for name in names:
        kwargs = {p: v for p, v in given.items() if p in minimums[name]}
        stray = sorted(given.keys() - kwargs.keys())
        if len(names) == 1 and stray:
            raise UsageError(f"suite {name} takes no {', '.join(map(_flag, stray))}")
        for p, v in kwargs.items():
            if v < (low := minimums[name][p]):
                raise UsageError(f"suite {name} needs {_flag(p)} >= {low}, got {v}")
        out.append(kwargs)
    return out


def _cmd_verify(args) -> int:
    names = sorted(suites_mod.SUITES) if args.suite == "all" else [args.suite]
    kwargs = _suite_kwargs(names, args)
    reports = [suites_mod.SUITES[name](**kw) for name, kw in zip(names, kwargs)]
    _write_out(render_reports(reports, args.format), args.out)
    return max(r.exit_code for r in reports)


def render_reports(reports: list[suites_mod.Report], fmt: str) -> str:
    """`reports` as `fmt`: "json" (one object for one report, else a list),
    "csv" (one header, then a row per trial) or "text" (one block per
    report). JSON is rendered by `_json_indented`, byte for byte what
    `json.dumps(..., indent=2)` gives. Only `json.dumps` is called from
    `json`: bench/tracing.py swaps `json` here for an object that holds
    only `dumps`."""
    if fmt == "json":
        data = [r.to_dict() for r in reports]
        return _json_indented(data[0] if len(data) == 1 else data, "") + "\n"
    if fmt == "csv":
        import csv  # here, not at import: only this branch writes CSV

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["suite", "id", "relation", "pass", "dim", "det", "formula", "instance"])
        for r in reports:
            for t in r.trials:
                d = t.to_dict()
                writer.writerow([r.suite, d["id"], d["relation"], d["pass"], d["dim"], d["det"],
                                 d["formula"] or "", json.dumps(d["instance"])])
        return buf.getvalue()
    return "\n".join(_text_block(r) for r in reports)


def _json_indented(o, pad: str) -> str:
    """`o` as `json.dumps(o, indent=2)` writes it, with every line after
    the first indented by `pad`, for str, int, bool, None, lists, tuples
    and dicts with str keys; any other type, key included, raises
    TypeError naming it. With an indent, json.dumps leaves its C encoder
    for a pure-Python generator per value; this joins each container
    once."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, int):
        return "true" if o is True else "false" if o is False else int.__repr__(o)
    if o is None:
        return "null"
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if all(type(x) is int for x in o):
            items = map(int.__repr__, o)
        else:
            items = [_json_indented(x, inner) for x in o]
        return "[\n" + inner + sep.join(items) + "\n" + pad + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json_indented(v, inner) for k, v in o.items()]
        return "{\n" + inner + sep.join(items) + "\n" + pad + "}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _text_block(r: suites_mod.Report) -> str:
    lines = [f"suite {r.suite}  seed={r.seed}  params={json.dumps(r.params)}"]
    for t in r.trials:
        label = t.instance["label"]
        skipped = t.instance.get("skipped")
        if skipped:
            lines.append(f"  [{t.id:4d}] skip  {label}  ({skipped})")
            continue
        extra = f"  slack={t.dim - t.det}" if t.relation == "geq" else ""
        if t.formula is not None:
            extra += f"  formula={t.formula}"
        status = "pass" if t.passed else "FAIL"
        lines.append(f"  [{t.id:4d}] {status}  {t.relation}  dim={t.dim}  det={t.det}{extra}  {label}")
    lines.append(f"summary: {len(r.trials)} trials, {len(r.failed)} failed, {r.elapsed_ms} ms")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
