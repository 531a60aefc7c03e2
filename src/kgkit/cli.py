"""Command-line front end.

Thin adapters around the library: every command parses its inputs,
calls the corresponding module function and serializes the result.
Machine-readable output goes to stdout, diagnostics to stderr.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 inconsistent KB,
4 query/validation error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import json
import os
import sys
from typing import TYPE_CHECKING

from . import owl, rdfs, reify
from .errors import KGError, ParseError, QueryValidationError, ValidationError
from .query import REGIMES, _answer, _projection, parse_competency, parse_query, query as run_query
from .graph import Graph
from .io import _serialize_ids, format_term, parse_ntriples, parse_term, parse_turtle, serialize_ntriples
from .terms import IRI, Term

if TYPE_CHECKING:
    from . import embeddings

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INCONSISTENT = 3
EXIT_QUERY = 4


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_graph(path: str, fmt: str | None) -> Graph:
    text = _read(path)
    if fmt is None:
        fmt = "nt" if path.endswith(".nt") else "ttl"
    if fmt == "nt":
        return parse_ntriples(text)
    report = parse_turtle(text)
    for line, message in report.warnings:
        print(f"warning: line {line}: {message}", file=sys.stderr)
    return report.graph


def _term_arg(value: str) -> Term:
    if value.startswith(("<", "_:", '"')):
        return parse_term(value)
    return IRI(value)


def _print_report(report: rdfs.InconsistencyReport) -> None:
    for v in report.violations:
        triples = "; ".join(
            f"{format_term(t.subject)} {format_term(t.predicate)} {format_term(t.object)}" for t in v.triples
        )
        print(f"violation: {v.rule}: {triples}", file=sys.stderr)


def _report_json(report: rdfs.InconsistencyReport) -> list[dict]:
    return [
        {
            "rule": v.rule,
            "triples": [
                [format_term(t.subject), format_term(t.predicate), format_term(t.object)] for t in v.triples
            ],
        }
        for v in report.violations
    ]


@contextlib.contextmanager
def _stats(args):
    """With --stats, write the counts of every fixpoint run inside the block to stderr as one JSON line."""
    if not args.stats:
        yield
        return
    with rdfs.fixpoint_stats() as runs:
        yield
    print(json.dumps({"fixpoints": [run.as_json() for run in runs]}, sort_keys=True), file=sys.stderr)


def cmd_parse(args) -> int:
    graph = _load_graph(args.input, args.format)
    _write_out(serialize_ntriples(graph), args.out)
    return EXIT_OK


def cmd_infer(args) -> int:
    graph = _load_graph(args.input, args.format)
    with _stats(args):
        closure = rdfs.saturate_rdfs(graph) if args.profile == "rdfs" else owl.saturate_owl(graph)[0]
    report = closure.report
    if args.derived_only:
        triples = closure._derived_ids
    elif args.profile == "owl":  # the expanded copies, written with no expanded graph built
        triples = [t for t, _ in closure._copies()]
    else:
        triples = closure.work._triples
    _write_out(_serialize_ids(triples, closure.work.term), args.out)
    if report:
        _print_report(report)
        return EXIT_INCONSISTENT
    return EXIT_OK


def _ask(work: Graph, questions, regime: str, outcome: dict[int, bool | str]) -> None:
    # `work` is closed under the regime, under owl in sameAs representatives (`_answer` reads `work.equality`)
    for i, (name, q, r) in enumerate(questions):
        if r == regime:
            try:
                outcome[i] = bool(_answer(work, q))
            except QueryValidationError as exc:
                outcome[i] = f"competency {name}: {exc}"


def cmd_check(args) -> int:
    graph = _load_graph(args.input, args.format)
    questions = parse_competency(_read(args.competency)) if args.competency else []
    outcome: dict[int, bool | str] = {}
    with _stats(args):
        closure, report = owl.saturate_owl(graph)
        _ask(closure.work, questions, "owl", outcome)
        closure = None  # hold one closure at a time, the graph's cached one included
        graph._closures.pop("owl", None)
        if any(regime == "rdfs" for _, _, regime in questions):
            _ask(rdfs.saturate_rdfs(graph).graph, questions, "rdfs", outcome)
    _ask(graph, questions, "none", outcome)
    for i in sorted(outcome):
        if isinstance(outcome[i], str):
            print(outcome[i], file=sys.stderr)
    competency_rows = [(name, outcome[i] is True) for i, (name, _, _) in enumerate(questions)]
    if args.json:
        payload = {
            "consistent": not report,
            "violations": _report_json(report),
            "competency": [{"name": n, "pass": ok} for n, ok in competency_rows],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print("inconsistent" if report else "consistent")
        for name, ok in competency_rows:
            print(f"{'PASS' if ok else 'FAIL'}\t{name}")
    if report:
        _print_report(report)
        return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_query(args) -> int:
    graph = _load_graph(args.input, args.format)
    q, file_regime = parse_query(_read(args.queryfile))
    regime = args.regime or file_regime
    bindings = run_query(graph, q, regime)
    variables = _projection(q)
    if args.tsv:
        lines = ["\t".join(f"?{v}" for v in variables)]
        for b in bindings:
            lines.append("\t".join(format_term(b[v]) for v in variables))
        _write_out("\n".join(lines) + "\n", args.out)
    else:
        rows = [{v: format_term(b[v]) for v in variables} for b in bindings]
        _write_out(json.dumps(rows, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_reify(args) -> int:
    spec = reify.parse_table_spec(_read(args.spec))
    rows = reify.rows_from_csv(_read(args.csv))
    graph = reify.reify_table(rows, spec)
    _write_out(serialize_ntriples(graph), args.out)
    return EXIT_OK


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("KB_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise ValidationError(f"KB_SEED must be an integer, got {env!r}") from None


def _rank_metrics(metrics: embeddings.RankMetrics) -> dict[str, float]:
    from . import embeddings

    return {f.name: getattr(metrics, f.name) for f in dataclasses.fields(embeddings.RankMetrics)}


def cmd_embed(args) -> int:
    if args.action == "train" and args.log_every is not None and args.log_every < 1:
        print(f"--log-every must be at least 1, got {args.log_every}", file=sys.stderr)
        return EXIT_USAGE
    from . import embeddings  # numpy loads only for this command

    graph = _load_graph(args.graph, args.format)
    if args.action == "train":
        seed = _resolve_seed(args)
        config = embeddings.TrainConfig(
            margin=args.margin,
            learning_rate=args.lr,
            epochs=args.epochs,
            negatives_per_positive=args.negatives,
            seed=seed,
        )
        model = embeddings.init_model(graph, args.dim, seed, norm=args.norm)
        losses = embeddings.train(model, graph, config)
        embeddings.save_model(model, args.model)
        if args.log_every:
            for epoch, loss in enumerate(losses, 1):
                if epoch % args.log_every == 0 or epoch == len(losses):
                    print(f"epoch={epoch} loss={loss:.6f}", file=sys.stderr)
        if losses:
            print(f"epochs={len(losses)} first_loss={losses[0]:.6f} last_loss={losses[-1]:.6f}", file=sys.stderr)
        return EXIT_OK
    model = embeddings.load_model(args.model)
    if args.action == "eval":
        test_graph = _load_graph(args.test, args.format)
        report = embeddings.evaluate(model, graph, test_graph.triples())
        payload = _rank_metrics(report)
        if args.per_relation:
            payload["per_relation"] = {format_term(rel): _rank_metrics(m) for rel, m in report.per_relation.items()}
        print(json.dumps(payload, sort_keys=True))
        return EXIT_OK
    # predict
    relation = _term_arg(args.relation)
    head = _term_arg(args.head) if args.head else None
    tail = _term_arg(args.tail) if args.tail else None
    ranked = embeddings.predict_links(
        model, graph, s=head, p=relation, o=tail, k=args.k, filtered=args.filtered
    )
    lines = [f"{format_term(term)}\t{value:.6f}" for term, value in ranked]
    _write_out("\n".join(lines) + ("\n" if lines else ""), args.out)
    return EXIT_OK


_NORMS = ("L1", "L2")  # embeddings.L1 and embeddings.L2, named here so that parsing loads no numpy
_STATS_HELP = "print each fixpoint run's rounds, delta sizes and per-rule candidate and new-triple counts on stderr as JSON"


@functools.cache  # one per process: a parse makes a new namespace and changes no parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgkit", description="Knowledge-graph toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a graph and emit canonical N-Triples")
    p.add_argument("input")
    p.add_argument("--format", choices=["nt", "ttl"], default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("infer", help="emit the RDFS or OWL closure")
    p.add_argument("input")
    p.add_argument("--format", choices=["nt", "ttl"], default=None)
    p.add_argument("--profile", choices=["rdfs", "owl"], default="rdfs")
    p.add_argument("--derived-only", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--stats", action="store_true", help=_STATS_HELP)

    p = sub.add_parser("check", help="consistency check, optionally with competency questions")
    p.add_argument("input")
    p.add_argument("--format", choices=["nt", "ttl"], default=None)
    p.add_argument("--competency", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--stats", action="store_true", help=_STATS_HELP)

    p = sub.add_parser("query", help="run a query file against a graph")
    p.add_argument("input")
    p.add_argument("queryfile")
    p.add_argument("--format", choices=["nt", "ttl"], default=None)
    p.add_argument("--regime", choices=list(REGIMES), default=None)
    p.add_argument("--tsv", action="store_true", help="TSV output instead of JSON")
    p.add_argument("--out", default=None)

    p = sub.add_parser("reify", help="turn a CSV into reified relation instances")
    p.add_argument("csv")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("embed", help="train, evaluate or query a TransE model")
    actions = p.add_subparsers(dest="action", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("graph")
    common.add_argument("--format", choices=["nt", "ttl"], default=None)
    common.add_argument("--model", required=True)

    a = actions.add_parser("train", parents=[common], help="train a model on the graph and write it to --model")
    a.add_argument("--dim", type=int, default=20)
    a.add_argument("--margin", type=float, default=1.0)
    a.add_argument("--lr", type=float, default=0.01)
    a.add_argument("--epochs", type=int, default=100)
    a.add_argument("--negatives", type=int, default=1)
    a.add_argument("--seed", type=int, default=None, help="overrides KB_SEED; default 0")
    a.add_argument("--log-every", type=int, default=None, metavar="N", help="each N-th epoch's loss, and the last, on stderr")
    a.add_argument("--norm", choices=list(_NORMS), default=_NORMS[0])

    a = actions.add_parser("eval", parents=[common], help="filtered rank metrics of held-out triples, as JSON")
    a.add_argument("--test", required=True, help="held-out triples, read like the graph")
    a.add_argument("--per-relation", action="store_true", help="add per-relation metrics to the JSON")

    a = actions.add_parser("predict", parents=[common], help="the top k completions of a triple with one free slot")
    a.add_argument("--relation", required=True)
    slot = a.add_mutually_exclusive_group(required=True)
    slot.add_argument("--head")
    slot.add_argument("--tail")
    a.add_argument("-k", type=int, default=10)
    a.add_argument("--filtered", action="store_true")
    a.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    """Run one command with the cyclic collector paused, and leave it on or off as the caller had it.

    A command builds many containers and no garbage cycle, so collections
    would only walk them; reference counting frees what it drops.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return globals()[f"cmd_{args.command}"](args)  # looked up per call, as the parser outlives it
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except QueryValidationError as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return EXIT_QUERY
    except UnicodeDecodeError as exc:
        print(f"parse error: invalid UTF-8 at byte {exc.start}: {exc.reason}", file=sys.stderr)
        return EXIT_PARSE
    except (KGError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy refuses an array too large for the machine at once
        print("error: out of memory" + (f" ({exc})" if str(exc) else ""), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
