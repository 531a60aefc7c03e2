"""Conjunctive graph-pattern queries over raw or saturated graphs.

A query is a set of triple patterns joined on shared variables, with
optional negation blocks.  Negation is closed-world only: under the
open-world assumption the absence of a triple is not its negation, so a
query combining `NOT` with `ASSUME open` is rejected outright.  Under
the owl regime, result terms are canonicalized to their sameAs
representatives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import vocab
from .errors import ParseError, QueryValidationError
from .graph import Binding, Graph
from .owl import EqualityPartition, saturate_owl
from .rdfs import saturate_rdfs
from .terms import IRI, Literal, PrefixMap, Term, TriplePattern, Var, sort_key

OPEN = "open"
CLOSED = "closed"

REGIMES = ("none", "rdfs", "owl")


@dataclass(frozen=True)
class Query:
    patterns: tuple[TriplePattern, ...]
    negations: tuple[tuple[TriplePattern, ...], ...] = ()
    projection: tuple[str, ...] = ()
    assumption: str = OPEN


def _validate(q: Query) -> None:
    if q.assumption not in (OPEN, CLOSED):
        raise QueryValidationError(f"unknown world assumption {q.assumption!r}")
    if not q.patterns:
        raise QueryValidationError("query has no triple patterns")
    if q.negations and q.assumption == OPEN:
        raise QueryValidationError(
            "negation requires the closed-world assumption: under the open world, "
            "absence of a fact is not its negation"
        )
    positive_vars = set().union(*(p.variables() for p in q.patterns))
    for v in q.projection:
        if v not in positive_vars:
            raise QueryValidationError(f"projection variable ?{v} occurs in no pattern")


def _substitute(pattern: TriplePattern, binding: Binding) -> TriplePattern:
    def sub(pos):
        if isinstance(pos, Var) and pos.name in binding:
            return binding[pos.name]
        return pos

    return TriplePattern(sub(pattern.subject), sub(pattern.predicate), sub(pattern.object))


def _plan(work: Graph, patterns: tuple[TriplePattern, ...]) -> list[TriplePattern]:
    """Most selective first: more bound positions, then smaller index estimate."""

    def key(indexed: tuple[int, TriplePattern]):
        i, p = indexed
        bound = [None if isinstance(pos, Var) else pos for pos in p.positions()]
        return (3 - p.bound_count(), work.cardinality(*bound), i)

    return [p for _, p in sorted(enumerate(patterns), key=lambda ip: key(ip))]


def _join(work: Graph, patterns: tuple[TriplePattern, ...]) -> list[Binding]:
    bindings: list[Binding] = [{}]
    for pattern in _plan(work, patterns):
        grown: list[Binding] = []
        for binding in bindings:
            for _, extra in work.match(_substitute(pattern, binding)):
                grown.append({**binding, **extra})
        bindings = grown
        if not bindings:
            break
    return bindings


def query(graph: Graph, q: Query, regime: str = "none") -> list[Binding]:
    """Evaluate the query against the chosen closure; deterministic order."""
    if regime not in REGIMES:
        raise QueryValidationError(f"unknown regime {regime!r}, expected one of {REGIMES}")
    _validate(q)
    partition = None
    if regime == "none":
        work = graph
    elif regime == "rdfs":
        work = saturate_rdfs(graph).graph
    else:
        work = saturate_owl(graph)[0].graph
        partition = EqualityPartition.from_graph(work)

    bindings = _join(work, q.patterns)
    if q.negations:
        kept = []
        for binding in bindings:
            blocked = any(
                _join(work, tuple(_substitute(p, binding) for p in block)) for block in q.negations
            )
            if not blocked:
                kept.append(binding)
        bindings = kept

    projection = q.projection or tuple(sorted(set().union(*(p.variables() for p in q.patterns))))
    rows: dict[tuple, Binding] = {}
    for binding in bindings:
        projected = {v: binding[v] for v in projection}
        if partition is not None:
            projected = {v: partition.representative(t) for v, t in projected.items()}
        rows[tuple(sort_key(projected[v]) for v in projection)] = projected
    return [rows[k] for k in sorted(rows)]


# ---------------------------------------------------------------------------
# Query text format
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"""
    (?P<iri><[^<>\s]*>)
  | (?P<literal>"(?:[^"\\]|\\.)*"(?:@[A-Za-z][A-Za-z0-9-]*|\^\^(?:<[^<>\s]*>|[^\s{}.]+))?)
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<brace>[{}])
  | (?P<dot>\.(?=\s|$))
  | (?P<word>[^\s{}]+)
    """,
    re.X,
)

_UNESCAPE = {"\\n": "\n", "\\r": "\r", "\\t": "\t", '\\"': '"', "\\\\": "\\"}


def _unquote(text: str) -> str:
    return re.sub(r"\\[nrt\"\\]", lambda m: _UNESCAPE[m.group(0)], text)


def _to_term(token: str, prefixes: PrefixMap, lineno: int) -> Term | Var:
    if token.startswith("<"):
        return IRI(token[1:-1])
    if token.startswith("?"):
        return Var(token[1:])
    if token.startswith('"'):
        m = re.match(r'"((?:[^"\\]|\\.)*)"(?:@([A-Za-z][A-Za-z0-9-]*)|\^\^(.+))?$', token)
        if m is None:
            raise ParseError(f"bad literal {token!r}", lineno)
        lexical, lang, dt = m.group(1), m.group(2), m.group(3)
        if lang:
            return Literal(_unquote(lexical), language=lang)
        if dt:
            dt_iri = dt[1:-1] if dt.startswith("<") else prefixes.expand(dt).value
            return Literal(_unquote(lexical), datatype=dt_iri)
        return Literal(_unquote(lexical))
    if token == "a":
        return vocab.RDF_TYPE
    if ":" in token:
        return prefixes.expand(token)
    raise ParseError(f"expected a term or variable, got {token!r}", lineno)


def _patterns_from_tokens(tokens: list[str], prefixes: PrefixMap, lineno: int) -> list[TriplePattern]:
    positions = [t for t in tokens if t != "."]
    if len(positions) % 3 != 0 or not positions:
        raise ParseError("each triple pattern needs exactly three terms", lineno)
    out = []
    for i in range(0, len(positions), 3):
        s, p, o = (_to_term(tok, prefixes, lineno) for tok in positions[i : i + 3])
        out.append(TriplePattern(s, p, o))
    return out


def parse_query(text: str) -> tuple[Query, str]:
    """Parse the query file format; returns the query and its regime.

    Directives (each on its own line): ``PREFIX p: <ns>``,
    ``ASSUME open|closed``, ``REGIME none|rdfs|owl``, ``SELECT ?x ?y``.
    Every other nonempty line is one triple pattern, or a negation block
    ``NOT { pattern . pattern }``.
    """
    prefixes = PrefixMap.common()
    prefixes.bind("", vocab.DEFAULT_NS)
    assumption = OPEN
    regime = "none"
    projection: list[str] = []
    patterns: list[TriplePattern] = []
    negations: list[tuple[TriplePattern, ...]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = [m.group(0) for m in _TOKEN.finditer(line)]
        head = tokens[0].upper()
        if head == "PREFIX":
            if len(tokens) != 3 or not tokens[1].endswith(":") or not tokens[2].startswith("<"):
                raise ParseError("expected 'PREFIX p: <namespace>'", lineno)
            prefixes.bind(tokens[1][:-1], tokens[2][1:-1])
        elif head == "ASSUME":
            if len(tokens) != 2 or tokens[1] not in (OPEN, CLOSED):
                raise ParseError("expected 'ASSUME open' or 'ASSUME closed'", lineno)
            assumption = tokens[1]
        elif head == "REGIME":
            if len(tokens) != 2 or tokens[1] not in REGIMES:
                raise ParseError("expected 'REGIME none|rdfs|owl'", lineno)
            regime = tokens[1]
        elif head == "SELECT":
            for tok in tokens[1:]:
                if not tok.startswith("?"):
                    raise ParseError(f"SELECT lists variables, got {tok!r}", lineno)
                projection.append(tok[1:])
        elif head == "NOT":
            if len(tokens) < 3 or tokens[1] != "{" or tokens[-1] != "}":
                raise ParseError("expected 'NOT { pattern ... }'", lineno)
            negations.append(tuple(_patterns_from_tokens(tokens[2:-1], prefixes, lineno)))
        else:
            patterns.extend(_patterns_from_tokens(tokens, prefixes, lineno))

    q = Query(
        patterns=tuple(patterns),
        negations=tuple(negations),
        projection=tuple(projection),
        assumption=assumption,
    )
    return q, regime


def parse_competency(text: str) -> list[tuple[str, Query, str]]:
    """Parse a saved-query file of named queries.

    Each block starts with ``QUERY <name>`` and continues in the normal
    query format until the next QUERY line.
    """
    blocks: list[tuple[str, list[str]]] = []
    current: list[str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.upper().startswith("QUERY "):
            name = stripped[6:].strip()
            if not name:
                raise ParseError("QUERY line has no name", lineno)
            current = []
            blocks.append((name, current))
        elif stripped and current is None and not stripped.startswith("#"):
            raise ParseError("content before the first QUERY line", lineno)
        elif current is not None:
            current.append(raw)
    out = []
    for name, lines in blocks:
        q, regime = parse_query("\n".join(lines))
        out.append((name, q, regime))
    return out
