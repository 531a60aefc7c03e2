"""Conjunctive graph-pattern queries over raw or saturated graphs.

A query is a set of triple patterns joined on shared variables, with
optional negation blocks.  Negation is closed-world only: under the
open-world assumption the absence of a triple is not its negation, so a
query combining `NOT` with `ASSUME open` is rejected outright.  Under
the owl regime a query is joined on the closure's sameAs representatives,
never on its expansion, with the classes read where the closure keeps
them (`Graph.equality`), and result terms are canonicalized to each
class's canonical member.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import vocab
from .errors import ParseError, QueryValidationError
from .graph import Binding, Graph
from .io import BLANK, EOF, _Fault, _scan, _term_from_tokens
from .owl import saturate_owl
from .rdfs import saturate_rdfs
from .terms import PrefixMap, Term, TriplePattern, Var, sort_key

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


def _projection(q: Query) -> tuple[str, ...]:
    """The variables of each answer row: the query's projection, or else every variable of its patterns, sorted."""
    return q.projection or tuple(sorted(set().union(*(p.variables() for p in q.patterns))))


def _resolve(work: Graph, patterns: tuple[TriplePattern, ...]) -> list[tuple] | None:
    """Planned patterns, each position (variable name, None) or (None, constant id); None if a constant is absent.

    A constant's id is that of its sameAs representative when `work` holds representatives.
    Most selective first: more bound positions, then fewer matching triples, then the given order.
    """
    equality = work.equality
    keyed = []
    for i, p in enumerate(patterns):
        ids = work._pattern_ids(p.positions())
        if ids is None:
            return None
        if equality is not None:
            ids = [None if tid is None else equality.find(tid) for tid in ids]
        slots = tuple((pos.name if isinstance(pos, Var) else None, tid) for pos, tid in zip(p.positions(), ids))
        keyed.append(((ids.count(None), work.cardinality_ids(*ids), i), slots))
    return [slots for _, slots in sorted(keyed)]


def _join(work: Graph, plan: list[tuple] | None, binding: dict[str, int]) -> list[dict[str, int]]:
    """Every extension of the id binding that matches all the resolved patterns."""
    if plan is None:
        return []
    bindings = [binding]
    for slots in plan:
        grown = []
        for b in bindings:
            for t in work.match_ids(*(tid if name is None else b.get(name) for name, tid in slots)):
                extended = dict(b)
                # a variable repeated within the pattern must bind one id
                if all(extended.setdefault(name, v) == v for (name, _), v in zip(slots, t) if name is not None):
                    grown.append(extended)
        bindings = grown
        if not bindings:
            break
    return bindings


def query(graph: Graph, q: Query, regime: str = "none") -> list[Binding]:
    """Evaluate the query against the chosen closure; deterministic order."""
    if regime not in REGIMES:
        raise QueryValidationError(f"unknown regime {regime!r}, expected one of {REGIMES}")
    if regime == "none":
        return _answer(graph, q)
    if regime == "rdfs":
        return _answer(saturate_rdfs(graph).graph, q)
    return _answer(saturate_owl(graph)[0].work, q)


def _answer(work: Graph, q: Query) -> list[Binding]:
    """The rows of the query on `work`, in canonical order.

    On an OWL closure's representatives (`work.equality`) a constant is
    mapped to its representative, which stands for every sameAs variant of
    an answer, and an answer to its class's canonical member.
    """
    _validate(q)
    equality = work.equality
    bindings = _join(work, _resolve(work, q.patterns), {})
    blocks = [_resolve(work, block) for block in q.negations]
    bindings = [b for b in bindings if not any(_join(work, block, b) for block in blocks)]

    projection = _projection(q)
    rows: dict[tuple, Binding] = {}
    for ids in {tuple(b[v] if equality is None else equality.canonical(b[v]) for v in projection) for b in bindings}:
        row = {v: work.term(i) for v, i in zip(projection, ids)}
        rows[tuple(sort_key(t) for t in row.values())] = row
    return [rows[k] for k in sorted(rows)]


# ---------------------------------------------------------------------------
# Query text format
# ---------------------------------------------------------------------------

# Splits a query line into tokens; the data scanner then reads each term token.
# A word ends where the data scanner ends one: before a '"' or '<', and
# before a '.' that whitespace or the line's end follows, unless a
# backslash escapes it (`e:a\.`).  Its first character may be any but
# whitespace or a brace, so that a malformed IRI or literal reaches the
# scanner, which names it.
_TOKEN = re.compile(
    r"""
    (?P<iri><[^>]*>)
  | (?P<literal>"(?:[^"\\]|\\.)*"(?:@(?:[^\W_]|-)*|\^\^(?:<[^>]*>|[^\s{}.]+))?)
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<brace>[{}])
  | (?P<dot>\.(?=\s|$))
  | (?P<word>[^\s{}](?:[^\s{}"<.\\]|\\[^\s{}"<]?|\.(?!\s|$))*)
    """,
    re.X,
)


def _to_term(m: re.Match, prefixes: PrefixMap, lineno: int) -> Term | Var:
    if m.group().startswith("?"):
        return Var(m.group()[1:])
    try:
        tokens = _scan(m.group())
        kind, label, offset = tokens[0]
        if kind == BLANK:  # a label means nothing outside its own document
            raise _Fault(f"blank node _:{label} in a query", offset)
        term, pos = _term_from_tokens(tokens, 0, prefixes)
        if tokens[pos][0] != EOF:
            raise _Fault(f"expected one term or variable, got {m.group()!r}", 0)
    except _Fault as fault:  # a query line holds no newline
        raise fault.at(lineno, m.start() + fault.offset + 1) from None
    return term


def _patterns_from_tokens(tokens: list[re.Match], prefixes: PrefixMap, lineno: int) -> list[TriplePattern]:
    positions = [m for m in tokens if m.group() != "."]
    if len(positions) % 3 != 0 or not positions:  # at the pattern short of a term, or at a lone '.'
        at = (positions[len(positions) // 3 * 3 :] or tokens)[0]
        raise ParseError("each triple pattern needs exactly three terms", lineno, at.start() + 1)
    terms = [_to_term(m, prefixes, lineno) for m in positions]
    return [TriplePattern(*terms[i : i + 3]) for i in range(0, len(terms), 3)]


def _directive(matches: list[re.Match], lineno: int, message: str, *accepts) -> None:
    """Check a directive line of one word and `len(accepts)` arguments, each passing its test.

    Raises `message` at the first argument that fails its test or is one too many, or at
    the directive word when an argument is missing.
    """
    for m, accept in zip(matches[1:], accepts):
        if not accept(m.group()):
            raise ParseError(message, lineno, m.start() + 1)
    if len(matches) != len(accepts) + 1:  # at the first argument too many, else at the word
        raise ParseError(message, lineno, (matches[len(accepts) + 1 :] or matches)[0].start() + 1)


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

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        matches = list(_TOKEN.finditer(raw))
        tokens = [m.group() for m in matches]
        head = tokens[0].upper()
        if head == "PREFIX":
            _directive(
                matches, lineno, "expected 'PREFIX p: <namespace>'", lambda t: t.endswith(":"), lambda t: t.startswith("<")
            )
            prefixes.bind(tokens[1][:-1], _to_term(matches[2], prefixes, lineno).value)
        elif head == "ASSUME":
            _directive(matches, lineno, "expected 'ASSUME open' or 'ASSUME closed'", lambda t: t in (OPEN, CLOSED))
            assumption = tokens[1]
        elif head == "REGIME":
            _directive(matches, lineno, "expected 'REGIME none|rdfs|owl'", lambda t: t in REGIMES)
            regime = tokens[1]
        elif head == "SELECT":
            if len(matches) == 1:
                raise ParseError("SELECT lists no variables", lineno, matches[0].start() + 1)
            for m in matches[1:]:
                if not m.group().startswith("?"):
                    raise ParseError(f"SELECT lists variables, got {m.group()!r}", lineno, m.start() + 1)
                projection.append(m.group()[1:])
        elif head == "NOT":
            if len(tokens) < 4 or tokens[1] != "{" or tokens[-1] != "}":  # `NOT { }` too
                # at what stands in for '{', or follows the block's first '}'; at NOT when a part is missing
                after = tokens.index("}", 2) + 1 if "}" in tokens[2:-1] else 0
                at = matches[1] if len(tokens) > 1 and tokens[1] != "{" else matches[after]
                raise ParseError("expected 'NOT { pattern ... }'", lineno, at.start() + 1)
            negations.append(tuple(_patterns_from_tokens(matches[2:-1], prefixes, lineno)))
        else:
            patterns.extend(_patterns_from_tokens(matches, prefixes, lineno))

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
    blocks: list[tuple[str, int, list[str]]] = []
    current: list[str] | None = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        words = stripped.split(maxsplit=1)
        if words and words[0].upper() == "QUERY":
            if len(words) == 1:
                raise ParseError("QUERY line has no name", lineno, len(raw) - len(raw.lstrip()) + 1)
            current = []
            blocks.append((words[1], lineno, current))
        elif stripped and current is None and not stripped.startswith("#"):
            raise ParseError("content before the first QUERY line", lineno, len(raw) - len(raw.lstrip()) + 1)
        elif current is not None:
            current.append(raw)
    out = []
    for name, start, lines in blocks:
        # blank lines before the block keep error line numbers those of the file
        q, regime = parse_query("\n" * start + "\n".join(lines))
        out.append((name, q, regime))
    return out
