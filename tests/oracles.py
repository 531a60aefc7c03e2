"""Independent reference implementations used only to check the engines.

Everything here is deliberately naive: full rescans of the whole triple
set until nothing changes, no indexes, no deltas.  Triples are plain
(subject, predicate, object) term tuples.  The oracles call no function
of the rule and query code (`kgkit.rdfs`, `kgkit.owl`, `kgkit.query`;
`test_the_oracles_import_no_function_of_the_rule_or_query_code` reads
the imports): they share only its classes and constants, such as
`Violation`, `Query` and `REGIMES`.  They take and give the library's
terms and graphs, and the text oracles use the readers' token kinds and
escape tables.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from kgkit import vocab
from kgkit.embeddings import CORRUPT_BOTH, CORRUPT_HEAD
from kgkit.errors import ParseError, QueryValidationError, ReifyError, SamplingError, UnknownPrefixError, ValidationError
from kgkit.io import (
    _ESCAPES,
    _IRI_UNSAFE,
    AT_PREFIX,
    BLANK,
    COMMA,
    DOT,
    EOF,
    HATHAT,
    IRIREF,
    KEYWORD_A,
    LANGTAG,
    LBRACKET,
    LPAREN,
    QNAME,
    RBRACKET,
    RPAREN,
    SEMICOLON,
    STRING,
    ParseReport,
    format_term,
)
from kgkit.frames import DEFINED, GENERAL, INDIVIDUAL, Facet, Frame, FrameSystem
from kgkit.graph import Binding, Graph
from kgkit.query import REGIMES, Query
from kgkit.rdfs import Derivation, InconsistencyReport, Violation
from kgkit.reify import TableSpec, camel_case
from kgkit.terms import IRI, BlankNode, Literal, PrefixMap, Term, Triple, TriplePattern, Var, sort_key, triple_sort_key

TermTriple = tuple[Term, Term, Term]


class _Token(NamedTuple):
    """A token with the line and column it starts at."""

    kind: str
    value: str
    line: int
    col: int


TYPE = vocab.RDF_TYPE
SCO = vocab.RDFS_SUBCLASSOF
SPO = vocab.RDFS_SUBPROPERTYOF
DOM = vocab.RDFS_DOMAIN
RNG = vocab.RDFS_RANGE
SA = vocab.OWL_SAMEAS
FIRST = vocab.RDF_FIRST
REST = vocab.RDF_REST
NIL = vocab.RDF_NIL


def _lit(t: Term) -> bool:
    return isinstance(t, Literal)


def _iri(t: Term) -> bool:
    return isinstance(t, IRI)


def triples_of(graph) -> frozenset[TermTriple]:
    return frozenset((t.subject, t.predicate, t.object) for t in graph.triples())


def closure_triples(closure) -> frozenset[TermTriple]:
    return triples_of(closure.graph)


# ---------------------------------------------------------------------------
# RDFS rules, full-rescan style
# ---------------------------------------------------------------------------


def _o_sco_transitivity(ts):
    pairs = [(a, b) for a, p, b in ts if p == SCO]
    return {(a, SCO, d) for a, b in pairs for c, d in pairs if b == c}


def _o_type_propagation(ts):
    out = set()
    for x, p, a in ts:
        if p != TYPE:
            continue
        for c, q, d in ts:
            if q == SCO and c == a:
                out.add((x, TYPE, d))
    return out


def _o_spo_transitivity(ts):
    pairs = [(a, b) for a, p, b in ts if p == SPO]
    return {(a, SPO, d) for a, b in pairs for c, d in pairs if b == c}


def _o_property_propagation(ts):
    out = set()
    for a, p, b in ts:
        if p == SPO and _iri(b):
            for x, q, y in ts:
                if q == a:
                    out.add((x, b, y))
    return out


def _o_domain(ts):
    out = set()
    for a, p, b in ts:
        if p == DOM:
            for x, q, y in ts:
                if q == a:
                    out.add((x, TYPE, b))
    return out


def _o_range(ts):
    out = set()
    for a, p, b in ts:
        if p == RNG:
            for x, q, y in ts:
                if q == a and not _lit(y):
                    out.add((y, TYPE, b))
    return out


RDFS_ORACLE_RULES = [
    _o_sco_transitivity,
    _o_type_propagation,
    _o_spo_transitivity,
    _o_property_propagation,
    _o_domain,
    _o_range,
]


# ---------------------------------------------------------------------------
# OWL rules
# ---------------------------------------------------------------------------


def _same_pairs(ts):
    return [(x, y) for x, p, y in ts if p == SA and not _lit(x) and not _lit(y)]


def _o_sameas_symmetry(ts):
    return {(y, SA, x) for x, y in _same_pairs(ts)}


def _o_sameas_transitivity(ts):
    pairs = _same_pairs(ts)
    return {(x, SA, z) for x, y in pairs for y2, z in pairs if y == y2}


def _o_sameas_substitution(ts):
    out = set()
    for a, b in _same_pairs(ts):
        for s, p, o in ts:
            if s == a:
                out.add((b, p, o))
            if p == a and _iri(b):
                out.add((s, b, o))
            if o == a:
                out.add((s, p, b))
    return out


def _o_functional(ts):
    functional = {s for s, p, o in ts if p == TYPE and o == vocab.OWL_FUNCTIONALPROPERTY}
    out = set()
    for prop in functional:
        values: dict[Term, list[Term]] = {}
        for x, p, y in ts:
            if p == prop:
                values.setdefault(x, []).append(y)
        for ys in values.values():
            for y1 in ys:
                for y2 in ys:
                    if y1 != y2 and not _lit(y1) and not _lit(y2):
                        out.add((y1, SA, y2))
    return out


def _o_inverse(ts):
    out = set()
    for p_prop, p, q_prop in ts:
        if p != vocab.OWL_INVERSEOF:
            continue
        for x, q, y in ts:
            if q == p_prop and _iri(q_prop) and not _lit(y):
                out.add((y, q_prop, x))
            if q == q_prop and _iri(p_prop) and not _lit(y):
                out.add((y, p_prop, x))
    return out


def _o_transitive(ts):
    transitive = {s for s, p, o in ts if p == TYPE and o == vocab.OWL_TRANSITIVEPROPERTY}
    out = set()
    for prop in transitive:
        edges = [(x, y) for x, p, y in ts if p == prop]
        for x, y in edges:
            for y2, z in edges:
                if y == y2:
                    out.add((x, prop, z))
    return out


def _o_equivalence(ts):
    out = set()
    sco_pairs = {(a, b) for a, p, b in ts if p == SCO}
    for c, p, d in ts:
        if p == vocab.OWL_EQUIVALENTCLASS:
            out.add((c, SCO, d))
            if not _lit(d):
                out.add((d, SCO, c))
    for a, b in sco_pairs:
        if (b, a) in sco_pairs:
            out.add((a, vocab.OWL_EQUIVALENTCLASS, b))
    return out


def oracle_list_members(ts, node) -> set[Term] | None:
    """The members of the list at `node` once it is complete, else None.

    OWL 2 RL reads a list only through its LIST[node, e1, ..., en] premise
    (W3C, OWL 2 Profiles, section 4.3): cells from `node` along rdf:rest to
    rdf:nil, each cell with an rdf:first, its ei.  So the list is complete
    when a cell reached from `node` has rdf:rest rdf:nil (or `node` is
    rdf:nil) and every cell reached has an rdf:first.  A list whose cells
    are still arriving is no list yet.  extension: the members are the
    rdf:first objects of every cell reached, as one set, where OWL 2 RL
    reads one member per cell in each LIST match.  The two differ on a
    list that branches, and on a cell with two rdf:first objects, which
    sameAs substitution gives a cell whose member has a sameAs copy.
    """
    cells, stack = set(), [node]
    while stack:
        n = stack.pop()
        if n != NIL and n not in cells:
            cells.add(n)
            stack.extend(o for s, p, o in ts if s == n and p == REST)
    firsts = [{o for s, p, o in ts if s == n and p == FIRST} for n in cells]
    if all(firsts) and (node == NIL or any((n, REST, NIL) in ts for n in cells)):
        return set().union(*firsts)
    return None


def _o_intersection(ts):
    """scm-int, cls-int1 and cls-int2 on each complete intersectionOf list."""
    out = set()
    typed = {x for x, q, d in ts if q == TYPE}
    for c, p, l in ts:
        if p != vocab.OWL_INTERSECTIONOF or (members := oracle_list_members(ts, l)) is None:
            continue
        for m in members:
            out.add((c, SCO, m))
        for x, q, d in ts:
            if q == TYPE and d == c:
                for m in members:
                    out.add((x, TYPE, m))
        if members:
            for x in typed:
                if all((x, TYPE, m) in ts for m in members):
                    out.add((x, TYPE, c))
    return out


def _o_union(ts):
    """scm-uni and cls-uni on each complete unionOf list."""
    out = set()
    for c, p, l in ts:
        if p != vocab.OWL_UNIONOF or (members := oracle_list_members(ts, l)) is None:
            continue
        for m in members:
            if not _lit(m):
                out.add((m, SCO, c))
        for x, q, d in ts:
            if q == TYPE and d in members:
                out.add((x, TYPE, c))
    return out


def _o_somevalues(ts):
    out = set()
    for r, p, d in ts:
        if p != vocab.OWL_SOMEVALUESFROM:
            continue
        props = {o for s, q, o in ts if s == r and q == vocab.OWL_ONPROPERTY}
        for prop in props:
            for x, q, y in ts:
                if q == prop and (y, TYPE, d) in ts:
                    out.add((x, TYPE, r))
    return out


def _o_allvalues(ts):
    out = set()
    for r, p, d in ts:
        if p != vocab.OWL_ALLVALUESFROM:
            continue
        props = {o for s, q, o in ts if s == r and q == vocab.OWL_ONPROPERTY}
        for prop in props:
            for x, q, y in ts:
                if q == prop and (x, TYPE, r) in ts and not _lit(y):
                    out.add((y, TYPE, d))
    return out


OWL_ORACLE_RULES = RDFS_ORACLE_RULES + [
    _o_sameas_symmetry,
    _o_sameas_transitivity,
    _o_sameas_substitution,
    _o_functional,
    _o_inverse,
    _o_transitive,
    _o_equivalence,
    _o_intersection,
    _o_union,
    _o_somevalues,
    _o_allvalues,
]


def naive_closure(triples: frozenset[TermTriple], rules) -> frozenset[TermTriple]:
    """Apply every rule to the full set, repeat until no rule adds anything."""
    ts = set(triples)
    while True:
        new = set()
        for rule in rules:
            new |= rule(ts)
        new -= ts
        if not new:
            return frozenset(ts)
        ts |= new


def naive_rdfs_closure(triples):
    return naive_closure(frozenset(triples), RDFS_ORACLE_RULES)


def naive_owl_closure(triples):
    return naive_closure(frozenset(triples), OWL_ORACLE_RULES)


def oracle_rdfs_derived(closure) -> frozenset[Triple]:
    """An RDFS closure's derived triples read off its id-level `derivations`, whose keys are exactly what a rule added."""
    return frozenset(map(closure.graph._to_triple, closure.derivations))


def oracle_rdfs_provenance(closure) -> dict[Triple, Derivation]:
    """An RDFS closure's provenance read off its id-level `derivations`: each key's rule and flattened premises."""
    to_triple = closure.graph._to_triple
    return {
        to_triple(t): Derivation(name, tuple(to_triple(premises[i : i + 3]) for i in range(0, len(premises), 3)))
        for t, (name, premises) in closure.derivations.items()
    }


def naive_violation_rules(ts: frozenset[TermTriple]) -> set[str]:
    """Names of violation rules firing on an already-saturated set."""
    out = set()
    for c, p, d in ts:
        if p == vocab.OWL_DISJOINTWITH:
            for x, q, e in ts:
                if q == TYPE and e == c and (x, TYPE, d) in ts:
                    out.add("owl-disjoint-classes")
        if p == vocab.OWL_COMPLEMENTOF:
            for x, q, e in ts:
                if q == TYPE and e == c and (x, TYPE, d) in ts:
                    out.add("owl-complement")
    for x, p, y in ts:
        if p == vocab.OWL_DIFFERENTFROM and ((x, SA, y) in ts or (y, SA, x) in ts):
            out.add("owl-sameas-differentfrom")
    alldiff_nodes = {s for s, p, o in ts if p == TYPE and o == vocab.OWL_ALLDIFFERENT}
    for d in alldiff_nodes:
        for s, p, l in ts:
            if s == d and p in (vocab.OWL_DISTINCTMEMBERS, vocab.OWL_MEMBERS):
                members = sorted(oracle_list_members(ts, l) or (), key=repr)
                for i, a in enumerate(members):
                    for b in members[i + 1 :]:
                        if (a, SA, b) in ts or (b, SA, a) in ts:
                            out.add("owl-alldifferent")
    for x, p, o in ts:
        if p == TYPE and o == vocab.OWL_NOTHING:
            out.add("owl-nothing-member")
    return out


def oracle_violations(graph) -> InconsistencyReport:
    """The violations of a closed graph, by scans of its whole triple set and of every complete AllDifferent list."""
    ts = triples_of(graph)
    found: set[tuple[str, frozenset[TermTriple]]] = set()
    for c, p, d in ts:
        for pred, rule in ((vocab.OWL_DISJOINTWITH, "owl-disjoint-classes"), (vocab.OWL_COMPLEMENTOF, "owl-complement")):
            if p == pred:
                for x, q, e in ts:
                    if q == TYPE and e == c and (x, TYPE, d) in ts:
                        found.add((rule, frozenset({(c, p, d), (x, TYPE, c), (x, TYPE, d)})))
    # sameAs is symmetric in the closure, so (x sameAs y) is there whenever (y sameAs x) is
    for x, p, y in ts:
        if p == vocab.OWL_DIFFERENTFROM and (x, SA, y) in ts:
            found.add(("owl-sameas-differentfrom", frozenset({(x, p, y), (x, SA, y)})))
    for d, p, l in ts:
        if p in (vocab.OWL_DISTINCTMEMBERS, vocab.OWL_MEMBERS) and (d, TYPE, vocab.OWL_ALLDIFFERENT) in ts:
            # extension: a pair's premise is (a sameAs b) for a before b in canonical term order
            members = sorted(oracle_list_members(ts, l) or (), key=sort_key)
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    if (a, SA, b) in ts or (b, SA, a) in ts:
                        found.add(("owl-alldifferent", frozenset({(d, p, l), (a, SA, b)})))
    for x, p, o in ts:
        if p == TYPE and o == vocab.OWL_NOTHING:
            found.add(("owl-nothing-member", frozenset({(x, p, o)})))

    violations = [Violation(rule, tuple(sorted((Triple(*t) for t in premises), key=triple_sort_key))) for rule, premises in found]
    violations.sort(key=lambda v: (v.rule, tuple(triple_sort_key(t) for t in v.triples)))
    return InconsistencyReport(tuple(violations))


# ---------------------------------------------------------------------------
# Reasoning tasks on an already-saturated set
# ---------------------------------------------------------------------------


def oracle_representative(ts: frozenset[TermTriple], term: Term) -> Term:
    """The canonically least member of the term's sameAs component, grown from the pairs in either direction."""
    component, stack = set(), [term]
    while stack:
        n = stack.pop()
        if n not in component:
            component.add(n)
            stack.extend(y for x, y in _same_pairs(ts) if x == n)
            stack.extend(x for x, y in _same_pairs(ts) if y == n)
    return min(component, key=sort_key)


def oracle_partition(graph: Graph) -> Callable[[Term], Term]:
    """The sameAs representative of each term of a graph closed under the OWL rules, every sameAs copy included.

    In such a graph the sameAs objects of a member of a class are the whole
    class, so its representative is the canonically least of them.
    """
    classes: dict[Term, list[Term]] = {}
    for t in graph.match_terms(None, vocab.OWL_SAMEAS, None):
        if not _lit(t.object):
            classes.setdefault(t.subject, [t.subject]).append(t.object)
    reps = {x: min(members, key=sort_key) for x, members in classes.items()}
    return lambda term: reps.get(term, term)


def oracle_retrieve_instances(ts: frozenset[TermTriple], cls: Term) -> set[Term]:
    """The subjects of (x type cls), each replaced by its sameAs representative."""
    return {oracle_representative(ts, x) for x, p, c in ts if p == TYPE and c == cls}


def oracle_realize(ts: frozenset[TermTriple], individual: Term) -> set[Term]:
    """The individual's IRI types that no other of its types is strictly below."""
    types = {c for x, p, c in ts if x == individual and p == TYPE and _iri(c)}

    def below(d, c):
        return d == c or (d, SCO, c) in ts

    return {c for c in types if not any(below(d, c) and not below(c, d) for d in types)}


# ---------------------------------------------------------------------------
# Pattern matching and joins by brute force
# ---------------------------------------------------------------------------


def brute_match(triples, pattern: TriplePattern):
    """Filter every triple against the pattern; returns (triple, binding) pairs."""
    out = []
    for t in triples:
        binding = {}
        ok = True
        for pos, value in zip(pattern.positions(), t):
            if isinstance(pos, Var):
                if pos.name in binding and binding[pos.name] != value:
                    ok = False
                    break
                binding[pos.name] = value
            elif pos != value:
                ok = False
                break
        if ok:
            out.append((t, binding))
    return out


def brute_join(triples, patterns) -> list[dict]:
    """Enumerate every assignment of mentioned terms to variables, then filter."""
    variables = sorted({v for p in patterns for v in p.variables()})
    terms = sorted({t for triple in triples for t in triple}, key=repr)
    results = []

    def satisfied(assignment):
        for p in patterns:
            concrete = tuple(
                assignment[pos.name] if isinstance(pos, Var) else pos for pos in p.positions()
            )
            if concrete not in triples:
                return False
        return True

    def assign(i, acc):
        if i == len(variables):
            if satisfied(acc):
                results.append(dict(acc))
            return
        for t in terms:
            acc[variables[i]] = t
            assign(i + 1, acc)
        del acc[variables[i]]

    assign(0, {})
    return results


# ---------------------------------------------------------------------------
# Numeric gradient
# ---------------------------------------------------------------------------


def numeric_gradient(fn, vec, h: float = 1e-6):
    """Central finite differences of a scalar function of one vector."""
    grad = []
    for i in range(len(vec)):
        up = list(vec)
        down = list(vec)
        up[i] += h
        down[i] -= h
        grad.append((fn(up) - fn(down)) / (2.0 * h))
    return grad


# ---------------------------------------------------------------------------
# Embeddings: the term-level sampler, filtered ranking and link prediction
# ---------------------------------------------------------------------------


def oracle_negative_sample(triple, graph, config, rng):
    """Negative sampling over terms: one graph.entities() list per call."""
    entities = graph.entities()
    if config.corruption == CORRUPT_BOTH:
        corrupt_head = bool(rng.integers(0, 2))
    else:
        corrupt_head = config.corruption == CORRUPT_HEAD

    def build(side_head, entity):
        if side_head:
            if isinstance(entity, Literal):
                return None
            return Triple(entity, triple.predicate, triple.object)
        return Triple(triple.subject, triple.predicate, entity)

    for _ in range(100):
        candidate = build(corrupt_head, entities[int(rng.integers(0, len(entities)))])
        if candidate is None or candidate == triple:
            continue
        if config.filtered_sampling and candidate in graph:
            continue
        return candidate

    sides = [corrupt_head] if config.corruption != CORRUPT_BOTH else [corrupt_head, not corrupt_head]
    fallback = None
    for side in sides:
        for entity in entities:
            candidate = build(side, entity)
            if candidate is None or candidate == triple:
                continue
            if config.filtered_sampling and candidate in graph:
                if fallback is None:
                    fallback = candidate
                continue
            return candidate
    if fallback is not None:
        return fallback
    raise SamplingError(f"no corruption of {format_term(triple.subject)} triple is possible")


def _oracle_scores(model, free_head, p, bound):
    """Candidate scores for every entity row, as the library computed them over terms."""
    r = model.relation_vecs[model.relation_id(p)]
    e = model.entity_vecs[model.entity_id(bound)]
    diff = (model.entity_vecs + r - e) if free_head else (e + r - model.entity_vecs)
    if model.norm == "L1":
        return -np.abs(diff).sum(axis=1)
    return -np.sqrt((diff * diff).sum(axis=1))


def oracle_filtered_ranks(model, train_graph, test_triples):
    """(relation, rank) per test triple and side: a term-level scan of every entity."""
    known = {(t.subject, t.predicate, t.object) for t in train_graph.triples()}
    known.update((t.subject, t.predicate, t.object) for t in test_triples)
    ranks = []
    for t in sorted(test_triples, key=triple_sort_key):
        for free_head in (True, False):
            true_term = t.subject if free_head else t.object
            bound = t.object if free_head else t.subject
            scores = _oracle_scores(model, free_head, t.predicate, bound)
            true_score = scores[model.entity_index[true_term]]
            rank = 1
            for i, term in enumerate(model.entities):
                if term == true_term:
                    continue
                if free_head and isinstance(term, Literal):
                    continue
                completion = (term, t.predicate, t.object) if free_head else (t.subject, t.predicate, term)
                if completion in known:
                    continue
                if scores[i] > true_score:
                    rank += 1
            ranks.append((t.predicate, rank))
    return ranks


def oracle_predict_links(model, graph, s, p, o, k, filtered):
    """Top-k completions by a full term-level scan; ties break by canonical order."""
    free_head = s is None
    scores = _oracle_scores(model, free_head, p, o if free_head else s)
    ranked = []
    for i, term in enumerate(model.entities):
        if free_head and isinstance(term, Literal):
            continue
        candidate = Triple(term, p, o) if free_head else Triple(s, p, term)
        if filtered and candidate in graph:
            continue
        ranked.append((term, float(scores[i])))
    ranked.sort(key=lambda pair: (-pair[1], sort_key(pair[0])))
    return ranked[:k]


# ---------------------------------------------------------------------------
# N-Triples / Turtle: the per-character tokenizer
# ---------------------------------------------------------------------------

_PUNCT = {".": DOT, ";": SEMICOLON, ",": COMMA, "[": LBRACKET, "]": RBRACKET, "(": LPAREN, ")": RPAREN}
_DIGITS = "0123456789"
INTEGER, DECIMAL, DOUBLE, BOOLEAN = "integer", "decimal", "double", "boolean"


def _digits(s: str) -> bool:
    return s != "" and all(c in _DIGITS for c in s)


def oracle_shorthand_kind(word: str) -> str | None:
    """INTEGER, DECIMAL, DOUBLE or BOOLEAN when `word` is that Turtle shorthand (RDF 1.1 Turtle 6.5), else None."""
    if word in ("true", "false"):
        return BOOLEAN
    body = word[1:] if word[0] in "+-" else word
    exponent = None
    for i, c in enumerate(body):
        if c in "eE":
            body, exponent = body[:i], body[i + 1 :]
            break
    whole, dot, fraction = body.partition(".")
    if exponent is not None:
        if exponent[:1] in ("+", "-"):
            exponent = exponent[1:]
        if not _digits(exponent):
            return None
        if _digits(whole) and (fraction == "" or _digits(fraction)):
            return DOUBLE
        return DOUBLE if whole == "" and dot and _digits(fraction) else None
    if dot:
        return DECIMAL if (whole == "" or _digits(whole)) and _digits(fraction) else None
    return INTEGER if _digits(whole) else None


def _oracle_qname_escapes(tok: _Token, after: str) -> str:
    """The qname with its local name's escapes decoded (PN_LOCAL_ESC: a backslash before one of _~.-!$&'()*+,;=/?#@%).

    Any other escape is an error at the qname.  A backslash that ends the
    qname escapes `after`, the character the word stopped at.
    """
    word, i, decoded = tok.value, 0, []
    while i < len(word):
        if word[i] == "\\":
            e = word[i + 1 : i + 2]
            if e and e in "_~.-!$&'()*+,;=/?#@%" and i > word.index(":"):
                decoded.append(e)
                i += 2
                continue
            e = e or after
            raise ParseError(f"{'unsupported' if e and e in ';,()@' else 'bad'} escape \\{e} in qname {word}", tok.line, tok.col)
        decoded.append(word[i])
        i += 1
    return "".join(decoded)


def oracle_tokenize(text: str, start_line: int = 1, turtle: bool = False) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    line = start_line
    col = 1
    n = len(text)

    def err(msg: str):
        raise ParseError(msg, line, col)

    def advance(k: int = 1):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    def read_escape(iri: bool = False) -> str:
        # called with text[i] == '\\'
        nonlocal i
        if i + 1 >= n:
            err("dangling escape")
        c = text[i + 1]
        if c in _ESCAPES and iri:  # extension: an IRI admits only \u and \U (RDF 1.1 N-Triples, section 2.3)
            err(f"string escape \\{c} in IRI")
        if c in _ESCAPES:
            advance(2)
            return _ESCAPES[c]
        if c == "u" or c == "U":
            width = 4 if c == "u" else 8
            hexpart = text[i + 2 : i + 2 + width]
            if len(hexpart) < width or any(h not in "0123456789abcdefABCDEF" for h in hexpart):
                err(f"bad \\{c} escape")
            advance(2 + width)
            return chr(int(hexpart, 16))
        err(f"unknown escape \\{c}")

    while i < n:
        c = text[i]
        if c in " \t\r\n":
            advance()
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                advance()
            continue
        tline, tcol = line, col
        if c == "<":
            advance()
            buf = []
            excluded = None  # extension: the first character IRIREF excludes, and where it is
            while i < n and text[i] != ">":
                if text[i] == "\\":
                    buf.append(read_escape(iri=True))
                elif text[i] == "\n":
                    raise ParseError("newline inside IRI", tline, tcol)
                else:
                    if excluded is None and (text[i] <= " " or text[i] in '<"{}|^`'):
                        excluded = ParseError(f"unexpected character {text[i]!r} in IRI", line, col)
                    buf.append(text[i])
                    advance()
            if i >= n:
                raise ParseError("unterminated IRI", tline, tcol)
            if excluded is not None:  # extension: an error once the IRI is otherwise well-formed
                raise excluded
            advance()  # '>'
            tokens.append(_Token(IRIREF, "".join(buf), tline, tcol))
        elif turtle and (c == "'" or text.startswith('"' * 3, i)):
            # extension: Turtle's other string forms (RDF 1.1 Turtle, section 6.4); the first
            # closing quote, or run of three, ends one, and only a long one may hold a newline
            quote = c * 3 if text.startswith(c * 3, i) else c
            advance(len(quote))
            buf = []
            while i < n and not text.startswith(quote, i):
                if text[i] == "\\":
                    buf.append(read_escape())
                elif text[i] in "\r\n" and quote == c:  # RDF 1.1 Turtle [22], [23]: a short string excludes CR and LF
                    raise ParseError("newline inside literal", tline, tcol)
                else:
                    buf.append(text[i])
                    advance()
            if i >= n:
                raise ParseError("unterminated literal", tline, tcol)
            advance(len(quote))
            tokens.append(_Token(STRING, "".join(buf), tline, tcol))
        elif c == '"':
            advance()
            buf = []
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    buf.append(read_escape())
                elif text[i] in "\r\n":
                    raise ParseError("newline inside literal", tline, tcol)
                else:
                    buf.append(text[i])
                    advance()
            if i >= n:
                raise ParseError("unterminated literal", tline, tcol)
            advance()  # closing quote
            tokens.append(_Token(STRING, "".join(buf), tline, tcol))
        elif c == "@":
            advance()
            buf = []
            while i < n and (text[i].isalnum() or text[i] == "-"):
                buf.append(text[i])
                advance()
            word = "".join(buf)
            if word == "prefix":
                tokens.append(_Token(AT_PREFIX, word, tline, tcol))
            elif word:
                tokens.append(_Token(LANGTAG, word, tline, tcol))
            else:
                raise ParseError("dangling '@'", tline, tcol)
        elif c == "^":
            if text[i : i + 2] != "^^":
                err("expected '^^'")
            advance(2)
            tokens.append(_Token(HATHAT, "^^", tline, tcol))
        elif c == "_" and text[i : i + 2] == "_:":
            advance(2)
            buf = []
            while i < n and not text[i].isspace() and text[i] not in ".;,()[]<\"":
                buf.append(text[i])
                advance()
                # extension: a run of '.' followed by a label character stays in the label (N-Triples BLANK_NODE_LABEL)
                j = i
                while j < n and text[j] == ".":
                    j += 1
                if j > i and j < n and not text[j].isspace() and text[j] not in ".;,()[]<\"":
                    buf.append(text[i:j])
                    advance(j - i)
            if not buf:
                raise ParseError("empty blank node label", tline, tcol)
            tokens.append(_Token(BLANK, "".join(buf), tline, tcol))
        elif c in _PUNCT and not (c == "." and _digits(text[i + 1 : i + 2])):  # extension: '.' then a digit is a number
            advance()
            tokens.append(_Token(_PUNCT[c], c, tline, tcol))
        else:
            # bare word: either the keyword 'a' or a qname like edu:Warsaw
            buf = []
            escaped = False  # extension: a backslash takes the next character, so `ex:a\.` ends in its '.' (PN_LOCAL_ESC)
            while i < n and not text[i].isspace() and text[i] not in ";,()[]<>\"^@":
                # '.' ends a statement unless it is part of the local name
                if text[i] == "." and not escaped and (i + 1 >= n or text[i + 1].isspace() or text[i + 1] in ";,()[]"):
                    break
                escaped = text[i] == "\\" and not escaped
                buf.append(text[i])
                advance()
            word = "".join(buf)
            if not word:
                err(f"unexpected character {c!r}")
            if word == "a":
                tokens.append(_Token(KEYWORD_A, word, tline, tcol))
            elif ":" in word:
                tokens.append(_Token(QNAME, word, tline, tcol))
            elif oracle_shorthand_kind(word) is not None:
                tokens.append(_Token(oracle_shorthand_kind(word), word, tline, tcol))
            else:
                prev = tokens[-2:]
                if len(prev) == 2 and prev[1].kind in [_PUNCT[c] for c in ";,()"] and prev[0].kind == QNAME and prev[0].line == prev[1].line and prev[0].col + len(prev[0].value) == prev[1].col:
                    # extension: the qname before an escaped ;,() that ended it names its first bad escape
                    _oracle_qname_escapes(prev[0], prev[1].value)
                raise ParseError(f"unexpected token {word!r}", tline, tcol)
    tokens.append(_Token(EOF, "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Turtle: the Term-per-occurrence recursive descent over the tokenizer above
# ---------------------------------------------------------------------------
#
# The parser as it was before the memo, extended only for these changes,
# each marked "extension": an empty or relative IRI term is an error at its
# own token; a relative or empty datatype IRI is an error at its token; the
# numeric and boolean shorthand reads as XSD-typed literals; a '.' before a
# digit starts a number, and one before a label character stays in a blank
# node label, one after a backslash stays in a word, and 'x', '''x''' and
# its double-quoted twin are strings (all four in `oracle_tokenize`); a
# non-empty `[ ... ]` may be a whole statement; an @prefix token after a
# string is its language tag; a qname's local escapes are decoded, and a
# bad escape or a bare ' in it is an error at its token; and so is a ' in a
# prefix name.


def _oracle_is_absolute(iri: str) -> bool:
    """A scheme: an ASCII letter, then letters, digits, '+', '.' or '-', then ':'."""
    if not iri or not ("a" <= iri[0].lower() <= "z"):
        return False
    for c in iri[1:]:
        if c == ":":
            return True
        if not (c.isascii() and (c.isalnum() or c in "+.-")):
            return False
    return False


def _oracle_qname(tokens: list[_Token], pos: int) -> str:
    """Extension: the qname at tokens[pos] with its local escapes decoded (RDF 1.1 Turtle, section 6.4).

    A bad escape is an error at the qname, and so is a ' that no backslash
    escapes (PN_PREFIX and PN_LOCAL exclude it).  A backslash that ends the
    qname escapes the token right after it, '@' for a language tag.
    """
    tok, nxt = tokens[pos], tokens[pos + 1]
    after = ""
    if nxt.line == tok.line and nxt.col == tok.col + len(tok.value):
        after = "@" if nxt.kind in (LANGTAG, AT_PREFIX) else nxt.value
    qname = _oracle_qname_escapes(tok, after)
    if "'" in tok.value.replace("\\'", ""):
        raise ParseError(f"unescaped ' in qname {tok.value}", tok.line, tok.col)
    return qname


def oracle_term_from_tokens(tokens: list[_Token], pos: int, allow_qname: bool = False, prefixes=None):
    """Read one term starting at tokens[pos]; returns (term, next_pos)."""
    tok = tokens[pos]
    if tok.kind == IRIREF:
        if not _oracle_is_absolute(tok.value):  # extension: `<>` or a relative IRI, at its token
            raise ParseError(f"relative IRI {tok.value!r} and no base IRI is declared", tok.line, tok.col)
        return IRI(tok.value), pos + 1
    if tok.kind == BLANK:
        return BlankNode(tok.value), pos + 1
    if tok.kind == KEYWORD_A and allow_qname:
        return vocab.RDF_TYPE, pos + 1
    if tok.kind == QNAME and allow_qname:
        assert prefixes is not None
        try:
            iri = prefixes.expand(_oracle_qname(tokens, pos))
        except UnknownPrefixError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from exc
        except ValidationError:  # extension: a qname that expands to the empty IRI
            raise ParseError("relative IRI '' and no base IRI is declared", tok.line, tok.col)
        if not _oracle_is_absolute(iri.value):  # extension: a relative IRI, at its token
            raise ParseError(f"relative IRI {iri.value!r} and no base IRI is declared", tok.line, tok.col)
        return iri, pos + 1
    if tok.kind == STRING:
        nxt = tokens[pos + 1]
        if nxt.kind == LANGTAG or nxt.kind == AT_PREFIX:  # extension: a tag of "prefix" tokenizes as @prefix
            return Literal(tok.value, language=nxt.value), pos + 2
        if nxt.kind == HATHAT:
            dt_tok = tokens[pos + 2]
            if dt_tok.kind == IRIREF:
                datatype = dt_tok.value
            elif dt_tok.kind == QNAME and allow_qname:
                prefix, local = _oracle_qname(tokens, pos + 2).split(":", 1)
                if prefixes.namespace(prefix) is None:
                    raise ParseError(str(UnknownPrefixError(prefix)), dt_tok.line, dt_tok.col)
                datatype = prefixes.namespace(prefix) + local
            else:
                raise ParseError("expected datatype IRI after '^^'", dt_tok.line, dt_tok.col)
            if not _oracle_is_absolute(datatype):  # extension: no base resolves a datatype
                raise ParseError(
                    f"relative datatype IRI {datatype!r} and no base IRI is declared", dt_tok.line, dt_tok.col
                )
            return Literal(tok.value, datatype=datatype), pos + 3
        return Literal(tok.value), pos + 1
    if tok.kind in (INTEGER, DECIMAL, DOUBLE, BOOLEAN):  # extension: shorthand literals
        if not allow_qname:
            raise ParseError(f"unexpected token {tok.value!r}", tok.line, tok.col)
        return Literal(tok.value, datatype=vocab.XSD + tok.kind), pos + 1
    raise ParseError(f"expected a term, got {tok.value!r}", tok.line, tok.col)


class _OracleTurtleParser:
    def __init__(self, text: str):
        self.tokens = oracle_tokenize(text, turtle=True)
        self.pos = 0
        self.graph = Graph()
        self.prefixes = PrefixMap.common()
        self.prefixes.bind("", vocab.DEFAULT_NS)
        self.warnings: list[tuple[int, str]] = []
        self._doc_labels = {t.value for t in self.tokens if t.kind == BLANK}
        self._anon = 0

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        tok = self._next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, got {tok.value!r}", tok.line, tok.col)
        return tok

    def _fresh_blank(self) -> BlankNode:
        while True:
            self._anon += 1
            label = f"anon{self._anon}"
            if label not in self._doc_labels:
                self._doc_labels.add(label)
                return BlankNode(label)

    def _emit(self, s: Term, p: Term, o: Term, tok: _Token) -> None:
        try:
            self.graph.insert(Triple(s, p, o))
        except ValidationError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from exc

    def parse(self) -> ParseReport:
        while self._peek().kind != EOF:
            if self._peek().kind == AT_PREFIX:
                self._prefix_directive()
            else:
                self._triples_statement()
        return ParseReport(self.graph, self.prefixes, self.warnings)

    def _prefix_directive(self) -> None:
        self._expect(AT_PREFIX)
        tok = self._next()
        if tok.kind != QNAME or not tok.value.endswith(":"):
            raise ParseError("expected 'prefix:' after @prefix", tok.line, tok.col)
        prefix = tok.value[:-1]
        if "'" in prefix:  # extension: PN_PREFIX excludes ', an error at the prefix name
            raise ParseError(f"' not allowed in prefix name {tok.value}", tok.line, tok.col)
        ns = self._expect(IRIREF).value
        old = self.prefixes.namespace(prefix)
        if old is not None and old != ns and not (prefix == "" and old == vocab.DEFAULT_NS):
            self.warnings.append((tok.line, f"prefix {prefix!r} redefined from <{old}> to <{ns}>"))
        self.prefixes.bind(prefix, ns)
        self._expect(DOT)

    def _triples_statement(self) -> None:
        start = self.pos
        subject = self._node(as_subject=True)
        # extension: a `[ ... ]` that is more than `[]` may be a whole statement (Turtle 1.1 grammar rule [6])
        if self.tokens[start].kind == LBRACKET and self.pos > start + 2 and self._peek().kind == DOT:
            self._next()
            return
        self._predicate_object_list(subject)
        self._expect(DOT)

    def _predicate_object_list(self, subject: Term) -> None:
        while True:
            verb_tok = self._peek()
            predicate = self._verb()
            while True:
                obj = self._node()
                self._emit(subject, predicate, obj, verb_tok)
                if self._peek().kind == COMMA:
                    self._next()
                    continue
                break
            if self._peek().kind != SEMICOLON:
                return
            while self._peek().kind == SEMICOLON:  # extension: a run of ';' between predicate-object pairs
                self._next()
            # tolerate a trailing ';' before '.' or ']'
            if self._peek().kind in (DOT, RBRACKET):
                return

    def _verb(self) -> Term:
        tok = self._peek()
        if tok.kind in (IRIREF, QNAME, KEYWORD_A):
            term, self.pos = oracle_term_from_tokens(self.tokens, self.pos, allow_qname=True, prefixes=self.prefixes)
            return term
        raise ParseError(f"expected a predicate, got {tok.value!r}", tok.line, tok.col)

    def _node(self, as_subject: bool = False) -> Term:
        tok = self._peek()
        if tok.kind == LBRACKET:
            self._next()
            node = self._fresh_blank()
            if self._peek().kind != RBRACKET:
                self._predicate_object_list(node)
            self._expect(RBRACKET)
            return node
        if tok.kind == LPAREN:
            self._next()
            return self._collection()
        if tok.kind in (STRING, INTEGER, DECIMAL, DOUBLE, BOOLEAN):  # extension: shorthand literals
            if as_subject:
                raise ParseError("literal cannot be a subject", tok.line, tok.col)
            term, self.pos = oracle_term_from_tokens(self.tokens, self.pos, allow_qname=True, prefixes=self.prefixes)
            return term
        if tok.kind in (IRIREF, QNAME, BLANK):
            term, self.pos = oracle_term_from_tokens(self.tokens, self.pos, allow_qname=True, prefixes=self.prefixes)
            return term
        raise ParseError(f"expected a node, got {tok.value!r}", tok.line, tok.col)

    def _collection(self) -> Term:
        items = []
        open_tok = self._peek()
        while self._peek().kind != RPAREN:
            if self._peek().kind == EOF:
                raise ParseError("unterminated collection", open_tok.line, open_tok.col)
            items.append(self._node())
        self._next()  # ')'
        if not items:
            return vocab.RDF_NIL
        nodes = [self._fresh_blank() for _ in items]
        for i, item in enumerate(items):
            self._emit(nodes[i], vocab.RDF_FIRST, item, open_tok)
            rest = nodes[i + 1] if i + 1 < len(nodes) else vocab.RDF_NIL
            self._emit(nodes[i], vocab.RDF_REST, rest, open_tok)
        return nodes[0]


def oracle_parse_turtle(text: str) -> ParseReport:
    """The Turtle subset, one Term and Triple per occurrence; rdf/rdfs/owl/xsd and ':' pre-bound."""
    return _OracleTurtleParser(text).parse()


# ---------------------------------------------------------------------------
# Canonical N-Triples: per-character escaping and term-level sorting
# ---------------------------------------------------------------------------


def oracle_escape_string(s: str) -> str:
    out = []
    for ch in s:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def oracle_escape_iri(s: str) -> str:
    out = []
    for ch in s:
        if ch in '<>"{}|^`\\' or ord(ch) <= 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def oracle_format_term(term: Term) -> str:
    """N-Triples text for one term, escaping one character at a time."""
    if isinstance(term, IRI):
        return f"<{oracle_escape_iri(term.value)}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        base = f'"{oracle_escape_string(term.lexical)}"'
        if term.language:
            return f"{base}@{term.language}"
        if term.datatype:
            return f"{base}^^<{oracle_escape_iri(term.datatype)}>"
        return base
    raise TypeError(f"not a term: {term!r}")


def oracle_format_triple(t: Triple) -> str:
    return f"{oracle_format_term(t.subject)} {oracle_format_term(t.predicate)} {oracle_format_term(t.object)} ."


def oracle_serialize_ntriples(graph) -> str:
    """Canonical N-Triples over Triple objects sorted by their term keys."""
    lines = [oracle_format_triple(t) for t in graph.triples()]
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Queries: a nested-loop join by brute force over the naive closure
# ---------------------------------------------------------------------------


def _oracle_substitute(pattern: TriplePattern, binding: Binding) -> TriplePattern:
    def sub(pos):
        if isinstance(pos, Var) and pos.name in binding:
            return binding[pos.name]
        return pos

    return TriplePattern(sub(pattern.subject), sub(pattern.predicate), sub(pattern.object))


def _oracle_join(ts: frozenset[TermTriple], patterns: tuple[TriplePattern, ...]) -> list[Binding]:
    """Every binding that puts each pattern in `ts`, grown one pattern at a time in the given order."""
    bindings: list[Binding] = [{}]
    for pattern in patterns:
        bindings = [{**binding, **extra} for binding in bindings for _, extra in brute_match(ts, _oracle_substitute(pattern, binding))]
    return bindings


def oracle_query(graph: Graph, q: Query, regime: str = "none") -> list[Binding]:
    """Evaluate a valid query against the naive closure of the regime; deterministic order."""
    if regime not in REGIMES:
        raise QueryValidationError(f"unknown regime {regime!r}, expected one of {REGIMES}")
    ts = {"none": frozenset, "rdfs": naive_rdfs_closure, "owl": naive_owl_closure}[regime](triples_of(graph))
    bindings = [
        binding for binding in _oracle_join(ts, q.patterns)
        if not any(_oracle_join(ts, tuple(_oracle_substitute(p, binding) for p in block)) for block in q.negations)
    ]
    projection = q.projection or tuple(sorted(set().union(*(p.variables() for p in q.patterns))))
    rows: dict[tuple, Binding] = {}
    for binding in bindings:
        projected = {v: binding[v] for v in projection}
        if regime == "owl":
            projected = {v: oracle_representative(ts, t) for v, t in projected.items()}
        rows[tuple(sort_key(projected[v]) for v in projection)] = projected
    return [rows[k] for k in sorted(rows)]


# ---------------------------------------------------------------------------
# Table reification: term at a time, every cell built and interned again
# ---------------------------------------------------------------------------


def oracle_reify_table(rows: Iterable[Mapping[str, str]], spec: TableSpec) -> Graph:
    """Reify records into n+1 triples per row; instances are numbered from 1."""
    g = Graph()
    cls = IRI(spec.relation_class)
    stem = spec.stem()
    for i, row in enumerate(rows, start=1):
        instance = IRI(f"{spec.namespace}{stem}{i}")
        g.add(instance, vocab.RDF_TYPE, cls)
        for column, prop in spec.roles:
            if column not in row:
                raise ReifyError(f"row {i} is missing column {column!r}")
            value = row[column]
            if column in spec.literal_columns:
                term = Literal(value)
            elif not value.strip():
                raise ReifyError(f"row {i} has an empty cell in IRI column {column!r}")
            elif excluded := _IRI_UNSAFE.search(local := camel_case(value)):  # outside the N-Triples IRIREF
                raise ReifyError(f"row {i} puts {excluded.group()!r} into an IRI in column {column!r}")
            else:
                term = IRI(spec.namespace + local)
            g.add(instance, IRI(prop), term)
    return g


# ---------------------------------------------------------------------------
# Frame files: a character-at-a-time reader that keeps its own line count
# ---------------------------------------------------------------------------

_ISA = ":IS-A"
_INSTANCEOF = ":INSTANCE-OF"


def oracle_parse_frames(text: str, namespace: str = "urn:frame:") -> FrameSystem:
    """Read the s-expression frame format::

        (Carrots
          <:IS-A Vegetables>
          <:colour orange>)

    :IS-A marks a general frame, :INSTANCE-OF an individual; a frame
    with neither is a root general frame.  Multi-token values are kept
    verbatim ("1 860 281").  IS-A / INSTANCE-OF values may list several
    parents separated by whitespace.
    """
    system = FrameSystem(namespace=namespace)
    i = 0
    n = len(text)
    line = 1

    def skip_ws():
        nonlocal i, line
        while i < n and text[i].isspace():
            if text[i] == "\n":
                line += 1
            i += 1

    while True:
        skip_ws()
        if i >= n:
            break
        if text[i] != "(":
            raise ParseError(f"expected '(' to open a frame, got {text[i]!r}", line)
        open_line = line
        i += 1
        skip_ws()
        start = i
        while i < n and not text[i].isspace() and text[i] not in "<)":
            i += 1
        name = text[start:i]
        if not name:
            raise ParseError("frame has no name", line)
        if name in system.frames:  # extension: a name defined twice is an error at its second '('
            raise ParseError(f"frame {name!r} is defined twice", open_line)
        parents: list[str] = []
        kind = None
        slots: dict[str, Facet] = {}
        while True:
            skip_ws()
            if i >= n:
                raise ParseError(f"unterminated frame {name!r}", line)
            if text[i] == ")":
                i += 1
                break
            if text[i] != "<":
                raise ParseError(f"expected '<slot value>' in frame {name!r}", line)
            i += 1
            end = text.find(">", i)
            if end < 0:
                raise ParseError(f"unterminated slot in frame {name!r}", line)
            inner = text[i:end].strip()
            line += text.count("\n", i, end)
            i = end + 1
            if not inner:
                raise ParseError(f"empty slot in frame {name!r}", line)
            slot_name, *rest = inner.split(None, 1)  # extension: any whitespace ends a slot name, not only a space
            value = " ".join("".join(rest).split())
            if slot_name.upper() == _ISA:
                if kind == INDIVIDUAL:
                    raise ParseError(f"frame {name!r} mixes IS-A and INSTANCE-OF", line)
                kind = GENERAL
                parents.extend(value.split())
            elif slot_name.upper() == _INSTANCEOF:
                if kind == GENERAL:
                    raise ParseError(f"frame {name!r} mixes IS-A and INSTANCE-OF", line)
                kind = INDIVIDUAL
                parents.extend(value.split())
            else:
                slots[slot_name.lstrip(":")] = Facet(value=value, strength=DEFINED)
        frame = Frame(name, kind or GENERAL, tuple(parents), slots)
        system.add(frame)
    return system
