"""Independent reference implementations used only to check the engines.

Everything here is deliberately naive: full rescans of the whole triple
set until nothing changes, no indexes, no deltas, no sharing with the
library's rule code.  Triples are plain (subject, predicate, object)
term tuples.
"""

from __future__ import annotations

import numpy as np

from kgkit import vocab
from kgkit.embeddings import CORRUPT_BOTH, CORRUPT_HEAD
from kgkit.errors import SamplingError
from kgkit.io import format_term
from kgkit.terms import IRI, Literal, Term, Triple, TriplePattern, Var, sort_key, triple_sort_key

TermTriple = tuple[Term, Term, Term]

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


def oracle_list_members(ts, node):
    members, stack, seen = set(), [node], set()
    while stack:
        n = stack.pop()
        if n in seen or n == NIL:
            continue
        seen.add(n)
        for s, p, o in ts:
            if s == n and p == FIRST:
                members.add(o)
            if s == n and p == REST:
                stack.append(o)
    return members


def _o_intersection(ts):
    out = set()
    for c, p, l in ts:
        if p != vocab.OWL_INTERSECTIONOF:
            continue
        members = oracle_list_members(ts, l)
        for m in members:
            out.add((c, SCO, m))
        typed = {x for x, q, d in ts if q == TYPE}
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
    out = set()
    for c, p, l in ts:
        if p != vocab.OWL_UNIONOF:
            continue
        members = oracle_list_members(ts, l)
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
                members = sorted(oracle_list_members(ts, l), key=repr)
                for i, a in enumerate(members):
                    for b in members[i + 1 :]:
                        if (a, SA, b) in ts or (b, SA, a) in ts:
                            out.add("owl-alldifferent")
    for x, p, o in ts:
        if p == TYPE and o == vocab.OWL_NOTHING:
            out.add("owl-nothing-member")
    return out


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
