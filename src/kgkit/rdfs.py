"""Forward-chaining RDFS saturation.

Four rule families: subClassOf transitivity and type propagation,
subPropertyOf transitivity and triple propagation, domain typing, and
range typing.  Evaluation is semi-naive: each round joins only the
triples derived in the previous round (the delta) against the rest, so
nothing is re-derived from scratch.  The closure is the least fixpoint;
rules only ever combine existing terms, so it is finite.

Rule protocol: `_fixpoint` hands every rule of a round the same `Delta`,
the round's sorted id triples grouped by predicate once.  A rule joins
those groups against the graph's index sets through its id accessors
(`objects`, `subjects`, `pairs`, `lacking`), so it reads a schema entry
once per round and predicate (or class), not once per delta triple.  It
yields (triple, rule name, premises) and may leave out a consequence that
is already in the graph: type propagation, domain and range test a
class's candidate members in C against its rdf:type index entry
(`lacking`), so only missing ones reach Python.  The fixpoint still drops
duplicates.

Resume invariant: every rule finds every consequence that has at least
one premise in the delta and is not yet in the graph.  Rules only add
triples, so a closed graph takes new triples by running the same loop
from a delta of just those triples.

Shape invariant: `_fixpoint` inserts only RDF 1.1 triples, with no
literal subject and an IRI predicate, so rules need not check the shape
of what they derive: a rule may yield (y type C) for a literal y, and the
fixpoint drops it.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from . import vocab
from .errors import ValidationError
from .graph import Graph, IdTriple, Overlay
from .terms import IRI, Literal, Term, Triple

if TYPE_CHECKING:
    from .owl import EqualityPartition


@dataclass(frozen=True)
class Violation:
    """One broken constraint: the rule that fired and the triples in conflict."""

    rule: str
    triples: tuple[Triple, ...]


@dataclass(frozen=True)
class InconsistencyReport:
    violations: tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.violations)


@dataclass(frozen=True)
class Derivation:
    rule: str
    premises: tuple[Triple, ...]


# a derived triple -> (rule name, its premises flattened: s1, p1, o1, s2, p2, o2, ...)
IdDerivations = dict[IdTriple, tuple[str, tuple[int, ...]]]


@dataclass
class Closure:
    """A saturated graph plus where each derived triple came from.

    `derived`, `provenance` and the sameAs `partition` are built from the
    closed graph and its id-level `derivations` on first access; the
    partition needs the "owl" `profile`.  A closure that `saturate_rdfs`
    or `saturate_owl` returned is a snapshot: kgkit never changes it, and a
    later saturation of the grown base builds a new one.
    """

    base: Graph
    graph: Graph
    derivations: IdDerivations
    report: InconsistencyReport = field(default_factory=InconsistencyReport)
    profile: str = "rdfs"

    @cached_property
    def derived(self) -> frozenset[Triple]:
        return frozenset(map(self.graph._to_triple, self.derivations))

    @cached_property
    def provenance(self) -> dict[Triple, Derivation]:
        to_triple = self.graph._to_triple
        return {
            to_triple(t): Derivation(name, tuple(to_triple(premises[i : i + 3]) for i in range(0, len(premises), 3)))
            for t, (name, premises) in self.derivations.items()
        }

    @cached_property
    def partition(self) -> "EqualityPartition":
        """The owl:sameAs classes of the closed graph; only an OWL closure has them."""
        if self.profile != "owl":  # RDFS makes sameAs neither symmetric nor transitive
            raise ValidationError(f"the sameAs partition needs an OWL closure, got a {self.profile!r} one")
        from .owl import EqualityPartition  # owl builds on this module

        return EqualityPartition.from_graph(self.graph)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.graph


class Delta(list):
    """One round's delta: its id triples in sorted order, grouped for the rules.

    The groupings are built on first use and shared by every rule of the
    round; they hold the delta's own triples, so grouping builds no tuple.
    A Delta is a list, so a rule may also walk the triples one by one.
    """

    def __init__(self, triples: Iterable[IdTriple]):
        super().__init__(triples)
        self.sort()
        self._by_object: dict[int | None, dict[int, list[int]]] = {}

    @cached_property
    def by_predicate(self) -> dict[int, list[IdTriple]]:
        """p -> the delta's triples with predicate p, in delta order."""
        groups: dict[int, list[IdTriple]] = {}
        for t in self:
            triples = groups.get(t[1])
            if triples is None:
                groups[t[1]] = [t]
            else:
                triples.append(t)
        return groups

    def by_object(self, p: int | None) -> dict[int, list[int]]:
        """o -> the s of the delta's triples (s, p, o) in ascending order, for one predicate p.

        For rdf:type: each class -> its new members.
        """
        groups = self._by_object.get(p)
        if groups is None:
            groups = self._by_object[p] = {}
            for s, _, o in self.by_predicate.get(p, ()):
                members = groups.get(o)
                if members is None:
                    groups[o] = [s]
                else:
                    members.append(s)
        return groups


# A rule yields (new id-triple, rule name, premise id-triples) for every
# consequence whose premises involve at least one delta triple; it may
# leave out a consequence that is already in the graph.
Rule = Callable[[Graph | Overlay, Delta], Iterator[tuple[IdTriple, str, tuple[IdTriple, ...]]]]


def _r_transitivity(pred: Term, name: str, g: Graph | Overlay, delta: Delta):
    """(A pred B), (B pred C) -> (A pred C), for pred subClassOf or subPropertyOf"""
    pid = g.lookup(pred)
    for t in delta.by_predicate.get(pid, ()):
        a, _, b = t
        for c in g.objects(b, pid):
            yield (a, pid, c), name, (t, (b, pid, c))
        for c in g.subjects(pid, a):
            yield (c, pid, b), name, ((c, pid, a), t)


def _r_type_propagation(g: Graph | Overlay, delta: Delta):
    """(x type A), (A sco B) -> (x type B)"""
    typ = g.lookup(vocab.RDF_TYPE)
    sco = g.lookup(vocab.RDFS_SUBCLASSOF)
    if typ is None or sco is None:
        return
    edges = delta.by_predicate.get(sco, ())
    for edge in edges:  # a new edge types every member of A, new members too
        a, _, b = edge
        for y in g.lacking(g.subjects(typ, a), typ, b):
            yield (y, typ, b), "rdfs-type-propagation", ((y, typ, a), edge)
    new_edges = set(edges)
    for a, xs in delta.by_object(typ).items():  # A's superclasses, read once per class
        for b in g.objects(a, sco):
            edge = (a, sco, b)
            if edge not in new_edges:
                for x in g.lacking(xs, typ, b):
                    yield (x, typ, b), "rdfs-type-propagation", ((x, typ, a), edge)


def _r_property_propagation(g: Graph | Overlay, delta: Delta):
    """(x P y), (P spo Q) -> (x Q y)"""
    spo = g.lookup(vocab.RDFS_SUBPROPERTYOF)
    if spo is None:
        return
    edges = delta.by_predicate.get(spo, ())
    for edge in edges:  # a new edge lifts every triple of P, new triples too
        p, _, q = edge
        for x, y in g.pairs(p):
            yield (x, q, y), "rdfs-subproperty-propagation", ((x, p, y), edge)
    new_edges = set(edges)
    for p, triples in delta.by_predicate.items():
        for q in g.objects(p, spo):
            edge = (p, spo, q)
            if edge not in new_edges:
                for t in triples:
                    yield (t[0], q, t[2]), "rdfs-subproperty-propagation", (t, edge)


def _r_typing(decl: Term, name: str, position: int, g: Graph | Overlay, delta: Delta):
    """(P decl C), (x P y) -> (x type C) for decl domain (`position` 0), (y type C) for decl range (2)"""
    did = g.lookup(decl)
    if did is None:
        return
    typ = g.intern(vocab.RDF_TYPE)

    def witnesses(triples: Iterable[IdTriple]) -> dict[int, IdTriple]:
        """each node in the typed position -> one of the triples that has it there"""
        return {t[position]: t for t in triples}

    decls = delta.by_predicate.get(did, ())
    for d in decls:  # a new declaration types the nodes of every triple of P
        p, _, c = d
        witness = witnesses([(s, p, o) for s, o in g.pairs(p)])
        for x in g.lacking(witness.keys(), typ, c):
            yield (x, typ, c), name, (d, witness[x])
    new_decls = set(decls)
    for p, triples in delta.by_predicate.items():
        classes = g.objects(p, did)  # P's declarations, read once per predicate
        if classes:
            witness = witnesses(triples)
            for c in classes:
                d = (p, did, c)
                if d not in new_decls:
                    for x in g.lacking(witness.keys(), typ, c):
                        yield (x, typ, c), name, (d, witness[x])


RDFS_RULES: list[Rule] = [
    partial(_r_transitivity, vocab.RDFS_SUBCLASSOF, "rdfs-subclass-transitivity"),
    _r_type_propagation,
    partial(_r_transitivity, vocab.RDFS_SUBPROPERTYOF, "rdfs-subproperty-transitivity"),
    _r_property_propagation,
    partial(_r_typing, vocab.RDFS_DOMAIN, "rdfs-domain", 0),
    partial(_r_typing, vocab.RDFS_RANGE, "rdfs-range", 2),
]


@dataclass
class FixpointStats:
    """What one `_fixpoint` run did: each round's delta size, and per rule name its candidates and new triples."""

    deltas: list[int] = field(default_factory=list)
    candidates: Counter = field(default_factory=Counter)
    new: Counter = field(default_factory=Counter)

    def counted(self, candidates: Iterator[tuple]) -> Iterator[tuple]:
        for candidate in candidates:
            self.candidates[candidate[1]] += 1
            yield candidate

    def as_json(self) -> dict:
        return {
            "rounds": len(self.deltas),
            "delta": self.deltas,
            "rules": {name: {"candidates": n, "new": self.new[name]} for name, n in sorted(self.candidates.items())},
        }


_recording: ContextVar[list[FixpointStats] | None] = ContextVar("kgkit_fixpoint_stats", default=None)


@contextmanager
def fixpoint_stats() -> Iterator[list[FixpointStats]]:
    """Collect a `FixpointStats` for each `_fixpoint` run inside the block, in run order.

    Outside such a block a fixpoint counts nothing.
    """
    runs: list[FixpointStats] = []
    token = _recording.set(runs)
    try:
        yield runs
    finally:
        _recording.reset(token)


class _TermKinds(dict):
    """id -> the class of its term (IRI, BlankNode or Literal), looked up once per id."""

    def __init__(self, term: Callable[[int], Term]):
        self.term = term

    def __missing__(self, tid: int) -> type:
        kind = self[tid] = type(self.term(tid))
        return kind


def _fixpoint(work: Graph | Overlay, rules: Iterable[Rule], delta: Iterable[IdTriple]) -> IdDerivations:
    """Saturate `work` in place, starting from `delta`; returns the provenance of what it added.

    Requires `delta` to be in `work` and the rest of `work` to be closed under `rules`.
    Each round hands every rule the same `Delta`.  A candidate already in
    `work` or found earlier in the round is dropped, and so is one that is
    not an RDF 1.1 triple: a literal subject or a predicate that is not an
    IRI, tested once per id.  A round's new triples are inserted together.
    """
    runs = _recording.get()
    stats = None
    if runs is not None:
        stats = FixpointStats()
        runs.append(stats)
    contains = work.contains_ids
    kinds = _TermKinds(work.term)
    provenance: IdDerivations = {}
    delta = Delta(delta)
    while delta:
        fresh: IdDerivations = {}
        for rule in rules:
            candidates = rule(work, delta)
            if stats is not None:
                candidates = stats.counted(candidates)
            for t, name, premises in candidates:
                if t not in fresh and not contains(t) and kinds[t[1]] is IRI and kinds[t[0]] is not Literal:
                    fresh[t] = (name, sum(premises, ()))
        if stats is not None:
            stats.deltas.append(len(delta))
            stats.new.update(name for name, _ in fresh.values())
        delta = Delta(fresh)  # drops this round's groupings before the graph grows
        for t in fresh:
            work.insert_ids(t)
        provenance.update(fresh)
    return provenance


def _saturate(
    graph: Graph, profile: str, rules: list[Rule], violations: Callable[[Graph], InconsistencyReport]
) -> Closure:
    """The closure of `graph` under `rules`, cached on the graph per profile.

    The cached closure is returned while neither the graph nor the
    closure's graph has changed since it was made.  When only the graph
    has grown, the fixpoint resumes from the new triples on a copy of the
    cached closure, so a closure once returned never changes.  Any change
    to the closure's graph drops it, and the graph is saturated afresh.
    """
    cached = graph._closures.get(profile)
    if cached is not None:
        closure, version, closed_version = cached
        if closure.graph.version != closed_version:
            cached = None
        elif version == graph.version:
            return closure
    if cached is None:
        work = graph.copy()
        derivations = _fixpoint(work, rules, work.triple_ids())
    else:
        # the closure's dictionary has interned derived terms since it was
        # copied, so its ids are not the graph's: translate through terms
        work = closure.graph.copy()
        derivations = dict(closure.derivations)
        delta = []
        for t in islice(graph._triples, version, None):  # the triples added since `version`
            t = (work.intern(graph.term(t[0])), work.intern(graph.term(t[1])), work.intern(graph.term(t[2])))
            if work.insert_ids(t):
                delta.append(t)
            else:
                del derivations[t]  # derived before, asserted now
        derivations.update(_fixpoint(work, rules, delta))
    closure = Closure(graph, work, derivations, violations(work), profile)
    graph._closures[profile] = (closure, graph.version, work.version)
    return closure


def saturate_rdfs(graph: Graph) -> Closure:
    """Least fixpoint of the RDFS rule set over the graph, cached on it (see `_saturate`)."""
    return _saturate(graph, "rdfs", RDFS_RULES, lambda work: InconsistencyReport())


def entails(graph: Graph, triple: Triple) -> bool:
    """True iff the triple is derivable: it is in the saturated graph.

    Sound and complete with respect to the rule set; rule derivability
    stands in for model-theoretic consequence.
    """
    return triple in saturate_rdfs(graph).graph
