"""Forward-chaining RDFS saturation.

Four rule families: subClassOf transitivity and type propagation,
subPropertyOf transitivity and triple propagation, domain typing, and
range typing.  Evaluation is semi-naive: each round joins only the
triples derived in the previous round (the delta) against the rest, so
nothing is re-derived from scratch.  The closure is the least fixpoint;
rules only ever combine existing terms, so it is finite.

Resume invariant: every rule finds every consequence that has at least
one premise in the delta.  Rules only add triples, so a closed graph takes
new triples by running the same loop from a delta of just those triples.

Shape invariant: `_fixpoint` inserts only RDF 1.1 triples, with no
literal subject and an IRI predicate, so rules need not check the shape
of what they derive: a rule may yield (y type C) for a literal y, and the
fixpoint drops it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, islice
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


# A rule yields (new id-triple, rule name, premise id-triples) for every
# consequence whose premises involve at least one delta triple.
Rule = Callable[[Graph | Overlay, list[IdTriple]], Iterator[tuple[IdTriple, str, tuple[IdTriple, ...]]]]


def _r_transitivity(pred: Term, name: str, g: Graph | Overlay, delta: list[IdTriple]):
    """(A pred B), (B pred C) -> (A pred C), for pred subClassOf or subPropertyOf"""
    pid = g.lookup(pred)
    if pid is None:
        return
    for a, p, b in delta:
        if p != pid:
            continue
        for _, _, c in g.match_ids(b, pid, None):
            yield (a, pid, c), name, ((a, pid, b), (b, pid, c))
        for c, _, _ in g.match_ids(None, pid, a):
            yield (c, pid, b), name, ((c, pid, a), (a, pid, b))


def _r_type_propagation(g: Graph | Overlay, delta: list[IdTriple]):
    """(x type A), (A sco B) -> (x type B)"""
    typ = g.lookup(vocab.RDF_TYPE)
    sco = g.lookup(vocab.RDFS_SUBCLASSOF)
    if typ is None or sco is None:
        return
    for x, p, a in delta:
        if p == typ:
            for _, _, b in g.match_ids(a, sco, None):
                yield (x, typ, b), "rdfs-type-propagation", ((x, typ, a), (a, sco, b))
        if p == sco:
            for y, _, _ in g.match_ids(None, typ, x):
                yield (y, typ, a), "rdfs-type-propagation", ((y, typ, x), (x, sco, a))


def _r_property_propagation(g: Graph | Overlay, delta: list[IdTriple]):
    """(x P y), (P spo Q) -> (x Q y)"""
    spo = g.lookup(vocab.RDFS_SUBPROPERTYOF)
    if spo is None:
        return
    for s, p, o in delta:
        if p == spo:
            # s is the subproperty, o the superproperty
            for x, _, y in g.match_ids(None, s, None):
                yield (x, o, y), "rdfs-subproperty-propagation", ((x, s, y), (s, spo, o))
        for _, _, q in g.match_ids(p, spo, None):
            yield (s, q, o), "rdfs-subproperty-propagation", ((s, p, o), (p, spo, q))


def _r_domain(g: Graph | Overlay, delta: list[IdTriple]):
    """(P domain C), (x P y) -> (x type C)"""
    dom = g.lookup(vocab.RDFS_DOMAIN)
    if dom is None:
        return
    typ = g.intern(vocab.RDF_TYPE)
    for s, p, o in delta:
        if p == dom:
            for x, _, y in g.match_ids(None, s, None):
                yield (x, typ, o), "rdfs-domain", ((s, dom, o), (x, s, y))
        for _, _, c in g.match_ids(p, dom, None):
            yield (s, typ, c), "rdfs-domain", ((p, dom, c), (s, p, o))


def _r_range(g: Graph | Overlay, delta: list[IdTriple]):
    """(P range C), (x P y) -> (y type C)"""
    rng = g.lookup(vocab.RDFS_RANGE)
    if rng is None:
        return
    typ = g.intern(vocab.RDF_TYPE)
    for s, p, o in delta:
        if p == rng:
            for x, _, y in g.match_ids(None, s, None):
                yield (y, typ, o), "rdfs-range", ((s, rng, o), (x, s, y))
        for _, _, c in g.match_ids(p, rng, None):
            yield (o, typ, c), "rdfs-range", ((p, rng, c), (s, p, o))


RDFS_RULES: list[Rule] = [
    partial(_r_transitivity, vocab.RDFS_SUBCLASSOF, "rdfs-subclass-transitivity"),
    _r_type_propagation,
    partial(_r_transitivity, vocab.RDFS_SUBPROPERTYOF, "rdfs-subproperty-transitivity"),
    _r_property_propagation,
    _r_domain,
    _r_range,
]


def _well_formed(work: Graph | Overlay, t: IdTriple) -> bool:
    """An RDF 1.1 triple: its subject is not a literal and its predicate is an IRI."""
    return isinstance(work.term(t[1]), IRI) and not isinstance(work.term(t[0]), Literal)


def _fixpoint(work: Graph | Overlay, rules: Iterable[Rule], delta: Iterable[IdTriple]) -> IdDerivations:
    """Saturate `work` in place, starting from `delta`; returns the provenance of what it added.

    Requires `delta` to be in `work` and the rest of `work` to be closed under `rules`.
    A rule's candidate that is not `_well_formed` is dropped.
    """
    provenance: IdDerivations = {}
    delta = sorted(delta)
    while delta:
        fresh: IdDerivations = {}
        for rule in rules:
            for t, name, premises in rule(work, delta):
                if t not in fresh and not work.contains_ids(t) and _well_formed(work, t):
                    fresh[t] = (name, tuple(chain.from_iterable(premises)))
        for t in fresh:
            work.insert_ids(t)
        provenance.update(fresh)
        delta = sorted(fresh)
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
