"""OWL-RL-style rule reasoning on top of the RDFS closure.

Covers identity under the missing unique-names assumption (owl:sameAs
symmetry and substitution; functional properties deriving sameAs),
inverse and transitive properties, class equivalence, intersection and
union operators, someValuesFrom recognition and allValuesFrom
propagation.  Disjointness, complement, differentFrom, AllDifferent
lists and owl:Nothing membership are violation triggers: inconsistency
is reported as data, never raised during saturation.

`OWL_RULES` extends the RDFS table (see `rdfs`) with one row per OWL 2
RL rule of fixed arity; the violation triggers are rows with a `false`
head.  Four rules stay hand-written, because no row can state them:
sameAs substitution rewrites a term in any position of any triple, so
its body has a predicate that no other atom binds; and intersection,
union and AllDifferent read a list of any length, which a walk over
rdf:rest (`_expressions`) reaches from any cell that arrives.  Some
consequences need no rule of their own, as in OWL 2 RL: sameAs
transitivity is substitution in the object position, and intersection
and union membership follow from the operators' subclass edges (scm-int,
scm-uni) through type propagation.  The rules name their vocabulary by
its fixed ids (`vocab.RULE_TERMS`), and none looks a term up.

Deliberate boundary: no rule introduces fresh individuals, so a
someValuesFrom on the superclass side is stored but never instantiated.
That keeps saturation a finite fixpoint.  Equality rules apply only
between non-literal terms.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

from . import vocab
from .errors import InconsistentKBError
from .graph import Graph, IdTriple, Overlay
from .rdfs import RDFS_RULES, Closure, Delta, InconsistencyReport, Row, _fixpoint, _report, _saturate
from .terms import IRI, BlankNode, Literal, Term, Triple, sort_key

# the ids of the vocabulary the rules below name, the same in every graph (see `vocab.RULE_TERMS`)
_TYPE, _FIRST, _REST, _NIL, _SCO, _SA, _INV, _EQC, _FP, _TP, _ONP, _INTER, _UNION, _ALLDIFF, _DISTINCT, _MEMBERS = map(vocab.RULE_IDS.get, (
    vocab.RDF_TYPE, vocab.RDF_FIRST, vocab.RDF_REST, vocab.RDF_NIL, vocab.RDFS_SUBCLASSOF, vocab.OWL_SAMEAS, vocab.OWL_INVERSEOF,
    vocab.OWL_EQUIVALENTCLASS, vocab.OWL_FUNCTIONALPROPERTY, vocab.OWL_TRANSITIVEPROPERTY, vocab.OWL_ONPROPERTY,
    vocab.OWL_INTERSECTIONOF, vocab.OWL_UNIONOF, vocab.OWL_ALLDIFFERENT, vocab.OWL_DISTINCTMEMBERS, vocab.OWL_MEMBERS))


def _list_walk(g: Graph | Overlay, node: int) -> tuple[list[int], bool]:
    """Members of the collection at node in id order, and whether it is complete.

    Complete means the walk reaches rdf:nil and every cell on the way has
    an rdf:first: OWL 2 RL's LIST premise.  A list whose cells are still
    arriving one at a time is a prefix, and not complete.
    """
    members: set[int] = set()
    stack = [node]
    seen: set[int] = set()
    reached_nil = False
    every_cell_has_first = True
    while stack:
        n = stack.pop()
        if n == _NIL:
            reached_nil = True
        elif n not in seen:
            seen.add(n)
            firsts = g.objects(n, _FIRST)
            every_cell_has_first &= bool(firsts)
            members.update(firsts)
            stack.extend(g.objects(n, _REST))
    return sorted(members), reached_nil and every_cell_has_first


def _delta_cells(op: int, delta: Delta) -> list[int]:
    """The list heads of the delta's (C op L) triples and the cells of its rdf:first and rdf:rest triples."""
    by_predicate = delta.by_predicate
    cells = [l for _, _, l in by_predicate.get(op, ())]
    for p in (_FIRST, _REST):
        cells.extend(s for s, _, _ in by_predicate.get(p, ()))
    return cells


def _expressions(g: Graph | Overlay, op: int, cells: Iterable[int]) -> list[tuple[int, int, list[int], bool]]:
    """(C, L, members, complete) for each expression (C op L) whose list L holds one of `cells`.

    A cell is a list head or any later cell.  The lists that reach a cell
    are found by walking rdf:rest backwards from it; each found list is
    then walked with `_list_walk`.
    """
    found: set[tuple[int, int]] = set()
    stack = list(cells)
    seen = {_NIL}  # no list goes on past rdf:nil
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            found.update((c, n) for c in g.subjects(op, n))
            stack.extend(g.subjects(_REST, n))
    return [(c, l, *_list_walk(g, l)) for c, l in sorted(found)]


def _substitutions(t: IdTriple, old: int, new: int):
    """Rewrites of one triple under old = new."""
    s, p, o = t
    if s == old:
        yield (new, p, o)
    if p == old:
        yield (s, new, o)
    if o == old:
        yield (s, p, new)


def _r_sameas_substitution(g: Graph | Overlay, delta: Delta):
    """(a sameAs b) materializes every triple mentioning a with b in its place.

    Rewriting (x sameAs a) under (a sameAs b) gives (x sameAs b), so this
    also makes sameAs transitive.
    """
    for equality in delta.by_predicate.get(_SA, ()):
        a, _, b = equality
        if a != b and not isinstance(g.term(b), Literal):
            mentioning = set()
            mentioning.update(g.match_ids(a, None, None))
            mentioning.update(g.match_ids(None, a, None))
            mentioning.update(g.match_ids(None, None, a))
            for src in mentioning:
                for rewritten in _substitutions(src, a, b):
                    yield rewritten, "owl-sameas-substitution", (equality, src)
    # a newly derived triple is itself subject to all known equalities
    equals: dict[int, list[int]] = {}  # u -> the non-literal terms other than u that u is sameAs, read once per round
    for t in delta:
        for u in set(t):
            vs = equals.get(u)
            if vs is None:
                vs = equals[u] = [v for v in g.objects(u, _SA) if v != u and not isinstance(g.term(v), Literal)]
            for v in vs:
                for rewritten in _substitutions(t, u, v):
                    yield rewritten, "owl-sameas-substitution", ((u, _SA, v), t)


def _r_intersection(g: Graph | Overlay, delta: Delta):
    """(C intersectionOf L): C is a subclass of each member of L, and membership in all of L builds C.

    Building C needs the whole list, so it waits for a complete one; the
    subclass edges hold for a prefix too.
    """

    def build(x: int, c: int, l: int, members: list[int]):
        if all(g.contains_ids((x, _TYPE, m)) for m in members):
            premises = ((c, _INTER, l),) + tuple((x, _TYPE, m) for m in members)
            yield (x, _TYPE, c), "owl-intersection-build", premises

    for c, l, members, complete in _expressions(g, _INTER, _delta_cells(_INTER, delta)):
        for m in members:
            yield (c, _SCO, m), "owl-intersection-subclass", ((c, _INTER, l),)
        if complete and members:
            for x in sorted(g.subjects(_TYPE, members[0])):
                yield from build(x, c, l, members)
    # the individuals the delta types with D, joined once per class D
    for d, xs in sorted(delta.by_object(_TYPE).items()):
        for c, l, members, complete in _expressions(g, _INTER, g.subjects(_FIRST, d)):
            if complete:
                for x in xs:
                    yield from build(x, c, l, members)


def _r_union(g: Graph | Overlay, delta: Delta):
    """(C unionOf L), M in L -> (M subClassOf C), for a list prefix too"""
    for c, l, members, _ in _expressions(g, _UNION, _delta_cells(_UNION, delta)):
        for m in members:
            yield (m, _SCO, c), "owl-union-subclass", ((c, _UNION, l),)


def _r_alldifferent(g: Graph | Overlay, delta: Delta):
    """(D type AllDifferent), (D members L), a and b in L, a sameAs b -> false, for a list prefix too.

    For members a < b in canonical term order the premise is (a sameAs b),
    which symmetry derives from (b sameAs a); a literal sorts last, so a is
    never one.  A list is reached from a new AllDifferent, members triple or
    list cell, and from a new sameAs through the cells holding its subject.
    """
    if not g.subjects(_TYPE, _ALLDIFF):  # no AllDifferent node, so no list to check
        return
    for members_of in (_DISTINCT, _MEMBERS):
        cells = _delta_cells(members_of, delta)
        cells.extend(l for d in delta.by_object(_TYPE).get(_ALLDIFF, ()) for l in g.objects(d, members_of))
        cells.extend(cell for a, _, _ in delta.by_predicate.get(_SA, ()) for cell in g.subjects(_FIRST, a))
        for d, l, members, _ in _expressions(g, members_of, cells):
            if g.contains_ids((d, _TYPE, _ALLDIFF)):
                members.sort(key=lambda m: sort_key(g.term(m)))
                for i, a in enumerate(members):
                    for b in members[i + 1 :]:
                        if g.contains_ids(t := (a, _SA, b)):
                            yield None, "owl-alldifferent", ((d, members_of, l), t)


# The OWL table in the order the fixpoint runs it, with the OWL 2 RL rule each row transcribes.
OWL_RULES = RDFS_RULES + [
    Row("owl-sameas-symmetry", ("y", _SA, "x"), ("x", _SA, "y")),  # eq-sym
    _r_sameas_substitution,  # eq-rep-s, eq-rep-p, eq-rep-o, eq-trans
    Row("owl-functional-property", ("y1", _SA, "y2"), ("p", _TYPE, _FP), ("x", "p", "y1"), ("x", "p", "y2"),
        distinct=("y1", "y2"), nonliteral="y2"),  # prp-fp
    Row("owl-inverse-property", ("y", "q", "x"), ("p", _INV, "q"), ("x", "p", "y")),  # prp-inv1
    Row("owl-inverse-property", ("y", "p", "x"), ("p", _INV, "q"), ("x", "q", "y")),  # prp-inv2
    Row("owl-transitive-property", ("x", "p", "z"), ("p", _TYPE, _TP), ("x", "p", "y"), ("y", "p", "z")),  # prp-trp
    Row("owl-equivalence-subclass", ("c", _SCO, "d"), ("c", _EQC, "d")),  # scm-eqc1
    Row("owl-equivalence-subclass", ("d", _SCO, "c"), ("c", _EQC, "d")),  # scm-eqc1
    Row("owl-subclass-equivalence", ("c", _EQC, "d"), ("c", _SCO, "d"), ("d", _SCO, "c")),  # scm-eqc2
    _r_intersection,  # scm-int, cls-int1
    _r_union,  # scm-uni
    Row("owl-somevalues-recognition", ("x", _TYPE, "r"),
        ("r", vocab.OWL_SOMEVALUESFROM, "d"), ("r", _ONP, "p"), ("x", "p", "y"), ("y", _TYPE, "d")),  # cls-svf1
    Row("owl-allvalues-propagation", ("y", _TYPE, "d"),
        ("r", vocab.OWL_ALLVALUESFROM, "d"), ("r", _ONP, "p"), ("x", _TYPE, "r"), ("x", "p", "y")),  # cls-avf
    # the violation triggers: their head is false
    Row("owl-disjoint-classes", None, ("c", vocab.OWL_DISJOINTWITH, "d"), ("x", _TYPE, "c"), ("x", _TYPE, "d")),  # cax-dw
    Row("owl-complement", None, ("c", vocab.OWL_COMPLEMENTOF, "d"), ("x", _TYPE, "c"), ("x", _TYPE, "d")),  # cls-com
    Row("owl-sameas-differentfrom", None, ("x", vocab.OWL_DIFFERENTFROM, "y"), ("x", _SA, "y")),  # eq-diff1
    _r_alldifferent,  # eq-diff2, eq-diff3
    Row("owl-nothing-member", None, ("x", _TYPE, vocab.OWL_NOTHING)),  # cls-nothing2
]


# ---------------------------------------------------------------------------
# Identity partition
# ---------------------------------------------------------------------------


class EqualityPartition:
    """The owl:sameAs classes of an OWL-closed graph, over the graph's ids.

    Only non-literal terms take part.  The OWL closure makes sameAs
    symmetric and transitive between them, so a term's class is itself
    plus its non-literal sameAs objects.  Each class is represented by its
    canonically smallest member, which makes canonicalization stable under
    any input permutation.
    """

    def __init__(self, graph: Graph, representatives: dict[int, int]):
        self._graph = graph
        self._reps = representatives

    @classmethod
    def from_graph(cls, graph: Graph) -> "EqualityPartition":
        """The partition of `graph`, which must be closed under the OWL rules."""
        term = graph.term
        classes: dict[int, list[int]] = {}
        for x, y in graph.pairs(_SA):
            if not isinstance(term(y), Literal):
                classes.setdefault(x, [x]).append(y)
        return cls(graph, {x: min(members, key=lambda i: sort_key(term(i))) for x, members in classes.items()})

    def representative_id(self, tid: int) -> int:
        """`representative` on the graph's ids."""
        return self._reps.get(tid, tid)

    def representative(self, term: Term) -> Term:
        tid = self._graph.lookup(term)
        return term if tid is None else self._graph.term(self.representative_id(tid))


# ---------------------------------------------------------------------------
# Saturation and the reasoning tasks
# ---------------------------------------------------------------------------


def saturate_owl(graph: Graph) -> tuple[Closure, InconsistencyReport]:
    """OWL closure of the graph plus the violations found in it, cached on the graph (see `rdfs._saturate`)."""
    closure = _saturate(graph, "owl", OWL_RULES)
    return closure, closure.report


def _consistent_closure(graph: Graph) -> Closure:
    """The OWL closure of a KB that reasoning tasks require to be consistent."""
    closure, report = saturate_owl(graph)
    if report:
        raise InconsistentKBError(report)
    return closure


def _breaks(closure: Closure, triple: Triple) -> InconsistencyReport:
    """Violations of the closure plus one triple, resuming the fixpoint from that triple on an overlay.

    The overlay leaves the closure as it is, so probes need no copy and no lock.
    """
    work = Overlay(closure.graph)
    t = (work.intern(triple.subject), work.intern(triple.predicate), work.intern(triple.object))
    work.insert_ids(t)
    _, found = _fixpoint(work, OWL_RULES, [t])
    return _report(work, closure.violations | found)


def is_consistent(graph: Graph) -> tuple[bool, InconsistencyReport]:
    _, report = saturate_owl(graph)
    return (not report.violations, report)


class InstanceCheck(Enum):
    ENTAILED = "entailed"
    NOT_ENTAILED = "not-entailed"
    INCONSISTENT_IF_ASSERTED = "inconsistent-if-asserted"


def check_instance(graph: Graph, individual: Term, cls: Term) -> InstanceCheck:
    """Instance check under the open-world assumption.

    Absence of a derivation is not a negative: the verdict is
    NOT_ENTAILED unless asserting the membership would actually break
    the KB, in which case it is INCONSISTENT_IF_ASSERTED.
    """
    closure = _consistent_closure(graph)
    assertion = Triple(individual, vocab.RDF_TYPE, cls)
    if assertion in closure.graph:
        return InstanceCheck.ENTAILED
    if _breaks(closure, assertion):
        return InstanceCheck.INCONSISTENT_IF_ASSERTED
    return InstanceCheck.NOT_ENTAILED


def retrieve_instances(graph: Graph, cls: Term) -> set[Term]:
    """All derived members of a class, canonicalized to sameAs representatives."""
    closure = _consistent_closure(graph)
    g, rep = closure.graph, closure.partition.representative_id
    return {g.term(rep(x)) for x in g.subjects(_TYPE, g.lookup(cls))}


def realize(graph: Graph, individual: Term) -> set[Term]:
    """Most specific derived named classes of an individual.

    Among the individual's derived IRI classes, keeps those with no
    strictly more specific competitor; equivalent classes tie and are
    all returned.
    """
    g = _consistent_closure(graph).graph
    types = {c for c in g.objects(g.lookup(individual), _TYPE) if isinstance(g.term(c), IRI)}
    # c is kept when each other type below it is equivalent to it
    return {g.term(c) for c in types if all(c in g.subjects(_SCO, d) for d in types & g.subjects(_SCO, c) if d != c)}


def subsumes(graph: Graph, class_d: Term, class_c: Term) -> bool:
    """True iff membership in class_c implies membership in class_d.

    Reads subsumption off the closure's subClassOf edges, reflexively
    for classes the graph mentions.
    """
    closure, _ = saturate_owl(graph)
    if class_c == class_d:
        return closure.graph.mentions(class_c)
    return Triple(class_c, vocab.RDFS_SUBCLASSOF, class_d) in closure.graph


def is_satisfiable(graph: Graph, cls: Term) -> bool:
    """Probe with a fresh individual: can the class have a member at all?

    Sound and complete only relative to the implemented rule fragment.
    """
    closure = _consistent_closure(graph)
    n = 0
    while closure.graph.lookup(BlankNode(f"satprobe{n}")) is not None:
        n += 1
    return not _breaks(closure, Triple(BlankNode(f"satprobe{n}"), vocab.RDF_TYPE, cls))
