"""OWL-RL-style rule reasoning on top of the RDFS closure.

Covers identity under the missing unique-names assumption (owl:sameAs
symmetry and substitution; functional properties deriving sameAs),
inverse and transitive properties, class equivalence, intersection and
union operators, someValuesFrom recognition and allValuesFrom
propagation.  Disjointness, complement, differentFrom, AllDifferent
lists and owl:Nothing membership are violation triggers: inconsistency
is reported as data, never raised during saturation.

Some consequences need no rule of their own, as in the OWL 2 RL rule
table: sameAs transitivity is substitution in the object position, and
intersection and union membership follow from the operators' subclass
edges (scm-int, scm-uni) through RDFS type propagation.  Each rule
handles every premise from the delta, joining an arriving triple in each
role it can play: a new list cell or restriction triple re-evaluates only
the class expressions it belongs to.

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
from .rdfs import (
    RDFS_RULES,
    Closure,
    Delta,
    InconsistencyReport,
    Violation,
    _fixpoint,
    _saturate,
)
from .terms import IRI, BlankNode, Literal, Term, Triple, sort_key, triple_sort_key

def _list_walk(g: Graph | Overlay, node: int) -> tuple[list[int], bool]:
    """Members of the collection at node in id order, and whether it is complete.

    Complete means the walk reaches rdf:nil and every cell on the way has
    an rdf:first: OWL 2 RL's LIST premise.  A list whose cells are still
    arriving one at a time is a prefix, and not complete.
    """
    first = g.lookup(vocab.RDF_FIRST)
    rest = g.lookup(vocab.RDF_REST)
    nil = g.lookup(vocab.RDF_NIL)
    members: set[int] = set()
    stack = [node]
    seen: set[int] = set()
    reached_nil = False
    every_cell_has_first = True
    while stack:
        n = stack.pop()
        if n == nil:
            reached_nil = True
        elif n not in seen:
            seen.add(n)
            firsts = g.objects(n, first)
            every_cell_has_first &= bool(firsts)
            members.update(firsts)
            stack.extend(g.objects(n, rest))
    return sorted(members), reached_nil and every_cell_has_first


def _delta_cells(g: Graph | Overlay, op: int, delta: Delta) -> list[int]:
    """The list heads of the delta's (C op L) triples and the cells of its rdf:first and rdf:rest triples."""
    by_predicate = delta.by_predicate
    cells = [l for _, _, l in by_predicate.get(op, ())]
    for p in (g.lookup(vocab.RDF_FIRST), g.lookup(vocab.RDF_REST)):
        cells.extend(s for s, _, _ in by_predicate.get(p, ()))
    return cells


def _expressions(g: Graph | Overlay, op: int, cells: Iterable[int]) -> list[tuple[int, int, list[int], bool]]:
    """(C, L, members, complete) for each expression (C op L) whose list L holds one of `cells`.

    A cell is a list head or any later cell.  The lists that reach a cell
    are found by walking rdf:rest backwards from it; each found list is
    then walked with `_list_walk`.
    """
    rest = g.lookup(vocab.RDF_REST)
    found: set[tuple[int, int]] = set()
    stack = list(cells)
    seen = {g.lookup(vocab.RDF_NIL)}  # no list goes on past rdf:nil
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            found.update((c, n) for c in g.subjects(op, n))
            stack.extend(g.subjects(rest, n))
    return [(c, l, *_list_walk(g, l)) for c, l in sorted(found)]


def _r_sameas_symmetry(g: Graph | Overlay, delta: Delta):
    """(x sameAs y) -> (y sameAs x)"""
    for t in delta.by_predicate.get(g.lookup(vocab.OWL_SAMEAS), ()):
        yield (t[2], t[1], t[0]), "owl-sameas-symmetry", (t,)


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
    sa = g.lookup(vocab.OWL_SAMEAS)
    if sa is None:
        return
    for equality in delta.by_predicate.get(sa, ()):
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
                vs = equals[u] = [v for v in g.objects(u, sa) if v != u and not isinstance(g.term(v), Literal)]
            for v in vs:
                for rewritten in _substitutions(t, u, v):
                    yield rewritten, "owl-sameas-substitution", ((u, sa, v), t)


def _r_functional(g: Graph | Overlay, delta: Delta):
    """(P a FunctionalProperty), (x P y1), (x P y2) -> (y1 sameAs y2)"""
    typ = g.lookup(vocab.RDF_TYPE)
    fp = g.lookup(vocab.OWL_FUNCTIONALPROPERTY)
    if typ is None or fp is None:
        return
    sa = g.intern(vocab.OWL_SAMEAS)
    for prop in delta.by_object(typ).get(fp, ()):  # a new declaration pairs the objects of every subject
        decl = (prop, typ, fp)
        for x, y1 in g.pairs(prop):
            for y2 in g.objects(x, prop):
                if y1 != y2 and not isinstance(g.term(y2), Literal):
                    yield (y1, sa, y2), "owl-functional-property", (decl, (x, prop, y1), (x, prop, y2))
    for p, triples in delta.by_predicate.items():
        decl = (p, typ, fp)
        if g.contains_ids(decl):
            for t in triples:
                s, _, o = t
                for y2 in g.objects(s, p):
                    if y2 != o and not isinstance(g.term(y2), Literal):
                        yield (o, sa, y2), "owl-functional-property", (decl, t, (s, p, y2))


def _r_inverse(g: Graph | Overlay, delta: Delta):
    """(P inverseOf Q): (x P y) -> (y Q x) and (x Q y) -> (y P x)"""
    inv = g.lookup(vocab.OWL_INVERSEOF)
    if inv is None:
        return
    decls = delta.by_predicate.get(inv, ())
    for decl in decls:  # a new declaration maps every triple of P and of Q, new triples too
        p, _, q = decl
        for x, y in g.pairs(p):
            yield (y, q, x), "owl-inverse-property", ((x, p, y), decl)
        for x, y in g.pairs(q):
            yield (y, p, x), "owl-inverse-property", ((x, q, y), decl)
    new_decls = set(decls)
    contains = g.contains_ids
    for p, triples in delta.by_predicate.items():
        mapped = [((p, inv, q), q) for q in g.objects(p, inv)] + [((r, inv, p), r) for r in g.subjects(inv, p)]
        for decl, image in mapped:
            if decl not in new_decls:
                for t in triples:
                    if not contains((t[2], image, t[0])):
                        yield (t[2], image, t[0]), "owl-inverse-property", (t, decl)


def _r_transitive(g: Graph | Overlay, delta: Delta):
    """(P a TransitiveProperty), (x P y), (y P z) -> (x P z)"""
    typ = g.lookup(vocab.RDF_TYPE)
    tp = g.lookup(vocab.OWL_TRANSITIVEPROPERTY)
    if typ is None or tp is None:
        return
    for prop in delta.by_object(typ).get(tp, ()):  # a new declaration composes every pair of P triples
        decl = (prop, typ, tp)
        for x, y in g.pairs(prop):
            for z in g.objects(y, prop):
                yield (x, prop, z), "owl-transitive-property", (decl, (x, prop, y), (y, prop, z))
    for p, triples in delta.by_predicate.items():
        decl = (p, typ, tp)
        if g.contains_ids(decl):
            for t in triples:
                s, _, o = t
                for z in g.objects(o, p) - g.objects(s, p):
                    yield (s, p, z), "owl-transitive-property", (decl, t, (o, p, z))
                for w in g.subjects(p, s) - g.subjects(p, o):
                    yield (w, p, o), "owl-transitive-property", (decl, (w, p, s), t)


def _r_equivalent_class(g: Graph | Overlay, delta: Delta):
    """(C equivalentClass D) <-> (C sco D) and (D sco C)"""
    eqc = g.lookup(vocab.OWL_EQUIVALENTCLASS)
    sco = g.lookup(vocab.RDFS_SUBCLASSOF)
    sco_id = g.intern(vocab.RDFS_SUBCLASSOF) if eqc is not None else None
    eqc_id = g.intern(vocab.OWL_EQUIVALENTCLASS) if sco is not None else None
    for t in delta.by_predicate.get(eqc, ()):
        s, _, o = t
        yield (s, sco_id, o), "owl-equivalence-subclass", (t,)
        yield (o, sco_id, s), "owl-equivalence-subclass", (t,)
    for t in delta.by_predicate.get(sco, ()):
        s, _, o = t
        back = (o, sco, s)
        if g.contains_ids(back):
            yield (s, eqc_id, o), "owl-subclass-equivalence", (t, back)
            yield (o, eqc_id, s), "owl-subclass-equivalence", (back, t)


def _r_intersection(g: Graph | Overlay, delta: Delta):
    """(C intersectionOf L): C is a subclass of each member of L, and membership in all of L builds C.

    Building C needs the whole list, so it waits for a complete one; the
    subclass edges hold for a prefix too.
    """
    inter = g.lookup(vocab.OWL_INTERSECTIONOF)
    if inter is None:
        return
    typ = g.lookup(vocab.RDF_TYPE)
    first = g.lookup(vocab.RDF_FIRST)
    sco = g.intern(vocab.RDFS_SUBCLASSOF)

    def build(x: int, c: int, l: int, members: list[int]):
        if all(g.contains_ids((x, typ, m)) for m in members):
            premises = ((c, inter, l),) + tuple((x, typ, m) for m in members)
            yield (x, typ, c), "owl-intersection-build", premises

    for c, l, members, complete in _expressions(g, inter, _delta_cells(g, inter, delta)):
        for m in members:
            yield (c, sco, m), "owl-intersection-subclass", ((c, inter, l),)
        if typ is not None and complete and members:
            for x in sorted(g.subjects(typ, members[0])):
                yield from build(x, c, l, members)
    # the individuals the delta types with D, joined once per class D
    for d, xs in sorted(delta.by_object(typ).items()):
        for c, l, members, complete in _expressions(g, inter, g.subjects(first, d)):
            if complete:
                for x in xs:
                    yield from build(x, c, l, members)


def _r_union(g: Graph | Overlay, delta: Delta):
    """(C unionOf L), M in L -> (M subClassOf C), for a list prefix too"""
    uni = g.lookup(vocab.OWL_UNIONOF)
    if uni is None:
        return
    sco = g.intern(vocab.RDFS_SUBCLASSOF)
    for c, l, members, _ in _expressions(g, uni, _delta_cells(g, uni, delta)):
        for m in members:
            yield (m, sco, c), "owl-union-subclass", ((c, uni, l),)


def _restrictions(delta: Delta, *predicates: int) -> set[int]:
    """The subjects of the delta's triples with these predicates: restrictions that gained a triple."""
    by_predicate = delta.by_predicate
    return {r for p in predicates for r, _, _ in by_predicate.get(p, ())}


def _r_somevalues(g: Graph | Overlay, delta: Delta):
    """(R onProperty P), (R someValuesFrom D), (x P y), (y type D) -> (x type R)"""
    svf = g.lookup(vocab.OWL_SOMEVALUESFROM)
    onp = g.lookup(vocab.OWL_ONPROPERTY)
    typ = g.lookup(vocab.RDF_TYPE)
    if svf is None or onp is None or typ is None:
        return

    def fire(r: int, prop: int, d: int, x: int, y: int):
        return (x, typ, r), "owl-somevalues-recognition", ((r, onp, prop), (r, svf, d), (x, prop, y), (y, typ, d))

    for r in _restrictions(delta, svf, onp):  # a restriction triple joins just its own restriction
        for prop in g.objects(r, onp):
            for d in g.objects(r, svf):
                members = g.subjects(typ, d)
                for x, y in g.pairs(prop):
                    if y in members:
                        yield fire(r, prop, d, x, y)
    for d, ys in delta.by_object(typ).items():
        for r in g.subjects(svf, d):
            for prop in g.objects(r, onp):
                for y in ys:
                    for x in g.subjects(prop, y):
                        yield fire(r, prop, d, x, y)
    for p, triples in delta.by_predicate.items():
        for r in g.subjects(onp, p):
            for d in g.objects(r, svf):
                members = g.subjects(typ, d)
                for x, _, y in triples:
                    if y in members:
                        yield fire(r, p, d, x, y)


def _r_allvalues(g: Graph | Overlay, delta: Delta):
    """(R onProperty P), (R allValuesFrom D), (x type R), (x P y) -> (y type D)"""
    avf = g.lookup(vocab.OWL_ALLVALUESFROM)
    onp = g.lookup(vocab.OWL_ONPROPERTY)
    typ = g.lookup(vocab.RDF_TYPE)
    if avf is None or onp is None or typ is None:
        return

    def fire(r: int, prop: int, d: int, x: int, y: int):
        return (y, typ, d), "owl-allvalues-propagation", ((r, onp, prop), (r, avf, d), (x, typ, r), (x, prop, y))

    for r in _restrictions(delta, avf, onp):  # a restriction triple joins just its own restriction
        for prop in g.objects(r, onp):
            for d in g.objects(r, avf):
                for x in g.subjects(typ, r):
                    for y in g.objects(x, prop):
                        yield fire(r, prop, d, x, y)
    for r, xs in delta.by_object(typ).items():
        for d in g.objects(r, avf):
            for prop in g.objects(r, onp):
                for x in xs:
                    for y in g.objects(x, prop):
                        yield fire(r, prop, d, x, y)
    for p, triples in delta.by_predicate.items():
        for r in g.subjects(onp, p):
            for d in g.objects(r, avf):
                members = g.subjects(typ, r)
                for x, _, y in triples:
                    if x in members:
                        yield fire(r, p, d, x, y)


OWL_RULES = RDFS_RULES + [
    _r_sameas_symmetry,
    _r_sameas_substitution,
    _r_functional,
    _r_inverse,
    _r_transitive,
    _r_equivalent_class,
    _r_intersection,
    _r_union,
    _r_somevalues,
    _r_allvalues,
]


# ---------------------------------------------------------------------------
# Violation detection
# ---------------------------------------------------------------------------


def _collect_violations(work: Graph | Overlay) -> InconsistencyReport:
    typ = work.lookup(vocab.RDF_TYPE)
    found: set[tuple[str, tuple[IdTriple, ...]]] = set()

    def record(rule: str, *triples: IdTriple):
        found.add((rule, tuple(sorted(set(triples)))))

    for pred, rule in ((vocab.OWL_DISJOINTWITH, "owl-disjoint-classes"), (vocab.OWL_COMPLEMENTOF, "owl-complement")):
        pid = work.lookup(pred)
        if pid is None or typ is None:
            continue
        for c, d in work.pairs(pid):
            for x in work.subjects(typ, c) & work.subjects(typ, d):
                record(rule, (c, pid, d), (x, typ, c), (x, typ, d))

    # sameAs is symmetric in the closure, so (x sameAs y) is there whenever (y sameAs x) is
    sa = work.lookup(vocab.OWL_SAMEAS)
    diff = work.lookup(vocab.OWL_DIFFERENTFROM)
    if sa is not None and diff is not None:
        for x, y in work.pairs(diff):
            if work.contains_ids((x, sa, y)):
                record("owl-sameas-differentfrom", (x, diff, y), (x, sa, y))

    alldiff = work.lookup(vocab.OWL_ALLDIFFERENT)
    if alldiff is not None and typ is not None and sa is not None:
        for d in work.subjects(typ, alldiff):
            for prop in (vocab.OWL_DISTINCTMEMBERS, vocab.OWL_MEMBERS):
                pid = work.lookup(prop)
                if pid is None:
                    continue
                for lst in work.objects(d, pid):
                    members = _list_walk(work, lst)[0]
                    for i, a in enumerate(members):
                        for b in members[i + 1 :]:
                            if work.contains_ids((a, sa, b)):
                                record("owl-alldifferent", (d, pid, lst), (a, sa, b))
                            elif work.contains_ids((b, sa, a)):
                                record("owl-alldifferent", (d, pid, lst), (b, sa, a))

    nothing = work.lookup(vocab.OWL_NOTHING)
    if nothing is not None and typ is not None:
        for x in work.subjects(typ, nothing):
            record("owl-nothing-member", (x, typ, nothing))

    violations = [Violation(rule, tuple(sorted(map(work._to_triple, ts), key=triple_sort_key))) for rule, ts in found]
    violations.sort(key=lambda v: (v.rule, tuple(triple_sort_key(t) for t in v.triples)))
    return InconsistencyReport(tuple(violations))


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
        for x, y in graph.pairs(graph.lookup(vocab.OWL_SAMEAS)):
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
    closure = _saturate(graph, "owl", OWL_RULES, _collect_violations)
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
    _fixpoint(work, OWL_RULES, [t])
    return _collect_violations(work)


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
    return {g.term(rep(x)) for x in g.subjects(g.lookup(vocab.RDF_TYPE), g.lookup(cls))}


def realize(graph: Graph, individual: Term) -> set[Term]:
    """Most specific derived named classes of an individual.

    Among the individual's derived IRI classes, keeps those with no
    strictly more specific competitor; equivalent classes tie and are
    all returned.
    """
    g = _consistent_closure(graph).graph
    sco = g.lookup(vocab.RDFS_SUBCLASSOF)
    types = {c for c in g.objects(g.lookup(individual), g.lookup(vocab.RDF_TYPE)) if isinstance(g.term(c), IRI)}
    # c is kept when each other type below it is equivalent to it
    return {g.term(c) for c in types if all(c in g.subjects(sco, d) for d in types & g.subjects(sco, c) if d != c)}


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
