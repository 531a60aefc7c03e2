"""OWL-RL-style rule reasoning on top of the RDFS closure.

Covers identity under the missing unique-names assumption (owl:sameAs;
functional properties deriving sameAs), inverse and transitive
properties, class equivalence, intersection and union operators,
someValuesFrom recognition and allValuesFrom propagation.  Disjointness,
complement, differentFrom, AllDifferent lists and owl:Nothing membership
are violation triggers: inconsistency is reported as data, never raised
during saturation.

owl:sameAs is handled by rewriting, after Motik, Nenov, Piro and
Horrocks, "Handling owl:sameAs via Rewriting" (AAAI 2015).  The fixpoint
keeps a union-find over the non-literal terms (`_Equality`) and a graph
that holds one representative per class: the class's `sort_key`-least
member, or the rule-vocabulary IRI in it.  A sameAs triple that reaches a
round's delta, asserted or derived by prp-fp, merges two classes, and the
triples that mention the merged-away representative are rewritten once;
every other rule reads only representatives.  So symmetry, transitivity
and substitution need no rule, and a chain of n sameAs links saturates
in time linear in n instead of materializing its n^2 copies.

The readers stay on the representative graph and read the classes off
it (`Graph.equality`, their one holder, in canonical order): the
reasoning tasks, `_breaks` probes, `query` under the owl regime, `kgkit
check` and the `partition`.  `OwlClosure.graph` expands it over the
classes on first access (`kgkit infer` does), and `rdfs.Closure` reads
`derived` and `provenance` off `OwlClosure._copies`; an expanded copy
that no rule derived follows by owl-sameas-substitution or
owl-sameas-symmetry from triples of the expanded graph.  `report`
expands each violation over the classes of its rule's variables.

`OWL_RULES` extends the RDFS table (see `rdfs`) with one row per OWL 2
RL rule of fixed arity; the violation triggers are rows with a `false`
head.  Three rules stay hand-written, because intersection, union and
AllDifferent read a list of any length, once complete (OWL 2 RL's LIST
premise, `_list_walk`), which a walk back over rdf:rest (`_expressions`)
finds from whichever of its cells arrives last.  Some consequences
need no rule of their own, as in OWL 2 RL: intersection and union
membership follow from the operators' subclass edges (scm-int, scm-uni)
through type propagation.  The rules name their vocabulary by its fixed
ids (`vocab.RULE_TERMS`), and none looks a term up.

Deliberate boundaries: no rule introduces fresh individuals, so a
someValuesFrom on the superclass side is stored but never instantiated.
That keeps saturation a finite fixpoint.  Equality rules apply only
between non-literal terms.  Two rule-vocabulary IRIs may not share a
sameAs class (`rdf:type owl:sameAs rdfs:subClassOf`): the rules name both.
"""

from __future__ import annotations

import heapq
from enum import Enum
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator

from . import vocab
from .errors import InconsistentKBError, ValidationError
from .graph import Graph, IdTriple, Overlay
from .rdfs import (RDFS_RULES, Closure, Delta, EqualityPartition, IdViolations, InconsistencyReport, Row,
                   _fixpoint, _report, _saturate)
from .terms import IRI, BlankNode, Literal, Term, Triple, sort_key

# the ids of the vocabulary the rules below name, the same in every graph (see `vocab.RULE_TERMS`)
_TYPE, _FIRST, _REST, _NIL, _SCO, _SA, _INV, _EQC, _FP, _TP, _ONP, _INTER, _UNION, _ALLDIFF, _DISTINCT, _MEMBERS = map(vocab.RULE_IDS.get, (
    vocab.RDF_TYPE, vocab.RDF_FIRST, vocab.RDF_REST, vocab.RDF_NIL, vocab.RDFS_SUBCLASSOF, vocab.OWL_SAMEAS, vocab.OWL_INVERSEOF,
    vocab.OWL_EQUIVALENTCLASS, vocab.OWL_FUNCTIONALPROPERTY, vocab.OWL_TRANSITIVEPROPERTY, vocab.OWL_ONPROPERTY,
    vocab.OWL_INTERSECTIONOF, vocab.OWL_UNIONOF, vocab.OWL_ALLDIFFERENT, vocab.OWL_DISTINCTMEMBERS, vocab.OWL_MEMBERS))


def _list_walk(g: Graph | Overlay, node: int) -> list[int] | None:
    """Members of the complete list at node in id order, or None.

    Complete means the walk reaches rdf:nil and every cell on the way has
    an rdf:first: OWL 2 RL's LIST premise.  A list whose cells are still
    arriving is no list yet.
    """
    members: set[int] = set()
    stack = [node]
    seen: set[int] = set()
    reached_nil = False
    while stack:
        n = stack.pop()
        if n == _NIL:
            reached_nil = True
        elif n not in seen:
            seen.add(n)
            if not (firsts := g.objects(n, _FIRST)):
                return None
            members.update(firsts)
            stack.extend(g.objects(n, _REST))
    return sorted(members) if reached_nil else None


def _delta_cells(op: int, delta: Delta) -> list[int]:
    """The list heads of the delta's (C op L) triples and the cells of its rdf:first and rdf:rest triples."""
    by_predicate = delta.by_predicate
    cells = [l for _, _, l in by_predicate.get(op, ())]
    for p in (_FIRST, _REST):
        cells.extend(s for s, _, _ in by_predicate.get(p, ()))
    return cells


def _expressions(g: Graph | Overlay, op: int, cells: Iterable[int]) -> list[tuple[int, int, list[int]]]:
    """(C, L, members) for each expression (C op L) whose list L holds one of `cells` and is complete.

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
    return [(c, l, members) for c, l in sorted(found) if (members := _list_walk(g, l)) is not None]


def _r_intersection(g: Graph | Overlay, delta: Delta):
    """(C intersectionOf L): C is a subclass of each member of L, and membership in all of L builds C."""
    if not g.has_predicate(_INTER):  # no intersection to read
        return

    def build(x: int, c: int, l: int, members: list[int]):
        if all(g.contains_ids((x, _TYPE, m)) for m in members):
            premises = ((c, _INTER, l),) + tuple((x, _TYPE, m) for m in members)
            yield (x, _TYPE, c), "owl-intersection-build", premises

    for c, l, members in _expressions(g, _INTER, _delta_cells(_INTER, delta)):
        for m in members:
            yield (c, _SCO, m), "owl-intersection-subclass", ((c, _INTER, l),)
        if members:
            for x in sorted(g.subjects(_TYPE, members[0])):
                yield from build(x, c, l, members)
    # the individuals the delta types with D, joined once per class D
    for d, xs in sorted(delta.by_object(_TYPE).items()):
        for c, l, members in _expressions(g, _INTER, g.subjects(_FIRST, d)):
            for x in xs:
                yield from build(x, c, l, members)


def _r_union(g: Graph | Overlay, delta: Delta):
    """(C unionOf L), M in L -> (M subClassOf C)"""
    if not g.has_predicate(_UNION):  # no union to read
        return
    for c, l, members in _expressions(g, _UNION, _delta_cells(_UNION, delta)):
        for m in members:
            yield (m, _SCO, c), "owl-union-subclass", ((c, _UNION, l),)


def _r_alldifferent(g: Graph | Overlay, delta: Delta):
    """(D type AllDifferent), (D members L), a and b in L, a sameAs b -> false.

    On representatives a member stands for its class, so a member pairs
    with itself too: (a sameAs a) is there when a's class has two or more
    members, and `_expand_violations` keeps, of each class pair, the
    members a < b in canonical term order.  For members a <= b the premise
    is (a sameAs b); a literal sorts last, so a is never one.  A list is
    reached from a new AllDifferent, members triple or list cell, and from
    a new sameAs through the cells holding its subject.
    """
    if not g.subjects(_TYPE, _ALLDIFF):  # no AllDifferent node, so no list to check
        return
    for members_of in (_DISTINCT, _MEMBERS):
        cells = _delta_cells(members_of, delta)
        cells.extend(l for d in delta.by_object(_TYPE).get(_ALLDIFF, ()) for l in g.objects(d, members_of))
        cells.extend(cell for a, _, _ in delta.by_predicate.get(_SA, ()) for cell in g.subjects(_FIRST, a))
        for d, l, members in _expressions(g, members_of, cells):
            if g.contains_ids((d, _TYPE, _ALLDIFF)):
                members.sort(key=lambda m: sort_key(g.term(m)))
                for i, a in enumerate(members):
                    for b in members[i:]:
                        if g.contains_ids(t := (a, _SA, b)):
                            yield None, "owl-alldifferent", ((d, members_of, l), t)


# The OWL table in the order the fixpoint runs it, with the OWL 2 RL rule each row transcribes.
# eq-sym, eq-trans and eq-rep-s/p/o are the rewriting to representatives (`_Equality`).
OWL_RULES = RDFS_RULES + [
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
    # on representatives (x sameAs y) is there when x = y has a class of two or more or was stated, or y is a literal
    Row("owl-sameas-differentfrom", None, ("x", vocab.OWL_DIFFERENTFROM, "y"), ("x", _SA, "y")),  # eq-diff1
    _r_alldifferent,  # eq-diff2, eq-diff3
    Row("owl-nothing-member", None, ("x", _TYPE, vocab.OWL_NOTHING)),  # cls-nothing2
]


# ---------------------------------------------------------------------------
# sameAs classes
# ---------------------------------------------------------------------------

_VOCABULARY = len(vocab.RULE_TERMS)  # ids below this are the rules' vocabulary


class _Equality:
    """The owl:sameAs classes of the non-literal terms of one graph, a union-find over its ids.

    `reps` maps each member of a class of two or more to the class's
    representative, and `members` maps the representative to the whole
    class in `sort_key` order; any other term is its own class.  The
    representative is the class's rule-vocabulary IRI, as the rules name
    those ids, or else its first member (`canonical`).  A copy shares both
    maps and their lists until one side merges, which builds new ones.

    The graph that holds the equality (`Graph.equality`) holds
    representatives only: `absorb` merges the classes a round's delta
    joins and rewrites every triple that mentions a merged-away
    representative.  An `Overlay` cannot drop a triple of its lower layer,
    so after such a merge it is `stale`: the old form stays below the new
    one, and `absorb` rewrites what the rules derive from it.
    """

    def __init__(self):
        self.reps: dict[int, int] = {}
        self.members: dict[int, list[int]] = {}
        self.stale = False
        self._shared = False

    def copy(self) -> "_Equality":
        other = _Equality()
        other.reps, other.members, other.stale = self.reps, self.members, self.stale
        self._shared = other._shared = True
        return other

    def find(self, tid: int) -> int:
        return self.reps.get(tid, tid)

    def map(self, t: IdTriple) -> IdTriple:
        get = self.reps.get
        return (get(t[0], t[0]), get(t[1], t[1]), get(t[2], t[2]))

    def members_of(self, rep: int) -> list[int] | tuple[int]:
        return self.members.get(rep) or (rep,)

    def canonical(self, tid: int) -> int:
        """The `sort_key`-least member of the class of a term, by id."""
        return self.members_of(self.find(tid))[0]

    def absorb(self, work: Graph | Overlay, delta: Delta) -> Delta:
        """The round's delta in representatives, after merging the classes its sameAs triples join.

        Every triple of `work` that mentions a merged-away representative
        is replaced by its representative form, which joins the delta when
        it is new.  A rewritten triple can be a new equality, when its
        predicate was merged into owl:sameAs, and merges in turn.
        """
        term = work.term

        def equalities(triples: Iterable[IdTriple]) -> list[tuple[int, int]]:
            return [(a, b) for a, p, b in triples if p == _SA and a != b and not isinstance(term(b), Literal)]

        pairs, remap, kept = equalities(delta.by_predicate.get(_SA, ())), self.stale, None
        while (moved := self._merge(work, pairs) if pairs else ()) or remap:
            old = set()
            for a in moved:
                old.update(work.match_ids(a, None, None))
                old.update(work.match_ids(None, a, None))
                old.update(work.match_ids(None, None, a))
            kept = list(delta) if kept is None else kept
            if remap:  # what the rules derived from the old forms left below
                old.update(t for t in kept if self.map(t) != t)
                remap = False
            kept = [t for t in kept if t not in old]
            for t in old:
                if not work._remove_ids(t):
                    self.stale = True
            rewritten = [t for t in map(self.map, old) if work.insert_ids(t)]
            kept += rewritten
            pairs = equalities(rewritten)
        return delta if kept is None else Delta(kept)

    def _merge(self, work: Graph | Overlay, pairs: list[tuple[int, int]]) -> list[int]:
        """Join the classes of each pair; returns the representatives merged away."""
        parent: dict[int, int] = {}  # a union-find over this call's representatives

        def root(x: int) -> int:
            while (up := parent.get(x, x)) != x:
                parent[x] = parent.get(up, up)
                x = up
            return x

        for a, b in pairs:
            ra, rb = root(self.find(a)), root(self.find(b))
            if ra != rb:
                parent[ra] = rb
        groups: dict[int, list[int]] = {}
        for r in parent:
            groups.setdefault(root(r), []).append(r)
        if self._shared:
            self.reps, self.members, self._shared = dict(self.reps), dict(self.members), False
        key = lambda m: sort_key(work.term(m))  # noqa: E731
        moved = []
        for root_, group in groups.items():
            group.append(root_)
            if len(named := sorted(work.term(r).value for r in group if r < _VOCABULARY)) > 1:
                raise ValidationError(f"owl:sameAs between <{named[0]}> and <{named[1]}>: the rules name both")
            merged = list(heapq.merge(*map(self.members_of, group), key=key))  # each class is in canonical order
            rep = min(group) if named else merged[0]
            for r in group:
                if r != rep:
                    for m in self.members_of(r):
                        self.reps[m] = rep
                    self.members.pop(r, None)
                    moved.append(r)
            self.members[rep] = merged
        return moved


def _expand_violations(found: IdViolations, equality: _Equality, term) -> IdViolations:
    """Each violation found on representatives once per choice of a class member for each variable of its rule.

    The premises of each come out sorted, each once; an AllDifferent pair
    keeps only members a < b in canonical term order.
    """
    out = set()
    for name, premises in found:
        atoms, ordered = _VIOLATION_FORMS[name]
        binding = {x: tid for atom, t in zip(atoms, premises) for x, tid in zip(atom, t) if isinstance(x, str)}
        names = list(binding)
        classes = [equality.members_of(equality.find(binding[x])) for x in names]
        for choice in product(*classes):
            b = dict(zip(names, choice))
            if ordered and not sort_key(term(b[ordered[0]])) < sort_key(term(b[ordered[1]])):
                continue
            ts = {tuple(b[x] if isinstance(x, str) else tid for x, tid in zip(atom, t)) for atom, t in zip(atoms, premises)}
            out.add((name, tuple(sorted(ts))))
    return out


# each violation rule's premises as atoms, and the pair of variables whose members must be in canonical order
_VIOLATION_FORMS = {rule.name: (rule.body, None) for rule in OWL_RULES if isinstance(rule, Row) and rule.head is None}
_VIOLATION_FORMS["owl-alldifferent"] = ((("d", None, "l"), ("a", _SA, "b")), ("a", "b"))


# ---------------------------------------------------------------------------
# The OWL closure
# ---------------------------------------------------------------------------


class OwlClosure(Closure):
    """An OWL closure: `work` holds one representative per sameAs class, and `work.equality` the classes.

    Membership, `mentions` and the `partition` read the classes; `graph`,
    `report` and `_copies` (which `Closure.derived` and `provenance` read)
    expand `work` over them.  Changing the expanded `graph` drops the
    closure from the base's cache, as an RDFS closure's does.
    """

    @classmethod
    def _prepare(cls, work: Graph) -> None:
        work.equality = _Equality()

    def _changed(self) -> bool:
        expanded = self.__dict__.get("graph")
        return super()._changed() or (expanded is not None and expanded.version != self._expanded_version)

    def mentions(self, term: Term) -> bool:
        """True when the expanded graph mentions the term: when `work` mentions its representative."""
        tid = self.work.lookup(term)
        return tid is not None and self.work.mentions(self.work.term(self.work.equality.find(tid)))

    def __contains__(self, triple: Triple) -> bool:
        ids = self.work._pattern_ids((triple.subject, triple.predicate, triple.object))
        return ids is not None and self.work.contains_ids(self.work.equality.map(tuple(ids)))

    def _copies(self) -> Iterator[tuple[IdTriple, IdTriple]]:
        """(t, r) for every triple t of the expanded graph, r being its representative form in `work`.

        A predicate is replaced by the IRIs of its class only.
        """
        members, term = self.work.equality.members, self.work.term
        for r in self.work._triples:
            s, p, o = r
            cs, cp, co = members.get(s), members.get(p), members.get(o)
            if cs is None and cp is None and co is None:
                yield r, r
                continue
            ps = (p,) if cp is None else [m for m in cp if isinstance(term(m), IRI)]
            for s2 in cs or (s,):
                for p2 in ps:
                    for o2 in co or (o,):
                        yield (s2, p2, o2), r

    @cached_property
    def graph(self) -> Graph:
        g = Graph()
        g._term_to_id, g._id_to_term = dict(self.work._term_to_id), list(self.work._id_to_term)
        for t, _ in self._copies():
            g.insert_ids(t)
        self._expanded_version = g.version
        return g

    def _copy_derivation(self, t: IdTriple, r: IdTriple) -> tuple[str, tuple[int, ...]]:
        """A one-step derivation of t, an expanded copy that no rule derived, from other triples of the expanded graph.

        When t differs from its representative form r, its first differing
        position is rewritten from r's member there by substitution, or, when
        t is that equality, (r sameAs m), it follows by symmetry from
        (m sameAs r).  r itself is rewritten from the copy that has another
        member in the first position whose class has one.
        """
        if t == r:
            members, term = self.work.equality.members, self.work.term
            i, m = next((i, m) for i in range(3) for m in members.get(r[i], ())
                        if m != r[i] and (i != 1 or isinstance(term(m), IRI)))
            src, equal = r[:i] + (m,) + r[i + 1 :], (m, _SA, r[i])
        else:
            i = next(i for i in range(3) if t[i] != r[i])
            src, equal = t[:i] + (r[i],) + t[i + 1 :], (r[i], _SA, t[i])
            if equal == t:
                return "owl-sameas-symmetry", (t[2], _SA, t[0])
        return "owl-sameas-substitution", equal if src == equal else equal + src

    @cached_property
    def report(self) -> InconsistencyReport:
        return _report(self.work, _expand_violations(self.violations, self.work.equality, self.work.term))


# ---------------------------------------------------------------------------
# Saturation and the reasoning tasks
# ---------------------------------------------------------------------------


def saturate_owl(graph: Graph) -> tuple[OwlClosure, InconsistencyReport]:
    """OWL closure of the graph plus the violations found in it, cached on the graph (see `rdfs._saturate`)."""
    closure = _saturate(graph, "owl", OWL_RULES, OwlClosure)
    return closure, closure.report


def _consistent_closure(graph: Graph) -> OwlClosure:
    """The OWL closure of a KB that reasoning tasks require to be consistent."""
    closure, report = saturate_owl(graph)
    if report:
        raise InconsistentKBError(report)
    return closure


def _breaks(closure: OwlClosure, triple: Triple) -> InconsistencyReport:
    """Violations of the closure plus one triple, resuming the fixpoint from that triple on an overlay.

    The overlay and its copy of the classes leave the closure as it is, so
    probes need no copy of the graph and no lock.
    """
    work = Overlay(closure.work)
    equality = work.equality
    t = equality.map((work.intern(triple.subject), work.intern(triple.predicate), work.intern(triple.object)))
    work.insert_ids(t)
    _, found = _fixpoint(work, OWL_RULES, [t])
    return _report(work, _expand_violations(closure.violations | found, equality, work.term))


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
    if assertion in closure:
        return InstanceCheck.ENTAILED
    if _breaks(closure, assertion):
        return InstanceCheck.INCONSISTENT_IF_ASSERTED
    return InstanceCheck.NOT_ENTAILED


def retrieve_instances(graph: Graph, cls: Term) -> set[Term]:
    """All derived members of a class, canonicalized to sameAs representatives."""
    closure = _consistent_closure(graph)
    g = closure.work
    tid, equality = g.lookup(cls), g.equality
    return set() if tid is None else {g.term(equality.canonical(x)) for x in g.subjects(_TYPE, equality.find(tid))}


def realize(graph: Graph, individual: Term) -> set[Term]:
    """Most specific derived named classes of an individual.

    Among the individual's derived IRI classes, keeps those with no
    strictly more specific competitor; equivalent classes tie and are
    all returned.  Read on representatives, each kept class stands for
    the IRIs of its sameAs class.
    """
    closure = _consistent_closure(graph)
    g, tid = closure.work, closure.work.lookup(individual)
    if tid is None:
        return set()
    types = {c for c in g.objects(g.equality.find(tid), _TYPE) if isinstance(g.term(c), IRI)}
    # c is kept when each other type below it is equivalent to it
    kept = [c for c in types if all(c in g.subjects(_SCO, d) for d in types & g.subjects(_SCO, c) if d != c)]
    return {g.term(m) for c in kept for m in g.equality.members_of(c) if isinstance(g.term(m), IRI)}


def subsumes(graph: Graph, class_d: Term, class_c: Term) -> bool:
    """True iff membership in class_c implies membership in class_d.

    Reads subsumption off the closure's subClassOf edges, reflexively
    for classes the graph mentions.
    """
    closure, _ = saturate_owl(graph)
    if class_c == class_d:
        return closure.mentions(class_c)
    return Triple(class_c, vocab.RDFS_SUBCLASSOF, class_d) in closure


def is_satisfiable(graph: Graph, cls: Term) -> bool:
    """Probe with a fresh individual: can the class have a member at all?

    Sound and complete only relative to the implemented rule fragment.
    """
    closure = _consistent_closure(graph)
    n = 0
    while closure.work.lookup(BlankNode(f"satprobe{n}")) is not None:
        n += 1
    return not _breaks(closure, Triple(BlankNode(f"satprobe{n}"), vocab.RDF_TYPE, cls))
