"""Forward-chaining RDFS saturation, and the rule table both profiles are written in.

A rule is a `Row`: a head atom and body atoms in OWL 2 RL notation whose
slots are variable names or vocabulary IRIs, such as cax-sco's
`(x type b) <- (a subClassOf b), (x type a)`.  On its first call a row
compiles itself into one Python function with one semi-naive branch per
body atom: that atom reads the round's delta, the atoms before it skip
delta triples, the atoms after it read the whole graph, and a head
already in the graph is not yielded; a row whose head is `false` (cax-dw:
`false <- (c disjointWith d), (x type c), (x type d)`) yields each
premise set as a violation.  A branch reads its delta atom at the levels
`Delta` groups it by: by predicate, then by object when the object is a
constant or another atom waits for it, then the subjects of that object,
or else triple by triple.  Every other atom is joined at the first level
that binds what it needs, through `contains_ids`, `objects`, `subjects`
or `pairs`, and the last enumeration is filtered in C by `lacking` when
it binds only the head's subject.  A schema entry is so read once per
round and predicate or class, not once per delta triple, and a row
returns at once while some predicate its body names has no triple at
all.  An IRI is compiled as its id, which is the same in every graph
(`vocab.RULE_TERMS`), so no rule looks a term up.

The OWL profile runs the same fixpoint on a graph rewritten to owl:sameAs
representatives (`Graph.equality`, see `owl`): each round first merges
the classes that its delta's sameAs triples join and rewrites what
mentions a merged-away representative, so every rule reads one member
per class.  The RDFS profile has no equality and maps nothing.

Resume invariant: every rule yields every consequence (and violation)
that has at least one premise in the delta and is not yet in the graph,
with its rule name and premises.  Rules only add triples, so a closed
graph takes new triples by running the same loop from a delta of just
those triples; the closure is the least fixpoint, and finite, as rules
only combine existing terms.  The fixpoint keeps no premise past its
round: `Closure.provenance` saturates the base once more when it is read,
recording each new triple's first candidate.

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
from functools import cached_property
from itertools import filterfalse, islice
from typing import Callable, Iterable, Iterator

from . import vocab
from .errors import ValidationError
from .graph import Graph, IdTriple, Overlay
from .terms import IRI, Literal, Term, Triple, triple_sort_key


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


IdViolations = set[tuple[str, tuple[IdTriple, ...]]]  # (rule name, its premises in the rule's body order)


def _report(g: Graph | Overlay, found: Iterable[tuple[str, Iterable[IdTriple]]]) -> InconsistencyReport:
    """The violations `found` in `g`, in terms, each premise once, sorted by rule and premises."""
    found = {(rule, frozenset(ts)) for rule, ts in found}
    violations = [Violation(rule, tuple(sorted(map(g._to_triple, ts), key=triple_sort_key))) for rule, ts in found]
    violations.sort(key=lambda v: (v.rule, tuple(triple_sort_key(t) for t in v.triples)))
    return InconsistencyReport(tuple(violations))


class EqualityPartition:
    """The owl:sameAs classes of an OWL closure, a view of the union-find of its graph of representatives.

    Only non-literal terms take part.  Each class is represented by its
    canonically smallest member, which makes canonicalization stable under
    any input permutation.
    """

    def __init__(self, graph: Graph):
        self._graph = graph

    def representative_id(self, tid: int) -> int:
        """`representative` on the graph's ids."""
        return self._graph.equality.canonical(tid)

    def representative(self, term: Term) -> Term:
        tid = self._graph.lookup(term)
        return term if tid is None else self._graph.term(self.representative_id(tid))


class Delta(dict):
    """One round's delta: each new id triple -> the rule that found it first, grouped for the rules.

    `_fixpoint` fills one during a round and hands that same dict to the
    next round; `Delta(triples)` starts one, with None for each rule.  The
    groupings are built on first use and shared by every rule of the
    round; they hold the delta's own triples, so grouping builds no tuple.
    The triples keep the order they arrived in, and nothing sorts them.
    """

    def __init__(self, triples: Iterable[IdTriple] = ()):
        super().__init__(dict.fromkeys(triples))
        self._by_object: dict[int, dict[int, list[int]]] = {}

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

    def by_object(self, p: int) -> dict[int, list[int]]:
        """o -> the s of the delta's triples (s, p, o) in delta order, for one predicate p.

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
# leave out a consequence that is already in the graph.  A violation has None for the triple.
Rule = Callable[[Graph | Overlay, Delta], Iterator[tuple[IdTriple | None, str, tuple[IdTriple, ...]]]]


Slot = str | IRI | int  # a variable name, or a vocabulary IRI or its id
Atom = tuple[Slot, Slot, Slot]


def _vars(atom: Atom) -> set[str]:
    return {x for x in atom if isinstance(x, str)}


def _show(atom: Atom) -> str:
    return "(" + " ".join(x if isinstance(x, str) else vocab.RULE_TERMS[x].value.rsplit("#", 1)[-1] for x in atom) + ")"


class Row:
    """One rule of the table: a head atom, or None for `false`, and body atoms, as in the OWL 2 RL rule tables.

    A slot is a variable name, or an IRI of `vocab.RULE_TERMS` or its id;
    the row stores the id.  `distinct` names two variables that must bind
    different ids, `nonliteral` one that must not bind a literal.  A row is
    a `Rule`: on its first call it writes `source`, one Python function
    with a semi-naive branch per body atom, and compiles it, so importing
    the table compiles nothing.  A branch reads the delta by predicate, by
    object or triple by triple, and joins every other atom through
    `contains_ids`, `objects`, `subjects` or `pairs`.  A row the compiler
    cannot evaluate raises ValueError naming it when it is built.
    """

    def __init__(self, name: str, head: Atom | None, *body: Atom, distinct: tuple[str, str] | None = None, nonliteral: str = ""):
        ids = vocab.RULE_IDS
        if unknown := [x for atom in (*body, head or ()) for x in atom if not isinstance(x, (str, int)) and x not in ids]:
            raise ValueError(f"row {name!r}: {unknown[0]!r} is not in the rule vocabulary")
        head, body = head and tuple(ids.get(x, x) for x in head), tuple(tuple(ids.get(x, x) for x in atom) for atom in body)
        self.name, self.head, self.body = name, head, body
        self.guards = [(set(distinct), "v_{} != v_{}".format(*distinct))] if distinct else []
        if nonliteral:
            self.guards.append(({nonliteral}, f"not isinstance(g.term(v_{nonliteral}), Literal)"))
        for atom in body:
            if not isinstance(atom[0], str) or len(_vars(atom)) < sum(isinstance(x, str) for x in atom):
                raise ValueError(f"row {name!r}: {_show(atom)} has a constant subject or a repeated variable")
            p = atom[1]  # no accessor enumerates an unbound predicate
            if isinstance(p, str) and not any(p in (other[0], other[2]) for other in body if other is not atom):
                raise ValueError(f"row {name!r}: no other atom binds the predicate variable {p!r} of {_show(atom)}")
        if head and not _vars(head) <= set().union(*map(_vars, body)):
            raise ValueError(f"row {name!r}: a head variable is not bound by the body")
        self._rule = None

    def __repr__(self) -> str:
        return f"<Row {self.name}: {_show(self.head) if self.head else 'false'} <- {', '.join(map(_show, self.body))}>"

    def __call__(self, g: Graph | Overlay, delta: Delta) -> Iterator[tuple[IdTriple | None, str, tuple[IdTriple, ...]]]:
        if self._rule is None:
            namespace = {"Literal": Literal}
            exec(compile(self.source, f"<rule {self.name}>", "exec"), namespace)
            self._rule = namespace["rule"]
        return self._rule(g, delta)

    @cached_property
    def source(self) -> str:
        """The Python source of the row's rule function."""
        code = [line for i in range(len(self.body)) for line in self._branch(i)]
        lines = ["def rule(g, delta):"]
        if named := sorted({p for _, p, _ in self.body if not isinstance(p, str)}):
            lines += [f"    if not ({' and '.join(f'g.has_predicate({p})' for p in named)}):", "        return"]
        lines.append("    by_p = delta.by_predicate")
        if any("contains(" in line for line in code):
            lines.append("    contains = g.contains_ids")
        return "\n".join(lines + code) + "\n"

    def _branch(self, i: int) -> list[str]:
        """The lines of the branch in which body atom i reads the delta."""
        body, head = self.body, self.head
        ds, dp, do = body[i]
        from_delta = _vars(body[i])
        left = [j for j in range(len(body)) if j != i]
        guards = list(self.guards)
        bound: set[str] = set()
        lines, depth = [f"    # {_show(body[i])} from the delta"], 1
        innermost: tuple = ()  # the innermost loop: (line, target, iterable, key, variables bound before it, depth)

        def c(x: Slot) -> str:
            return f"v_{x}" if isinstance(x, str) else str(x)

        def known(x: Slot, among: set[str] = bound) -> bool:
            return not isinstance(x, str) or x in among

        def triple(atom: Atom) -> str:
            return "({}, {}, {})".format(*map(c, atom))

        def emit(line: str, opens: bool = False) -> None:
            nonlocal depth
            lines.append("    " * depth + line)
            depth += opens

        def loop(target: str, iterable: str, key: Slot | None = None) -> None:
            nonlocal innermost
            innermost = (len(lines), target, iterable, key, set(bound), depth)
            emit(f"for {target} in {iterable}:", True)

        def bind(*names: Slot) -> None:
            bound.update(x for x in names if isinstance(x, str))
            for guard in [guard for guard in guards if guard[0] <= bound]:
                guards.remove(guard)
                emit(f"if {guard[1]}:", True)

        def join(j: int) -> None:
            """Join atom j through the accessor its bound slots allow; an atom before atom i skips delta triples."""
            left.remove(j)
            s, p, o = atom = body[j]
            not_new = f"{triple(atom)} not in delta" if j < i else ""
            if known(s) and known(o):
                return emit(f"if contains({triple(atom)}){' and ' * bool(not_new)}{not_new}:", True)
            if known(s):
                loop(c(o), f"g.objects({c(s)}, {c(p)})", o)
            elif known(o):
                loop(c(s), f"g.subjects({c(p)}, {c(o)})", s)
            else:
                loop(f"{c(s)}, {c(o)}", f"g.pairs({c(p)})")
            bind(s, o)
            if not_new:
                emit(f"if {not_new}:", True)

        def join_ready(last_level: bool) -> None:
            """Join each atom whose predicate and delta variables are bound and, before the last level, its subject or object."""
            while ready := [
                (-known(s) - known(o), j)
                for j in left
                for s, p, o in [body[j]]
                if known(p) and _vars(body[j]) & from_delta <= bound and (last_level or known(s) or known(o))
            ]:
                join(min(ready)[1])
            if last_level and left:
                raise ValueError(f"row {self.name!r}: nothing binds the predicate of {_show(body[left[0]])}")

        # level 1: the delta's triples with the atom's predicate
        if isinstance(dp, str):
            loop(f"{c(dp)}, ts", "by_p.items()")
            bind(dp)
        else:
            emit(f"ts = by_p.get({c(dp)})")
            emit("if ts:", True)
        join_ready(False)
        # level 2: grouped by object, when the object is a constant or another atom waits for it
        waits = any(do in _vars(body[j]) and known(body[j][1]) and _vars(body[j]) & from_delta <= bound | {do} for j in left)
        if not isinstance(do, str):
            emit(f"ss = delta.by_object({c(dp)}).get({c(do)})")
            emit("if ss:", True)
        elif waits:
            loop(f"{c(do)}, ss", f"delta.by_object({c(dp)}).items()")
            bind(do)
            join_ready(False)
        # level 3: the subjects of that object, or else triple by triple
        if not isinstance(do, str) or waits:
            loop(c(ds), "ss", ds)
        else:
            loop(f"{c(ds)}, _, {c(do)}", "ts")
        bind(ds, do)
        join_ready(True)

        # the head: `false` yields None; the last enumeration goes through `lacking` when it binds only the head's subject
        at, target, iterable, key, before, d = innermost
        if head is None:
            new = "None"
        elif key == head[0] and known(head[1], before) and known(head[2], before):
            lines[at] = "    " * d + f"for {target} in g.lacking({iterable}, {c(head[1])}, {c(head[2])}):"
            new = triple(head)
        else:
            emit(f"if not contains(h := {triple(head)}):", True)
            new = "h"
        emit(f"yield {new}, {self.name!r}, ({''.join(triple(atom) + ', ' for atom in body)})")
        return lines


_TYPE, _SCO, _SPO = vocab.RDF_TYPE, vocab.RDFS_SUBCLASSOF, vocab.RDFS_SUBPROPERTYOF

# The RDFS table, with the OWL 2 RL rule each row transcribes.
RDFS_RULES: list[Rule] = [
    Row("rdfs-subclass-transitivity", ("a", _SCO, "c"), ("a", _SCO, "b"), ("b", _SCO, "c")),  # scm-sco
    Row("rdfs-type-propagation", ("x", _TYPE, "b"), ("a", _SCO, "b"), ("x", _TYPE, "a")),  # cax-sco
    Row("rdfs-subproperty-transitivity", ("p", _SPO, "r"), ("p", _SPO, "q"), ("q", _SPO, "r")),  # scm-spo
    Row("rdfs-subproperty-propagation", ("x", "q", "y"), ("p", _SPO, "q"), ("x", "p", "y")),  # prp-spo1
    Row("rdfs-domain", ("x", _TYPE, "c"), ("p", vocab.RDFS_DOMAIN, "c"), ("x", "p", "y")),  # prp-dom
    Row("rdfs-range", ("y", _TYPE, "c"), ("p", vocab.RDFS_RANGE, "c"), ("x", "p", "y")),  # prp-rng
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


def _fixpoint(work: Graph | Overlay, rules: Iterable[Rule], delta: Iterable[IdTriple]) -> IdViolations:
    """Saturate `work` in place, starting from `delta`; returns the violations it found.

    Requires `delta` to be in `work` and the rest of `work` to be closed under `rules`.
    Each round hands every rule the same `Delta`, after `work.equality`,
    when there is one, has merged the sameAs classes the delta joins and
    rewritten the delta to representatives.  A candidate already in
    `work` or found earlier in the round is dropped, and so is one that is
    not an RDF 1.1 triple: a literal subject or a predicate that is not an
    IRI.  A round's new triples are inserted together, and the `Delta`
    they fill, in the order the rules found them, is the next round's
    delta.  Of a derived triple the fixpoint keeps only its rule's name,
    and only for the round (for the `new` counts of `FixpointStats`); a
    violation keeps its premises in its rule's body order.
    """
    runs = _recording.get()
    stats = None
    if runs is not None:
        stats = FixpointStats()
        runs.append(stats)
    contains, term = work.contains_ids, work.term
    equality = work.equality
    violations: IdViolations = set()
    delta = Delta(delta)
    while delta:
        if equality is not None:
            delta = equality.absorb(work, delta)
        fresh = Delta()
        for rule in rules:
            candidates = rule(work, delta)
            if stats is not None:
                candidates = stats.counted(candidates)
            for t, name, premises in candidates:
                if t is None:
                    violations.add((name, premises))
                elif t not in fresh and not contains(t) and type(term(t[1])) is IRI and type(term(t[0])) is not Literal:
                    fresh[t] = name
        if stats is not None:
            stats.deltas.append(len(delta))
            stats.new.update(fresh.values())
        delta = fresh  # drops this round's groupings before the graph grows
        for t in fresh:
            work.insert_ids(t)
    return violations


@dataclass
class Closure:
    """A saturated graph and the violations found in it, under the `rules` of its `profile`.

    `work` is the graph the fixpoint closed, in the base's term ids, and `graph`
    is `work` here; `owl.OwlClosure` keeps `work` in sameAs representatives and
    expands it into `graph` on first access.  `derived`, `provenance` and
    `report` are built on first access; `_copies`, which lists the triples of
    `graph` in ids of `work`, is the one listing that `graph`, `derived`,
    `provenance` and `kgkit infer` read.  The sameAs `partition` is a view of
    `work.equality`, which only an OWL closure has.  No premise is
    stored: `provenance` saturates the base again when it is first read.  A
    closure that `saturate_rdfs` or `saturate_owl` returned is a snapshot:
    kgkit never changes it, and a later saturation of the grown base builds a
    new one.
    """

    profile, rules = "rdfs", RDFS_RULES  # the key of the base's closure cache, and the rules the fixpoint runs

    base: Graph
    work: Graph
    violations: IdViolations = field(default_factory=set)

    def __post_init__(self):
        self._versions = (self.base.version, self.work.version, len(self.work._id_to_term))  # what saturation closed

    @classmethod
    def _prepare(cls, work: Graph) -> None:
        """Set up a copy of the base before its first fixpoint; an RDFS closure needs nothing."""

    def _changed(self) -> bool:
        """True once a caller has changed the graph this closure handed out: its triples or its dictionary."""
        return (self.work.version, len(self.work._id_to_term)) != self._versions[1:]

    @property
    def graph(self) -> Graph:
        return self.work

    @cached_property
    def report(self) -> InconsistencyReport:
        return _report(self.graph, self.violations)

    def _copies(self) -> Iterable[IdTriple]:
        """The triples of `graph`, in ids of `work`: `work`'s own, as RDFS has no sameAs classes."""
        return self.work._triples

    @cached_property
    def _asserted(self) -> set[IdTriple]:
        """The base's triples when it was saturated: ids of `work` too, as it gives every base term the base's id."""
        return set(islice(self.base._triples, self._versions[0]))

    @cached_property
    def _derived_ids(self) -> list[IdTriple]:
        """The triples of `graph` that the base did not assert, in `_copies` order."""
        return list(filterfalse(self._asserted.__contains__, self._copies()))

    @cached_property
    def derived(self) -> frozenset[Triple]:
        return frozenset(map(self.work._to_triple, self._derived_ids))

    @cached_property
    def provenance(self) -> dict[Triple, Derivation]:
        """Each derived triple's rule and premises, found by saturating the base once more.

        That run closes the triples the base held when this closure was made,
        in this closure's dictionary, with a recording copy of each rule, and a
        triple takes the first candidate any rule yields for it.  So the answer
        depends on those triples alone, not on the resumes that built the closure.
        """
        # each head -> the rule name and premises of its first candidate
        first: dict[IdTriple | None, tuple[str, tuple[IdTriple, ...]]] = {}

        def recorded(rule: Rule) -> Rule:
            def run(g: Graph | Overlay, delta: Delta):
                for t, name, premises in rule(g, delta):
                    first.setdefault(t, (name, premises))
                    yield t, name, premises
            return run

        work = Graph()
        work._term_to_id, work._id_to_term = self.work._term_to_id, self.work._id_to_term  # shared: a fixpoint interns no term
        for t in islice(self.base._triples, self._versions[0]):
            work.insert_ids(t)
        self._prepare(work)
        _fixpoint(work, [recorded(rule) for rule in self.rules], work._triples)
        to_triple = self.work._to_triple
        # only an expanded OWL copy that no rule derived has no candidate
        derivations = ((t, first.get(t) or self._copy_derivation(t)) for t in self._derived_ids)
        return {to_triple(t): Derivation(name, tuple(map(to_triple, premises))) for t, (name, premises) in derivations}

    @cached_property
    def partition(self) -> EqualityPartition:
        """The owl:sameAs classes of the closed graph, each represented by its first member; only an OWL closure has them."""
        if self.work.equality is None:  # RDFS makes sameAs neither symmetric nor transitive
            raise ValidationError(f"the sameAs partition needs an OWL closure, got a {self.profile!r} one")
        return EqualityPartition(self.work)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.graph


def _saturate(graph: Graph, kind: type[Closure]) -> Closure:
    """The closure of `graph` under the rules of `kind`, cached on the graph per profile.

    The cached closure is returned while neither the graph nor the
    closure's graph has changed since it was made.  When only the graph
    has grown, the fixpoint resumes from the new triples on a copy of the
    cached closure, so a closure once returned never changes.  Any change
    to the closure's graph, a triple or a term, drops it, and the graph is
    saturated afresh.  `work` gives every term of the graph the graph's id,
    as a resume first appends the terms interned since, in order.
    """
    closure = graph._closures.get(kind.profile)
    if closure is None or closure._changed():
        work = graph.copy()
        kind._prepare(work)
        violations = _fixpoint(work, kind.rules, work._triples)
    elif closure._versions[0] == graph.version:
        return closure
    else:
        work = closure.work.copy()
        for term in graph._id_to_term[len(work._id_to_term) :]:  # the terms the graph interned since, in order
            work.intern(term)
        added = islice(graph._triples, closure._versions[0], None)  # the triples added since the closure
        delta = [r for r in (added if work.equality is None else map(work.equality.map, added)) if work.insert_ids(r)]
        violations = closure.violations | _fixpoint(work, kind.rules, delta)  # the copy keeps the closure's ids
    closure = graph._closures[kind.profile] = kind(graph, work, violations)
    return closure


def saturate_rdfs(graph: Graph) -> Closure:
    """Least fixpoint of the RDFS rule set over the graph, cached on it (see `_saturate`)."""
    return _saturate(graph, Closure)


def entails(graph: Graph, triple: Triple) -> bool:
    """True iff the triple is derivable: it is in the saturated graph.

    Sound and complete with respect to the rule set; rule derivability
    stands in for model-theoretic consequence.
    """
    return triple in saturate_rdfs(graph).graph
