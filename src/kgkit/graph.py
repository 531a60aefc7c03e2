"""Dictionary-encoded triple store with SPO and POS positional indexes.

Terms are interned into integer ids (a bijective dictionary) and triples
are kept as id tuples in an insertion-ordered dict used as a set, plus
two nested-dict indexes.  A pattern that binds its subject or predicate
is one index probe; a pattern that binds only its object walks the
predicates of POS.  The fixpoint's rules read the index sets directly
through small id accessors (`objects`, `subjects`, `pairs`, `lacking`),
which `Overlay` answers from both of its layers.  Mutation is
single-writer; readers should work on a `copy()` when the original may
still change.  A copy is copy-on-write: it and its original share their
index entries (each subject's SPO entry and each POS set) until one side
writes to an entry, and that side copies the entry first.  Each graph
records the entries it owns since its last copy; a graph never copied
owns them all and inserts as if no copy existed.

On the read path terms become ids once, at the edge: `_pattern_ids`
looks a pattern's constants up for `contains`, `match_terms`, `match`,
`cardinality` and the query planner, and everything after it (matching,
counting, joins, the sameAs classes, retrieval and realization) runs
on ids until the answers are turned back into terms.  Every dictionary
starts with the rules' vocabulary, so `vocab.RULE_TERMS[i]` has id i in
every graph, mentioned or not; what a graph mentions is read off its indexes.
A closure's graph gives every term of its base the base's id (`rdfs._saturate`).

Triples are never removed, so a graph's `version`, its number of
triples, names its state, and the triples after the first v are those
added since version v.  Saturation caches its closures on the graph by
version (`rdfs._saturate`).  The one exception is the graph an OWL
fixpoint rewrites to sameAs representatives (`equality`, see `owl`),
which no caller is handed: it drops a triple once its representative
form replaces it (`_remove_ids`).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import filterfalse
from typing import AbstractSet, Callable, Iterable, Iterator

from . import vocab
from .errors import ValidationError
from .terms import IRI, BlankNode, Literal, Term, Triple, TriplePattern, Var, sort_key, triple_sort_key

Binding = dict[str, Term]

IdTriple = tuple[int, int, int]

_NO_INDEX: dict = {}  # the index entry of an absent key; never written
_NONE: frozenset[int] = frozenset()


class Graph:
    """A deduplicated set of triples over an interned term dictionary."""

    equality = None  # the sameAs classes of a graph rewritten to their representatives, kept only here (`owl._Equality`)

    def __init__(self, base: str | None = None):
        self.base = base
        self._term_to_id: dict[Term, int] = dict(vocab.RULE_IDS)
        self._id_to_term: list[Term] = list(vocab.RULE_TERMS)
        self._triples: dict[IdTriple, None] = {}  # insertion order: see `version`
        self._spo: dict[int, dict[int, set[int]]] = {}
        self._pos: dict[int, dict[int, set[int]]] = {}
        # what this graph owns of its index entries since its last `copy`: the
        # subjects of its SPO entries, and for each predicate the objects of its
        # POS sets; None owns every entry, as no copy shares one
        self._owned: set[int] | None = None
        self._owned_pos: defaultdict[int, set[int]] | None = None
        self._closures: dict[str, "Closure"] = {}  # profile -> the closure of the graph at some version (`rdfs._saturate`)

    # -- dictionary ----------------------------------------------------

    def _resolve(self, iri: IRI) -> IRI:
        if iri.is_absolute():
            return iri
        if self.base is None:
            raise ValidationError(f"relative IRI {iri.value!r} and no base IRI is declared")
        if self.base.endswith("#"):
            return IRI(self.base + iri.value)
        from urllib.parse import urljoin  # loaded only by a graph with a base IRI

        return IRI(urljoin(self.base, iri.value))

    def intern(self, term: Term) -> int:
        """Return the id of `term`, assigning a fresh one on first sight.

        Relative IRIs are resolved against the graph's base IRI; with no
        base they are rejected.  Only resolved terms are stored, so a term
        found in the dictionary needs no resolving.
        """
        try:
            tid = self._term_to_id.get(term)
        except TypeError:  # unhashable: not a term
            tid = None
        if tid is not None:
            return tid
        if isinstance(term, IRI):
            term = self._resolve(term)
            tid = self._term_to_id.get(term)  # a relative IRI may resolve to a known one
            if tid is not None:
                return tid
        elif not isinstance(term, (BlankNode, Literal)):
            raise ValidationError(f"not an RDF term: {term!r}")
        tid = len(self._id_to_term)
        self._term_to_id[term] = tid
        self._id_to_term.append(term)
        return tid

    def lookup(self, term: Term) -> int | None:
        """Id of `term` if already interned (relative IRIs resolved), else None; a `vocab.RULE_TERMS` IRI always has one."""
        if isinstance(term, IRI) and self.base is not None and not term.is_absolute():
            term = self._resolve(term)
        return self._term_to_id.get(term)

    def term(self, tid: int) -> Term:
        return self._id_to_term[tid]

    # -- triples -------------------------------------------------------

    def insert(self, triple: Triple) -> bool:
        """Insert a triple; returns False when it was already present."""
        s = self.intern(triple.subject)
        p = self.intern(triple.predicate)
        o = self.intern(triple.object)
        return self.insert_ids((s, p, o))

    def add(self, subject: Term, predicate: Term, object: Term) -> bool:
        """Construct and insert; positional constraints are checked here."""
        return self.insert(Triple(subject, predicate, object))

    def insert_ids(self, t: IdTriple) -> bool:
        if t in self._triples:
            return False
        s, p, o = t
        self._triples[t] = None
        # build an inner dict or set only when it is missing; after a copy,
        # copy an entry the copy shares before the first write to it
        owned = self._owned
        by_p = self._spo.get(s)
        if by_p is None:
            self._spo[s] = {p: {o}}
            if owned is not None:
                owned.add(s)
        else:
            if owned is not None and s not in owned:
                owned.add(s)
                by_p = self._spo[s] = {q: set(os_) for q, os_ in by_p.items()}
            if (os_ := by_p.get(p)) is None:
                by_p[p] = {o}
            else:
                os_.add(o)
        by_o = self._pos.get(p)
        if by_o is None:
            self._pos[p] = {o: {s}}
            if owned is not None:
                self._owned_pos[p] = {o}
            return True
        ss = by_o.get(o)
        if owned is not None and o not in (mine := self._owned_pos[p]):
            mine.add(o)
            by_o[o] = {s} if ss is None else ss | {s}
        elif ss is None:
            by_o[o] = {s}
        else:
            ss.add(s)
        return True

    def _remove_ids(self, t: IdTriple) -> bool:
        """Drop a present triple, and every index entry it leaves empty, so the indexes' keys stay exact."""
        del self._triples[t]
        s, p, o = t
        owned = self._owned
        by_p = self._spo[s]
        if owned is not None and s not in owned:  # shared with a copy: own it first
            owned.add(s)
            by_p = self._spo[s] = {q: set(os_) for q, os_ in by_p.items()}
        by_p[p].discard(o)
        if not by_p[p]:
            del by_p[p]
            if not by_p:
                del self._spo[s]
        by_o = self._pos[p]
        if owned is not None and o not in (mine := self._owned_pos[p]):
            mine.add(o)
            by_o[o] = set(by_o[o])
        by_o[o].discard(s)
        if not by_o[o]:
            del by_o[o]
            if not by_o:
                del self._pos[p]
        return True

    @property
    def version(self) -> int:
        """Number of triples inserted; it grows with every insertion that adds one."""
        return len(self._triples)

    def contains(self, triple: Triple) -> bool:
        ids = self._pattern_ids((triple.subject, triple.predicate, triple.object))
        return ids is not None and tuple(ids) in self._triples

    @property
    def contains_ids(self) -> Callable[[IdTriple], bool]:
        """Membership of an id triple: the triple set's own test, so a loop that binds it runs it in C."""
        return self._triples.__contains__

    def mentions(self, term: Term) -> bool:
        """True when the term occurs in at least one triple position."""
        tid = self.lookup(term)
        if tid is None:
            return False
        return tid in self._spo or tid in self._pos or any(tid in os_ for os_ in self._pos.values())

    def __contains__(self, triple: Triple) -> bool:
        return self.contains(triple)

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples())

    def _to_triple(self, t: IdTriple) -> Triple:
        return Triple(self._id_to_term[t[0]], self._id_to_term[t[1]], self._id_to_term[t[2]])

    def triples(self) -> list[Triple]:
        """All triples in canonical order."""
        out = [self._to_triple(t) for t in self._triples]
        out.sort(key=triple_sort_key)
        return out

    def triple_ids(self) -> set[IdTriple]:
        return set(self._triples)

    def copy(self) -> "Graph":
        """A graph with the same triples and terms, which either side may change without the other seeing it.

        The copy shares its index entries with this graph: each subject's
        SPO entry, and each POS set (each predicate's dict of POS sets is
        copied).  From then on neither side owns a shared entry, and each
        copies one before its first write to it (`insert_ids`,
        `_remove_ids`), so a copy costs little more than copying the triple
        list and the term dictionary.  A set that `objects` or `subjects`
        handed out never changes when the other side writes.
        """
        g = Graph(base=self.base)
        g._term_to_id = dict(self._term_to_id)
        g._id_to_term = list(self._id_to_term)
        g._triples = dict(self._triples)
        g._spo = dict(self._spo)
        g._pos = {p: dict(by_o) for p, by_o in self._pos.items()}
        self._owned, self._owned_pos = set(), defaultdict(set)
        g._owned, g._owned_pos = set(), defaultdict(set)
        if self.equality is not None:
            g.equality = self.equality.copy()
        return g

    # -- id accessors for the rules -----------------------------------
    #
    # `objects` and `subjects` return the index's own set, or an empty
    # frozenset; callers read it and never change it.

    def has_predicate(self, p: int) -> bool:
        """True when some triple has predicate p: a rule whose body names p as a constant can skip its joins without one."""
        return p in self._pos

    def objects(self, s: int, p: int) -> AbstractSet[int]:
        """The o of every (s, p, o)."""
        return self._spo.get(s, _NO_INDEX).get(p, _NONE)

    def subjects(self, p: int, o: int) -> AbstractSet[int]:
        """The s of every (s, p, o)."""
        return self._pos.get(p, _NO_INDEX).get(o, _NONE)

    def pairs(self, p: int) -> Iterator[tuple[int, int]]:
        """(s, o) for every (s, p, o)."""
        for o, ss in self._pos.get(p, _NO_INDEX).items():
            for s in ss:
                yield s, o

    def lacking(self, xs: Iterable[int], p: int, o: int) -> Iterator[int]:
        """The members x of `xs` with no (x, p, o), tested in C against the POS entry (p, o)."""
        return filterfalse(self.subjects(p, o).__contains__, xs)

    # -- matching ------------------------------------------------------

    def match_ids(self, s: int | None = None, p: int | None = None, o: int | None = None) -> Iterator[IdTriple]:
        """Triples matching a pattern of ids, None being a wildcard.

        A bound subject or predicate is one probe into SPO or POS; a
        pattern with only the object bound walks the predicates.
        """
        if s is not None and p is not None and o is not None:
            if (s, p, o) in self._triples:
                yield (s, p, o)
        elif s is not None and p is not None:
            for oo in self._spo.get(s, {}).get(p, ()):
                yield (s, p, oo)
        elif s is not None and o is not None:
            for pp, os_ in self._spo.get(s, {}).items():
                if o in os_:
                    yield (s, pp, o)
        elif p is not None and o is not None:
            for ss in self._pos.get(p, {}).get(o, ()):
                yield (ss, p, o)
        elif s is not None:
            for pp, os_ in self._spo.get(s, {}).items():
                for oo in os_:
                    yield (s, pp, oo)
        elif p is not None:
            for oo, ss in self._pos.get(p, {}).items():
                for s_ in ss:
                    yield (s_, p, oo)
        elif o is not None:
            for pp, os_ in self._pos.items():
                for ss in os_.get(o, ()):
                    yield (ss, pp, o)
        else:
            yield from self._triples

    def _pattern_ids(self, positions: Iterable[Term | Var | None]) -> list[int | None] | None:
        """The id of each constant position, None for a variable or wildcard; None if a constant is not interned."""
        ids: list[int | None] = []
        for t in positions:
            if t is None or isinstance(t, Var):
                ids.append(None)
            elif (tid := self.lookup(t)) is None:
                return None
            else:
                ids.append(tid)
        return ids

    def match_terms(self, s: Term | None = None, p: Term | None = None, o: Term | None = None) -> Iterator[Triple]:
        """Wildcard matching at the term level; unknown terms match nothing."""
        ids = self._pattern_ids((s, p, o))
        if ids is not None:
            yield from map(self._to_triple, self.match_ids(*ids))

    def match(self, pattern: TriplePattern) -> list[tuple[Triple, Binding]]:
        """All triples unifying with the pattern, with variable bindings.

        Repeated variables must bind consistently.  Output is sorted in
        canonical triple order.
        """
        positions = pattern.positions()
        ids = self._pattern_ids(positions)
        if ids is None:
            return []
        out = []
        for it in self.match_ids(*ids):
            bound: dict[str, int] = {}
            if all(bound.setdefault(pos.name, v) == v for pos, v in zip(positions, it) if isinstance(pos, Var)):
                out.append((self._to_triple(it), {name: self._id_to_term[v] for name, v in bound.items()}))
        out.sort(key=lambda pair: triple_sort_key(pair[0]))
        return out

    def cardinality(self, s: Term | Var | None = None, p: Term | Var | None = None, o: Term | Var | None = None) -> int:
        """Exact number of triples matching a pattern, read from index set sizes; used for join ordering.

        Variables count as wildcards, so a repeated variable is not checked.
        """
        ids = self._pattern_ids((s, p, o))
        return 0 if ids is None else self.cardinality_ids(*ids)

    def cardinality_ids(self, s: int | None = None, p: int | None = None, o: int | None = None) -> int:
        """`cardinality` of a pattern of ids, None being a wildcard."""
        if s is not None and p is not None and o is not None:
            return int((s, p, o) in self._triples)
        if s is not None and p is not None:
            return len(self._spo.get(s, {}).get(p, ()))
        if s is not None and o is not None:
            return sum(o in os_ for os_ in self._spo.get(s, {}).values())
        if p is not None and o is not None:
            return len(self._pos.get(p, {}).get(o, ()))
        if s is not None:
            return sum(map(len, self._spo.get(s, {}).values()))
        if p is not None:
            return sum(map(len, self._pos.get(p, {}).values()))
        if o is not None:
            return sum(len(os_.get(o, ())) for os_ in self._pos.values())
        return len(self._triples)

    # -- knowledge-graph views ------------------------------------------

    def entities(self) -> list[Term]:
        """Terms occurring in subject or object position, canonical order."""
        return self._sorted_terms(self._spo.keys() | self._objects())

    def relations(self) -> list[Term]:
        """Terms occurring in predicate position, canonical order."""
        return self._sorted_terms(self._pos.keys())

    def terms(self) -> list[Term]:
        """Terms occurring in any triple position, canonical order."""
        return self._sorted_terms(self._spo.keys() | self._pos.keys() | self._objects())

    def _objects(self) -> set[int]:
        return {o for os_ in self._pos.values() for o in os_}

    def _sorted_terms(self, ids) -> list[Term]:
        # index keys are exact: a key is added with its first triple, and `_remove_ids` drops the entries it empties
        return sorted((self._id_to_term[i] for i in ids), key=sort_key)


class Overlay:
    """A graph layered over `under`, which it reads and never changes.

    Inserted triples and newly interned terms live only in the overlay; a
    new term's id continues after `under`'s ids (the layers share the
    vocabulary's).  Serves the part of the `Graph` API that saturation and
    violation detection use, so a fixpoint can resume on top of a shared
    closure without copying it.  Probes (`owl._breaks`) use an overlay
    because even a copy-on-write copy costs more than a whole probe: on a
    2-core machine, copying a 6,419-triple closure takes about 69 µs (28 µs
    of it the triple list), and a whole `check_instance` through an overlay
    about 47 µs.  A triple of `under` cannot be removed: when a merge
    of sameAs classes rewrites one, its old form stays below its
    representative form (see `owl._Equality`).
    """

    def __init__(self, under: Graph):
        self._under = under
        self.equality = None if under.equality is None else under.equality.copy()  # as `Graph.copy` shares them
        self._top = Graph(under.base)  # the new terms (local ids) and the added triples (layered ids)
        self._first = len(under._id_to_term)
        self._shift = self._first - len(vocab.RULE_TERMS)  # a new term's local id -> its layered id

    def lookup(self, term: Term) -> int | None:
        tid = self._under.lookup(term)
        if tid is None and (tid := self._top.lookup(term)) is not None:
            tid += self._shift
        return tid

    def intern(self, term: Term) -> int:
        tid = self.lookup(term)
        return self._shift + self._top.intern(term) if tid is None else tid

    def term(self, tid: int) -> Term:
        return self._under.term(tid) if tid < self._first else self._top.term(tid - self._shift)

    def _to_triple(self, t: IdTriple) -> Triple:
        return Triple(*map(self.term, t))

    def insert_ids(self, t: IdTriple) -> bool:
        return not self._under.contains_ids(t) and self._top.insert_ids(t)

    def contains_ids(self, t: IdTriple) -> bool:
        return self._under.contains_ids(t) or self._top.contains_ids(t)

    def _remove_ids(self, t: IdTriple) -> bool:
        """Drop a triple of the top layer; False for one of `under`, which stays."""
        return self._top.contains_ids(t) and self._top._remove_ids(t)

    def has_predicate(self, p: int) -> bool:
        return p in self._under._pos or p in self._top._pos

    def match_ids(self, s: int | None = None, p: int | None = None, o: int | None = None) -> Iterator[IdTriple]:
        yield from self._under.match_ids(s, p, o)
        yield from self._top.match_ids(s, p, o)

    # the id accessors of `Graph`, answered from both layers: a set is
    # merged only when both layers hold part of it

    def objects(self, s: int, p: int) -> AbstractSet[int]:
        under, top = self._under.objects(s, p), self._top.objects(s, p)
        return under | top if under and top else under or top

    def subjects(self, p: int, o: int) -> AbstractSet[int]:
        under, top = self._under.subjects(p, o), self._top.subjects(p, o)
        return under | top if under and top else under or top

    def pairs(self, p: int) -> Iterator[tuple[int, int]]:
        yield from self._under.pairs(p)
        yield from self._top.pairs(p)

    def lacking(self, xs: Iterable[int], p: int, o: int) -> Iterator[int]:
        return self._top.lacking(self._under.lacking(xs, p, o), p, o)


def graph_from_triples(triples: Iterable[Triple], base: str | None = None) -> Graph:
    g = Graph(base=base)
    for t in triples:
        g.insert(t)
    return g
