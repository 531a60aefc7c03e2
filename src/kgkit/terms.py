"""RDF terms and patterns.

Terms come in three disjoint kinds: IRIs, blank nodes and literals.  A
triple is (subject, predicate, object) with the usual positional
constraints: subjects are IRIs or blank nodes, predicates are IRIs,
objects may be anything.  Canonical term ordering (IRIs < blank nodes <
literals, lexicographic within each kind) makes serialization and query
output deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import UnknownPrefixError, ValidationError

#: Datatype automatically attached to language-tagged literals.
LANG_STRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"

_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
# A blank node label as the N-Triples and Turtle readers take it after `_:`:
# no whitespace and none of .;,()[]<" but for a '.' between other characters.
_BLANK_LABEL = r'[^\s.;,()\[\]<"]+(?:\.+[^\s.;,()\[\]<"]+)*'
_is_blank_label = re.compile(_BLANK_LABEL).fullmatch


@dataclass(frozen=True, slots=True)
class IRI:
    """A resource identifier.  May be relative until interned into a graph."""

    value: str

    def __post_init__(self):
        if not self.value:
            raise ValidationError("IRI must be a nonempty string")

    def is_absolute(self) -> bool:
        return bool(_SCHEME.match(self.value))

    def __repr__(self):
        return f"IRI({self.value!r})"


@dataclass(frozen=True, slots=True)
class BlankNode:
    """A node scoped to one document; labels carry no global meaning."""

    label: str

    def __post_init__(self):
        if not _is_blank_label(self.label):
            raise ValidationError(
                f"blank node label must be nonempty, with no whitespace or .;,()[]<\" and no '.' at either end: {self.label!r}"
            )

    def __repr__(self):
        return f"BlankNode({self.label!r})"


@dataclass(frozen=True, slots=True)
class Literal:
    """A data value: plain, typed, or language-tagged.

    A language tag forces the datatype to the language-string datatype;
    setting both a language and any other datatype is rejected.  Plain
    literals keep datatype None and compare unequal to typed ones.  An
    empty tag or datatype is rejected: it would print as another literal.
    """

    lexical: str
    datatype: str | None = None
    language: str | None = None

    def __post_init__(self):
        if self.language == "" or self.datatype == "":
            raise ValidationError(f"literal {self.lexical!r} has an empty language tag or datatype")
        if self.language is not None:
            if self.datatype is not None and self.datatype != LANG_STRING:
                raise ValidationError(
                    f"literal {self.lexical!r} sets both a language tag and datatype {self.datatype!r}"
                )
            object.__setattr__(self, "datatype", LANG_STRING)

    def __repr__(self):
        if self.language:
            return f"Literal({self.lexical!r}, lang={self.language!r})"
        if self.datatype:
            return f"Literal({self.lexical!r}, datatype={self.datatype!r})"
        return f"Literal({self.lexical!r})"


Term = Union[IRI, BlankNode, Literal]


@dataclass(frozen=True, slots=True)
class Var:
    """A named variable inside a triple pattern or query."""

    name: str

    def __repr__(self):
        return f"?{self.name}"


def sort_key(term: Term) -> tuple:
    """Canonical ordering key: IRIs first, then blank nodes, then literals."""
    if isinstance(term, IRI):
        return (0, term.value)
    if isinstance(term, BlankNode):
        return (1, term.label)
    if isinstance(term, Literal):
        return (2, term.lexical, term.datatype or "", term.language or "")
    raise TypeError(f"not a term: {term!r}")


@dataclass(frozen=True, slots=True)
class Triple:
    subject: IRI | BlankNode
    predicate: IRI
    object: Term

    def __post_init__(self):
        if not isinstance(self.subject, (IRI, BlankNode)):
            raise ValidationError(f"triple subject must be an IRI or blank node, got {self.subject!r}")
        if not isinstance(self.predicate, IRI):
            raise ValidationError(f"triple predicate must be an IRI, got {self.predicate!r}")
        if not isinstance(self.object, (IRI, BlankNode, Literal)):
            raise ValidationError(f"triple object must be a term, got {self.object!r}")

    def __repr__(self):
        return f"Triple({self.subject!r}, {self.predicate!r}, {self.object!r})"


def triple_sort_key(t: Triple) -> tuple:
    return (sort_key(t.subject), sort_key(t.predicate), sort_key(t.object))


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """A triple with any position possibly replaced by a variable."""

    subject: Term | Var
    predicate: Term | Var
    object: Term | Var

    def positions(self) -> tuple[Term | Var, Term | Var, Term | Var]:
        return (self.subject, self.predicate, self.object)

    def variables(self) -> set[str]:
        return {p.name for p in self.positions() if isinstance(p, Var)}

    def bound_count(self) -> int:
        return sum(1 for p in self.positions() if not isinstance(p, Var))


class PrefixMap:
    """Registered namespace prefixes.

    Expanding a qname concatenates the registered namespace and the local
    part; compressing inverts that when a registered namespace is the
    longest prefix of the IRI.
    """

    def __init__(self, bindings: dict[str, str] | None = None):
        self._ns: dict[str, str] = dict(bindings or {})

    @classmethod
    def common(cls) -> "PrefixMap":
        """A map preloaded with the rdf/rdfs/owl/xsd prefixes."""
        from . import vocab

        return cls({"rdf": vocab.RDF, "rdfs": vocab.RDFS, "owl": vocab.OWL, "xsd": vocab.XSD})

    def bind(self, prefix: str, namespace: str) -> None:
        self._ns[prefix] = namespace

    def namespace(self, prefix: str) -> str | None:
        return self._ns.get(prefix)

    def prefixes(self) -> dict[str, str]:
        return dict(self._ns)

    def expand(self, qname: str) -> IRI:
        """Expand ``prefix:local`` into a full IRI.

        The prefix ends at the first colon; the local part may hold more,
        as in Turtle's PNAME_LN.  An unregistered prefix raises
        UnknownPrefixError.
        """
        if ":" not in qname:
            raise ValidationError(f"qname must contain a colon: {qname!r}")
        prefix, local = qname.split(":", 1)
        ns = self._ns.get(prefix)
        if ns is None:
            raise UnknownPrefixError(prefix)
        return IRI(ns + local)

    def compress(self, iri: IRI) -> str | None:
        """Return ``prefix:local`` for the longest matching namespace, or None."""
        best: tuple[str, str] | None = None
        for prefix, ns in self._ns.items():
            if iri.value.startswith(ns):
                if best is None or len(ns) > len(best[1]):
                    best = (prefix, ns)
        if best is None:
            return None
        prefix, ns = best
        return f"{prefix}:{iri.value[len(ns):]}"


def expand_qname(prefixes: PrefixMap, qname: str) -> IRI:
    return prefixes.expand(qname)
