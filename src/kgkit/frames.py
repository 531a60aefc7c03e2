"""Frame-based knowledge: named slots, defined/default facets, inheritance.

General frames form an IS-A hierarchy (acyclic, validated on insertion);
individual frames attach to general ones via INSTANCE-OF.  A slot's value
and fill constraint come from the nearest frame with one: the frame
itself, then its ancestors breadth-first, ties broken by parent
declaration order.  A frame system exports to RDF so the RDFS engine can
rederive the same class memberships.  The frame-file reader walks one
token pattern and locates each fault once, as the `io` readers do.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

from .errors import ValidationError
from .graph import Graph
from .io import _IRI_UNSAFE, _Fault, _line_col
from .terms import _SCHEME, IRI, Literal, Triple
from . import vocab

GENERAL = "general"
INDIVIDUAL = "individual"
DEFINED = "defined"
DEFAULT = "default"


@dataclass(frozen=True)
class Facet:
    """A slot filler: its value, how firmly it holds, and any fill constraint."""

    value: object = None
    strength: str = DEFINED
    allowed_values: frozenset | None = None
    required_type: str | None = None

    def __post_init__(self):
        if self.strength not in (DEFINED, DEFAULT):
            raise ValidationError(f"facet strength must be defined or default, got {self.strength!r}")
        if self.allowed_values is not None and self.required_type is not None:
            raise ValidationError("a facet constraint is either an allowed-values set or a required type, not both")

    def constrained(self) -> bool:
        return self.allowed_values is not None or self.required_type is not None


@dataclass(frozen=True)
class Frame:
    name: str
    kind: str = GENERAL
    parents: tuple[str, ...] = ()
    slots: dict[str, Facet] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (GENERAL, INDIVIDUAL):
            raise ValidationError(f"frame kind must be general or individual, got {self.kind!r}")


@dataclass(frozen=True)
class SlotValue:
    value: object
    frame: str
    strength: str


@dataclass(frozen=True)
class FillResult:
    accepted: bool
    reason: str | None = None
    source: str | None = None


class FrameSystem:
    def __init__(self, namespace: str = "urn:frame:"):
        self.namespace = namespace
        self.frames: dict[str, Frame] = {}

    def add(self, frame: Frame) -> None:
        """Insert a frame, rejecting IS-A cycles among general frames."""
        if frame.kind == GENERAL:
            self._check_acyclic(frame)
        self.frames[frame.name] = frame

    def general(self, name: str, parents: tuple[str, ...] = (), slots: dict[str, Facet] | None = None) -> Frame:
        f = Frame(name, GENERAL, tuple(parents), dict(slots or {}))
        self.add(f)
        return f

    def individual(self, name: str, parents: tuple[str, ...] = (), slots: dict[str, Facet] | None = None) -> Frame:
        f = Frame(name, INDIVIDUAL, tuple(parents), dict(slots or {}))
        self.add(f)
        return f

    def _check_acyclic(self, frame: Frame) -> None:
        # would inserting this frame close a directed IS-A cycle?
        stack = list(frame.parents)
        seen = set()
        while stack:
            name = stack.pop()
            if name == frame.name:
                raise ValidationError(f"IS-A cycle: {frame.name!r} would become its own ancestor")
            if name in seen:
                continue
            seen.add(name)
            parent = self.frames.get(name)
            if parent is not None and parent.kind == GENERAL:
                stack.extend(parent.parents)

    def _ancestry(self, name: str) -> Iterator[Frame]:
        """The frame followed by its ancestors in BFS order, declaration order within a level."""
        queue = deque([name])
        seen = set()
        while queue:
            nxt = queue.popleft()
            if nxt in seen:
                continue
            seen.add(nxt)
            frame = self.frames.get(nxt)
            if frame is None:
                continue
            yield frame
            queue.extend(frame.parents)

    def _nearest(self, frame_name: str, slot_name: str, holds: Callable[[Facet], bool]) -> tuple[Facet, str] | None:
        """The slot's facet at this frame or the nearest ancestor where `holds` accepts it, and that frame's name."""
        for frame in self._ancestry(frame_name):
            facet = frame.slots.get(slot_name)
            if facet is not None and holds(facet):
                return facet, frame.name
        return None

    def get_slot(self, frame_name: str, slot_name: str) -> SlotValue | None:
        """Value of a slot at this frame or the nearest ancestor holding one.

        None means the value is absent everywhere on the chain, which is
        not an error: the system simply does not know.
        """
        found = self._nearest(frame_name, slot_name, lambda facet: facet.value is not None)
        if found is None:
            return None
        facet, source = found
        return SlotValue(facet.value, source, facet.strength)

    def fill_slot(self, frame_name: str, slot_name: str, value: object) -> FillResult:
        """Store value as a defined facet iff the nearest inherited constraint admits it."""
        frame = self.frames.get(frame_name)
        if frame is None:
            return FillResult(False, reason=f"unknown frame {frame_name!r}")
        found = self._nearest(frame_name, slot_name, Facet.constrained)
        if found is not None:
            facet, source = found
            if facet.allowed_values is not None and value not in facet.allowed_values:
                allowed = ", ".join(sorted(map(str, facet.allowed_values)))
                return FillResult(False, reason=f"value {value!r} not in {{{allowed}}}", source=source)
            if facet.required_type is not None and not self._has_type(value, facet.required_type):
                return FillResult(False, reason=f"value {value!r} is not a {facet.required_type}", source=source)
        local = frame.slots.get(slot_name)
        keep = local if local is not None and local.constrained() else Facet()
        frame.slots[slot_name] = replace(keep, value=value, strength=DEFINED)
        return FillResult(True)

    def _has_type(self, value: object, general_name: str) -> bool:
        if not isinstance(value, str):
            return False
        return any(f.name == general_name for f in self._ancestry(value))

    def to_graph(self) -> Graph:
        """Export to RDF: IS-A becomes subClassOf, INSTANCE-OF becomes rdf:type.

        Only defined facets are exported; defaults are defeasible and
        have no place among monotonic triples.  A slot value naming a
        known frame becomes an IRI, anything else a plain literal.  A
        name that makes a relative IRI or one needing an escape is a
        ValidationError.
        """
        g = Graph()
        for name in sorted(self.frames):
            frame = self.frames[name]
            subject = self._iri("frame", name)
            link = vocab.RDFS_SUBCLASSOF if frame.kind == GENERAL else vocab.RDF_TYPE
            for parent in frame.parents:
                g.insert(Triple(subject, link, self._iri("parent", parent)))
            for slot_name in frame.slots:
                facet = frame.slots[slot_name]
                if facet.strength != DEFINED or facet.value is None:
                    continue
                if isinstance(facet.value, str) and facet.value in self.frames:
                    obj = self._iri("frame", facet.value)
                else:
                    obj = Literal(str(facet.value))
                g.insert(Triple(subject, self._iri("slot", slot_name), obj))
        return g

    def _iri(self, what: str, name: str) -> IRI:
        """The IRI of a frame or slot name: the namespace, then the name as written."""
        for part, value in (("namespace", self.namespace), (what, name)):
            if excluded := _IRI_UNSAFE.search(value):
                raise ValidationError(f"{part} {value!r} puts {excluded.group()!r} into an IRI")
        iri = self.namespace + name
        if not _SCHEME.match(iri):
            raise ValidationError(f"{what} {name!r} in namespace {self.namespace!r} does not make an absolute IRI")
        return IRI(iri)


def frames_to_graph(system: FrameSystem) -> Graph:
    return system.to_graph()


_LINKS = {":IS-A": GENERAL, ":INSTANCE-OF": INDIVIDUAL}

# No token starts with whitespace, so `finditer` skips it.  `open` holds the
# name after a '(' (empty if none follows), `slot` the text of a whole
# `<slot value>`; any other character is `other`, which no frame admits.
_TOKEN = re.compile(
    r"""\(\s*(?P<open>[^\s<)]*)
    | (?P<close>\))
    | <(?P<slot>[^>]*)>
    | (?P<unterminated><)
    | (?P<other>\S)""",
    re.VERBOSE,
)


def parse_frames(text: str, namespace: str = "urn:frame:") -> FrameSystem:
    """Read the s-expression frame format::

        (Carrots
          <:IS-A Vegetables>
          <:colour orange>)

    :IS-A marks a general frame, :INSTANCE-OF an individual; a frame
    with neither is a root general frame.  A slot's name ends at its first
    run of whitespace, of any kind.  Multi-token values are kept with their
    words joined by one space ("1 860 281").  IS-A / INSTANCE-OF values may
    list several parents separated by whitespace.  A malformed file, or one
    that names a frame twice, is a ParseError at the line and column of the
    character at fault.
    """
    system = FrameSystem(namespace=namespace)
    name = None  # of the open frame
    try:
        for m in _TOKEN.finditer(text):
            kind, at = m.lastgroup, m.start()
            if name is None:
                if kind != "open":
                    raise _Fault(f"expected '(' to open a frame, got {text[at]!r}", at)
                name = m.group("open")
                if not name:
                    raise _Fault("frame has no name", m.end())
                if name in system.frames:
                    raise _Fault(f"frame {name!r} is defined twice", at)
                link, parents, slots = None, [], {}
            elif kind == "close":
                system.add(Frame(name, link or GENERAL, tuple(parents), slots))
                name = None
            elif kind == "unterminated":
                raise _Fault(f"unterminated slot in frame {name!r}", at)
            elif kind != "slot":
                raise _Fault(f"expected '<slot value>' in frame {name!r}", at)
            elif not (inner := m.group("slot").strip()):
                raise _Fault(f"empty slot in frame {name!r}", m.end() - 1)
            else:
                slot_name, *words = inner.split()
                value = " ".join(words)
                linked = _LINKS.get(slot_name.upper())
                if linked is None:
                    slots[slot_name.lstrip(":")] = Facet(value=value, strength=DEFINED)
                elif link not in (None, linked):
                    raise _Fault(f"frame {name!r} mixes IS-A and INSTANCE-OF", m.end() - 1)
                else:
                    link = linked
                    parents.extend(value.split())
        if name is not None:
            raise _Fault(f"unterminated frame {name!r}", len(text))
    except _Fault as fault:
        raise fault.at(*_line_col(text, fault.offset)) from None
    return system
