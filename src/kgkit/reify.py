"""Tabular data to RDF via the n-ary reification pattern.

Each row of a table becomes one fresh instance of a relation class plus
one triple per mapped column, n+1 triples for n columns.  Cell values in
IRI columns are CamelCased ("Natural yoghurt" -> NaturalYoghurt); cells
in literal columns become plain literals.

Rows are reified in ids: each role keeps a memo from cell text to term
id, so a cell repeated down a column is checked, CamelCased and interned
once.  The spec's class, role properties, namespace and instance name
must make absolute IRIs with no character outside the N-Triples IRIREF,
and a CSV header that names a column twice, or a row with more or fewer
cells than its header, is a parse error.
"""

from __future__ import annotations

import csv
import io as _stdio
from dataclasses import dataclass
from typing import Iterable, Mapping

from . import vocab
from .errors import ParseError, ReifyError, ValidationError
from .graph import Graph
from .io import _IRI_UNSAFE
from .terms import _SCHEME, IRI, Literal


@dataclass(frozen=True)
class TableSpec:
    """How to turn one table into reified relation instances.

    roles maps column names to property IRIs in the order the per-row
    triples should be generated; instance_name is the local-name stem for
    generated instances (defaults to the relation class's local name with
    a lowercased first letter).
    """

    relation_class: str
    namespace: str
    roles: tuple[tuple[str, str], ...]
    literal_columns: frozenset[str] = frozenset()
    instance_name: str | None = None

    def __post_init__(self):
        if not self.roles:
            raise ValidationError("table spec maps no columns")
        props = [p for _, p in self.roles]
        if len(set(props)) != len(props):
            raise ValidationError("role properties must be distinct")
        cols = {c for c, _ in self.roles}
        unknown = self.literal_columns - cols
        if unknown:
            raise ValidationError(f"literal columns not in role map: {sorted(unknown)}")
        # every IRI the spec names or stems goes into the output as written, so each must be absolute and IRIREF-safe
        stem = self.stem()
        checks = [("class", self.relation_class, self.relation_class), *(("role", p, p) for p in props)]
        checks += [("namespace", self.namespace, self.namespace + stem), ("instance-name", stem, self.namespace + stem)]
        for field, value, iri in checks:
            if excluded := _IRI_UNSAFE.search(value):
                raise ValidationError(f"{field} {value!r} in the table spec puts {excluded.group()!r} into an IRI")
            if not _SCHEME.match(iri):
                raise ValidationError(f"{field} {value!r} in the table spec does not make an absolute IRI")

    def stem(self) -> str:
        if self.instance_name:
            return self.instance_name
        local = self.relation_class.rsplit("#", 1)[-1].rsplit("/", 1)[-1]
        return local[:1].lower() + local[1:]


def camel_case(value: str) -> str:
    """CamelCase concatenation of whitespace-separated tokens."""
    return "".join(tok[:1].upper() + tok[1:] for tok in value.split())


def reify_table(rows: Iterable[Mapping[str, str]], spec: TableSpec) -> Graph:
    """Reify records into n+1 triples per row; instances are numbered from 1.

    Works in ids: the relation class and each role's property are interned
    on first use, and each role keeps a memo from cell text to id, which a
    cell enters only once it has passed its checks, so a bad cell still
    fails at its first row.  Terms are interned in the order instance,
    class, then each property and cell, as term-at-a-time insertion would.
    """
    g = Graph()
    rdf_type = g.intern(vocab.RDF_TYPE)
    cls = None
    props: list[int | None] = [None] * len(spec.roles)
    memos: list[dict[str, int]] = [{} for _ in spec.roles]
    namespace, stem = spec.namespace, spec.stem()
    for i, row in enumerate(rows, start=1):
        instance = g.intern(IRI(f"{namespace}{stem}{i}"))
        if cls is None:
            cls = g.intern(IRI(spec.relation_class))
        g.insert_ids((instance, rdf_type, cls))
        for j, (column, prop) in enumerate(spec.roles):
            if column not in row:
                raise ReifyError(f"row {i} is missing column {column!r}")
            value = row[column]
            o = memos[j].get(value)
            if o is None:
                if column in spec.literal_columns:
                    term = Literal(value)
                elif not value.strip():
                    raise ReifyError(f"row {i} has an empty cell in IRI column {column!r}")
                elif excluded := _IRI_UNSAFE.search(local := camel_case(value)):  # outside the N-Triples IRIREF
                    raise ReifyError(f"row {i} puts {excluded.group()!r} into an IRI in column {column!r}")
                else:
                    term = IRI(namespace + local)
                if props[j] is None:
                    props[j] = g.intern(IRI(prop))
                o = memos[j][value] = g.intern(term)
            g.insert_ids((instance, props[j], o))
    return g


def rows_from_csv(text: str) -> list[dict[str, str]]:
    """Rows of an RFC-4180 CSV with a header line, as dicts; one leading byte-order mark is dropped.

    A header that names a column twice, or a row with more or fewer cells than the header, is a parse error;
    rows are counted from 1 after the header.
    """
    reader = csv.DictReader(_stdio.StringIO(text.removeprefix("\ufeff")))
    names = reader.fieldnames or []
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ParseError(f"the header names column {name!r} twice")
    rows = []
    for i, row in enumerate(reader, start=1):  # data rows count from 1, as in `reify_table`
        if None in row:
            raise ParseError(f"row {i} has more cells than the header")
        if None in row.values():
            raise ParseError(f"row {i} has fewer cells than the header")
        rows.append(row)
    return rows


def parse_table_spec(text: str) -> TableSpec:
    """Parse the key-value spec file used by the CLI.

    Lines (blank lines and '#' comments ignored):
        class: <relation class IRI>
        namespace: <IRI prefix for generated names>
        instance-name: <local-name stem>          (optional)
        role: <column> -> <property IRI>          (one per column, ordered)
        literal: <column>                         (marks a literal column)
    """
    relation_class = None
    namespace = None
    instance_name = None
    roles: list[tuple[str, str]] = []
    literals: set[str] = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError("expected 'key: value'", lineno)
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "class":
            relation_class = value
        elif key == "namespace":
            namespace = value
        elif key == "instance-name":
            instance_name = value
        elif key == "role":
            if "->" not in value:
                raise ParseError("role line must be '<column> -> <property>'", lineno)
            column, _, prop = value.partition("->")
            roles.append((column.strip(), prop.strip()))
        elif key == "literal":
            literals.add(value)
        else:
            raise ParseError(f"unknown key {key!r}", lineno)
    if relation_class is None:
        raise ParseError("spec file is missing 'class:'")
    if namespace is None:
        raise ParseError("spec file is missing 'namespace:'")
    return TableSpec(
        relation_class=relation_class,
        namespace=namespace,
        roles=tuple(roles),
        literal_columns=frozenset(literals),
        instance_name=instance_name,
    )
