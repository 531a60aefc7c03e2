"""Tabular data to RDF via the n-ary reification pattern.

Each row of a table becomes one fresh instance of a relation class plus
one triple per mapped column, n+1 triples for n columns.  Cell values in
IRI columns are CamelCased ("Natural yoghurt" -> NaturalYoghurt); cells
in literal columns become plain literals.
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
from .terms import IRI, Literal


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

    def stem(self) -> str:
        if self.instance_name:
            return self.instance_name
        local = self.relation_class.rsplit("#", 1)[-1].rsplit("/", 1)[-1]
        return local[:1].lower() + local[1:]


def camel_case(value: str) -> str:
    """CamelCase concatenation of whitespace-separated tokens."""
    return "".join(tok[:1].upper() + tok[1:] for tok in value.split())


def reify_table(rows: Iterable[Mapping[str, str]], spec: TableSpec) -> Graph:
    """Reify records into n+1 triples per row; instances are numbered from 1."""
    g = Graph()
    cls = IRI(spec.relation_class)
    stem = spec.stem()
    for i, row in enumerate(rows, start=1):
        instance = IRI(f"{spec.namespace}{stem}{i}")
        g.add(instance, vocab.RDF_TYPE, cls)
        for column, prop in spec.roles:
            if column not in row:
                raise ReifyError(f"row {i} is missing column {column!r}")
            value = row[column]
            if column in spec.literal_columns:
                term = Literal(value)
            elif not value.strip():
                raise ReifyError(f"row {i} has an empty cell in IRI column {column!r}")
            elif excluded := _IRI_UNSAFE.search(local := camel_case(value)):  # outside the N-Triples IRIREF
                raise ReifyError(f"row {i} puts {excluded.group()!r} into an IRI in column {column!r}")
            else:
                term = IRI(spec.namespace + local)
            g.add(instance, IRI(prop), term)
    return g


def rows_from_csv(text: str) -> list[dict[str, str]]:
    """Rows of an RFC-4180 CSV with a header line, as dicts; one leading byte-order mark is dropped."""
    reader = csv.DictReader(_stdio.StringIO(text.removeprefix("\ufeff")))
    rows = []
    for row in reader:
        if None in row:
            raise ParseError(f"row {reader.line_num} has more cells than the header")
        rows.append({k: (v if v is not None else "") for k, v in row.items()})
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
