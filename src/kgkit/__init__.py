"""kgkit: triple store, RDFS/OWL rule reasoning, frames, queries, embeddings."""

from importlib import import_module as _import_module

from .terms import (
    IRI,
    BlankNode,
    Literal,
    PrefixMap,
    Term,
    Triple,
    TriplePattern,
    Var,
    expand_qname,
)
from .graph import Binding, Graph, graph_from_triples
from .io import ParseReport, parse_ntriples, parse_term, parse_turtle, serialize_ntriples
from .reify import TableSpec, camel_case, parse_table_spec, reify_table, rows_from_csv
from .rdfs import Closure, Derivation, InconsistencyReport, Violation, entails, saturate_rdfs
from .owl import (
    EqualityPartition,
    InstanceCheck,
    check_instance,
    is_consistent,
    is_satisfiable,
    realize,
    retrieve_instances,
    saturate_owl,
    subsumes,
)
from .query import Query, parse_competency, parse_query, query
from .errors import (
    InconsistentKBError,
    KGError,
    ParseError,
    QueryValidationError,
    ReifyError,
    SamplingError,
    UnknownPrefixError,
    UnknownTermError,
    ValidationError,
)

# The embeddings (and with them numpy) and the frames layer load on first use of
# one of their names, so `import kgkit` and the CLI commands that use neither
# start without them.  A resolved name is kept in the module's namespace.
_LAZY_MODULES = {
    "embeddings": (
        "EmbeddingModel", "EvalReport", "RankMetrics", "TrainConfig", "dump_model", "evaluate",
        "init_model", "load_model", "load_model_text", "loss_and_gradients", "negative_sample",
        "predict_links", "save_model", "score", "train", "train_epoch",
    ),
    "frames": ("Facet", "FillResult", "Frame", "FrameSystem", "SlotValue", "frames_to_graph", "parse_frames"),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}

# Submodules stay reachable as attributes (`kgkit.vocab`) but are not star-exported:
# `kgkit.io` would shadow the standard library's `io`.
__all__ = [
    "IRI", "BlankNode", "Literal", "PrefixMap", "Term", "Triple", "TriplePattern", "Var",
    "expand_qname",
    "Binding", "Graph", "graph_from_triples",
    "ParseReport", "parse_ntriples", "parse_term", "parse_turtle", "serialize_ntriples",
    "TableSpec", "camel_case", "parse_table_spec", "reify_table", "rows_from_csv",
    "Closure", "Derivation", "InconsistencyReport", "Violation", "entails", "saturate_rdfs",
    "EqualityPartition", "InstanceCheck", "check_instance", "is_consistent", "is_satisfiable",
    "realize", "retrieve_instances", "saturate_owl", "subsumes",
    "Query", "parse_competency", "parse_query", "query",
    "InconsistentKBError", "KGError", "ParseError", "QueryValidationError", "ReifyError",
    "SamplingError", "UnknownPrefixError", "UnknownTermError", "ValidationError",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    module = name if name in _LAZY_MODULES else _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys() | _LAZY_MODULES.keys())
