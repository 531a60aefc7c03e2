"""kgkit: triple store, RDFS/OWL rule reasoning, frames, queries, embeddings."""

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
from .frames import Facet, FillResult, Frame, FrameSystem, SlotValue, frames_to_graph, parse_frames
from .query import Query, parse_competency, parse_query, query
from .embeddings import (
    EmbeddingModel,
    EvalReport,
    RankMetrics,
    TrainConfig,
    dump_model,
    evaluate,
    init_model,
    load_model,
    load_model_text,
    loss_and_gradients,
    negative_sample,
    predict_links,
    save_model,
    score,
    train,
    train_epoch,
)
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
    "Facet", "FillResult", "Frame", "FrameSystem", "SlotValue", "frames_to_graph", "parse_frames",
    "Query", "parse_competency", "parse_query", "query",
    "EmbeddingModel", "EvalReport", "RankMetrics", "TrainConfig", "dump_model", "evaluate",
    "init_model", "load_model", "load_model_text", "loss_and_gradients", "negative_sample",
    "predict_links", "save_model", "score", "train", "train_epoch",
    "InconsistentKBError", "KGError", "ParseError", "QueryValidationError", "ReifyError",
    "SamplingError", "UnknownPrefixError", "UnknownTermError", "ValidationError",
]

__version__ = "0.1.0"
