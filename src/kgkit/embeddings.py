"""Translation-based knowledge-graph embeddings with margin-ranking training.

A triple (s, p, o) is scored by how close the subject vector translated
by the relation vector lands to the object vector: score = -||e_s + r_p
- e_o|| under an L1 or L2 norm, zero exactly at a perfect translation.
Training is plain per-sample SGD on the hinge loss max(0, margin +
d(positive) - d(negative)) with uniformly corrupted negatives; entity
vectors are renormalized to unit length after every epoch.  Everything
is deterministic given (graph, config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import SamplingError, UnknownTermError, ValidationError
from .graph import Graph, IdTriple
from .io import format_term, parse_term
from .terms import Literal, Term, Triple, sort_key, triple_sort_key

L1 = "L1"
L2 = "L2"

CORRUPT_HEAD = "head"
CORRUPT_TAIL = "tail"
CORRUPT_BOTH = "both"


@dataclass(frozen=True)
class TrainConfig:
    margin: float = 1.0
    learning_rate: float = 0.01
    epochs: int = 100
    negatives_per_positive: int = 1
    corruption: str = CORRUPT_BOTH
    filtered_sampling: bool = True
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.margin) and self.margin > 0):
            raise ValidationError(f"margin must be finite and positive, got {self.margin}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError(f"learning rate must be finite and positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValidationError("epoch count must be nonnegative")
        if self.negatives_per_positive < 1:
            raise ValidationError("need at least one negative per positive")
        if self.corruption not in (CORRUPT_HEAD, CORRUPT_TAIL, CORRUPT_BOTH):
            raise ValidationError(f"unknown corruption mode {self.corruption!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class EmbeddingModel:
    dim: int
    norm: str
    entities: tuple[Term, ...]
    relations: tuple[Term, ...]
    entity_vecs: np.ndarray
    relation_vecs: np.ndarray
    entity_index: dict[Term, int] = field(init=False, repr=False)
    relation_index: dict[Term, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.entity_index = {t: i for i, t in enumerate(self.entities)}
        self.relation_index = {t: i for i, t in enumerate(self.relations)}

    def entity_id(self, term: Term) -> int:
        idx = self.entity_index.get(term)
        if idx is None:
            raise UnknownTermError(f"unknown entity {format_term(term)}")
        return idx

    def relation_id(self, term: Term) -> int:
        idx = self.relation_index.get(term)
        if idx is None:
            raise UnknownTermError(f"unknown relation {format_term(term)}")
        return idx


def init_model(graph: Graph, dim: int, seed: int, norm: str = L1) -> EmbeddingModel:
    """Fresh model: uniform vectors in [-6/sqrt(d), 6/sqrt(d)], unit entity rows."""
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    if len(graph) == 0:
        raise ValidationError("cannot initialize an embedding model on an empty graph")
    if dim < 1:
        raise ValidationError("dimension must be at least 1")
    if norm not in (L1, L2):
        raise ValidationError(f"norm must be {L1} or {L2}, got {norm!r}")
    entities = tuple(graph.entities())
    relations = tuple(graph.relations())
    rng = np.random.default_rng(seed)
    bound = 6.0 / math.sqrt(dim)
    entity_vecs = rng.uniform(-bound, bound, (len(entities), dim))
    relation_vecs = rng.uniform(-bound, bound, (len(relations), dim))
    model = EmbeddingModel(dim, norm, entities, relations, entity_vecs, relation_vecs)
    _renormalize_entities(model)
    return model


def _renormalize_entities(model: EmbeddingModel) -> None:
    norms = np.linalg.norm(model.entity_vecs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    model.entity_vecs /= norms


def _norms(vecs: np.ndarray, norm: str) -> np.ndarray:
    """The norm of a vector, or of each row of a matrix."""
    if norm == L1:
        return np.abs(vecs).sum(axis=-1)
    return np.sqrt((vecs * vecs).sum(axis=-1))


def _distance(vec: np.ndarray, norm: str) -> float:
    return float(_norms(vec, norm))


def _distance_grad(vec: np.ndarray, norm: str) -> np.ndarray:
    if norm == L1:
        return np.sign(vec)
    d = _norms(vec, L2)
    if d == 0.0:
        return np.zeros_like(vec)
    return vec / d


IdxTriple = tuple[int, int, int]


def _rows(model: EmbeddingModel, s: Term, p: Term, o: Term) -> IdxTriple:
    """The model rows of a triple's terms; UnknownTermError for a term the model lacks."""
    return model.entity_id(s), model.relation_id(p), model.entity_id(o)


def _translation(model: EmbeddingModel, rows: IdxTriple) -> np.ndarray:
    s, p, o = rows
    return model.entity_vecs[s] + model.relation_vecs[p] - model.entity_vecs[o]


def score(model: EmbeddingModel, s: Term, p: Term, o: Term) -> float:
    """Triple plausibility: negated translation distance, at most 0."""
    return -_distance(_translation(model, _rows(model, s, p, o)), model.norm)


def loss_and_gradients(
    model: EmbeddingModel, positive: IdxTriple, negative: IdxTriple, margin: float
) -> tuple[float, dict[tuple[str, int], np.ndarray]]:
    """Hinge loss of one (positive, negative) pair and its exact gradients.

    Gradients are keyed by ("entity"|"relation", row); contributions of
    a vector that appears on both sides accumulate.  An inactive hinge
    returns zero loss and no gradients.
    """
    v_pos = _translation(model, positive)
    v_neg = _translation(model, negative)
    loss = margin + _distance(v_pos, model.norm) - _distance(v_neg, model.norm)
    if loss <= 0.0:
        return 0.0, {}
    g_pos = _distance_grad(v_pos, model.norm)
    g_neg = _distance_grad(v_neg, model.norm)
    (sp, pp, op), (sn, pn, on) = positive, negative
    grads: dict[tuple[str, int], np.ndarray] = {}
    for key, grad in (
        (("entity", sp), g_pos), (("relation", pp), g_pos), (("entity", op), -g_pos),
        (("entity", sn), -g_neg), (("relation", pn), -g_neg), (("entity", on), g_neg),
    ):
        grads[key] = grads[key] + grad if key in grads else grad.copy()
    return float(loss), grads


class _Sampler:
    """Id-level view of a graph for negative sampling, built once per run.

    Entities are the graph's ids in canonical `Graph.entities()` order, so
    the i-th draw names the same entity the term list would; the filter
    probes the graph's own id-triple set.  `positives`, the training
    triples in canonical order, are sorted on first use.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.entities = [graph.lookup(t) for t in graph.entities()]
        self.literals = {e for e in self.entities if isinstance(graph.term(e), Literal)}
        self.known = graph._triples

    @cached_property
    def positives(self) -> list[Triple]:
        return self.graph.triples()

    def draw(self, triple: IdTriple, config: TrainConfig, rng: np.random.Generator) -> IdTriple | None:
        """A corruption of `triple`, or None when none differs from it."""
        s, p, o = triple
        filtered = self.known if config.filtered_sampling else ()

        def corrupt(head: bool, entity: int) -> IdTriple | None:
            """`triple` with `entity` on one side; None for the triple itself or a literal subject."""
            candidate = (entity, p, o) if head else (s, p, entity)
            if candidate == triple or (head and entity in self.literals):
                return None
            return candidate

        both = config.corruption == CORRUPT_BOTH
        head = bool(rng.integers(0, 2)) if both else config.corruption == CORRUPT_HEAD
        for _ in range(100):
            candidate = corrupt(head, self.entities[int(rng.integers(0, len(self.entities)))])
            if candidate is not None and candidate not in filtered:
                return candidate
        fallback = None
        for side in (head, not head) if both else (head,):
            for entity in self.entities:
                candidate = corrupt(side, entity)
                if candidate is not None and candidate not in filtered:
                    return candidate
                fallback = fallback or candidate
        return fallback


def negative_sample(
    triple: Triple, graph: Graph, config: TrainConfig, rng: np.random.Generator, *, sampler: _Sampler | None = None
) -> Triple:
    """Corrupt the head or tail with a uniformly drawn entity.

    With filtered sampling the draw is retried while it hits a known
    positive; after the retry budget a deterministic scan finds a clean
    corruption, falling back to any non-identical one.  Raises
    SamplingError when no corruption different from the triple exists.
    `sampler` is the id-level view of `graph` that a training run builds
    once; without it one is built for this call.
    """
    if sampler is None:
        sampler = _Sampler(graph)
    ids = tuple(graph.lookup(t) for t in (triple.subject, triple.predicate, triple.object))
    # a term the graph never interned gets id -1, which no triple holds
    ids = tuple(-1 if i is None else i for i in ids)
    corrupted = sampler.draw(ids, config, rng)
    if corrupted is None:
        raise SamplingError(f"no corruption of {format_term(triple.subject)} triple is possible")
    if corrupted[0] != ids[0]:
        return Triple(graph.term(corrupted[0]), triple.predicate, triple.object)
    return Triple(triple.subject, triple.predicate, graph.term(corrupted[2]))


def train_epoch(
    model: EmbeddingModel,
    graph: Graph,
    config: TrainConfig,
    rng: np.random.Generator | None = None,
    *,
    sampler: _Sampler | None = None,
) -> float:
    """One pass of per-sample SGD over shuffled positives; returns mean loss.

    `sampler` is the view `train` builds once for all its epochs.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if sampler is None:
        sampler = _Sampler(graph)
    positives = sampler.positives
    order = rng.permutation(len(positives))
    total = 0.0
    count = 0
    for idx in order:
        pos = positives[int(idx)]
        pos_rows = _rows(model, pos.subject, pos.predicate, pos.object)
        for _ in range(config.negatives_per_positive):
            neg = negative_sample(pos, graph, config, rng, sampler=sampler)
            neg_rows = _rows(model, neg.subject, neg.predicate, neg.object)
            loss, grads = loss_and_gradients(model, pos_rows, neg_rows, config.margin)
            total += loss
            count += 1
            for (kind, row), grad in grads.items():
                table = model.entity_vecs if kind == "entity" else model.relation_vecs
                table[row] -= config.learning_rate * grad
    _renormalize_entities(model)
    return total / count if count else 0.0


def train(model: EmbeddingModel, graph: Graph, config: TrainConfig) -> list[float]:
    """Run config.epochs epochs from one seeded generator; returns epoch losses."""
    rng = np.random.default_rng(config.seed)
    sampler = _Sampler(graph)
    return [train_epoch(model, graph, config, rng, sampler=sampler) for _ in range(config.epochs)]


def _candidate_scores(model: EmbeddingModel, free_head: bool, p: int, bound: int) -> np.ndarray:
    r = model.relation_vecs[p]
    e = model.entity_vecs[bound]
    diff = (model.entity_vecs + r - e) if free_head else (e + r - model.entity_vecs)
    return -_norms(diff, model.norm)


def _candidate_rows(model: EmbeddingModel, free_head: bool) -> np.ndarray:
    """Rows that may fill the free slot: any entity, but no literal as subject."""
    if free_head:
        return np.fromiter((not isinstance(t, Literal) for t in model.entities), bool, len(model.entities))
    return np.ones(len(model.entities), dtype=bool)


def _filter_mask(candidates: np.ndarray, known: list[int]) -> np.ndarray:
    """The candidate rows minus the rows of known completions."""
    allowed = candidates.copy()
    allowed[known] = False
    return allowed


def predict_links(
    model: EmbeddingModel,
    graph: Graph,
    s: Term | None = None,
    p: Term | None = None,
    o: Term | None = None,
    k: int = 10,
    filtered: bool = False,
) -> list[tuple[Term, float]]:
    """Top-k completions for a triple with one free slot among subject/object.

    The filtered variant drops candidates that already form a training
    triple.  Ties are broken by canonical term order.
    """
    if k <= 0:
        raise ValidationError("k must be positive")
    if p is None:
        raise ValidationError("the relation must be bound")
    if (s is None) == (o is None):
        raise ValidationError("exactly one of subject and object must be free")
    if isinstance(s, Literal):
        raise ValidationError(f"the subject cannot be a literal, got {s!r}")
    free_head = s is None
    bound = o if free_head else s
    scores = _candidate_scores(model, free_head, model.relation_id(p), model.entity_id(bound))
    known = []
    if filtered:
        completions = (t.subject if free_head else t.object for t in graph.match_terms(s, p, o))
        known = [model.entity_index[t] for t in completions if t in model.entity_index]
    allowed = _filter_mask(_candidate_rows(model, free_head), known)
    ranked = [(model.entities[i], float(scores[i])) for i in np.flatnonzero(allowed)]
    ranked.sort(key=lambda pair: (-pair[1], sort_key(pair[0])))
    return ranked[:k]


@dataclass(frozen=True)
class RankMetrics:
    mean_rank: float
    mrr: float
    hits_at_1: float
    hits_at_3: float
    hits_at_10: float


@dataclass(frozen=True)
class EvalReport(RankMetrics):
    per_relation: dict[Term, RankMetrics] = field(default_factory=dict)


def _metrics(ranks: list[int]) -> RankMetrics:
    n = len(ranks)
    return RankMetrics(
        mean_rank=sum(ranks) / n,
        mrr=sum(1.0 / r for r in ranks) / n,
        hits_at_1=sum(r <= 1 for r in ranks) / n,
        hits_at_3=sum(r <= 3 for r in ranks) / n,
        hits_at_10=sum(r <= 10 for r in ranks) / n,
    )


def _filtered_ranks(model: EmbeddingModel, train_graph: Graph, test_triples: list[Triple]) -> list[tuple[Term, int]]:
    """(relation, filtered rank) per test triple in canonical order, head side first.

    Each test triple is mapped to model rows once, and a term the model
    does not know raises UnknownTermError.  The known completions of each
    (relation, bound entity) under test are listed once as model rows; a
    rank counts the candidates left by the filter mask that score strictly
    better than the truth, plus one.
    """
    ent, rel = model.entity_index, model.relation_index
    rows = [(ent.get(t.subject), rel.get(t.predicate), ent.get(t.object)) for t in test_triples]
    unknown = {format_term(term) for t, row in zip(test_triples, rows)
               for term, i in zip((t.subject, t.predicate, t.object), row) if i is None}
    if unknown:
        raise UnknownTermError("test triples mention unknown terms: " + ", ".join(sorted(unknown)))
    ordered = sorted(zip(test_triples, rows), key=lambda pair: triple_sort_key(pair[0]))
    heads: dict[tuple[int, int], list[int]] = {(p, o): [] for _, p, o in rows}
    tails: dict[tuple[int, int], list[int]] = {(s, p): [] for s, p, _ in rows}
    # the train graph's term ids mapped to model rows once, not per occurrence
    ent_row = [ent.get(term) for term in train_graph._id_to_term]
    rel_row = [rel.get(term) for term in train_graph._id_to_term]
    train = ((ent_row[s], rel_row[p], ent_row[o]) for s, p, o in train_graph._triples)
    for s, p, o in chain(train, rows):
        if s is not None and (p, o) in heads:
            heads[p, o].append(s)
        if o is not None and (s, p) in tails:
            tails[s, p].append(o)
    candidates = {side: _candidate_rows(model, side) for side in (True, False)}
    ranks = []
    for t, (s, p, o) in ordered:
        for free_head, true_row, bound, known in ((True, s, o, heads[p, o]), (False, o, s, tails[s, p])):
            scores = _candidate_scores(model, free_head, p, bound)
            # the truth is one of its own known completions, and never beats itself
            better = (scores > scores[true_row]) & _filter_mask(candidates[free_head], known)
            ranks.append((t.predicate, 1 + int(np.count_nonzero(better))))
    return ranks


def evaluate(model: EmbeddingModel, train_graph: Graph, test_triples: list[Triple]) -> EvalReport:
    """Filtered link-prediction protocol over head and tail replacement.

    For each test triple the true head (and tail) is ranked against all
    candidate entities, excluding every other completion known from
    train or test; the rank counts strictly better scores plus one.
    """
    if not test_triples:
        raise ValidationError("evaluation needs at least one test triple")
    ranks = _filtered_ranks(model, train_graph, test_triples)
    by_relation: dict[Term, list[int]] = {}
    for relation, rank in ranks:
        by_relation.setdefault(relation, []).append(rank)
    overall = _metrics([rank for _, rank in ranks])
    return EvalReport(**vars(overall), per_relation={rel: _metrics(rs) for rel, rs in by_relation.items()})


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def dump_model(model: EmbeddingModel) -> str:
    """TSV text: a header line, then one row per entity and relation vector."""
    lines = [f"d={model.dim} norm={model.norm}"]
    for kind, terms, table in (("E", model.entities, model.entity_vecs), ("R", model.relations, model.relation_vecs)):
        for i, term in enumerate(terms):
            values = "\t".join(format(v, ".17g") for v in table[i])
            lines.append(f"{kind}\t{format_term(term)}\t{values}")
    return "\n".join(lines) + "\n"


def load_model_text(text: str) -> EmbeddingModel:
    lines = [ln for ln in text.split("\n") if ln.strip()]  # a literal may hold U+0085, U+2028 or U+2029 raw
    if not lines:
        raise ValidationError("empty model file")
    header = lines[0].split()
    if len(header) != 2 or not header[0].startswith("d=") or not header[1].startswith("norm="):
        raise ValidationError(f"bad model header: {lines[0]!r}")
    if not header[0][2:].isdecimal() or int(header[0][2:]) < 1:
        raise ValidationError(f"bad dimension in model header: {lines[0]!r}")
    dim = int(header[0][2:])
    norm = header[1][5:]
    if norm not in (L1, L2):
        raise ValidationError(f"bad norm in model header: {norm!r}")
    # the terms and vector rows of each row kind, in file order
    tables: dict[str, tuple[list[Term], list[list[float]]]] = {"E": ([], []), "R": ([], [])}
    for ln in lines[1:]:
        fields = ln.split("\t")
        if len(fields) != dim + 2 or fields[0] not in tables:
            raise ValidationError(f"bad model row: {ln!r}")
        term = parse_term(fields[1])
        try:
            values = [float(v) for v in fields[2:]]
        except ValueError:
            raise ValidationError(f"non-numeric value in model row: {ln!r}") from None
        terms, rows = tables[fields[0]]
        terms.append(term)
        rows.append(values)
    (entities, entity_rows), (relations, relation_rows) = tables.values()
    for kind, terms in (("entity", entities), ("relation", relations)):
        if len(set(terms)) != len(terms):
            raise ValidationError(f"duplicate {kind} row in model file")
    entity_vecs = np.array(entity_rows, dtype=np.float64).reshape(len(entities), dim)
    relation_vecs = np.array(relation_rows, dtype=np.float64).reshape(len(relations), dim)
    if not (np.isfinite(entity_vecs).all() and np.isfinite(relation_vecs).all()):
        raise ValidationError("non-finite value (nan or inf) in model file")
    return EmbeddingModel(dim, norm, tuple(entities), tuple(relations), entity_vecs, relation_vecs)


def save_model(model: EmbeddingModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_model(model))


def load_model(path) -> EmbeddingModel:
    with open(path, "r", encoding="utf-8") as fh:
        return load_model_text(fh.read())
