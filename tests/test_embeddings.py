import hashlib
import math
import random

import numpy as np
import pytest

from kgkit import (
    Graph,
    IRI,
    Literal,
    SamplingError,
    TrainConfig,
    Triple,
    UnknownTermError,
    ValidationError,
    dump_model,
    evaluate,
    init_model,
    load_model_text,
    negative_sample,
    predict_links,
    score,
    train,
    train_epoch,
)
from kgkit import graph_from_triples
from kgkit.embeddings import L1, L2, RankMetrics, _filtered_ranks, _metrics, _Sampler, loss_and_gradients

from helpers import EDU, edu, location_graph, random_rdfs_graph
from oracles import numeric_gradient, oracle_filtered_ranks, oracle_negative_sample, oracle_predict_links


def ring_graph(n_entities: int = 6, relation: str = "rel") -> Graph:
    g = Graph()
    for i in range(n_entities):
        g.add(edu(f"e{i}"), edu(relation), edu(f"e{(i + 1) % n_entities}"))
    return g


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def test_init_deterministic_under_seed():
    g = ring_graph()
    a = init_model(g, 2, seed=11)
    b = init_model(g, 2, seed=11)
    assert np.array_equal(a.entity_vecs, b.entity_vecs)
    assert np.array_equal(a.relation_vecs, b.relation_vecs)
    c = init_model(g, 2, seed=12)
    assert not np.array_equal(a.entity_vecs, c.entity_vecs)


def test_init_entity_vectors_unit_norm():
    model = init_model(ring_graph(), 7, seed=0)
    norms = np.linalg.norm(model.entity_vecs, axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-9)


def test_init_table_shapes():
    g = Graph()
    for i in range(5):
        g.add(edu(f"a{i}"), edu("p" if i % 2 else "q"), edu(f"a{(i + 1) % 5}"))
    model = init_model(g, 3, seed=0)
    assert model.entity_vecs.shape == (5, 3)
    assert model.relation_vecs.shape == (2, 3)


def test_init_rejects_empty_graph_and_bad_dim():
    with pytest.raises(ValidationError):
        init_model(Graph(), 2, seed=0)
    with pytest.raises(ValidationError):
        init_model(ring_graph(), 0, seed=0)


def test_init_rejects_a_negative_seed():
    with pytest.raises(ValidationError, match="seed"):
        init_model(ring_graph(), 2, seed=-1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("margin", math.nan),
        ("margin", math.inf),
        ("margin", 0.0),
        ("learning_rate", math.nan),
        ("learning_rate", math.inf),
        ("learning_rate", -0.1),
        ("seed", -1),
    ],
)
def test_train_config_rejects_non_finite_non_positive_values_and_negative_seeds(field, value):
    with pytest.raises(ValidationError):
        TrainConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("epochs", -1, "epoch count must be nonnegative"),
        ("negatives_per_positive", 0, "need at least one negative per positive"),
        ("corruption", "sideways", "unknown corruption mode 'sideways'"),
    ],
)
def test_train_config_rejects_a_negative_epoch_count_no_negatives_and_an_unknown_corruption(field, value, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        TrainConfig(**{field: value})


def test_init_rejects_an_unknown_norm_and_a_model_an_unknown_relation():
    with pytest.raises(ValidationError, match="^norm must be L1 or L2, got 'L3'$"):
        init_model(ring_graph(), 2, seed=0, norm="L3")
    model = init_model(ring_graph(), 2, seed=0)
    with pytest.raises(UnknownTermError, match=f"^unknown relation <{EDU}e0>$"):
        model.relation_id(edu("e0"))


def test_init_uniform_range():
    model = init_model(ring_graph(), 4, seed=5)
    bound = 6.0 / math.sqrt(4)
    assert np.all(np.abs(model.relation_vecs) <= bound)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def test_score_zero_at_exact_translation():
    model = init_model(ring_graph(), 2, seed=0)
    s, o = model.entities[0], model.entities[1]
    p = model.relations[0]
    model.entity_vecs[model.entity_id(s)] = [1.0, 0.0]
    model.relation_vecs[model.relation_id(p)] = [0.0, 1.0]
    model.entity_vecs[model.entity_id(o)] = [1.0, 1.0]
    assert score(model, s, p, o) == 0.0


def test_score_l1_hand_computed():
    model = init_model(ring_graph(), 2, seed=0)
    s, o = model.entities[0], model.entities[1]
    p = model.relations[0]
    model.entity_vecs[model.entity_id(s)] = [1.0, 0.0]
    model.relation_vecs[model.relation_id(p)] = [0.0, 1.0]
    model.entity_vecs[model.entity_id(o)] = [1.0, 2.0]
    assert score(model, s, p, o) == -1.0


def test_score_not_symmetric_in_subject_object():
    model = init_model(ring_graph(), 8, seed=21)
    p = model.relations[0]
    asymmetric = 0
    for i in range(5):
        s, o = model.entities[i], model.entities[i + 1]
        if abs(score(model, s, p, o) - score(model, o, p, s)) > 1e-12:
            asymmetric += 1
    assert asymmetric == 5


def test_score_unknown_term_error_names_it():
    model = init_model(ring_graph(), 2, seed=0)
    with pytest.raises(UnknownTermError, match="stranger"):
        score(model, IRI(EDU + "stranger"), model.relations[0], model.entities[0])


# ---------------------------------------------------------------------------
# Negative sampling
# ---------------------------------------------------------------------------


def uniformity_graph() -> tuple[Graph, Triple]:
    # 5 entities; the corrupted triple's legal tails are the other 4
    g = Graph()
    target = Triple(edu("Ursynow"), edu("is_part_of"), edu("Warsaw"))
    g.insert(target)
    g.add(edu("x1"), edu("other"), edu("x2"))
    g.add(edu("x2"), edu("other"), edu("x3"))
    return g, target


def test_tail_corruption_uniform_over_legal_entities():
    g, target = uniformity_graph()
    config = TrainConfig(corruption="tail", filtered_sampling=True, seed=0)
    rng = np.random.default_rng(42)
    counts: dict = {}
    for _ in range(10_000):
        corrupted = negative_sample(target, g, config, rng)
        assert corrupted.subject == target.subject
        assert corrupted.predicate == target.predicate
        assert corrupted.object != edu("Warsaw")
        counts[corrupted.object] = counts.get(corrupted.object, 0) + 1
    assert len(counts) == 4
    expected = 10_000 / 4
    chi2 = sum((n - expected) ** 2 / expected for n in counts.values())
    # chi-square with 3 degrees of freedom, alpha = 0.001
    assert chi2 < 16.27


def test_filtered_sampling_never_returns_a_training_triple():
    g = Graph()
    for i in range(5):
        for j in range(4):
            g.add(edu(f"n{i}"), edu("r"), edu(f"n{(i + j + 1) % 5}"))
    triples = g.triples()
    assert len(triples) == 20
    known = set(triples)
    config = TrainConfig(corruption="both", filtered_sampling=True, seed=0)
    rng = np.random.default_rng(7)
    for k in range(10_000):
        corrupted = negative_sample(triples[k % len(triples)], g, config, rng)
        assert corrupted not in known


def test_corruption_always_preserves_relation():
    g = ring_graph()
    config = TrainConfig(corruption="both", seed=0)
    rng = np.random.default_rng(3)
    t = g.triples()[0]
    for _ in range(200):
        assert negative_sample(t, g, config, rng).predicate == t.predicate


def test_head_corruption_replaces_only_the_subject():
    g = ring_graph()
    config = TrainConfig(corruption="head", filtered_sampling=False, seed=0)
    rng = np.random.default_rng(8)
    t = g.triples()[0]
    seen_subjects = set()
    for _ in range(100):
        corrupted = negative_sample(t, g, config, rng)
        assert corrupted.object == t.object
        assert corrupted != t
        seen_subjects.add(corrupted.subject)
    assert len(seen_subjects) > 1


def test_single_entity_graph_unsatisfiable():
    g = Graph()
    g.add(edu("only"), edu("self"), edu("only"))
    config = TrainConfig(corruption="both", filtered_sampling=True, seed=0)
    with pytest.raises(SamplingError):
        negative_sample(g.triples()[0], g, config, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Gradients and training
# ---------------------------------------------------------------------------


def test_inactive_hinge_gives_zero_loss_and_no_gradient():
    g = ring_graph()
    model = init_model(g, 2, seed=0)
    # positive at distance 0, negative far away
    model.entity_vecs[0] = [1.0, 0.0]
    model.relation_vecs[0] = [0.0, 0.0]
    model.entity_vecs[1] = [1.0, 0.0]
    model.entity_vecs[2] = [-5.0, 0.0]
    loss, grads = loss_and_gradients(model, (0, 0, 1), (0, 0, 2), margin=1.0)
    assert loss == 0.0
    assert grads == {}


def test_an_l2_positive_at_distance_zero_contributes_a_zero_gradient():
    g = ring_graph()
    model = init_model(g, 2, seed=0, norm=L2)
    model.entity_vecs[0] = [1.0, 0.0]
    model.relation_vecs[0] = [0.0, 0.0]
    model.entity_vecs[1] = [1.0, 0.0]
    model.entity_vecs[2] = [1.5, 0.0]  # the negative at distance 0.5 keeps the hinge active
    loss, grads = loss_and_gradients(model, (0, 0, 1), (0, 0, 2), margin=1.0)
    assert loss == 0.5
    assert np.array_equal(grads[("entity", 1)], [0.0, 0.0])  # the positive's share: no division by its zero distance
    assert np.array_equal(grads[("entity", 2)], [-1.0, 0.0]) and np.array_equal(grads[("relation", 0)], [1.0, 0.0])


@pytest.mark.parametrize("norm", [L1, L2])
def test_analytic_gradient_matches_central_differences(norm):
    rng = np.random.default_rng(2024)
    g = ring_graph(8)
    model = init_model(g, 4, seed=1)
    model.norm = norm
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 500:
        attempts += 1
        model.entity_vecs = rng.uniform(-1.5, 1.5, model.entity_vecs.shape)
        model.relation_vecs = rng.uniform(-1.5, 1.5, model.relation_vecs.shape)
        pos = tuple(int(v) for v in (rng.integers(0, 8), 0, rng.integers(0, 8)))
        neg = tuple(int(v) for v in (rng.integers(0, 8), 0, rng.integers(0, 8)))
        if len({pos[0], pos[2], neg[0], neg[2]}) < 4:
            continue  # keep the four entity rows distinct so gradients do not overlap
        loss, grads = loss_and_gradients(model, pos, neg, margin=1.0)
        if abs(loss) < 1e-6:  # too near the hinge kink for finite differences
            continue
        checked += 1
        for (kind, row), grad in grads.items():
            table = model.entity_vecs if kind == "entity" else model.relation_vecs
            saved = table[row].copy()

            def f(vec):
                table[row] = vec
                value, _ = loss_and_gradients(model, pos, neg, margin=1.0)
                table[row] = saved
                return value

            numeric = np.array(numeric_gradient(f, list(saved)))
            # scaled error: exact-zero gradients compare absolutely
            denom = max(np.max(np.abs(numeric)), np.max(np.abs(grad)), 1.0)
            assert np.max(np.abs(grad - numeric)) / denom < 1e-4
    assert checked == 100


def test_epoch_loss_trend_decreases():
    g, _ = location_graph()
    config = TrainConfig(margin=1.0, learning_rate=0.01, epochs=10, seed=4)
    model = init_model(g, 8, seed=4)
    losses = train(model, g, config)
    assert len(losses) == 10
    assert losses[-1] < losses[0]
    assert all(l >= 0.0 for l in losses)


def test_training_fully_deterministic():
    g = ring_graph()
    config = TrainConfig(margin=1.0, learning_rate=0.05, epochs=5, seed=9)
    a = init_model(g, 6, seed=9)
    train(a, g, config)
    b = init_model(g, 6, seed=9)
    train(b, g, config)
    assert np.array_equal(a.entity_vecs, b.entity_vecs)
    assert np.array_equal(a.relation_vecs, b.relation_vecs)


def test_entities_renormalized_after_each_epoch():
    g = ring_graph()
    model = init_model(g, 5, seed=2)
    train_epoch(model, g, TrainConfig(seed=2, learning_rate=0.5))
    norms = np.linalg.norm(model.entity_vecs, axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-9)


def test_lookup_layer_total_after_training():
    g = ring_graph()
    model = init_model(g, 4, seed=0)
    train(model, g, TrainConfig(epochs=3, seed=0))
    assert set(model.entities) == set(g.entities())
    assert set(model.relations) == set(g.relations())
    assert model.entity_vecs.shape[0] == len(model.entities)


# ---------------------------------------------------------------------------
# Link prediction and evaluation
# ---------------------------------------------------------------------------


def test_predict_links_ranks_held_out_composition_in_top_3():
    from helpers import CONTAINS

    train_graph, _ = location_graph()
    config = TrainConfig(margin=1.0, learning_rate=0.01, epochs=500, seed=0)
    model = init_model(train_graph, 20, seed=0)
    train(model, train_graph, config)
    # these containment pairs were held out of training; the trained model
    # should still place them among the top filtered completions
    for subject, target in (("CountryA", "CityA1a"), ("CountryB", "CityB1c"), ("RegionA1", "CityA1c")):
        top = predict_links(model, train_graph, s=edu(subject), p=CONTAINS, o=None, k=3, filtered=True)
        assert edu(target) in {t for t, _ in top}


def test_predict_links_rejects_a_literal_subject():
    g = ring_graph(4)
    g.add(edu("e0"), edu("label"), Literal("lit"))
    model = init_model(g, 2, seed=0)
    assert Literal("lit") in model.entity_index
    with pytest.raises(ValidationError, match="subject cannot be a literal"):
        predict_links(model, g, s=Literal("lit"), p=model.relations[0], o=None)


def test_load_model_text_rejects_a_zero_dimension():
    with pytest.raises(ValidationError, match="bad dimension"):
        load_model_text(f"d=0 norm=L1\nE\t<{EDU}a>\nR\t<{EDU}p>\n")


def test_predict_links_needs_the_relation_and_exactly_one_free_slot():
    g = ring_graph()
    model = init_model(g, 2, seed=0)
    with pytest.raises(ValidationError, match="^the relation must be bound$"):
        predict_links(model, g, s=edu("e0"))
    for s, o in ((edu("e0"), edu("e1")), (None, None)):
        with pytest.raises(ValidationError, match="^exactly one of subject and object must be free$"):
            predict_links(model, g, s=s, p=edu("rel"), o=o)


def test_predict_links_k_larger_than_entity_count():
    g = ring_graph(4)
    model = init_model(g, 2, seed=0)
    assert len(predict_links(model, g, s=model.entities[0], p=model.relations[0], o=None, k=99)) == 4


def test_predict_links_filtered_excludes_known_tails():
    g = ring_graph(6)
    model = init_model(g, 2, seed=0)
    s = edu("e0")
    known_tails = {t.object for t in g.match_terms(s, model.relations[0], None)}
    got = predict_links(model, g, s=s, p=model.relations[0], o=None, k=10, filtered=True)
    assert known_tails.isdisjoint({t for t, _ in got})


def test_predict_links_k_validation():
    g = ring_graph(4)
    model = init_model(g, 2, seed=0)
    with pytest.raises(ValidationError):
        predict_links(model, g, s=model.entities[0], p=model.relations[0], o=None, k=0)


def test_evaluate_perfect_model_has_mrr_one():
    g = Graph()
    g.add(edu("a"), edu("r1"), edu("b"))
    g.add(edu("c"), edu("r2"), edu("d"))
    model = init_model(g, 4, seed=0)
    # one-hot entities; relations exactly the needed translations
    for i, term in enumerate(model.entities):
        vec = np.zeros(4)
        vec[i] = 1.0
        model.entity_vecs[model.entity_id(term)] = vec
    for rel, (s, o) in ((edu("r1"), (edu("a"), edu("b"))), (edu("r2"), (edu("c"), edu("d")))):
        model.relation_vecs[model.relation_id(rel)] = (
            model.entity_vecs[model.entity_id(o)] - model.entity_vecs[model.entity_id(s)]
        )
    report = evaluate(model, g, g.triples())
    assert report.mrr == 1.0
    assert report.hits_at_1 == 1.0
    assert report.mean_rank == 1.0


def test_evaluate_random_model_mean_rank_near_expectation():
    # chain of 100 entities; a random scorer ranks the truth uniformly
    g = Graph()
    for i in range(99):
        g.add(edu(f"c{i:02d}"), edu("next"), edu(f"c{i + 1:02d}"))
    test_triples = g.triples()[:10]
    n = len(g.entities())
    assert n == 100
    means = []
    for seed in range(20):
        model = init_model(g, 8, seed=seed)
        report = evaluate(model, g, test_triples)
        means.append(report.mean_rank)
    grand_mean = sum(means) / len(means)
    expected = (n + 1) / 2
    # each mean averages 20 ranks; grand mean averages 400 uniform ranks
    sigma = math.sqrt((n * n - 1) / 12.0 / (20 * len(test_triples) * 2))
    assert abs(grand_mean - expected) < 3 * sigma


def test_evaluate_hand_computed_mrr():
    # head rank 4, tail rank 1 on a single test triple: MRR = (1/4 + 1)/2
    g = Graph()
    chain = ["s", "o", "b", "c", "d", "e"]
    for i in range(len(chain) - 1):
        g.add(edu(chain[i]), edu("link"), edu(chain[i + 1]))
    g.add(edu("e"), edu("r"), edu("e"))
    model = init_model(g, 1, seed=0)
    values = {"s": 1.0, "o": 10.0, "b": 0.5, "c": -0.25, "d": 0.1, "e": 7.0}
    for name, v in values.items():
        model.entity_vecs[model.entity_id(edu(name))] = [v]
    model.relation_vecs[model.relation_id(edu("r"))] = [10.0]
    test_triple = Triple(edu("s"), edu("r"), edu("o"))
    report = evaluate(model, g, [test_triple])
    assert report.mean_rank == (4 + 1) / 2
    assert report.mrr == pytest.approx((1 / 4 + 1) / 2)
    assert report.mrr == pytest.approx(0.625)


def test_evaluate_rejects_unknown_terms():
    g = ring_graph()
    model = init_model(g, 2, seed=0)
    alien = Triple(edu("alien"), edu("rel"), edu("e0"))
    with pytest.raises(UnknownTermError, match="alien"):
        evaluate(model, g, [alien])


def test_evaluate_without_test_triples_is_a_validation_error():
    g = ring_graph()
    model = init_model(g, 2, seed=0)
    with pytest.raises(ValidationError, match="at least one test triple"):
        evaluate(model, g, [])


def test_hits_are_monotone_in_k():
    train_graph, test = location_graph()
    model = init_model(train_graph, 8, seed=3)
    report = evaluate(model, train_graph, test)
    assert 0.0 <= report.mrr <= 1.0
    assert report.hits_at_1 <= report.hits_at_3 <= report.hits_at_10
    assert report.mean_rank >= 1.0


def test_separation_positives_score_above_corrupted_negatives():
    train_graph, _ = location_graph()
    config = TrainConfig(margin=1.0, learning_rate=0.01, epochs=100, seed=6)
    model = init_model(train_graph, 16, seed=6)
    train(model, train_graph, config)
    rng = np.random.default_rng(6)
    pos_scores, neg_scores = [], []
    for t in train_graph.triples():
        pos_scores.append(score(model, t.subject, t.predicate, t.object))
        neg = negative_sample(t, train_graph, config, rng)
        neg_scores.append(score(model, neg.subject, neg.predicate, neg.object))
    assert np.mean(pos_scores) > np.mean(neg_scores)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def test_model_tsv_round_trip_is_exact():
    g = ring_graph()
    model = init_model(g, 5, seed=13)
    train(model, g, TrainConfig(epochs=3, seed=13))
    text = dump_model(model)
    clone = load_model_text(text)
    assert clone.dim == model.dim and clone.norm == model.norm
    assert clone.entities == model.entities
    assert clone.relations == model.relations
    assert np.array_equal(clone.entity_vecs, model.entity_vecs)
    assert np.array_equal(clone.relation_vecs, model.relation_vecs)


@pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"])
def test_model_round_trips_a_literal_holding_a_line_separator_other_than_newline(char):
    g = graph_from_triples([Triple(edu("a"), edu("p"), Literal(f"x{char}y")), Triple(edu("a"), edu("p"), edu("b"))])
    model = init_model(g, 2, seed=0)
    text = dump_model(model)
    assert char in text  # written raw: N-Triples escapes none of them
    clone = load_model_text(text)
    assert clone.entities == model.entities
    assert np.array_equal(clone.entity_vecs, model.entity_vecs)


def test_model_header_format():
    model = init_model(ring_graph(), 3, seed=0, norm=L2)
    first = dump_model(model).splitlines()[0]
    assert first == "d=3 norm=L2"


# ---------------------------------------------------------------------------
# Id-space sampling and ranking against the term-level oracles
# ---------------------------------------------------------------------------


def dense_graph() -> Graph:
    # every (x, r, y) over three entities: filtered draws all hit, forcing the fallback scan
    g = Graph()
    for x in ("a", "b", "c"):
        for y in ("a", "b", "c"):
            g.add(edu(x), edu("r"), edu(y))
    return g


def _outcome(sample, triple, graph, config, seed, **kwargs):
    rng = np.random.default_rng(seed)
    try:
        result = sample(triple, graph, config, rng, **kwargs)
    except SamplingError as exc:
        result = ("SamplingError", str(exc))
    return result, rng.bit_generator.state


@pytest.mark.parametrize("corruption", ["head", "tail", "both"])
@pytest.mark.parametrize("filtered", [True, False])
def test_negative_sample_matches_term_level_oracle(corruption, filtered):
    config = TrainConfig(corruption=corruption, filtered_sampling=filtered)
    single = Graph()
    single.add(edu("only"), edu("self"), edu("only"))
    dense = dense_graph()
    graphs = [random_rdfs_graph(seed, max_triples=40) for seed in range(12)] + [dense, single]
    for g in graphs:
        sampler = _Sampler(g)
        probes = g.triples() + [Triple(edu("stranger"), edu("r"), g.entities()[0])]
        for k, t in enumerate(probes):
            expected = _outcome(oracle_negative_sample, t, g, config, k)
            assert _outcome(negative_sample, t, g, config, k) == expected, t
            assert _outcome(negative_sample, t, g, config, k, sampler=sampler) == expected, t
    if filtered:  # every corruption in the dense graph is known, so the fallback scan answers
        assert _outcome(negative_sample, dense.triples()[0], dense, config, 0)[0] in dense


@pytest.mark.parametrize("norm", [L1, L2])
def test_filtered_ranks_match_term_level_oracle(norm):
    for seed in range(12):
        g = random_rdfs_graph(seed, max_triples=60)
        triples = g.triples()
        held = random.Random(seed).sample(triples, max(1, len(triples) // 4))
        train_graph = graph_from_triples(t for t in triples if t not in held)
        model = init_model(g, 2, seed=seed, norm=norm)
        # small integer vectors: many candidates tie with the truth
        rng = np.random.default_rng(seed)
        model.entity_vecs = rng.integers(-2, 3, model.entity_vecs.shape).astype(float)
        model.relation_vecs = rng.integers(-2, 3, model.relation_vecs.shape).astype(float)
        expected = oracle_filtered_ranks(model, train_graph, held)
        assert _filtered_ranks(model, train_graph, held) == expected, f"seed {seed}"
        report = evaluate(model, train_graph, held)
        overall = _metrics([rank for _, rank in expected])
        assert RankMetrics(report.mean_rank, report.mrr, report.hits_at_1, report.hits_at_3, report.hits_at_10) == overall
        by_relation = {}
        for relation, rank in expected:
            by_relation.setdefault(relation, []).append(rank)
        assert report.per_relation == {rel: _metrics(ranks) for rel, ranks in by_relation.items()}


@pytest.mark.parametrize("filtered", [True, False])
def test_predict_links_matches_term_level_oracle(filtered):
    for seed in range(8):
        g = random_rdfs_graph(seed, max_triples=60)
        model = init_model(g, 2, seed=seed)
        rng = np.random.default_rng(seed)
        model.entity_vecs = rng.integers(-2, 3, model.entity_vecs.shape).astype(float)
        for p in model.relations:
            for t in model.entities:
                for k in (1, 4):
                    if not isinstance(t, Literal):
                        got = predict_links(model, g, s=t, p=p, k=k, filtered=filtered)
                        assert got == oracle_predict_links(model, g, t, p, None, k, filtered)
                    got = predict_links(model, g, p=p, o=t, k=k, filtered=filtered)
                    assert got == oracle_predict_links(model, g, None, p, t, k, filtered)


@pytest.mark.parametrize("norm", [L1, L2])
@pytest.mark.parametrize("dim", [1, 8, 9, 20])
def test_predict_links_values_are_the_scores_bit_for_bit(norm, dim):
    # each row's norm over a candidate matrix equals the norm of that row alone
    g = random_rdfs_graph(dim)
    model = init_model(g, dim, seed=dim, norm=norm)
    n = len(model.entities)
    for p in model.relations:
        for t in model.entities:
            if not isinstance(t, Literal):
                for candidate, value in predict_links(model, g, s=t, p=p, k=n):
                    assert value.hex() == score(model, t, p, candidate).hex()
            for candidate, value in predict_links(model, g, p=p, o=t, k=n):
                assert value.hex() == score(model, candidate, p, t).hex()


@pytest.mark.parametrize(
    "norm, sampling, digest",
    [
        (L1, {}, "e3005125bc960209f16048982d1cd5fd2cf54ad8641b29a6dcdeffe66e582ccb"),
        (L2, {"corruption": "head", "filtered_sampling": False},
         "0063d26d722b4c69307fc33b431fd9695596137926b54d2ccbd7a3fb8262b6b5"),
        (L2, {"corruption": "tail"}, "13ca5b3c92d92a3e773300a9f2638ecfc5c21ab1c4d15a6a76fc4d1faa951ef1"),
    ],
)
def test_model_file_bytes_are_pinned(norm, sampling, digest):
    # a (graph, config, seed) keeps giving the same model file byte for byte, in each norm and corruption mode
    g = random_rdfs_graph(3)
    model = init_model(g, 6, seed=5, norm=norm)
    train(model, g, TrainConfig(epochs=3, seed=5, negatives_per_positive=2, learning_rate=0.05, **sampling))
    assert hashlib.sha256(dump_model(model).encode()).hexdigest() == digest


def test_model_file_with_a_repeated_term_is_rejected():
    # ranking works on one row per term
    text = dump_model(init_model(ring_graph(), 2, seed=0))
    entity_row = next(line for line in text.splitlines() if line.startswith("E\t"))
    with pytest.raises(ValidationError, match="duplicate entity"):
        load_model_text(text + entity_row + "\n")
