"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -s` to see the lines as they print.
"""

import json
import random
import time

import numpy as np

from kgkit import (
    Graph,
    InstanceCheck,
    Literal,
    Query,
    QueryValidationError,
    TrainConfig,
    Triple,
    check_instance,
    evaluate,
    init_model,
    negative_sample,
    parse_ntriples,
    parse_query,
    parse_turtle,
    query,
    realize,
    reify_table,
    retrieve_instances,
    saturate_owl,
    saturate_rdfs,
    score,
    serialize_ntriples,
    subsumes,
    train,
    vocab,
)
from kgkit.cli import main as cli_main
from kgkit.embeddings import loss_and_gradients
from kgkit.terms import IRI

import test_io
from helpers import (
    EDU,
    GLUTEN_FREE_QUERY,
    allergen_kb,
    city_kb,
    district_kb,
    edu,
    fathers_kb,
    location_graph,
    pumpkin_kb,
    random_consistent_owl_graph,
    random_owl_graph,
    random_rdfs_graph,
)
from oracles import (
    closure_triples,
    naive_owl_closure,
    naive_rdfs_closure,
    numeric_gradient,
    oracle_partition,
    triples_of,
)
from test_reify import ROW_1, ROW_2, purchase_spec


def _report(number: int, name: str, ok: bool) -> None:
    print(f"acceptance criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_worked_example_fixtures():
    started = time.monotonic()
    ok = True

    # Example 1: each row reifies to exactly the five listed triples
    g = reify_table([ROW_1], purchase_spec())
    p1 = edu("purchase1")
    ok &= triples_of(g) == {
        (p1, vocab.RDF_TYPE, edu("Purchase")),
        (p1, edu("product"), edu("NaturalYoghurt")),
        (p1, edu("number_of_pieces"), Literal("5")),
        (p1, edu("buyer"), edu("MarcinKowalski")),
        (p1, edu("seller"), edu("Shop1")),
    }
    ok &= len(reify_table([ROW_1, ROW_2], purchase_spec())) == 10

    # the three named RDFS inferences
    ok &= Triple(edu("Warsaw"), vocab.RDF_TYPE, edu("Locality")) in saturate_rdfs(city_kb())
    district_closure = saturate_rdfs(district_kb())
    ok &= Triple(edu("Ursynow"), edu("is_part_of"), edu("Warsaw")) in district_closure
    ok &= Triple(edu("Warsaw"), vocab.RDF_TYPE, edu("City")) in district_closure

    # missing unique names: the functional property merges the two fathers
    fathers_closure, _ = saturate_owl(fathers_kb())
    ok &= Triple(edu("Jan"), vocab.OWL_SAMEAS, edu("Marcin")) in fathers_closure

    # open-world instance check on the disjointness fixture
    ok &= check_instance(pumpkin_kb(), edu("Pumpkin"), edu("Herbivore")) is InstanceCheck.INCONSISTENT_IF_ASSERTED

    # closed-world allergen query, and its open-world rejection
    q, regime = parse_query(GLUTEN_FREE_QUERY)
    answers = [b["x"] for b in query(allergen_kb(), q, regime)]
    ok &= answers == [edu("Cream"), edu("DarkSoySauce"), edu("Peanuts")]
    try:
        query(allergen_kb(), Query(q.patterns, q.negations, q.projection, "open"))
        ok = False
    except QueryValidationError:
        pass

    elapsed = time.monotonic() - started
    ok &= elapsed < 1.0
    _report(1, "worked-example fixtures exact match", ok)


def test_criterion_2_oracle_equivalence():
    started = time.monotonic()
    ok = True
    for seed in range(20):
        g = random_rdfs_graph(seed)
        ok &= closure_triples(saturate_rdfs(g)) == naive_rdfs_closure(triples_of(g))
    for seed in range(20):
        g = random_owl_graph(seed)
        closure, _ = saturate_owl(g)
        ok &= closure_triples(closure) == naive_owl_closure(triples_of(g))
    elapsed = time.monotonic() - started
    ok &= elapsed < 30.0
    _report(2, "semi-naive equals naive fixpoint oracle", ok)


def test_criterion_3_closure_algebra():
    violations = 0
    for seed in range(20):
        for make, saturate in (
            (random_rdfs_graph, lambda gr: saturate_rdfs(gr)),
            (random_owl_graph, lambda gr: saturate_owl(gr)[0]),
        ):
            g = make(seed, max_triples=60)
            closure = saturate(g)
            base, full = triples_of(g), closure_triples(closure)
            if not base <= full:
                violations += 1
            again = saturate(closure.graph)
            if closure_triples(again) != full or again.derived:
                violations += 1
            shuffled = g.triples()
            random.Random(seed).shuffle(shuffled)
            h = Graph()
            for t in shuffled:
                h.insert(t)
            if closure_triples(saturate(h)) != full:
                violations += 1
    _report(3, "idempotence, monotonicity, permutation invariance", violations == 0)


def test_criterion_4_parser_round_trip():
    ok = True
    for seed in range(50):
        g = random_rdfs_graph(seed, max_triples=80)
        text = serialize_ntriples(g)
        ok &= triples_of(parse_ntriples(text)) == triples_of(g)
        ok &= serialize_ntriples(g) == text  # byte-identical second run
    listings = [
        test_io.INVERSE_LISTING,
        test_io.FUNCTIONAL_LISTING,
        test_io.TRANSITIVE_LISTING,
        test_io.RESTRICTION_LISTING,
        test_io.BOY_LISTING,
    ]
    expected_sizes = [2, 2, 4, 5, 8]
    for listing, size in zip(listings, expected_sizes):
        ok &= len(parse_turtle(listing).graph) == size
    # full expected triple sets for these listings are asserted in test_io
    _report(4, "parse-serialize identity and ontology listings", ok)


def test_criterion_5_frames_export_inference_agreement():
    from test_frames import ten_frame_fixture

    fs = ten_frame_fixture()
    closure = saturate_rdfs(fs.to_graph())
    ns = fs.namespace
    ok = True
    for name, frame in fs.frames.items():
        if frame.kind != "individual":
            continue
        reach, stack = set(), list(frame.parents)
        while stack:
            nxt = stack.pop()
            if nxt in reach:
                continue
            reach.add(nxt)
            parent = fs.frames.get(nxt)
            if parent is not None:
                stack.extend(parent.parents)
        for ancestor in reach:
            ok &= Triple(IRI(ns + name), vocab.RDF_TYPE, IRI(ns + ancestor)) in closure
    # defined beats inherited default
    got = fs.get_slot("carrot1", "colour")
    ok &= got is not None and got.value == "orange" and got.frame == "Carrots"
    _report(5, "frame export rederived by the rule engine", ok)


def test_criterion_6_gradient_check():
    rng = np.random.default_rng(424242)
    g = Graph()
    for i in range(8):
        g.add(edu(f"g{i}"), edu("r"), edu(f"g{(i + 3) % 8}"))
    model = init_model(g, 4, seed=0)
    ok = True
    checked = 0
    while checked < 100:
        model.entity_vecs = rng.uniform(-1.5, 1.5, model.entity_vecs.shape)
        model.relation_vecs = rng.uniform(-1.5, 1.5, model.relation_vecs.shape)
        pos = (int(rng.integers(0, 8)), 0, int(rng.integers(0, 8)))
        neg = (int(rng.integers(0, 8)), 0, int(rng.integers(0, 8)))
        if len({pos[0], pos[2], neg[0], neg[2]}) < 4:
            continue
        loss, grads = loss_and_gradients(model, pos, neg, margin=1.0)
        if abs(loss) < 1e-6:  # hinge kink excluded
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
            denom = max(np.max(np.abs(numeric)), np.max(np.abs(grad)), 1.0)
            ok &= float(np.max(np.abs(grad - numeric)) / denom) < 1e-4
    _report(6, "analytic gradient matches finite differences", ok)


def test_criterion_7_desk_scale_link_prediction():
    started = time.monotonic()
    train_graph, test_triples = location_graph()
    config = TrainConfig(margin=1.0, learning_rate=0.01, epochs=500, seed=0)
    model = init_model(train_graph, 20, seed=0)
    train(model, train_graph, config)
    report = evaluate(model, train_graph, test_triples)
    ok = report.hits_at_10 >= 0.8

    rng = np.random.default_rng(0)
    positives, negatives = [], []
    for t in train_graph.triples():
        positives.append(score(model, t.subject, t.predicate, t.object))
        neg = negative_sample(t, train_graph, config, rng)
        negatives.append(score(model, neg.subject, neg.predicate, neg.object))
    ok &= float(np.mean(positives)) > float(np.mean(negatives))

    elapsed = time.monotonic() - started
    ok &= elapsed < 60.0
    _report(7, f"filtered hits@10 {report.hits_at_10:.2f} >= 0.8 on held-out set", ok)


def test_criterion_8_reasoning_task_contracts():
    ok = True
    # realize outputs are antichains under subsumes
    fixtures = [city_kb(), district_kb(), fathers_kb()]
    for seed in range(10):
        fixtures.append(random_consistent_owl_graph(seed, max_triples=40))
    for g in fixtures:
        closure, _ = saturate_owl(g)
        individuals = sorted(
            {t.subject for t in closure.graph.match_terms(None, vocab.RDF_TYPE, None)},
            key=repr,
        )[:4]
        for ind in individuals:
            result = realize(g, ind)
            for c in result:
                for d in result:
                    if c != d and subsumes(g, c, d) and not subsumes(g, d, c):
                        ok = False
        # retrieve_instances agrees with per-individual check_instance
        classes = sorted(
            {t.object for t in closure.graph.match_terms(None, vocab.RDF_TYPE, None) if isinstance(t.object, IRI)},
            key=repr,
        )[:3]
        all_individuals = {t.subject for t in closure.graph.match_terms(None, vocab.RDF_TYPE, None)}
        representative = oracle_partition(closure.graph)
        for cls in classes:
            got = retrieve_instances(g, cls)
            expected = {
                representative(i)
                for i in all_individuals
                if check_instance(g, i, cls) is InstanceCheck.ENTAILED
            }
            ok &= got == expected
    # trichotomy on 10 random consistent KBs
    for seed in range(10):
        g = random_consistent_owl_graph(seed + 500, max_triples=30)
        closure, _ = saturate_owl(g)
        typed = list(closure.graph.match_terms(None, vocab.RDF_TYPE, None))[:2]
        for t in typed:
            verdict = check_instance(g, t.subject, t.object)
            ok &= verdict is InstanceCheck.ENTAILED  # asserted types are entailed
        ok &= check_instance(g, edu("fresh-individual"), edu("FreshClass")) is InstanceCheck.NOT_ENTAILED
    _report(8, "realize/retrieve/check-instance contracts", ok)


def test_criterion_9_determinism(tmp_path, capsys):
    ok = True
    # model files byte-identical across two seeded trainings
    lines = []
    for i in range(10):
        lines.append(f"<{EDU}d{i}> <{EDU}next> <{EDU}d{(i + 1) % 10}> .")
    kb = tmp_path / "chain.nt"
    kb.write_text("\n".join(lines) + "\n", encoding="utf-8")
    m1, m2 = tmp_path / "m1.tsv", tmp_path / "m2.tsv"
    args = ["embed", "train", str(kb), "--dim", "8", "--epochs", "25", "--seed", "7"]
    ok &= cli_main(args + ["--model", str(m1)]) == 0
    ok &= cli_main(args + ["--model", str(m2)]) == 0
    ok &= m1.read_bytes() == m2.read_bytes()

    # closures byte-identical
    for seed in range(3):
        g = random_owl_graph(seed, max_triples=50)
        first, _ = saturate_owl(g)
        second, _ = saturate_owl(g)
        ok &= serialize_ntriples(first.graph) == serialize_ntriples(second.graph)

    # query output byte-identical across runs
    allergens = tmp_path / "allergens.ttl"
    from helpers import ALLERGEN_TTL

    allergens.write_text(ALLERGEN_TTL, encoding="utf-8")
    qf = tmp_path / "q.txt"
    qf.write_text(GLUTEN_FREE_QUERY, encoding="utf-8")
    capsys.readouterr()
    ok &= cli_main(["query", str(allergens), str(qf)]) == 0
    out1 = capsys.readouterr().out
    ok &= cli_main(["query", str(allergens), str(qf)]) == 0
    out2 = capsys.readouterr().out
    ok &= out1 == out2 and bool(json.loads(out1))
    _report(9, "bit-identical training, closures and query output", ok)
