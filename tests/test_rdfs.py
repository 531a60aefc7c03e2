import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from kgkit import BlankNode, Graph, Literal, Triple, ValidationError, entails, saturate_owl, saturate_rdfs, vocab
from kgkit.rdfs import RDFS_RULES, _fixpoint, fixpoint_stats
from kgkit.terms import triple_sort_key

from helpers import city_kb, closure_state, district_kb, edu, pets_updates, random_rdfs_graph, shuffled_batches
from oracles import closure_triples, naive_rdfs_closure, oracle_rdfs_derivation_holds, oracle_rdfs_derived, triples_of


def test_subclass_inference_city_locality():
    closure = saturate_rdfs(city_kb())
    assert Triple(edu("Warsaw"), vocab.RDF_TYPE, edu("Locality")) in closure


def test_subproperty_inference_district():
    closure = saturate_rdfs(district_kb())
    assert Triple(edu("Ursynow"), edu("is_part_of"), edu("Warsaw")) in closure


def test_range_inference_district():
    closure = saturate_rdfs(district_kb())
    assert Triple(edu("Warsaw"), vocab.RDF_TYPE, edu("City")) in closure


def test_domain_inference():
    g = Graph()
    g.add(edu("p"), vocab.RDFS_DOMAIN, edu("C1"))
    g.add(edu("e1"), edu("p"), edu("e2"))
    closure = saturate_rdfs(g)
    assert Triple(edu("e1"), vocab.RDF_TYPE, edu("C1")) in closure


def test_empty_graph_empty_closure():
    closure = saturate_rdfs(Graph())
    assert len(closure.graph) == 0
    assert not closure.derived


def test_base_and_derived_are_disjoint_and_cover_the_closure():
    closure = saturate_rdfs(district_kb())
    base = triples_of(closure.base)
    derived = {(t.subject, t.predicate, t.object) for t in closure.derived}
    assert base & derived == set()
    assert base | derived == closure_triples(closure)


def test_provenance_premises_are_in_the_closure():
    closure = saturate_rdfs(district_kb())
    assert closure.derived
    for triple, derivation in closure.provenance.items():
        assert triple in closure.derived
        assert derivation.rule
        for premise in derivation.premises:
            assert premise in closure.graph


def test_entails_subclass_consequence_and_membership():
    kb = city_kb()
    assert entails(kb, Triple(edu("Warsaw"), vocab.RDF_TYPE, edu("Locality")))
    # anything already asserted is entailed
    assert entails(kb, Triple(edu("Warsaw"), vocab.RDF_TYPE, edu("City")))


def test_entails_rejects_non_derivable():
    kb = city_kb()
    target = (edu("Poland"), vocab.RDF_TYPE, edu("City"))
    assert target not in naive_rdfs_closure(triples_of(kb))
    assert not entails(kb, Triple(*target))


def test_entails_matches_fixpoint_membership_exactly():
    # sound and complete relative to the rule set: true iff in the fixpoint
    for seed in range(5):
        g = random_rdfs_graph(seed, max_triples=40)
        fixpoint = naive_rdfs_closure(triples_of(g))
        closure = saturate_rdfs(g)
        assert closure_triples(closure) == fixpoint
        probe = sorted(fixpoint, key=repr)[:10]
        for t in probe:
            assert entails(g, Triple(*t))


def test_semi_naive_equals_naive_oracle_twenty_seeds():
    for seed in range(20):
        g = random_rdfs_graph(seed)
        assert closure_triples(saturate_rdfs(g)) == naive_rdfs_closure(triples_of(g))


def test_monotonicity_graph_contained_in_closure():
    for seed in range(10):
        g = random_rdfs_graph(seed, max_triples=50)
        assert triples_of(g) <= closure_triples(saturate_rdfs(g))


def test_monotonicity_under_graph_extension():
    for seed in range(5):
        g = random_rdfs_graph(seed, max_triples=30)
        bigger = g.copy()
        extra = random_rdfs_graph(seed + 1000, max_triples=20)
        for t in extra.triples():
            bigger.insert(t)
        assert closure_triples(saturate_rdfs(g)) <= closure_triples(saturate_rdfs(bigger))


def test_idempotence():
    for seed in range(5):
        g = random_rdfs_graph(seed, max_triples=50)
        once = saturate_rdfs(g)
        twice = saturate_rdfs(once.graph)
        assert closure_triples(twice) == closure_triples(once)
        assert not twice.derived


def test_input_permutation_invariance():
    for seed in range(5):
        g = random_rdfs_graph(seed, max_triples=50)
        triples = g.triples()
        rng = random.Random(seed)
        for _ in range(3):
            rng.shuffle(triples)
            h = Graph()
            for t in triples:
                h.insert(t)
            assert closure_triples(saturate_rdfs(h)) == closure_triples(saturate_rdfs(g))


def test_cyclic_subclass_hierarchies_terminate_with_mutual_subsumption():
    g = Graph()
    g.add(edu("A"), vocab.RDFS_SUBCLASSOF, edu("B"))
    g.add(edu("B"), vocab.RDFS_SUBCLASSOF, edu("A"))
    g.add(edu("x"), vocab.RDF_TYPE, edu("A"))
    closure = saturate_rdfs(g)
    assert Triple(edu("x"), vocab.RDF_TYPE, edu("B")) in closure
    assert Triple(edu("A"), vocab.RDFS_SUBCLASSOF, edu("A")) in closure


def test_fixpoint_inserts_only_well_formed_candidates():
    g = Graph()
    g.add(edu("a"), edu("p"), Literal("lit"))
    a, p, lit = (g.lookup(t) for t in (edu("a"), edu("p"), Literal("lit")))
    blank = g.intern(BlankNode("b"))

    def toy(work, delta):
        for s, q, o in delta:
            yield (o, q, s), "toy-literal-subject", ((s, q, o),)
            yield (s, blank, o), "toy-blank-predicate", ((s, q, o),)
            yield (s, q, s), "toy-well-formed", ((s, q, o),)

    with fixpoint_stats() as runs:
        assert _fixpoint(g, [toy], g.triple_ids()) == set()
    assert set(g.triple_ids()) == {(a, p, lit), (a, p, a)}
    assert runs[0].new == Counter({"toy-well-formed": 1})


def test_partition_of_an_rdfs_closure_is_refused():
    # RDFS does not close sameAs, so reading classes off its closure would give c its own class
    g = Graph()
    g.add(edu("b"), vocab.OWL_SAMEAS, edu("c"))
    g.add(edu("a"), vocab.OWL_SAMEAS, edu("b"))
    with pytest.raises(ValidationError, match="needs an OWL closure"):
        saturate_rdfs(g).partition
    assert saturate_owl(g)[0].partition.representative(edu("c")) == edu("a")


@settings(max_examples=80)
@given(st.integers(min_value=0, max_value=10**6), st.randoms(use_true_random=False), st.integers(1, 6))
def test_resuming_after_each_shuffled_batch_equals_saturation_from_scratch(seed, rng, batches):
    source = random_rdfs_graph(seed, max_triples=40)
    g = Graph()
    for batch in shuffled_batches(rng, source.triples(), batches):
        for t in batch:
            g.insert(t)
        resumed = saturate_rdfs(g)  # resumes from the batch on a copy of the cached closure
    fresh = saturate_rdfs(source.copy())
    assert closure_triples(resumed) == closure_triples(fresh) == naive_rdfs_closure(triples_of(source))
    assert resumed.derived == fresh.derived
    assert resumed.report == fresh.report


def test_closures_stay_snapshots_across_resumes():
    # each resume works on a copy that shares the index entries of the closure before it
    g, updates, late = pets_updates()
    closures = [saturate_rdfs(g)]
    states = [closure_state(closures[0])]
    for batch in updates:
        for t in batch:
            g.insert(t)
        with fixpoint_stats() as runs:
            resumed = saturate_rdfs(g)
        assert runs[0].deltas[0] == len(batch)  # resumed from the batch alone
        for closure, state in zip(closures, states):
            assert closure_state(closure) == state
        fresh = saturate_rdfs(g.copy())
        assert closure_triples(resumed) == closure_triples(fresh) == naive_rdfs_closure(triples_of(g))
        assert resumed.derived == fresh.derived and resumed.report == fresh.report
        closures.append(resumed)
        states.append(closure_state(resumed))

    # after a fresh saturation, the input graph copies the entries it shares with the closure before writing
    h = g.copy()
    closure = saturate_rdfs(h)
    state = closure_state(closure)
    for t in late:
        h.insert(t)
    assert closure_state(closure) == state
    assert closure_triples(saturate_rdfs(h)) == naive_rdfs_closure(triples_of(h))


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**6), st.randoms(use_true_random=False), st.integers(1, 6))
def test_derived_and_provenance_agree_with_the_naive_closure_after_each_shuffled_batch(seed, rng, batches):
    def assert_agree(closure):
        asserted = triples_of(g)
        assert {(t.subject, t.predicate, t.object) for t in closure.derived} == oracle_rdfs_derived(asserted)
        assert closure.provenance.keys() == closure.derived
        expected = naive_rdfs_closure(asserted)
        for triple, derivation in closure.provenance.items():
            assert oracle_rdfs_derivation_holds(triple, derivation, expected), (triple, derivation)

    source = random_rdfs_graph(seed, max_triples=40)
    g = Graph()
    for batch in shuffled_batches(rng, source.triples(), batches):
        for t in batch:
            g.insert(t)
        closure = saturate_rdfs(g)
        assert_agree(closure)
    if closure.derived:  # a derived triple asserted later is derived no more
        t = rng.choice(sorted(closure.derived, key=triple_sort_key))
        g.insert(t)
        again = saturate_rdfs(g)
        assert t not in again.derived and t not in again.provenance
        assert again.derived == closure.derived - {t}
        assert_agree(again)


def test_one_round_reads_a_class_superclasses_once_and_yields_only_missing_types(monkeypatch):
    g = Graph()
    for k in range(5):
        g.add(edu("C"), vocab.RDFS_SUBCLASSOF, edu(f"D{k}"))
    g.add(edu("p"), vocab.RDFS_DOMAIN, edu("D0"))
    g.add(edu("p"), vocab.RDFS_RANGE, edu("D1"))
    for i in range(0, 1000, 2):
        g.add(edu(f"x{i}"), vocab.RDF_TYPE, edu("D0"))  # half of them are in D0 already
    for i in range(0, 1000, 4):
        g.add(edu(f"x{i}"), vocab.RDF_TYPE, edu("D1"))
    work = saturate_rdfs(g).graph.copy()
    typ, sco, c, p = (work.lookup(t) for t in (vocab.RDF_TYPE, vocab.RDFS_SUBCLASSOF, edu("C"), edu("p")))
    xs = [work.intern(edu(f"x{i}")) for i in range(1000)]
    delta = [(x, typ, c) for x in xs] + [(x, p, xs[(i + 1) % 1000]) for i, x in enumerate(xs)]
    for t in delta:
        work.insert_ids(t)
    supers = sorted(work.objects(c, sco))
    missing = [(x, typ, d) for x in xs for d in supers if not work.contains_ids((x, typ, d))]
    assert len(missing) == 5000 - 500 - 250

    reads = Counter()
    real = Graph.objects
    monkeypatch.setattr(Graph, "objects", lambda self, s, q: reads.update([(s, q)]) or real(self, s, q))
    before = set(work.triple_ids())
    with fixpoint_stats() as runs:
        _fixpoint(work, RDFS_RULES, delta)
    [stats] = runs
    assert reads[(c, sco)] == 1
    assert stats.deltas == [2000, len(missing)]
    assert set(work.triple_ids()) - before == set(missing)
    # every candidate of the three typing rules is a triple the graph lacked: type
    # propagation finds each missing one once, domain and range the ones in D0 and D1
    assert stats.candidates["rdfs-type-propagation"] == stats.new["rdfs-type-propagation"] == len(missing)
    assert stats.candidates["rdfs-domain"] == sum(d == supers[0] for _, _, d in missing) == 500
    assert stats.candidates["rdfs-range"] == sum(d == supers[1] for _, _, d in missing) == 750
