import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from kgkit import (
    BlankNode,
    EqualityPartition,
    Graph,
    IRI,
    InconsistentKBError,
    Literal,
    InstanceCheck,
    Triple,
    check_instance,
    is_consistent,
    is_satisfiable,
    parse_query,
    parse_turtle,
    query,
    realize,
    retrieve_instances,
    saturate_owl,
    saturate_rdfs,
    subsumes,
    vocab,
)
from kgkit import owl, rdfs
from kgkit.owl import OWL_RULES, _breaks, _collect_violations
from kgkit.rdfs import _fixpoint
from kgkit.terms import sort_key, triple_sort_key

from helpers import (
    EDU,
    NS,
    city_kb,
    edu,
    fathers_kb,
    pumpkin_kb,
    random_consistent_owl_graph,
    random_owl_graph,
    random_rdfs_graph,
    shuffled_batches,
)
import oracles
from oracles import closure_triples, naive_owl_closure, naive_violation_rules, triples_of

N = lambda name: IRI(NS + name)  # noqa: E731


# ---------------------------------------------------------------------------
# Rule behavior on the worked examples
# ---------------------------------------------------------------------------


def test_functional_property_derives_sameas():
    closure, report = saturate_owl(fathers_kb())
    assert Triple(edu("Jan"), vocab.OWL_SAMEAS, edu("Marcin")) in closure
    assert not report.violations


def test_transitive_property_composes():
    g = Graph()
    g.add(edu("is_part_of"), vocab.RDF_TYPE, vocab.OWL_TRANSITIVEPROPERTY)
    g.add(edu("Ursynow"), edu("is_part_of"), edu("Warsaw"))
    g.add(edu("Warsaw"), edu("is_part_of"), edu("Poland"))
    closure, _ = saturate_owl(g)
    # one hand application of the composition rule gives exactly this triple
    assert Triple(edu("Ursynow"), edu("is_part_of"), edu("Poland")) in closure
    assert closure_triples(closure) == naive_owl_closure(triples_of(g))


def test_inverse_property_bidirectional():
    g = Graph()
    g.add(edu("is_parent_of"), vocab.OWL_INVERSEOF, edu("has_parent"))
    g.add(edu("Jan"), edu("is_parent_of"), edu("Ola"))
    closure, _ = saturate_owl(g)
    assert Triple(edu("Ola"), edu("has_parent"), edu("Jan")) in closure
    g2 = Graph()
    g2.add(edu("is_parent_of"), vocab.OWL_INVERSEOF, edu("has_parent"))
    g2.add(edu("Ola"), edu("has_parent"), edu("Jan"))
    closure2, _ = saturate_owl(g2)
    assert Triple(edu("Jan"), edu("is_parent_of"), edu("Ola")) in closure2


def test_inverse_maps_each_triple_once_and_skips_images_already_there():
    g = Graph()
    g.add(edu("p"), vocab.OWL_INVERSEOF, edu("q"))
    for i in range(100):
        g.add(edu(f"x{i}"), edu("p"), edu(f"y{i}"))
    with rdfs.fixpoint_stats() as runs:
        closure, _ = saturate_owl(g)
    [stats] = runs
    # the declaration's own branch maps the 100 new p triples; the data branch skips
    # that declaration, and the q images map back only to p triples already there
    assert stats.candidates["owl-inverse-property"] == stats.new["owl-inverse-property"] == 100
    assert all(Triple(edu(f"y{i}"), edu("q"), edu(f"x{i}")) in closure for i in range(100))


def test_intersection_membership_through_equivalence():
    rep = parse_turtle(
        """
        :Boy owl:equivalentClass [ owl:intersectionOf ( :Child :Man ) ] .
        :x rdf:type :Child .
        :x rdf:type :Man .
        """
    )
    closure, _ = saturate_owl(rep.graph)
    assert Triple(N("x"), vocab.RDF_TYPE, N("Boy")) in closure


def test_union_membership():
    rep = parse_turtle(
        """
        :Animal owl:unionOf ( :Herbivore :Carnivore ) .
        :Pumpkin rdf:type :Carnivore .
        """
    )
    closure, _ = saturate_owl(rep.graph)
    assert Triple(N("Pumpkin"), vocab.RDF_TYPE, N("Animal")) in closure


def test_somevaluesfrom_recognition():
    rep = parse_turtle(
        """
        :MeatEater owl:onProperty :eats ; owl:someValuesFrom :Meat .
        :lion :eats :gazelle .
        :gazelle rdf:type :Meat .
        """
    )
    closure, _ = saturate_owl(rep.graph)
    assert Triple(N("lion"), vocab.RDF_TYPE, N("MeatEater")) in closure


def test_allvaluesfrom_propagation():
    rep = parse_turtle(
        """
        :Vegetarian owl:onProperty :eats ; owl:allValuesFrom :VegetarianProduct .
        :anna rdf:type :Vegetarian .
        :anna :eats :carrot .
        """
    )
    closure, _ = saturate_owl(rep.graph)
    assert Triple(N("carrot"), vocab.RDF_TYPE, N("VegetarianProduct")) in closure


def test_disjointness_violation_recorded_not_raised():
    closure, report = saturate_owl(pumpkin_kb(contradictory=True))
    assert report.violations
    assert {v.rule for v in report.violations} == {"owl-disjoint-classes"}
    # the conflicting triples are cited
    cited = {t for v in report.violations for t in v.triples}
    assert Triple(edu("Pumpkin"), vocab.RDF_TYPE, edu("Carnivore")) in cited


def test_sameas_substitution_reaches_all_positions():
    g = Graph()
    g.add(edu("MadameCurie"), vocab.OWL_SAMEAS, edu("MariaSklodowskaCurie"))
    g.add(edu("MadameCurie"), edu("discipline"), edu("Chemistry"))
    g.add(edu("Poland"), edu("birthplace_of"), edu("MadameCurie"))
    closure, _ = saturate_owl(g)
    assert Triple(edu("MariaSklodowskaCurie"), edu("discipline"), edu("Chemistry")) in closure
    assert Triple(edu("Poland"), edu("birthplace_of"), edu("MariaSklodowskaCurie")) in closure
    assert Triple(edu("MariaSklodowskaCurie"), vocab.OWL_SAMEAS, edu("MadameCurie")) in closure


# ---------------------------------------------------------------------------
# Consistency checking
# ---------------------------------------------------------------------------


def test_is_consistent_pumpkin_contradiction():
    ok, report = is_consistent(pumpkin_kb(contradictory=True))
    assert not ok
    assert any(v.rule == "owl-disjoint-classes" for v in report.violations)


def test_is_consistent_sameas_differentfrom():
    g = Graph()
    g.add(edu("a"), vocab.OWL_SAMEAS, edu("b"))
    g.add(edu("a"), vocab.OWL_DIFFERENTFROM, edu("b"))
    ok, report = is_consistent(g)
    assert not ok
    assert any(v.rule == "owl-sameas-differentfrom" for v in report.violations)


def test_is_consistent_empty_graph():
    ok, report = is_consistent(Graph())
    assert ok and not report.violations


def test_alldifferent_violation():
    rep = parse_turtle(
        """
        _:d rdf:type owl:AllDifferent ; owl:distinctMembers ( :Jan :Marcin :Ola ) .
        :Jan owl:sameAs :Marcin .
        """
    )
    ok, report = is_consistent(rep.graph)
    assert not ok
    assert any(v.rule == "owl-alldifferent" for v in report.violations)


def test_nothing_membership_is_a_violation():
    g = Graph()
    g.add(edu("x"), vocab.RDF_TYPE, vocab.OWL_NOTHING)
    ok, report = is_consistent(g)
    assert not ok
    assert any(v.rule == "owl-nothing-member" for v in report.violations)


# ---------------------------------------------------------------------------
# Reasoning tasks
# ---------------------------------------------------------------------------


def test_check_instance_pumpkin_inconsistent_if_asserted():
    assert check_instance(pumpkin_kb(), edu("Pumpkin"), edu("Herbivore")) is InstanceCheck.INCONSISTENT_IF_ASSERTED


def test_check_instance_entailed():
    assert check_instance(city_kb(), edu("Warsaw"), edu("Locality")) is InstanceCheck.ENTAILED


def test_check_instance_not_entailed_open_world():
    assert check_instance(city_kb(), edu("Warsaw"), edu("Carnivore")) is InstanceCheck.NOT_ENTAILED


def test_check_instance_requires_consistent_kb():
    with pytest.raises(InconsistentKBError) as err:
        check_instance(pumpkin_kb(contradictory=True), edu("Pumpkin"), edu("Herbivore"))
    assert err.value.report.violations


def test_owa_no_negative_verdict_without_axioms():
    # allergen-style KB with no negative facts: absence stays NOT_ENTAILED
    g = Graph()
    g.add(edu("Cream"), edu("contains_allergen"), edu("milk"))
    g.add(edu("Cream"), vocab.RDF_TYPE, edu("Product"))
    assert check_instance(g, edu("Cream"), edu("GlutenFree")) is InstanceCheck.NOT_ENTAILED


def test_check_instance_trichotomy_on_random_consistent_kbs():
    for seed in range(10):
        g = random_consistent_owl_graph(seed, max_triples=40)
        closure, _ = saturate_owl(g)
        individuals = [t.subject for t in closure.graph.match_terms(None, vocab.RDF_TYPE, None)][:3]
        classes = [t.object for t in closure.graph.match_terms(None, vocab.RDF_TYPE, None) if isinstance(t.object, IRI)][:3]
        for ind in individuals:
            for cls in classes:
                verdict = check_instance(g, ind, cls)
                assert verdict in (
                    InstanceCheck.ENTAILED,
                    InstanceCheck.NOT_ENTAILED,
                    InstanceCheck.INCONSISTENT_IF_ASSERTED,
                )
                if verdict is InstanceCheck.ENTAILED:
                    probe = g.copy()
                    probe.insert(Triple(ind, vocab.RDF_TYPE, cls))
                    ok, _ = is_consistent(probe)
                    assert ok


def test_probing_tasks_saturate_the_kb_once(monkeypatch):
    calls = []
    saturate = owl.saturate_owl
    monkeypatch.setattr(owl, "saturate_owl", lambda g: calls.append(g) or saturate(g))
    assert check_instance(pumpkin_kb(), edu("Pumpkin"), edu("Herbivore")) is InstanceCheck.INCONSISTENT_IF_ASSERTED
    assert len(calls) == 1
    g = Graph()
    g.add(edu("C"), vocab.RDFS_SUBCLASSOF, edu("Herbivore"))
    g.add(edu("C"), vocab.RDFS_SUBCLASSOF, edu("Carnivore"))
    g.add(edu("Herbivore"), vocab.OWL_DISJOINTWITH, edu("Carnivore"))
    assert not is_satisfiable(g, edu("C"))
    assert len(calls) == 2


def test_retrieve_instances_city_kb():
    assert retrieve_instances(city_kb(), edu("Locality")) == {edu("Warsaw")}


def test_retrieve_instances_empty_class():
    assert retrieve_instances(city_kb(), edu("Carnivore")) == set()


def test_retrieve_instances_reified_purchases():
    from test_reify import ROW_1, ROW_2, purchase_spec

    from kgkit import reify_table

    g = reify_table([ROW_1, ROW_2], purchase_spec())
    assert retrieve_instances(g, edu("Purchase")) == {edu("purchase1"), edu("purchase2")}


def test_retrieve_agrees_with_check_instance():
    for seed in range(5):
        g = random_consistent_owl_graph(seed + 50, max_triples=30)
        closure, _ = saturate_owl(g)
        individuals = {t.subject for t in closure.graph.match_terms(None, vocab.RDF_TYPE, None)}
        classes = {t.object for t in closure.graph.match_terms(None, vocab.RDF_TYPE, None) if isinstance(t.object, IRI)}
        partition = EqualityPartition.from_graph(closure.graph)
        for cls in sorted(classes, key=sort_key)[:4]:
            got = retrieve_instances(g, cls)
            expected = {
                partition.representative(ind)
                for ind in individuals
                if check_instance(g, ind, cls) is InstanceCheck.ENTAILED
            }
            assert got == expected


def test_realize_city():
    assert realize(city_kb(), edu("Warsaw")) == {edu("City")}


def test_realize_untyped_individual_is_empty():
    g = Graph()
    g.add(edu("a"), edu("p"), edu("b"))
    assert realize(g, edu("a")) == set()


def test_realize_intersection_example():
    rep = parse_turtle(
        """
        :Boy owl:equivalentClass [ owl:intersectionOf ( :Child :Man ) ] .
        :x rdf:type :Child .
        :x rdf:type :Man .
        """
    )
    assert realize(rep.graph, N("x")) == {N("Boy")}


def test_union_members_are_subclasses_of_the_union():
    rep = parse_turtle(
        """
        :C owl:unionOf ( :M :N ) .
        :x rdf:type :M .
        """
    )
    assert realize(rep.graph, N("x")) == {N("M")}
    assert subsumes(rep.graph, N("C"), N("M"))
    assert subsumes(rep.graph, N("C"), N("N"))
    assert not subsumes(rep.graph, N("M"), N("C"))
    assert N("x") in retrieve_instances(rep.graph, N("C"))


def test_realize_returns_all_equivalent_classes():
    g = Graph()
    g.add(edu("Country"), vocab.OWL_EQUIVALENTCLASS, edu("State"))
    g.add(edu("Poland"), vocab.RDF_TYPE, edu("Country"))
    assert realize(g, edu("Poland")) == {edu("Country"), edu("State")}


def test_realize_output_is_an_antichain():
    for seed in range(5):
        g = random_consistent_owl_graph(seed + 100, max_triples=40)
        closure, _ = saturate_owl(g)
        individuals = sorted(
            {t.subject for t in closure.graph.match_terms(None, vocab.RDF_TYPE, None)}, key=sort_key
        )[:4]
        for ind in individuals:
            result = realize(g, ind)
            for c in result:
                for d in result:
                    if c != d:
                        strictly_more_specific = subsumes(g, c, d) and not subsumes(g, d, c)
                        assert not strictly_more_specific


def test_retrieve_instances_and_realize_agree_with_the_oracles_on_kbs_with_sameas():
    checked = 0
    for seed in range(40):
        g = random_consistent_owl_graph(seed + 200, max_triples=30)
        if not any(p == vocab.OWL_SAMEAS for _, p, _ in triples_of(g)):
            continue
        checked += 1
        ts = naive_owl_closure(triples_of(g))
        typed = {(x, c) for x, p, c in ts if p == vocab.RDF_TYPE}
        for cls in {c for _, c in typed} | {edu("absent")}:
            assert retrieve_instances(g, cls) == oracles.oracle_retrieve_instances(ts, cls), f"seed {seed}, {cls}"
        for x in {x for x, _ in typed} | {edu("absent")}:
            assert realize(g, x) == oracles.oracle_realize(ts, x), f"seed {seed}, {x}"
    assert checked >= 10


def test_read_tasks_build_no_triple_from_the_closure(monkeypatch):
    g = Graph()
    g.add(edu("b"), vocab.OWL_SAMEAS, edu("a"))
    g.add(edu("b"), vocab.RDF_TYPE, edu("City"))
    g.add(edu("City"), vocab.RDFS_SUBCLASSOF, edu("Locality"))
    saturate_owl(g)

    def refuse(*args, **kwargs):
        raise AssertionError("a Triple was built from the closure")

    monkeypatch.setattr(Graph, "_to_triple", refuse)
    monkeypatch.setattr(Graph, "match_terms", refuse)
    assert retrieve_instances(g, edu("Locality")) == {edu("a")}
    assert realize(g, edu("b")) == {edu("City")}
    q, _ = parse_query(f"PREFIX edu: <{EDU}>\n?x rdf:type edu:Locality")
    assert query(g, q, "owl") == [{"x": edu("a")}]


def test_subsumes_basics():
    kb = city_kb()
    assert subsumes(kb, edu("Locality"), edu("City"))
    assert not subsumes(kb, edu("City"), edu("Locality"))
    # reflexive for any mentioned class
    assert subsumes(kb, edu("City"), edu("City"))
    assert not subsumes(kb, edu("Ghost"), edu("Ghost"))


def test_subsumes_equivalence_both_directions():
    g = Graph()
    g.add(edu("Country"), vocab.OWL_EQUIVALENTCLASS, edu("State"))
    assert subsumes(g, edu("Country"), edu("State"))
    assert subsumes(g, edu("State"), edu("Country"))


def test_is_satisfiable_conjoined_disjoint_superclasses():
    g = Graph()
    g.add(edu("C"), vocab.RDFS_SUBCLASSOF, edu("Herbivore"))
    g.add(edu("C"), vocab.RDFS_SUBCLASSOF, edu("Carnivore"))
    g.add(edu("Herbivore"), vocab.OWL_DISJOINTWITH, edu("Carnivore"))
    assert not is_satisfiable(g, edu("C"))
    assert is_satisfiable(g, edu("Herbivore"))


def test_is_satisfiable_without_negative_axioms_is_true():
    assert is_satisfiable(city_kb(), edu("City"))
    assert is_satisfiable(city_kb(), edu("NeverSeen"))


def test_is_satisfiable_meat_and_its_complement():
    rep = parse_turtle(":Impossible owl:intersectionOf ( :Meat [ owl:complementOf :Meat ] ) .")
    assert not is_satisfiable(rep.graph, N("Impossible"))


# ---------------------------------------------------------------------------
# Equality partition
# ---------------------------------------------------------------------------


def test_partition_is_an_equivalence_relation():
    g = Graph()
    g.add(edu("a"), vocab.OWL_SAMEAS, edu("b"))
    g.add(edu("b"), vocab.OWL_SAMEAS, edu("c"))
    g.add(edu("x"), vocab.OWL_SAMEAS, edu("y"))
    closure, _ = saturate_owl(g)
    part = EqualityPartition.from_graph(closure.graph)
    rep_abc = {part.representative(edu(n)) for n in "abc"}
    assert rep_abc == {edu("a")}  # canonically smallest
    assert part.representative(edu("x")) == part.representative(edu("y")) == edu("x")
    assert part.representative(edu("unrelated")) == edu("unrelated")
    # idempotent
    assert part.representative(part.representative(edu("c"))) == part.representative(edu("c"))


def test_partition_representative_stable_under_permutation():
    triples = [
        Triple(edu("c"), vocab.OWL_SAMEAS, edu("b")),
        Triple(edu("a"), vocab.OWL_SAMEAS, edu("b")),
        Triple(edu("d"), vocab.OWL_SAMEAS, edu("a")),
    ]
    rng = random.Random(5)
    reps = set()
    for _ in range(6):
        rng.shuffle(triples)
        g = Graph()
        for t in triples:
            g.insert(t)
        closure, _ = saturate_owl(g)
        part = EqualityPartition.from_graph(closure.graph)
        reps.add(part.representative(edu("d")))
    assert reps == {edu("a")}


def test_partition_representative_is_the_least_member_of_its_naive_sameas_component():
    # components are grown from the oracle's sameAs pairs, so they do not
    # assume the closure already holds every pair of each class
    for seed in range(200):
        g = random_owl_graph(seed, max_triples=30)
        closure, _ = saturate_owl(g)
        part = EqualityPartition.from_graph(closure.graph)
        adjacent: dict = {}
        for a, p, b in naive_owl_closure(triples_of(g)):
            if p == vocab.OWL_SAMEAS and not isinstance(b, Literal):
                adjacent.setdefault(a, set()).add(b)
                adjacent.setdefault(b, set()).add(a)
        seen = set()
        for start in adjacent:
            if start in seen:
                continue
            component, stack = set(), [start]
            while stack:
                n = stack.pop()
                if n not in component:
                    component.add(n)
                    stack.extend(adjacent[n])
            seen |= component
            least = min(component, key=sort_key)
            assert {part.representative(t) for t in component} == {least}, f"seed {seed}"
        for t in closure.graph.triples():
            for term in (t.subject, t.predicate, t.object):
                if term not in adjacent:
                    assert part.representative(term) == term, f"seed {seed}"


def test_sameas_merge_order_does_not_change_the_closure():
    # functional-property merging before or after the other rules is the same fixpoint
    g = fathers_kb()
    g.add(edu("Jan"), edu("lives_in"), edu("Warsaw"))
    closure, _ = saturate_owl(g)
    assert Triple(edu("Marcin"), edu("lives_in"), edu("Warsaw")) in closure
    assert closure_triples(closure) == naive_owl_closure(triples_of(g))


# ---------------------------------------------------------------------------
# Oracle equivalence on random graphs
# ---------------------------------------------------------------------------


def test_owl_closure_equals_naive_oracle_twenty_seeds():
    for seed in range(20):
        g = random_owl_graph(seed)
        closure, report = saturate_owl(g)
        expected = naive_owl_closure(triples_of(g))
        assert closure_triples(closure) == expected, f"seed {seed}"
        assert {v.rule for v in report.violations} == naive_violation_rules(expected), f"seed {seed}"


def test_owl_closure_idempotent_and_permutation_invariant():
    for seed in range(6):
        g = random_owl_graph(seed, max_triples=50)
        closure, _ = saturate_owl(g)
        again, _ = saturate_owl(closure.graph)
        assert closure_triples(again) == closure_triples(closure)
        assert not again.derived
        triples = g.triples()
        random.Random(seed).shuffle(triples)
        h = Graph()
        for t in triples:
            h.insert(t)
        permuted, _ = saturate_owl(h)
        assert closure_triples(permuted) == closure_triples(closure)


# each fixed-arity rule name and its naive counterpart
_ORACLE_RULES = {
    "rdfs-subclass-transitivity": oracles._o_sco_transitivity,
    "rdfs-type-propagation": oracles._o_type_propagation,
    "rdfs-subproperty-transitivity": oracles._o_spo_transitivity,
    "rdfs-subproperty-propagation": oracles._o_property_propagation,
    "rdfs-domain": oracles._o_domain,
    "rdfs-range": oracles._o_range,
    "owl-sameas-symmetry": oracles._o_sameas_symmetry,
    "owl-sameas-substitution": oracles._o_sameas_substitution,
    "owl-functional-property": oracles._o_functional,
    "owl-inverse-property": oracles._o_inverse,
    "owl-transitive-property": oracles._o_transitive,
    "owl-equivalence-subclass": oracles._o_equivalence,
    "owl-subclass-equivalence": oracles._o_equivalence,
    "owl-somevalues-recognition": oracles._o_somevalues,
    "owl-allvalues-propagation": oracles._o_allvalues,
}
# sameAs substitution can add list cells after these fired, so their premises
# need not hold the whole list any more
_LIST_RULES = {"owl-intersection-subclass", "owl-intersection-build", "owl-union-subclass"}


def test_every_derivation_is_an_instance_of_its_named_rule():
    fired = set()
    for seed in range(40):
        g = random_owl_graph(seed, max_triples=50 if seed % 2 else 100)
        closure, _ = saturate_owl(g)
        asserted = triples_of(g)
        for triple, derivation in closure.provenance.items():
            note = f"seed {seed}: {derivation}"
            t = (triple.subject, triple.predicate, triple.object)
            premises = {(p.subject, p.predicate, p.object) for p in derivation.premises}
            assert t not in asserted and premises, note
            assert all(p in closure.graph for p in derivation.premises), note
            assert derivation.rule in _ORACLE_RULES or derivation.rule in _LIST_RULES, note
            if derivation.rule in _ORACLE_RULES:
                assert t in _ORACLE_RULES[derivation.rule](premises), note
            fired.add(derivation.rule)
    assert fired == set(_ORACLE_RULES) | _LIST_RULES


# ---------------------------------------------------------------------------
# Resuming the fixpoint from new triples
# ---------------------------------------------------------------------------


def _resume(work: Graph, triple: Triple) -> None:
    t = (work.intern(triple.subject), work.intern(triple.predicate), work.intern(triple.object))
    if work.insert_ids(t):
        _fixpoint(work, OWL_RULES, [t])


def test_resumed_probe_equals_saturating_graph_plus_probe():
    nodes = [IRI(f"http://t.example/n{i}") for i in range(10)]
    predicates = [
        vocab.RDF_TYPE,
        vocab.RDF_TYPE,
        vocab.OWL_SAMEAS,
        vocab.OWL_DIFFERENTFROM,
        vocab.OWL_DISJOINTWITH,
        vocab.RDFS_SUBCLASSOF,
        vocab.OWL_INVERSEOF,
        nodes[0],
    ]
    for seed in range(200):
        g = random_owl_graph(seed, max_triples=40)
        closure, _ = saturate_owl(g)
        rng = random.Random(seed)
        for _ in range(2):
            probe = Triple(rng.choice(nodes), rng.choice(predicates), rng.choice(nodes))
            with_probe = g.copy()
            with_probe.insert(probe)
            expected, expected_report = saturate_owl(with_probe)
            work = closure.graph.copy()
            _resume(work, probe)
            assert triples_of(work) == closure_triples(expected), f"seed {seed}, probe {probe}"
            assert _breaks(closure, probe) == expected_report, f"seed {seed}, probe {probe}"


def test_incremental_insertion_in_random_order_equals_saturation():
    # List cells go in the base graph, so every list is complete before the
    # other triples arrive; the test below inserts the cells one by one too.
    list_predicates = (vocab.RDF_FIRST, vocab.RDF_REST)
    for seed in range(30):
        g = random_owl_graph(seed, max_triples=50)
        base = Graph()
        inserted = []
        for t in g.triples():
            if t.predicate in list_predicates:
                base.insert(t)
            else:
                inserted.append(t)
        random.Random(seed).shuffle(inserted)
        work = saturate_owl(base)[0].graph
        for t in inserted:
            _resume(work, t)
        expected, report = saturate_owl(g)
        assert triples_of(work) == closure_triples(expected), f"seed {seed}"
        assert _collect_violations(work) == report, f"seed {seed}"
        if seed < 5:
            assert triples_of(work) == naive_owl_closure(triples_of(g)), f"seed {seed}"


def test_every_triple_inserted_in_random_order_equals_saturation():
    # list cells arrive one at a time too, so intersection lists pass through prefixes
    for seed in range(100):
        g = random_owl_graph(seed, max_triples=50)
        inserted = g.triples()
        random.Random(seed).shuffle(inserted)
        work = Graph()
        for t in inserted:
            _resume(work, t)
        expected, report = saturate_owl(g)
        assert triples_of(work) == closure_triples(expected), f"seed {seed}"
        assert _collect_violations(work) == report, f"seed {seed}"
        if seed < 5:
            assert triples_of(work) == naive_owl_closure(triples_of(g)), f"seed {seed}"


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**6), st.randoms(use_true_random=False), st.integers(1, 6))
def test_resuming_after_each_shuffled_batch_equals_saturation_from_scratch(seed, rng, batches):
    # list cells arrive in any batch, so lists pass through prefixes
    source = random_owl_graph(seed, max_triples=30)
    g = Graph()
    for batch in shuffled_batches(rng, source.triples(), batches):
        for t in batch:
            g.insert(t)
        resumed, report = saturate_owl(g)  # resumes from the batch on a copy of the cached closure
    fresh, fresh_report = saturate_owl(source.copy())
    expected = naive_owl_closure(triples_of(source))
    assert closure_triples(resumed) == closure_triples(fresh) == expected
    assert resumed.derived == fresh.derived
    assert report == fresh_report
    assert {v.rule for v in report.violations} == naive_violation_rules(expected)


def test_intersection_builds_only_from_a_complete_list():
    l1, l2 = BlankNode("l1"), BlankNode("l2")
    g = Graph()
    g.add(N("C"), vocab.OWL_INTERSECTIONOF, l1)
    g.add(l1, vocab.RDF_FIRST, N("A"))
    g.add(l1, vocab.RDF_REST, l2)
    g.add(l2, vocab.RDF_FIRST, N("B"))
    g.add(N("x"), vocab.RDF_TYPE, N("A"))
    g.add(N("x"), vocab.RDF_TYPE, N("B"))
    g.add(N("y"), vocab.RDF_TYPE, N("C"))
    closure, _ = saturate_owl(g)
    # no rdf:nil yet: members still follow from C, but x is not built into C
    assert Triple(N("x"), vocab.RDF_TYPE, N("C")) not in closure.graph
    for member in (N("A"), N("B")):
        assert Triple(N("y"), vocab.RDF_TYPE, member) in closure.graph
    work = closure.graph.copy()
    _resume(work, Triple(l2, vocab.RDF_REST, vocab.RDF_NIL))
    assert Triple(N("x"), vocab.RDF_TYPE, N("C")) in work


def test_a_type_triple_walks_only_the_lists_that_name_its_class(monkeypatch):
    g = Graph()
    for k in range(400):
        op = vocab.OWL_INTERSECTIONOF if k < 200 else vocab.OWL_UNIONOF
        head, tail = BlankNode(f"l{k}a"), BlankNode(f"l{k}b")
        g.add(N(f"E{k}"), op, head)
        g.add(head, vocab.RDF_FIRST, N(f"A{k}"))
        g.add(head, vocab.RDF_REST, tail)
        g.add(tail, vocab.RDF_FIRST, N(f"B{k}"))
        g.add(tail, vocab.RDF_REST, vocab.RDF_NIL)
    closure, _ = saturate_owl(g)
    walked = []
    real = owl._list_walk
    monkeypatch.setattr(owl, "_list_walk", lambda g, node: walked.append(g.term(node)) or real(g, node))
    # A7 is in one intersection, whose list is walked to see whether x builds it;
    # A207 is in one union, whose membership needs no walk at all
    for cls, lists in ((N("A7"), [BlankNode("l7a")]), (N("A207"), [])):
        walked.clear()
        work = closure.graph.copy()
        _resume(work, Triple(N("x"), vocab.RDF_TYPE, cls))
        assert walked == lists, cls
    assert Triple(N("x"), vocab.RDF_TYPE, N("E207")) in work


def test_type_triples_of_one_class_walk_its_intersection_list_once(monkeypatch):
    g = Graph()
    head, tail = BlankNode("l1"), BlankNode("l2")
    g.add(N("C"), vocab.OWL_INTERSECTIONOF, head)
    g.add(head, vocab.RDF_FIRST, N("A"))
    g.add(head, vocab.RDF_REST, tail)
    g.add(tail, vocab.RDF_FIRST, N("B"))
    g.add(tail, vocab.RDF_REST, vocab.RDF_NIL)
    for i in range(0, 40, 2):
        g.add(N(f"x{i}"), vocab.RDF_TYPE, N("B"))
    closure, _ = saturate_owl(g)
    work = closure.graph.copy()
    typ, a = work.lookup(vocab.RDF_TYPE), work.lookup(N("A"))
    delta = [(work.intern(N(f"x{i}")), typ, a) for i in range(40)]
    for t in delta:
        work.insert_ids(t)
    walked = []
    real = owl._list_walk
    monkeypatch.setattr(owl, "_list_walk", lambda g, node: walked.append(g.term(node)) or real(g, node))
    _fixpoint(work, OWL_RULES, delta)
    assert walked == [head]
    # the grouped join still builds C for exactly the individuals typed with both members
    assert {t.subject for t in work.match_terms(None, vocab.RDF_TYPE, N("C"))} == {N(f"x{i}") for i in range(0, 40, 2)}


def test_rules_intern_the_vocabulary_they_derive_once_per_call(monkeypatch):
    g = Graph()
    g.add(edu("p"), vocab.RDFS_DOMAIN, edu("C"))
    g.add(edu("p"), vocab.RDFS_RANGE, edu("D"))
    g.add(edu("q"), vocab.RDF_TYPE, vocab.OWL_FUNCTIONALPROPERTY)
    g.add(edu("E"), vocab.OWL_EQUIVALENTCLASS, edu("F"))
    g.add(edu("I"), vocab.OWL_INTERSECTIONOF, BlankNode("l1"))
    g.add(BlankNode("l1"), vocab.RDF_FIRST, edu("C"))
    g.add(BlankNode("l1"), vocab.RDF_REST, vocab.RDF_NIL)
    for i in range(40):
        g.add(edu(f"a{i}"), edu("p"), edu(f"b{i}"))
    for i in range(10):
        g.add(edu(f"x{i}"), edu("q"), edu(f"y{i}"))
        g.add(edu(f"x{i}"), edu("q"), edu(f"z{i}"))
    calls = []
    real_intern = Graph.intern
    monkeypatch.setattr(Graph, "intern", lambda self, term: calls.append(term) or real_intern(self, term))
    closure, _ = saturate_owl(g)
    # one lookup per rule call, not one per firing (80 domain/range and 20 functional firings)
    assert len(closure.derived) > 100
    assert len(calls) <= 30

    plain = Graph()
    plain.add(edu("a"), edu("p"), edu("b"))
    closure, _ = saturate_owl(plain)
    assert not closure.derived
    for term in (vocab.RDF_TYPE, vocab.OWL_SAMEAS, vocab.RDFS_SUBCLASSOF, vocab.OWL_EQUIVALENTCLASS):
        assert closure.graph.lookup(term) is None


# ---------------------------------------------------------------------------
# The closure cache: one saturation per graph version
# ---------------------------------------------------------------------------


def _count_saturations(monkeypatch) -> list[bool]:
    """Patch `_fixpoint` in both modules; each call records whether it started from every triple."""
    runs: list[bool] = []
    real = rdfs._fixpoint

    def fixpoint(work, rules, delta):
        delta = list(delta)
        runs.append(isinstance(work, Graph) and len(delta) == len(work))
        return real(work, rules, delta)

    monkeypatch.setattr(rdfs, "_fixpoint", fixpoint)
    monkeypatch.setattr(owl, "_fixpoint", fixpoint)
    return runs


def _snapshot(closure) -> tuple:
    return closure_triples(closure), closure.derived, closure.report


def _assert_same_closure(cached, fresh, note: str) -> None:
    assert closure_triples(cached) == closure_triples(fresh), note
    assert cached.derived == fresh.derived, note
    assert cached.provenance.keys() == fresh.provenance.keys(), note
    assert cached.report == fresh.report, note


def test_cached_and_resumed_closures_equal_saturation_from_scratch(monkeypatch):
    runs = _count_saturations(monkeypatch)
    profiles = {"owl": lambda g: saturate_owl(g)[0], "rdfs": saturate_rdfs}
    asserted_after_derived = 0
    for seed in range(120):
        rng = random.Random(seed)
        source = random_owl_graph(seed, max_triples=50) if seed % 2 else random_rdfs_graph(seed, max_triples=50)
        pending = source.triples()
        rng.shuffle(pending)
        g = Graph()
        runs.clear()
        used, fresh = set(), 0

        def check(name: str, note: str):
            nonlocal fresh
            cached = profiles[name](g)
            used.add(name)
            assert profiles[name](g) is cached, note
            _assert_same_closure(cached, profiles[name](g.copy()), note)
            fresh += 1
            return cached

        while pending:
            for _ in range(rng.randint(1, 6)):
                if pending:
                    g.insert(pending.pop())
            for name in rng.sample(sorted(profiles), rng.randint(1, 2)):
                cached = check(name, f"seed {seed}, {name}")
                if cached.derived and rng.random() < 0.3:
                    t = rng.choice(sorted(cached.derived, key=triple_sort_key))
                    g.insert(t)
                    again = check(name, f"seed {seed}, {name}, asserted {t}")
                    assert t not in again.derived and t in again.graph
                    asserted_after_derived += 1
        # only the first saturation of `g` per profile, and those of the copies, start from every triple
        assert runs.count(True) == len(used) + fresh, f"seed {seed}"
    assert asserted_after_derived >= 50


def _pets_kb() -> Graph:
    g = pumpkin_kb()
    g.add(edu("Cat"), vocab.RDFS_SUBCLASSOF, edu("Carnivore"))
    g.add(edu("Tom"), vocab.RDF_TYPE, edu("Cat"))
    g.add(edu("Tom"), vocab.OWL_SAMEAS, edu("Thomas"))
    g.add(edu("Chimera"), vocab.RDFS_SUBCLASSOF, edu("Herbivore"))
    g.add(edu("Chimera"), vocab.RDFS_SUBCLASSOF, edu("Carnivore"))
    return g


def test_closures_handed_out_are_snapshots(monkeypatch):
    runs = _count_saturations(monkeypatch)
    g = _pets_kb()
    c1, _ = saturate_owl(g)
    before, terms = _snapshot(c1), dict(c1.graph._term_to_id)
    assert check_instance(g, edu("Thomas"), edu("Carnivore")) is InstanceCheck.ENTAILED
    assert check_instance(g, edu("Tom"), edu("Pet")) is InstanceCheck.NOT_ENTAILED
    assert check_instance(g, edu("Pumpkin"), edu("Herbivore")) is InstanceCheck.INCONSISTENT_IF_ASSERTED
    assert is_satisfiable(g, edu("Cat")) and not is_satisfiable(g, edu("Chimera"))
    assert saturate_owl(g)[0] is c1
    assert _snapshot(c1) == before
    assert c1.graph._term_to_id == terms  # probes intern their terms in an overlay
    assert runs == [True, False, False, False, False]  # one saturation, four probes
    runs.clear()

    g.add(edu("Kitten"), vocab.RDFS_SUBCLASSOF, edu("Cat"))
    g.add(edu("Felix"), vocab.RDF_TYPE, edu("Kitten"))
    c2, _ = saturate_owl(g)
    assert Triple(edu("Felix"), vocab.RDF_TYPE, edu("Carnivore")) in c2.derived
    assert _snapshot(c1) == before
    assert runs == [False]  # the base grew: the fixpoint resumed from the two new triples

    # changing a handed-out closure drops it from the cache: the next call saturates afresh
    c2.graph.add(edu("Felix"), vocab.RDF_TYPE, edu("Herbivore"))
    c3, report = saturate_owl(g)
    assert runs == [False, True] and c3 is not c2
    assert not report and Triple(edu("Felix"), vocab.RDF_TYPE, edu("Herbivore")) not in c3
    _assert_same_closure(c3, saturate_owl(g.copy())[0], "after a mutated closure")


def test_reasoning_tasks_on_an_unchanged_graph_saturate_once_per_profile_and_never_copy_to_probe(monkeypatch):
    runs = _count_saturations(monkeypatch)
    copies = []
    real_copy = Graph.copy
    monkeypatch.setattr(Graph, "copy", lambda self: copies.append(self) or real_copy(self))
    g = _pets_kb()
    q, _ = parse_query(f"SELECT ?x\n?x a <{EDU}Carnivore>\n")
    answers = [
        is_consistent(g)[0],
        check_instance(g, edu("Thomas"), edu("Carnivore")),
        check_instance(g, edu("Tom"), edu("Pet")),
        check_instance(g, edu("Pumpkin"), edu("Herbivore")),
        realize(g, edu("Tom")),
        retrieve_instances(g, edu("Carnivore")),
        subsumes(g, edu("Carnivore"), edu("Cat")),
        is_satisfiable(g, edu("Chimera")),
        *(query(g, q, regime) for regime in ("none", "rdfs", "owl")),
    ]
    assert answers[:4] == [True, InstanceCheck.ENTAILED, InstanceCheck.NOT_ENTAILED, InstanceCheck.INCONSISTENT_IF_ASSERTED]
    assert answers[5] == {edu("Pumpkin"), edu("Thomas")} and answers[-1] == [{"x": edu("Pumpkin")}, {"x": edu("Thomas")}]
    assert runs.count(True) == 2  # one saturation each for owl and rdfs
    assert runs.count(False) == 3  # the three probes resume on an overlay
    assert copies == [g, g]  # each copy builds a closure


def test_tasks_from_several_threads_give_the_serial_answers():
    q, _ = parse_query(f"SELECT ?x\n?x a <{EDU}Carnivore>\n")

    def answers(g):
        return [
            check_instance(g, edu("Thomas"), edu("Carnivore")),
            check_instance(g, edu("Tom"), edu("Pet")),
            check_instance(g, edu("Pumpkin"), edu("Herbivore")),
            is_satisfiable(g, edu("Cat")),
            is_satisfiable(g, edu("Chimera")),
            query(g, q, "owl"),
        ]

    serial = answers(_pets_kb())
    shared = _pets_kb()
    results: dict[int, list] = {}

    def work(i: int) -> None:
        results[i] = [answers(shared) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == [0, 1, 2, 3]
    assert all(got == serial for runs in results.values() for got in runs)
    closure, _ = saturate_owl(shared)
    assert closure_triples(closure) == closure_triples(saturate_owl(_pets_kb())[0])
