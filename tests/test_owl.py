import ast
import importlib
import inspect
import itertools
import json
import os
import random
import re
import subprocess
import sys
import threading
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from kgkit import (
    BlankNode,
    EqualityPartition,
    Graph,
    IRI,
    InconsistentKBError,
    Literal,
    InstanceCheck,
    Triple,
    Violation,
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
    serialize_ntriples,
    subsumes,
    vocab,
)
from kgkit import owl, rdfs
from kgkit.errors import ValidationError
from kgkit.graph import Overlay
from kgkit.owl import OWL_RULES, _breaks
from kgkit.rdfs import _fixpoint
from kgkit.terms import sort_key, triple_sort_key

from helpers import (
    EDU,
    NS,
    city_kb,
    closure_state,
    edu,
    fathers_kb,
    pets_updates,
    pumpkin_kb,
    random_consistent_owl_graph,
    random_owl_graph,
    random_rdfs_graph,
    random_violation_graph,
    shuffled_batches,
)
import oracles
from oracles import closure_triples, naive_owl_closure, naive_rdfs_closure, naive_violation_rules, oracle_violations, triples_of

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
        representative = oracles.oracle_partition(closure.graph)
        for cls in sorted(classes, key=sort_key)[:4]:
            got = retrieve_instances(g, cls)
            expected = {
                representative(ind)
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


def test_is_satisfiable_probes_with_an_individual_the_kb_does_not_name():
    g = Graph()
    g.add(edu("Herbivore"), vocab.OWL_DISJOINTWITH, edu("Carnivore"))
    g.add(BlankNode("satprobe0"), vocab.RDF_TYPE, edu("Herbivore"))
    g.add(BlankNode("satprobe1"), vocab.RDF_TYPE, edu("Herbivore"))
    assert is_satisfiable(g, edu("Carnivore"))  # as _:satprobe0 or _:satprobe1 it would meet Herbivore
    g.add(edu("C"), vocab.RDFS_SUBCLASSOF, edu("Herbivore"))
    g.add(edu("C"), vocab.RDFS_SUBCLASSOF, edu("Carnivore"))
    assert not is_satisfiable(g, edu("C"))


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
    part = saturate_owl(g)[0].partition
    assert isinstance(part, EqualityPartition) and owl.EqualityPartition is rdfs.EqualityPartition is EqualityPartition
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
        reps.add(saturate_owl(g)[0].partition.representative(edu("d")))
    assert reps == {edu("a")}


def test_partition_representative_is_the_least_member_of_its_naive_sameas_component():
    # components are grown from the oracle's sameAs pairs, so they do not
    # assume the closure already holds every pair of each class
    for seed in range(200):
        g = random_owl_graph(seed, max_triples=30)
        closure, _ = saturate_owl(g)
        part = closure.partition
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

_RULE_AND_QUERY_MODULES = ("kgkit.rdfs", "kgkit.owl", "kgkit.query")


def _shared_functions(source: str) -> list[str]:
    """The functions of the rule and query modules that `source` imports, and those modules if it imports one whole."""
    shared = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            shared += [alias.name for alias in node.names if alias.name in _RULE_AND_QUERY_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module == "kgkit":
            shared += [f"kgkit.{alias.name}" for alias in node.names if f"kgkit.{alias.name}" in _RULE_AND_QUERY_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module in _RULE_AND_QUERY_MODULES:
            module = importlib.import_module(node.module)
            shared += [f"{node.module}.{alias.name}" for alias in node.names if inspect.isfunction(getattr(module, alias.name))]
    return shared


def test_the_oracles_import_no_function_of_the_rule_or_query_code():
    # an oracle that calls the engine agrees with it by construction; its classes and constants are the shared vocabulary
    assert _shared_functions(inspect.getsource(oracles)) == []
    assert _shared_functions("from kgkit.owl import OwlClosure, _list_walk\nfrom kgkit.query import REGIMES, query") == [
        "kgkit.owl._list_walk", "kgkit.query.query"]
    assert _shared_functions("import kgkit.rdfs\nfrom kgkit import io, owl") == ["kgkit.rdfs", "kgkit.owl"]


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
    **oracles.RDFS_ORACLE_RULES_BY_NAME,
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


def _resume_expanded(work: Graph, delta) -> set:
    """Resume the OWL fixpoint from `delta`, triples just inserted into `work`, whose other triples are a whole expanded closure.

    The fixpoint runs on a copy rewritten to the sameAs classes of the closed
    part; `work` grows by the expansion of its result.  Returns the violations
    found, expanded over the classes as they stand at the end, with premises
    sorted.  A violation found before on a class this call grew now stands
    for more members, so the triples that mention a grown class are read again.
    """
    rep = work.copy()
    for t in delta:
        rep._remove_ids(t)
    equality = rep.equality = owl._Equality()
    equality.absorb(rep, rdfs.Delta(t for t in rep.triple_ids() if t[1] == vocab.RULE_IDS[vocab.OWL_SAMEAS]))
    before = {r: len(ms) for r, ms in equality.members.items()}
    found = _fixpoint(rep, OWL_RULES, [t for t in map(equality.map, delta) if rep.insert_ids(t)])
    grown = [r for r, ms in equality.members.items() if len(ms) != before.get(r)]
    mentioning = {t for r in grown for pattern in ((r, None, None), (None, r, None), (None, None, r)) for t in rep.match_ids(*pattern)}
    found |= _fixpoint(rep, OWL_RULES, mentioning)
    for t in owl.OwlClosure(Graph(), rep)._copies():
        work.insert_ids(t)
    return owl._expand_violations(found, equality, rep.term)


def _resume(work: Graph, triple: Triple) -> None:
    t = (work.intern(triple.subject), work.intern(triple.predicate), work.intern(triple.object))
    if work.insert_ids(t):
        _resume_expanded(work, [t])


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
        assert oracle_violations(work) == report, f"seed {seed}"
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
        assert oracle_violations(work) == report, f"seed {seed}"
        if seed < 5:
            assert triples_of(work) == naive_owl_closure(triples_of(g)), f"seed {seed}"


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**6), st.randoms(use_true_random=False), st.integers(1, 6))
def test_resuming_after_each_shuffled_batch_equals_saturation_from_scratch(seed, rng, batches):
    # list cells arrive in any batch, so lists pass through prefixes
    source = random_owl_graph(seed, max_triples=30)
    g = Graph()
    for k, batch in enumerate(shuffled_batches(rng, source.triples(), batches)):
        for t in batch:
            g.insert(t)
        resumed, report = saturate_owl(g)  # resumes from the batch on a copy of the cached closure
        fresh, fresh_report = saturate_owl(g.copy())
        asserted = triples_of(g)
        expected = naive_owl_closure(asserted)
        note = f"batch {k}"
        assert closure_triples(resumed) == closure_triples(fresh) == expected, note
        assert resumed.derived == fresh.derived, note
        assert {(t.subject, t.predicate, t.object) for t in resumed.derived} == expected - asserted, note
        _assert_derivations_hold(resumed, expected, note)
        assert report == fresh_report, note
        assert {v.rule for v in report.violations} == naive_violation_rules(expected), note


_VIOLATION_RULES = {"owl-disjoint-classes", "owl-complement", "owl-sameas-differentfrom", "owl-alldifferent", "owl-nothing-member"}


def test_violations_the_fixpoint_finds_equal_a_scan_of_the_whole_closure():
    nodes = [IRI(f"http://t.example/n{i}") for i in range(6)]
    objects = [*nodes, Literal("v0"), vocab.OWL_NOTHING, BlankNode("alldiff0c0")]
    predicates = [vocab.RDF_TYPE, vocab.OWL_SAMEAS, vocab.OWL_DIFFERENTFROM, vocab.OWL_COMPLEMENTOF, vocab.RDF_FIRST]
    fired = set()

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=10**6), st.randoms(use_true_random=False), st.integers(1, 6))
    def check(seed, rng, batches):
        source = random_violation_graph(seed)
        # resumed after each batch, list cells in any batch
        g = Graph()
        for batch in shuffled_batches(rng, source.triples(), batches):
            for t in batch:
                g.insert(t)
            closure, report = saturate_owl(g)
            assert report == oracle_violations(closure.graph)
        fired.update(v.rule for v in report.violations)
        # one triple at a time, list cells too
        work, found = Graph(), set()
        for t in shuffled_batches(rng, source.triples(), 1)[0]:
            ids = (work.intern(t.subject), work.intern(t.predicate), work.intern(t.object))
            if work.insert_ids(ids):
                found |= _resume_expanded(work, [ids])
        assert rdfs._report(work, found) == oracle_violations(work)
        # a probe on an overlay of the closure
        for _ in range(3):
            probe = Triple(rng.choice([*nodes, BlankNode("alldiff0c0")]), rng.choice(predicates), rng.choice(objects))
            with_probe = g.copy()
            with_probe.insert(probe)
            assert _breaks(closure, probe) == saturate_owl(with_probe)[1], probe

    check()
    assert fired == _VIOLATION_RULES


def test_an_alldifferent_list_with_a_literal_member_gives_the_scan_report_in_every_insertion_order():
    # the sameAs premise names the member with the smaller id first, unless that member is a
    # literal, which no triple has as its subject; which member that is depends on the order
    d, l1, l2, n, v = BlankNode("d"), BlankNode("l1"), BlankNode("l2"), N("n"), Literal("v")
    parts = [
        [Triple(d, vocab.RDF_TYPE, vocab.OWL_ALLDIFFERENT)],
        [Triple(d, vocab.OWL_DISTINCTMEMBERS, l1)],
        [Triple(l1, vocab.RDF_FIRST, v), Triple(l1, vocab.RDF_REST, l2), Triple(l2, vocab.RDF_FIRST, n), Triple(l2, vocab.RDF_REST, vocab.RDF_NIL)],
        [Triple(n, vocab.OWL_SAMEAS, v)],
    ]
    for order in itertools.permutations(parts):
        g = Graph()
        for part in order:
            for t in part:
                g.insert(t)
            closure, report = saturate_owl(g)
        assert report == oracle_violations(closure.graph)
        assert report.violations == (Violation("owl-alldifferent", (Triple(n, vocab.OWL_SAMEAS, v), Triple(d, vocab.OWL_DISTINCTMEMBERS, l1))),)


def _two_cells_without_nil(g: Graph, subject, predicate, first, second) -> Triple:
    """Add (subject predicate l1) and the cells l1 and l2 holding `first` and `second`; return the (l2 rest nil) that completes the list."""
    l1, l2 = BlankNode("l1"), BlankNode("l2")
    g.add(subject, predicate, l1)
    g.add(l1, vocab.RDF_FIRST, first)
    g.add(l1, vocab.RDF_REST, l2)
    g.add(l2, vocab.RDF_FIRST, second)
    return Triple(l2, vocab.RDF_REST, vocab.RDF_NIL)


def _before_and_after_the_list_completes(g: Graph, nil: Triple) -> list:
    """The OWL closure and report of `g`, then of `g` resumed with `nil`, each checked against the oracles."""
    states = []
    for _ in range(2):
        closure, report = saturate_owl(g)
        assert closure_triples(closure) == naive_owl_closure(triples_of(g))
        assert report == oracle_violations(closure.graph)
        states.append((closure.graph, report))
        g.insert(nil)
    return states


def test_intersection_builds_only_from_a_complete_list():
    g = Graph()
    nil = _two_cells_without_nil(g, N("C"), vocab.OWL_INTERSECTIONOF, N("A"), N("B"))
    g.add(N("x"), vocab.RDF_TYPE, N("A"))
    g.add(N("x"), vocab.RDF_TYPE, N("B"))
    g.add(N("y"), vocab.RDF_TYPE, N("C"))
    (before, _), (after, _) = _before_and_after_the_list_completes(g, nil)
    # no rdf:nil yet, so no list: C is neither built nor below its members
    follows = [Triple(N("x"), vocab.RDF_TYPE, N("C")), Triple(N("y"), vocab.RDF_TYPE, N("A")), Triple(N("y"), vocab.RDF_TYPE, N("B")),
               Triple(N("C"), vocab.RDFS_SUBCLASSOF, N("A")), Triple(N("C"), vocab.RDFS_SUBCLASSOF, N("B"))]
    assert [t for t in follows if t in before] == []
    assert [t for t in follows if t not in after] == []


def test_union_is_above_its_members_only_from_a_complete_list():
    g = Graph()
    nil = _two_cells_without_nil(g, N("C"), vocab.OWL_UNIONOF, N("A"), N("B"))
    g.add(N("x"), vocab.RDF_TYPE, N("A"))
    (before, _), (after, _) = _before_and_after_the_list_completes(g, nil)
    follows = [Triple(N("x"), vocab.RDF_TYPE, N("C")), Triple(N("A"), vocab.RDFS_SUBCLASSOF, N("C")), Triple(N("B"), vocab.RDFS_SUBCLASSOF, N("C"))]
    assert [t for t in follows if t in before] == []
    assert [t for t in follows if t not in after] == []


def test_alldifferent_is_checked_only_on_a_complete_list():
    g = Graph()
    d = BlankNode("d")
    g.add(d, vocab.RDF_TYPE, vocab.OWL_ALLDIFFERENT)
    nil = _two_cells_without_nil(g, d, vocab.OWL_DISTINCTMEMBERS, N("a"), N("b"))
    g.add(N("a"), vocab.OWL_SAMEAS, N("b"))
    (_, before), (_, after) = _before_and_after_the_list_completes(g, nil)
    assert before.violations == ()
    premises = (Triple(N("a"), vocab.OWL_SAMEAS, N("b")), Triple(d, vocab.OWL_DISTINCTMEMBERS, BlankNode("l1")))
    assert after.violations == (Violation("owl-alldifferent", premises),)


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
    _resume_expanded(work, delta)
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
    # the vocabulary has fixed ids, so saturation interns nothing (80 domain/range and 20 functional firings)
    assert len(closure.derived) > 100
    assert len(calls) == 0

    plain = Graph()
    plain.add(edu("a"), edu("p"), edu("b"))
    closure, _ = saturate_owl(plain)
    assert not closure.derived
    assert closure.graph._term_to_id == plain._term_to_id


def test_every_graph_copy_and_overlay_gives_the_vocabulary_its_fixed_ids():
    g = Graph()
    g.add(edu("a"), edu("p"), edu("b"))
    fixed = list(range(len(vocab.RULE_TERMS)))
    for graph in (Graph(), g, g.copy(), Overlay(g), Overlay(g.copy())):
        assert [graph.lookup(iri) for iri in vocab.RULE_TERMS] == fixed
        assert [graph.term(i) for i in fixed] == list(vocab.RULE_TERMS)
    # the dictionary holds them, the indexes do not: the graph mentions none of them
    assert not any(g.mentions(iri) for iri in vocab.RULE_TERMS)
    assert g.terms() == [edu("a"), edu("b"), edu("p")] and len(g) == 1
    # an overlay's own terms take the ids after its base's
    overlay = Overlay(g)
    tid = overlay.intern(edu("c"))
    assert tid == len(g._id_to_term) and overlay.term(tid) == edu("c") and overlay.lookup(edu("c")) == tid
    assert overlay.intern(vocab.OWL_SAMEAS) == vocab.RULE_IDS[vocab.OWL_SAMEAS]


def test_the_rules_call_only_what_a_graph_and_an_overlay_both_provide():
    # a probe runs the same rules on an overlay as saturation runs on a graph
    sources = [rule.source for rule in OWL_RULES if isinstance(rule, rdfs.Row)]
    sources += map(inspect.getsource, (owl._r_intersection, owl._r_union, owl._r_alldifferent, owl._expressions, owl._list_walk))
    called = {name for source in sources for name in re.findall(r"\bg\.(\w+)", source)}
    assert {"contains_ids", "objects", "subjects", "pairs", "lacking", "has_predicate"} <= called
    assert [name for name in sorted(called) if not (hasattr(Graph, name) and hasattr(Overlay, name))] == []


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**6), st.randoms(use_true_random=False))
def test_saturation_does_not_depend_on_the_order_triples_are_inserted(seed, rng):
    # a round's delta keeps the order its rules found its triples in, and no output may read that order
    for saturate, source in ((saturate_rdfs, random_rdfs_graph(seed)), (lambda g: saturate_owl(g)[0], random_violation_graph(seed))):
        triples, runs = source.triples(), []
        for _ in range(3):
            rng.shuffle(triples)
            g = Graph()
            for t in triples:
                g.insert(t)
            with rdfs.fixpoint_stats() as stats:
                closure = saturate(g)
            rules = {t: derivation.rule for t, derivation in closure.provenance.items()}
            runs.append((serialize_ntriples(closure.graph), rules, closure.report, json.dumps([run.as_json() for run in stats])))
        assert runs[0] == runs[1] == runs[2]


# Prints the report and each derivation of the OWL closure of an N-Triples file, in the order the closure holds them.
_DUMP_CLOSURE = """
import sys
from kgkit import parse_ntriples, saturate_owl
closure, report = saturate_owl(parse_ntriples(open(sys.argv[1], encoding="utf-8").read()))
print(report)
for t, derivation in closure.provenance.items():
    print(t, derivation)
"""


def test_outputs_do_not_depend_on_string_hashing(tmp_path):
    g = Graph()
    for seed in range(8):
        for t in random_violation_graph(seed).triples():
            g.insert(t)
    path = tmp_path / "kb.nt"
    path.write_text(serialize_ntriples(g), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(owl.__file__))
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs = [subprocess.run([sys.executable, *argv, str(path), *more], env=env, capture_output=True, timeout=120)
                for argv, more in ((["-m", "kgkit.cli", "infer"], ["--profile", "owl", "--stats"]), (["-c", _DUMP_CLOSURE], []))]
        assert [run.returncode for run in runs] == [3, 0], runs[0].stderr + runs[1].stderr  # 3: the KB is inconsistent
        outputs.append([(run.stdout, run.stderr) for run in runs])
    assert b"Violation(" in outputs[0][1][0] and b"Derivation(" in outputs[0][1][0]
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# The closure cache: one saturation per graph version
# ---------------------------------------------------------------------------


def _count_saturations(monkeypatch) -> list[bool]:
    """Patch `_fixpoint` in both modules; each call records whether it started from every triple.

    A `provenance` read saturates the base again, on recording copies of the
    rules; those runs are no saturation of a `saturate_*` call, and are not counted.
    """
    runs: list[bool] = []
    real = rdfs._fixpoint

    def fixpoint(work, rules, delta):
        delta = list(delta)
        if rules is rdfs.RDFS_RULES or rules is OWL_RULES:
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

    # a probe whose prp-fp merges (a sameAs c) with b leaves the cached closure's classes as they were
    h = Graph()
    h.add(edu("x"), edu("P"), edu("a"))
    h.add(edu("x"), edu("P"), edu("b"))
    h.add(edu("a"), vocab.OWL_SAMEAS, edu("c"))
    c4, _ = saturate_owl(h)
    equality = c4.work.equality

    def classes():
        members = {r: list(ms) for r, ms in equality.members.items()}
        representatives = [c4.partition.representative_id(t) for t in range(len(c4.work._id_to_term))]
        return members, dict(equality.reps), c4.work.triple_ids(), representatives

    before = classes()
    assert check_instance(h, edu("P"), vocab.OWL_FUNCTIONALPROPERTY) is InstanceCheck.NOT_ENTAILED
    assert saturate_owl(h)[0] is c4 and c4.work.equality is equality
    assert classes() == before
    assert c4.partition.representative(edu("c")) == edu("a") and c4.partition.representative(edu("b")) == edu("b")


def test_closures_stay_snapshots_across_resumes_that_merge_sameas_classes(monkeypatch):
    # each resume works on a copy that shares the index entries of the closure before it
    runs = _count_saturations(monkeypatch)
    g, updates, late = pets_updates()
    closures = [saturate_owl(g)[0]]
    states = [closure_state(closures[0])]
    for batch in updates:
        for t in batch:
            g.insert(t)
        resumed, report = saturate_owl(g)
        for closure, state in zip(closures, states):
            assert closure_state(closure) == state
        fresh, fresh_report = saturate_owl(g.copy())
        assert closure_triples(resumed) == closure_triples(fresh) == naive_owl_closure(triples_of(g))
        assert resumed.derived == fresh.derived and report == fresh_report
        closures.append(resumed)
        states.append(closure_state(resumed))
    assert runs == [True, False, True, False, True, False, True]  # each fresh run is the check's copy
    # the sameAs merges rewrote triples of the copied closures: their old forms left the new closures
    assert set(closures[1].work._triples) - set(closures[2].work._triples)
    assert set(closures[2].work._triples) - set(closures[3].work._triples)

    # after a fresh saturation, the input graph copies the entries it shares with the closure before writing
    h = g.copy()
    closure = saturate_owl(h)[0]
    state = closure_state(closure)
    for t in late:
        h.insert(t)
    assert closure_state(closure) == state
    assert closure_triples(saturate_owl(h)[0]) == naive_owl_closure(triples_of(h))


def _assert_derivations_hold(closure, expected: frozenset, note: str) -> None:
    """Each derivation of the closure names premises of `expected` of which its rule derives the triple."""
    for triple, derivation in closure.provenance.items():
        premises = {(p.subject, p.predicate, p.object) for p in derivation.premises}
        assert premises and premises <= expected, (note, derivation)
        if derivation.rule in _ORACLE_RULES:
            assert (triple.subject, triple.predicate, triple.object) in _ORACLE_RULES[derivation.rule](premises), (note, derivation)
        else:
            assert derivation.rule in _LIST_RULES, (note, derivation)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.randoms(use_true_random=False), st.integers(1, 6), st.booleans())
@example(4, random.Random(0), 2, True)  # the first batch holds the cells of n3's unionOf list, but not its first member or rdf:nil
def test_a_closure_gives_every_term_of_its_base_the_base_id_across_resumes(seed, rng, batches, with_owl):
    # between batches the base also interns terms that no triple uses, or that a later batch uses
    if with_owl:
        source = _with_equality_cases(random_owl_graph(seed, max_triples=30))
        a, b = rng.sample([IRI(f"http://t.example/n{i}") for i in range(10)], 2)
        source.add(a, vocab.OWL_SAMEAS, b)  # a batch that holds it merges two classes
    else:
        source = random_rdfs_graph(seed, max_triples=40)
    g, batches = Graph(), shuffled_batches(rng, source.triples(), batches)
    for k, batch in enumerate(batches):
        for term in rng.sample([IRI(f"http://t.example/unused{k}"), BlankNode(f"unused{k}"), Literal(f"unused{k}"), *source.terms()], 2):
            g.intern(term)
        for t in batch:
            g.insert(t)
        if batch or k == 0:
            grown = len(g._id_to_term)  # a closure is of the base as it stood when it last grew
        closures = {"rdfs": saturate_rdfs(g), "owl": saturate_owl(g)[0]}
        for tid, term in enumerate(g._id_to_term):
            known = tid if tid < grown else None
            assert closures["rdfs"].work.lookup(term) == known, term
            assert closures["owl"].work.lookup(term) == known == closures["owl"].graph.lookup(term), term
        asserted = triples_of(g)
        fresh = {"rdfs": saturate_rdfs(g.copy()), "owl": saturate_owl(g.copy())[0]}
        expected = {"rdfs": naive_rdfs_closure(asserted), "owl": naive_owl_closure(asserted)}
        for name, closure in closures.items():
            note = f"{name}, batch {k}"
            assert closure_triples(closure) == closure_triples(fresh[name]), note
            assert closure.derived == fresh[name].derived, note
            assert closure.provenance.keys() == fresh[name].provenance.keys(), note
            assert closure.report == fresh[name].report, note
            assert closure_triples(closure) == expected[name], note
            assert {(t.subject, t.predicate, t.object) for t in closure.derived} == expected[name] - asserted, note
            _assert_derivations_hold(closure, expected[name], note)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.randoms(use_true_random=False), st.integers(1, 6), st.booleans())
@example(4, random.Random(4), 2, False)  # an RDFS closure resumed once, whose stored derivations differed from a fresh saturation's
@example(5, random.Random(5), 2, True)  # the same for an OWL closure
def test_provenance_depends_on_the_base_alone_not_on_the_resumes_that_built_the_closure(seed, rng, batches, with_owl):
    source = random_owl_graph(seed, max_triples=50) if with_owl else random_rdfs_graph(seed, max_triples=50)
    saturate = (lambda g: saturate_owl(g)[0]) if with_owl else saturate_rdfs
    g = Graph()
    for k, batch in enumerate(shuffled_batches(rng, source.triples(), batches)):
        for t in batch:
            g.insert(t)
        resumed = saturate(g)
        note = f"{'owl' if with_owl else 'rdfs'}, batch {k}"
        assert resumed.provenance.keys() == resumed.derived, note
        assert resumed.provenance == saturate(g.copy()).provenance, note


@pytest.mark.parametrize("profile", ["rdfs", "owl"])
def test_a_term_interned_into_a_handed_out_closure_drops_it_from_the_cache(monkeypatch, profile):
    runs = _count_saturations(monkeypatch)
    saturate = saturate_rdfs if profile == "rdfs" else lambda g: saturate_owl(g)[0]
    g, updates, _ = pets_updates()
    closure = saturate(g)
    state = closure_state(closure)
    # the closure's graph now gives the next id to a term its base never interned
    (closure.graph if profile == "rdfs" else closure.work).intern(edu("Stranger"))
    for t in updates[0]:
        g.insert(t)
    runs.clear()
    again = saturate(g)
    assert runs == [True] and again is not closure  # saturated afresh, not resumed
    assert closure_triples(again) == (naive_rdfs_closure if profile == "rdfs" else naive_owl_closure)(triples_of(g))
    assert again.derived == saturate(g.copy()).derived
    assert again.work.lookup(edu("Stranger")) is None
    assert closure_state(closure) == state


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


# ---------------------------------------------------------------------------
# The rule table's compiler
# ---------------------------------------------------------------------------


def _well_formed(triples) -> set:
    return {t for t in triples if not isinstance(t[0], Literal) and isinstance(t[1], IRI)}


@settings(max_examples=80)
@given(st.integers(min_value=0, max_value=10**6), st.randoms(use_true_random=False), st.integers(1, 5))
def test_one_call_of_each_row_yields_its_oracle_heads_that_the_grown_graph_lacks(seed, rng, batches):
    # the closure is closed, so an oracle head the grown graph lacks has a premise in the batch: each
    # row must find every such head once it skips delta triples before its delta atom, joins in its
    # own order and filters through `lacking`, and yield nothing else; a row with a false head must
    # yield the violations of the grown graph that the closure lacks
    source = random_violation_graph(seed, max_triples=40)
    *before, batch = shuffled_batches(rng, source.triples(), batches + 1)
    base = Graph()
    for t in (t for run in before for t in run):
        base.insert(t)
    closure, closed_report = saturate_owl(base)
    work = closure.graph.copy()
    delta = []
    for t in batch:
        ids = (work.intern(t.subject), work.intern(t.predicate), work.intern(t.object))
        if work.insert_ids(ids):
            delta.append(ids)
    grown, new = triples_of(work), {work._to_triple(t) for t in delta}
    rows = [rule for rule in OWL_RULES if isinstance(rule, rdfs.Row)]
    yielded: dict = {}
    found = set()
    for row in rows:
        for t, name, premises in row(work, rdfs.Delta(delta)):
            assert name == row.name
            assert all(work.contains_ids(p) for p in premises), (row, premises)
            assert any(work._to_triple(p) in new for p in premises), (row, premises)
            if row.head is None:
                found.add((name, tuple(sorted(set(premises)))))
            else:
                yielded.setdefault(_ORACLE_RULES[name], set()).add(tuple(map(work.term, t)))
    for oracle in {_ORACLE_RULES[row.name] for row in rows if row.head}:
        expected = _well_formed(oracle(grown)) - grown
        assert _well_formed(yielded.get(oracle, ())) == expected, oracle.__name__
    false_heads = {row.name for row in rows if row.head is None}
    expected = {v for v in oracle_violations(work).violations if v.rule in false_heads} - set(closed_report.violations)
    assert set(rdfs._report(work, found).violations) == expected


def test_a_row_whose_predicate_variable_no_other_atom_binds_is_refused_when_built():
    with pytest.raises(ValueError, match="row 'typed-by-anything'.*'p'"):
        rdfs.Row("typed-by-anything", ("x", vocab.RDF_TYPE, "c"), ("x", "p", "y"), ("y", vocab.RDF_TYPE, "c"))


def test_a_rule_returns_before_reading_an_index_while_a_predicate_it_names_has_no_triple():
    # the KB has no someValuesFrom, intersectionOf or unionOf triple
    g = Graph()
    g.add(N("x"), vocab.RDF_TYPE, N("C"))
    g.add(N("x"), N("p"), N("y"))
    reads = []

    class Recording:
        def __getattr__(self, name):
            reads.append(name)
            return getattr(g, name)

    somevalues = next(rule for rule in OWL_RULES if getattr(rule, "name", "") == "owl-somevalues-recognition")
    for rule in (somevalues, owl._r_intersection, owl._r_union):
        reads.clear()
        assert list(rule(Recording(), rdfs.Delta(g.triple_ids()))) == []
        assert set(reads) == {"has_predicate"}, rule
    # with the predicate present, the row goes on to its joins
    g.add(BlankNode("r"), vocab.OWL_SOMEVALUESFROM, N("D"))
    g.add(BlankNode("r"), vocab.OWL_ONPROPERTY, N("p"))
    reads.clear()
    assert list(somevalues(Recording(), rdfs.Delta(g.triple_ids()))) == []
    assert set(reads) > {"has_predicate"}


# ---------------------------------------------------------------------------
# sameAs by representatives
# ---------------------------------------------------------------------------


def _sameas_chain(n: int) -> Graph:
    """n sameAs links c0 - c1 - ... - cn, each linked node with one property triple."""
    g = Graph()
    for i in range(n):
        g.add(N(f"c{i}"), vocab.OWL_SAMEAS, N(f"c{i + 1}"))
        g.add(N(f"c{i}"), N("p"), N(f"v{i}"))
    return g


def test_a_sameas_chain_costs_work_linear_in_its_length_and_expands_to_its_quadratic_closure():
    # counted, not timed: per doubling of the chain the fixpoint's candidates and the
    # representative graph grow at most 2.2x, while the expanded closure grows 4x
    sizes = []
    for n in (125, 250, 500, 1000):
        g = _sameas_chain(n)
        g.add(N("p"), vocab.RDFS_DOMAIN, N("C"))  # gives the fixpoint candidates to count
        with rdfs.fixpoint_stats() as runs:
            closure, _ = saturate_owl(g)
        sizes.append((sum(sum(run.candidates.values()) for run in runs), len(closure.work)))
        merged = [t for t in range(len(closure.work._id_to_term)) if closure.partition.representative_id(t) != t]
        assert len(merged) == n  # every member but the representative c0
        plain, _ = saturate_owl(_sameas_chain(n))
        # the expanded graph of the two larger chains is only counted, as it holds 0.5M and 2M triples
        expanded = len(plain.graph) if n <= 250 else sum(1 for _ in plain._copies())
        assert expanded == (n + 1) * (2 * n + 1), n
    for (c1, w1), (c2, w2) in zip(sizes, sizes[1:]):
        assert 0 < c2 <= 2.2 * c1 and w2 <= 2.2 * w1, sizes
    for n in (3, 20):
        g = _sameas_chain(n)
        closure, _ = saturate_owl(g)
        assert len(closure.graph) == (n + 1) * (2 * n + 1)
        assert closure_triples(closure) == naive_owl_closure(triples_of(g))


def _with_equality_cases(g: Graph) -> Graph:
    """`g` plus a reflexive sameAs, a sameAs to a literal, and a merge that prp-fp derives in round 2."""
    n = [IRI(f"http://t.example/n{i}") for i in range(10)]
    g.add(n[6], vocab.OWL_SAMEAS, n[6])
    g.add(n[7], vocab.OWL_SAMEAS, Literal("v1"))
    g.add(n[8], vocab.RDF_TYPE, vocab.OWL_FUNCTIONALPROPERTY)
    g.add(n[9], vocab.RDFS_SUBPROPERTYOF, n[8])
    g.add(n[1], n[9], n[2])  # (n1 n8 n2) comes in round 1, then (n2 sameAs n3) in round 2
    g.add(n[1], n[8], n[3])
    return g


def _assert_classes_in_canonical_order(work) -> None:
    """Each sameAs class of `work` lists its members in `sort_key` order, under its rule-vocabulary IRI or else its first member."""
    for rep, members in work.equality.members.items():
        assert members == sorted(members, key=lambda m: sort_key(work.term(m))), members
        assert rep == next((m for m in members if m < len(vocab.RULE_TERMS)), members[0]), (rep, members)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.randoms(use_true_random=False), st.integers(1, 6))
def test_closures_on_representatives_agree_with_the_oracles(seed, rng, batches):
    source = _with_equality_cases(random_violation_graph(seed, max_triples=30))
    g = Graph()
    for k, batch in enumerate(shuffled_batches(rng, source.triples(), batches)):
        for t in batch:
            g.insert(t)
        closure, report = saturate_owl(g)
        _assert_classes_in_canonical_order(closure.work)
        asserted = triples_of(g)
        expected = naive_owl_closure(asserted)
        note = f"seed {seed}, batch {k}"
        assert closure_triples(closure) == expected, note
        assert {(t.subject, t.predicate, t.object) for t in closure.derived} == expected - asserted, note
        assert report == oracle_violations(closure.graph), note
        for term in {x for t in expected for x in t}:
            assert closure.partition.representative(term) == oracles.oracle_representative(expected, term), (note, term)
        assert {(t.subject, t.predicate, t.object) for t in closure.provenance} == expected - asserted, note
        _assert_derivations_hold(closure, expected, note)
    # a probe that states two nodes equal merges their classes on an overlay
    a, b = rng.sample([IRI(f"http://t.example/n{i}") for i in range(10)], 2)
    probed, real = [], owl._fixpoint
    with mock.patch.object(owl, "_fixpoint", lambda work, *rest: probed.append(work) or real(work, *rest)):
        _breaks(closure, Triple(a, vocab.OWL_SAMEAS, b))
    _assert_classes_in_canonical_order(probed[0])


def test_readers_answer_on_representatives_without_expanding_the_closure(monkeypatch, tmp_path):
    from kgkit.cli import main

    consistent = _pets_kb()  # Tom sameAs Thomas, Tom a Cat, Cat below Carnivore, disjoint with Herbivore
    consistent.add(edu("Thomas"), vocab.OWL_SAMEAS, edu("Tommy"))
    consistent.add(edu("Tommy"), edu("eats"), edu("mouse"))
    consistent.add(edu("eats"), vocab.OWL_SAMEAS, edu("consumes"))
    consistent.add(edu("Cat"), vocab.RDFS_SUBCLASSOF, edu("Pet"))
    consistent.add(edu("Pet"), vocab.OWL_SAMEAS, edu("Companion"))
    inconsistent = consistent.copy()
    inconsistent.add(edu("Tommy"), vocab.RDF_TYPE, edu("Herbivore"))  # broken once per member of the clique
    q, _ = parse_query(f"SELECT ?x ?y\n?x <{EDU}consumes> ?y\n?x a <{EDU}Cat>\n")
    kb = tmp_path / "pets.nt"
    kb.write_text(oracles.oracle_serialize_ntriples(inconsistent), encoding="utf-8")
    competency = tmp_path / "competency.txt"
    competency.write_text(f"QUERY cats\nREGIME owl\n?x <{EDU}consumes> <{EDU}mouse>\n", encoding="utf-8")

    def answers(kb_graph, open_kb):
        return [
            check_instance(open_kb, edu("Tom"), edu("Cat")),
            check_instance(open_kb, edu("Tommy"), edu("Dog")),
            check_instance(open_kb, edu("Thomas"), edu("Herbivore")),
            realize(open_kb, edu("Tommy")),
            retrieve_instances(open_kb, edu("Companion")),
            subsumes(open_kb, edu("Companion"), edu("Cat")),
            subsumes(open_kb, edu("Tommy"), edu("Tommy")),
            is_satisfiable(open_kb, edu("Cat")),
            is_satisfiable(open_kb, edu("Chimera")),
            _breaks(saturate_owl(open_kb)[0], Triple(edu("Tommy"), vocab.RDF_TYPE, edu("Herbivore"))),
            query(open_kb, q, "owl"),
            is_consistent(kb_graph),
            main(["check", str(kb), "--competency", str(competency), "--json"]),
        ]

    expected = answers(inconsistent.copy(), consistent.copy())
    assert expected[:3] == [InstanceCheck.ENTAILED, InstanceCheck.NOT_ENTAILED, InstanceCheck.INCONSISTENT_IF_ASSERTED]
    assert expected[3:9] == [{edu("Cat")}, {edu("Thomas")}, True, True, True, False]
    assert len(expected[9].violations) == 3 and expected[10] == [{"x": edu("Thomas"), "y": edu("mouse")}]
    assert not expected[11][0] and expected[11][1] == expected[9] and expected[12] == 3
    saturate_owl(inconsistent), saturate_owl(consistent)

    def refuse(self):
        raise AssertionError("the closure was expanded")

    monkeypatch.setattr(owl.OwlClosure, "_copies", refuse)
    assert answers(inconsistent, consistent) == expected


def test_a_rule_vocabulary_iri_represents_its_class_and_two_of_them_are_refused(tmp_path, capsys):
    # the rules name rdf:type by its id, so it stays the representative of a class
    # whose canonically least member is edu:isA; the partition, queries and competency questions still name edu:isA
    from kgkit.cli import main

    g = Graph()
    g.add(edu("isA"), vocab.OWL_SAMEAS, vocab.RDF_TYPE)
    g.add(edu("x"), edu("isA"), edu("City"))
    g.add(edu("City"), vocab.RDFS_SUBCLASSOF, edu("Locality"))
    closure, _ = saturate_owl(g)
    assert closure_triples(closure) == naive_owl_closure(triples_of(g))
    assert closure.partition.representative(vocab.RDF_TYPE) == edu("isA")
    assert retrieve_instances(g, edu("Locality")) == {edu("x")}
    q, _ = parse_query(f"SELECT ?p\n<{EDU}x> ?p <{EDU}City>\n")
    assert query(g, q, "owl") == [{"p": edu("isA")}]
    kb, competency = tmp_path / "isa.nt", tmp_path / "competency.txt"
    kb.write_text(oracles.oracle_serialize_ntriples(g), encoding="utf-8")
    competency.write_text(f"QUERY isA\nREGIME owl\n<{EDU}x> <{EDU}isA> <{EDU}Locality>\n", encoding="utf-8")
    assert main(["check", str(kb), "--competency", str(competency), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["competency"] == [{"name": "isA", "pass": True}]
    g.add(vocab.RDF_TYPE, vocab.OWL_SAMEAS, vocab.RDFS_SUBCLASSOF)
    with pytest.raises(ValidationError, match="rdf-syntax-ns#type> and <.*#subClassOf>: the rules name both"):
        saturate_owl(g)


def test_a_predicate_merged_into_sameas_makes_its_triples_equalities():
    # (a same b) becomes (a sameAs b) when `same` joins owl:sameAs's class, in the same round
    g = Graph()
    g.add(edu("same"), vocab.OWL_SAMEAS, vocab.OWL_SAMEAS)
    g.add(edu("a"), edu("same"), edu("b"))
    g.add(edu("b"), edu("p"), edu("c"))
    closure, _ = saturate_owl(g)
    assert closure_triples(closure) == naive_owl_closure(triples_of(g))
    assert closure.partition.representative(edu("b")) == edu("a")
