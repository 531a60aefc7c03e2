import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgkit import (
    Graph,
    IRI,
    BlankNode,
    Literal,
    PrefixMap,
    Triple,
    TriplePattern,
    ValidationError,
    UnknownPrefixError,
    Var,
    expand_qname,
    load_model_text,
)
from kgkit.terms import sort_key

from helpers import EDU, edu, random_rdfs_graph
from oracles import brute_match, triples_of


def test_intern_idempotent():
    g = Graph()
    a = g.intern(IRI(EDU + "Warsaw"))
    b = g.intern(IRI(EDU + "Warsaw"))
    assert a == b


def test_intern_distinguishes_plain_and_typed_literals():
    # compare against a naive structural scan over a list of interned terms
    g = Graph()
    terms = [
        Literal("5"),
        Literal("5", datatype="http://www.w3.org/2001/XMLSchema#integer"),
        Literal("5", language="en"),
        IRI(EDU + "five"),
    ]
    ids = [g.intern(t) for t in terms]
    for i, t1 in enumerate(terms):
        for j, t2 in enumerate(terms):
            structurally_equal = t1 == t2
            assert (ids[i] == ids[j]) == structurally_equal


def test_intern_relative_iri_without_base_rejected():
    g = Graph()
    with pytest.raises(ValidationError, match="Warsaw"):
        g.intern(IRI("Warsaw"))
    assert g.lookup(IRI("Warsaw")) is None  # nothing to resolve against, and nothing interned


@pytest.mark.parametrize("value", [EDU + "Warsaw", Var("x"), None, 5, ["unhashable"], {"a": IRI(EDU + "a")}])
def test_intern_rejects_what_is_not_a_term(value):
    g = Graph()
    g.intern(IRI(EDU + "Warsaw"))
    before = (dict(g._term_to_id), list(g._id_to_term))
    with pytest.raises(ValidationError, match="not an RDF term"):
        g.intern(value)
    assert (g._term_to_id, g._id_to_term) == before


def test_blank_node_label_invariants():
    # empty, with whitespace, or not read back by the N-Triples and Turtle readers
    for label in ["", "a b", "a.", ".a", "a;b", "a<b", "a(b", 'a"b']:
        with pytest.raises(ValidationError):
            BlankNode(label)


def test_literal_language_fixes_datatype():
    lit = Literal("hello", language="en")
    assert lit.datatype == "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"
    with pytest.raises(ValidationError):
        Literal("hello", datatype="http://www.w3.org/2001/XMLSchema#string", language="en")


def test_insert_and_set_semantics():
    g = Graph()
    t = Triple(edu("Warsaw"), edu("is_part_of"), edu("Poland"))
    assert g.insert(t) is True
    assert len(g) == 1
    assert g.insert(t) is False
    assert len(g) == 1
    assert g.contains(t)


def test_insert_positional_constraints():
    with pytest.raises(ValidationError):
        Triple(Literal("5"), edu("p"), edu("o"))
    with pytest.raises(ValidationError):
        Triple(edu("s"), BlankNode("b"), edu("o"))
    with pytest.raises(ValidationError):
        Triple(edu("s"), Literal("p"), edu("o"))
    # blank subjects and literal objects are fine
    Triple(BlankNode("b"), edu("p"), Literal("5"))


def test_match_typed_cities():
    g = Graph()
    g.add(edu("Warsaw"), IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), edu("City"))
    g.add(edu("Poznan"), IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), edu("City"))
    g.add(edu("Poland"), IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), edu("Country"))
    pattern = TriplePattern(Var("x"), IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), edu("City"))
    got = g.match(pattern)
    expected = sorted(brute_match(triples_of(g), pattern), key=lambda pair: repr(pair[0]))
    assert {b["x"] for _, b in got} == {b["x"] for _, b in expected} == {edu("Warsaw"), edu("Poznan")}


def test_match_fully_unbound_and_empty():
    g = Graph()
    for i in range(3):
        g.add(edu(f"s{i}"), edu("p"), edu(f"o{i}"))
    assert len(g.match(TriplePattern(Var("s"), Var("p"), Var("o")))) == 3
    assert g.match(TriplePattern(edu("nope"), Var("p"), Var("o"))) == []


def test_match_repeated_variable_must_unify():
    g = Graph()
    g.add(edu("a"), edu("p"), edu("a"))
    g.add(edu("a"), edu("p"), edu("b"))
    got = g.match(TriplePattern(Var("x"), edu("p"), Var("x")))
    assert len(got) == 1
    assert got[0][1] == {"x": edu("a")}


def test_match_agrees_with_brute_force_all_combinations():
    rng = random.Random(99)
    for seed in range(8):
        g = random_rdfs_graph(seed, max_triples=60)
        ts = triples_of(g)
        pool = sorted({t for triple in ts for t in triple}, key=sort_key)
        for mask in itertools.product([False, True], repeat=3):
            concrete = [rng.choice(pool) if bound else Var(f"v{i}") for i, bound in enumerate(mask)]
            # patterns need valid bound positions to be constructible; Var is always fine
            pattern = TriplePattern(*concrete)
            got = {(t.subject, t.predicate, t.object) for t, _ in g.match(pattern)}
            expected = {t for t, _ in brute_match(ts, pattern)}
            assert got == expected


def test_cardinality_counts_the_matching_triples_exactly():
    # _plan orders joins by cardinality, so an exact count keeps the join order of the counting version
    rng = random.Random(7)
    for seed in range(20):
        g = random_rdfs_graph(seed, max_triples=80)
        pool = sorted({x for t in triples_of(g) for x in t}, key=sort_key)
        for mask in itertools.product([False, True], repeat=3):
            for _ in range(4):
                pattern = [rng.choice(pool) if bound else rng.choice([None, Var("v")]) for bound in mask]
                ids = [None if t is None or isinstance(t, Var) else g.lookup(t) for t in pattern]
                assert g.cardinality(*pattern) == sum(1 for _ in g.match_ids(*ids))
        assert g.cardinality(edu("absent"), None, None) == 0


def test_match_output_order_is_canonical():
    g = Graph()
    g.add(edu("b"), edu("p"), edu("x"))
    g.add(edu("a"), edu("p"), edu("x"))
    g.add(edu("c"), edu("p"), edu("x"))
    got = [t.subject for t, _ in g.match(TriplePattern(Var("s"), edu("p"), edu("x")))]
    assert got == [edu("a"), edu("b"), edu("c")]


def test_positional_constraints_hold_for_every_stored_triple():
    for seed in range(5):
        g = random_rdfs_graph(seed)
        for t in g.triples():
            assert isinstance(t.subject, (IRI, BlankNode))
            assert isinstance(t.predicate, IRI)


def test_canonical_term_ordering():
    ordered = sorted([Literal("a"), BlankNode("a"), IRI("http://a")], key=sort_key)
    assert isinstance(ordered[0], IRI)
    assert isinstance(ordered[1], BlankNode)
    assert isinstance(ordered[2], Literal)


def test_expand_qname_expands_registered_prefix():
    prefixes = PrefixMap({"edu": EDU})
    assert expand_qname(prefixes, "edu:Warsaw") == IRI(EDU + "Warsaw")


def test_expand_qname_empty_local_part():
    prefixes = PrefixMap({"edu": EDU})
    assert expand_qname(prefixes, "edu:") == IRI(EDU)


def test_expand_qname_unknown_prefix():
    prefixes = PrefixMap({"edu": EDU})
    with pytest.raises(UnknownPrefixError):
        expand_qname(prefixes, "geo:Warsaw")


def test_expand_qname_requires_single_colon():
    prefixes = PrefixMap({"edu": EDU})
    with pytest.raises(ValidationError):
        expand_qname(prefixes, "eduWarsaw")


def test_expand_then_compress_is_identity():
    prefixes = PrefixMap({"edu": EDU, "geo": "http://geo.example/"})
    for qname in ("edu:Warsaw", "edu:", "geo:Poland"):
        assert prefixes.compress(prefixes.expand(qname)) == qname


def test_entities_and_relations_views():
    g = Graph()
    g.add(edu("Warsaw"), edu("is_part_of"), edu("Poland"))
    g.add(edu("Warsaw"), edu("population"), Literal("1860281"))
    assert edu("is_part_of") in g.relations()
    assert edu("Warsaw") in g.entities()
    assert Literal("1860281") in g.entities()
    assert edu("population") not in g.entities()


def test_copy_isolated_from_original():
    g = Graph()
    g.add(edu("a"), edu("p"), edu("b"))
    h = g.copy()
    h.add(edu("c"), edu("p"), edu("d"))
    assert len(g) == 1 and len(h) == 2
    assert not g.contains(Triple(edu("c"), edu("p"), edu("d")))


# Copies share index entries until one side writes to them: a random run of
# inserts, removals and copies (of copies too) must leave every live graph
# equal to one built afresh from its own triple list.
_NODE_TERMS = [edu(f"n{i}") for i in range(4)]
_PREDICATE_TERMS = [edu(f"q{i}") for i in range(3)]


def _fresh_graph(triples: list) -> Graph:
    g = Graph()
    for term in _NODE_TERMS + _PREDICATE_TERMS:
        g.intern(term)
    for t in triples:
        g.insert_ids(t)
    return g


def _assert_same_graph(g: Graph, expected: Graph, nodes: list[int], predicates: list[int]) -> None:
    assert list(g._triples) == list(expected._triples)
    ids = nodes + predicates
    for s, p, o in itertools.product([None] + nodes, [None] + predicates, [None] + ids):
        assert sorted(g.match_ids(s, p, o)) == sorted(expected.match_ids(s, p, o)), (s, p, o)
        assert g.cardinality_ids(s, p, o) == expected.cardinality_ids(s, p, o), (s, p, o)
    for s, p in itertools.product(nodes, predicates):
        assert set(g.objects(s, p)) == set(expected.objects(s, p))
        assert set(g.subjects(p, s)) == set(expected.subjects(p, s))
    for p in predicates:
        assert sorted(g.pairs(p)) == sorted(expected.pairs(p))
        assert g.has_predicate(p) == expected.has_predicate(p)
    assert g.entities() == expected.entities() and g.relations() == expected.relations()


@given(st.lists(st.tuples(st.sampled_from(["insert", "insert", "remove", "copy"]), st.integers(0, 99), st.integers(0, 999)), max_size=40))
def test_copies_match_graphs_built_from_their_own_triples(steps):
    first = _fresh_graph([])
    nodes = [first.lookup(t) for t in _NODE_TERMS]
    predicates = [first.lookup(t) for t in _PREDICATE_TERMS]
    universe = list(itertools.product(nodes, predicates, nodes))
    live = [(first, [])]  # each graph with the triples it should hold, in insertion order
    for op, which, pick in steps:
        g, triples = live[which % len(live)]
        if op == "copy":
            live.append((g.copy(), list(triples)))
            continue
        if op == "remove" and not triples:
            continue
        # what the other graphs handed out before this write must not change with it
        held = [
            (got, set(got))
            for h, _ in live if h is not g
            for s, p in itertools.product(nodes, predicates)
            for got in (h.objects(s, p), h.subjects(p, s))
        ]
        if op == "insert":
            t = universe[pick % len(universe)]
            assert g.insert_ids(t) == (t not in triples)
            if t not in triples:
                triples.append(t)
        else:
            t = triples.pop(pick % len(triples))
            g._remove_ids(t)
        assert all(set(got) == before for got, before in held)
        for h, expected in live:
            _assert_same_graph(h, _fresh_graph(expected), nodes, predicates)


@pytest.mark.parametrize(
    "text",
    [
        "d=abc norm=L1\n",
        "d=-1 norm=L1\n",
        "d=2 norm=L1\nE\t<http://example.edu#a>\t0.5\tabc\n",
    ],
)
def test_malformed_model_file_raises_validation_error(text):
    with pytest.raises(ValidationError):
        load_model_text(text)


def test_term_views_equal_a_scan_of_every_triple():
    for seed in range(20):
        g = random_rdfs_graph(seed)
        g.intern(edu("interned-but-unused"))
        ts = triples_of(g)
        assert g.entities() == sorted({x for s, _, o in ts for x in (s, o)}, key=sort_key)
        assert g.relations() == sorted({p for _, p, _ in ts}, key=sort_key)
        assert g.terms() == sorted({x for t in ts for x in t}, key=sort_key)


def test_object_bound_patterns_over_many_predicates_equal_a_scan():
    # with no OSP index, a pattern that binds the object but not the predicate walks the predicates
    rng = random.Random(5)
    subjects = [edu(f"s{i}") for i in range(40)]
    objects = subjects[:20] + [edu(f"o{i}") for i in range(20)] + [Literal("7"), Literal("7", language="pl")]
    g = Graph()
    for i in range(6000):
        g.add(rng.choice(subjects), edu(f"p{i % 2500}"), rng.choice(objects))
    ts = triples_of(g)
    assert len({p for _, p, _ in ts}) >= 2000
    for o in objects + [edu("absent")]:
        for s in [None, edu("absent"), *rng.sample(subjects, 6)]:
            expected = {t for t in ts if s in (None, t[0]) and t[2] == o}
            got = {(t.subject, t.predicate, t.object) for t in g.match_terms(s, None, o)}
            assert got == expected
            assert g.cardinality(s, Var("p"), o) == len(expected)
            pattern = TriplePattern(Var("s") if s is None else s, Var("p"), o)
            assert {(t.subject, t.predicate, t.object) for t, _ in g.match(pattern)} == expected
        assert g.mentions(o) == any(o in t for t in ts)
    assert g.entities() == sorted({x for s, _, o in ts for x in (s, o)}, key=sort_key)
    assert g.relations() == sorted({p for _, p, _ in ts}, key=sort_key)
    assert g.terms() == sorted({x for t in ts for x in t}, key=sort_key)


def test_star_import_exports_the_public_names_and_no_submodule():
    import types

    import kgkit

    namespace: dict = {}
    exec("from kgkit import *", namespace)
    exported = {name for name in namespace if name != "__builtins__"}
    assert exported == set(kgkit.__all__)
    assert not [name for name in exported if isinstance(namespace[name], types.ModuleType)]
    assert "io" not in exported
    public = {n for n, v in vars(kgkit).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == exported
