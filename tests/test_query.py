import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgkit import (
    IRI,
    Literal,
    ParseError,
    Query,
    QueryValidationError,
    TriplePattern,
    Var,
    parse_competency,
    parse_ntriples,
    parse_query,
    parse_turtle,
    query,
    reify_table,
    saturate_owl,
    vocab,
)
from kgkit.io import format_term

from helpers import GLUTEN_FREE_QUERY, allergen_kb, city_kb, edu, fathers_kb, random_owl_graph, random_rdfs_graph
from oracles import brute_join, oracle_partition, oracle_query, triples_of
from test_io_properties import iris, literals


def gluten_query() -> Query:
    q, regime = parse_query(GLUTEN_FREE_QUERY)
    assert regime == "none"
    return q


def test_closed_world_gluten_free_products():
    answers = query(allergen_kb(), gluten_query())
    assert [b["x"] for b in answers] == [edu("Cream"), edu("DarkSoySauce"), edu("Peanuts")]


def test_same_query_under_open_world_is_rejected():
    q = gluten_query()
    open_q = Query(patterns=q.patterns, negations=q.negations, projection=q.projection, assumption="open")
    with pytest.raises(QueryValidationError, match="not its negation"):
        query(allergen_kb(), open_q)


def test_single_pattern_over_reified_purchases():
    from test_reify import ROW_1, ROW_2, purchase_spec

    g = reify_table([ROW_1, ROW_2], purchase_spec())
    q = Query(patterns=(TriplePattern(Var("x"), vocab.RDF_TYPE, edu("Purchase")),))
    answers = query(g, q, "none")
    assert {b["x"] for b in answers} == {edu("purchase1"), edu("purchase2")}


def test_join_correctness_against_brute_force():
    rng = random.Random(17)
    for seed in range(6):
        g = random_rdfs_graph(seed, max_triples=40)
        ts = triples_of(g)
        pool = sorted({t for triple in ts for t in triple}, key=repr)
        preds = sorted({p for _, p, _ in ts}, key=repr)
        patterns = (
            TriplePattern(Var("x"), rng.choice(preds), Var("y")),
            TriplePattern(Var("y"), rng.choice(preds), Var("z")),
            TriplePattern(Var("x"), rng.choice(preds), rng.choice(pool)),
        )[: rng.randint(1, 3)]
        if seed % 2:
            patterns += (TriplePattern(Var("x"), rng.choice(preds), Var("x")),)
        q = Query(patterns=tuple(patterns))
        got = query(g, q, "none")
        want = brute_join(ts, patterns)
        vars_ = sorted({v for p in patterns for v in p.variables()})
        got_set = {tuple(b[v] for v in vars_) for b in got}
        want_set = {tuple(b[v] for v in vars_) for b in want}
        assert got_set == want_set, f"seed {seed}"


def random_query(rng: random.Random, g) -> Query:
    """Patterns over the graph's terms plus absent ones, with projections and closed-world NOT blocks."""
    ts = sorted(triples_of(g), key=repr)
    absent = [edu("absent"), Literal("absent")]

    def pattern(names, object_var):
        # a graph triple with some positions made variables, so that answers are common
        s, p, o = (rng.choice(absent) if rng.random() < 0.05 else pos for pos in rng.choice(ts))
        s = Var(rng.choice(names)) if rng.random() < 0.85 else s
        p = Var(rng.choice(names)) if rng.random() < 0.1 else p
        o = Var(rng.choice(names)) if rng.random() < object_var else o
        return TriplePattern(s, p, o)

    def narrowed(p):
        # one position of a positive pattern fixed to a term of a graph triple with its predicate
        t = rng.choice([t for t in ts if t[1] == p.predicate] or ts)
        positions = list(p.positions())
        i = rng.randrange(3)
        positions[i] = t[i]
        return TriplePattern(*positions)

    names = ["x", "y", "z"][: rng.choice([1, 2, 3, 3])]
    patterns = tuple(pattern(names, 0.8) for _ in range(rng.randint(1, 3)))
    a = rng.choice(ts)
    onward = [t for t in ts if t[0] == a[2]]
    if onward and rng.random() < 0.4:
        # a path of two graph triples, joined on ?y
        b = rng.choice(onward)
        patterns = (TriplePattern(Var("x"), a[1], Var("y")), TriplePattern(Var("y"), b[1], rng.choice([Var("z"), b[2]])))
    used = sorted(set().union(*(p.variables() for p in patterns)))
    projection = tuple(rng.sample(used, rng.randint(1, len(used)))) if used and rng.random() < 0.5 else ()
    if rng.random() < 0.5:
        # "n" occurs in no positive pattern, so a block over only "n" shares no variable with them
        blocks = [
            lambda: (narrowed(rng.choice(patterns)),),
            lambda: (narrowed(rng.choice(patterns)), pattern(used + ["n"], 0.7)),
            lambda: (pattern(["n"], 0.7),),
        ]
        negations = tuple(rng.choice(blocks)() for _ in range(rng.randint(1, 2)))
        return Query(patterns, negations, projection, assumption="closed")
    return Query(patterns, projection=projection)


def test_id_space_join_matches_the_term_level_join():
    # how often each case came up: repeated variables (in queries with answers), absent constants, ...
    seen = {"repeated": 0, "absent": 0, "projected": 0, "shared-not": 0, "unshared-not": 0, "rows": 0}
    for seed in range(100):
        g = random_owl_graph(seed, max_triples=40) if seed % 2 else random_rdfs_graph(seed, max_triples=40)
        rng = random.Random(seed)
        for regime in ("none", "rdfs", "owl"):
            for _ in range(3):
                q = random_query(rng, g)
                got = query(g, q, regime)
                want = oracle_query(g, q, regime)
                # equal rows in equal order, each with its variables in equal order
                assert [list(row.items()) for row in got] == [list(row.items()) for row in want], (seed, regime, q)
                positions = [pos for p in q.patterns for pos in p.positions()]
                seen["repeated"] += bool(got) and any(len(p.variables()) < 3 - p.bound_count() for p in q.patterns)
                seen["absent"] += any(pos in (edu("absent"), Literal("absent")) for pos in positions)
                seen["projected"] += bool(q.projection)
                for block in q.negations:
                    shares = set().union(*(p.variables() for p in block)) & set().union(*(p.variables() for p in q.patterns))
                    seen["shared-not" if shares else "unshared-not"] += 1
                seen["rows"] += len(got)
    assert min(seen.values()) >= 20, seen


def test_regime_monotonicity_for_positive_queries():
    for seed in range(5):
        g = random_owl_graph(seed + 300, max_triples=40)
        preds = sorted({p for _, p, _ in triples_of(g)}, key=repr)
        q = Query(patterns=(TriplePattern(Var("s"), preds[0], Var("o")),))
        none_rows = {tuple(sorted(b.items(), key=lambda kv: kv[0], )) for b in map(dict, query(g, q, "none"))}
        rdfs_rows = {tuple(sorted(b.items())) for b in map(dict, query(g, q, "rdfs"))}
        owl_rows = {tuple(sorted(b.items())) for b in map(dict, query(g, q, "owl"))}
        assert none_rows <= rdfs_rows
        # owl results are canonicalized; map the rdfs rows through the partition
        closure, _ = saturate_owl(g)
        representative = oracle_partition(closure.graph)
        rdfs_canon = {tuple(sorted((v, representative(t)) for v, t in row)) for row in rdfs_rows}
        assert rdfs_canon <= owl_rows


def test_rdfs_regime_is_superset_for_the_city_kb():
    g = city_kb()
    q = Query(patterns=(TriplePattern(Var("x"), vocab.RDF_TYPE, edu("Locality")),))
    assert query(g, q, "none") == []
    assert [b["x"] for b in query(g, q, "rdfs")] == [edu("Warsaw")]


def test_owl_regime_canonicalizes_coreferent_answers():
    g = fathers_kb()
    q = Query(patterns=(TriplePattern(edu("Ola"), edu("has_father"), Var("who")),))
    answers = query(g, q, "owl")
    # Jan and Marcin collapse to one representative
    assert [b["who"] for b in answers] == [edu("Jan")]


def test_closed_world_negation_is_set_difference():
    g = allergen_kb()
    base = Query(patterns=(TriplePattern(Var("x"), vocab.RDF_TYPE, edu("Product")),))
    blocked = Query(
        patterns=base.patterns,
        negations=((TriplePattern(Var("x"), edu("contains_allergen"), edu("gluten")),),),
        assumption="closed",
    )
    all_products = {b["x"] for b in query(g, base)}
    with_gluten = {
        b["x"]
        for b in query(g, Query(patterns=(TriplePattern(Var("x"), edu("contains_allergen"), edu("gluten")),)))
    }
    survivors = {b["x"] for b in query(g, blocked)}
    assert survivors == all_products - with_gluten


def test_projection_variable_must_occur():
    q = Query(patterns=(TriplePattern(Var("x"), vocab.RDF_TYPE, edu("Product")),), projection=("nope",))
    with pytest.raises(QueryValidationError, match="nope"):
        query(allergen_kb(), q)


def test_empty_pattern_list_rejected():
    with pytest.raises(QueryValidationError):
        query(allergen_kb(), Query(patterns=()))


def test_unknown_world_assumption_rejected():
    q = Query(patterns=(TriplePattern(Var("x"), vocab.RDF_TYPE, edu("Product")),), assumption="maybe")
    with pytest.raises(QueryValidationError, match="^unknown world assumption 'maybe'$"):
        query(allergen_kb(), q)


def test_unknown_regime_rejected():
    q = Query(patterns=(TriplePattern(Var("x"), vocab.RDF_TYPE, edu("Product")),))
    with pytest.raises(QueryValidationError):
        query(allergen_kb(), q, "sparql")


def test_results_are_deterministic_and_sorted():
    g = allergen_kb()
    q = Query(patterns=(TriplePattern(Var("x"), vocab.RDF_TYPE, edu("Product")),))
    first = query(g, q)
    second = query(g, q)
    assert first == second
    values = [b["x"].value for b in first]
    assert values == sorted(values)


def test_parse_query_directives_and_literals():
    q, regime = parse_query(
        """
        PREFIX edu: <http://example.edu#>
        ASSUME closed
        REGIME owl
        SELECT ?x
        ?x edu:pop "1 860 281"
        NOT { ?x a edu:Ghost . ?x edu:seen "never" }
        """
    )
    assert regime == "owl"
    assert q.assumption == "closed"
    assert q.projection == ("x",)
    assert len(q.patterns) == 1
    assert len(q.negations) == 1 and len(q.negations[0]) == 2


def test_parse_query_bad_pattern_reports_line():
    with pytest.raises(ParseError) as err:
        parse_query("?x a\n")
    assert err.value.line == 1


def test_parse_competency_blocks():
    blocks = parse_competency(
        """
        QUERY gluten-free
        PREFIX edu: <http://example.edu#>
        ASSUME closed
        ?x a edu:Product
        NOT { ?x edu:contains_allergen edu:gluten }

        QUERY all-products
        PREFIX edu: <http://example.edu#>
        ?x a edu:Product
        """
    )
    assert [name for name, _, _ in blocks] == ["gluten-free", "all-products"]
    g = allergen_kb()
    assert len(query(g, blocks[0][1], blocks[0][2])) == 3
    assert len(query(g, blocks[1][1], blocks[1][2])) == 5


def test_parse_competency_errors_name_the_file_line():
    text = "QUERY first\n?x a ?y\n\n# the second block\nQUERY second\nPREFIX edu: <http://example.edu#>\n?x a\n"
    with pytest.raises(ParseError) as err:
        parse_competency(text)
    assert err.value.line == 7


# ---------------------------------------------------------------------------
# Query constants are read with the N-Triples/Turtle term grammar
# ---------------------------------------------------------------------------


def test_escaped_query_constants_match_the_data():
    g = parse_ntriples('<http://x/café> <http://x/p> "café" .\n')
    q, _ = parse_query('?s <http://x/p> "caf\\u00e9"\n')
    assert [b["s"] for b in query(g, q)] == [IRI("http://x/café")]
    q, _ = parse_query('<http://x/caf\\u00e9> <http://x/p> ?o\n')
    assert [b["o"] for b in query(g, q)] == [Literal("café")]
    q, _ = parse_query('PREFIX x: <http://x/caf\\u00e9>\n?s <http://x/p> ?o\nNOT { x: <http://x/p> ?o }\n')
    assert q.negations[0][0].subject == IRI("http://x/café")
    q, _ = parse_query("PREFIX e: <http://e.x/>\ne:a\\. e:p ?o .\n?s e:p e:a\\.\n")  # a local name may end in an escaped '.'
    assert q.patterns[0].subject == IRI("http://e.x/a.")
    assert q.patterns[1].object == IRI("http://e.x/a.")


@given(st.one_of(iris, literals))
def test_every_printed_term_reads_back_as_a_query_constant(term):
    text = format_term(term)
    q, _ = parse_query(f"?s ?p {text}\nNOT {{ ?s ?p {text} }}\n")
    assert q.patterns[0].object == term
    assert q.negations[0][0].object == term
    if isinstance(term, IRI):
        q, _ = parse_query(f"{text} {text} ?o .\n")
        assert q.patterns[0].subject == term and q.patterns[0].predicate == term


@pytest.mark.parametrize(
    "text, message, line",
    [
        ('?x <http://e.x/p> "bad\\q"', "unknown escape \\q at line 3, column 23", 3),
        ('?x <http://e.x/p> "open', "unterminated literal at line 3, column 19", 3),
        ("?x <http://e.x/p> _:b1", "blank node _:b1 in a query", 3),
        ("NOT { ?x <http://e.x/p> _:b1 }", "blank node _:b1 in a query", 3),
        ("?x nope:p ?y", "unknown prefix: 'nope' at line 3, column 4", 3),
        ('?x e:p "1"^^nope:int', "unknown prefix: 'nope' at line 3, column 13", 3),
        ("?x e:p e:a,e:b", "expected one term or variable, got 'e:a,e:b' at line 3, column 8", 3),
        ("?x e:p <>", "relative IRI '' and no base IRI is declared at line 3, column 8", 3),
        ("?x <http://e.x/p> <rel>", "relative IRI 'rel' and no base IRI is declared at line 3, column 19", 3),
        ("NOT { ?x e:p <rel> }", "relative IRI 'rel' and no base IRI is declared at line 3, column 14", 3),
        ('?x e:p "1"^^<int>', "relative datatype IRI 'int' and no base IRI is declared at line 3, column 13", 3),
        ("?x e:p 4x2", "unexpected token '4x2' at line 3, column 8", 3),
        ("?x e:p e:a\\\\.", "bad escape \\\\ in qname e:a\\\\ at line 3, column 8", 3),
    ],
)
def test_bad_query_constants_are_parse_errors_naming_the_line(text, message, line):
    with pytest.raises(ParseError) as err:
        parse_query(f"PREFIX e: <http://e.x/>\nASSUME closed\n{text}\n")
    assert message in str(err.value)
    assert err.value.line == line


@pytest.mark.parametrize(
    "line, message, column",
    [
        ("ASSUME maybe", "expected 'ASSUME open' or 'ASSUME closed'", 8),
        ("ASSUME", "expected 'ASSUME open' or 'ASSUME closed'", 1),
        ("ASSUME open closed", "expected 'ASSUME open' or 'ASSUME closed'", 13),
        ("  REGIME  full", "expected 'REGIME none|rdfs|owl'", 11),
        ("REGIME", "expected 'REGIME none|rdfs|owl'", 1),
        ("PREFIX e <http://e.x/>", "expected 'PREFIX p: <namespace>'", 8),
        ("PREFIX e: http://e.x/", "expected 'PREFIX p: <namespace>'", 11),
        ("PREFIX e:", "expected 'PREFIX p: <namespace>'", 1),
        ("PREFIX e: <http://e.x/> <http://f.x/>", "expected 'PREFIX p: <namespace>'", 25),
        ("SELECT ?x y", "SELECT lists variables, got 'y'", 11),
        ("SELECT", "SELECT lists no variables", 1),
        ("  select ", "SELECT lists no variables", 3),
        ("PREFIX r: <rel/>", "relative IRI 'rel/' and no base IRI is declared", 11),
        ("NOT ?x e:p ?y }", "expected 'NOT { pattern ... }'", 5),
        ("NOT { ?x e:p ?y } ?z", "expected 'NOT { pattern ... }'", 19),
        ("NOT { ?x e:p ?y", "expected 'NOT { pattern ... }'", 1),
        ("\tNOT { }", "expected 'NOT { pattern ... }'", 2),
        ("NOT", "expected 'NOT { pattern ... }'", 1),
    ],
)
def test_directive_errors_name_the_column_of_the_token_that_breaks_the_form(line, message, column):
    with pytest.raises(ParseError) as err:
        parse_query(f"PREFIX e: <http://e.x/>\n?x e:p ?y\n{line}\n")
    assert str(err.value) == f"{message} at line 3, column {column}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("QUERY a\n?x a ?y\n   QUERY \n", "QUERY line has no name at line 3, column 4"),
        ("# questions\n\n  ?x a ?y\nQUERY a\n", "content before the first QUERY line at line 3, column 3"),
    ],
)
def test_competency_errors_name_the_column_of_their_line(text, message):
    with pytest.raises(ParseError) as err:
        parse_competency(text)
    assert str(err.value) == message


def test_turtle_datatype_with_an_unknown_prefix_is_a_parse_error():
    with pytest.raises(ParseError, match="unknown prefix: 'nope' at line 1, column 36"):
        parse_turtle('<http://e.x/a> <http://e.x/p> "1"^^nope:int .\n')


def test_turtle_shorthand_query_constants_match_the_data():
    g = parse_turtle(":a :age 42 ; :ok true ; :h 1.5 ; :w 1e3 .").graph
    for word, kind in [("42", "integer"), ("true", "boolean"), ("1.5", "decimal"), ("1e3", "double")]:
        q, _ = parse_query(f"?s ?p {word} .\n")
        assert q.patterns[0].object == Literal(word, datatype="http://www.w3.org/2001/XMLSchema#" + kind)
        assert [b["s"] for b in query(g, q)] == [IRI("http://example.org/ns#a")]


@pytest.mark.parametrize("line", ["?x e:p e:b.", "?x e:p 42.", '?x e:p"a" .', "?x e:p<http://e.x/o> ."])
def test_a_query_term_ends_where_the_data_readers_end_it(line):
    q, _ = parse_query(f"PREFIX e: <http://e.x/>\n{line}\n")
    data = parse_turtle(f"@prefix e: <http://e.x/> .\n{line.replace('?x', 'e:s')}\n").graph.triples()
    assert [(p.predicate, p.object) for p in q.patterns] == [(t.predicate, t.object) for t in data]
