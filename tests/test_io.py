import pytest

from kgkit import (
    Graph,
    IRI,
    BlankNode,
    Literal,
    ParseError,
    Triple,
    parse_ntriples,
    parse_query,
    parse_term,
    parse_turtle,
    serialize_ntriples,
    vocab,
)

from helpers import EDU, NS, edu, random_rdfs_graph
from oracles import oracle_parse_turtle, triples_of

N = lambda name: IRI(NS + name)  # noqa: E731


def test_parse_ntriples_single_line():
    g = parse_ntriples(f"<{EDU}Warsaw> <{EDU}is_part_of> <{EDU}Poland> .\n")
    assert len(g) == 1
    assert g.contains(Triple(edu("Warsaw"), edu("is_part_of"), edu("Poland")))


def test_parse_ntriples_empty_input():
    assert len(parse_ntriples("")) == 0
    assert len(parse_ntriples("# only a comment\n\n")) == 0


def test_parse_ntriples_missing_dot_reports_line():
    text = f"<{EDU}a> <{EDU}p> <{EDU}b> .\n<{EDU}a> <{EDU}p> <{EDU}c>\n"
    with pytest.raises(ParseError) as err:
        parse_ntriples(text)
    assert err.value.line == 2


def test_parse_ntriples_literals_and_blanks():
    text = (
        f'_:x <{EDU}p> "plain" .\n'
        f'_:x <{EDU}q> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        f'_:x <{EDU}r> "bonjour"@fr .\n'
        f'_:x <{EDU}s> "with \\"quotes\\" and \\n newline" .\n'
    )
    g = parse_ntriples(text)
    assert len(g) == 4
    assert g.contains(Triple(BlankNode("x"), edu("p"), Literal("plain")))
    assert g.contains(Triple(BlankNode("x"), edu("r"), Literal("bonjour", language="fr")))
    assert g.contains(Triple(BlankNode("x"), edu("s"), Literal('with "quotes" and \n newline')))


def test_parse_ntriples_positional_violation():
    with pytest.raises(ParseError):
        parse_ntriples(f'"5" <{EDU}p> <{EDU}o> .\n')


def test_serialize_empty_graph():
    assert serialize_ntriples(Graph()) == ""


def test_serialize_deterministic():
    g = Graph()
    g.add(edu("b"), edu("p"), Literal("x"))
    g.add(edu("a"), edu("p"), edu("b"))
    assert serialize_ntriples(g) == serialize_ntriples(g)
    h = Graph()
    h.add(edu("a"), edu("p"), edu("b"))
    h.add(edu("b"), edu("p"), Literal("x"))
    assert serialize_ntriples(g) == serialize_ntriples(h)


def test_round_trip_random_graphs():
    for seed in range(10):
        g = random_rdfs_graph(seed)
        again = parse_ntriples(serialize_ntriples(g))
        assert triples_of(again) == triples_of(g)


def test_round_trip_escapes():
    g = Graph()
    g.add(edu("s"), edu("p"), Literal('tab\there "and" \\ backslash\nnewline'))
    assert triples_of(parse_ntriples(serialize_ntriples(g))) == triples_of(g)


def test_parse_term_roundtrip():
    for term in (edu("x"), BlankNode("b1"), Literal("a b"), Literal("5", datatype=vocab.XSD + "integer")):
        from kgkit.io import format_term

        assert parse_term(format_term(term)) == term


# ---------------------------------------------------------------------------
# Turtle listings that the parser must accept verbatim
# ---------------------------------------------------------------------------

INVERSE_LISTING = """
:is_parent_of rdf:type owl:ObjectProperty ;
               owl:inverseOf :has_parent .
"""

FUNCTIONAL_LISTING = """
:has_father rdf:type owl:ObjectProperty ,
                 owl:FunctionalProperty .
"""

TRANSITIVE_LISTING = """
:is_part_of rdf:type owl:ObjectProperty ,
                      owl:TransitiveProperty ;
             rdfs:domain :Region ;
             rdfs:range :Region .
"""

RESTRICTION_LISTING = """
:Carnivore rdf:type owl:Class ;
       rdfs:subClassOf [ rdf:type owl:Restriction ;
                        owl:onProperty :eats ;
                        owl:someValuesFrom :Meat
\t\t\t   ] .
"""

BOY_LISTING = """
:Boy rdf:type owl:Class ;
\t     owl:equivalentClass [ rdf:type owl:Class ;
\t\t\t                   owl:intersectionOf ( :Child  :Man )
\t\t\t ] .
"""


def test_turtle_inverse_listing():
    g = parse_turtle(INVERSE_LISTING).graph
    assert triples_of(g) == {
        (N("is_parent_of"), vocab.RDF_TYPE, IRI(vocab.OWL + "ObjectProperty")),
        (N("is_parent_of"), vocab.OWL_INVERSEOF, N("has_parent")),
    }


def test_turtle_functional_listing_object_list():
    g = parse_turtle(FUNCTIONAL_LISTING).graph
    assert triples_of(g) == {
        (N("has_father"), vocab.RDF_TYPE, IRI(vocab.OWL + "ObjectProperty")),
        (N("has_father"), vocab.RDF_TYPE, vocab.OWL_FUNCTIONALPROPERTY),
    }


def test_turtle_transitive_listing():
    g = parse_turtle(TRANSITIVE_LISTING).graph
    assert triples_of(g) == {
        (N("is_part_of"), vocab.RDF_TYPE, IRI(vocab.OWL + "ObjectProperty")),
        (N("is_part_of"), vocab.RDF_TYPE, vocab.OWL_TRANSITIVEPROPERTY),
        (N("is_part_of"), vocab.RDFS_DOMAIN, N("Region")),
        (N("is_part_of"), vocab.RDFS_RANGE, N("Region")),
    }


def test_turtle_restriction_listing():
    g = parse_turtle(RESTRICTION_LISTING).graph
    restrictions = list(g.match_terms(None, vocab.RDFS_SUBCLASSOF, None))
    assert len(restrictions) == 1
    node = restrictions[0].object
    assert isinstance(node, BlankNode)
    expected = {
        (N("Carnivore"), vocab.RDF_TYPE, IRI(vocab.OWL + "Class")),
        (N("Carnivore"), vocab.RDFS_SUBCLASSOF, node),
        (node, vocab.RDF_TYPE, vocab.OWL_RESTRICTION),
        (node, vocab.OWL_ONPROPERTY, N("eats")),
        (node, vocab.OWL_SOMEVALUESFROM, N("Meat")),
    }
    assert triples_of(g) == expected


def test_turtle_boy_listing_collection_chain():
    g = parse_turtle(BOY_LISTING).graph
    firsts = list(g.match_terms(None, vocab.RDF_FIRST, None))
    rests = list(g.match_terms(None, vocab.RDF_REST, None))
    assert len(firsts) == 2
    assert len(rests) == 2
    assert {t.object for t in firsts} == {N("Child"), N("Man")}
    assert any(t.object == vocab.RDF_NIL for t in rests)
    # chain is linear: the rest of the first cell is the second cell
    cells = {t.subject for t in firsts}
    links = {t.subject: t.object for t in rests}
    assert set(links) == cells
    assert sum(1 for o in links.values() if o in cells) == 1


def test_turtle_prefix_declaration():
    report = parse_turtle(f"@prefix edu: <{EDU}> .\nedu:x edu:p edu:y .\n")
    assert triples_of(report.graph) == {(edu("x"), edu("p"), edu("y"))}
    assert report.prefixes.namespace("edu") == EDU


def test_turtle_a_keyword_and_literals():
    g = parse_turtle('@prefix edu: <http://example.edu#> .\nedu:W a edu:City ; edu:pop "1 860 281" ; edu:name "Warszawa"@pl .').graph
    assert g.contains(Triple(edu("W"), vocab.RDF_TYPE, edu("City")))
    assert g.contains(Triple(edu("W"), edu("pop"), Literal("1 860 281")))
    assert g.contains(Triple(edu("W"), edu("name"), Literal("Warszawa", language="pl")))


def test_turtle_empty_collection_is_nil():
    g = parse_turtle(":x :p ( ) .").graph
    assert triples_of(g) == {(N("x"), N("p"), vocab.RDF_NIL)}


def test_turtle_blank_node_property_list_as_a_whole_statement_round_trips():
    # Turtle 1.1 grammar rule [6]: `blankNodePropertyList predicateObjectList?`, as AllDifferent axioms are written
    text = ":x :q :y .\n[ a owl:AllDifferent ; owl:distinctMembers ( :a :b ) ; ] .\n[ :p [ :q :r ] ] :s :t .\n"
    g = parse_turtle(text).graph
    assert triples_of(g) == triples_of(oracle_parse_turtle(text).graph)
    assert len(g) == 1 + 6 + 3
    assert (BlankNode("anon1"), vocab.RDF_TYPE, vocab.OWL_ALLDIFFERENT) in triples_of(g)
    nt = serialize_ntriples(g)
    assert triples_of(parse_ntriples(nt)) == triples_of(g) and serialize_ntriples(parse_ntriples(nt)) == nt
    for statement, column in (("[] .", 4), ("[ ] .", 5), ("( :a ) .", 8)):  # only a `[ ... ]` with a predicate stands alone
        with pytest.raises(ParseError, match=f"expected a predicate, got '.' at line 1, column {column}$"):
            parse_turtle(statement)
        with pytest.raises(ParseError, match=f"expected a predicate, got '.' at line 1, column {column}$"):
            oracle_parse_turtle(statement)


@pytest.mark.parametrize(
    "text, single",
    [
        (":x :p :y ;; :q :z .", ":x :p :y ; :q :z ."),
        (":x :p :y ; ; :q :z .", ":x :p :y ; :q :z ."),
        (":x :p :y ;;; .", ":x :p :y ."),
        (":x :s [ :p :o ;; :q :r ] .", ":x :s [ :p :o ; :q :r ] ."),
        ("[ :p :o ;; :q :r ] .", "[ :p :o ; :q :r ] ."),
        (":x :s [ :p :o ; ;; ] .", ":x :s [ :p :o ] ."),
    ],
)
def test_a_run_of_semicolons_reads_as_one_and_round_trips(text, single):
    # RDF 1.1 Turtle grammar rule [7]: predicateObjectList ::= verb objectList (';' (verb objectList)?)*
    g = parse_turtle(text).graph
    assert triples_of(g) == triples_of(parse_turtle(single).graph) == triples_of(oracle_parse_turtle(text).graph)
    nt = serialize_ntriples(g)
    assert triples_of(parse_ntriples(nt)) == triples_of(g) and serialize_ntriples(parse_ntriples(nt)) == nt


@pytest.mark.parametrize("text, column", [(":x ; :p :y .", 4), (":x ;; :p :y .", 4), (":s :q [ ; :p :o ] .", 9)])
def test_a_semicolon_before_the_first_verb_is_still_an_error(text, column):
    for parse in (parse_turtle, oracle_parse_turtle):
        with pytest.raises(ParseError, match=f"^expected a predicate, got ';' at line 1, column {column}$"):
            parse(text)


def test_turtle_datatype_that_is_a_string_is_a_parse_error_at_it():
    with pytest.raises(ParseError, match=r"^expected datatype IRI after '\^\^' at line 1, column 13$"):
        parse_turtle(':x :p "x"^^ "y" .')


def test_turtle_nested_too_deep_is_a_parse_error_not_a_recursion_error():
    text = ":s :p " + "( " * 1000 + ")" * 1000 + " .\n"
    with pytest.raises(ParseError, match=r"^nesting too deep at line 1, column \d+$"):
        parse_turtle(text)
    with pytest.raises(ParseError, match=r"^nesting too deep at line 1, column \d+$"):
        parse_turtle(":s :p " + "[ :q " * 1000 + "]" * 1000 + " .\n")


def test_turtle_unknown_prefix_is_error():
    with pytest.raises(ParseError, match="geo"):
        parse_turtle(":x geo:p :y .")


def test_turtle_syntax_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse_turtle(":x :p :y .\n:a :b")
    assert err.value.line == 2


def test_turtle_document_blank_labels_never_collide_with_generated():
    g = parse_turtle("_:anon1 :p ( :a ) .").graph
    labels = {t.label for triple in g.triples() for t in (triple.subject, triple.object) if isinstance(t, BlankNode)}
    assert "anon1" in labels
    assert len(labels) == 2  # the document label plus one fresh collection cell


def test_turtle_warning_on_prefix_redefinition():
    report = parse_turtle(f"@prefix e: <{EDU}> .\n@prefix e: <{NS}> .\ne:x e:p e:y .")
    assert len(report.warnings) == 1
    assert report.warnings[0][0] == 2


@pytest.mark.parametrize("keyword", ["PREFIX", "prefix", "Prefix"])
def test_turtle_sparql_style_prefix_reads_like_at_prefix(keyword):
    # RDF 1.1 Turtle, section 6.5: `PREFIX` in any case, and no '.'
    body = "e:x e:p ns:y .\n"
    at = f"@prefix e: <{EDU}> .\n@prefix ns: <{NS}> .\n{body}@prefix e: <{NS}> .\n{body}"
    sparql = f"{keyword} e: <{EDU}>\n# a comment\n{keyword} ns: <{NS}>\n{body}{keyword} e: <{NS}>\n{body}"
    expected, report = parse_turtle(at), parse_turtle(sparql)
    assert serialize_ntriples(report.graph) == serialize_ntriples(expected.graph)
    assert len(report.graph) == 2
    assert report.prefixes.prefixes() == expected.prefixes.prefixes()
    assert report.warnings == [(5, f"prefix 'e' redefined from <{EDU}> to <{NS}>")]
    mixed = parse_turtle(f"@prefix e: <{EDU}> .\n{keyword} ns: <{NS}>\n{body}")
    assert triples_of(mixed.graph) == {(edu("x"), edu("p"), N("y"))}


@pytest.mark.parametrize(
    "text, message",
    [
        (f"PREFIX e: <{EDU}> .\n", "unexpected '.' after a PREFIX directive at line 1, column 33"),
        (f"prefix e: <{EDU}>\n.\n", "unexpected '.' after a prefix directive at line 2, column 1"),
        ("PREFIX e: e:x\n", "expected 'iriref', got 'e:x' at line 1, column 11"),
        ("PREFIX\n", "expected 'prefix:' after PREFIX at line 2, column 1"),
        (f"PREFIX e: <{EDU}> PREFIX\n", "expected 'prefix:' after PREFIX at line 2, column 1"),  # a directive follows one
        # where no statement starts, PREFIX stays the unexpected token it was
        (":x PREFIX :y .\n", "unexpected token 'PREFIX' at line 1, column 4"),
        (":x :p :y ; PREFIX :z .\n", "unexpected token 'PREFIX' at line 1, column 12"),
        (f"PREFIX e: <{EDU}>\ne:x e:p PREFIX .\n", "unexpected token 'PREFIX' at line 2, column 9"),
    ],
)
def test_a_misplaced_or_dotted_sparql_prefix_is_a_located_parse_error(text, message):
    with pytest.raises(ParseError) as err:
        parse_turtle(text)
    assert str(err.value) == message


def test_sparql_prefix_is_only_turtle():
    with pytest.raises(ParseError, match="^unexpected token 'PREFIX' at line 1, column 1$"):
        parse_ntriples(f"PREFIX e: <{EDU}>\n")
    with pytest.raises(ParseError, match="^unexpected token 'prefix' at line 1, column 1$"):
        parse_term("prefix")


def test_parse_report_round_trip_through_ntriples():
    g = parse_turtle(BOY_LISTING).graph
    assert triples_of(parse_ntriples(serialize_ntriples(g))) == triples_of(g)


XSD = "http://www.w3.org/2001/XMLSchema#"


def test_turtle_numeric_and_boolean_shorthand_round_trip():
    g = parse_turtle(":x :p 42 , -7 , +0 , 1.5 , -.5 , 1e3 , 2.E-1 , +.5e+2 , true , false .").graph
    expected = [
        ("42", "integer"), ("-7", "integer"), ("+0", "integer"), ("1.5", "decimal"), ("-.5", "decimal"),
        ("1e3", "double"), ("2.E-1", "double"), ("+.5e+2", "double"), ("true", "boolean"), ("false", "boolean"),
    ]
    # the lexical form is the token as written (RDF 1.1 Turtle, section 7.2)
    assert triples_of(g) == {(N("x"), N("p"), Literal(text, datatype=XSD + kind)) for text, kind in expected}
    text = serialize_ntriples(g)
    assert '"-.5"^^<http://www.w3.org/2001/XMLSchema#decimal>' in text
    assert triples_of(parse_ntriples(text)) == triples_of(g)
    assert serialize_ntriples(parse_ntriples(text)) == text


def test_turtle_shorthand_ends_before_a_statement_dot():
    g = parse_turtle(":x :p 1.\n:y :p 2.5.\n:z :p true.").graph
    assert triples_of(g) == {
        (N("x"), N("p"), Literal("1", datatype=XSD + "integer")),
        (N("y"), N("p"), Literal("2.5", datatype=XSD + "decimal")),
        (N("z"), N("p"), Literal("true", datatype=XSD + "boolean")),
    }


def test_turtle_numbers_that_start_with_a_dot_round_trip():
    # RDF 1.1 Turtle, section 6.5: DECIMAL and DOUBLE may start with '.'
    g = parse_turtle(":x :q .5 .\n:y :q .5e3 , .25E-1.\n").graph
    assert triples_of(g) == {
        (N("x"), N("q"), Literal(".5", datatype=XSD + "decimal")),
        (N("y"), N("q"), Literal(".5e3", datatype=XSD + "double")),
        (N("y"), N("q"), Literal(".25E-1", datatype=XSD + "double")),
    }
    text = serialize_ntriples(g)
    assert '".5"^^<http://www.w3.org/2001/XMLSchema#decimal>' in text
    assert triples_of(parse_ntriples(text)) == triples_of(g)
    assert serialize_ntriples(parse_ntriples(text)) == text


def test_a_dot_before_whitespace_a_comment_or_the_end_still_ends_the_statement():
    assert triples_of(parse_turtle(":x :q :y.").graph) == {(N("x"), N("q"), N("y"))}
    g = parse_turtle(":x :q :y .# c\n:x :q :z.\n:x :q .5 .").graph
    assert triples_of(g) == {
        (N("x"), N("q"), N("y")),
        (N("x"), N("q"), N("z")),
        (N("x"), N("q"), Literal(".5", datatype=XSD + "decimal")),
    }


@pytest.mark.parametrize(
    "text, line, column",
    [
        (":x\n :q\n :y ,\n <rel> .", 4, 2),  # in an object list, lines below its verb
        (":x :q ( :y\n <rel> ) .", 2, 2),  # inside a collection, after its first item
    ],
)
def test_a_relative_iri_is_reported_at_its_own_token(text, line, column):
    with pytest.raises(ParseError) as err:
        parse_turtle(text)
    assert str(err.value) == f"relative IRI 'rel' and no base IRI is declared at line {line}, column {column}"
    with pytest.raises(ParseError) as oracle_err:
        oracle_parse_turtle(text)
    assert str(oracle_err.value) == str(err.value)


@pytest.mark.parametrize("word", ["4x2", "1e", "e3", "1.5.2", "+", "-", "0x1F", "True", "1e3.5", "--1", "TRUE"])
def test_other_bare_words_are_still_unexpected_tokens(word):
    with pytest.raises(ParseError) as err:
        parse_turtle(f":x :p {word} .")
    assert str(err.value) == f"unexpected token {word!r} at line 1, column 7"


@pytest.mark.parametrize("word", ["42", "1.5", "1e3", "true"])
def test_ntriples_has_no_shorthand(word):
    with pytest.raises(ParseError) as err:
        parse_ntriples(f"<http://e.x/s> <http://e.x/p> {word} .\n")
    assert str(err.value) == f"unexpected token {word!r} at line 1, column 31"
    with pytest.raises(ParseError, match="unexpected token"):
        parse_term(word)


def test_typed_literal_with_an_absolute_datatype_round_trips():
    line = '<http://e.x/s> <http://e.x/p> "v"^^<http://e.x/dt> .\n'
    g = parse_ntriples(line)
    assert triples_of(g) == {(IRI("http://e.x/s"), IRI("http://e.x/p"), Literal("v", datatype="http://e.x/dt"))}
    assert serialize_ntriples(g) == line
    ttl = parse_turtle('@prefix e: <http://e.x/> .\ne:s e:p "v"^^e:dt , "w"^^xsd:int .').graph
    assert triples_of(parse_ntriples(serialize_ntriples(ttl))) == triples_of(ttl) == {
        (IRI("http://e.x/s"), IRI("http://e.x/p"), Literal("v", datatype="http://e.x/dt")),
        (IRI("http://e.x/s"), IRI("http://e.x/p"), Literal("w", datatype=XSD + "int")),
    }


@pytest.mark.parametrize(
    "parse, text, message, column",
    [
        (parse_ntriples, "<http://e.x/s> <http://e.x/p> <> .", "relative IRI ''", 31),
        (parse_ntriples, "<> <http://e.x/p> <http://e.x/o> .", "relative IRI ''", 1),
        (parse_turtle, ":s :p <> .", "relative IRI ''", 7),
        (parse_turtle, "@prefix e: <> .\n:s :p e: .", "relative IRI ''", 7),
        (parse_ntriples, '<http://e.x/s> <http://e.x/p> "v"^^<> .', "relative datatype IRI ''", 36),
        (parse_ntriples, '<http://e.x/s> <http://e.x/p> "v"^^<rel> .', "relative datatype IRI 'rel'", 36),
        (parse_turtle, ':s :p "v"^^<> .', "relative datatype IRI ''", 12),
        (parse_turtle, ':s :p ( "v"^^<rel> ) .', "relative datatype IRI 'rel'", 14),
        (parse_turtle, '@prefix r: <rel#> .\n:s :p "v"^^r:dt .', "relative datatype IRI 'rel#dt'", 12),
        (parse_ntriples, '<rel> <http://e.x/p> "v" .', "relative IRI 'rel'", 1),
        (parse_ntriples, '<http://e.x/s>  <http://e.x/p> <rel> .', "relative IRI 'rel'", 1),
    ],
)
def test_empty_and_relative_iris_are_parse_errors_with_a_position(parse, text, message, column):
    lines = text.split("\n")
    with pytest.raises(ParseError) as err:
        parse("# header\n" + text + "\n")
    assert str(err.value) == f"{message} and no base IRI is declared at line {len(lines) + 1}, column {column}"


def test_a_local_name_escape_stands_for_the_character_after_the_backslash():
    g = parse_turtle("@prefix ex: <http://e/> .\nex:a\\.b ex:p ex:c\\#d\\-e\\~ , ex:f\\/g\\?h\\=i\\&j\\%20 .").graph
    assert triples_of(g) == {
        (IRI("http://e/a.b"), IRI("http://e/p"), IRI("http://e/c#d-e~")),
        (IRI("http://e/a.b"), IRI("http://e/p"), IRI("http://e/f/g?h=i&j%20")),
    }
    assert serialize_ntriples(g).startswith("<http://e/a.b> <http://e/p> <http://e/c#d-e~> .\n")


def test_a_local_name_may_end_in_an_escaped_dot():
    g = parse_turtle("@prefix ex: <http://e.x/> .\nex:a\\. ex:p ex:b\\.c\\. , ex:d\\..\n").graph
    assert serialize_ntriples(g) == (
        "<http://e.x/a.> <http://e.x/p> <http://e.x/b.c.> .\n<http://e.x/a.> <http://e.x/p> <http://e.x/d.> .\n"
    )


@pytest.mark.parametrize(
    "qname, message",
    [
        ("ex:a\\qb", "bad escape \\q in qname ex:a\\qb"),
        ("ex:a\\\\b", "bad escape \\\\ in qname ex:a\\\\b"),
        ("ex:a\\\\.", "bad escape \\\\ in qname ex:a\\\\"),  # a '.' after an escaped backslash is not escaped
        ("e\\.x:a", "bad escape \\. in qname e\\.x:a"),  # a prefix name has no escapes
        ("ex:a\\;ex:b", "unsupported escape \\; in qname ex:a\\"),  # ';' ends the word
        ("ex:a\\,ex:b", "unsupported escape \\, in qname ex:a\\"),
        ("ex:a\\@b", "unsupported escape \\@ in qname ex:a\\"),
    ],
)
def test_other_backslashes_in_a_qname_are_parse_errors_at_the_qname(qname, message):
    with pytest.raises(ParseError) as err:
        parse_turtle(f"@prefix ex: <http://e/> .\nex:s ex:p\n  {qname} .")
    assert str(err.value) == f"{message} at line 3, column 3"


@pytest.mark.parametrize(
    "text, column",
    [
        ("ex:it's ex:p ex:o .", 1),
        ("ex:s ex:p ex:it's .", 11),
        ("ex:s ex:it's ex:o .", 6),
        ("ex:s ex:p 'v'^^ex:it's .", 16),
        ("ex:s ex:p ex:o''x .", 11),
        ("ex:s ex:p ex:it\\'s'x .", 11),  # one escaped, one not
    ],
)
def test_an_unescaped_quote_in_a_qname_is_a_parse_error_at_the_qname(text, column):
    # PN_PREFIX and PN_LOCAL (RDF 1.1 Turtle) exclude ', which a local name may hold only escaped
    qname = next(word for word in text.replace("'v'^^", "").split() if "'" in word)
    for parse in (parse_turtle, oracle_parse_turtle):
        with pytest.raises(ParseError) as err:
            parse("@prefix ex: <http://e/> .\n" + text)
        assert str(err.value) == f"unescaped ' in qname {qname} at line 2, column {column}"


def test_an_escaped_quote_and_the_other_reserved_characters_stay_in_a_qname():
    g = parse_turtle("@prefix ex: <http://e/> .\nex:it\\'s ex:p ex:a~!$&*+=/?#b .").graph
    assert triples_of(g) == {(IRI("http://e/it's"), IRI("http://e/p"), IRI("http://e/a~!$&*+=/?#b"))}


def test_query_patterns_refuse_an_unescaped_quote_in_a_qname():
    with pytest.raises(ParseError, match="^unescaped ' in qname ex:it's at line 2, column 4$"):
        parse_query("PREFIX ex: <http://e/>\n?x ex:it's ?y")


def test_a_language_tag_of_prefix_round_trips():
    # N-Triples 1.1 LANGTAG admits "prefix"; the scanner reads it as the @prefix token
    line = '<http://e.x/s> <http://e.x/p> "x"@prefix .\n'
    expected = {(IRI("http://e.x/s"), IRI("http://e.x/p"), Literal("x", language="prefix"))}
    g = parse_ntriples(line)
    assert triples_of(g) == expected and serialize_ntriples(g) == line
    assert triples_of(parse_turtle(line).graph) == triples_of(oracle_parse_turtle(line).graph) == expected
    ttl = '@prefix e: <http://e.x/> .\ne:s e:p "x"@prefix , "y"@prefix ; e:q "x"@prefix .'
    text = serialize_ntriples(parse_turtle(ttl).graph)
    assert text == serialize_ntriples(oracle_parse_turtle(ttl).graph) == serialize_ntriples(parse_ntriples(text))
    assert text.count('"x"@prefix') == 2 and len(parse_ntriples(text)) == 3
    assert parse_term('"x"@prefix') == Literal("x", language="prefix")


@pytest.mark.parametrize("label", ["a.b", "a..b", "b.1.c", "x-y.z_0"])
def test_a_blank_node_label_may_hold_an_inner_dot(label):
    g = Graph()
    g.add(BlankNode(label), IRI("http://e.x/p"), BlankNode(label))
    text = serialize_ntriples(g)
    assert text == f"_:{label} <http://e.x/p> _:{label} .\n"
    assert triples_of(parse_ntriples(text)) == triples_of(parse_turtle(text).graph) == triples_of(g)
    assert serialize_ntriples(parse_ntriples(text)) == text
    assert parse_term(f"_:{label}") == BlankNode(label)


def test_a_dot_after_a_blank_node_label_still_ends_the_statement():
    text = "_:a <http://e.x/p> _:b.\n_:c.d <http://e.x/p> _:e. # done\n"
    expected = {(BlankNode("a"), IRI("http://e.x/p"), BlankNode("b")), (BlankNode("c.d"), IRI("http://e.x/p"), BlankNode("e"))}
    assert triples_of(parse_ntriples(text)) == triples_of(parse_turtle(text).graph) == expected
    with pytest.raises(ParseError) as err:
        parse_ntriples("_:.a <http://e.x/p> <http://e.x/o> .\n")  # a label starts with no '.'
    assert str(err.value) == "empty blank node label at line 1, column 1"
    with pytest.raises(ParseError) as err:
        parse_ntriples("_:a <http://e.x/p> _:b.. \n")
    assert str(err.value) == "trailing content after '.' at line 1, column 24"


# RDF 1.1 Turtle, section 6.4: 'x', '''x''' and """x""" read as "x" does, in Turtle only
TURTLE_STRINGS = (
    ":x :p 'v' , 'it\\'s'@en , '''it's'''^^xsd:string .\n"
    ':y :p """say "hi" or ""bye"" """ , """two\nlines"""@en-GB , \'\'\'\'\'\' , "" .\n'
)


def test_turtle_string_forms_round_trip_through_ntriples():
    g = parse_turtle(TURTLE_STRINGS).graph
    assert triples_of(g) == {
        (N("x"), N("p"), Literal("v")),
        (N("x"), N("p"), Literal("it's", language="en")),
        (N("x"), N("p"), Literal("it's", datatype=XSD + "string")),
        (N("y"), N("p"), Literal('say "hi" or ""bye"" ')),
        (N("y"), N("p"), Literal("two\nlines", language="en-GB")),
        (N("y"), N("p"), Literal("")),
    }
    text = serialize_ntriples(g)
    assert '"two\\nlines"@en-GB' in text
    assert triples_of(parse_ntriples(text)) == triples_of(g)
    assert serialize_ntriples(parse_ntriples(text)) == text
    assert triples_of(oracle_parse_turtle(TURTLE_STRINGS).graph) == triples_of(g)


def test_a_long_string_moves_the_lines_of_what_follows():
    with pytest.raises(ParseError, match="^unexpected token 'oops' at line 3, column 5$"):
        parse_turtle(':x :p """a\nb\n""" oops .\n')


@pytest.mark.parametrize(
    "text, message, column",
    [
        (":x :p 'v .", "unterminated literal", 7),
        (":x :p 'v\n' .", "newline inside literal", 7),
        (":x :p '''v'' .", "unterminated literal", 7),
        (':x :p """v\n"" .', "unterminated literal", 7),
        (":x :p 'a\\qb' .", "unknown escape \\q", 9),
        (':x :p """a\\qb""" .', "unknown escape \\q", 11),
        (":x :p '''\\u12''' .", "bad \\u escape", 10),
    ],
)
def test_a_malformed_turtle_string_is_a_parse_error_at_its_fault(text, message, column):
    for parse in (parse_turtle, oracle_parse_turtle):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"{message} at line 1, column {column}"


@pytest.mark.parametrize(
    "parse, text, column",
    [
        (parse_ntriples, '<http://e.x/a> <http://e.x/p> "x\ry" .\n', 31),
        (parse_turtle, '<http://e.x/a> <http://e.x/p> "x\ry" .\n', 31),
        (parse_turtle, "<http://e.x/a> <http://e.x/p> 'x\ry' .\n", 31),
        (oracle_parse_turtle, "<http://e.x/a> <http://e.x/p> 'x\ry' .\n", 31),
        (parse_term, '"x\ry"', 1),
        (parse_query, '?x <http://e.x/p> "x\ry"', 19),
    ],
    ids=["ntriples", "turtle", "turtle-single-quote", "oracle-turtle", "parse-term", "query-constant"],
)
def test_a_raw_cr_in_a_short_string_is_a_parse_error_as_a_newline_is(parse, text, column):
    # RDF 1.1 Turtle [22] and [23] exclude CR and LF from a short string
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"newline inside literal at line 1, column {column}"


def test_ntriples_lines_ended_by_a_lone_cr_read_as_their_lf_twin():
    # RDF 1.1 N-Triples: EOL ::= [#xD#xA]+
    lf = "<http://e.x/a> <http://e.x/p> <http://e.x/b> .\n<http://e.x/a> <http://e.x/p> <http://e.x/c> .\n"
    for text in (lf.replace("\n", "\r"), lf.replace("\n", "\r\r"), lf.replace("\n", "\r\n").replace(" .\r\n<", " .\r<")):
        assert list(parse_ntriples(text)._triples) == list(parse_ntriples(lf)._triples)
    # a CR between the terms of one triple is whitespace
    assert triples_of(parse_ntriples("<http://e.x/a>\r<http://e.x/p> <http://e.x/b> .\r")) == triples_of(parse_ntriples(lf.split("\n")[0]))


@pytest.mark.parametrize(
    "lines, message, line, column",
    [
        (['<http://e.x/a> <http://e.x/p> "x\\q" .'], "unknown escape \\q", 2, 33),
        (["<http://e.x/a> <http://e.x/p> <http://e.x/c> . <http://e.x/d>"], "trailing content after '.'", 2, 48),
        (["# comment", "", "<rel> <http://e.x/p> <http://e.x/c> ."], "relative IRI 'rel' and no base IRI is declared", 4, 1),
        (["<http://e.x/a> <http://e.x/p> <http://e.x/c>"], "expected '.' terminating the triple", 2, 45),
    ],
    ids=["escape", "trailing", "relative-iri", "missing-dot"],
)
def test_an_error_in_a_cr_ended_ntriples_file_is_located_as_in_its_lf_twin(lines, message, line, column):
    lf = "\n".join(["<http://e.x/a> <http://e.x/p> <http://e.x/b> ."] + lines) + "\n"
    for text in (lf, lf.replace("\n", "\r"), lf.replace("\n", "\r\n"), lf.replace("\n", "\r", 1)):  # the last mixes CR and LF ends
        with pytest.raises(ParseError) as err:
            parse_ntriples(text)
        assert (str(err.value), err.value.line, err.value.column) == (f"{message} at line {line}, column {column}", line, column), repr(text)


def test_a_long_string_keeps_a_raw_cr():
    for parse in (parse_turtle, oracle_parse_turtle):
        for text in (':x :p """x\ry""" .', ":x :p '''x\ry''' ."):
            assert {t.object for t in parse(text).graph.triples()} == {Literal("x\ry")}


@pytest.mark.parametrize(
    "obj, message, column",
    [
        ("'x'", "unexpected token \"'x'\"", 31),
        ('"""x"""', "expected '.' terminating the triple", 33),
        ("'''it's'''", "unexpected token \"'''it's'''\"", 31),
        ('"""a\nb"""', "unterminated literal", 33),
    ],
)
def test_ntriples_and_query_patterns_keep_rejecting_the_turtle_string_forms(obj, message, column):
    with pytest.raises(ParseError) as err:
        parse_ntriples(f"<http://e.x/a> <http://e.x/p> {obj} .\n")
    assert str(err.value) == f"{message} at line 1, column {column}"
    with pytest.raises(ParseError) as err:
        parse_query(f"<http://e.x/a> <http://e.x/p> {obj}")
    assert (err.value.line, err.value.column) == (1, column)
