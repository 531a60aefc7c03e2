import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgkit import (
    IRI,
    KGError,
    Literal,
    ParseError,
    ReifyError,
    TableSpec,
    Triple,
    ValidationError,
    camel_case,
    parse_table_spec,
    reify_table,
    rows_from_csv,
    serialize_ntriples,
    vocab,
)

from helpers import EDU, edu
from oracles import oracle_reify_table, triples_of


def purchase_spec() -> TableSpec:
    return TableSpec(
        relation_class=EDU + "Purchase",
        namespace=EDU,
        roles=(
            ("Product", EDU + "product"),
            ("Number of pieces", EDU + "number_of_pieces"),
            ("Buyer", EDU + "buyer"),
            ("Seller", EDU + "seller"),
        ),
        literal_columns=frozenset({"Number of pieces"}),
    )


ROW_1 = {"Buyer": "Marcin Kowalski", "Seller": "Shop1", "Product": "Natural yoghurt", "Number of pieces": "5"}
ROW_2 = {"Buyer": "Aleksandra Nowak", "Seller": "Shop2", "Product": "Butter", "Number of pieces": "2"}


def test_first_purchase_row_emits_exactly_the_five_triples():
    g = reify_table([ROW_1], purchase_spec())
    p1 = edu("purchase1")
    assert triples_of(g) == {
        (p1, vocab.RDF_TYPE, edu("Purchase")),
        (p1, edu("product"), edu("NaturalYoghurt")),
        (p1, edu("number_of_pieces"), Literal("5")),
        (p1, edu("buyer"), edu("MarcinKowalski")),
        (p1, edu("seller"), edu("Shop1")),
    }


def test_both_rows_yield_ten_triples_with_numbered_instances():
    g = reify_table([ROW_1, ROW_2], purchase_spec())
    assert len(g) == 10
    assert g.contains(Triple(edu("purchase2"), vocab.RDF_TYPE, edu("Purchase")))
    assert g.contains(Triple(edu("purchase2"), edu("buyer"), edu("AleksandraNowak")))


def test_zero_rows_gives_empty_graph():
    assert len(reify_table([], purchase_spec())) == 0


def test_output_size_is_rows_times_columns_plus_one():
    rows = [ROW_1, ROW_2, dict(ROW_1, Buyer="Jan Nowak")]
    g = reify_table(rows, purchase_spec())
    n_cols = len(purchase_spec().roles)
    assert len(g) == len(rows) * (n_cols + 1)


def test_missing_column_names_row_and_column():
    bad = {k: v for k, v in ROW_1.items() if k != "Seller"}
    with pytest.raises(ReifyError, match=r"row 2.*'Seller'"):
        reify_table([ROW_1, bad], purchase_spec())


def test_empty_iri_cell_names_row_and_column_and_literal_cells_stay_empty():
    blank = dict(ROW_2, Product=" ", **{"Number of pieces": ""})
    with pytest.raises(ReifyError, match="row 2 .*'Product'"):
        reify_table([ROW_1, blank], purchase_spec())
    g = reify_table([dict(ROW_1, **{"Number of pieces": ""})], purchase_spec())
    assert Triple(edu("purchase1"), edu("number_of_pieces"), Literal("")) in g


def test_spec_rejects_duplicate_properties():
    with pytest.raises(ValidationError):
        TableSpec(
            relation_class=EDU + "Purchase",
            namespace=EDU,
            roles=(("A", EDU + "p"), ("B", EDU + "p")),
        )


def test_spec_rejects_literal_column_outside_role_map():
    with pytest.raises(ValidationError):
        TableSpec(
            relation_class=EDU + "Purchase",
            namespace=EDU,
            roles=(("A", EDU + "p"),),
            literal_columns=frozenset({"B"}),
        )


def test_instance_stem_defaults_to_lowercased_class_name():
    assert purchase_spec().stem() == "purchase"
    spec = TableSpec(relation_class=EDU + "Purchase", namespace=EDU, roles=(("A", EDU + "p"),), instance_name="sale")
    g = reify_table([{"A": "x"}], spec)
    assert g.contains(Triple(edu("sale1"), vocab.RDF_TYPE, edu("Purchase")))


@pytest.mark.parametrize(
    "cell,expected",
    [
        ("Natural yoghurt", "NaturalYoghurt"),
        ("Marcin Kowalski", "MarcinKowalski"),
        ("Shop1", "Shop1"),
        ("dark soy sauce", "DarkSoySauce"),
        ("Żółty ser", "ŻółtySer"),
    ],
)
def test_camel_case(cell, expected):
    assert camel_case(cell) == expected


def test_rows_from_csv_with_quoting():
    text = 'Buyer,Seller,Product,"Number of pieces"\n"Kowalski, Marcin",Shop1,Natural yoghurt,5\n'
    rows = rows_from_csv(text)
    assert rows == [{"Buyer": "Kowalski, Marcin", "Seller": "Shop1", "Product": "Natural yoghurt", "Number of pieces": "5"}]


def test_parse_table_spec_splits_lines_on_newline_only():
    spec = parse_table_spec(f"class: {EDU}R\nnamespace: {EDU}\nrole: a\u2028b -> http://e.org/p\nliteral: a\u2028b\n")
    assert spec.roles == (("a\u2028b", "http://e.org/p"),)
    assert spec.literal_columns == frozenset({"a\u2028b"})
    g = reify_table(rows_from_csv("a\u2028b\n1\n"), spec)
    assert Triple(edu("r1"), IRI("http://e.org/p"), Literal("1")) in set(g.triples())


def test_parse_table_spec_round_trip():
    text = f"""
# purchases from the sales table
class: {EDU}Purchase
namespace: {EDU}
role: Product -> {EDU}product
role: Number of pieces -> {EDU}number_of_pieces
role: Buyer -> {EDU}buyer
role: Seller -> {EDU}seller
literal: Number of pieces
"""
    spec = parse_table_spec(text)
    assert spec == purchase_spec()


@pytest.mark.parametrize("cell, char", [('x"y', '"'), ("a>b", ">"), ("a\\b", "\\"), ("a{b}", "{"), ("a\x01b", "\x01")])
def test_an_iri_cell_that_puts_an_excluded_character_into_the_iri_names_row_and_column(cell, char):
    with pytest.raises(ReifyError) as err:
        reify_table([ROW_1, dict(ROW_2, Seller=cell)], purchase_spec())
    assert str(err.value) == f"row 2 puts {char!r} into an IRI in column 'Seller'"
    g = reify_table([dict(ROW_1, **{"Number of pieces": cell})], purchase_spec())  # a literal cell keeps it
    assert Triple(edu("purchase1"), edu("number_of_pieces"), Literal(cell)) in g


# ---------------------------------------------------------------------------
# Spec IRIs and CSV shape
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "change, message",
    [
        ({"namespace": "http://e.org/a b/"}, "namespace 'http://e.org/a b/' in the table spec puts ' ' into an IRI"),
        ({"instance_name": "my row"}, "instance-name 'my row' in the table spec puts ' ' into an IRI"),
        ({"roles": (("A", "http://e.org/<p>"),)}, "role 'http://e.org/<p>' in the table spec puts '<' into an IRI"),
        ({"relation_class": "R"}, "class 'R' in the table spec does not make an absolute IRI"),
        ({"roles": (("A", "p"),)}, "role 'p' in the table spec does not make an absolute IRI"),
        ({"namespace": "e.org/"}, "namespace 'e.org/' in the table spec does not make an absolute IRI"),
    ],
)
def test_spec_rejects_an_iri_it_would_write_relative_or_with_an_excluded_character(change, message):
    fields = dict(relation_class="http://e.org/Row", namespace="http://e.org/", roles=(("A", "http://e.org/p"),))
    with pytest.raises(ValidationError) as err:
        TableSpec(**dict(fields, **change))
    assert str(err.value) == message


def test_spec_accepts_a_relative_namespace_that_an_absolute_instance_name_completes():
    spec = TableSpec(relation_class=EDU + "R", namespace="", roles=(("A", EDU + "p"),), instance_name="urn:row")
    assert spec.stem() == "urn:row"


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,a\n1,2\n", "the header names column 'a' twice"),
        ("a,b,c\n1,2,3\n1,2\n", "row 2 has fewer cells than the header"),
        ("a,b\n1,2,3\n", "row 1 has more cells than the header"),
    ],
)
def test_rows_from_csv_rejects_a_duplicate_column_or_a_row_of_another_width(text, message):
    with pytest.raises(ParseError) as err:
        rows_from_csv(text)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# The id path: one memo per role, against the term-at-a-time oracle
# ---------------------------------------------------------------------------


def test_one_text_in_an_iri_column_and_a_literal_column_gives_an_iri_and_a_literal():
    g = reify_table([dict(ROW_1, Product="5")], purchase_spec())
    assert Triple(edu("purchase1"), edu("product"), edu("5")) in g
    assert Triple(edu("purchase1"), edu("number_of_pieces"), Literal("5")) in g


def test_cells_that_camel_case_to_one_iri_share_its_id():
    rows = [dict(ROW_1, Buyer="jan nowak"), dict(ROW_2, Buyer="Jan Nowak"), dict(ROW_2, Buyer="JanNowak")]
    g = reify_table(rows, purchase_spec())
    assert g.term(g.lookup(edu("JanNowak"))) == edu("JanNowak")
    assert [t.subject for t in g.triples() if t.predicate == edu("buyer")] == [edu(f"purchase{i}") for i in (1, 2, 3)]
    assert sum(term == edu("JanNowak") for term in g._id_to_term) == 1


def test_a_cell_that_names_an_instance_is_that_instance():
    spec = TableSpec(relation_class=EDU + "Sale", namespace=EDU, roles=(("A", EDU + "next"),), instance_name="S")
    g = reify_table([{"A": "s2"}, {"A": "s1"}], spec)
    assert Triple(edu("S1"), edu("next"), edu("S2")) in g and Triple(edu("S2"), edu("next"), edu("S1")) in g
    assert g._id_to_term == oracle_reify_table([{"A": "s2"}, {"A": "s1"}], spec)._id_to_term


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"Seller": " "}, "row 3 has an empty cell in IRI column 'Seller'"),
        ({"Seller": "Shop<1>"}, "row 3 puts '<' into an IRI in column 'Seller'"),
        ({"Seller": None}, "row 3 is missing column 'Seller'"),
    ],
)
def test_a_bad_cell_after_good_rows_fails_at_its_own_row(bad, message):
    # the literal column holds the same text in every row, so only the IRI column's own memo could let it through
    text = bad["Seller"]
    good = dict(ROW_1, **{"Number of pieces": text or "1"})
    last = {k: v for k, v in dict(good, **bad).items() if v is not None}
    with pytest.raises(ReifyError) as err:
        reify_table([good, good, last], purchase_spec())
    assert str(err.value) == message


SPECS = [
    TableSpec("http://e.org/R", "http://e.org/", (("a", "http://e.org/P0"), ("b", "http://e.org/P1")), frozenset({"b"})),
    TableSpec("http://e.org/R", "http://e.org/", (("a", "http://e.org/P0"), ("a", "http://e.org/P1")), instance_name="R"),
    TableSpec("http://e.org/R", "urn:t:", (("c", "http://e.org/P0"), ("a", "http://e.org/P1"), ("b", "http://e.org/P2"))),
    TableSpec("http://e.org/R", "", (("a", "http://e.org/P0"), ("b", "http://e.org/P1")), frozenset({"a"}), "urn:row"),
]
# IRIs that meet an instance, a property or the class, texts that camel-case alike, and an absolute local name
CELLS = ["x", "X", "x y", "xY", "r", "r1", "R2", "p0", "P1", "5", "é", "urn:b"]


@st.composite
def tables(draw):
    """A spec and rows of repeating cells, with at most one empty or excluded cell or missing column among them."""
    spec = draw(st.sampled_from(SPECS))
    texts = draw(st.lists(st.one_of(st.sampled_from(CELLS), st.text(max_size=3)), min_size=1, max_size=3))
    cell = st.sampled_from([twin for text in texts for twin in (text, text + " ", text.swapcase())])
    rows = [{column: draw(cell) for column in "abc"} for _ in range(draw(st.integers(min_value=0, max_value=6)))]
    if rows and draw(st.booleans()):
        row, column = draw(st.sampled_from(rows)), draw(st.sampled_from("abc"))
        bad = draw(st.sampled_from(["", " ", 'a"b', "a<b", None]))
        if bad is None:
            del row[column]
        else:
            row[column] = bad
    return spec, rows


def outcome(reify, rows, spec):
    """Serialized bytes and dictionary order of the reified graph, or the error's type and message."""
    try:
        g = reify(rows, spec)
    except KGError as exc:
        return type(exc), str(exc)
    return serialize_ntriples(g), g._id_to_term


GOOD = {"a": "x", "b": "y", "c": "z"}


@settings(max_examples=300)
@given(tables())
@example((SPECS[0], [GOOD, GOOD, dict(GOOD, a=" ")]))  # an empty IRI cell after good rows
@example((SPECS[0], [GOOD, dict(GOOD, b='a"b'), dict(GOOD, a='a"b')]))  # excluded, after the literal column took it
@example((SPECS[2], [GOOD, {"a": "x", "b": "y"}]))  # a missing column after a good row
@example((SPECS[1], [dict(GOOD, a="r2"), dict(GOOD, a="R1")]))  # cells that are instances
@example((SPECS[3], [dict(GOOD, b="urn:b"), dict(GOOD, b="x")]))  # a relative cell IRI, after the text was a literal
@example((SPECS[0], [GOOD, dict(GOOD, a="x ", b="x "), dict(GOOD, b=" x")]))  # texts that make one IRI but three literals
def test_reify_table_matches_the_term_at_a_time_oracle(table):
    spec, rows = table
    assert outcome(reify_table, rows, spec) == outcome(oracle_reify_table, rows, spec)
