import pytest

from kgkit import (
    Literal,
    ReifyError,
    TableSpec,
    Triple,
    ValidationError,
    camel_case,
    parse_table_spec,
    reify_table,
    rows_from_csv,
    vocab,
)

from helpers import EDU, edu
from oracles import triples_of


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
