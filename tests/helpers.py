"""Shared fixtures: seeded random graphs and the worked examples used across tests."""

import random

from kgkit import Graph, IRI, BlankNode, Literal, Triple, parse_turtle, vocab

EDU = "http://example.edu#"
NS = "http://example.org/ns#"


def edu(name: str) -> IRI:
    return IRI(EDU + name)


# ---------------------------------------------------------------------------
# Random graphs over a small vocabulary
# ---------------------------------------------------------------------------

_NODES = [IRI(f"http://t.example/n{i}") for i in range(10)]


def random_rdfs_graph(seed: int, max_triples: int = 100) -> Graph:
    """Random mix of schema and instance triples over a 10-term vocabulary."""
    rng = random.Random(seed)
    g = Graph()
    n = rng.randint(5, max_triples)
    schema_preds = [vocab.RDFS_SUBCLASSOF, vocab.RDFS_SUBPROPERTYOF, vocab.RDFS_DOMAIN, vocab.RDFS_RANGE]
    for _ in range(n):
        kind = rng.random()
        a, b = rng.choice(_NODES), rng.choice(_NODES)
        if kind < 0.35:
            g.add(a, rng.choice(schema_preds), b)
        elif kind < 0.55:
            g.add(a, vocab.RDF_TYPE, b)
        elif kind < 0.65:
            g.add(a, rng.choice(_NODES), Literal(f"v{rng.randint(0, 4)}"))
        else:
            g.add(a, rng.choice(_NODES), b)
    return g


def random_owl_graph(seed: int, max_triples: int = 100, allow_violations: bool = True) -> Graph:
    """RDFS mix plus identity, property characteristics and class operators."""
    rng = random.Random(seed)
    g = random_rdfs_graph(seed * 7919 + 13, max_triples=max(5, max_triples - 20))
    lists = 0
    for _ in range(rng.randint(4, 14)):
        kind = rng.random()
        a, b = rng.choice(_NODES), rng.choice(_NODES)
        if kind < 0.2:
            if not isinstance(b, Literal):
                g.add(a, vocab.OWL_SAMEAS, b)
        elif kind < 0.35:
            g.add(a, vocab.RDF_TYPE, vocab.OWL_FUNCTIONALPROPERTY)
        elif kind < 0.5:
            g.add(a, vocab.RDF_TYPE, vocab.OWL_TRANSITIVEPROPERTY)
        elif kind < 0.6:
            g.add(a, vocab.OWL_INVERSEOF, b)
        elif kind < 0.7:
            g.add(a, vocab.OWL_EQUIVALENTCLASS, b)
        elif kind < 0.8 and allow_violations:
            g.add(a, vocab.OWL_DISJOINTWITH, b)
        elif kind < 0.9:
            lists += 1
            m1, m2 = rng.choice(_NODES), rng.choice(_NODES)
            cell1 = BlankNode(f"list{lists}a")
            cell2 = BlankNode(f"list{lists}b")
            op = vocab.OWL_INTERSECTIONOF if rng.random() < 0.5 else vocab.OWL_UNIONOF
            g.add(a, op, cell1)
            g.add(cell1, vocab.RDF_FIRST, m1)
            g.add(cell1, vocab.RDF_REST, cell2)
            g.add(cell2, vocab.RDF_FIRST, m2)
            g.add(cell2, vocab.RDF_REST, vocab.RDF_NIL)
        else:
            r = BlankNode(f"restr{lists}x{rng.randint(0, 999)}")
            g.add(r, vocab.OWL_ONPROPERTY, rng.choice(_NODES))
            restriction = vocab.OWL_SOMEVALUESFROM if rng.random() < 0.5 else vocab.OWL_ALLVALUESFROM
            g.add(r, restriction, rng.choice(_NODES))
            g.add(rng.choice(_NODES), vocab.RDF_TYPE, r)
    return g


def shuffled_batches(rng: random.Random, triples: list, batches: int) -> list[list]:
    """`triples` in a random order, cut into `batches` runs; a run may be empty."""
    triples = list(triples)
    rng.shuffle(triples)
    cuts = sorted(rng.randrange(len(triples) + 1) for _ in range(batches - 1))
    return [triples[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(triples)])]


def random_consistent_owl_graph(seed: int, max_triples: int = 60) -> Graph:
    """Seeded search for a random OWL graph with no violations."""
    from kgkit import is_consistent

    for attempt in range(50):
        g = random_owl_graph(seed * 1009 + attempt, max_triples=max_triples, allow_violations=False)
        ok, _ = is_consistent(g)
        if ok:
            return g
    raise AssertionError("could not build a consistent random graph")


# ---------------------------------------------------------------------------
# Worked examples reused by several suites
# ---------------------------------------------------------------------------


def city_kb() -> Graph:
    g = Graph()
    g.add(edu("City"), vocab.RDFS_SUBCLASSOF, edu("Locality"))
    g.add(edu("Warsaw"), vocab.RDF_TYPE, edu("City"))
    return g


def district_kb() -> Graph:
    g = Graph()
    g.add(edu("is_district_of"), vocab.RDFS_SUBPROPERTYOF, edu("is_part_of"))
    g.add(edu("is_district_of"), vocab.RDFS_RANGE, edu("City"))
    g.add(edu("Ursynow"), edu("is_district_of"), edu("Warsaw"))
    return g


def fathers_kb() -> Graph:
    g = Graph()
    g.add(edu("Ola"), edu("has_father"), edu("Jan"))
    g.add(edu("Ola"), edu("has_father"), edu("Marcin"))
    g.add(edu("has_father"), vocab.RDF_TYPE, vocab.OWL_FUNCTIONALPROPERTY)
    return g


def pumpkin_kb(contradictory: bool = False) -> Graph:
    g = Graph()
    g.add(edu("Herbivore"), vocab.OWL_DISJOINTWITH, edu("Carnivore"))
    g.add(edu("Pumpkin"), vocab.RDF_TYPE, edu("Carnivore"))
    if contradictory:
        g.add(edu("Pumpkin"), vocab.RDF_TYPE, edu("Herbivore"))
    return g


ALLERGEN_TTL = """
@prefix edu: <http://example.edu#> .
edu:WheatFlour a edu:Product ; edu:contains_allergen edu:gluten .
edu:DarkSoySauce a edu:Product ; edu:contains_allergen edu:soya .
edu:Sausages a edu:Product ; edu:contains_allergen edu:soya , edu:gluten .
edu:Cream a edu:Product ; edu:contains_allergen edu:milk .
edu:Peanuts a edu:Product ; edu:contains_allergen edu:nuts .
"""


def allergen_kb() -> Graph:
    return parse_turtle(ALLERGEN_TTL).graph


GLUTEN_FREE_QUERY = """
PREFIX edu: <http://example.edu#>
ASSUME closed
SELECT ?x
?x a edu:Product
NOT { ?x edu:contains_allergen edu:gluten }
"""


# ---------------------------------------------------------------------------
# Synthetic embedding graph: containment hierarchy with an inverse relation
# ---------------------------------------------------------------------------

CONTAINS = IRI(EDU + "contains")
WITHIN = IRI(EDU + "within")


def location_graph() -> tuple[Graph, list[Triple]]:
    """A two-country location hierarchy for link-prediction tests.

    The `contains` relation is transitively closed (so the model sees
    composition pairs) and every edge also appears inverted as `within`.
    Ten spread-out triples are held out for evaluation; every entity and
    relation still occurs in the training graph.
    """
    children: dict[str, list[str]] = {
        "CountryA": ["RegionA1", "RegionA2"],
        "CountryB": ["RegionB1", "RegionB2"],
        "RegionA1": ["CityA1a", "CityA1b", "CityA1c", "CityA1d"],
        "RegionA2": ["CityA2a", "CityA2b", "CityA2c"],
        "RegionB1": ["CityB1a", "CityB1b", "CityB1c", "CityB1d"],
        "RegionB2": ["CityB2a", "CityB2b", "CityB2c"],
    }
    pairs: set[tuple[str, str]] = set()
    for parent, kids in children.items():
        for kid in kids:
            pairs.add((parent, kid))
    for country in ("CountryA", "CountryB"):
        for region in children[country]:
            for city in children[region]:
                pairs.add((country, city))

    triples = []
    for parent, kid in sorted(pairs):
        triples.append(Triple(edu(parent), CONTAINS, edu(kid)))
        triples.append(Triple(edu(kid), WITHIN, edu(parent)))

    held_out_pairs = [
        ("CountryA", "CityA1a", CONTAINS),
        ("CountryA", "CityA2b", CONTAINS),
        ("CountryB", "CityB1c", CONTAINS),
        ("CountryB", "CityB2a", CONTAINS),
        ("RegionA1", "CityA1c", CONTAINS),
        ("CityA1b", "CountryA", WITHIN),
        ("CityA2c", "CountryA", WITHIN),
        ("CityB1a", "CountryB", WITHIN),
        ("CityB2b", "CountryB", WITHIN),
        ("CityB1d", "RegionB1", WITHIN),
    ]
    held_out = {Triple(edu(s), p, edu(o)) for s, o, p in held_out_pairs}
    train = Graph()
    test = []
    for t in triples:
        if t in held_out:
            test.append(t)
        else:
            train.insert(t)
    assert len(test) == 10
    return train, test
