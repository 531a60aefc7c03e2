"""Deterministic input generators for the benchmark workloads.

Every generator emits text (Turtle, N-Triples, CSV, query files) directly
and never imports kgkit, so neither the set-up time nor the output checks
depend on the code under test.  Randomness comes from `random.Random`
seeded with a string built from the benchmark seed and the item index;
string seeds are hashed with SHA-512, so the same seed gives the same
bytes on every platform and Python version.

Alongside the text, each generator returns what it knows by construction
(expected N-Triples lines, expected task verdicts and instance sets), which
the workloads use as independent output checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
TYPE = RDF + "type"
SCO = RDFS + "subClassOf"
SPO = RDFS + "subPropertyOf"
DOMAIN = RDFS + "domain"
RANGE = RDFS + "range"
LABEL = RDFS + "label"
SAMEAS = OWL + "sameAs"


def seeded_rng(*parts) -> random.Random:
    """A generator seeded by the joined parts: same parts, same stream."""
    return random.Random(":".join(str(p) for p in parts))


def iri(value: str) -> str:
    return f"<{value}>"


def lit(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def nt_line(s: str, p: str, o: str) -> str:
    """One N-Triples line from already formatted terms."""
    return f"{s} {p} {o} ."


# ---------------------------------------------------------------------------
# ingest: a shared RDFS TBox, per-document ABoxes and reified CSV tables
#
# Why this workload exists: it is the write-heavy path (tokenizing,
# interning and insertion, one RDFS fixpoint per document, closure
# materialization and canonical serialization).  Each document is
# saturated exactly once and the data has no owl:sameAs, so ROADMAP item 2
# (saturate once and share the closure) and item 3 (sameAs by rewriting)
# are predicted not to move it; item 4's tokenizer work is exercised here.
# ---------------------------------------------------------------------------

ING = "http://bench.kgkit.org/ingest#"

# Document sizes in input triples: a fixed schedule over a x4 range around
# 3k.  Every cycle of documents has the same size mix, so a run's median
# does not depend on which sizes the seed happened to draw, and three of
# the five sizes lie within 25% of the middle, so the median rests on many
# documents.
INGEST_SIZES = (1500, 2400, 3000, 3750, 6000)
INGEST_REIFY_ROWS = 500
_ING_FAMILIES = 6
_ING_EDGES = 3  # property edges per individual
_ING_TRIPLES_PER_IND = 2 + _ING_EDGES  # type, label, edges


def _ingest_classes():
    """Class tree 2 x 3 x 3 x 2: returns (edges child->parent, levels)."""
    levels = [[f"C{i}" for i in range(2)]]
    edges = []
    for fan in (3, 3, 2):
        nxt = []
        for parent in levels[-1]:
            for k in range(fan):
                child = f"{parent}_{k}"
                nxt.append(child)
                edges.append((child, parent))
        levels.append(nxt)
    return edges, levels


def _ingest_properties(levels):
    """Property families top -> 2 mid -> 2 leaves each, with domain/range.

    Returns (subPropertyOf edges, domain/range triples, leaf properties).
    Domains and ranges point into other branches of the class tree, so a
    typed individual gains types beyond its own ancestors.
    """
    sub, dr, leaves = [], [], []
    for f in range(_ING_FAMILIES):
        top = f"p{f}"
        dr.append((top, DOMAIN, levels[1][f % len(levels[1])]))
        dr.append((top, RANGE, levels[1][(f + 3) % len(levels[1])]))
        for m in range(2):
            mid = f"{top}_{m}"
            sub.append((mid, top))
            dr.append((mid, DOMAIN, levels[2][(3 * f + m) % len(levels[2])]))
            dr.append((mid, RANGE, levels[2][(3 * f + m + 9) % len(levels[2])]))
            for leaf_k in range(2):
                leaf = f"{mid}_{leaf_k}"
                sub.append((leaf, mid))
                leaves.append(leaf)
    return sub, dr, leaves


@dataclass
class IngestDoc:
    """One ingest document with what its outputs must contain."""

    turtle: str
    expected_nt: set[str]  # N-Triples lines `kgkit parse` must emit
    csv: str  # table for `kgkit reify` with REIFY_SPEC
    expected_reified: set[str]  # N-Triples lines `kgkit reify` must emit


def ingest_tbox() -> tuple[list[str], set[str]]:
    """Turtle statements and N-Triples lines of the TBox every document shares."""
    cls_edges, levels = _ingest_classes()
    sub, dr, _ = _ingest_properties(levels)
    ttl, nt = [], set()
    for child, parent in cls_edges:
        ttl.append(f"ex:{child} rdfs:subClassOf ex:{parent} .")
        nt.add(nt_line(iri(ING + child), iri(SCO), iri(ING + parent)))
    for child, parent in sub:
        ttl.append(f"ex:{child} rdfs:subPropertyOf ex:{parent} .")
        nt.add(nt_line(iri(ING + child), iri(SPO), iri(ING + parent)))
    for prop, pred, cls in dr:
        local = "domain" if pred == DOMAIN else "range"
        ttl.append(f"ex:{prop} rdfs:{local} ex:{cls} .")
        nt.add(nt_line(iri(ING + prop), iri(pred), iri(ING + cls)))
    return ttl, nt


_ITEMS = ("natural yoghurt", "rye bread", "green tea", "oat milk", "dark chocolate", "olive oil", "brown rice", "apple juice")
_SHOPS = ("north market", "harbour store", "old town deli", "station kiosk", "river mall")

REIFY_SPEC = f"""class: {ING}Purchase
namespace: {ING}
instance-name: purchase
role: buyer -> {ING}buyer
role: item -> {ING}item
role: shop -> {ING}shop
role: quantity -> {ING}quantity
role: day -> {ING}day
literal: quantity
literal: day
"""

_REIFY_ROLES = (("buyer", False), ("item", False), ("shop", False), ("quantity", True), ("day", True))


def _camel(value: str) -> str:
    return "".join(tok[:1].upper() + tok[1:] for tok in value.split())


def ingest_table(seed: int, index: int, rows: int = INGEST_REIFY_ROWS) -> tuple[str, set[str]]:
    """A purchases CSV and the reified N-Triples lines it must produce."""
    rng = seeded_rng("ingest-table", seed, index)
    lines = ["buyer,item,shop,quantity,day"]
    expected = set()
    for i in range(1, rows + 1):
        row = {
            "buyer": f"customer {rng.randrange(max(1, rows // 2))}",
            "item": rng.choice(_ITEMS),
            "shop": rng.choice(_SHOPS),
            "quantity": str(rng.randint(1, 9)),
            "day": f"2023-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
        }
        lines.append(",".join(row[c] for c, _ in _REIFY_ROLES))
        inst = iri(f"{ING}purchase{i}")
        expected.add(nt_line(inst, iri(TYPE), iri(ING + "Purchase")))
        for column, literal in _REIFY_ROLES:
            value = lit(row[column]) if literal else iri(ING + _camel(row[column]))
            expected.add(nt_line(inst, iri(ING + column), value))
    return "\n".join(lines) + "\n", expected


def ingest_doc(seed: int, index: int, size: int | None = None, table_rows: int = INGEST_REIFY_ROWS) -> IngestDoc:
    """Document `index` of the stream: the TBox plus an ABox of ~`size` triples.

    Without `size`, the document takes its slot in the size schedule.
    """
    if size is None:
        size = INGEST_SIZES[index % len(INGEST_SIZES)]
    rng = seeded_rng("ingest-doc", seed, index)
    _, levels = _ingest_classes()
    _, _, leaves = _ingest_properties(levels)
    tbox_ttl, expected = ingest_tbox()
    n = max(2, size // _ING_TRIPLES_PER_IND)
    ttl = [f"@prefix ex: <{ING}> .", f"# ingest document {index}, seed {seed}", *tbox_ttl]
    for i in range(n):
        name = f"d{index}i{i}"
        subj = iri(ING + name)
        cls = rng.choice(levels[-1])
        label = f"item {i} of document {index}"
        by_prop: dict[str, list[str]] = {}
        for _ in range(_ING_EDGES):
            by_prop.setdefault(rng.choice(leaves), []).append(f"d{index}i{rng.randrange(n)}")
        parts = [f"ex:{name} a ex:{cls}", f"rdfs:label {lit(label)}"]
        expected.add(nt_line(subj, iri(TYPE), iri(ING + cls)))
        expected.add(nt_line(subj, iri(LABEL), lit(label)))
        for prop, objs in by_prop.items():
            parts.append(f"ex:{prop} " + " , ".join(f"ex:{o}" for o in objs))
            for o in objs:
                expected.add(nt_line(subj, iri(ING + prop), iri(ING + o)))
        ttl.append(" ;\n    ".join(parts) + " .")
    csv_text, reified = ingest_table(seed, index, table_rows)
    return IngestDoc("\n".join(ttl) + "\n", expected, csv_text, reified)


# ---------------------------------------------------------------------------
# reasoning: one consistent OWL KB with sameAs triads, updated in rounds
#
# Why this workload exists: it is the read-heavy use of one store (index
# probes, joins, probe copies).  Every reasoning task saturates from
# scratch today, so ROADMAP item 2 (saturate once, resume incrementally)
# does most of its work here; the update batches stop an unbounded closure
# cache from looking free.  The sameAs triads exercise item 3 (sameAs by
# rewriting).
# ---------------------------------------------------------------------------

KB = "http://bench.kgkit.org/kb#"

_ROLES = 8  # leaf classes under Employee
_COURSES = 4  # leaf classes under Student
_CITIES = 4  # leaf classes under City

_KB_TBOX = [
    ("Person", SCO, "Agent"),
    ("Organisation", SCO, "Agent"),
    ("Person", OWL + "disjointWith", "Organisation"),
    ("Place", OWL + "disjointWith", "Agent"),
    ("Product", OWL + "disjointWith", "Agent"),
    ("Product", OWL + "disjointWith", "Place"),
    ("Employee", SCO, "Person"),
    ("Student", SCO, "Person"),
    ("Company", SCO, "Organisation"),
    ("University", SCO, "Organisation"),
    ("City", SCO, "Place"),
    ("Region", SCO, "Place"),
    ("Device", SCO, "Product"),
    ("Tool", SCO, "Product"),
    ("Gadget", OWL + "equivalentClass", "Device"),
    ("worksFor", DOMAIN, "Person"),
    ("worksFor", RANGE, "Organisation"),
    ("employs", OWL + "inverseOf", "worksFor"),
    ("knows", DOMAIN, "Person"),
    ("knows", RANGE, "Person"),
    ("manages", SPO, "knows"),
    ("owns", DOMAIN, "Person"),
    ("owns", RANGE, "Product"),
    ("basedIn", DOMAIN, "Organisation"),
    ("basedIn", RANGE, "Place"),
    ("locatedIn", TYPE, OWL + "TransitiveProperty"),
    ("locatedIn", DOMAIN, "Place"),
    ("locatedIn", RANGE, "Place"),
    ("partOf", TYPE, OWL + "TransitiveProperty"),
    ("partOf", DOMAIN, "Organisation"),
    ("partOf", RANGE, "Organisation"),
    ("hasCEO", TYPE, OWL + "FunctionalProperty"),
    ("hasCEO", DOMAIN, "Organisation"),
    ("hasCEO", RANGE, "Person"),
    ("madeBy", TYPE, OWL + "FunctionalProperty"),
    ("madeBy", DOMAIN, "Product"),
    ("madeBy", RANGE, "Organisation"),
]
_KB_TBOX += [(f"Role{k}", SCO, "Employee") for k in range(_ROLES)]
_KB_TBOX += [(f"Course{k}", SCO, "Student") for k in range(_COURSES)]
_KB_TBOX += [(f"City{k}", SCO, "City") for k in range(_CITIES)]


def _kb(local: str) -> str:
    return local if "://" in local else KB + local


def _kb_line(s: str, p: str, o: str) -> str:
    return nt_line(iri(_kb(s)), iri(_kb(p)), iri(_kb(o)))


@dataclass
class ReasoningKB:
    """The base KB as N-Triples lines plus the facts the checks rely on."""

    lines: list[str]
    persons: list[str]
    orgs: list[str]
    products: list[str]
    role_of: dict[str, int]  # person -> Role index, for persons outside any sameAs class
    task_pool: list[str]  # persons never linked by sameAs (task targets)
    link_pool: list[str]  # persons that update rounds may link by sameAs
    city_members: dict[int, set[str]]  # City index -> member IRIs
    sameas_individuals: int
    individuals: int


def reasoning_kb(seed: int, scale: float = 1.0) -> ReasoningKB:
    """~3k triples and ~1k individuals at scale 1, with ~30 sameAs triads."""
    rng = seeded_rng("reasoning-kb", seed, scale)

    def count(n: int, least: int) -> int:
        return max(least, round(n * scale))

    # lower limits keep every task answerable at the oracle's 1/50 scale
    n_person, n_org, n_place, n_product = count(450, 12), count(150, 2), count(150, 4), count(250, 2)
    n_triads = max(1, round(30 * scale))
    persons = [f"person{i}" for i in range(n_person)]
    orgs = [f"org{i}" for i in range(n_org)]
    places = [f"place{i}" for i in range(n_place)]
    products = [f"product{i}" for i in range(n_product)]
    lines = [_kb_line(s, p, o) for s, p, o in _KB_TBOX]
    role_of: dict[str, int] = {}
    city_members: dict[int, set[str]] = {k: set() for k in range(_CITIES)}

    # Regions form a binary tree under locatedIn and cities cycle over the
    # regions below the root: some city is always two locatedIn steps from
    # a region, and the transitive closure has the same size for every seed.
    n_regions = max(2, n_place // 5)
    for i, pl in enumerate(places):
        if i < n_regions:
            lines.append(_kb_line(pl, TYPE, "Region"))
            if i > 0:
                lines.append(_kb_line(pl, "locatedIn", places[(i - 1) // 2]))
        else:
            k = rng.randrange(_CITIES)
            city_members[k].add(KB + pl)
            lines.append(_kb_line(pl, TYPE, f"City{k}"))
            lines.append(_kb_line(pl, "locatedIn", places[1 + i % (n_regions - 1)]))
    for i, org in enumerate(orgs):
        lines.append(_kb_line(org, TYPE, "Company" if i % 3 else "University"))
        lines.append(_kb_line(org, "basedIn", rng.choice(places)))
        lines.append(_kb_line(org, "hasCEO", rng.choice(persons)))
        if i % 3 == 1:
            lines.append(_kb_line(org, "partOf", orgs[i // 3]))
    for i, pr in enumerate(products):
        # product1 is a Gadget not made by org0, so the equivalence
        # competency question has an answer at every scale
        lines.append(_kb_line(pr, TYPE, "Gadget" if i == 1 else rng.choice(("Device", "Gadget", "Tool"))))
        lines.append(_kb_line(pr, "madeBy", orgs[-1] if i == 1 else rng.choice(orgs)))
    for i, pe in enumerate(persons):
        if i % 5 == 4:
            lines.append(_kb_line(pe, TYPE, f"Course{rng.randrange(_COURSES)}"))
        else:
            k = rng.randrange(_ROLES)
            role_of[pe] = k
            lines.append(_kb_line(pe, TYPE, f"Role{k}"))
        lines.append(_kb_line(pe, "worksFor", rng.choice(orgs)))
        lines.append(_kb_line(pe, "knows" if i % 4 else "manages", rng.choice(persons)))
        lines.append(_kb_line(pe, "owns", rng.choice(products)))

    shuffled = persons[:]
    rng.shuffle(shuffled)
    triad_members = shuffled[: 3 * n_triads]
    for t in range(n_triads):
        a, b, c = triad_members[3 * t : 3 * t + 3]
        lines.append(_kb_line(a, SAMEAS, b))
        lines.append(_kb_line(b, SAMEAS, c))
    rest = shuffled[3 * n_triads :]
    half = len(rest) // 2
    link_pool = rest[:half]
    task_pool = [p for p in rest[half:] if p in role_of]
    for p in triad_members:
        role_of.pop(p, None)
    return ReasoningKB(
        lines=lines,
        persons=persons,
        orgs=orgs,
        products=products,
        role_of=role_of,
        task_pool=task_pool,
        link_pool=link_pool,
        city_members=city_members,
        sameas_individuals=3 * n_triads,
        individuals=n_person + n_org + n_place + n_product,
    )


def reasoning_update(seed: int, kb: ReasoningKB, round_no: int, base_triples: int) -> list[str]:
    """Round `round_no`'s batch: ~1% new assertions, one of them a sameAs link.

    New persons get a Role, an employer, an acquaintance and a possession;
    the sameAs link joins two persons of the link pool, which no task
    targets.  Nothing here can make the KB inconsistent.
    """
    rng = seeded_rng("reasoning-update", seed, round_no)
    target = max(5, base_triples // 100)
    out = []
    a, b = rng.sample(kb.link_pool, 2)
    out.append(_kb_line(a, SAMEAS, b))
    i = 0
    while len(out) < target:
        pe = f"new{round_no}p{i}"
        out.append(_kb_line(pe, TYPE, f"Role{rng.randrange(_ROLES)}"))
        out.append(_kb_line(pe, "worksFor", rng.choice(kb.orgs)))
        out.append(_kb_line(pe, "knows", rng.choice(kb.persons)))
        out.append(_kb_line(pe, "owns", rng.choice(kb.products)))
        i += 1
    return out


@dataclass
class TaskPlan:
    """One round's task arguments and the answers known by construction."""

    person: str  # task-pool person with a known Role
    role: int
    role_sub: int  # Role used for the subsumption task
    city: int
    course: int
    query_text: str
    expected_city_members: set[str] = field(default_factory=set)


def reasoning_tasks(seed: int, kb: ReasoningKB, round_no: int) -> TaskPlan:
    rng = seeded_rng("reasoning-tasks", seed, round_no)
    person = rng.choice(kb.task_pool)
    city = rng.randrange(_CITIES)
    role_q = rng.randrange(_ROLES)
    query_text = (
        f"PREFIX : <{KB}>\n"
        "ASSUME closed\n"
        "SELECT ?p ?o\n"
        f"?p a :Role{role_q}\n"
        "?p :worksFor ?o\n"
        "NOT { ?o :partOf ?x }\n"
    )
    return TaskPlan(
        person=person,
        role=kb.role_of[person],
        role_sub=rng.randrange(_ROLES),
        city=city,
        course=rng.randrange(_COURSES),
        query_text=query_text,
        expected_city_members=set(kb.city_members[city]),
    )


COMPETENCY = f"""QUERY persons
PREFIX : <{KB}>
REGIME rdfs
?x a :Person
QUERY employers
PREFIX : <{KB}>
REGIME owl
?o :employs ?p
QUERY transitive-location
PREFIX : <{KB}>
REGIME owl
SELECT ?c
?c :locatedIn ?r
?r :locatedIn ?top
QUERY identities
PREFIX : <{KB}>
REGIME owl
?x owl:sameAs ?y
QUERY devices-by-equivalence
PREFIX : <{KB}>
ASSUME closed
REGIME owl
SELECT ?d
?d a :Device
NOT {{ ?d :madeBy :org0 }}
"""
COMPETENCY_NAMES = ("persons", "employers", "transitive-location", "identities", "devices-by-equivalence")


# ---------------------------------------------------------------------------
# link_prediction: a TransE training graph and held-out triples
#
# Why this workload exists: it is the only one that reaches the embeddings
# module (negative sampling, gradient steps, filtered ranking) and it
# bypasses the reasoner entirely.  ROADMAP item 4's training changes
# (entity list built once, id-space sampling, vectorised ranking) do their
# work here and nowhere else.
# ---------------------------------------------------------------------------

LP = "http://bench.kgkit.org/lp#"


@dataclass
class LinkPredictionData:
    train_nt: str
    test_nt: str
    train_triples: int
    test_triples: int
    entities: int
    relations: int


def link_prediction(seed: int, scale: float = 1.0) -> LinkPredictionData:
    """~3k training triples over ~500 entities and 10 relations, ~200 held out.

    Relation r maps entity group g to group (g + r + 1) mod G, so the graph
    has structure a translation model can learn.  Every term of a held-out
    triple also occurs in training.
    """
    rng = seeded_rng("link-prediction", seed, scale)
    n_ent = max(20, round(500 * scale))
    n_rel = 10
    n_train = max(40, round(3000 * scale))
    n_test = max(4, round(200 * scale))
    groups = 25 if n_ent >= 100 else 5
    members = [[e for e in range(n_ent) if e % groups == g] for g in range(groups)]
    triples: set[tuple[int, int, int]] = set()
    while len(triples) < n_train + n_test:
        s = rng.randrange(n_ent)
        r = rng.randrange(n_rel)
        o = rng.choice(members[(s % groups + r + 1) % groups])
        triples.add((s, r, o))
    ordered = sorted(triples)
    rng.shuffle(ordered)
    train = set(ordered[n_test:])
    seen_e = {x for s, _, o in train for x in (s, o)}
    seen_r = {r for _, r, _ in train}
    test = []
    for t in ordered[:n_test]:
        if t[0] in seen_e and t[2] in seen_e and t[1] in seen_r:
            test.append(t)
        else:
            train.add(t)

    def text(ts) -> str:
        return "".join(nt_line(iri(f"{LP}e{s}"), iri(f"{LP}r{r}"), iri(f"{LP}e{o}")) + "\n" for s, r, o in sorted(ts))

    return LinkPredictionData(
        train_nt=text(train),
        test_nt=text(test),
        train_triples=len(train),
        test_triples=len(test),
        entities=len(seen_e),
        relations=len(seen_r),
    )
