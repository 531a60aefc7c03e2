import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgkit import (
    Facet,
    Frame,
    FrameSystem,
    IRI,
    KGError,
    Literal,
    ParseError,
    Triple,
    ValidationError,
    frames_to_graph,
    parse_frames,
    saturate_rdfs,
    vocab,
)
from kgkit.frames import DEFAULT, DEFINED, GENERAL, INDIVIDUAL

from oracles import oracle_parse_frames

SAMPLE_FRAMES = """
(Vegetables
  <:category food>)
(Carrots
  <:IS-A Vegetables>
  <:colour orange>)
(carrot1
  <:INSTANCE-OF Carrots>)
(City)
(warsaw
  <:INSTANCE-OF City>
  <:voivodeship mazowieckie>
  <:population 1 860 281>)
"""


def sample_system() -> FrameSystem:
    return parse_frames(SAMPLE_FRAMES, namespace="http://example.edu#")


def test_individual_inherits_defined_value_from_general_frame():
    fs = sample_system()
    got = fs.get_slot("carrot1", "colour")
    assert got is not None
    assert (got.value, got.frame) == ("orange", "Carrots")


def test_local_slot_wins():
    fs = sample_system()
    got = fs.get_slot("warsaw", "population")
    assert (got.value, got.frame) == ("1 860 281", "warsaw")


def test_slot_defined_nowhere_is_absent_not_error():
    fs = sample_system()
    assert fs.get_slot("carrot1", "taste") is None
    assert fs.get_slot("no_such_frame", "x") is None


def test_inheritance_crosses_instanceof_then_isa():
    fs = sample_system()
    got = fs.get_slot("carrot1", "category")
    assert (got.value, got.frame) == ("food", "Vegetables")


def test_default_facets_inherited_but_not_exported():
    fs = FrameSystem(namespace="http://example.edu#")
    fs.general("Vegetables", slots={"colour": Facet(value="green", strength=DEFAULT)})
    fs.individual("veg1", parents=("Vegetables",))
    got = fs.get_slot("veg1", "colour")
    assert (got.value, got.strength) == ("green", DEFAULT)
    g = fs.to_graph()
    assert not any(t.predicate == IRI("http://example.edu#colour") for t in g.triples())


def test_defined_over_default_override():
    fs = FrameSystem()
    fs.general("Vegetables", slots={"colour": Facet(value="green", strength=DEFAULT)})
    fs.general("Carrots", parents=("Vegetables",), slots={"colour": Facet(value="orange", strength=DEFINED)})
    fs.individual("carrot1", parents=("Carrots",))
    got = fs.get_slot("carrot1", "colour")
    assert (got.value, got.strength, got.frame) == ("orange", DEFINED, "Carrots")


def test_nearer_ancestor_wins_over_farther():
    fs = FrameSystem()
    fs.general("A", slots={"s": Facet(value="far")})
    fs.general("B", parents=("A",), slots={"s": Facet(value="near")})
    fs.individual("x", parents=("B",))
    assert fs.get_slot("x", "s").value == "near"


def test_multiple_inheritance_declaration_order_tiebreak():
    fs = FrameSystem()
    fs.general("Left", slots={"s": Facet(value="left")})
    fs.general("Right", slots={"s": Facet(value="right")})
    fs.individual("x", parents=("Left", "Right"))
    fs.individual("y", parents=("Right", "Left"))
    assert fs.get_slot("x", "s").value == "left"
    assert fs.get_slot("y", "s").value == "right"


def test_fill_slot_accepts_allowed_value():
    fs = FrameSystem()
    fs.general("Carrots", slots={"colour": Facet(allowed_values=frozenset({"orange", "purple"}))})
    fs.individual("carrot1", parents=("Carrots",))
    result = fs.fill_slot("carrot1", "colour", "orange")
    assert result.accepted
    assert fs.get_slot("carrot1", "colour").frame == "carrot1"


def test_fill_slot_rejects_and_cites_constraint_source():
    fs = FrameSystem()
    fs.general("Carrots", slots={"colour": Facet(allowed_values=frozenset({"orange", "purple"}))})
    fs.individual("carrot1", parents=("Carrots",))
    result = fs.fill_slot("carrot1", "colour", "blue")
    assert not result.accepted
    assert result.source == "Carrots"
    assert "blue" in result.reason
    assert fs.get_slot("carrot1", "colour") is None


def test_fill_slot_unconstrained_accepts_anything():
    fs = FrameSystem()
    fs.general("Thing")
    fs.individual("t1", parents=("Thing",))
    assert fs.fill_slot("t1", "anything", 42).accepted
    assert fs.get_slot("t1", "anything").value == 42


def test_fill_slot_type_constraint():
    fs = FrameSystem()
    fs.general("Vegetables")
    fs.general("Carrots", parents=("Vegetables",))
    fs.general("Dish", slots={"main_ingredient": Facet(required_type="Vegetables")})
    fs.individual("soup", parents=("Dish",))
    assert fs.fill_slot("soup", "main_ingredient", "Carrots").accepted
    rejected = fs.fill_slot("soup", "main_ingredient", "Pork")
    assert not rejected.accepted and rejected.source == "Dish"


def test_isa_cycle_rejected_deterministically():
    fs = FrameSystem()
    fs.general("A")
    fs.general("B", parents=("A",))
    with pytest.raises(ValidationError, match="cycle"):
        fs.add(Frame("A", GENERAL, parents=("B",)))


def test_frame_kind_link_separation():
    from kgkit import ParseError

    with pytest.raises(ValidationError):
        Frame("x", "other-kind")
    with pytest.raises(ParseError):
        parse_frames("(x <:IS-A A> <:INSTANCE-OF B>)")


def test_export_warsaw_frame():
    fs = sample_system()
    g = fs.to_graph()
    ns = "http://example.edu#"
    assert g.contains(Triple(IRI(ns + "warsaw"), vocab.RDF_TYPE, IRI(ns + "City")))
    assert g.contains(Triple(IRI(ns + "warsaw"), IRI(ns + "voivodeship"), Literal("mazowieckie")))
    assert g.contains(Triple(IRI(ns + "warsaw"), IRI(ns + "population"), Literal("1 860 281")))


def test_export_carrots_frame():
    fs = sample_system()
    g = fs.to_graph()
    ns = "http://example.edu#"
    assert g.contains(Triple(IRI(ns + "Carrots"), vocab.RDFS_SUBCLASSOF, IRI(ns + "Vegetables")))
    assert g.contains(Triple(IRI(ns + "Carrots"), IRI(ns + "colour"), Literal("orange")))


def test_export_empty_system():
    assert len(frames_to_graph(FrameSystem())) == 0


def ten_frame_fixture() -> FrameSystem:
    fs = FrameSystem(namespace="http://example.edu#")
    fs.general("Thing")
    fs.general("Food", parents=("Thing",))
    fs.general("Vegetables", parents=("Food",), slots={"colour": Facet(value="green", strength=DEFAULT)})
    fs.general("Carrots", parents=("Vegetables",), slots={"colour": Facet(value="orange")})
    fs.general("Locality", parents=("Thing",))
    fs.general("City", parents=("Locality",))
    fs.individual("carrot1", parents=("Carrots",))
    fs.individual("warsaw", parents=("City",), slots={"voivodeship": Facet(value="mazowieckie"), "population": Facet(value="1 860 281")})
    fs.individual("poznan", parents=("City",))
    fs.individual("snack1", parents=("Food",))
    return fs


def test_export_inference_agreement_over_ten_frames():
    fs = ten_frame_fixture()
    closure = saturate_rdfs(fs.to_graph())
    ns = fs.namespace

    def is_a_closure(name: str) -> set[str]:
        # frame-level reachability: INSTANCE-OF then IS-A*
        frame = fs.frames[name]
        reach, stack = set(), list(frame.parents)
        while stack:
            nxt = stack.pop()
            if nxt in reach:
                continue
            reach.add(nxt)
            parent = fs.frames.get(nxt)
            if parent is not None:
                stack.extend(parent.parents)
        return reach

    for name, frame in fs.frames.items():
        if frame.kind != INDIVIDUAL:
            continue
        for ancestor in is_a_closure(name):
            assert Triple(IRI(ns + name), vocab.RDF_TYPE, IRI(ns + ancestor)) in closure, (name, ancestor)


def test_parse_frames_multiline_values_and_kinds():
    fs = sample_system()
    assert fs.frames["Carrots"].kind == GENERAL
    assert fs.frames["carrot1"].kind == INDIVIDUAL
    assert fs.frames["City"].kind == GENERAL
    assert fs.frames["warsaw"].slots["population"].value == "1 860 281"


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("(a)\n  x", "expected '(' to open a frame, got 'x'", 2, 3),
        ("(a)\n( \n  <:IS-A b>)", "frame has no name", 3, 3),
        ("(a\n  <:IS-A b>\n", "unterminated frame 'a'", 3, 1),
        ("(a\n  <:IS-A b> c)", "expected '<slot value>' in frame 'a'", 2, 13),
        ("(a <x y>\n  <:IS-A b)", "unterminated slot in frame 'a'", 2, 3),
        ("(a <x y>\n  < \n >)", "empty slot in frame 'a'", 3, 2),
        ("(a <:IS-A b>\n  <:INSTANCE-OF c d\n>)", "frame 'a' mixes IS-A and INSTANCE-OF", 3, 1),
        ("(a <:colour red>)\n  (a <:size big>)", "frame 'a' is defined twice", 2, 3),
    ],
)
def test_frame_file_errors_give_the_line_and_column_of_the_fault(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_frames(text)
    assert str(err.value) == f"{message} at line {line}, column {column}"


@pytest.mark.parametrize("space", ["\t", "\n ", "\u2028", " \t\n "])
def test_any_whitespace_ends_a_slot_name(space):
    fs = parse_frames(f"(a <:colour{space}orange>)")
    assert fs.frames["a"].slots == {"colour": Facet(value="orange")}


SPACES = ["", " ", "\n", "  \n\t", "\n\n ", "\u2028"]
NAMES = ["A", "b1", "Carrots", "x-y", "a>b", "(c"]  # the last two fit a frame name but not a slot value


@st.composite
def frame_documents(draw):
    """Frame documents with links, multi-token values and newlines between and inside tokens; half carry one fault."""
    space = st.sampled_from(SPACES)
    names = st.sampled_from(NAMES)

    def words(count):
        return "".join(draw(st.sampled_from(SPACES[1:])) + draw(st.sampled_from(NAMES[:-2])) for _ in range(count))

    frames = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        slots = []
        link = draw(st.sampled_from([":IS-A", ":is-a", ":INSTANCE-OF", None]))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            slot = draw(st.sampled_from([link, ":colour", "size", ":population", ":IS-A\nb"])) or ":colour"
            slots.append(f"<{draw(space)}{slot} {words(draw(st.integers(min_value=0, max_value=3)))}{draw(space)}>")
        name = draw(names)
        frames.append(f"({draw(space)}{name}" + "".join(draw(space) + s for s in slots) + f"{draw(space)})")
    text = "".join(draw(space) + f for f in frames) + draw(space)
    fault = draw(st.sampled_from(["stray", "no (", "no >", "no )", "empty", "mixed", None, None, None, None, None]))
    if fault == "stray":
        at = draw(st.integers(min_value=0, max_value=len(text)))
        text = text[:at] + draw(st.sampled_from("x>()<:")) + text[at:]
    elif fault in ("no (", "no >", "no )"):
        places = [i for i, c in enumerate(text) if c == fault[-1]]
        if places:
            at = draw(st.sampled_from(places))
            text = text[:at] + text[at + 1 :]
    elif fault is not None:  # an empty slot, or links of both kinds, before a frame's ')'
        places = [i for i, c in enumerate(text) if c == ")"]
        if places:
            at = draw(st.sampled_from(places))
            text = text[:at] + (f"<{draw(space)}>" if fault == "empty" else "<:IS-A A><:INSTANCE-OF b1>") + text[at:]
    return text


def points_at_fault(text: str, err: ParseError) -> bool:
    """Does the error's column point at the character its message names (the end of the text for a frame)?"""
    at = sum(len(line) + 1 for line in text.split("\n")[: err.line - 1]) + err.column - 1
    c = text[at] if at < len(text) else None
    message = str(err)
    if message.startswith("expected '('"):
        return message.startswith(f"expected '(' to open a frame, got {c!r}")
    if message.startswith("expected '<slot value>'"):
        return c is not None and not c.isspace() and c not in "<)"
    if message.startswith("frame has no name"):
        return c is None or c in "<)"
    if message.startswith("unterminated frame"):
        return c is None
    if " is defined twice at " in message:
        return c == "("
    if message.startswith("unterminated slot"):
        return c == "<" and ">" not in text[at:]
    return c == ">"  # an empty slot, or one that mixes the links: at the '>' closing it


def frames_of(system) -> list:
    return [(f.name, f.kind, f.parents, f.slots) for f in system.frames.values()]


@settings(max_examples=400)
@given(frame_documents())
@example("(a <x\u2028y\n 1  2 >)\u2028")  # any whitespace ends a slot name and is skipped
@example("((a <x y>) (b>c <z>)")  # a '(' and a '>' inside names
@example("(A <:IS-A B>) (B <:is-a A>)")  # an IS-A cycle: a ValidationError from FrameSystem.add
@example("(A\n<:IS-A B>\n<:INSTANCE-OF C\n>")  # mixed links, the slot's '>' on the next line
def test_parse_frames_matches_the_character_reader_oracle(text):
    try:
        expected = frames_of(oracle_parse_frames(text))
    except KGError as exc:
        expected = (type(exc), str(exc))
    try:
        got = frames_of(parse_frames(text))
    except ParseError as exc:
        assert points_at_fault(text, exc), (text, str(exc))
        got = (type(exc), str(exc).replace(f", column {exc.column}", ""))
    except KGError as exc:
        got = (type(exc), str(exc))
    assert got == expected


@pytest.mark.parametrize(
    "text, namespace, message",
    [
        ('(a"b <:IS-A C>)', "urn:frame:", "frame 'a\"b' puts '\"' into an IRI"),
        ("(a <:IS-A C{1}>)", "urn:frame:", "parent 'C{1}' puts '{' into an IRI"),
        ("(a <:IS-A C> <:x|y 5>)", "urn:frame:", "slot 'x|y' puts '|' into an IRI"),
        ("(A <:colour red>)", "http://e.org/a b#", "namespace 'http://e.org/a b#' puts ' ' into an IRI"),
        ("(A <:IS-A B>)", "frames/", "frame 'A' in namespace 'frames/' does not make an absolute IRI"),
    ],
)
def test_export_rejects_a_name_that_makes_an_escaped_or_relative_iri(text, namespace, message):
    fs = parse_frames(text, namespace=namespace)
    with pytest.raises(ValidationError) as err:
        fs.to_graph()
    assert str(err.value) == message


def test_export_takes_absolute_names_in_an_empty_namespace():
    fs = parse_frames("(urn:x:Dish <urn:x:main urn:x:Soup>) (urn:x:Soup)", namespace="")
    assert set(fs.to_graph().triples()) == {Triple(IRI("urn:x:Dish"), IRI("urn:x:main"), IRI("urn:x:Soup"))}
