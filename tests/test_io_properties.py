"""Differential and property tests for the N-Triples/Turtle readers and the canonical serializer.

The regular-expression scanner must produce the tokens, and raise the
ParseError messages, lines and columns, of the per-character tokenizer kept
in `oracles.oracle_tokenize`.  The split N-Triples path and `parse_term`'s
per-text reader must build the graph or term, or raise the error, of the
token scanner alone, and the memoized
Turtle parser those of the Term-per-occurrence parser kept in
`oracles.oracle_parse_turtle`.  `kgkit parse` answers any document with
exit 0, or exit 2 and one positioned error line, and every reader raises
a fault as a ParseError at a line and column of its input.  Canonical
N-Triples must keep the bytes of the term-level serializer kept in
`oracles.oracle_serialize_ntriples`.  A label `BlankNode` accepts reads
back through both readers.
"""

import hashlib
import os
import random
import re
import tempfile
from collections import Counter
from contextlib import contextmanager, redirect_stderr
from io import StringIO
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kgkit import (
    BlankNode,
    Graph,
    IRI,
    Literal,
    ParseError,
    Triple,
    ValidationError,
    parse_competency,
    parse_ntriples,
    parse_query,
    parse_term,
    parse_turtle,
    serialize_ntriples,
)
from kgkit import io, terms, vocab
from kgkit.cli import main
from kgkit.io import _Fault, _escape_iri, _escape_string, _line_col, _scan, format_term

from oracles import (
    oracle_escape_iri,
    oracle_escape_string,
    oracle_parse_turtle,
    oracle_serialize_ntriples,
    oracle_tokenize,
    triples_of,
)


def scan_with_positions(text: str, start_line: int = 1, turtle: bool = False):
    """`_scan`'s tokens, or its fault, with each offset turned into a line and column; the first line is `start_line`."""

    def position(offset: int) -> tuple[int, int]:
        line, column = _line_col(text, offset)
        return start_line - 1 + line, column

    try:
        tokens = _scan(text, turtle)
    except _Fault as fault:
        raise fault.at(*position(fault.offset)) from None
    return [(k, v, *position(off)) for k, v, off in tokens]


def outcome(tokenize, text: str, start_line: int = 1, turtle: bool = False):
    try:
        return ("tokens", tokenize(text, start_line, turtle))
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)


# ---------------------------------------------------------------------------
# Scanner against the per-character tokenizer
# ---------------------------------------------------------------------------

# Pieces of real documents, the separators between them, and every malformed
# form the tokenizer reports.
TOKENS = [
    "<http://example.org/a>", "<http://e.x/caf\\u00e9>", "<http://e.x/\\U0001F600>", "<a\\tb>", "<żółw>",
    '"plain"', '"tab\\there"', '"caf\\u00e9"', '"\\U0001F600"', '"naïve ☃"', '"q\\"uote"', '"\\\\"',
    "@en", "@en-GB", "@prefix", "@préfixe", "^^", "_:b1", "_:bé", "_:b>#", "_:a.b", "_:c..d", "a", "ex:a", "ex:a.b", ":x", "ex:a..",
    "ex:", "ex:a#b", "ex:a.<", ".", ";", ",", "[", "]", "(", ")", ".5", ".5e3",
]
SEPARATORS = ["", " ", "\t", "\n", "\r\n", " # comment\n", "#", " ", " "]
MALFORMED = [
    "<unterminated", '"unterminated', "<new\nline>", '"new\nline"', "\\q", "\\u12", "\\U0001F6", "\\",
    "@", "^", "_:", "_: x", ">", "word", "_x", "\x0b", "\x0c", "\x1c", "\x85", " ", "'",
]
ALPHABET = '<>"@^_:.;,()[]# \t\r\n\\abeuxU0123456789fF-é☃ '


# Turtle's other string forms (RDF 1.1 Turtle, section 6.4): 'x', '''x''' and
# its double-quoted twin, long ones holding newlines and runs of their
# quotes, and each way one of them is malformed
TURTLE_STRINGS = [
    "'v'", "''", "'it\\'s'", "'\\u00e9\"'", "'''it's'''", "''''''", "'''a\nb'''", "'''x''y'''",
    '"""v"""', '""""""', '"""a\nb"""', '"""say "hi" ""twice"" """', '"""q\\""""', "'''\\U0001F600'''",
]
TURTLE_MALFORMED = ["'v", "'v\n'", "'''v''", '"""v""', '"""v', "'\\q'", '"""\\u12"""', "'''", '"""', "''''"]


@st.composite
def documents(draw, tokens=TOKENS, malformed=MALFORMED, alphabet=ALPHABET):
    """Tokens and separators, with at most one malformed piece or random snippet spliced in."""
    pieces = draw(st.lists(st.tuples(st.sampled_from(tokens), st.sampled_from(SEPARATORS)), max_size=14))
    text = "".join(token + sep for token, sep in pieces)
    extra = draw(st.one_of(st.just(""), st.sampled_from(malformed), st.text(alphabet=alphabet, max_size=8)))
    at = draw(st.integers(min_value=0, max_value=len(text)))
    return text[:at] + extra + text[at:]


def assert_same_as_oracle(text: str, start_line: int = 1, turtle: bool = False) -> None:
    try:
        expected = outcome(oracle_tokenize, text, start_line, turtle)
    except ValueError:
        # the per-character tokenizer crashed on a \U escape beyond U+10FFFF
        assume(False)
    assert outcome(scan_with_positions, text, start_line, turtle) == expected


@settings(max_examples=500)
@given(documents(), st.integers(min_value=1, max_value=5))
@example('<http://e.x/a> <http://e.x/p> "v\\u00e9"@fr .\n_:b <http://e.x/p> "1"^^<http://e.x/int> . # c\n', 1)
@example("@prefix ex: <http://e.x/> .\nex:a a ex:B ; ex:p ( ex:c ex:d.e ) , [ ex:q ex:r ] .\n", 3)
@example("ex:a\\. ex:p ex:b\\.c\\.. ex:c\\\\. ex:d\\\\\\. x\\.\n\\.\\;", 1)  # a backslash takes the '.' after it
def test_scanner_matches_the_per_character_tokenizer(text, start_line):
    assert_same_as_oracle(text, start_line)


@settings(max_examples=500)
@given(documents(TOKENS + TURTLE_STRINGS, MALFORMED + TURTLE_MALFORMED, ALPHABET + "'"), st.integers(min_value=1, max_value=5))
@example(":a :p '''a\n'b''c''' ; :q \"\"\"x\"\"\"\"\"\" .", 2)
@example("'x' '''y\n'''@en \"\"\"\"\"\"\" ''", 1)
@example("ex:a\\. ex:p ex:b\\.c\\.. ex:c\\\\. ex:d\\\\\\. x\\.\n\\.\\;", 1)
def test_turtle_scanner_matches_the_per_character_tokenizer(text, start_line):
    assert_same_as_oracle(text, start_line, turtle=True)


@pytest.mark.parametrize(
    "text",
    [
        "<http://e.x/a",  # unterminated IRI
        '"abc',  # unterminated literal
        "<http://e.x/a\nb>",  # newline inside an IRI
        '  "ab\ncd"',  # newline inside a literal
        '"a\\qb"',  # unknown escape
        "<a\\x>",
        '"\\u12"',  # short escapes
        '"\\u12',
        "<\\U0001F6>",
        '"a\\',  # dangling escape
        '"\\\n"',
        "x:y @ .",  # dangling '@'
        "@",
        '"v"^<http://e.x/t>',  # lone '^'
        "^",
        "_: x",  # empty blank labels
        "_:",
        " ",  # whitespace that is not a separator
        "ex:a ex:b",
        "ex:a > ex:b",
        "word",
        "_x",
        "\r\n\r\n  <a> <b> \"c\" .  # done\r\n\t@de-AT ^^ _:b.c",
        "ex:a.b. ex:c.",
        "_:.a",  # a label starts with no '.'
        "_:a.b. _:c..",
        "_:a.;_:b.(",
    ],
)
def test_scanner_matches_the_per_character_tokenizer_on_malformed_input(text):
    assert_same_as_oracle(text)
    assert_same_as_oracle(text, start_line=4)


@pytest.mark.parametrize(
    "text",
    [
        "42 -7 +0 1.5 -.5 +.5 1e3 1E-3 2.e+1 -.5e2 true false",
        "1. 2.5. 1e3. true.",
        "4x2 1e e3 1.5.2 0x1F True 1e3.5 --1 + -",
        ".5 .5e3 .25E-1 .5. .5e3. .5.5 .e3 .5x",
    ],
)
def test_shorthand_words_match_the_per_character_tokenizer(text):
    for word in text.split():
        assert_same_as_oracle(word)
        assert_same_as_oracle(f":s :p {word} .\n", start_line=2)
    assert_same_as_oracle(text)


def test_escape_of_no_unicode_scalar_value_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        scan_with_positions('<a> <b> "xy\\U00110000" .')
    assert str(err.value) == "bad \\U escape at line 1, column 12"
    with pytest.raises(ParseError) as err:
        scan_with_positions('<a> <b> "\\uDFFF" .')
    assert str(err.value) == "bad \\u escape at line 1, column 10"
    with pytest.raises(ParseError, match="bad \\\\U escape at line 2"):
        parse_ntriples('<http://e.x/a> <http://e.x/b> "ok" .\n<http://e.x/\\UFFFFFFFF> <http://e.x/p> "x" .\n')


def test_cli_rejects_an_escaped_surrogate_with_exit_2(tmp_path, capsys):
    from kgkit.cli import main

    path = tmp_path / "surrogate.nt"
    path.write_text('<http://e.x/a> <http://e.x/p> "\\uD800" .\n', encoding="utf-8")
    assert main(["parse", str(path)]) == 2
    assert capsys.readouterr().err == "parse error: bad \\u escape at line 1, column 32\n"


# ---------------------------------------------------------------------------
# The split N-Triples path against the token scanner
# ---------------------------------------------------------------------------

# Parts of well-formed lines, then parts that make a line fall back:
# escapes, relative and empty IRIs, labels next to '.' or '<', tags the
# scanner reads otherwise, other whitespace, comments, misplaced or
# malformed terms and missing or extra punctuation.
FAST = [
    ["<http://e.x/s>", "<http://e.x/s2>", "_:b1", "_:b>#", "_:bé", "_:b.1"],
    [" ", "\t", "  \t"],
    ["<http://e.x/p>", "<http://e.x/q>", "<http://e.x/p#a b>"],
    [" ", "\t", "  \t"],
    [
        "<http://e.x/o>", "<http://e.x/s>", "_:b1", "_:o", "_:o..p", '""', '"v"', '"v w # x <y>"', '"v"@en', '"v"@en-GB',
        '"v"@de-CH-1901', '"v"@prefix', '"v"@prefixes', '"v"@é', '"v"^^<http://e.x/dt>', '"v"^^<dt>', '"é☃"',
    ],
    [" .", ".", "\t. ", " . "],
]
ODD = [
    ["<rel>", "<http://e.x/a b>", "<>", "<http://e.x/\\u00e9>", "<http://e.x/\\q>", '"lit"', "_:", "ex:s", "_:b<http://e.x/p>"],
    ["", "\x0c", " \r"],
    ["<p>", "_:p", "<http://e.x/p\\u0041>", '"p"', "a", "<>"],
    ["", "\x0c", "\xa0"],
    [
        "_:o.", "_:o<", "_:.o", '"v"@en_GB', '"v"@', '"v"^^<>', '"v"^^ex:dt', '"v" ^^<http://e.x/dt>',
        '"v\\"q"', '"v\\q"', "<http://e.x/o>>", '"unterminated', "<rel>", "<>",
    ],
    [" .\r", " . # comment", " .#c", " . <http://e.x/x>", " ..", "", " ;", " .\x0b", " .\x85"],
]
LINES = ["", "  ", "# comment", "\r", "\t# c\r"]


@st.composite
def ntriples_line(draw):
    """A well-formed line, or one with a single part that makes it fall back; half of them spaced as the split path takes them."""
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        return draw(st.sampled_from(LINES))
    odd = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=len(FAST) - 1)))
    parts = [draw(st.sampled_from(ODD[i] if i == odd else FAST[i])) for i in range(len(FAST))]
    if draw(st.booleans()):  # an odd separator becomes a space too
        return " ".join(parts[0:5:2]) + (parts[5] if odd == 5 else " .") + draw(st.sampled_from(["", "\r"]))
    return draw(st.sampled_from(["", " ", "\t"])) + "".join(parts)


@st.composite
def ntriples_documents(draw):
    """Lines of either kind, maybe with a CRLF end and a random snippet spliced in."""
    text = "\n".join(draw(st.lists(ntriples_line(), max_size=8))) + draw(st.sampled_from(["", "\n", "\r\n"]))
    extra = draw(st.one_of(st.just(""), st.just(""), st.sampled_from(MALFORMED), st.text(alphabet=ALPHABET, max_size=6)))
    at = draw(st.integers(min_value=0, max_value=len(text)))
    return text[:at] + extra + text[at:]


def parse_outcome(text: str):
    try:
        g = parse_ntriples(text)
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))
    return ("graph", g._id_to_term, list(g._triples))


@contextmanager
def forced_scanner():
    """The per-text reader refuses every text, so the token scanner reads it; yields the texts `_scan` is given."""
    scanned = []
    real_scan = io._scan

    def counted(text, *args):
        scanned.append(text)
        return real_scan(text, *args)

    with mock.patch.object(io, "_read_term", side_effect=ValueError), mock.patch.object(io, "_scan", counted):
        yield scanned


def scanner_outcome(text: str):
    """`parse_outcome` with the token scanner reading each non-blank line once."""
    with forced_scanner() as scanned:
        result = parse_outcome(text)
    lines = text.split("\n")
    if result[0] == "error":  # no line after the one that raised is read
        lines = lines[: result[3]]
    assert scanned == [line for line in lines if line.strip()]
    return result


@settings(max_examples=600)
@given(ntriples_documents())
@example('<http://e.x/s> <http://e.x/p> "v"@prefix .\n')
@example('<http://e.x/s> <http://e.x/p> "v" .\n<rel> <http://e.x/p> <http://e.x/o> .\n')
@example('_:b1 <http://e.x/p> _:o.\n<http://e.x/s>\t<http://e.x/p>\t"v"@en-GB\t. \n_:b<http://e.x/p> <http://e.x/o> .\n')
@example('<http://e.x/s> <http://e.x/p> "v"^^<dt> .\n<http://e.x/s> <http://e.x/p> "v"@en .\r\n')
@example('"v" <http://e.x/p> <http://e.x/o> .\n_:s _:p <http://e.x/o> .\n')
@example('<http://e.x/s> <http://e.x/p> <http://e.x/o> .\x0b\n')  # only one CR is dropped before the split
@example('<http://e.x/\\u00e9> <http://e.x/p> "v" .\r\n<http://e.x/s> <http://e.x/p> "v\\q" .\n')
@example('<http://e.x/s> <http://e.x/p> "v"@en_GB .\n')
@example('<http://e.x/s> <http://e.x/p> "v"@en.\n')
def test_split_path_matches_the_token_scanner(text):
    assert parse_outcome(text) == scanner_outcome(text)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
def test_canonical_lines_never_reach_the_scanner(newline):
    text = serialize_ntriples(fixed_random_graph())
    plain = [line for line in text.split("\n")[:-1] if "\\" not in line]
    assert len(plain) > 100
    with mock.patch.object(io, "_scan", side_effect=AssertionError("a canonical line reached the scanner")):
        g = parse_ntriples(newline.join(plain) + newline)
    assert serialize_ntriples(g) == "".join(line + "\n" for line in plain)


def test_a_crlf_document_reads_as_its_lf_twin():
    lf = serialize_ntriples(fixed_random_graph())
    assert "\\" in lf  # some lines hold escapes and go through the scanner
    expected, got = parse_ntriples(lf), parse_ntriples(lf.replace("\n", "\r\n"))
    assert got._id_to_term == expected._id_to_term
    assert list(got._triples) == list(expected._triples)
    assert serialize_ntriples(got) == lf


def test_each_distinct_term_text_is_built_once_per_parse():
    subjects = ["<http://e.x/s0>", "<http://e.x/s1>", "_:b0", "_:b1"]
    predicates = ["<http://e.x/p0>", "<http://e.x/p1>"]
    objects = subjects + ['"v"', '"v"@en', '"v"^^<http://e.x/dt>', '"w"']
    lines = [f"{s} {p} {o} ." for s in subjects for p in predicates for o in objects]
    text = "\n".join(lines) + "\n"
    distinct = sorted(set(subjects + predicates + objects))
    read = []
    real = io._read_term

    def counted(term_text):
        read.append(term_text)
        return real(term_text)

    with mock.patch.object(io, "_read_term", counted):
        g = parse_ntriples(text)
        assert sorted(read) == distinct and len(read) < 3 * len(lines)
        parse_ntriples(text)  # the memo lives for one parse
        assert sorted(read) == sorted(distinct * 2)
    assert len(g) == len(lines)
    assert parse_outcome(text) == scanner_outcome(text)


# ---------------------------------------------------------------------------
# parse_term: the per-text reader against the token scanner
# ---------------------------------------------------------------------------

TERM_TEXTS = [text for parts in (FAST, ODD) for i in (0, 2, 4) for text in parts[i]] + [
    "_:b.", "_:b", '"v"@', '"v"^^<http://e.x/dt>x', '"v\\u00e9"', "<http://e.x/\\u00e9>", '"a\nb"', "<a\nb>", "",
]


def term_outcome(text: str):
    try:
        term = parse_term(text)
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))
    return ("term", term)


@settings(max_examples=600)
@given(
    st.sampled_from(["", "", " ", "\t", "\n"]),
    st.lists(st.sampled_from(TERM_TEXTS), min_size=1, max_size=2).map("".join),
    st.sampled_from(["", "", " ", "  ", "\t", "\r", " .", "\n"]),
)
@example("", '"v"^^<dt>', "")
@example("", '"v"@en-GB', "")
@example("", "_:b.", "")
@example("", "<rel>", " ")
def test_parse_term_reads_as_the_token_scanner(before, text, after):
    text = before + text + after
    expected = term_outcome(text)
    with forced_scanner() as scanned:
        assert term_outcome(text) == expected
    assert scanned == [text]


def test_plain_term_texts_never_reach_the_scanner():
    plain = [t for t in fixed_random_graph()._id_to_term if "\\" not in format_term(t)]
    assert len(plain) > 100
    with mock.patch.object(io, "_scan", side_effect=AssertionError("a plain term text reached the scanner")):
        assert [parse_term(format_term(t)) for t in plain] == plain


def test_model_files_round_trip_byte_for_byte():
    from kgkit.embeddings import dump_model, init_model, load_model_text

    text = dump_model(init_model(fixed_random_graph(), 2, seed=0))
    assert dump_model(load_model_text(text)) == text


# ---------------------------------------------------------------------------
# The memoized Turtle parser against the Term-per-occurrence parser
# ---------------------------------------------------------------------------

# Directives that bind or rebind a prefix (to another or the same
# namespace), and the terms of each kind: absolute IRIs, qnames of bound and
# rebound prefixes, document labels that collide with generated ones, and
# plain, tagged, typed and shorthand literals.  Each list has a second one of
# pieces that fail (relative and empty IRIs, unknown prefixes, misplaced or
# malformed terms), which a third of the documents draw one time in ten.
TTL_DIRECTIVES = [
    "@prefix ex: <http://e.y/#> .", "@prefix ex: <http://e.x/> .", "@prefix : <http://e.z/> .",
    "@prefix ns: <http://n.s/> .", "@prefix xsd: <http://e.x/dt#> .", "@prefix e: <> .",
], ["@prefix ex: <rel/> .", "@prefix geo <http://g/> .", "@prefix ex: ex:b .", "@prefix e'x: <http://e/> ."]
TTL_SUBJECTS = ["<http://e.x/a>", "ex:a", "ex:b.c", ":x", "ex:", "ns:y", "_:b1", "_:b.1", "_:anon1", "_:anon3", "ex:it\\'s", "ex:a\\-b\\.c"], [
    "<rel>", "<>", "geo:z", "e:", "e:x", '"v"', "42", "true", "ex:a\\q",
]
TTL_OBJECTS = TTL_SUBJECTS[0] + [
    "<http://e.x/b#c>", '"v"', '"w\\n"', '"v"@en', '"v"@en-GB', '"v"@prefix', '"v"^^<http://e.x/dt>', '"v"^^xsd:string',
    '"v"^^ex:dt', "42", "-7", "+1.5", "1e3", "1.E-2", "true", "false", ".5", ".5e3",
    "'v'", "'v'@en", "'''it's'''^^xsd:string", '"""v"""', '"""a\nb"""@en', "''",
], TTL_SUBJECTS[1][:5] + ['"v"^^<rel>', '"v"^^<>', '"v"^^geo:t', '"v"^^42', '"v"^^e:', "(", "[ ]]", "'v", '"""v""']
TTL_VERBS = ["a", "ex:p", ":q", "<http://e.x/p>", "ns:y", "rdf:type"], ["<rel>", "geo:p", '"p"', "42", "_:p", "[]"]


def ttl_piece(pieces, faulty: bool):
    good, bad = pieces
    return st.one_of([st.sampled_from(good)] * 9 + [st.sampled_from(bad)]) if faulty else st.sampled_from(good)


def ttl_nodes(depth: int, faulty: bool, pieces=TTL_OBJECTS):
    leaves = ttl_piece(pieces, faulty)
    if depth == 0:
        return leaves
    return st.one_of(
        leaves,
        leaves,
        st.just("[]"),
        ttl_predicate_objects(depth - 1, faulty).map(lambda pol: f"[ {pol} ]"),
        st.lists(ttl_nodes(depth - 1, faulty), max_size=3).map(lambda items: "( " + " ".join(items) + " )"),
    )


def ttl_predicate_objects(depth: int, faulty: bool):
    objects = st.lists(ttl_nodes(depth, faulty), min_size=1, max_size=3)
    pairs = st.lists(st.tuples(ttl_piece(TTL_VERBS, faulty), objects), min_size=1, max_size=3)
    tail = st.sampled_from(["", "", " ;", " ;;"])
    return st.builds(lambda ps, t: " ; ".join(v + " " + " , ".join(os_) for v, os_ in ps) + t, pairs, tail)


@st.composite
def turtle_documents(draw):
    """Directives and statements after the usual prefixes; a faulty document may get a malformed piece spliced in."""
    faulty = draw(st.integers(min_value=0, max_value=2)) == 0
    subject = ttl_nodes(1, faulty, TTL_SUBJECTS)
    statement = st.builds(lambda s, pol: f"{s} {pol} .", subject, ttl_predicate_objects(1, faulty))
    bare = ttl_predicate_objects(1, faulty).map(lambda pol: f"[ {pol} ] .")  # a blankNodePropertyList alone
    parts = draw(st.lists(st.one_of(ttl_piece(TTL_DIRECTIVES, faulty), statement, statement, statement, bare), max_size=6))
    if draw(st.integers(min_value=0, max_value=5)):
        parts = ["@prefix ex: <http://e.x/> .", "@prefix ns: <http://n.s/> ."] + parts
    text = draw(st.sampled_from(["\n", " ", "\n# c\n"])).join(parts)
    if not faulty:
        return text
    extra = draw(st.one_of(st.just(""), st.sampled_from(MALFORMED + TOKENS)))
    at = draw(st.integers(min_value=0, max_value=len(text)))
    return text[:at] + extra + text[at:]


def turtle_outcome(parse, text: str):
    try:
        report = parse(text)
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))
    g = report.graph
    return ("report", g._id_to_term, list(g._triples), report.warnings, report.prefixes.prefixes())


@settings(max_examples=700)
@given(turtle_documents())
@example("@prefix ex: <http://e.x/> .\nex:a ex:p ex:b .\n@prefix ex: <http://e.y/#> .\nex:a ex:p ex:b , ns:y .\n")
@example('ex:a ex:p [ :q "v"^^ex:dt ; a _:anon1 ] .\n@prefix ex: <http://e.y/#> .\nex:a ex:p "v"^^ex:dt .\n')
@example(":x :q ( <http://e.x/a> ( ) [] ) .\n_:anon2 :q ( _:anon1 ) .\n")
@example(":x <rel> :y .\n")
@example(":x :q ( :y\n <rel> ) .\n")
@example(":x :q ( :y\n")
@example("[ a owl:AllDifferent ; owl:distinctMembers ( :a :b ) ] .\n[] .\n")
@example(':x :q "v" .\n@prefix : <http://e.z/> .\n:x :q 42 , 1e3 , true .\n')
@example(":x :q :y ;; :r :z ; ; a :C ;;; .\n[ :p :o ;; :q :r ] .\n:x :q [ :p :o ;; ] .\n")
@example(":x ; :q :y .\n")
@example("@prefix ex: <http://e.x/> .\nex:a ex:p ex:it's .\n")
@example("@prefix ex: <http://e.x/> .\nex:a ex:p 'v'^^ex:it's .\n")
@example("@prefix ex: <http://e.x/> .\nex:it\\'s ex:p 'v'^^ex:it\\'s .\n")
@example("@prefix ex: <http://e.x/> .\nex:a\\q ex:p ex:o .\n")
@example("@prefix e'x: <http://e.x/> .\n:a :p :b .\n")
@example("@prefix ex: <http://e.x/> .\nex:a\\. ex:p ex:b\\.c\\. , 'v'^^ex:t\\. .\nex:a ex:p ex:o\\..\n")
@example("@prefix ex: <http://e.x/> .\nex:a\\\\. ex:p ex:o .\n")
def test_turtle_parser_matches_the_term_per_occurrence_parser(text):
    try:
        expected = turtle_outcome(oracle_parse_turtle, text)
    except ValueError:
        # the per-character tokenizer crashed on a \U escape beyond U+10FFFF
        assume(False)
    assert turtle_outcome(parse_turtle, text) == expected


def test_each_distinct_turtle_term_text_is_built_once_per_parse():
    block = '''ex:s ex:p ex:o , "v" , "v"@en , "v"^^ex:dt , 42 ; a ex:C ; ns:q ns:r , <http://e.x/o> .
ns:r ex:p [ ns:q ex:o ] , ( ex:o "v" ) .
'''
    text = (
        "@prefix ex: <http://e.x/> .\n@prefix ns: <http://n.s/> .\n"
        + block * 3
        + "@prefix ns: <http://n.s/> .\n"  # the same namespace: nothing to rebuild
        + block
        + "@prefix ex: <http://e.y/#> .\n"
        + block * 2
    )
    built = []
    real = io._term_from_tokens

    def counted(tokens, pos, *args, **kwargs):
        term, end = real(tokens, pos, *args, **kwargs)
        built.append(" ".join(tok[1] for tok in tokens[pos:end]))
        return term, end

    with mock.patch.object(io, "_term_from_tokens", counted):
        report = parse_turtle(text)
        rebound = {"ex:s", "ex:p", "ex:o", "v ^^ ex:dt", "ex:C"}
        others = {"v", "v en", "42", "a", "ns:q", "ns:r", "http://e.x/o"}
        assert Counter(built) == {**{t: 2 for t in rebound}, **{t: 1 for t in others}}
        parse_turtle(text)  # the memo lives for one parse
        assert len(built) == 2 * (2 * len(rebound) + len(others))
    assert turtle_outcome(lambda _: report, text) == turtle_outcome(oracle_parse_turtle, text)
    assert report.graph.contains(Triple(IRI("http://e.y/#s"), IRI("http://e.y/#p"), IRI("http://e.y/#o")))


# ---------------------------------------------------------------------------
# `kgkit parse`: the exit-code table
# ---------------------------------------------------------------------------


@settings(max_examples=300)
@given(documents(TOKENS + TURTLE_STRINGS, MALFORMED + TURTLE_MALFORMED), st.sampled_from(["nt", "ttl"]))
@example("<http://e.x/a> <http://e.x/p> <> .\n", "nt")
@example(":a :p <> .\n", "ttl")
@example('<http://e.x/a> <http://e.x/p> "v"^^<> .\n', "nt")
@example('<http://e.x/a> <http://e.x/p> "v"^^<rel> .\n', "nt")
@example(':a :p "v"^^<> .\n', "ttl")
@example(':a :p "v"^^<rel> .\n', "ttl")
@example("<rel> <http://e.x/p> <http://e.x/o> .\n", "nt")
@example("PREFIX : <http://e.x/>\nprefix e: <http://e.y/>\n:a e:p :b .\n", "ttl")
@example("PREFIX : <http://e.x/> .\n", "ttl")
@example(":a PREFIX :b .\n", "ttl")
@example("PREFIX : <http://e.x/>\n", "nt")
@example(":a :p 'x' , '''it's''' , \"\"\"x\"\"\" , \"\"\"a\nb\"\"\" .\n", "ttl")
@example('<http://e.x/a> <http://e.x/p> """x""" .\n', "nt")
@example("<http://e.x/a> <http://e.x/p> 'x' .\n", "nt")
@example(":a :p '''x .\n", "ttl")
@example(":a :p :b ;; :q :c ; ; :r :d ;;; .\n", "ttl")
@example(":a ; :p :b .\n", "ttl")
@example("@prefix ex: <http://e.x/> .\nex:it's ex:p ex:o .\n", "ttl")
@example("@prefix ex: <http://e.x/> .\nex:it\\'s ex:p ex:o .\n", "ttl")
@example("@prefix e'x: <http://e.x/> .\n", "ttl")
@example("@prefix ex: <http://e.x/> .\nex:a\\. ex:p ex:o\\..\n", "ttl")
@example("@prefix ex: <http://e.x/> .\nex:a\\\\. ex:p ex:o .\n", "ttl")
def test_cli_parse_exits_0_or_2_with_one_positioned_error_line(text, fmt):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, f"doc.{fmt}")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        stderr = StringIO()
        with redirect_stderr(stderr):
            code = main(["parse", path, "--out", os.path.join(d, "out.nt")])
    if code == 0:
        assert stderr.getvalue() == ""
    else:
        assert code == 2
        assert re.fullmatch(r"(parse )?error: [^\n]* at line \d+, column \d+\n", stderr.getvalue())


def assert_located(read, text: str) -> None:
    """`read(text)` returns, or raises exactly ParseError at a line and column inside `text`."""
    try:
        read(text)
    except ParseError as exc:
        assert type(exc) is ParseError, repr(exc)
        lines = text.split("\n")
        assert exc.line is not None and 1 <= exc.line <= len(lines), str(exc)
        assert exc.column is not None and 1 <= exc.column <= len(lines[exc.line - 1]) + 1, str(exc)


@settings(max_examples=300)
@given(documents())
@example('"v"^^<rel>')  # a fault the term functions raise
@example("_:b1")  # one the query reader raises
@example("_:b1 _:b2 .")  # one the N-Triples reader raises
@example("[ ( ")  # one the Turtle reader raises
@example("<a> <b>")  # one parse_term raises after the term
def test_every_reader_raises_a_fault_as_a_located_parse_error(text):
    assert_located(parse_term, text)
    assert_located(parse_ntriples, text)
    assert_located(parse_turtle, text)
    assert_located(parse_query, f"?x <http://e.x/p> {text}")


DIRECTIVES = ["PREFIX", "prefix", "ASSUME", "REGIME", "SELECT", "NOT", "Not", "QUERY", "query"]
ARGUMENTS = ["e:", "e", ":", "<http://e.x/>", "<rel>", "open", "closed", "maybe", "none", "rdfs", "owl", "?x", "x", "{", "}", "."]


@st.composite
def query_texts(draw):
    """Lines of directives with right and wrong arguments, among pattern lines and document snippets."""
    lines = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        indent = draw(st.sampled_from(["", " ", "\t  "]))
        kind = draw(st.integers(min_value=0, max_value=3))
        if kind == 0:
            lines.append(indent + draw(documents()))
        elif kind == 1:
            lines.append(indent + "?x <http://e.x/p> ?y")
        else:
            arguments = draw(st.lists(st.sampled_from(ARGUMENTS), max_size=4))
            lines.append(indent + " ".join([draw(st.sampled_from(DIRECTIVES)), *arguments]))
    return "\n".join(lines)


@settings(max_examples=300)
@given(query_texts())
@example("ASSUME maybe")
@example("PREFIX e: <http://e.x/> x")
@example("NOT { ?x <http://e.x/p> ?y } .")
@example("  QUERY")
@example("?x <http://e.x/p> ?y")  # content before the first QUERY line
def test_query_directives_raise_located_parse_errors(text):
    assert_located(parse_query, text)
    assert_located(parse_competency, text)


# ---------------------------------------------------------------------------
# Serializer against the term-level serializer, and round trips
# ---------------------------------------------------------------------------


@given(st.text())
@example("tab\tquote\"back\\slash\nnew\rcr\x00\x1f\x7f<>{}|^` é☃\U0001F600")
def test_escapes_match_the_per_character_loops(s):
    assert _escape_string(s) == oracle_escape_string(s)
    assert _escape_iri(s) == oracle_escape_iri(s)


iris = st.text(max_size=12).map(lambda local: IRI("http://e.x/" + local))
blanks = st.from_regex(r"[abcXYZ019_\-é]{1,3}(\.{1,2}[abcXYZ019_\-é]{1,3}){0,2}", fullmatch=True).map(BlankNode)
language_tags = st.one_of(st.text(alphabet="abcXYZ019-", min_size=1, max_size=6), st.just("prefix"))
literals = st.one_of(
    st.builds(Literal, st.text(max_size=12)),
    st.builds(Literal, st.text(max_size=12), datatype=iris.map(lambda i: i.value)),
    st.builds(Literal, st.text(max_size=12), language=language_tags),
)
triples = st.builds(Triple, st.one_of(iris, blanks), iris, st.one_of(iris, blanks, literals))


def graph_of(ts) -> Graph:
    g = Graph()
    for t in ts:
        g.insert(t)
    return g


@given(st.lists(triples, max_size=25))
def test_serialize_round_trips_arbitrary_terms(ts):
    g = graph_of(ts)
    text = serialize_ntriples(g)
    assert text == oracle_serialize_ntriples(g)
    again = parse_ntriples(text)
    assert triples_of(again) == triples_of(g)
    assert serialize_ntriples(again) == text
    for t in ts:
        assert parse_term(format_term(t.object)) == t.object


LABEL_CHARS = st.one_of(st.sampled_from(".;,()[]<>\"'_:-#^@\\{}|`\t\xa0"), st.characters())


@given(st.one_of(st.from_regex(terms._BLANK_LABEL, fullmatch=True), st.text(LABEL_CHARS, max_size=6)))
@example("a.b")
@example("b>#")
def test_every_label_a_blank_node_accepts_reads_back(label):
    try:
        node = BlankNode(label)
    except ValidationError:
        assume(False)
    g = graph_of([Triple(node, IRI("http://e.x/p"), node)])
    text = serialize_ntriples(g)
    assert triples_of(parse_ntriples(text)) == triples_of(g)
    assert triples_of(parse_turtle(text).graph) == triples_of(g)


# The lexical form, datatype and language tag of a literal, each from a few values
# that differ in one place only, "" included; not every triple makes a literal.
literal_parts = st.tuples(
    st.sampled_from(["x", "", "x@en"]),
    st.sampled_from([None, "", terms.LANG_STRING, vocab.XSD + "string", "http://e.x/dt"]),
    st.sampled_from([None, "", "en", "EN"]),
)


@given(st.lists(literal_parts, max_size=12))
@example([("x", None, ""), ("x", terms.LANG_STRING, None)])
@example([("x", "", None), ("x", None, None)])
def test_distinct_literals_are_written_as_distinct_text(parts):
    made = set()
    for lexical, datatype, language in parts:
        try:
            made.add(Literal(lexical, datatype, language))
        except ValidationError:  # a tag with another datatype, or an empty tag or datatype
            pass
    assert len({format_term(lit) for lit in made}) == len(made)


@pytest.mark.parametrize("part", ["language", "datatype"])
def test_a_literal_with_an_empty_language_tag_or_datatype_is_rejected(part):
    # either would be written as another literal's text: "x"^^<...#langString> or "x"
    with pytest.raises(ValidationError, match="empty language tag or datatype"):
        Literal("x", **{part: ""})


def fixed_random_graph(seed: int = 20231101, n: int = 300) -> Graph:
    """Triples over escaped, non-ASCII, typed, tagged and blank terms."""
    rng = random.Random(seed)
    pieces = ["a", "b", "é", "☃", "\U0001F600", " ", "\t", "\n", '"', "\\", "<", ">", "{", "|", "^", "`", "\x01", "."]

    def text(k: int) -> str:
        return "".join(rng.choice(pieces) for _ in range(rng.randint(0, k)))

    def node():
        return BlankNode(f"b{rng.randint(0, 9)}") if rng.random() < 0.2 else IRI(f"http://e.x/n{rng.randint(0, 40)}{text(2)}")

    def obj():
        r = rng.random()
        if r < 0.4:
            return node()
        if r < 0.6:
            return Literal(text(6))
        if r < 0.8:
            return Literal(text(4), datatype=f"http://e.x/dt{rng.randint(0, 3)}")
        return Literal(text(4), language=rng.choice(["en", "pl", "de-AT"]))

    g = Graph()
    for _ in range(n):
        g.insert(Triple(node(), IRI(f"http://e.x/p{rng.randint(0, 7)}"), obj()))
    return g


def test_canonical_ntriples_bytes_are_pinned():
    # taken from the term-level serializer that escaped one character at a time
    text = serialize_ntriples(fixed_random_graph())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "e2b2b5d277514985fd6f3f582cef6d9074f8dbd378663c1a089f9b50fa496713"
    )
    assert triples_of(parse_ntriples(text)) == triples_of(fixed_random_graph())
