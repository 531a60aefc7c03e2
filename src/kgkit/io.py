"""Reading and writing triples: N-Triples and a Turtle subset.

The Turtle subset covers what ontology snippets in the wild actually
use: @prefix and the SPARQL-style PREFIX, qnames, 'a' for rdf:type, ';'
and ',' continuation lists, '[ ... ]' anonymous nodes (one that holds a predicate may be a whole
statement, as AllDifferent axioms are written), '( ... )' collections (expanded into
rdf:first/rdf:rest chains ending at rdf:nil), plain, typed and
language-tagged literals in any of Turtle's four string forms (a long
one may span lines), and the numeric and boolean shorthand (42,
-7, 1.5, .5, 1e3, true, false as xsd:integer, decimal, double and boolean
literals).  Serialization is canonical N-Triples: one sorted line per
triple, byte-identical across runs for equal graphs.

A term text with no escape, in an N-Triples line split at its spaces
or given to `parse_term`, is read by one pattern (`_read_term`).  Every
other text (Turtle, query patterns, and the N-Triples lines and term
texts that pattern does not read) is read from the one scanner's (kind,
value, offset) tuples; Turtle's also reads its other string forms.  The
scanner, the term functions and the Turtle reader raise a fault at an
offset into the scanned text (nesting too deep for the recursive Turtle
reader is one); each reader turns the offset into a line and column
once, where it raises the ParseError.  The
Turtle reader memoizes terms by token text for one parse and interns
each at its first emission; rebinding a prefix to another namespace
drops the entries of that prefix's qnames.  No base IRI is declared, so
`<>`, relative IRIs and relative datatypes are parse errors; the Turtle
reader and query patterns report each at its own token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Collection, Iterable

from . import vocab
from .errors import ParseError, UnknownPrefixError, ValidationError
from .graph import Graph, IdTriple
from .terms import _BLANK_LABEL, _SCHEME, IRI, BlankNode, Literal, PrefixMap, Term, Triple, sort_key


@dataclass
class ParseReport:
    """Outcome of a successful Turtle parse."""

    graph: Graph
    prefixes: PrefixMap
    warnings: list[tuple[int, str]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Scanner (shared by the Turtle and N-Triples readers)
# ---------------------------------------------------------------------------

IRIREF = "iriref"
QNAME = "qname"
BLANK = "blank"
STRING = "string"
LANGTAG = "langtag"
HATHAT = "^^"
DOT = "."
SEMICOLON = ";"
COMMA = ","
LBRACKET = "["
RBRACKET = "]"
LPAREN = "("
RPAREN = ")"
KEYWORD_A = "a"
AT_PREFIX = "@prefix"
PREFIX = "PREFIX"  # RDF 1.1 Turtle's SPARQL-style directive, in any case and with no '.'
EOF = "eof"
# the kinds of Turtle's numeric and boolean shorthand: its XSD datatypes' local names
_SHORTHAND = ("integer", "decimal", "double", "boolean")

_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}


_UCHAR = r"\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})"  # the only escape an IRI admits (RDF 1.1 N-Triples, section 2.3)
_ESCAPE = rf"""(?:\\[tbnrf"'\\]|{_UCHAR})"""
_IRI_EXCLUDED = r"""\x00-\x20<>"{}|^`\\"""  # RDF 1.1 N-Triples IRIREF: the characters only a UCHAR escape writes
_IRI_CHAR = rf"[^{_IRI_EXCLUDED}]"
_IRI_BODY = rf"{_IRI_CHAR}*(?:{_UCHAR}{_IRI_CHAR}*)*"
_STRING_BODY = rf'[^"\\\r\n]*(?:{_ESCAPE}[^"\\\r\n]*)*'
# RDF 1.1 Turtle, section 6.4: Turtle alone also reads 'x', '''x''' and
# """x""".  A long string may span lines, and holds a run of one or two of
# its quotes wherever a third does not follow.
_SINGLE_BODY = rf"[^'\\\r\n]*(?:{_ESCAPE}[^'\\\r\n]*)*"
_LONG_BODIES = {q: rf"[^{q}\\]*(?:(?:{_ESCAPE}|{q}{{1,2}}(?!{q}))[^{q}\\]*)*" for q in "\"'"}
_WORD_CHAR = r'[^\s.;,()\[\]<>"^@]'
# A word's characters after its start: runs of word characters, each '.'
# that no whitespace or ;,()[] follows, and each backslash with the
# non-space character after it, so an escape always stays in its word and
# `_local_escapes` alone decides which escapes are valid (RDF 1.1 Turtle's
# PN_LOCAL_ESC), as in `ex:a\.` or `ex:a\;b`.  One loop takes both the '.'s
# and the escapes: a second loop, for the escapes alone, scanned Turtle
# about 6% slower.
_WORD_RUN = r'[^\s.;,()\[\]<>"^@\\]*'
_WORD_REST = rf'{_WORD_RUN}(?:(?:\.(?=[^\s;,()\[\]])|\\\S?){_WORD_RUN})*'


# Whitespace and comments, then one alternative per token kind; a match
# that reaches the end of the text may hold no token, and none starts
# there.  Only the leading `skip` and a Turtle long string can hold a
# newline.  `bad` takes the one character that starts no well-formed
# token (an unterminated or badly escaped IRI or literal, a character
# IRIREF excludes, a lone '^', '>', or whitespace other than space, tab,
# CR and LF); `_malformed` then names the fault.  A '.' before a digit
# starts a word (a number such as .5 or .5e3), so `word` comes before
# `punct`; one between label characters stays in a blank node label, and
# any other '.' outside a word is punctuation.  Turtle's scanner also
# reads its other string forms, quotes and all (`quoted`); the opening
# quotes of a malformed one (`unclosed`) are a fault, as `bad` is.  They
# come last, so that no other token pays for them: in Turtle a "-quoted
# string does not open at three quotes, and a word does not start with a
# quote.  In every other reader `"""x"""` stays three strings and `'x'` a
# word.
@cache
def _scanner(turtle: bool) -> re.Pattern:
    """The scanner of N-Triples, terms and query patterns, or, given `turtle`, of Turtle; each is compiled on first use."""
    no_long, word_start, strings = "", _WORD_CHAR, ""
    if turtle:
        no_long, word_start = '(?!"")', r"""[^\s.;,()\[\]<>"^@']"""
        quoted = [q * 3 + body + q * 3 for q, body in _LONG_BODIES.items()] + [f"'(?!''){_SINGLE_BODY}'"]
        strings = f"| (?P<quoted>{'|'.join(quoted)}) | (?P<unclosed>\"\"\"|'''|')"
    return re.compile(
        rf"""
        (?=.)
        (?P<skip>[ \t\r\n]*(?:\#[^\r\n]*[ \t\r\n]*)*)
        (?:
          <(?P<iriref>{_IRI_BODY})>
        | "{no_long}(?P<string>{_STRING_BODY})"
        | @(?P<at>(?:[^\W_]|-)*)
        | (?P<hathat>\^\^)
        | _:(?P<blank>(?:{_BLANK_LABEL})?)
        | (?P<word>(?:(?={word_start})|\.(?=[0-9])){_WORD_REST})
        | (?P<punct>[.;,\[\]()])
        {strings}
        | (?P<bad>.)
        )?
        """,
        re.VERBOSE | re.DOTALL,
    )


_BODIES = {  # the opener of each token `_malformed` names a fault in: its body, and what the token is
    "<": (re.compile(rf"[^>\\\n]*(?:{_UCHAR}[^>\\\n]*)*"), "IRI"),
    '"': (re.compile(_STRING_BODY), "literal"),
    "'": (re.compile(_SINGLE_BODY), "literal"),
    **{q * 3: (re.compile(body), "literal") for q, body in _LONG_BODIES.items()},
}
_ESCAPE_RE = re.compile(_ESCAPE)
_LOCAL_ESCAPE = re.compile(r"\\(.?)", re.DOTALL)
# RDF 1.1 Turtle, section 6.5: INTEGER, DECIMAL, DOUBLE and BooleanLiteral
_SHORTHAND_WORD = re.compile(
    r"""(?P<boolean>true|false)
    | [+-]?(?: (?P<integer>[0-9]+)
             | (?P<decimal>[0-9]*\.[0-9]+)
             | (?P<double>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][+-]?[0-9]+) )""",
    re.VERBOSE,
)


class _Fault(ParseError):
    """A fault at `offset` into the scanned text, which the reader that scanned it locates with `at`.

    Being a ParseError, a fault that a reader leaves unlocated still ends a
    command with exit 2.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.message = message
        self.offset = offset

    def at(self, line: int, column: int) -> ParseError:
        return ParseError(self.message, line, column)


def _line_col(text: str, offset: int) -> tuple[int, int]:
    """Line and column of `offset` in `text`, counted from the newlines before it."""
    return 1 + text.count("\n", 0, offset), offset - text.rfind("\n", 0, offset)


def _unescape(value: str, offset: int) -> str:
    """Decode the escapes of a token body that starts at `offset` in the scanned text."""

    def decode(m: re.Match) -> str:
        esc = m.group()
        if len(esc) == 2:
            return _ESCAPES[esc[1]]
        code = int(esc[2:], 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:  # not a Unicode scalar value
            raise _Fault(f"bad \\{esc[1]} escape", offset + m.start())
        return chr(code)

    return _ESCAPE_RE.sub(decode, value)


def _malformed(text: str, start: int) -> tuple[str, int]:
    """The fault of the character at `start`, which begins no well-formed token, and its offset."""
    c = text[start]
    if c == "^":
        return "expected '^^'", start
    opener = text[start : start + 3] if text.startswith(('"""', "'''"), start) else c
    if opener not in _BODIES:
        return f"unexpected character {c!r}", start
    body, what = _BODIES[opener]
    stop = body.match(text, start + len(opener)).end()
    if stop >= len(text):
        return f"unterminated {what}", start
    if text[stop] in "\r\n":
        return f"newline inside {what}", start
    if text[stop] == ">":  # a well-formed IRI but for a character IRIREF excludes: name the first one
        at = re.compile(_IRI_BODY).match(text, start + 1).end()
        return f"unexpected character {text[at]!r} in IRI", at
    # the body stopped at a backslash that starts no valid escape
    if stop + 1 >= len(text):
        return "dangling escape", stop
    e = text[stop + 1]
    if e in "uU":
        return f"bad \\{e} escape", stop
    return (f"string escape \\{e} in IRI" if what == "IRI" and e in _ESCAPES else f"unknown escape \\{e}"), stop


def _scan(text: str, turtle: bool = False) -> list[tuple[str, str, int]]:
    """The tokens of `text` as (kind, value, offset) tuples, ending with an EOF token.

    Escapes are decoded and each kind is resolved here; a malformed token
    raises a `_Fault` at its offset.  Given `turtle`, the other string
    forms ('x', '''x''' and its double-quoted twin) are STRING tokens too,
    and the word `PREFIX` in any case is a PREFIX token where a statement
    starts: first, after a '.', or after another PREFIX directive's three
    tokens.  Elsewhere, and in every other reader, it is an unexpected
    token, as any other bare word.
    """
    tokens: list[tuple[str, str, int]] = []
    append = tokens.append
    for m in _scanner(turtle).finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        start = m.end(1)
        value = m.group(kind)
        if kind == "word":
            if ":" in value:
                append((QNAME, value, start))
            elif value == "a":
                append((KEYWORD_A, value, start))
            elif (turtle and value.lower() == "prefix"
                    and (not tokens or tokens[-1][0] == DOT or (len(tokens) > 2 and tokens[-3][0] == PREFIX))):
                append((PREFIX, value, start))
            else:
                shorthand = _SHORTHAND_WORD.fullmatch(value)
                if shorthand is None:
                    raise _Fault(f"unexpected token {value!r}", start)
                append((shorthand.lastgroup, value, start))
        elif kind == "punct":
            append((value, value, start))  # each punctuation kind is its own character
        elif kind == "iriref" or kind == "string":
            if "\\" in value:
                value = _unescape(value, start + 1)
            append((kind, value, start))
        elif kind == "blank":
            if not value:
                raise _Fault("empty blank node label", start)
            append((BLANK, value, start))
        elif kind == "at":
            if not value:
                raise _Fault("dangling '@'", start)
            append((AT_PREFIX if value == "prefix" else LANGTAG, value, start))
        elif kind == "hathat":
            append((HATHAT, value, start))
        elif kind == "quoted":
            q = 3 if value.startswith(('"""', "'''")) else 1
            value = value[q:-q]
            if "\\" in value:
                value = _unescape(value, start + q)
            append((STRING, value, start))
        else:
            raise _Fault(*_malformed(text, start))
    append((EOF, "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

_NO_BASE = "relative {} {!r} and no base IRI is declared"


def _local_escapes(tok: tuple[str, str, int]) -> str:
    """The qname token's text with its local name's escapes decoded: `\\.` stands for `.` (RDF 1.1 Turtle, section 6.4)."""

    def decode(m: re.Match) -> str:
        e = m.group(1)
        if e and e in "_~.-!$&'()*+,;=/?#@%" and m.start() > tok[1].index(":"):
            return e
        raise _Fault(f"bad escape \\{e} in qname {tok[1]}", tok[2])

    return _LOCAL_ESCAPE.sub(decode, tok[1])


def _iri(tok: tuple[str, str, int], prefixes: PrefixMap | None, what: str = "IRI") -> IRI:
    """The IRI the IRIREF or qname token `tok` names; an empty one has no base to resolve against."""
    try:
        if tok[0] == IRIREF:
            return IRI(tok[1])
        qname = _local_escapes(tok) if "\\" in tok[1] else tok[1]
        if "'" in qname and "'" in _LOCAL_ESCAPE.sub("", tok[1]):  # PN_PREFIX and PN_LOCAL exclude it unescaped
            raise _Fault(f"unescaped ' in qname {tok[1]}", tok[2])
        return prefixes.expand(qname)
    except UnknownPrefixError as exc:
        raise _Fault(str(exc), tok[2]) from exc
    except ValidationError as exc:  # `<>`, or a prefix bound to <> and no local part
        raise _Fault(_NO_BASE.format(what, ""), tok[2]) from exc


def _term_from_tokens(tokens, pos: int, prefixes: PrefixMap | None = None):
    """Read one term starting at tokens[pos] of `_scan` tuples; returns (term, next_pos).

    Given `prefixes`, the Turtle forms are admitted too: qnames, 'a' and the
    numeric and boolean shorthand; and a relative IRI is a fault at its token.
    """
    tok = tokens[pos]
    kind = tok[0]
    turtle = prefixes is not None
    if kind == IRIREF or (kind == QNAME and turtle):
        iri = _iri(tok, prefixes)
        if turtle and not iri.is_absolute():  # no base resolves it; N-Triples reports it at the triple
            raise _Fault(_NO_BASE.format("IRI", iri.value), tok[2])
        return iri, pos + 1
    if kind == BLANK:
        return BlankNode(tok[1]), pos + 1
    if kind == KEYWORD_A and turtle:
        return vocab.RDF_TYPE, pos + 1
    if kind == STRING:
        nxt = tokens[pos + 1]
        if nxt[0] == LANGTAG or nxt[0] == AT_PREFIX:  # a tag of "prefix" scans as @prefix
            return Literal(tok[1], language=nxt[1]), pos + 2
        if nxt[0] == HATHAT:
            dt_tok = tokens[pos + 2]
            if dt_tok[0] == IRIREF or (dt_tok[0] == QNAME and turtle):
                datatype = _iri(dt_tok, prefixes, "datatype IRI")
                if not datatype.is_absolute():  # a literal's datatype is never resolved
                    raise _Fault(_NO_BASE.format("datatype IRI", datatype.value), dt_tok[2])
                return Literal(tok[1], datatype=datatype.value), pos + 3
            raise _Fault("expected datatype IRI after '^^'", dt_tok[2])
        return Literal(tok[1]), pos + 1
    if kind in _SHORTHAND:
        if not turtle:  # no shorthand in N-Triples
            raise _Fault(f"unexpected token {tok[1]!r}", tok[2])
        return Literal(tok[1], datatype=vocab.XSD + kind), pos + 1
    raise _Fault(f"expected a term, got {tok[1]!r}", tok[2])


# ---------------------------------------------------------------------------
# N-Triples
# ---------------------------------------------------------------------------

# One term text with no escape, which the scanner reads as this one term:
# an IRI, a blank node, or a literal with no backslash and an optional tag
# or datatype IRI.  Labels and tags take the scanner's character sets.
_PLAIN_TERM = re.compile(
    rf'<({_IRI_CHAR}+)>|_:({_BLANK_LABEL})|"([^"\\\r\n]*)"(?:@((?:[^\W_]|-)+)|\^\^<({_IRI_CHAR}+)>)?'
)


def _read_term(text: str) -> Term:
    """The term of a text `_PLAIN_TERM` matches whole; any other text, or a relative datatype, raises ValueError."""
    m = _PLAIN_TERM.fullmatch(text)
    if m is None:
        raise ValueError(text)
    iri, label, lexical, language, datatype = m.groups()
    if iri is not None:
        return IRI(iri)
    if label is not None:
        return BlankNode(label)
    if datatype is not None and not _SCHEME.match(datatype):  # no base IRI resolves it
        raise ValueError(text)
    return Literal(lexical, datatype, language)


class _TermIds(dict):
    """Term text -> id in `graph`; a text not seen yet is read by `_read_term` and interned.

    A text `_read_term` refuses, or whose term `intern` rejects (a relative
    IRI), raises before anything is interned for it, and is not kept.
    """

    def __init__(self, graph: Graph):
        self.graph = graph

    def __missing__(self, text: str) -> int:
        tid = self[text] = self.graph.intern(_read_term(text))
        return tid


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples: one '.'-terminated triple per non-comment line.

    A line with one trailing CR dropped is split at its first two spaces.
    When it has three parts, the third ends in " .", the predicate text
    starts with '<' and the subject text does not start with '"' (so a
    literal subject or a predicate that is no IRI is the scanner's error),
    each of the three term texts is looked up in a memo that lives for
    one parse: a text not seen yet is read by `_read_term` and interned,
    in s, p, o order.  Any other line (blank, comment, escapes, `<>`, other spacing,
    malformed), and one whose term texts do not all read (a relative IRI
    or datatype), goes through the token scanner, so terms get the same
    ids in the same order and errors the same message, line and column
    either way.  The scanner reads a lone CR after a triple's '.' as the
    end of a line (RDF 1.1 `EOL ::= [#xD#xA]+`), and elsewhere as
    whitespace, so a file whose lines end in CR reads as its LF twin; an
    error names its line and column in that twin.
    """
    g = Graph()
    ids = _TermIds(g)
    for lineno, raw in enumerate(text.split("\n"), start=1):
        parts = (raw[:-1] if raw[-1:] == "\r" else raw).split(" ", 2)
        if len(parts) == 3 and parts[2][-2:] == " ." and parts[1][:1] == "<" and parts[0][:1] != '"':
            try:
                g.insert_ids((ids[parts[0]], ids[parts[1]], ids[parts[2][:-2]]))
                continue
            except (ValueError, ValidationError):
                pass  # the scanner path reports where
        if not raw.strip():
            continue
        try:
            tokens, pos = _scan(raw), 0
            while tokens[pos][0] != EOF:  # a comment-only line has no triple
                start = pos
                subject, pos = _term_from_tokens(tokens, pos)
                predicate, pos = _term_from_tokens(tokens, pos)
                object_, pos = _term_from_tokens(tokens, pos)
                if tokens[pos][0] != DOT:
                    raise _Fault("expected '.' terminating the triple", tokens[pos][2])
                pos += 1
                if tokens[pos][0] != EOF and "\r" not in raw[tokens[pos - 1][2] : tokens[pos][2]]:  # a lone CR ends a line
                    raise _Fault("trailing content after '.'", tokens[pos][2])
                try:
                    g.insert(Triple(subject, predicate, object_))
                except ValidationError as exc:  # a misplaced term or a relative IRI: the triple's position
                    raise _Fault(str(exc), tokens[start][2]) from exc
        except _Fault as fault:  # located in the LF twin, where a CRLF's CR is gone and each lone CR is an LF
            line = raw[:-1] if raw[-1:] == "\r" else raw
            head = "\n".join(text.split("\n", lineno - 1)[:-1] + [line[: fault.offset]])
            twin = head.replace("\r\n", "\n").replace("\r", "\n")
            raise fault.at(*_line_col(twin, len(twin))) from None
    return g


def parse_term(text: str) -> Term:
    """Parse a single term in N-Triples syntax (used by model files).

    A text `_read_term` reads is built directly; any other goes through the
    token scanner, which reads the same term from it or raises the error.
    """
    try:
        return _read_term(text)
    except ValueError:
        pass
    try:
        tokens = _scan(text)
        term, pos = _term_from_tokens(tokens, 0)
        if tokens[pos][0] != EOF:
            raise _Fault(f"trailing content after term: {text!r}", tokens[pos][2])
    except _Fault as fault:
        raise fault.at(*_line_col(text, fault.offset)) from None
    return term


# ---------------------------------------------------------------------------
# Turtle subset
# ---------------------------------------------------------------------------


class _TurtleParser:
    """Recursive descent over `_scan` tuples.

    Each term is read through a memo keyed by its token text (kind and
    value, and a literal's tag or datatype token), holding a [term, id]
    slot: a miss builds the term with `_term_from_tokens`, and the id is
    interned at the term's first emission, so ids come in the order of
    `Graph.insert` on each triple.  Rebinding a prefix to another namespace
    drops the keys of the qnames that use it.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _scan(text, turtle=True)
        self.pos = 0
        self.graph = Graph()
        self.prefixes = PrefixMap.common()
        self.prefixes.bind("", vocab.DEFAULT_NS)
        self.warnings: list[tuple[int, str]] = []
        self._doc_labels = {value for kind, value, _ in self.tokens if kind == BLANK}
        self._anon = 0
        self._memo: dict[tuple, list] = {}
        self._first, self._rest, self._nil = ([t, vocab.RULE_IDS[t]] for t in (vocab.RDF_FIRST, vocab.RDF_REST, vocab.RDF_NIL))

    def _expect(self, kind: str) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok[0] != kind:
            raise _Fault(f"expected {kind!r}, got {tok[1]!r}", tok[2])
        return tok

    def _fresh_blank(self) -> list:
        while True:
            self._anon += 1
            label = f"anon{self._anon}"
            if label not in self._doc_labels:
                self._doc_labels.add(label)
                return [BlankNode(label), -1]

    def _term(self) -> list:
        """The slot of the term at the cursor."""
        tokens = self.tokens
        pos = self.pos
        kind, value, _ = tokens[pos]
        end = pos + 1
        key = (kind, value)
        if kind == STRING:
            suffix = tokens[end]
            if suffix[0] == LANGTAG or suffix[0] == AT_PREFIX:
                key, end = (kind, value, LANGTAG, suffix[1]), end + 1
            elif suffix[0] == HATHAT:
                dt_kind, dt_value, _ = tokens[end + 1]
                key, end = (kind, value, dt_kind, dt_value), end + 2
        slot = self._memo.get(key)
        if slot is None:
            term, end = _term_from_tokens(tokens, pos, self.prefixes)
            slot = self._memo[key] = [term, -1]
        self.pos = end
        return slot

    def _emit(self, s: list, p: list, o: list) -> None:
        """Insert a triple of slots, interning new terms in s, p, o order."""
        ids = (s[1], p[1], o[1])
        if -1 in ids:
            for slot in (s, p, o):
                if slot[1] < 0:
                    slot[1] = self.graph.intern(slot[0])
            ids = (s[1], p[1], o[1])
        self.graph.insert_ids(ids)

    def parse(self) -> ParseReport:
        tokens = self.tokens
        try:
            while tokens[self.pos][0] != EOF:
                if tokens[self.pos][0] in (AT_PREFIX, PREFIX):
                    self._prefix_directive()
                else:
                    self._triples_statement()
        except RecursionError:  # each '[' or '(' reads its contents one call deeper
            raise _Fault("nesting too deep", tokens[self.pos][2]) from None
        return ParseReport(self.graph, self.prefixes, self.warnings)

    def _prefix_directive(self) -> None:
        directive, tok = self.tokens[self.pos : self.pos + 2]
        self.pos += 2
        if tok[0] != QNAME or not tok[1].endswith(":"):
            raise _Fault(f"expected 'prefix:' after {'@prefix' if directive[0] == AT_PREFIX else directive[1]}", tok[2])
        prefix = tok[1][:-1]
        if "'" in prefix:  # PN_PREFIX excludes it
            raise _Fault(f"' not allowed in prefix name {tok[1]}", tok[2])
        ns = self._expect(IRIREF)[1]
        old = self.prefixes.namespace(prefix)
        if old is not None and old != ns:
            if not (prefix == "" and old == vocab.DEFAULT_NS):
                self.warnings.append((_line_col(self.text, tok[2])[0], f"prefix {prefix!r} redefined from <{old}> to <{ns}>"))
            # a qname's key ends in it: (QNAME, qname) or (STRING, value, QNAME, qname)
            pname = prefix + ":"
            self._memo = {k: v for k, v in self._memo.items() if not (QNAME in k[::2] and k[-1].startswith(pname))}
        self.prefixes.bind(prefix, ns)
        if directive[0] == AT_PREFIX:
            self._expect(DOT)
        elif self.tokens[self.pos][0] == DOT:
            raise _Fault(f"unexpected '.' after a {directive[1]} directive", self.tokens[self.pos][2])

    def _triples_statement(self) -> None:
        bracketed = self.tokens[self.pos][0] == LBRACKET and self.tokens[self.pos + 1][0] != RBRACKET
        subject = self._node(as_subject=True)
        if not (bracketed and self.tokens[self.pos][0] == DOT):  # `[ p o ] .` is a whole statement
            self._predicate_object_list(subject)
        self._expect(DOT)

    def _predicate_object_list(self, subject: list) -> None:
        tokens = self.tokens
        while True:
            predicate = self._verb()
            while True:
                obj = self._node()
                self._emit(subject, predicate, obj)
                if tokens[self.pos][0] == COMMA:
                    self.pos += 1
                    continue
                break
            if tokens[self.pos][0] != SEMICOLON:
                return
            while tokens[self.pos][0] == SEMICOLON:  # a run of ';' (RDF 1.1 Turtle rule [7])
                self.pos += 1
            if tokens[self.pos][0] in (DOT, RBRACKET):  # a trailing ';' before '.' or ']'
                return

    def _verb(self) -> list:
        tok = self.tokens[self.pos]
        if tok[0] in (IRIREF, QNAME, KEYWORD_A):
            return self._term()
        raise _Fault(f"expected a predicate, got {tok[1]!r}", tok[2])

    def _node(self, as_subject: bool = False) -> list:
        tok = self.tokens[self.pos]
        kind = tok[0]
        if kind in (IRIREF, QNAME, BLANK):
            return self._term()
        if kind == LBRACKET:
            self.pos += 1
            node = self._fresh_blank()
            if self.tokens[self.pos][0] != RBRACKET:
                self._predicate_object_list(node)
            self._expect(RBRACKET)
            return node
        if kind == LPAREN:
            self.pos += 1
            return self._collection()
        if kind == STRING or kind in _SHORTHAND:
            if as_subject:
                raise _Fault("literal cannot be a subject", tok[2])
            return self._term()
        raise _Fault(f"expected a node, got {tok[1]!r}", tok[2])

    def _collection(self) -> list:
        items = []
        open_tok = self.tokens[self.pos]  # the token after '(' locates an unterminated collection
        while self.tokens[self.pos][0] != RPAREN:
            if self.tokens[self.pos][0] == EOF:
                raise _Fault("unterminated collection", open_tok[2])
            items.append(self._node())
        self.pos += 1  # ')'
        if not items:
            return self._nil
        nodes = [self._fresh_blank() for _ in items]
        for i, item in enumerate(items):
            self._emit(nodes[i], self._first, item)
            self._emit(nodes[i], self._rest, nodes[i + 1] if i + 1 < len(nodes) else self._nil)
        return nodes[0]


def parse_turtle(text: str) -> ParseReport:
    """Parse the Turtle subset; rdf/rdfs/owl/xsd and the empty prefix are pre-bound."""
    try:
        return _TurtleParser(text).parse()
    except _Fault as fault:
        raise fault.at(*_line_col(text, fault.offset)) from None


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_STRING_UNSAFE = re.compile(r'[\x00-\x1f"\\]')
_IRI_UNSAFE = re.compile(f"[{_IRI_EXCLUDED}]")


def _uchar(m: re.Match) -> str:
    return f"\\u{ord(m.group()):04X}"


def _escape_string(s: str) -> str:
    if not _STRING_UNSAFE.search(s):
        return s
    return _STRING_UNSAFE.sub(lambda m: _STRING_ESCAPES.get(m.group()) or _uchar(m), s)


def _escape_iri(s: str) -> str:
    if not _IRI_UNSAFE.search(s):
        return s
    return _IRI_UNSAFE.sub(_uchar, s)


def format_term(term: Term) -> str:
    """N-Triples text for one term."""
    if isinstance(term, IRI):
        return f"<{_escape_iri(term.value)}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        base = f'"{_escape_string(term.lexical)}"'
        if term.language:
            return f"{base}@{term.language}"
        if term.datatype:
            return f"{base}^^<{_escape_iri(term.datatype)}>"
        return base
    raise TypeError(f"not a term: {term!r}")


def serialize_ntriples(graph: Graph) -> str:
    """Canonical N-Triples: sorted, one line per triple, trailing newline."""
    return _serialize_ids(graph._triples, graph.term)


def _serialize_ids(triples: Iterable[IdTriple], term: Callable[[int], Term]) -> str:
    """`serialize_ntriples` of distinct id triples whose ids `term` names.

    Each distinct term is formatted and keyed once; the id triples are then
    sorted by the terms' canonical ranks.  No two distinct terms share a
    sort key, so the order has no ties.  An iterator is listed first, as
    the triples are read twice.
    """
    triples = triples if isinstance(triples, Collection) else list(triples)
    ids = sorted({i for t in triples for i in t}, key=lambda i: sort_key(term(i)))
    rank = {tid: r for r, tid in enumerate(ids)}
    text = [format_term(term(tid)) for tid in ids]
    rows = sorted((rank[s], rank[p], rank[o]) for s, p, o in triples)
    return "".join([f"{text[s]} {text[p]} {text[o]} .\n" for s, p, o in rows])
