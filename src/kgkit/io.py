"""Reading and writing triples: N-Triples and a Turtle subset.

The Turtle subset covers what ontology snippets in the wild actually
use: @prefix, qnames, 'a' for rdf:type, ';' and ',' continuation lists,
'[ ... ]' anonymous nodes, '( ... )' collections (expanded into
rdf:first/rdf:rest chains ending at rdf:nil), and plain, typed and
language-tagged literals.  Serialization is canonical N-Triples: one
sorted line per triple, byte-identical across runs for equal graphs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from . import vocab
from .errors import ParseError, UnknownPrefixError, ValidationError
from .graph import Graph
from .terms import IRI, BlankNode, Literal, PrefixMap, Term, Triple, sort_key


@dataclass
class ParseReport:
    """Outcome of a successful Turtle parse."""

    graph: Graph
    prefixes: PrefixMap
    warnings: list[tuple[int, str]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Tokenizer (shared by the Turtle and N-Triples readers)
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
EOF = "eof"

_PUNCT = {".": DOT, ";": SEMICOLON, ",": COMMA, "[": LBRACKET, "]": RBRACKET, "(": LPAREN, ")": RPAREN}

_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}


class _Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


_ESCAPE = r"""\\(?:[tbnrf"'\\]|u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})"""
_IRI_BODY = rf"[^>\\\n]*(?:{_ESCAPE}[^>\\\n]*)*"
_STRING_BODY = rf'[^"\\\n]*(?:{_ESCAPE}[^"\\\n]*)*'

# One alternative per token kind.  Only `skip` can hold a newline, so every
# other token lies on one line.  `bad` takes the one character that starts no
# well-formed token (an unterminated or badly escaped IRI or literal, a lone
# '^', '>', or whitespace other than space, tab, CR and LF); `_malformed`
# then names the fault.
_SCANNER = re.compile(
    rf"""
      (?P<skip>[ \t\r\n]+|\#[^\n]*)
    | <(?P<iriref>{_IRI_BODY})>
    | "(?P<string>{_STRING_BODY})"
    | @(?P<at>(?:[^\W_]|-)*)
    | (?P<hathat>\^\^)
    | _:(?P<blank>[^\s.;,()\[\]<"]*)
    | (?P<punct>[.;,\[\]()])
    | (?P<word>[^\s.;,()\[\]<>"^@]+(?:\.(?=[^\s;,()\[\]])[^\s.;,()\[\]<>"^@]*)*)
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)
_BODIES = {"<": (re.compile(_IRI_BODY), "IRI"), '"': (re.compile(_STRING_BODY), "literal")}
_ESCAPE_RE = re.compile(_ESCAPE)


def _unescape(value: str, line: int, col: int) -> str:
    """Decode the escapes of a token body whose first character is at `col`."""

    def decode(m: re.Match) -> str:
        esc = m.group()
        if len(esc) == 2:
            return _ESCAPES[esc[1]]
        code = int(esc[2:], 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:  # not a Unicode scalar value
            raise ParseError(f"bad \\{esc[1]} escape", line, col + m.start())
        return chr(code)

    return _ESCAPE_RE.sub(decode, value)


def _malformed(text: str, start: int, line: int, col: int) -> ParseError:
    """The error for the character at `start`, which begins no well-formed token."""
    c = text[start]
    if c == "^":
        return ParseError("expected '^^'", line, col)
    if c not in _BODIES:
        return ParseError(f"unexpected character {c!r}", line, col)
    body, what = _BODIES[c]
    stop = body.match(text, start + 1).end()
    if stop >= len(text):
        return ParseError(f"unterminated {what}", line, col)
    if text[stop] == "\n":
        return ParseError(f"newline inside {what}", line, col)
    # the body stopped at a backslash that starts no valid escape
    col += stop - start
    if stop + 1 >= len(text):
        return ParseError("dangling escape", line, col)
    e = text[stop + 1]
    return ParseError(f"bad \\{e} escape" if e in "uU" else f"unknown escape \\{e}", line, col)


def _tokenize(text: str, start_line: int = 1) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    line = start_line
    line_start = 0  # offset of the first character of the current line
    for m in _SCANNER.finditer(text):
        kind = m.lastgroup
        start = m.start()
        if kind == "skip":
            newlines = m.group().count("\n")
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, m.end()) + 1
            continue
        col = start - line_start + 1
        value = m.group(kind)
        if kind == "iriref" or kind == "string":
            if "\\" in value:
                value = _unescape(value, line, col + 1)
            append(_Token(IRIREF if kind == "iriref" else STRING, value, line, col))
        elif kind == "punct":
            append(_Token(_PUNCT[value], value, line, col))
        elif kind == "word":
            if value == "a":
                append(_Token(KEYWORD_A, value, line, col))
            elif ":" in value:
                append(_Token(QNAME, value, line, col))
            else:
                raise ParseError(f"unexpected token {value!r}", line, col)
        elif kind == "blank":
            if not value:
                raise ParseError("empty blank node label", line, col)
            append(_Token(BLANK, value, line, col))
        elif kind == "at":
            if not value:
                raise ParseError("dangling '@'", line, col)
            append(_Token(AT_PREFIX if value == "prefix" else LANGTAG, value, line, col))
        elif kind == "hathat":
            append(_Token(HATHAT, value, line, col))
        else:
            raise _malformed(text, start, line, col)
    append(_Token(EOF, "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# N-Triples
# ---------------------------------------------------------------------------


def _term_from_tokens(tokens: list[_Token], pos: int, allow_qname: bool = False, prefixes: PrefixMap | None = None):
    """Read one term starting at tokens[pos]; returns (term, next_pos)."""
    tok = tokens[pos]
    if tok.kind == IRIREF:
        return IRI(tok.value), pos + 1
    if tok.kind == BLANK:
        return BlankNode(tok.value), pos + 1
    if tok.kind == KEYWORD_A and allow_qname:
        return vocab.RDF_TYPE, pos + 1
    if tok.kind == QNAME and allow_qname:
        assert prefixes is not None
        try:
            return prefixes.expand(tok.value), pos + 1
        except UnknownPrefixError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from exc
    if tok.kind == STRING:
        nxt = tokens[pos + 1]
        if nxt.kind == LANGTAG:
            return Literal(tok.value, language=nxt.value), pos + 2
        if nxt.kind == HATHAT:
            dt_tok = tokens[pos + 2]
            if dt_tok.kind == IRIREF:
                return Literal(tok.value, datatype=dt_tok.value), pos + 3
            if dt_tok.kind == QNAME and allow_qname:
                return Literal(tok.value, datatype=_term_from_tokens(tokens, pos + 2, True, prefixes)[0].value), pos + 3
            raise ParseError("expected datatype IRI after '^^'", dt_tok.line, dt_tok.col)
        return Literal(tok.value), pos + 1
    raise ParseError(f"expected a term, got {tok.value!r}", tok.line, tok.col)


_NT_IRI = r"<[^>\\\n]+>"
_NT_BLANK = r'_:[^\s.;,()\[\]<"]+'
# The common line shape, which the scanner reads as exactly these three
# terms and a '.': no backslash, only spaces and tabs around the terms, no
# comment.  Labels and tags take the scanner's character sets; a tag of
# "prefix" would scan as @prefix.
_NT_LINE = re.compile(
    rf"""[ \t]*({_NT_IRI}|{_NT_BLANK})[ \t]+({_NT_IRI})[ \t]+
    ({_NT_IRI}|{_NT_BLANK}|"[^"\\\n]*"(?:@(?!prefix[ \t.])(?:[^\W_]|-)+|\^\^{_NT_IRI})?)[ \t]*\.[ \t]*""",
    re.VERBOSE,
)


class _TermIds(dict):
    """Term text -> id in `graph`; a text not seen yet is scanned and interned."""

    def __init__(self, graph: Graph):
        self.graph = graph

    def __missing__(self, text: str) -> int:
        tid = self[text] = self.graph.intern(_term_from_tokens(_tokenize(text), 0)[0])
        return tid


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples: one '.'-terminated triple per non-comment line.

    A line of the common shape (see `_NT_LINE`: IRI or blank subject, IRI
    predicate, IRI, blank or plain, tagged or typed literal object, no
    backslash, only spaces and tabs around the terms) is one whole-line
    match, and each term text is scanned and interned once per parse.  Any
    other line (blank, comment, CRLF, escapes, `<>`, no space between
    terms, malformed) goes through the token scanner, so terms get the
    same ids in the same order and errors the same message, line and
    column either way.
    """
    g = Graph()
    ids = _TermIds(g)
    line_shape = _NT_LINE.fullmatch
    for lineno, raw in enumerate(text.split("\n"), start=1):
        m = line_shape(raw)
        if m is not None:
            s, p, o = m.groups()
            try:
                g.insert_ids((ids[s], ids[p], ids[o]))
            except ValidationError as exc:  # a relative IRI
                raise ParseError(str(exc), lineno) from exc
            continue
        if not raw.strip():
            continue
        tokens = _tokenize(raw, start_line=lineno)
        if tokens[0].kind == EOF:  # comment-only line
            continue
        subject, pos = _term_from_tokens(tokens, 0)
        predicate, pos = _term_from_tokens(tokens, pos)
        object_, pos = _term_from_tokens(tokens, pos)
        if tokens[pos].kind != DOT:
            raise ParseError("expected '.' terminating the triple", lineno, tokens[pos].col)
        if tokens[pos + 1].kind != EOF:
            raise ParseError("trailing content after '.'", lineno, tokens[pos + 1].col)
        try:
            g.insert(Triple(subject, predicate, object_))
        except ValidationError as exc:
            raise ParseError(str(exc), lineno) from exc
    return g


def parse_term(text: str) -> Term:
    """Parse a single term in N-Triples syntax (used by model files)."""
    tokens = _tokenize(text)
    term, pos = _term_from_tokens(tokens, 0)
    if tokens[pos].kind != EOF:
        raise ParseError(f"trailing content after term: {text!r}")
    return term


# ---------------------------------------------------------------------------
# Turtle subset
# ---------------------------------------------------------------------------


class _TurtleParser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.graph = Graph()
        self.prefixes = PrefixMap.common()
        self.prefixes.bind("", vocab.DEFAULT_NS)
        self.warnings: list[tuple[int, str]] = []
        self._doc_labels = {t.value for t in self.tokens if t.kind == BLANK}
        self._anon = 0

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        tok = self._next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, got {tok.value!r}", tok.line, tok.col)
        return tok

    def _fresh_blank(self) -> BlankNode:
        while True:
            self._anon += 1
            label = f"anon{self._anon}"
            if label not in self._doc_labels:
                self._doc_labels.add(label)
                return BlankNode(label)

    def _emit(self, s: Term, p: Term, o: Term, tok: _Token) -> None:
        try:
            self.graph.insert(Triple(s, p, o))
        except ValidationError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from exc

    def parse(self) -> ParseReport:
        while self._peek().kind != EOF:
            if self._peek().kind == AT_PREFIX:
                self._prefix_directive()
            else:
                self._triples_statement()
        return ParseReport(self.graph, self.prefixes, self.warnings)

    def _prefix_directive(self) -> None:
        self._expect(AT_PREFIX)
        tok = self._next()
        if tok.kind != QNAME or not tok.value.endswith(":"):
            raise ParseError("expected 'prefix:' after @prefix", tok.line, tok.col)
        prefix = tok.value[:-1]
        ns = self._expect(IRIREF).value
        old = self.prefixes.namespace(prefix)
        if old is not None and old != ns and not (prefix == "" and old == vocab.DEFAULT_NS):
            self.warnings.append((tok.line, f"prefix {prefix!r} redefined from <{old}> to <{ns}>"))
        self.prefixes.bind(prefix, ns)
        self._expect(DOT)

    def _triples_statement(self) -> None:
        subject = self._node(as_subject=True)
        self._predicate_object_list(subject)
        self._expect(DOT)

    def _predicate_object_list(self, subject: Term) -> None:
        while True:
            verb_tok = self._peek()
            predicate = self._verb()
            while True:
                obj = self._node()
                self._emit(subject, predicate, obj, verb_tok)
                if self._peek().kind == COMMA:
                    self._next()
                    continue
                break
            if self._peek().kind == SEMICOLON:
                self._next()
                # tolerate a trailing ';' before '.' or ']'
                if self._peek().kind in (DOT, RBRACKET):
                    return
                continue
            return

    def _verb(self) -> Term:
        tok = self._peek()
        if tok.kind in (IRIREF, QNAME, KEYWORD_A):
            term, self.pos = _term_from_tokens(self.tokens, self.pos, allow_qname=True, prefixes=self.prefixes)
            return term
        raise ParseError(f"expected a predicate, got {tok.value!r}", tok.line, tok.col)

    def _node(self, as_subject: bool = False) -> Term:
        tok = self._peek()
        if tok.kind == LBRACKET:
            self._next()
            node = self._fresh_blank()
            if self._peek().kind != RBRACKET:
                self._predicate_object_list(node)
            self._expect(RBRACKET)
            return node
        if tok.kind == LPAREN:
            self._next()
            return self._collection()
        if tok.kind == STRING:
            if as_subject:
                raise ParseError("literal cannot be a subject", tok.line, tok.col)
            term, self.pos = _term_from_tokens(self.tokens, self.pos, allow_qname=True, prefixes=self.prefixes)
            return term
        if tok.kind in (IRIREF, QNAME, BLANK):
            term, self.pos = _term_from_tokens(self.tokens, self.pos, allow_qname=True, prefixes=self.prefixes)
            return term
        raise ParseError(f"expected a node, got {tok.value!r}", tok.line, tok.col)

    def _collection(self) -> Term:
        items = []
        open_tok = self._peek()
        while self._peek().kind != RPAREN:
            if self._peek().kind == EOF:
                raise ParseError("unterminated collection", open_tok.line, open_tok.col)
            items.append(self._node())
        self._next()  # ')'
        if not items:
            return vocab.RDF_NIL
        nodes = [self._fresh_blank() for _ in items]
        for i, item in enumerate(items):
            self._emit(nodes[i], vocab.RDF_FIRST, item, open_tok)
            rest = nodes[i + 1] if i + 1 < len(nodes) else vocab.RDF_NIL
            self._emit(nodes[i], vocab.RDF_REST, rest, open_tok)
        return nodes[0]


def parse_turtle(text: str) -> ParseReport:
    """Parse the Turtle subset; rdf/rdfs/owl/xsd and the empty prefix are pre-bound."""
    return _TurtleParser(text).parse()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_STRING_UNSAFE = re.compile(r'[\x00-\x1f"\\]')
_IRI_UNSAFE = re.compile(r'[\x00-\x20<>"{}|^`\\]')


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
    """Canonical N-Triples: sorted, one line per triple, trailing newline.

    Each distinct term is formatted and keyed once; the id triples are then
    sorted by the terms' canonical ranks.  Terms with equal sort keys have
    equal text, so ties cannot change the output.
    """
    ids = sorted({i for t in graph._triples for i in t}, key=lambda i: sort_key(graph.term(i)))
    rank = {tid: r for r, tid in enumerate(ids)}
    text = [format_term(graph.term(tid)) for tid in ids]
    rows = sorted((rank[s], rank[p], rank[o]) for s, p, o in graph._triples)
    return "".join([f"{text[s]} {text[p]} {text[o]} .\n" for s, p, o in rows])
