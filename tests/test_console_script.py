"""The `kgkit` command as a real process: one row of CASES per check.

Every other CLI test calls `kgkit.cli.main` in-process.  Here each case
starts `kgkit` in a fresh directory holding the case's input files, and
checks the exit code, the stdout bytes and stderr; no case may print a
traceback.  The command is the installed `kgkit` console script when the
kgkit distribution is installed (as after `pip install -e .`), and
`python -m kgkit.cli` otherwise; either way PYTHONPATH names the directory
of the kgkit package these tests imported.  A new real-process check is a
new row here, not a line of shell in CI.
"""

import functools
import importlib.metadata
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import kgkit
from kgkit import parse_ntriples, parse_turtle, serialize_ntriples
from kgkit.errors import ParseError
from kgkit.vocab import OWL, RDF, RDFS

from helpers import EDU
from test_cli import ALLDIFFERENT_NT, ALLDIFFERENT_TTL, PURCHASE_SPEC, PURCHASES_CSV, embed_fixture, usage_error

E = "http://example.org/"
SRC = os.path.dirname(os.path.dirname(kgkit.__file__))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


@functools.cache
def kgkit_command() -> tuple[str, ...]:
    """The installed console script if the kgkit distribution is installed, else `python -m kgkit.cli`."""
    try:
        importlib.metadata.distribution("kgkit")
    except importlib.metadata.PackageNotFoundError:
        return (sys.executable, "-m", "kgkit.cli")
    script = shutil.which("kgkit")
    assert script, "the kgkit distribution is installed, but no kgkit script is on PATH"
    return (script,)


def run(argv, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=cwd, env=ENV, capture_output=True, timeout=120)


def nt(*names: str) -> str:
    """N-Triples lines, three IRIs each; a name without ':' is in the example.org namespace."""
    iris = [f"<{n if ':' in n else E + n}>" for n in names]
    return "".join(f"{s} {p} {o} .\n" for s, p, o in zip(*[iter(iris)] * 3))


def lines(n: int) -> re.Pattern:
    return re.compile(rf"(?:<[^\n]*\n){{{n}}}")


def chain(n: int) -> str:
    """c0 sameAs c1 ... sameAs cn, each ci but the last with one property triple."""
    return "".join(nt(f"c{i}", OWL + "sameAs", f"c{i + 1}", f"c{i}", "p", f"v{i}") for i in range(n))


@dataclass(frozen=True)
class Case:
    """`kgkit <argv>` after each `setup` command has exited 0; `out` and `err` are exact text or a pattern to fullmatch."""

    id: str
    argv: str
    files: dict
    code: int = 0
    out: "str | re.Pattern" = ""
    err: "str | re.Pattern" = ""
    setup: tuple = ()


ONE_NT = nt("a", "p", "b")
ONE_TTL = "@prefix ex: <http://example.org/> .\nex:a ex:p ex:b .\n"
SAME_NT = nt("a", OWL + "sameAs", "b", "b", "p", "c")
KB_NT = nt(
    "hasParent", RDFS + "subPropertyOf", "hasAncestor", "a", "hasParent", "b",
    "hasChild", OWL + "inverseOf", "hasParent", "c", "hasChild", "d",
    "partOf", RDF + "type", OWL + "TransitiveProperty", "e", "partOf", "f", "f", "partOf", "g",
    "m", OWL + "sameAs", "n", "m", "likes", "o",
)  # compiled rule-table rows, each fired by one data triple, and a sameAs merge
KB_CLOSURE = nt(
    "a", "hasAncestor", "b", "a", "hasParent", "b", "b", "hasChild", "a", "c", "hasChild", "d",
    "d", "hasAncestor", "c", "d", "hasParent", "c",
    "e", "partOf", "f", "e", "partOf", "g", "f", "partOf", "g",
    "hasChild", OWL + "inverseOf", "hasParent", "hasParent", RDFS + "subPropertyOf", "hasAncestor",
    "m", "likes", "o", "m", OWL + "sameAs", "m", "m", OWL + "sameAs", "n", "n", "likes", "o",
    "n", OWL + "sameAs", "m", "n", OWL + "sameAs", "n",
    "partOf", RDF + "type", OWL + "TransitiveProperty",
)
KB_STATS = (
    '{"fixpoints": [{"delta": [9, 4, 1], "rounds": 3, "rules": {"owl-inverse-property": {"candidates": 2, "new": 2}, '
    '"owl-transitive-property": {"candidates": 1, "new": 1}, "rdfs-subproperty-propagation": {"candidates": 2, "new": 2}}}]}\n'
)
DR_NT = nt(  # rdfs:domain and rdfs:range over two subjects sharing an object and one subject with two p triples
    "p", RDFS + "domain", "C", "p", RDFS + "range", "D", "x", "p", "y1", "x", "p", "y2", "z", "p", "y1"
)
DR_DERIVED = nt("x", RDF + "type", "C", "y1", RDF + "type", "D", "y2", RDF + "type", "D", "z", RDF + "type", "C")
DR_STATS = (
    '{"fixpoints": [{"delta": [5, 4], "rounds": 2, "rules": {"rdfs-domain": {"candidates": 3, "new": 2}, '
    '"rdfs-range": {"candidates": 3, "new": 2}}}]}\n'
)
VIOLATIONS_NT = nt(  # one violation of each rule with a false head: the four rows and the hand-written AllDifferent
    "A", OWL + "disjointWith", "B", "x", RDF + "type", "A", "x", RDF + "type", "B",
    "C", OWL + "complementOf", "D", "y", RDF + "type", "C", "y", RDF + "type", "D",
    "d", RDF + "type", OWL + "AllDifferent", "d", OWL + "distinctMembers", "l1",
    "l1", RDF + "first", "p", "l1", RDF + "rest", "l2", "l2", RDF + "first", "q", "l2", RDF + "rest", RDF + "nil",
    "q", OWL + "sameAs", "p", "z", RDF + "type", OWL + "Nothing",
) + f'<{E}m> <{OWL}sameAs> "v" .\n<{E}m> <{OWL}differentFrom> "v" .\n'
REPORT_JSON = (
    '{"competency": [], "consistent": false, "violations": ['
    '{"rule": "owl-alldifferent", "triples": [["<http://example.org/d>", "<http://www.w3.org/2002/07/owl#distinctMembers>", "<http://example.org/l1>"], ["<http://example.org/p>", "<http://www.w3.org/2002/07/owl#sameAs>", "<http://example.org/q>"]]}, '
    '{"rule": "owl-complement", "triples": [["<http://example.org/C>", "<http://www.w3.org/2002/07/owl#complementOf>", "<http://example.org/D>"], ["<http://example.org/y>", "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>", "<http://example.org/C>"], ["<http://example.org/y>", "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>", "<http://example.org/D>"]]}, '
    '{"rule": "owl-disjoint-classes", "triples": [["<http://example.org/A>", "<http://www.w3.org/2002/07/owl#disjointWith>", "<http://example.org/B>"], ["<http://example.org/x>", "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>", "<http://example.org/A>"], ["<http://example.org/x>", "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>", "<http://example.org/B>"]]}, '
    '{"rule": "owl-nothing-member", "triples": [["<http://example.org/z>", "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>", "<http://www.w3.org/2002/07/owl#Nothing>"]]}, '
    '{"rule": "owl-sameas-differentfrom", "triples": [["<http://example.org/m>", "<http://www.w3.org/2002/07/owl#differentFrom>", "\\"v\\""], ["<http://example.org/m>", "<http://www.w3.org/2002/07/owl#sameAs>", "\\"v\\""]]}]}\n'
)
REIFIED = "".join(
    f'<{EDU}purchase{i}> <{EDU}buyer> <{EDU}{buyer}> .\n<{EDU}purchase{i}> <{EDU}number_of_pieces> "{n}" .\n'
    f"<{EDU}purchase{i}> <{EDU}product> <{EDU}{product}> .\n<{EDU}purchase{i}> <{EDU}seller> <{EDU}{seller}> .\n"
    f"<{EDU}purchase{i}> <{RDF}type> <{EDU}Purchase> .\n"
    for i, buyer, n, product, seller in ((1, "MarcinKowalski", 5, "NaturalYoghurt", "Shop1"), (2, "AleksandraNowak", 2, "Butter", "Shop2"))
)
METRICS = re.compile(r"\{[^\n]*\}\n")
VIOLATIONS = re.compile(r"(?:violation: owl-[a-z-]+: [^\n]*\n){5}")
DEEP = "@prefix ex: <http://example.org/> .\nex:s ex:p {}ex:o{} .\n"

# `kgkit parse` reads a file's bytes as the library does, with no newline translation (see test_parse_reads_what_the_library_reads)
SAME_BYTES = [
    # a CRLF file gives the bytes of its LF twin
    Case("parse-ntriples-crlf", "parse crlf.nt", {"crlf.nt": SAME_NT.replace("\n", "\r\n")}, out=SAME_NT),
    # a lone CR is no line break: a long string keeps it, and an N-Triples literal may not hold it raw
    Case("parse-turtle-lone-cr-in-long-string", "parse cr.ttl", {"cr.ttl": '@prefix ex: <http://example.org/> .\nex:a ex:p """x\ry""" .\n'},
         out=f'<{E}a> <{E}p> "x\\ry" .\n'),
    Case("parse-ntriples-lone-cr-in-literal", "parse cr.nt", {"cr.nt": f'<{E}a> <{E}p> "x\ry" .\n'}, 2,
         err="parse error: newline inside literal at line 1, column 47\n"),
    # a lone CR after a triple's '.' ends the line, so an N-Triples file with CR line ends reads as its LF twin
    Case("parse-ntriples-lone-cr-line-ends", "parse cr.nt", {"cr.nt": nt("a", "p", "b", "a", "p", "c").replace("\n", "\r")},
         out=nt("a", "p", "b", "a", "p", "c")),
    # a comment ends at a lone CR, so a Turtle file with CR line ends keeps the statements after one
    Case("parse-turtle-lone-cr-line-ends", "parse cr.ttl",
         {"cr.ttl": "@prefix ex: <http://example.org/> .\r# a comment\rex:a ex:p ex:b .\rex:a ex:p ex:c .\r"},
         out=nt("a", "p", "b", "a", "p", "c")),
]

CASES = [
    Case("parse-ntriples", "parse one.nt", {"one.nt": ONE_NT}, out=ONE_NT),
    *SAME_BYTES,
    # comment lines, an escaped literal and plain lines in one file, written sorted and canonical
    Case("parse-ntriples-mixed-lines", "parse mixed.nt",
         {"mixed.nt": f'# a comment\n<{E}b> <{E}p> "tab\\there \\u00e9" .\n\n  # indented comment\n'
                      f'<{E}a> <{E}p> "v"@en .\n<{E}a> <{E}p> _:x . # trailing comment\n<{E}a>\t<{E}p> <{E}b> .\n'},
         out=f'<{E}a> <{E}p> <{E}b> .\n<{E}a> <{E}p> _:x .\n<{E}a> <{E}p> "v"@en .\n<{E}b> <{E}p> "tab\\there é" .\n'),
    # a blank node property list may be a whole Turtle statement, as AllDifferent axioms are written
    Case("parse-alldifferent-statement", "parse alldiff.ttl", {"alldiff.ttl": ALLDIFFERENT_TTL}, out=ALLDIFFERENT_NT),
    # nesting 1,000 deep is a positioned parse error, not a traceback
    *(
        Case(f"parse-{name}-nested-1000-deep", "parse deep.ttl", {"deep.ttl": text}, 2,
             err=re.compile(rf"parse error: nesting too deep at line {line}, column \d+\n"))
        for name, text, line in [
            ("collection", f"<{E}s> <{E}p> " + "( " * 1000 + ")" * 1000 + " .\n", 1),
            ("collection-after-prefix", DEEP.format("( " * 1000, " )" * 1000), 2),
            ("blank-node-after-prefix", DEEP.format("[ ex:q " * 1000, " ]" * 1000), 2),
        ]
    ),
    # --log-every 1: one loss line per epoch, then the summary line, all on stderr
    Case("embed-train-log-every", "embed train one.nt --model m.tsv --epochs 3 --log-every 1", {"one.nt": ONE_NT},
         err=re.compile(r"epoch=1 loss=\S+\nepoch=2 loss=\S+\nepoch=3 loss=\S+\nepochs=3 first_loss=\S+ last_loss=\S+\n")),
    Case("embed-eval-turtle-test-file", "embed eval one.nt --model model.tsv --test one.ttl",
         {"one.nt": ONE_NT, "one.ttl": ONE_TTL}, out=METRICS, setup=("embed train one.nt --model model.tsv --epochs 1",)),
    # each embed action accepts only the options it reads; any other is a usage error that prints and writes nothing
    Case("embed-eval-out", "embed eval one.nt --model model.tsv --test one.nt --out r.json", {"one.nt": ONE_NT}, 1,
         err=usage_error("unrecognized arguments: --out r.json"), setup=("embed train one.nt --model model.tsv --epochs 1",)),
    Case("embed-train-test", "embed train one.nt --model m.tsv --test x", {"one.nt": ONE_NT}, 1,
         err=usage_error("unrecognized arguments: --test x")),
    Case("embed-eval-without-test", "embed eval one.nt --model m.tsv", {"one.nt": ONE_NT}, 1,
         err=usage_error("the following arguments are required: --test")),
    Case("embed-predict-without-relation", f"embed predict one.nt --model m.tsv --head {E}a", {"one.nt": ONE_NT}, 1,
         err=usage_error("the following arguments are required: --relation")),
    Case("embed-predict-head-and-tail", f"embed predict one.nt --model m.tsv --relation {E}p --head {E}a --tail {E}b",
         {"one.nt": ONE_NT}, 1, err=usage_error("argument --tail: not allowed with argument --head")),
    # an empty --head or --tail names the empty IRI, which is refused, not taken for a free slot
    *(
        Case(f"embed-predict-empty-{slot}", f"embed predict one.nt --model m.tsv --relation {E}p --{slot}=", {"one.nt": ONE_NT}, 1,
             err="error: IRI must be a nonempty string\n", setup=("embed train one.nt --model m.tsv --epochs 1",))
        for slot in ("head", "tail")
    ),
    # a SPARQL-style PREFIX (any case, no '.') reads like @prefix
    Case("parse-at-prefix", "parse one.ttl", {"one.ttl": ONE_TTL}, out=ONE_NT),
    Case("parse-sparql-prefix", "parse one.ttl", {"one.ttl": "PREFIX ex: <http://example.org/>\nex:a ex:p ex:b .\n"}, out=ONE_NT),
    # a ' in a prefix name is one positioned parse error line at the name, in either form
    Case("parse-quote-in-at-prefix-name", "parse p.ttl", {"p.ttl": "@prefix e'x: <http://e/> .\n"}, 2,
         err="parse error: ' not allowed in prefix name e'x: at line 1, column 9\n"),
    Case("parse-quote-in-sparql-prefix-name", "parse p.ttl", {"p.ttl": "PREFIX e'x: <http://e/>\n"}, 2,
         err="parse error: ' not allowed in prefix name e'x: at line 1, column 8\n"),
    # a run of ';' between predicate-object pairs reads as one (RDF 1.1 Turtle rule [7])
    Case("parse-semicolon-runs", "parse s.ttl",
         {"s.ttl": "@prefix ex: <http://example.org/> .\nex:a ex:p ex:b ;; ex:q ex:c ; ; ex:r ex:d ;;; .\n"},
         out=nt("a", "p", "b", "a", "q", "c", "a", "r", "d")),
    # an unescaped ' in a qname is one positioned parse error line; escaped, it stays in the IRI
    Case("parse-unescaped-quote-in-qname", "parse q.ttl", {"q.ttl": "@prefix ex: <http://example.org/> .\nex:it's ex:p ex:o .\n"},
         2, err="parse error: unescaped ' in qname ex:it's at line 2, column 1\n"),
    Case("parse-escaped-quote-in-qname", "parse q.ttl", {"q.ttl": "@prefix ex: <http://example.org/> .\nex:it\\'s ex:p ex:o .\n"},
         out=nt("it's", "p", "o")),
    # Turtle's four string forms, one long string spanning two lines, are N-Triples literals
    Case("parse-turtle-string-forms", "parse strings.ttl",
         {"strings.ttl": "@prefix ex: <http://example.org/> .\n"
                         "ex:a ex:p 'one' , \"two\"@en , '''it's''' , \"\"\"four\nlines\"\"\"^^ex:t .\n"},
         out=f'<{E}a> <{E}p> "four\\nlines"^^<{E}t> .\n<{E}a> <{E}p> "it\'s" .\n<{E}a> <{E}p> "one" .\n<{E}a> <{E}p> "two"@en .\n'),
    # N-Triples keeps rejecting them: a long string is one positioned error line, not a traceback
    Case("parse-ntriples-long-string", "parse long.nt", {"long.nt": f'<{E}a> <{E}p> """x""" .\n'}, 2,
         err="parse error: expected '.' terminating the triple at line 1, column 49\n"),
    Case("query-owl-regime", "query same.nt q.txt --regime owl", {"same.nt": SAME_NT, "q.txt": f"?x <{E}p> ?y\n"},
         out=f'[{{"x": "<{E}a>", "y": "<{E}c>"}}]\n'),
    # a rule-vocabulary IRI represents its sameAs class inside the engine; answers still name the class's first member
    Case("query-sameas-rule-vocabulary", "query isa.nt isa.txt --regime owl",
         {"isa.nt": nt("isA", OWL + "sameAs", RDF + "type", "x", "isA", "C"), "isa.txt": f"SELECT ?p\n<{E}x> ?p <{E}C>\n"},
         out=f'[{{"p": "<{E}isA>"}}]\n'),
    # a fault in a query is one error line at its column in the query file, not a traceback
    Case("query-relative-datatype", "query same.nt q.txt", {"same.nt": SAME_NT, "q.txt": f'?x <{E}p> "v"^^<rel>\n'}, 2,
         err="parse error: relative datatype IRI 'rel' and no base IRI is declared at line 1, column 32\n"),
    Case("query-bare-select", "query same.nt q.txt", {"same.nt": SAME_NT, "q.txt": f"SELECT\n?x <{E}p> ?y\n"}, 2,
         err="parse error: SELECT lists no variables at line 1, column 1\n"),
    Case("query-relative-iri", "query same.nt q.txt", {"same.nt": SAME_NT, "q.txt": f"?x <{E}p> <rel>\n"}, 2,
         err="parse error: relative IRI 'rel' and no base IRI is declared at line 1, column 27\n"),
    # a literal holding U+2028 is written raw into the model file, and the model still reads back
    Case("embed-line-separator-literal", "embed eval sep.nt --model sep.tsv --test sep.nt",
         {"sep.nt": f'<{E}a> <{E}p> "x\u2028y" .\n' + ONE_NT}, out=METRICS,
         setup=("embed train sep.nt --model sep.tsv --epochs 1",)),
    # reify: a 2-row CSV gives its 10 triples; an IRI cell holding a quote is one error line, not a traceback
    Case("reify-two-rows", "reify purchases.csv --spec purchase.spec",
         {"purchases.csv": PURCHASES_CSV, "purchase.spec": PURCHASE_SPEC}, out=REIFIED),
    Case("reify-quote-in-iri-cell", "reify quote.csv --spec purchase.spec",
         {"quote.csv": 'Buyer,Seller,Product,Number of pieces\nA,B,C,1\nA,"x""y",C,2\n', "purchase.spec": PURCHASE_SPEC}, 1,
         err="error: row 2 puts '\"' into an IRI in column 'Seller'\n"),
    Case("infer-owl-rule-rows", "infer kb.nt --profile owl", {"kb.nt": KB_NT}, out=KB_CLOSURE),
    # --stats adds one JSON line on stderr and leaves stdout byte-identical
    Case("infer-owl-stats", "infer kb.nt --profile owl --stats", {"kb.nt": KB_NT}, out=KB_CLOSURE, err=KB_STATS),
    # under RDFS only the subPropertyOf row fires, and --derived-only prints what it adds
    Case("infer-rdfs-derived-only", "infer kb.nt --profile rdfs --derived-only", {"kb.nt": KB_NT}, out=nt("a", "hasAncestor", "b")),
    Case("infer-domain-range", "infer dr.nt --profile rdfs --derived-only", {"dr.nt": DR_NT}, out=DR_DERIVED),
    Case("infer-domain-range-stats", "infer dr.nt --profile rdfs --derived-only --stats", {"dr.nt": DR_NT},
         out=DR_DERIVED, err=DR_STATS),
    # the report does not depend on the KB's line order
    Case("check-violations-json", "check kb.nt --json", {"kb.nt": VIOLATIONS_NT}, 3, out=REPORT_JSON, err=VIOLATIONS),
    Case("check-violations-json-reversed", "check kb.nt --json",
         {"kb.nt": "".join(reversed(VIOLATIONS_NT.splitlines(keepends=True)))}, 3, out=REPORT_JSON, err=VIOLATIONS),
    # checking 1,000 sameAs links reads representatives only, and 20 links expand to (n+1)(2n+1) = 861 triples
    Case("check-sameas-chain-1000", "check chain.nt", {"chain.nt": chain(1000)}, out="consistent\n"),
    Case("infer-sameas-chain-20", "infer chain.nt --profile owl", {"chain.nt": chain(20)}, out=lines(861)),
    Case("infer-sameas-chain-20-derived-only", "infer chain.nt --profile owl --derived-only", {"chain.nt": chain(20)},
         out=lines(821)),
]


def matches(expected, text: str) -> bool:
    return expected == text if isinstance(expected, str) else expected.fullmatch(text) is not None


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_kgkit_as_a_real_process(tmp_path, case):
    for name, text in case.files.items():
        (tmp_path / name).write_bytes(text.encode("utf-8"))
    for argv in case.setup:
        result = run([*kgkit_command(), *argv.split()], tmp_path)
        assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
    before = sorted(os.listdir(tmp_path))
    result = run([*kgkit_command(), *case.argv.split()], tmp_path)
    out, err = result.stdout.decode("utf-8"), result.stderr.decode("utf-8")
    assert "Traceback" not in err, err
    assert result.returncode == case.code, err
    assert matches(case.out, out), out
    assert matches(case.err, err), err
    if case.code == 1:  # an error writes no file
        assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("case", SAME_BYTES, ids=[case.id for case in SAME_BYTES])
def test_parse_reads_what_the_library_reads(case):
    """The library, given the text the case's file encodes, writes the case's stdout or fails with its message."""
    [(name, text)] = case.files.items()
    try:
        graph = parse_ntriples(text) if name.endswith(".nt") else parse_turtle(text).graph
    except ParseError as exc:
        assert (case.code, case.err) == (2, f"parse error: {exc}\n")
    else:
        assert (case.code, case.out) == (0, serialize_ntriples(graph))


COLD_START_SCRIPT = """
import sys
import kgkit
import kgkit.cli

def loaded():
    return [m for m in ("numpy", "kgkit.embeddings", "kgkit.frames") if m in sys.modules]

assert not loaded(), loaded()
assert set(kgkit.__all__) <= set(dir(kgkit)), set(kgkit.__all__) - set(dir(kgkit))
kb, model = sys.argv[1:]
assert kgkit.cli.main(["parse", kb, "--out", model + ".nt"]) == 0
assert not loaded(), loaded()
assert kgkit.cli.main(["embed", "train", kb, "--dim", "4", "--epochs", "1", "--model", model]) == 0
assert "numpy" in sys.modules
assert kgkit.frames.__name__ == "kgkit.frames"
for name in kgkit.__all__:
    getattr(kgkit, name)
"""


def test_import_and_parse_load_no_numpy_or_frames_and_embed_still_works(tmp_path):
    kb = embed_fixture(tmp_path)
    model = str(tmp_path / "m.tsv")
    result = run([sys.executable, "-c", COLD_START_SCRIPT, kb, model], tmp_path)
    assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
    assert open(model, encoding="utf-8").read().startswith("d=4 norm=L1\n")


def test_ci_runs_no_kgkit_command_from_shell():
    """A new real-process check is a row of CASES, so no `run:` line of the CI workflow calls kgkit."""
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    calls, block = [], None
    for line in workflow.read_text(encoding="utf-8").splitlines():
        indent = len(line) - len(line.lstrip())
        key = re.match(r"\s*(?:- )?run:\s*(.*)", line)
        if key:
            block = indent if key.group(1)[:1] in ("|", ">") else None
            command = key.group(1)
        elif block is not None and (indent > block or not line.strip()):
            command = line
        else:
            block = None
            continue
        if re.search(r"(?<![\w/.-])kgkit\b", command):
            calls.append(line.strip())
    assert calls == []
