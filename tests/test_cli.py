import argparse
import functools
import gc
import importlib
import json
import re
import weakref
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import kgkit
from kgkit import cli, owl, vocab
from kgkit.cli import _load_graph, build_parser, main
from kgkit.errors import ParseError
from kgkit.io import parse_ntriples, parse_term, serialize_ntriples

from helpers import ALLERGEN_TTL, EDU, GLUTEN_FREE_QUERY, random_owl_graph
from oracles import naive_owl_closure, naive_rdfs_closure, oracle_format_triple, oracle_serialize_ntriples, triples_of

CITY_TTL = f"""
@prefix edu: <{EDU}> .
edu:City rdfs:subClassOf edu:Locality .
edu:Warsaw a edu:City .
"""

FATHERS_TTL = f"""
@prefix edu: <{EDU}> .
edu:Ola edu:has_father edu:Jan .
edu:Ola edu:has_father edu:Marcin .
edu:has_father rdf:type owl:FunctionalProperty .
"""

PUMPKIN_TTL = f"""
@prefix edu: <{EDU}> .
edu:Herbivore owl:disjointWith edu:Carnivore .
edu:Pumpkin a edu:Carnivore , edu:Herbivore .
"""

FUNCTIONAL_LISTING_TTL = """
:has_father rdf:type owl:ObjectProperty ,
                 owl:FunctionalProperty .
"""

PURCHASES_CSV = """Buyer,Seller,Product,Number of pieces
Marcin Kowalski,Shop1,Natural yoghurt,5
Aleksandra Nowak,Shop2,Butter,2
"""

PURCHASE_SPEC = f"""
class: {EDU}Purchase
namespace: {EDU}
role: Product -> {EDU}product
role: Number of pieces -> {EDU}number_of_pieces
role: Buyer -> {EDU}buyer
role: Seller -> {EDU}seller
literal: Number of pieces
"""


def usage_error(message: str) -> re.Pattern:
    """argparse's usage lines, then `message` from the parser that reports it; Python versions wrap the usage differently."""
    return re.compile(rf"usage: kgkit[^\n]*\n(?:\s[^\n]*\n)*kgkit(?: \w+)*: error: {re.escape(message)}\n")


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_turtle_listing_to_canonical_ntriples(tmp_path, capsys):
    kb = write(tmp_path / "listing.ttl", FUNCTIONAL_LISTING_TTL)
    assert main(["parse", kb]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 2
    assert all(l.endswith(" .") for l in lines)
    assert lines == sorted(lines)


def test_parse_prints_prefix_redefinitions_as_warnings_on_stderr(tmp_path, capsys):
    other = "http://other.example/"
    plain = write(tmp_path / "plain.nt", f"<{EDU}a> <{EDU}p> <{EDU}b> .\n<{other}a> <{EDU}p> <{EDU}b> .\n")
    assert main(["parse", plain]) == 0
    expected = capsys.readouterr()
    assert expected.err == ""
    rebinding = f"@prefix ex: <{EDU}> .\nex:a ex:p ex:b .\n@prefix ex: <{other}> .\nex:a edu:p edu:b .\n"
    kb = write(tmp_path / "rebind.ttl", f"@prefix edu: <{EDU}> .\n" + rebinding)
    assert main(["parse", kb]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected.out
    assert captured.err == f"warning: line 4: prefix 'ex' redefined from <{EDU}> to <{other}>\n"


def test_parse_malformed_line_exits_2(tmp_path, capsys):
    kb = write(tmp_path / "bad.nt", f"<{EDU}a> <{EDU}p> <{EDU}b> .\n<{EDU}a> <{EDU}p>\n")
    assert main(["parse", kb]) == 2
    assert "line 2" in capsys.readouterr().err


def test_parse_qname_with_colons_in_its_local_part(tmp_path, capsys):
    # Turtle's PNAME_LN: the prefix ends at the first colon, and the local part may hold more
    kb = write(tmp_path / "colons.ttl", f"@prefix ex: <{EDU}> .\nex:a ex:p ex:b:c .\n")
    assert main(["parse", kb]) == 0
    assert capsys.readouterr().out == f"<{EDU}a> <{EDU}p> <{EDU}b:c> .\n"


def test_parse_drops_the_backslash_of_a_local_name_escape_and_exits_2_on_a_bad_one(tmp_path, capsys):
    kb = write(tmp_path / "escaped.ttl", "@prefix ex: <http://e/> .\nex:a\\.b ex:p ex:c .\n")
    assert main(["parse", kb]) == 0
    assert capsys.readouterr().out == "<http://e/a.b> <http://e/p> <http://e/c> .\n"
    kb = write(tmp_path / "bad.ttl", "@prefix ex: <http://e/> .\nex:a ex:p ex:a\\qb .\n")
    assert main(["parse", kb]) == 2
    assert capsys.readouterr().err == "parse error: bad escape \\q in qname ex:a\\qb at line 2, column 11\n"


@pytest.mark.parametrize("escape", [";", ",", "(", ")"])
def test_parse_names_an_escape_that_ends_a_qname_before_a_bare_word(tmp_path, capsys, escape):
    # the scanner ends a word before ;,(), so the word after the escape is not a token of its own
    kb = write(tmp_path / "escaped.ttl", f"@prefix ex: <http://e/> .\nex:s ex:p ex:a\\{escape}b .\n")
    assert main(["parse", kb]) == 2
    assert capsys.readouterr().err == f"parse error: unsupported escape \\{escape} in qname ex:a\\ at line 2, column 11\n"


@pytest.mark.parametrize("char", [" ", "{", "}", "|", "^", "`", "<", '"', "\t", "\x01"])
def test_parse_exits_2_at_a_raw_character_iriref_excludes_and_reads_its_uchar_escape(tmp_path, capsys, char):
    for name, text in (("bad.nt", f"<http://e/s> <http://e/p> <http://e/a{char}b> .\n"),
                       ("bad.ttl", f"@prefix ex: <http://e/> .\nex:s ex:p <http://e/a{char}b> .\n")):
        kb = write(tmp_path / name, text)
        assert main(["parse", kb]) == 2
        line, column = (1, 38) if name == "bad.nt" else (2, 22)
        assert capsys.readouterr().err == f"parse error: unexpected character {char!r} in IRI at line {line}, column {column}\n"
    escaped = f"<http://e/s> <http://e/p> <http://e/a\\u{ord(char):04X}b> .\n"
    kb = write(tmp_path / "escaped.nt", escaped)
    assert main(["parse", kb]) == 0
    assert capsys.readouterr().out == escaped
    assert main(["parse", kb, "--out", str(tmp_path / "again.nt")]) == 0
    assert (tmp_path / "again.nt").read_text(encoding="utf-8") == escaped


@pytest.mark.parametrize("escape", ["\\t", "\\n", '\\"', "\\'", "\\\\"])
def test_an_iri_admits_no_string_escape_in_any_reader(tmp_path, capsys, escape):
    # RDF 1.1 N-Triples, section 2.3: inside <...> only \u and \U escapes are read
    iri = f"<http://e/a{escape}b>"
    for name, text, line, column in (("bad.nt", f"<http://e/s> <http://e/p> {iri} .\n", 1, 38),
                                     ("bad.ttl", f"@prefix ex: <http://e/> .\nex:s ex:p {iri} .\n", 2, 22)):
        assert main(["parse", write(tmp_path / name, text)]) == 2
        assert capsys.readouterr().err == f"parse error: string escape {escape} in IRI at line {line}, column {column}\n"
    kb = write(tmp_path / "kb.nt", "<http://e/s> <http://e/p> <http://e/o> .\n")
    assert main(["query", kb, write(tmp_path / "q.txt", f"?x <http://e/p> {iri}\n")]) == 2
    assert capsys.readouterr().err == f"parse error: string escape {escape} in IRI at line 1, column 28\n"
    with pytest.raises(ParseError) as error:
        parse_term(iri)
    assert str(error.value) == f"string escape {escape} in IRI at line 1, column 12"


def test_check_json_alldifferent_report_does_not_depend_on_line_order(tmp_path, capsys):
    e = "http://example.org/"
    kb = [(e + "d", vocab.RDF_TYPE.value, vocab.OWL_ALLDIFFERENT.value), (e + "d", vocab.OWL_DISTINCTMEMBERS.value, e + "l1"),
          (e + "l1", vocab.RDF_FIRST.value, e + "p"), (e + "l1", vocab.RDF_REST.value, e + "l2"),
          (e + "l2", vocab.RDF_FIRST.value, e + "q"), (e + "l2", vocab.RDF_REST.value, vocab.RDF_NIL.value),
          (e + "q", vocab.OWL_SAMEAS.value, e + "p")]
    lines = ["<{}> <{}> <{}> .\n".format(*t) for t in kb]
    reports = []
    for name, ordered in (("kb.nt", lines), ("reversed.nt", lines[::-1])):
        assert main(["check", write(tmp_path / name, "".join(ordered)), "--json"]) == 3
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    # the canonically smaller member is the subject of the cited sameAs
    [violation] = json.loads(reports[0])["violations"]
    assert violation["triples"][1] == [f"<{e}p>", f"<{vocab.OWL_SAMEAS.value}>", f"<{e}q>"]


def test_check_competency_parse_error_names_the_file_line(tmp_path, capsys):
    kb = write(tmp_path / "city.ttl", CITY_TTL)
    questions = write(
        tmp_path / "competency.txt",
        f"""QUERY localities
?x a <{EDU}Locality>

QUERY bad-escape
PREFIX edu: <{EDU}>
?x a "\\q"
""",
    )
    assert main(["check", kb, "--competency", questions]) == 2
    assert capsys.readouterr().err == "parse error: unknown escape \\q at line 6, column 7\n"


def test_check_bare_query_line_has_no_name(tmp_path, capsys):
    kb = write(tmp_path / "city.ttl", CITY_TTL)
    first = write(tmp_path / "first.txt", f"QUERY\n?x a <{EDU}Locality>\n")
    later = write(tmp_path / "later.txt", f"QUERY localities\n?x a <{EDU}Locality>\n\n  query  \n?x a <{EDU}City>\n")
    for questions, line, column in ((first, 1, 1), (later, 4, 3)):
        assert main(["check", kb, "--competency", questions]) == 2
        assert capsys.readouterr().err == f"parse error: QUERY line has no name at line {line}, column {column}\n"


ALLDIFFERENT_TTL = """@prefix ex: <http://example.org/> .
[ a owl:AllDifferent ; owl:distinctMembers ( ex:a ex:b ) ] .
"""

ALLDIFFERENT_NT = """_:anon1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/2002/07/owl#AllDifferent> .
_:anon1 <http://www.w3.org/2002/07/owl#distinctMembers> _:anon2 .
_:anon2 <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> <http://example.org/a> .
_:anon2 <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> _:anon3 .
_:anon3 <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> <http://example.org/b> .
_:anon3 <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> <http://www.w3.org/1999/02/22-rdf-syntax-ns#nil> .
"""


def test_parse_a_blank_node_property_list_that_is_a_whole_statement(tmp_path, capsys):
    # Turtle 1.1 grammar rule [6], the way ontology editors write AllDifferent axioms; `[] .` states nothing
    assert main(["parse", write(tmp_path / "alldiff.ttl", ALLDIFFERENT_TTL)]) == 0
    assert capsys.readouterr().out == ALLDIFFERENT_NT
    assert main(["parse", write(tmp_path / "anon.ttl", "[] .\n")]) == 2
    assert capsys.readouterr().err == "parse error: expected a predicate, got '.' at line 1, column 4\n"


@pytest.mark.parametrize("opening, closing, per_level", [("( ", " )", 2), ("[ ex:q ", " ]", 1)], ids=["collection", "blank-node"])
def test_moderate_nesting_parses(tmp_path, capsys, opening, closing, per_level):
    # nesting 1,000 deep is a positioned parse error: rows of test_console_script.CASES, each in a fresh process
    text = "@prefix ex: <http://example.org/> .\nex:s ex:p " + opening * 300 + "ex:o" + closing * 300 + " .\n"
    assert main(["parse", write(tmp_path / "moderate.ttl", text)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 300 * per_level


@pytest.mark.parametrize("suffix", ["nt", "ttl"])
def test_parse_reads_a_prefix_language_tag_and_a_dotted_blank_label(tmp_path, capsys, suffix):
    # both are N-Triples 1.1 that the canonical writer emits, so parse(serialize(g)) holds for them too
    text = '<http://a/s> <http://a/p> "x"@prefix .\n_:a.b <http://a/p> _:c .\n'
    assert main(["parse", write(tmp_path / f"doc.{suffix}", text)]) == 0
    assert capsys.readouterr() == (text, "")


def test_parse_missing_file_exits_1(tmp_path):
    assert main(["parse", str(tmp_path / "absent.nt")]) == 1


def test_infer_rdfs_derived_only_exact_line(tmp_path, capsys):
    kb = write(tmp_path / "city.ttl", CITY_TTL)
    assert main(["infer", kb, "--profile", "rdfs", "--derived-only"]) == 0
    out = capsys.readouterr().out
    assert out == (
        f"<{EDU}Warsaw> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <{EDU}Locality> .\n"
    )


@pytest.mark.parametrize("profile", ["owl", "rdfs"])
def test_infer_owl_derived_only_is_the_closure_minus_the_input(tmp_path, capsys, profile):
    # on representatives the derived lines are the expanded copies the input does not state
    closure_of = naive_owl_closure if profile == "owl" else naive_rdfs_closure
    for seed in range(30):
        g = random_owl_graph(seed, max_triples=30)
        kb = write(tmp_path / f"kb{seed}.nt", oracle_serialize_ntriples(g))
        code = main(["infer", kb, "--profile", profile])
        whole = capsys.readouterr().out.splitlines()
        assert main(["infer", kb, "--profile", profile, "--derived-only"]) == code in (0, 3)
        derived = capsys.readouterr().out.splitlines()
        stated = set(oracle_serialize_ntriples(g).splitlines())
        assert derived == [line for line in whole if line not in stated], seed
        asserted = triples_of(g)
        expected = {oracle_format_triple(kgkit.Triple(*t)) for t in closure_of(asserted) - asserted}
        assert set(derived) == expected, seed
    if profile == "rdfs":
        return
    # the 20-link sameAs chain: (n+1)(2n+1) = 861 closure lines, 40 of them stated
    chain = "".join(f"<{EDU}c{i}> <{vocab.OWL_SAMEAS.value}> <{EDU}c{i + 1}> .\n<{EDU}c{i}> <{EDU}p> <{EDU}v{i}> .\n"
                    for i in range(20))
    assert main(["infer", write(tmp_path / "chain20.nt", chain), "--profile", "owl", "--derived-only"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 821


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(min_value=0, max_value=10**6))
def test_infer_owl_writes_the_expanded_closure_and_builds_no_expanded_graph(tmp_path, monkeypatch, seed):
    # a sameAs class used as a predicate, one of its members a literal, which no predicate expands to
    g = random_owl_graph(seed, max_triples=30)
    n0, n1, n2 = (kgkit.IRI(f"http://t.example/n{i}") for i in range(3))
    g.add(n0, vocab.OWL_SAMEAS, n1)
    g.add(n1, vocab.OWL_SAMEAS, kgkit.Literal("v"))
    g.add(n2, n0, n1)
    text = oracle_serialize_ntriples(g)
    kb, out = write(tmp_path / "kb.nt", text), str(tmp_path / "closure.nt")
    loaded = []
    monkeypatch.setattr(cli, "_load_graph", lambda path, fmt: loaded.append(_load_graph(path, fmt)) or loaded[-1])
    assert main(["infer", kb, "--profile", "owl", "--out", out]) in (0, 3)
    closure, _ = owl.saturate_owl(parse_ntriples(text))
    assert open(out, encoding="utf-8").read() == serialize_ntriples(closure.graph)
    assert "graph" not in loaded[-1]._closures["owl"].__dict__


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([vocab.RDF_TYPE, vocab.RDFS_SUBCLASSOF, vocab.OWL_INVERSEOF]))
def test_infer_writes_the_closure_graph_and_derived_only_its_derived_triples(tmp_path, capsys, seed, named):
    # sameAs classes of predicates, a sameAs to a literal, and a node stated equal to a rule-vocabulary IRI
    g = random_owl_graph(seed, max_triples=30)
    n0, n1, n2, n3 = (kgkit.IRI(f"http://t.example/n{i}") for i in range(4))
    g.add(n0, vocab.OWL_SAMEAS, n1)
    g.add(n1, vocab.OWL_SAMEAS, kgkit.Literal("v"))
    g.add(n2, n0, n1)
    g.add(n3, vocab.OWL_SAMEAS, named)
    text = oracle_serialize_ntriples(g)
    kb = write(tmp_path / "kb.nt", text)
    for profile, saturate in (("rdfs", kgkit.saturate_rdfs), ("owl", lambda graph: owl.saturate_owl(graph)[0])):
        try:
            closure = saturate(parse_ntriples(text))
        except kgkit.ValidationError:  # the closure puts two rule-vocabulary IRIs in one sameAs class, which kgkit refuses
            assert profile == "owl"
            assert main(["infer", kb, "--profile", profile]) == 1
            continue
        code = main(["infer", kb, "--profile", profile])
        assert code in (0, 3) and capsys.readouterr().out == serialize_ntriples(closure.graph)
        assert main(["infer", kb, "--profile", profile, "--derived-only"]) == code
        assert capsys.readouterr().out == serialize_ntriples(kgkit.graph_from_triples(closure.derived))


def test_infer_owl_derives_sameas(tmp_path, capsys):
    kb = write(tmp_path / "fathers.ttl", FATHERS_TTL)
    assert main(["infer", kb, "--profile", "owl"]) == 0
    out = capsys.readouterr().out
    assert f"<{EDU}Jan> <http://www.w3.org/2002/07/owl#sameAs> <{EDU}Marcin> ." in out


def test_infer_inconsistent_kb_exits_3_with_report(tmp_path, capsys):
    kb = write(tmp_path / "pumpkin.ttl", PUMPKIN_TTL)
    assert main(["infer", kb, "--profile", "owl"]) == 3
    captured = capsys.readouterr()
    assert "owl-disjoint-classes" in captured.err
    assert captured.out  # closure still emitted


def test_infer_stats_reports_rounds_and_rule_counts_on_stderr_only(tmp_path, capsys):
    kb = write(tmp_path / "city.ttl", CITY_TTL)
    for profile in ("rdfs", "owl"):
        assert main(["infer", kb, "--profile", profile]) == 0
        plain = capsys.readouterr()
        assert main(["infer", kb, "--profile", profile, "--stats"]) == 0
        counted = capsys.readouterr()
        assert counted.out == plain.out and plain.err == ""
        [run] = json.loads(counted.err)["fixpoints"]
        # round 1: the 2 asserted triples; round 2: (Warsaw type Locality)
        assert run["rounds"] == 2 and run["delta"] == [2, 1]
        assert run["rules"]["rdfs-type-propagation"] == {"candidates": 1, "new": 1}
        assert sum(rule["new"] for rule in run["rules"].values()) == 1


DOMAIN_RANGE_TTL = f"""
@prefix edu: <{EDU}> .
edu:p rdfs:domain edu:C ; rdfs:range edu:D .
edu:x edu:p edu:y1 , edu:y2 .
edu:z edu:p edu:y1 .
"""


def test_infer_domain_and_range_over_a_shared_object_and_a_repeated_subject(tmp_path, capsys):
    # x has two p triples and y1 is the object of two: each type is derived, and counted as new, once
    kb = write(tmp_path / "dr.ttl", DOMAIN_RANGE_TTL)
    assert main(["infer", kb, "--profile", "rdfs", "--derived-only", "--stats"]) == 0
    captured = capsys.readouterr()
    rdf_type = vocab.RDF_TYPE.value
    assert captured.out.encode() == "".join(
        f"<{EDU}{s}> <{rdf_type}> <{EDU}{c}> .\n" for s, c in [("x", "C"), ("y1", "D"), ("y2", "D"), ("z", "C")]
    ).encode()
    [run] = json.loads(captured.err)["fixpoints"]
    assert run["rules"]["rdfs-domain"]["new"] == run["rules"]["rdfs-range"]["new"] == 2


def test_check_stats_counts_every_saturation_and_keeps_stdout(tmp_path, capsys):
    kb = write(tmp_path / "pumpkin.ttl", PUMPKIN_TTL)
    questions = write(tmp_path / "q.txt", f"QUERY carnivores\nREGIME rdfs\n?x a <{EDU}Carnivore>\n")
    assert main(["check", kb, "--competency", questions, "--json"]) == 3
    plain = capsys.readouterr()
    assert main(["check", kb, "--competency", questions, "--json", "--stats"]) == 3
    counted = capsys.readouterr()
    assert counted.out == plain.out
    stats_line, *report = counted.err.splitlines(keepends=True)
    assert "".join(report) == plain.err
    runs = json.loads(stats_line)["fixpoints"]
    assert len(runs) == 2  # the OWL closure, then the RDFS one for the rdfs question
    assert all(run["rounds"] == len(run["delta"]) and run["delta"][0] == 3 for run in runs)
    # a rule with a false head counts its violations as candidates and adds no triple
    assert runs[0]["rules"]["owl-disjoint-classes"] == {"candidates": 1, "new": 0}


def test_check_consistent_and_inconsistent(tmp_path, capsys):
    good = write(tmp_path / "city.ttl", CITY_TTL)
    assert main(["check", good]) == 0
    assert capsys.readouterr().out.strip() == "consistent"
    bad = write(tmp_path / "pumpkin.ttl", PUMPKIN_TTL)
    assert main(["check", bad]) == 3
    assert capsys.readouterr().out.strip().startswith("inconsistent")


def test_check_json_renders_structured_violations(tmp_path, capsys):
    bad = write(tmp_path / "pumpkin.ttl", PUMPKIN_TTL)
    assert main(["check", bad, "--json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["consistent"] is False
    assert payload["violations"]
    record = payload["violations"][0]
    assert record["rule"] == "owl-disjoint-classes"
    assert all(len(t) == 3 for t in record["triples"])


def test_check_competency_table_not_fatal(tmp_path, capsys):
    kb = write(tmp_path / "allergens.ttl", ALLERGEN_TTL)
    questions = write(
        tmp_path / "competency.txt",
        """
QUERY gluten-free-products
PREFIX edu: <http://example.edu#>
ASSUME closed
?x a edu:Product
NOT { ?x edu:contains_allergen edu:gluten }

QUERY unanswerable
PREFIX edu: <http://example.edu#>
?x a edu:Starship
""",
    )
    assert main(["check", kb, "--competency", questions]) == 0
    out = capsys.readouterr().out
    assert "PASS\tgluten-free-products" in out
    assert "FAIL\tunanswerable" in out


def test_query_closed_world_json(tmp_path, capsys):
    kb = write(tmp_path / "allergens.ttl", ALLERGEN_TTL)
    qf = write(tmp_path / "q.txt", GLUTEN_FREE_QUERY)
    assert main(["query", kb, qf]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [
        {"x": f"<{EDU}Cream>"},
        {"x": f"<{EDU}DarkSoySauce>"},
        {"x": f"<{EDU}Peanuts>"},
    ]


def test_query_open_world_negation_exits_4(tmp_path, capsys):
    kb = write(tmp_path / "allergens.ttl", ALLERGEN_TTL)
    qf = write(tmp_path / "q.txt", GLUTEN_FREE_QUERY.replace("ASSUME closed", "ASSUME open"))
    assert main(["query", kb, qf]) == 4
    assert "negation" in capsys.readouterr().err


def test_query_tsv_output(tmp_path, capsys):
    kb = write(tmp_path / "allergens.ttl", ALLERGEN_TTL)
    qf = write(tmp_path / "q.txt", GLUTEN_FREE_QUERY)
    assert main(["query", kb, qf, "--tsv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "?x"
    assert len(lines) == 4


def test_reify_table_two_rows(tmp_path, capsys):
    csv_path = write(tmp_path / "purchases.csv", PURCHASES_CSV)
    spec_path = write(tmp_path / "spec.txt", PURCHASE_SPEC)
    assert main(["reify", csv_path, "--spec", spec_path]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 10
    assert any("purchase1" in l and "NaturalYoghurt" in l for l in lines)
    assert any("purchase2" in l for l in lines)


def test_reify_empty_csv_exits_0(tmp_path, capsys):
    csv_path = write(tmp_path / "empty.csv", "Buyer,Seller,Product,Number of pieces\n")
    spec_path = write(tmp_path / "spec.txt", PURCHASE_SPEC)
    assert main(["reify", csv_path, "--spec", spec_path]) == 0
    assert capsys.readouterr().out == ""


def test_reify_missing_column_exits_1_naming_it(tmp_path, capsys):
    csv_path = write(tmp_path / "short.csv", "Buyer,Seller,Product\nA,B,C\n")
    spec_path = write(tmp_path / "spec.txt", PURCHASE_SPEC)
    assert main(["reify", csv_path, "--spec", spec_path]) == 1
    assert "Number of pieces" in capsys.readouterr().err


def test_reify_empty_iri_cell_exits_1_naming_row_and_column(tmp_path, capsys):
    csv_path = write(tmp_path / "gap.csv", "Buyer,Seller,Product,Number of pieces\nA,B,C,1\nA, ,C,\n")
    spec_path = write(tmp_path / "spec.txt", PURCHASE_SPEC)
    assert main(["reify", csv_path, "--spec", spec_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: row 2 has an empty cell in IRI column 'Seller'\n"


def test_reify_iri_cell_with_a_quote_exits_1_naming_row_and_column(tmp_path, capsys):
    csv_path = write(tmp_path / "quote.csv", 'Buyer,Seller,Product,Number of pieces\nA,B,C,1\nA,"x""y",C,2\n')
    spec_path = write(tmp_path / "spec.txt", PURCHASE_SPEC)
    assert main(["reify", csv_path, "--spec", spec_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: row 2 puts '\"' into an IRI in column 'Seller'\n"


def test_reify_csv_with_a_byte_order_mark_gives_the_same_bytes(tmp_path, capsys):
    spec_path = write(tmp_path / "spec.txt", PURCHASE_SPEC)
    outputs = []
    for name, text in (("plain.csv", PURCHASES_CSV), ("bom.csv", "\ufeff" + PURCHASES_CSV)):
        assert main(["reify", write(tmp_path / name, text), "--spec", spec_path]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != ""


@pytest.mark.parametrize(
    "spec, csv_text, code, err",
    [
        (
            PURCHASE_SPEC.replace(f"namespace: {EDU}", "namespace: http://e.org/a b/"),
            "Buyer,Seller,Product,Number of pieces\n",
            1,
            "error: namespace 'http://e.org/a b/' in the table spec puts ' ' into an IRI\n",
        ),
        (
            PURCHASE_SPEC + "instance-name: my row\n",
            PURCHASES_CSV,
            1,
            "error: instance-name 'my row' in the table spec puts ' ' into an IRI\n",
        ),
        (
            PURCHASE_SPEC.replace(f"{EDU}seller", "http://e.org/<p>"),
            PURCHASES_CSV,
            1,
            "error: role 'http://e.org/<p>' in the table spec puts '<' into an IRI\n",
        ),
        (
            PURCHASE_SPEC.replace(f"class: {EDU}Purchase", "class: Purchase"),
            "Buyer,Seller,Product,Number of pieces\n",
            1,
            "error: class 'Purchase' in the table spec does not make an absolute IRI\n",
        ),
        (PURCHASE_SPEC, "Buyer,Seller,Buyer,Product,Number of pieces\n", 2, "parse error: the header names column 'Buyer' twice\n"),
        (PURCHASE_SPEC, PURCHASES_CSV + "A,B,C\n", 2, "parse error: row 3 has fewer cells than the header\n"),
    ],
    ids=["namespace-space", "instance-name-space", "property-angle", "relative-class", "duplicate-header", "short-row"],
)
def test_reify_rejects_a_bad_spec_iri_or_csv_shape_in_one_error_line(tmp_path, capsys, spec, csv_text, code, err):
    spec_path = write(tmp_path / "spec.txt", spec)
    assert main(["reify", write(tmp_path / "t.csv", csv_text), "--spec", spec_path]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize(
    "spec, code, err",
    [
        (PURCHASE_SPEC + "literal Buyer\n", 2, "parse error: expected 'key: value' at line 9\n"),
        (PURCHASE_SPEC + "role: Buyer => x\n", 2, "parse error: role line must be '<column> -> <property>' at line 9\n"),
        (PURCHASE_SPEC + "colour: red\n", 2, "parse error: unknown key 'colour' at line 9\n"),
        (PURCHASE_SPEC.replace(f"class: {EDU}Purchase", ""), 2, "parse error: spec file is missing 'class:'\n"),
        (PURCHASE_SPEC.replace(f"namespace: {EDU}", ""), 2, "parse error: spec file is missing 'namespace:'\n"),
        (f"class: {EDU}Purchase\nnamespace: {EDU}\n", 1, "error: table spec maps no columns\n"),
    ],
    ids=["no-colon", "role-without-arrow", "unknown-key", "no-class", "no-namespace", "no-roles"],
)
def test_reify_rejects_a_malformed_spec_file_in_one_error_line(tmp_path, capsys, spec, code, err):
    spec_path = write(tmp_path / "spec.txt", spec)
    assert main(["reify", write(tmp_path / "t.csv", PURCHASES_CSV), "--spec", spec_path]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


ONE_EDGE_NT = f"<{EDU}n0> <{EDU}next> <{EDU}n1> .\n"


@pytest.mark.parametrize(
    "model, err",
    [
        ("", "error: empty model file\n"),
        (f"d=1\nE\t<{EDU}n0>\t0.5\n", "error: bad model header: 'd=1'\n"),
        ("d=1 norm=L3\n", "error: bad norm in model header: 'L3'\n"),
        (f"d=1 norm=L1\nE\t<{EDU}n0>\t0.5\t0.5\n", f"error: bad model row: 'E\\t<{EDU}n0>\\t0.5\\t0.5'\n"),
        (f"d=1 norm=L1\nX\t<{EDU}n0>\t0.5\n", f"error: bad model row: 'X\\t<{EDU}n0>\\t0.5'\n"),
    ],
    ids=["empty", "bad-header", "bad-norm", "row-width", "row-kind"],
)
def test_embed_eval_rejects_a_malformed_model_file_in_one_error_line(tmp_path, capsys, model, err):
    kb = write(tmp_path / "g.nt", ONE_EDGE_NT)
    assert main(["embed", "eval", kb, "--model", write(tmp_path / "m.tsv", model), "--test", kb]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def one_dimension_model(value: str) -> str:
    return f"d=1 norm=L1\nE\t<{EDU}n0>\t0.5\nE\t<{EDU}n1>\t0.25\nR\t<{EDU}next>\t{value}\n"


@pytest.mark.parametrize(
    "files, argv, code",
    [
        (
            {"g.nt": ONE_EDGE_NT, "m.tsv": one_dimension_model("nan")},
            ["embed", "eval", "g.nt", "--model", "m.tsv", "--test", "g.nt"],
            1,
        ),
        (
            {"g.nt": ONE_EDGE_NT, "m.tsv": one_dimension_model("-inf")},
            ["embed", "eval", "g.nt", "--model", "m.tsv", "--test", "g.nt"],
            1,
        ),
        ({"t.csv": "\ufeff" + PURCHASES_CSV, "spec.txt": PURCHASE_SPEC}, ["reify", "t.csv", "--spec", "spec.txt"], 0),
    ],
    ids=["nan-model", "inf-model", "bom-csv"],
)
def test_bad_inputs_return_their_exit_code_without_raising(tmp_path, capsys, files, argv, code):
    for name, text in files.items():
        write(tmp_path / name, text)
    assert main([str(tmp_path / a) if a in files else a for a in argv]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
    else:
        assert captured.out and captured.err == ""


def test_usage_error_exits_1():
    assert main(["no-such-command"]) == 1


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["infer", "kb.ttl"], 0),
        (["infer", "same.nt", "--profile", "owl", "--out", "closure.nt"], 0),
        (["parse", "bad.nt"], 2),
        (["no-such-command"], 1),
        (["parse", "kb.ttl"], KeyboardInterrupt),
    ],
    ids=["infer", "infer-owl-out", "parse-error", "usage-error", "interrupt"],
)
def test_a_command_runs_with_the_collector_paused_and_leaves_it_as_the_caller_had_it(
    tmp_path, capsys, monkeypatch, argv, code, enabled
):
    from kgkit import cli

    monkeypatch.chdir(tmp_path)
    write(tmp_path / "kb.ttl", CITY_TTL)
    write(tmp_path / "bad.nt", f"<{EDU}a> <{EDU}p>\n")
    write(tmp_path / "same.nt", f"<{EDU}a> <{vocab.OWL_SAMEAS.value}> <{EDU}b> .\n<{EDU}b> <{EDU}p> <{EDU}c> .\n")
    during = []

    def spy(real, args):
        during.append(gc.isenabled())
        if code is KeyboardInterrupt:
            raise KeyboardInterrupt
        return real(args)

    for name in ("cmd_infer", "cmd_parse"):
        monkeypatch.setattr(cli, name, functools.partial(spy, getattr(cli, name)))
    (gc.enable if enabled else gc.disable)()
    try:
        if code is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert during == ([] if code == 1 else [False])


def embed_fixture(tmp_path) -> str:
    lines = []
    for i in range(8):
        lines.append(f"<{EDU}n{i}> <{EDU}next> <{EDU}n{(i + 1) % 8}> .")
        lines.append(f"<{EDU}n{(i + 1) % 8}> <{EDU}prev> <{EDU}n{i}> .")
    return write(tmp_path / "chain.nt", "\n".join(lines) + "\n")


def test_norm_choices_are_the_embeddings_norms():
    from kgkit import embeddings

    (commands,) = [action for action in build_parser()._actions if action.dest == "command"]
    (actions,) = [action for action in commands.choices["embed"]._actions if action.dest == "action"]
    (norm,) = [action for action in actions.choices["train"]._actions if action.dest == "norm"]
    assert tuple(norm.choices) == (embeddings.L1, embeddings.L2)
    assert norm.default == embeddings.L1


def test_every_option_a_command_accepts_is_read(tmp_path, monkeypatch, capsys):
    kb, model, out = embed_fixture(tmp_path), str(tmp_path / "m.tsv"), str(tmp_path / "out")
    csv, spec = write(tmp_path / "t.csv", PURCHASES_CSV), write(tmp_path / "t.spec", PURCHASE_SPEC)
    question = f"?x <{EDU}next> ?y\n"
    queryfile, competency = write(tmp_path / "q.txt", question), write(tmp_path / "c.txt", "QUERY q\n" + question)
    runs = [
        ["parse", kb, "--out", out],
        ["infer", kb, "--out", out],
        ["check", kb, "--competency", competency],
        ["query", kb, queryfile, "--out", out],
        ["reify", csv, "--spec", spec, "--out", out],
        ["embed", "train", kb, "--model", model, "--epochs", "1"],
        ["embed", "eval", kb, "--model", model, "--test", kb],
        ["embed", "predict", kb, "--model", model, "--relation", f"{EDU}next", "--head", f"{EDU}n0", "--out", out],
    ]
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parse_args = argparse.ArgumentParser.parse_args

    def parse_and_record(self, args=None, namespace=None):
        parsed = parse_args(self, args, Recording())
        reads.clear()  # count only what the command reads
        return parsed

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_and_record)
    for argv in runs:
        assert main(argv) == 0, capsys.readouterr().err
        # the dest of every argument of each parser the words of argv choose
        defined, parser, words = set(), build_parser(), iter(argv)
        while parser is not None:
            subcommands = None
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    subcommands = action.choices
                if not isinstance(action, argparse._HelpAction):
                    defined.add(action.dest)
            parser = subcommands and subcommands[next(words)]
        assert defined - reads == set(), argv


def test_commands_in_one_process_share_the_parser_and_not_their_options(tmp_path, capsys):
    kb = write(tmp_path / "kb.ttl", CITY_TTL)
    assert build_parser() is build_parser()
    assert main(["infer", kb, "--derived-only"]) == 0
    derived = capsys.readouterr().out
    assert main(["infer", kb]) == 0
    closure = capsys.readouterr().out
    assert derived == f"<{EDU}Warsaw> <{vocab.RDF_TYPE.value}> <{EDU}Locality> .\n"
    assert len(closure.splitlines()) == 3 and derived in closure
    assert main(["check", kb, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"competency": [], "consistent": True, "violations": []}
    assert main(["infer", kb, "--profile", "owl", "--derived-only"]) == 0
    assert capsys.readouterr().out == derived


def test_embed_train_deterministic_model_files(tmp_path):
    kb = embed_fixture(tmp_path)
    m1, m2 = str(tmp_path / "m1.tsv"), str(tmp_path / "m2.tsv")
    args = ["embed", "train", kb, "--dim", "6", "--epochs", "20", "--seed", "5"]
    assert main(args + ["--model", m1]) == 0
    assert main(args + ["--model", m2]) == 0
    assert open(m1, "rb").read() == open(m2, "rb").read()


@pytest.mark.parametrize("every, epochs", [("1", [1, 2, 3, 4, 5, 6, 7]), ("3", [3, 6, 7]), ("7", [7]), ("10", [7])])
def test_embed_train_log_every_prints_each_nth_and_the_last_epoch_loss_on_stderr(tmp_path, capsys, every, epochs):
    kb = embed_fixture(tmp_path)
    args = ["embed", "train", kb, "--dim", "6", "--epochs", "7", "--seed", "5"]
    plain_model, logged_model = str(tmp_path / "plain.tsv"), str(tmp_path / "logged.tsv")
    assert main(args + ["--model", plain_model]) == 0
    plain = capsys.readouterr()
    assert main(args + ["--model", logged_model, "--log-every", every]) == 0
    logged = capsys.readouterr()
    assert plain.out == logged.out == ""
    (summary,) = plain.err.splitlines()
    first, last = re.fullmatch(r"epochs=7 first_loss=(\S+) last_loss=(\S+)", summary).groups()
    *lines, tail = logged.err.splitlines()
    assert tail == summary
    losses = dict(re.fullmatch(r"epoch=(\d+) loss=(\S+)", line).groups() for line in lines)
    assert [int(epoch) for epoch in losses] == epochs
    assert losses["7"] == last and losses.get("1", first) == first
    assert open(plain_model, "rb").read() == open(logged_model, "rb").read()


@pytest.mark.parametrize("every", ["0", "-2"])
def test_embed_train_log_every_below_1_is_a_usage_error(tmp_path, capsys, every):
    kb = embed_fixture(tmp_path)
    model = tmp_path / "m.tsv"
    assert main(["embed", "train", kb, "--model", str(model), "--log-every", every]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"--log-every must be at least 1, got {every}\n"
    assert not model.exists()


@pytest.mark.parametrize("every", ["0", "5"])
@pytest.mark.parametrize(
    "action",
    [["eval", "--test", "{kb}"], ["predict", "--head", f"{EDU}n0", "--relation", f"{EDU}next"]],
    ids=["eval", "predict"],
)
def test_embed_log_every_outside_train_is_a_usage_error(tmp_path, capsys, action, every):
    kb, model, _ = _eval_fixture(tmp_path)
    command, *rest = action
    argv = ["embed", command, kb, "--model", model, *(arg.format(kb=kb) for arg in rest)]
    capsys.readouterr()
    assert main(argv) == 0  # the same call runs without the flag
    capsys.readouterr()
    assert main(argv + ["--log-every", every]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and usage_error(f"unrecognized arguments: --log-every {every}").fullmatch(captured.err)


def test_embed_train_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    from kgkit import embeddings

    def refuse(*args, **kwargs):  # stands in for numpy refusing an array too large to allocate
        raise MemoryError("Unable to allocate 1.46 TiB")

    monkeypatch.setattr(embeddings, "init_model", refuse)
    kb = embed_fixture(tmp_path)
    assert main(["embed", "train", kb, "--dim", "100000000000", "--model", str(tmp_path / "m.tsv")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory (Unable to allocate 1.46 TiB)\n" and captured.out == ""


def test_embed_seed_env_override(tmp_path, monkeypatch):
    kb = embed_fixture(tmp_path)
    m_env, m_flag, m_default = (str(tmp_path / n) for n in ("env.tsv", "flag.tsv", "default.tsv"))
    monkeypatch.setenv("KB_SEED", "5")
    assert main(["embed", "train", kb, "--dim", "4", "--epochs", "5", "--model", m_env]) == 0
    monkeypatch.delenv("KB_SEED")
    assert main(["embed", "train", kb, "--dim", "4", "--epochs", "5", "--seed", "5", "--model", m_flag]) == 0
    assert main(["embed", "train", kb, "--dim", "4", "--epochs", "5", "--model", m_default]) == 0
    assert open(m_env, "rb").read() == open(m_flag, "rb").read()
    assert open(m_env, "rb").read() != open(m_default, "rb").read()
    # flags beat the environment
    monkeypatch.setenv("KB_SEED", "99")
    m_both = str(tmp_path / "both.tsv")
    assert main(["embed", "train", kb, "--dim", "4", "--epochs", "5", "--seed", "5", "--model", m_both]) == 0
    assert open(m_both, "rb").read() == open(m_flag, "rb").read()


def test_embed_non_integer_seed_env_exits_1(tmp_path, monkeypatch, capsys):
    kb = embed_fixture(tmp_path)
    monkeypatch.setenv("KB_SEED", "x")
    assert main(["embed", "train", kb, "--dim", "4", "--epochs", "2", "--model", str(tmp_path / "m.tsv")]) == 1
    assert capsys.readouterr().err.startswith("error: KB_SEED")


def test_embed_negative_seed_exits_1(tmp_path, monkeypatch, capsys):
    kb = embed_fixture(tmp_path)
    model = str(tmp_path / "m.tsv")
    assert main(["embed", "train", kb, "--dim", "4", "--epochs", "2", "--seed", "-1", "--model", model]) == 1
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
    monkeypatch.setenv("KB_SEED", "-1")
    assert main(["embed", "train", kb, "--dim", "4", "--epochs", "2", "--model", model]) == 1
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
    assert not (tmp_path / "m.tsv").exists()


def test_embed_non_finite_learning_rate_or_margin_exits_1(tmp_path, capsys):
    kb = embed_fixture(tmp_path)
    model = str(tmp_path / "m.tsv")
    for option in ("--lr=nan", "--lr=inf", "--margin=nan", "--margin=-inf"):
        assert main(["embed", "train", kb, "--dim", "4", "--epochs", "2", option, "--model", model]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite and positive" in err, option
    assert not (tmp_path / "m.tsv").exists()


def test_embed_eval_reports_metrics(tmp_path, capsys):
    kb = embed_fixture(tmp_path)
    model = str(tmp_path / "m.tsv")
    test_file = write(tmp_path / "test.nt", f"<{EDU}n0> <{EDU}next> <{EDU}n1> .\n")
    assert main(["embed", "train", kb, "--dim", "6", "--epochs", "30", "--seed", "1", "--model", model]) == 0
    capsys.readouterr()
    assert main(["embed", "eval", kb, "--model", model, "--test", test_file]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert set(metrics) == {"mean_rank", "mrr", "hits_at_1", "hits_at_3", "hits_at_10"}
    assert metrics["mean_rank"] >= 1.0


def test_embed_eval_empty_test_file_exits_1(tmp_path, capsys):
    kb, model, _ = _eval_fixture(tmp_path)
    empty = write(tmp_path / "empty.nt", "")
    capsys.readouterr()
    assert main(["embed", "eval", kb, "--model", model, "--test", empty]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: evaluation needs at least one test triple\n"


def test_embed_predict_top_k_shape(tmp_path, capsys):
    kb = embed_fixture(tmp_path)
    model = str(tmp_path / "m.tsv")
    assert main(["embed", "train", kb, "--dim", "6", "--epochs", "10", "--seed", "1", "--model", model]) == 0
    capsys.readouterr()
    assert main(["embed", "predict", kb, "--model", model, "--head", f"{EDU}n0", "--relation", f"{EDU}next", "-k", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for line in lines:
        term, value = line.split("\t")
        assert term.startswith("<")
        float(value)


def test_embed_predict_requires_exactly_one_free_slot(tmp_path, capsys):
    kb = embed_fixture(tmp_path)
    model = str(tmp_path / "m.tsv")
    assert main(["embed", "train", kb, "--dim", "4", "--epochs", "2", "--seed", "1", "--model", model]) == 0
    assert main(["embed", "predict", kb, "--model", model, "--relation", f"{EDU}next"]) == 1


def test_embed_predict_literal_head_exits_1(tmp_path, capsys):
    kb = write(tmp_path / "labelled.nt", f'<{EDU}n0> <{EDU}next> <{EDU}n1> .\n<{EDU}n0> <{EDU}label> "lit" .\n')
    model = str(tmp_path / "m.tsv")
    assert main(["embed", "train", kb, "--dim", "4", "--epochs", "2", "--seed", "1", "--model", model]) == 0
    capsys.readouterr()
    assert main(["embed", "predict", kb, "--model", model, "--head", '"lit"', "--relation", f"{EDU}next"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the subject cannot be a literal")


def test_embed_eval_zero_dimension_model_exits_1(tmp_path, capsys):
    kb = write(tmp_path / "one.nt", f"<{EDU}n0> <{EDU}next> <{EDU}n1> .\n")
    model = write(tmp_path / "m.tsv", f"d=0 norm=L1\nE\t<{EDU}n0>\nE\t<{EDU}n1>\nR\t<{EDU}next>\n")
    assert main(["embed", "eval", kb, "--model", model, "--test", kb]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad dimension in model header")


def _eval_fixture(tmp_path) -> tuple[str, str, str]:
    kb = embed_fixture(tmp_path)
    model = str(tmp_path / "m.tsv")
    test_file = write(tmp_path / "test.nt", f"<{EDU}n0> <{EDU}next> <{EDU}n1> .\n<{EDU}n3> <{EDU}prev> <{EDU}n5> .\n")
    assert main(["embed", "train", kb, "--dim", "6", "--epochs", "30", "--seed", "1", "--model", model]) == 0
    return kb, model, test_file


def test_embed_eval_stdout_without_per_relation_is_unchanged(tmp_path, capsys):
    kb, model, test_file = _eval_fixture(tmp_path)
    capsys.readouterr()
    assert main(["embed", "eval", kb, "--model", model, "--test", test_file]) == 0
    assert capsys.readouterr().out == (
        '{"hits_at_1": 0.25, "hits_at_10": 1.0, "hits_at_3": 0.5, "mean_rank": 4.75, "mrr": 0.40029761904761907}\n'
    )


def test_embed_eval_reads_a_turtle_test_file_like_the_graph(tmp_path, capsys):
    kb, model, test_file = _eval_fixture(tmp_path)
    capsys.readouterr()
    assert main(["embed", "eval", kb, "--model", model, "--test", test_file]) == 0
    expected = capsys.readouterr().out
    ttl = write(tmp_path / "test.ttl", f"@prefix edu: <{EDU}> .\nedu:n0 edu:next edu:n1 .\nedu:n3 edu:prev edu:n5 .\n")
    assert main(["embed", "eval", kb, "--model", model, "--test", ttl]) == 0
    assert capsys.readouterr().out == expected
    ttl_graph = write(tmp_path / "chain.ttl", (tmp_path / "chain.nt").read_text(encoding="utf-8"))
    assert main(["embed", "eval", ttl_graph, "--format", "ttl", "--model", model, "--test", ttl]) == 0
    assert capsys.readouterr().out == expected


def test_embed_eval_per_relation(tmp_path, capsys):
    kb, model, test_file = _eval_fixture(tmp_path)
    capsys.readouterr()
    assert main(["embed", "eval", kb, "--model", model, "--test", test_file]) == 0
    overall = json.loads(capsys.readouterr().out)
    assert main(["embed", "eval", kb, "--model", model, "--test", test_file, "--per-relation"]) == 0
    metrics = json.loads(capsys.readouterr().out)
    per_relation = metrics.pop("per_relation")
    assert metrics == overall
    assert set(per_relation) == {f"<{EDU}next>", f"<{EDU}prev>"}
    for row in per_relation.values():
        assert set(row) == set(overall)
    # one test triple per relation, so the overall mean rank averages the two
    assert overall["mean_rank"] == sum(row["mean_rank"] for row in per_relation.values()) / 2


def test_query_unknown_prefix_is_a_parse_error_exit_2(tmp_path, capsys):
    kb = write(tmp_path / "city.ttl", CITY_TTL)
    qf = write(tmp_path / "q.txt", "?x nope:p ?y\n")
    assert main(["query", kb, qf]) == 2
    assert capsys.readouterr().err == "parse error: unknown prefix: 'nope' at line 1, column 4\n"


def test_invalid_utf8_exits_2_naming_the_byte(tmp_path, capsys):
    good = write(tmp_path / "city.ttl", CITY_TTL)
    bad_graph = tmp_path / "bad.nt"
    bad_graph.write_bytes(f'<{EDU}a> <{EDU}p> "caf\xff" .\n'.encode("latin-1"))
    assert main(["parse", str(bad_graph)]) == 2
    offset = len(f'<{EDU}a> <{EDU}p> "caf')
    assert capsys.readouterr().err == f"parse error: invalid UTF-8 at byte {offset}: invalid start byte\n"

    bad_query = tmp_path / "q.txt"
    bad_query.write_bytes(b"?x a \xfe\n")
    assert main(["query", good, str(bad_query)]) == 2
    assert capsys.readouterr().err == "parse error: invalid UTF-8 at byte 5: invalid start byte\n"

    kb = embed_fixture(tmp_path)
    bad_model = tmp_path / "m.tsv"
    bad_model.write_bytes(b"d=2 norm=L1\n\xff\n")
    assert main(["embed", "eval", kb, "--model", str(bad_model), "--test", kb]) == 2
    assert capsys.readouterr().err == "parse error: invalid UTF-8 at byte 12: invalid start byte\n"


MIXED_KB_TTL = f"""
@prefix edu: <{EDU}> .
edu:City rdfs:subClassOf edu:Locality .
edu:Warsaw a edu:City .
edu:Ola edu:has_father edu:Jan .
edu:Ola edu:has_father edu:Marcin .
edu:has_father rdf:type owl:FunctionalProperty .
edu:Herbivore owl:disjointWith edu:Carnivore .
edu:Pumpkin a edu:Carnivore , edu:Herbivore .
"""

# regimes in file order: none, none (an open-world NOT), owl, rdfs, owl (a bad projection), rdfs, none
MIXED_COMPETENCY = f"""
QUERY fathers
PREFIX edu: <{EDU}>
?x edu:has_father ?y

QUERY open-world-negation
PREFIX edu: <{EDU}>
NOT {{ ?x a edu:Ghost }}
?x a edu:City

QUERY identities
REGIME owl
?x owl:sameAs ?y

QUERY localities
REGIME rdfs
PREFIX edu: <{EDU}>
?x a edu:Locality

QUERY unknown-projection
REGIME owl
SELECT ?nope
?x owl:sameAs ?y

QUERY starships
REGIME rdfs
?x a <{EDU}Starship>

QUERY raw-localities
PREFIX edu: <{EDU}>
?x a edu:Locality
"""

# taken from the parent, which saturated the KB once per question
MIXED_ERR = (
    "competency open-world-negation: negation requires the closed-world assumption: "
    "under the open world, absence of a fact is not its negation\n"
    "competency unknown-projection: projection variable ?nope occurs in no pattern\n"
    f"violation: owl-disjoint-classes: <{EDU}Herbivore> <http://www.w3.org/2002/07/owl#disjointWith> <{EDU}Carnivore>; "
    f"<{EDU}Pumpkin> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <{EDU}Carnivore>; "
    f"<{EDU}Pumpkin> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <{EDU}Herbivore>\n"
)
MIXED_VERDICTS = [
    ("fathers", True),
    ("open-world-negation", False),
    ("identities", True),
    ("localities", True),
    ("unknown-projection", False),
    ("starships", False),
    ("raw-localities", False),
]


def test_check_saturates_once_per_regime_holding_one_closure(tmp_path, capsys, monkeypatch):
    from kgkit import owl, rdfs

    query = importlib.import_module("kgkit.query")  # the package's `query` is the function
    kb = write(tmp_path / "kb.ttl", MIXED_KB_TTL)
    questions = write(tmp_path / "competency.txt", MIXED_COMPETENCY)
    calls = Counter()
    closures = []  # weak references to every closed graph handed out
    real_owl, real_rdfs = owl.saturate_owl, rdfs.saturate_rdfs

    def saturate_owl(graph):
        calls["owl"] += 1
        closure, report = real_owl(graph)
        closures.append(weakref.ref(closure.graph))
        return closure, report

    def saturate_rdfs(graph):
        calls["rdfs"] += 1
        gc.collect()
        assert all(ref() is None for ref in closures), "another closure is still held"
        closure = real_rdfs(graph)
        closures.append(weakref.ref(closure.graph))
        return closure

    def is_consistent(graph):
        raise AssertionError("kgkit check takes its verdict from the one saturate_owl")

    for module in (owl, query):
        monkeypatch.setattr(module, "saturate_owl", saturate_owl)
    for module in (rdfs, query):
        monkeypatch.setattr(module, "saturate_rdfs", saturate_rdfs)
    monkeypatch.setattr(owl, "is_consistent", is_consistent)

    assert main(["check", kb, "--competency", questions]) == 3
    captured = capsys.readouterr()
    rows = "".join(f"{'PASS' if ok else 'FAIL'}\t{name}\n" for name, ok in MIXED_VERDICTS)
    assert captured.out == "inconsistent\n" + rows
    assert captured.err == MIXED_ERR
    assert calls == {"owl": 1, "rdfs": 1}

    assert main(["check", kb, "--competency", questions, "--json"]) == 3
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert [(c["name"], c["pass"]) for c in payload["competency"]] == MIXED_VERDICTS
    assert payload["consistent"] is False and len(payload["violations"]) == 1
    assert captured.err == MIXED_ERR
    assert calls == {"owl": 2, "rdfs": 2}
