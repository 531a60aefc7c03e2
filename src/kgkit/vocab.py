"""Namespace constants for the RDF, RDFS, OWL and XSD vocabularies, and the fixed ids of the rules' vocabulary."""

from .terms import IRI

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
XSD = "http://www.w3.org/2001/XMLSchema#"

#: Namespace the parsers assume for the empty prefix when no @prefix
#: declaration binds it.
DEFAULT_NS = "http://example.org/ns#"

RDF_TYPE = IRI(RDF + "type")
RDF_FIRST = IRI(RDF + "first")
RDF_REST = IRI(RDF + "rest")
RDF_NIL = IRI(RDF + "nil")

RDFS_SUBCLASSOF = IRI(RDFS + "subClassOf")
RDFS_SUBPROPERTYOF = IRI(RDFS + "subPropertyOf")
RDFS_DOMAIN = IRI(RDFS + "domain")
RDFS_RANGE = IRI(RDFS + "range")
RDFS_LABEL = IRI(RDFS + "label")

OWL_SAMEAS = IRI(OWL + "sameAs")
OWL_DIFFERENTFROM = IRI(OWL + "differentFrom")
OWL_ALLDIFFERENT = IRI(OWL + "AllDifferent")
OWL_DISTINCTMEMBERS = IRI(OWL + "distinctMembers")
OWL_MEMBERS = IRI(OWL + "members")
OWL_FUNCTIONALPROPERTY = IRI(OWL + "FunctionalProperty")
OWL_TRANSITIVEPROPERTY = IRI(OWL + "TransitiveProperty")
OWL_OBJECTPROPERTY = IRI(OWL + "ObjectProperty")
OWL_INVERSEOF = IRI(OWL + "inverseOf")
OWL_EQUIVALENTCLASS = IRI(OWL + "equivalentClass")
OWL_DISJOINTWITH = IRI(OWL + "disjointWith")
OWL_COMPLEMENTOF = IRI(OWL + "complementOf")
OWL_INTERSECTIONOF = IRI(OWL + "intersectionOf")
OWL_UNIONOF = IRI(OWL + "unionOf")
OWL_SOMEVALUESFROM = IRI(OWL + "someValuesFrom")
OWL_ALLVALUESFROM = IRI(OWL + "allValuesFrom")
OWL_ONPROPERTY = IRI(OWL + "onProperty")
OWL_RESTRICTION = IRI(OWL + "Restriction")
OWL_CLASS = IRI(OWL + "Class")
OWL_THING = IRI(OWL + "Thing")
OWL_NOTHING = IRI(OWL + "Nothing")

#: The IRIs that the rule table, the hand-written rules and the Turtle collection reader name.  Every
#: term dictionary starts with them (`Graph.__init__`), so `RULE_TERMS[i]` has id i in every graph.
RULE_TERMS = (RDF_TYPE, RDF_FIRST, RDF_REST, RDF_NIL, RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF, RDFS_DOMAIN, RDFS_RANGE,
              OWL_SAMEAS, OWL_INVERSEOF, OWL_EQUIVALENTCLASS, OWL_FUNCTIONALPROPERTY, OWL_TRANSITIVEPROPERTY, OWL_ONPROPERTY,
              OWL_SOMEVALUESFROM, OWL_ALLVALUESFROM, OWL_INTERSECTIONOF, OWL_UNIONOF, OWL_DISJOINTWITH, OWL_COMPLEMENTOF,
              OWL_DIFFERENTFROM, OWL_ALLDIFFERENT, OWL_DISTINCTMEMBERS, OWL_MEMBERS, OWL_NOTHING)
RULE_IDS = {iri: i for i, iri in enumerate(RULE_TERMS)}
