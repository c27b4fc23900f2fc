"""The document decoders: round trips, and the refusal of malformed documents.

``from_obj`` is the one decoder of each type.  A value written by ``to_obj``
decodes to an equal value that writes the same document again, and each
malformed document below is refused through the command line with exit 2
and one named stderr line.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from cliffsteer.algebra import Multivector
from cliffsteer.cli import main
from cliffsteer.polynomials import CliffordPolynomial
from cliffsteer.steering import SteeringExpression, SteeringSymbol

M = 4

# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

FRACTIONS = st.fractions(min_value=-5, max_value=5, max_denominator=6)
ROUND_TRIP = settings(max_examples=40, deadline=None)


@st.composite
def multivectors(draw, m):
    masks = st.integers(min_value=0, max_value=(1 << m) - 1)
    return Multivector(m, draw(st.dictionaries(masks, FRACTIONS, max_size=4)))


@st.composite
def polynomials(draw, m, scope=None):
    if scope is None:
        scope = draw(st.sampled_from([range(m + 1), range(2, m + 1)]))
    exponents = st.tuples(
        *(st.integers(0, 3) if i in scope else st.just(0) for i in range(m + 1))
    )
    terms = draw(st.dictionaries(exponents, multivectors(m), max_size=3))
    return CliffordPolynomial(m, terms, var_scope=scope)


@st.composite
def symbols(draw):
    kind = draw(st.sampled_from(["powexp", "cos", "sin"]))
    bar = draw(st.booleans())
    if kind == "powexp":
        return SteeringSymbol.power_exp(draw(st.integers(0, 2)), draw(FRACTIONS), bar)
    rate = draw(FRACTIONS.filter(lambda q: q > 0))
    return SteeringSymbol(kind, bar=bar, rate=rate)


@st.composite
def expressions(draw, m):
    y_polys = polynomials(m, range(2, m + 1))
    return SteeringExpression(m, draw(st.dictionaries(symbols(), y_polys, max_size=3)))


def dimensions(build):
    return st.integers(2, 6).flatmap(build)


def assert_round_trip(value):
    doc = json.loads(json.dumps(value.to_obj()))
    decoded = type(value).from_obj(doc)
    assert decoded == value
    assert decoded.to_obj() == value.to_obj()


@ROUND_TRIP
@given(dimensions(multivectors))
def test_multivector_round_trip(value):
    assert_round_trip(value)


@ROUND_TRIP
@given(dimensions(polynomials))
def test_polynomial_round_trip(value):
    assert_round_trip(value)


@ROUND_TRIP
@given(dimensions(expressions))
def test_expression_round_trip(value):
    assert_round_trip(value)


# ---------------------------------------------------------------------------
# malformed documents
# ---------------------------------------------------------------------------


def mv(*terms, m=M):
    return {"m": m, "terms": [{"blades": blades, "coef": coef} for blades, coef in terms]}


def poly(*terms, m=M, vars=(2, 3, 4)):
    entries = [{"monomial": monomial, "coef": coef} for monomial, coef in terms]
    return {"m": m, "vars": list(vars), "terms": entries}


def expr(*terms, m=M):
    return {"m": m, "terms": [{"symbol": sym, "coef": coef} for sym, coef in terms]}


def sym(kind="powexp", **fields):
    return {"bar": False, "kind": kind, "power": 0, "rate": "1/1", **fields}


E2 = mv(([2], "1"))
X2 = poly(({"2": 1}, E2))

CONSTRUCT = ["construct", "--family", "exp"]
VERIFY = ["verify", "--op", "cr"]
DSOLVE = ["dsolve", "--coeffs", "1,-1"]
FILE_FLAG = {"construct": "--seed-file", "verify": "--in", "dsolve": "--spec-file"}
ROOTS_NOT_A_LIST = "dsolve spec field 'roots' must be a JSON list"

# (id, subcommand, document, the one stderr line)
MALFORMED = [
    (
        "boolean-m",
        VERIFY,
        {"m": True, "terms": []},
        "steering expression field 'm' must be an integer in 2..16, got True",
    ),
    (
        "m-out-of-range",
        CONSTRUCT,
        poly(m=17),
        "polynomial field 'm' must be an integer in 2..16, got 17",
    ),
    (
        "coefficient-m-boolean",
        CONSTRUCT,
        poly(({"2": 1}, {"m": True, "terms": []})),
        "multivector field 'm' must be an integer in 2..16, got True",
    ),
    (
        "float-exponent",
        CONSTRUCT,
        poly(({"2": 1.5}, E2)),
        "monomial (0, 0, 1.5, 0, 0) must give 5 nonnegative exponents",
    ),
    (
        "negative-exponent",
        VERIFY,
        poly(({"3": -1}, E2)),
        "monomial (0, 0, 0, -1, 0) must give 5 nonnegative exponents",
    ),
    (
        "variable-outside-vars",
        CONSTRUCT,
        poly(({"0": 1}, E2)),
        "monomial uses x0 outside the declared variable scope",
    ),
    ("vars-out-of-range", CONSTRUCT, poly(vars=(2, 7)), "var_scope must be a subset of x0..x4"),
    (
        "coefficient-with-another-m",
        CONSTRUCT,
        poly(({"2": 1}, mv(([2], "1"), m=5))),
        "coefficient dimension mismatch: m=5 vs m=4",
    ),
    (
        "unsorted-blade",
        CONSTRUCT,
        poly(({"2": 1}, mv(([3, 2], "1")))),
        "blade indices must be strictly increasing",
    ),
    (
        "blade-index-out-of-range",
        VERIFY,
        poly(({"2": 1}, mv(([5], "1")))),
        "generator index must be an integer in 1..4, got 5",
    ),
    (
        "blades-string",
        CONSTRUCT,
        poly(({"2": 1}, {"m": M, "terms": [{"blades": "12", "coef": "1"}]})),
        "multivector term field 'blades' must be a JSON list",
    ),
    (
        "zero-blade-coefficient",
        CONSTRUCT,
        poly(({"2": 1}, mv(([2], "0/3")))),
        "blade [2] has a zero coefficient",
    ),
    (
        "repeated-blade",
        CONSTRUCT,
        poly(({"2": 1}, mv(([2], "1"), ([2], "-1")))),
        "blade [2] is listed more than once",
    ),
    (
        "fraction-as-float",
        CONSTRUCT,
        poly(({"2": 1}, mv(([2], 0.5)))),
        "fractions must be encoded as strings, got float",
    ),
    (
        "non-canonical-monomial-key",
        CONSTRUCT,
        poly(({"02": 1}, E2)),
        "monomial key '02' must be written '2'",
    ),
    (
        "monomial-index-out-of-range",
        VERIFY,
        poly(({"7": 1}, E2)),
        "variable index must be an integer in 0..4, got 7",
    ),
    (
        "monomial-not-an-object",
        CONSTRUCT,
        poly(([2], E2)),
        "polynomial term field 'monomial' must be a JSON object",
    ),
    (
        "missing-field",
        CONSTRUCT,
        {"m": M, "terms": [{"monomial": {"2": 1}}]},
        "polynomial term: missing field 'coef'",
    ),
    ("unknown-symbol-kind", VERIFY, expr((sym("tan"), X2)), "unknown symbol kind 'tan'"),
    ("symbol-kind-list", VERIFY, expr((sym(["cos"]), X2)), "unknown symbol kind ['cos']"),
    ("symbol-kind-object", VERIFY, expr((sym({"k": 1}), X2)), "unknown symbol kind {'k': 1}"),
    (
        "trig-symbol-with-power",
        VERIFY,
        expr((sym("cos", power=1), X2)),
        "trigonometric symbols carry no power",
    ),
    (
        "trig-symbol-zero-rate",
        VERIFY,
        expr((sym("sin", rate="0/1"), X2)),
        "trigonometric symbols need a positive rate",
    ),
    (
        "bar-not-boolean",
        VERIFY,
        expr((sym(bar=1), X2)),
        "symbol bar flag must be true or false",
    ),
    ("rate-1/0", VERIFY, expr((sym(rate="1/0"), X2)), "symbol rate '1/0' has a zero denominator"),
    (
        "blade-coefficient-3/0",
        CONSTRUCT,
        poly(({"2": 1}, mv(([2], "3/0")))),
        "blade coefficient '3/0' has a zero denominator",
    ),
    (
        "dsolve-root-1/0",
        DSOLVE,
        {"m": M, "roots": [{"root": "1/0"}]},
        "dsolve root '1/0' has a zero denominator",
    ),
    (
        "expression-coefficient-outside-y",
        VERIFY,
        expr((sym(), poly(({"1": 1}, E2), vars=range(M + 1)))),
        "monomial uses x1 outside the declared variable scope",
    ),
    (
        "expression-coefficient-with-another-m",
        VERIFY,
        expr((sym(), poly(({"2": 1}, mv(([2], "1"), m=5)), m=5, vars=(2, 3, 4, 5)))),
        "coefficient dimension mismatch: m=5 vs m=4",
    ),
    (
        "multivector-term-not-an-object",
        CONSTRUCT,
        poly(({"2": 1}, {"m": M, "terms": [1]})),
        "multivector term must be a JSON object",
    ),
    (
        "polynomial-term-not-an-object",
        CONSTRUCT,
        {"m": M, "vars": [2, 3, 4], "terms": [7]},
        "polynomial term must be a JSON object",
    ),
    (
        "expression-term-not-an-object",
        VERIFY,
        {"m": M, "terms": [3]},
        "steering expression term must be a JSON object",
    ),
    (
        "symbol-list",
        VERIFY,
        expr(([], X2)),
        "steering symbol document must be a JSON object",
    ),
    (
        "symbol-string",
        VERIFY,
        expr(("cos", X2)),
        "steering symbol document must be a JSON object",
    ),
    ("dsolve-roots-string", DSOLVE, {"m": M, "roots": "ab"}, ROOTS_NOT_A_LIST),
    ("dsolve-root-number", DSOLVE, {"m": M, "roots": [1]}, "dsolve spec root must be a JSON object"),
    ("dsolve-roots-object", DSOLVE, {"m": M, "roots": {"a": 1}}, ROOTS_NOT_A_LIST),
    (
        "expression-terms-number",
        VERIFY,
        {"m": M, "terms": 5},
        "steering expression field 'terms' must be a JSON list",
    ),
    (
        "expression-terms-empty-object",
        VERIFY,
        {"m": M, "terms": {}},
        "steering expression field 'terms' must be a JSON list",
    ),
    (
        "expression-terms-object",
        VERIFY,
        {"m": M, "terms": {"x": 1}},
        "steering expression field 'terms' must be a JSON list",
    ),
    (
        "polynomial-terms-number",
        CONSTRUCT,
        {"m": M, "vars": [2, 3, 4], "terms": 5},
        "polynomial field 'terms' must be a JSON list",
    ),
    (
        "polynomial-vars-number",
        CONSTRUCT,
        {"m": M, "vars": 5, "terms": []},
        "polynomial field 'vars' must be a JSON list",
    ),
    (
        "multivector-terms-object",
        CONSTRUCT,
        poly(({"2": 1}, {"m": M, "terms": {}})),
        "multivector field 'terms' must be a JSON list",
    ),
    (
        "dsolve-monogenic-seeds-number",
        DSOLVE,
        {"m": M, "roots": [{"root": "1", "monogenic_seeds": 5}]},
        "dsolve spec root field 'monogenic_seeds' must be a JSON list",
    ),
    (
        "power-seeds-number",
        ["construct", "--family", "power"],
        {"seeds": 5},
        "power seed document field 'seeds' must be a JSON list",
    ),
    (
        "trig-document-list",
        ["construct", "--family", "trig"],
        [1],
        "trig seed document must be a JSON object",
    ),
    (
        "power-document-list",
        ["construct", "--family", "power"],
        [X2],
        "power seed document must be a JSON object",
    ),
]


@pytest.mark.parametrize(
    "command, doc, message", [row[1:] for row in MALFORMED], ids=[row[0] for row in MALFORMED]
)
def test_malformed_document_exits_two_with_its_message(capsys, tmp_path, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([*command, FILE_FLAG[command[0]], str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")



TRIG = ["construct", "--family", "trig"]
TRIG_BOTH = ["construct", "--family", "trig", "--side", "both"]
POWER = ["construct", "--family", "power"]


def with_coef(coef):
    """A polynomial document whose one term has the multivector document ``coef``."""
    return poly(({"2": 1}, coef))


def with_terms(doc, *terms):
    return {**doc, "terms": list(terms)}


# (the object a field is missing from, subcommand, document, the missing field)
MISSING = [
    ("multivector document", CONSTRUCT, with_coef({"terms": []}), "m"),
    ("multivector term", CONSTRUCT, with_coef(with_terms(E2, {"coef": "1"})), "blades"),
    ("multivector term", CONSTRUCT, with_coef(with_terms(E2, {"blades": [2]})), "coef"),
    ("polynomial document", CONSTRUCT, {"vars": [2, 3, 4], "terms": []}, "m"),
    ("polynomial term", CONSTRUCT, with_terms(X2, {"coef": E2}), "monomial"),
    ("polynomial term", VERIFY, with_terms(X2, {"monomial": {"2": 1}}), "coef"),
    ("steering expression document", VERIFY, {"terms": []}, "m"),
    ("steering expression term", VERIFY, {"m": M, "terms": [{"coef": X2}]}, "symbol"),
    ("steering expression term", VERIFY, {"m": M, "terms": [{"symbol": sym()}]}, "coef"),
    ("steering symbol document", VERIFY, expr(({"rate": "1/1"}, X2)), "kind"),
    ("trig seed document", TRIG, {"b1": X2}, "a1"),
    ("trig seed document", TRIG, {"a1": X2}, "b1"),
    ("trig seed document", TRIG_BOTH, {"N": X2}, "M"),
    ("trig seed document", TRIG_BOTH, {"M": X2}, "N"),
    ("power seed document", POWER, {}, "seeds"),
    ("dsolve spec document", DSOLVE, {"roots": [{"root": "1", "harmonic_seed": X2}]}, "m"),
    ("dsolve spec document", DSOLVE, {"m": M}, "roots"),
    ("dsolve spec root", DSOLVE, {"m": M, "roots": [{"harmonic_seed": X2}]}, "root"),
]


@pytest.mark.parametrize(
    "what, command, doc, field", MISSING, ids=[f"{row[0]}-{row[3]}" for row in MISSING]
)
def test_missing_field_names_the_object_it_is_missing_from(
    capsys, tmp_path, what, command, doc, field
):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([*command, FILE_FLAG[command[0]], str(path)])
    captured = capsys.readouterr()
    expected = f"error: {what}: missing field {field!r}\n"
    assert (code, captured.out, captured.err) == (2, "", expected)
