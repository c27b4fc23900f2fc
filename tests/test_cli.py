import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cliffsteer.cli as cli
from cliffsteer.cli import main
from cliffsteer.polynomials import CliffordPolynomial
from cliffsteer.steering import SteeringExpression, construct_exp_left, construct_two_sided
from cliffsteer.verify import inframonogenic_residual, n_monogenic_residual
from helpers import e, x, ymono

M = 4
# a coefficient of 5001 digits, over the 4300 Python converts by default
TOO_LONG = f"fraction {'1' + '0' * 19!r}... has 5001 digits, over the limit of 4300"
# the same coefficient in a document, named by its field
TOO_LONG_COEF = f"blade coefficient {'1' + '0' * 19!r}... has 5001 digits, over the limit of 4300"


LONG = "x" * 5000


def _poly_term(doc):
    # the first term of the first coefficient of an expression document
    return doc["terms"][0]["coef"]["terms"][0]


# (id, mutation of the expression document exp(z) x2) for each refusal that shows
# a value read from the document
LONG_VALUES = [
    ("generator-count", lambda doc: doc.update(m=LONG)),
    ("blade-index", lambda doc: _poly_term(doc)["coef"]["terms"][0].update(blades=[LONG])),
    ("symbol-kind", lambda doc: doc["terms"][0]["symbol"].update(kind=LONG)),
    ("monomial-key", lambda doc: _poly_term(doc).update(monomial={LONG: 1})),
    ("non-canonical-key", lambda doc: _poly_term(doc).update(monomial={"0" * 4000 + "2": 1})),
    ("variable-index", lambda doc: _poly_term(doc).update(monomial={"9" * 4000: 1})),
    ("exponent", lambda doc: _poly_term(doc).update(monomial={"2": LONG})),
]


def run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def seed_doc():
    return json.dumps(x(M, 2, yonly=True).to_obj())


class TestCoeffs:
    def test_table_matches_closed_fractions(self, capsys):
        code, out, _ = run(capsys, ["coeffs", "--n", "5"])
        assert code == 0
        obj = json.loads(out)
        assert obj == {"n": 5, "c": ["-1/2", "1/8", "-1/16", "5/128", "-7/256"]}

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, _ = run(capsys, ["coeffs", "--n", "2", "--out", str(target)])
        assert code == 0 and not out
        assert json.loads(target.read_text())["c"] == ["-1/2", "1/8"]


class TestConstructVerifyPipeline:
    def test_exp_pipeline_exit_zero(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["construct", "--family", "exp", "--n", "1", "--seed", seed_doc()])
        assert code == 0
        expr = SteeringExpression.from_obj(json.loads(out))
        assert not expr.cr_left()
        code, out, _ = run(
            capsys, ["verify", "--op", "cr-left", "--n", "1"], stdin_text=out, monkeypatch=monkeypatch
        )
        assert code == 0
        report = json.loads(out)
        assert report["is_zero"] is True

    def test_trig_construct(self, capsys):
        doc = json.dumps(
            {
                "a1": x(M, 2, yonly=True).to_obj(),
                "b1": CliffordPolynomial.zero(M, range(2, M + 1)).to_obj(),
            }
        )
        code, out, _ = run(capsys, ["construct", "--family", "trig", "--n", "2", "--seed", doc])
        assert code == 0
        expr = SteeringExpression.from_obj(json.loads(out))
        assert not expr.cr_left().cr_left()

    def test_power_construct(self, capsys):
        doc = json.dumps({"seeds": [x(M, 2, yonly=True).to_obj(), x(M, 3, yonly=True).to_obj()]})
        code, out, _ = run(capsys, ["construct", "--family", "power", "--n", "1", "--seed", doc])
        assert code == 0
        assert not SteeringExpression.from_obj(json.loads(out)).cr_left()

    def test_two_sided_construct(self, capsys, monkeypatch):
        seed = (x(M, 2, yonly=True) + ymono(M, {3: 1}, e(M, 2, 3))) * Fraction(1, 2)
        code, out, _ = run(
            capsys,
            ["construct", "--family", "exp", "--side", "both", "--seed", json.dumps(seed.to_obj())],
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            ["verify", "--op", "cr", "--side", "both", "--n", "1"],
            stdin_text=out,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        left, right = json.loads(out)
        assert left["is_zero"] and right["is_zero"]

    def test_right_side_construction_rejected(self, capsys):
        # the parser offers --side left and both only
        with pytest.raises(SystemExit) as info:
            main(["construct", "--family", "exp", "--side", "right", "--seed", seed_doc()])
        assert info.value.code == 2
        assert "argument --side: invalid choice: 'right'" in capsys.readouterr().err

    def test_bad_seed_precondition_named(self, capsys):
        bad = json.dumps(ymono(M, {2: 2}).to_obj())  # not harmonic
        code, _, err = run(capsys, ["construct", "--family", "exp", "--n", "1", "--seed", bad])
        assert code == 2
        assert "laplacian" in err


class TestVerifyOperators:
    def test_order_far_past_zero_exit_zero(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["verify", "--op", "cr", "--n", "1000000000"],
            stdin_text=seed_doc(),
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["operator"] == "cr_left^1000000000"

    def test_nonzero_residual_exit_one(self, capsys, monkeypatch):
        doc = json.dumps(
            {
                "m": M,
                "terms": [
                    {
                        "symbol": {"bar": True, "kind": "powexp", "power": 0, "rate": "1/1"},
                        "coef": CliffordPolynomial.constant(M, 1, range(2, M + 1)).to_obj(),
                    }
                ],
            }
        )
        code, out, _ = run(
            capsys,
            ["verify", "--op", "lame", "--mu", "1", "--lambda", "1"],
            stdin_text=doc,
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert json.loads(out)["is_zero"] is False

    def test_alphabeta_and_infrapoly(self, capsys, monkeypatch):
        seed = (x(M, 2, yonly=True) + ymono(M, {3: 1}, e(M, 2, 3))) * Fraction(1, 2)
        code, constructed, _ = run(
            capsys,
            ["construct", "--family", "exp", "--side", "both", "--seed", json.dumps(seed.to_obj())],
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            ["verify", "--op", "alphabeta", "--alpha", "2", "--beta", "-3"],
            stdin_text=constructed,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            ["verify", "--op", "infrapoly", "--p", "2", "--q", "1"],
            stdin_text=constructed,
            monkeypatch=monkeypatch,
        )
        assert code == 0

    def test_deq_on_polynomial_document(self, capsys, monkeypatch):
        z = x(M, 0) + x(M, 1) * e(M, 1)
        code, out, _ = run(
            capsys,
            ["verify", "--op", "deq", "--coeffs", "1,0,0"],
            stdin_text=json.dumps(z.to_obj()),
            monkeypatch=monkeypatch,
        )
        assert code == 0

    def test_malformed_json_exit_two(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, ["verify", "--op", "infra"], stdin_text="{not json", monkeypatch=monkeypatch
        )
        assert code == 2
        assert "error" in err

    def test_zero_denominator_argument_exit_two(self, capsys):
        for argv in (
            ["verify", "--op", "deq", "--coeffs", "1/0,1"],
            ["verify", "--op", "lame", "--mu", "1/0", "--lambda", "1"],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert "not an exact rational: '1/0'" in err and "Traceback" not in err

    def test_cr_right_reads_the_right_operator(self, capsys, tmp_path):
        # a left-only exp solution is not right monogenic; a two-sided one is
        seed = (x(M, 2, yonly=True) + ymono(M, {3: 1}, e(M, 2, 3))) * Fraction(1, 2)
        for expr, code in ((construct_exp_left(x(M, 2, yonly=True), 1), 1),
                           (construct_two_sided("exp", seed), 0)):
            path = tmp_path / "expr.json"
            path.write_text(json.dumps(expr.to_obj()))
            got, out, err = run(capsys, ["verify", "--op", "cr-right", "--in", str(path)])
            assert (got, err) == (code, "")
            assert json.loads(out) == n_monogenic_residual(expr, 1, "right").to_obj()

    def test_infra_on_a_valid_expression(self, capsys, tmp_path):
        seed = (x(M, 2, yonly=True) + ymono(M, {3: 1}, e(M, 2, 3))) * Fraction(1, 2)
        expr = construct_two_sided("exp", seed)
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(expr.to_obj()))
        code, out, err = run(capsys, ["verify", "--op", "infra", "--in", str(path)])
        assert (code, err) == (0, "")
        assert json.loads(out) == inframonogenic_residual(expr).to_obj()
        assert json.loads(out)["is_zero"] is True

    @pytest.mark.parametrize("given", [[], ["--alpha", "2"], ["--beta", "-3"]])
    def test_alphabeta_needs_both_parameters(self, capsys, tmp_path, given):
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(construct_exp_left(x(M, 2, yonly=True), 1).to_obj()))
        code, out, err = run(capsys, ["verify", "--op", "alphabeta", "--in", str(path)] + given)
        assert (code, out) == (2, "")
        assert err == "error: --op alphabeta needs --alpha and --beta\n"

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["verify", "--op", "lame", "--mu", "1e5000", "--lambda", "1"], "1e5000"),
            (["verify", "--op", "deq", "--coeffs", "1,1e5000"], "1e5000"),
            (["dsolve", "--coeffs", "1E5000,1", "--spec-file", "spec.json"], "1E5000"),
        ],
    )
    def test_exponent_argument_refused_naming_it(self, capsys, argv, value):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        # argparse prints its usage, then the one error line
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].endswith(f"not an exact rational: {value!r}")
        assert err.endswith(errors[0] + "\n") and "Traceback" not in err

    def test_over_long_coefficient_refused_naming_the_limit(self, capsys, tmp_path):
        seed = CliffordPolynomial.constant(M, 1, range(2, M + 1)).to_obj()
        seed["terms"][0]["coef"]["terms"][0]["coef"] = "1" + "0" * 5000
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(seed))
        code, out, err = run(capsys, ["construct", "--family", "exp", "--seed-file", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {TOO_LONG_COEF}\n" and len(err) < 200

    @pytest.mark.parametrize(
        "coef, message",
        [
            ("x" * 5000, f"Invalid literal for Fraction: {'x' * 20!r}..."),
            (
                "1e" + "0" * 5000,
                f"blade coefficient {'1e' + '0' * 18!r}... uses exponent notation",
            ),
        ],
        ids=["not-a-number", "exponent"],
    )
    def test_long_refused_coefficient_shown_by_its_first_20_characters(
        self, capsys, tmp_path, coef, message
    ):
        seed = CliffordPolynomial.constant(M, 1, range(2, M + 1)).to_obj()
        seed["terms"][0]["coef"]["terms"][0]["coef"] = coef
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(seed))
        code, out, err = run(capsys, ["construct", "--family", "exp", "--seed-file", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1
        assert len(err) < 200

    @pytest.mark.parametrize(
        "mutate", [case[1] for case in LONG_VALUES], ids=[case[0] for case in LONG_VALUES]
    )
    def test_long_refused_value_shown_short(self, capsys, tmp_path, mutate):
        symbol = {"bar": False, "kind": "powexp", "power": 0, "rate": "1/1"}
        doc = {"m": M, "terms": [{"symbol": symbol, "coef": x(M, 2, yonly=True).to_obj()}]}
        mutate(doc)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["verify", "--op", "cr", "--in", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and len(err) < 120

    @pytest.mark.parametrize("kind, sign", [("cos", -1), ("sin", 1)])
    def test_trig_symbol_with_a_negative_rate_refused(self, capsys, tmp_path, kind, sign):
        # cos(2z) x2 - cos(-2z) x2 and sin(2z) x2 + sin(-2z) x2 are zero functions,
        # which one symbol per rate and sign could not show
        x2 = x(M, 2, yonly=True)
        terms = [
            {"symbol": {"bar": False, "kind": kind, "power": 0, "rate": rate}, "coef": coef}
            for rate, coef in (("2/1", x2.to_obj()), ("-2/1", (x2 * sign).to_obj()))
        ]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"m": M, "terms": terms}))
        code, out, err = run(capsys, ["verify", "--op", "cr-left", "--n", "1", "--in", str(path)])
        assert (code, out) == (2, "")
        assert err == "error: trigonometric symbols need a positive rate\n"

    @pytest.mark.parametrize("source", ["--seed", "--seed-file", "stdin"])
    def test_over_long_json_integer_refused_naming_the_limit(
        self, capsys, tmp_path, monkeypatch, source
    ):
        seed = CliffordPolynomial.constant(M, 1, range(2, M + 1)).to_obj()
        seed["terms"][0]["coef"]["terms"][0]["coef"] = "COEF"
        # a bare JSON integer, not a string: json.dumps refuses to write one this long
        text = json.dumps(seed).replace('"COEF"', "1" + "0" * 5000)
        argv = ["construct", "--family", "exp"]
        if source == "--seed":
            argv += ["--seed", text]
        elif source == "--seed-file":
            path = tmp_path / "seed.json"
            path.write_text(text)
            argv += ["--seed-file", str(path)]
        code, out, err = run(capsys, argv, text if source == "stdin" else None, monkeypatch)
        assert (code, out) == (2, "")
        limit = f"integer {'1' + '0' * 19!r}... has 5001 digits, over the limit of 4300"
        assert err == f"error: {limit}\n"

    def test_over_long_argument_refused_naming_the_limit(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--op", "lame", "--mu", "1" + "0" * 5000, "--lambda", "1"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        # argparse prints its usage, then the one error line
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].endswith(f"argument --mu: {TOO_LONG}")
        assert len(errors[0]) < 200 and err.endswith(errors[0] + "\n")

    def test_refused_argument_shown_by_its_first_20_characters(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--op", "lame", "--mu", "1e" + "0" * 40, "--lambda", "1"])
        err = capsys.readouterr().err
        assert err.endswith(f"not an exact rational: {'1e' + '0' * 18!r}...\n")

    @pytest.mark.parametrize("where", ["seed coef", "symbol rate", "dsolve root"])
    def test_exponent_in_document_refused_naming_it(self, capsys, tmp_path, where):
        name = {"seed coef": "blade coefficient"}.get(where, where)
        one = CliffordPolynomial.constant(M, 1, range(2, M + 1)).to_obj()
        path = tmp_path / "doc.json"
        if where == "seed coef":
            one["terms"][0]["coef"]["terms"][0]["coef"] = "1e5000"
            argv = ["construct", "--family", "exp", "--seed-file", str(path)]
            doc = one
        elif where == "symbol rate":
            symbol = {"bar": False, "kind": "powexp", "power": 0, "rate": "1e5000"}
            doc = {"m": M, "terms": [{"symbol": symbol, "coef": one}]}
            argv = ["verify", "--op", "cr", "--in", str(path)]
        else:
            doc = {"m": M, "roots": [{"root": "1e5000", "harmonic_seed": one}]}
            argv = ["dsolve", "--coeffs", "1,-1", "--spec-file", str(path)]
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {name} '1e5000' uses exponent notation; write it as num/den\n"

    def test_zero_denominator_in_document_exit_two(self, capsys, monkeypatch):
        doc = json.dumps(
            {
                "m": M,
                "terms": [
                    {
                        "symbol": {"bar": False, "kind": "powexp", "power": 0, "rate": "1/0"},
                        "coef": CliffordPolynomial.constant(M, 1, range(2, M + 1)).to_obj(),
                    }
                ],
            }
        )
        code, out, err = run(
            capsys, ["verify", "--op", "cr"], stdin_text=doc, monkeypatch=monkeypatch
        )
        assert code == 2 and not out
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_non_canonical_monomials_exit_two(self, capsys, monkeypatch):
        for monomial in ({"2": True}, {"2": 1, "02": 1}):
            doc = json.dumps(
                {
                    "m": M,
                    "vars": [2, 3, 4],
                    "terms": [{"monomial": monomial, "coef": e(M, 2).to_obj()}],
                }
            )
            code, out, err = run(
                capsys, ["verify", "--op", "infra"], stdin_text=doc, monkeypatch=monkeypatch
            )
            assert code == 2 and not out
            assert err.startswith("error:") and len(err.splitlines()) == 1


    def test_non_canonical_key_or_term_alone_exit_two(self, capsys, monkeypatch):
        zero = {"m": M, "terms": [{"blades": [2], "coef": "0/1"}]}
        twice = {"m": M, "terms": [{"blades": [2], "coef": "1"}, {"blades": [2], "coef": "-1"}]}
        cases = [({key: 1}, e(M, 2).to_obj()) for key in ("02", " 2", "+2")]
        cases += [({"2": 1}, zero), ({"2": 1}, twice)]
        for monomial, coef in cases:
            doc = json.dumps(
                {"m": M, "vars": [2, 3, 4], "terms": [{"monomial": monomial, "coef": coef}]}
            )
            code, out, err = run(
                capsys, ["verify", "--op", "infra"], stdin_text=doc, monkeypatch=monkeypatch
            )
            assert code == 2 and not out
            assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"m": True, "vars": [], "terms": []},
            {"m": 40, "vars": [], "terms": []},
            {"m": 100000, "terms": []},
            {"m": -3, "terms": []},
            {"m": 1, "terms": []},
            {"m": "4", "terms": []},
        ],
    )
    def test_document_m_out_of_range_exit_two(self, capsys, monkeypatch, doc):
        code, out, err = run(
            capsys, ["verify", "--op", "cr"], stdin_text=json.dumps(doc), monkeypatch=monkeypatch
        )
        assert code == 2 and not out
        kind = "polynomial" if "vars" in doc else "steering expression"
        assert err == f"error: {kind} field 'm' must be an integer in 2..16, got {doc['m']!r}\n"

    def test_monomial_not_an_object_exit_two(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        for monomial in ([1], "x", 2, None):
            term = {"monomial": monomial, "coef": e(M, 2).to_obj()}
            doc = {"m": M, "vars": [2, 3, 4], "terms": [term]}
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, ["verify", "--op", "cr", "--in", str(path)])
            assert code == 2 and not out
            assert err.startswith("error:") and len(err.splitlines()) == 1
            assert "monomial" in err and "Traceback" not in err

    def test_deeply_nested_document_exit_two(self, capsys, monkeypatch):
        deep = "[" * 100_000 + "]" * 100_000
        code, out, err = run(
            capsys, ["verify", "--op", "cr"], stdin_text=deep, monkeypatch=monkeypatch
        )
        assert code == 2 and not out
        assert err == "error: document nested too deeply\n"

    def test_missing_field_named(self, capsys, monkeypatch):
        # a multivector document read as a steering expression has no "symbol"
        doc = json.dumps({"m": M, "terms": [{"blades": [1], "coef": "1"}]})
        code, out, err = run(
            capsys, ["verify", "--op", "cr"], stdin_text=doc, monkeypatch=monkeypatch
        )
        assert code == 2 and not out
        assert err == "error: steering expression term: missing field 'symbol'\n"


class TestBasisAndAppell:
    def test_basis_size(self, capsys):
        code, out, _ = run(capsys, ["basis", "--degree", "2", "--n", "1", "--m", "4"])
        assert code == 0
        polys = json.loads(out)
        assert len(polys) == 5
        for obj in polys:
            poly = CliffordPolynomial.from_obj(obj)
            assert not poly.laplacian()

    @pytest.mark.parametrize("m", [1, 0, -3, 17])
    def test_basis_refuses_a_generator_count_outside_the_range(self, capsys, m):
        code, out, err = run(capsys, ["basis", "--degree", "2", "--m", str(m)])
        assert code == 2 and not out
        assert err == f"error: generator count must be an integer in 2..16, got {m}\n"

    def test_appell_roundtrip(self, capsys):
        code, out, _ = run(capsys, ["appell", "--k", "2", "--m", "3"])
        assert code == 0
        poly = CliffordPolynomial.from_obj(json.loads(out))
        assert not poly.cr_left()


class TestDsolve:
    def spec_file(self, tmp_path, root="1"):
        h = ymono(M, {2: 1}, e(M, 2) * 2)
        doc = {
            "m": M,
            "roots": [{"root": root, "multiplicity": 1, "harmonic_seed": h.to_obj()}],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_solution_exit_zero(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["dsolve", "--coeffs", "1,-1", "--spec-file", self.spec_file(tmp_path)]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"]["is_zero"] is True
        solution = SteeringExpression.from_obj(payload["solution"])
        assert not solution.cr_left()

    def test_non_root_exit_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["dsolve", "--coeffs", "1,-1", "--spec-file", self.spec_file(tmp_path, root="3")],
        )
        assert code == 2
        assert "not a root" in err

    @pytest.mark.parametrize("m", [True, 40, -3, "x"])
    def test_spec_m_checked(self, capsys, tmp_path, m):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"m": m, "roots": []}))
        code, out, err = run(capsys, ["dsolve", "--coeffs", "1,-1", "--spec-file", str(path)])
        assert code == 2 and not out
        assert err == f"error: dsolve spec field 'm' must be an integer in 2..16, got {m!r}\n"

    def test_boolean_multiplicity_rejected(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"m": M, "roots": [{"root": "1", "multiplicity": True}]}))
        code, out, err = run(capsys, ["dsolve", "--coeffs", "1,-1", "--spec-file", str(path)])
        assert code == 2 and not out
        assert err == "error: multiplicity must be an integer of at least 1, got True\n"


class TestRoundTrips:
    def test_emitted_documents_reparse_to_equal_values(self, capsys):
        code, out, _ = run(capsys, ["construct", "--family", "exp", "--n", "2", "--seed", json.dumps(ymono(M, {2: 3}).to_obj())])
        assert code == 0
        first = json.loads(out)
        expr = SteeringExpression.from_obj(first)
        assert expr.to_obj() == first  # canonical: serialize(parse(doc)) == doc

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, ["appell", "--k", "3", "--m", "3"])
        code2, out2, _ = run(capsys, ["appell", "--k", "3", "--m", "3"])
        assert out1 == out2



# JSON trees: string keys and strings with non-ASCII text, quotes, backslashes
# and control characters, ints up to 4300 digits of either sign, bools, None,
# and lists and dicts that may be empty or hold only empty ones
_TEXT = st.text(st.characters() | st.sampled_from('"\\\n\t\x00\x1f\x7f\u2028\u00e9'))
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**4300) + 1, 10**4300 - 1)
    | _TEXT
)
_TREES = st.recursive(
    _LEAVES, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_TEXT, kids, max_size=4)
)


class TestEmitter:
    """``cli._indented`` writes ``json.dumps(obj, indent=2)``'s bytes."""

    @given(_TREES)
    @settings(max_examples=100, deadline=None)
    def test_same_text_as_json_dumps(self, tree):
        assert cli._indented(tree) == json.dumps(tree, indent=2)

    @pytest.mark.parametrize(
        "tree",
        [1.5, float("nan"), {"a": [-0.0, {1: None, "b": ()}]}, [{2: "x"}, (True, [])]],
        ids=["float", "nan", "nested-float-and-int-key", "tuple"],
    )
    def test_other_values_written_as_json_dumps_writes_them(self, tree):
        assert cli._indented(tree) == json.dumps(tree, indent=2)

    def test_unserializable_value_refused_as_json_dumps_refuses_it(self):
        tree = {"a": [1, {"b": Fraction(1, 2)}]}
        with pytest.raises(TypeError) as ours:
            cli._indented(tree)
        with pytest.raises(TypeError) as theirs:
            json.dumps(tree, indent=2)
        assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--n", "6"],
            ["basis", "--m", "5", "--degree", "4", "--n", "2"],
            ["appell", "--k", "6", "--m", "4"],
            ["construct", "--family", "exp", "--side", "both", "--seed-file", "{seed}"],
            ["verify", "--op", "cr", "--side", "both", "--in", "{expr}"],
            ["dsolve", "--coeffs", "1,1,-2", "--spec-file", "{spec}"],
        ],
        ids=["coeffs", "basis", "appell", "construct-both", "verify-both", "dsolve"],
    )
    def test_every_subcommand_writes_json_dumps_bytes(self, capsys, tmp_path, argv):
        seed = (x(M, 2, yonly=True) + ymono(M, {3: 1}, e(M, 2, 3))) * Fraction(1, 2)
        h = ymono(M, {2: 1}, e(M, 2) * 2)
        roots = [{"root": r, "harmonic_seed": h.to_obj()} for r in ("1", "-2")]
        files = {
            "seed": seed.to_obj(),
            "expr": construct_two_sided("exp", seed).to_obj(),
            "spec": {"m": M, "roots": roots},
        }
        for name, doc in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        argv = [arg.format(**{name: tmp_path / f"{name}.json" for name in files}) for arg in argv]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestSuite:
    SMALL_ROWS = [
        ("01_coefficient_table", "c_1..c_5 match the closed fractions"),
        ("02_matrix_power_closed_form", "closed form equals brute-force powers for n=2..10"),
        ("03_exp_monogenic_examples", "12 first-order examples, all residuals zero"),
        ("04_two_sided_example", "two-sided seed (x2 + x3 e2e3)/2 passes both sides"),
        ("05_exp_polymonogenic_sweep", "19 seed/order cases, all residuals zero"),
        ("06_exp_necessity_spot_check", "19 perturbed cases, all rejected"),
        ("07_trig_polymonogenic_sweep", "38 seed/order cases, all residuals zero"),
        ("08_power_polymonogenic_sweep", "2 seed lists, all residuals zero"),
        (
            "09_eigenfunction_relation",
            "D F_r = r F_r for all sampled rates; F(0) = 1 case passes",
        ),
        ("10_d_equation_solutions", "three coefficient sets solved with zero residual"),
        ("11_appell_sequence", "kernel and derivative recursion hold for k<=6, m=2..4"),
        ("12_sandwich_and_elasticity", "sandwich, universal and mixed-order checks all zero"),
        ("13_algebra_randomized", "40 random algebra and factorization cases"),
    ]

    def test_small_battery_passes(self, capsys):
        code, out, _ = run(
            capsys, ["suite", "--max-n", "2", "--max-degree", "2", "--cases", "40"]
        )
        assert code == 0, out
        *lines, total = out.splitlines()
        assert total == "13/13 cases passed"
        # every row but its timing column, so a dropped case changes a count
        rows = [re.fullmatch(r"(\S+) +(\S+) +[0-9]+\.[0-9]+ ms  (.*)", line) for line in lines]
        assert [row.groups() for row in rows] == [
            (case_id, "pass", detail) for case_id, detail in self.SMALL_ROWS
        ]

    # (argv, refusal, the row's test id, which it has kept since its refusal text
    # read "must be at least" or "must be in")
    SETTINGS = [
        (["--perturb", "--max-n", "0"], "--max-n must be an integer of at least 1, got 0",
         "argv0---max-n must be at least 1, got 0"),
        (["--m", "3"], "--m must be an integer in 4..16, got 3",
         "argv1---m must be in 4..16, got 3"),
        (["--m", "2"], "--m must be an integer in 4..16, got 2",
         "argv2---m must be in 4..16, got 2"),
        (["--m", "17"], "--m must be an integer in 4..16, got 17",
         "argv3---m must be in 4..16, got 17"),
        (["--max-degree", "-1"], "--max-degree must be an integer of at least 0, got -1",
         "argv4---max-degree must be at least 0, got -1"),
        (["--cases", "-3"], "--cases must be an integer of at least 1, got -3",
         "argv5---cases must be at least 1, got -3"),
        (["--cases", "0"], "--cases must be an integer of at least 1, got 0",
         "argv6---cases must be at least 1, got 0"),
    ]

    @pytest.mark.parametrize(
        "argv, limit", [row[:2] for row in SETTINGS], ids=[row[2] for row in SETTINGS]
    )
    def test_settings_out_of_range_exit_two(self, capsys, argv, limit):
        code, out, err = run(capsys, ["suite", *argv])
        assert code == 2 and not out
        assert err == f"error: {limit}\n"

    def test_a_raising_criterion_is_a_failed_row(self, capsys, monkeypatch):
        from cliffsteer import suite

        def boom(args):
            raise ArithmeticError("no such case")

        criteria = [("01_passes", lambda args: (True, "fine")), ("02_raises", boom)]
        monkeypatch.setattr(suite, "CRITERIA", criteria)
        code, out, err = run(capsys, ["suite", "--max-n", "1", "--cases", "1"])
        assert (code, err) == (1, "")
        *lines, total = out.splitlines()
        rows = [re.fullmatch(r"(\S+) +(\S+) +[0-9]+\.[0-9]+ ms  (.*)", line) for line in lines]
        assert [row.groups() for row in rows] == [
            ("01_passes", "pass", "fine"),
            ("02_raises", "FAIL", "error: no such case"),
        ]
        assert total == "1/2 cases passed"

    def test_perturbation_is_caught_and_named(self, capsys):
        code, out, _ = run(
            capsys,
            ["suite", "--max-n", "2", "--max-degree", "2", "--cases", "20", "--perturb"],
        )
        assert code == 1
        assert "05_exp_polymonogenic_sweep" in out
        failing = [line for line in out.splitlines() if "FAIL" in line]
        assert failing and "05_exp_polymonogenic_sweep" in failing[0]


class TestRepeatedAndEmptyTerms:
    """A document names each monomial and symbol once, each with a nonempty
    coefficient, as ``to_obj`` writes it; the decoders refuse anything else
    rather than summing it."""

    X2 = {"2": 1}
    EMPTY = {"m": M, "terms": []}

    def poly(self, *terms):
        entries = [{"monomial": mono, "coef": coef} for mono, coef in terms]
        return {"m": M, "vars": [2, 3, 4], "terms": entries}

    def expr(self, *terms):
        return {"m": M, "terms": [{"symbol": sym, "coef": coef} for sym, coef in terms]}

    def refused(self, capsys, tmp_path, argv, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code = main([*argv, str(path)])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        return captured.err

    @pytest.mark.parametrize("second", ["-1", "2"])
    def test_monomial_listed_twice(self, capsys, tmp_path, second):
        e2 = e(M, 2).to_obj()
        doc = self.poly((self.X2, e2), (self.X2, (e(M, 2) * Fraction(second)).to_obj()))
        err = self.refused(capsys, tmp_path, ["construct", "--family", "exp", "--seed-file"], doc)
        assert err == "error: monomial (0, 0, 1, 0, 0) is listed more than once\n"

    def test_monomial_with_empty_coefficient(self, capsys, tmp_path):
        doc = self.poly(({"3": 1}, e(M, 3).to_obj()), (self.X2, self.EMPTY))
        err = self.refused(capsys, tmp_path, ["construct", "--family", "exp", "--seed-file"], doc)
        assert err == "error: monomial (0, 0, 1, 0, 0) has a zero coefficient\n"

    @pytest.mark.parametrize("scale", [-1, 2])
    def test_symbol_listed_twice_after_normalisation(self, capsys, tmp_path, scale):
        # the constant symbol with "bar": true is the constant symbol
        one = {"bar": False, "kind": "powexp", "power": 0, "rate": "0/1"}
        coef = x(M, 2, yonly=True)
        doc = self.expr((one, coef.to_obj()), ({**one, "bar": True}, (coef * scale).to_obj()))
        err = self.refused(capsys, tmp_path, ["verify", "--op", "cr", "--in"], doc)
        assert err == "error: symbol 1 is listed more than once\n"

    def test_symbol_with_empty_coefficient(self, capsys, tmp_path):
        exp = {"bar": False, "kind": "powexp", "power": 0, "rate": "1/1"}
        doc = self.expr((exp, self.poly()))
        err = self.refused(capsys, tmp_path, ["verify", "--op", "cr", "--in"], doc)
        assert err == "error: symbol exp(1/1*z) has a zero coefficient\n"


class TestParserReuse:
    """``main`` builds its parser once per process; every later call through
    that parser answers as a freshly built one would."""

    def calls(self, tmp_path):
        seed = json.dumps(x(M, 2, yonly=True).to_obj())
        expr_path = str(tmp_path / "expr.json")
        z = x(M, 0) + x(M, 1) * e(M, 1)
        z_path = tmp_path / "z.json"
        z_path.write_text(json.dumps(z.to_obj()))
        spec = tmp_path / "spec.json"
        h = ymono(M, {2: 1}, e(M, 2) * 2)
        root = {"root": "1", "harmonic_seed": h.to_obj()}
        spec.write_text(json.dumps({"m": M, "roots": [root]}))
        return [
            ["coeffs", "--n", "3"],
            ["basis", "--degree", "2", "--m", "4"],
            ["appell", "--k", "2", "--m", "3"],
            ["construct", "--family", "exp", "--m", "5", "--seed", seed],
            ["construct", "--family", "exp", "--seed", seed],
            ["construct", "--family", "exp", "--n", "2", "--seed", seed, "--out", expr_path],
            ["verify", "--op", "cr-left", "--n", "2", "--in", expr_path],
            ["verify", "--op", "deq", "--coeffs", "1,-1", "--in", str(z_path)],
            ["verify", "--op", "deq", "--in", str(z_path)],
            ["verify", "--op", "deq", "--coeffs", "1,0,0", "--in", str(z_path)],
            ["verify", "--op", "lame", "--mu", "1", "--in", expr_path],
            ["verify", "--in", expr_path],
            ["verify", "--op", "cr", "--n", "2", "--in", expr_path],
            ["nonsense"],
            ["coeffs", "--n", "2"],
            ["dsolve", "--coeffs", "1,-1", "--spec-file", str(spec)],
            ["dsolve", "--coeffs", "1/0", "--spec-file", str(spec)],
            ["suite", "--m", "3"],
            ["suite", "--max-n", "1", "--max-degree", "1", "--cases", "3"],
            ["verify", "--help"],
        ]

    def outcomes(self, capsys, argv_list):
        out = []
        for argv in argv_list:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            captured = capsys.readouterr()
            # suite rows carry their wall time
            text = re.sub(r" +[0-9]+\.[0-9]+ ms", " ms", captured.out)
            out.append((argv, code, text, captured.err))
        return out

    def test_one_parser_answers_as_fresh_ones(self, capsys, tmp_path, monkeypatch):
        argv_list = self.calls(tmp_path)
        cli._parser.cache_clear()
        reused = self.outcomes(capsys, argv_list)
        assert cli._parser.cache_info().misses == 1
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self.outcomes(capsys, argv_list)
        assert reused == fresh
        codes = [code for _, code, _, _ in reused]
        assert codes[3:5] == [2, 0]  # --m 5 does not outlive its call
        assert codes[8] == 2 and reused[8][3] == "error: --op deq needs --coeffs\n"
        assert codes[11] == ("SystemExit", 2) and codes[12] == 0
        assert codes[13] == ("SystemExit", 2) and codes[14] == 0

    def test_importing_the_cli_builds_no_parser(self):
        probe = "import cliffsteer.cli as c; print(c._parser.cache_info().currsize)"
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert done.stdout == "0\n"


def test_python_dash_m_runs_the_command_line():
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "cliffsteer", "--help"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: cliffsteer ")
