"""``polynomials.dirac`` and the chains built on it against their definitions.

The reference builds d/dx_0 f + sum_j e_j d/dx_j f (or the right-handed
version) from the public ``partial``, ``Multivector.blade`` products and
``+``, so it shares no code with the one-pass kernel or with the integer
chains that pass its numerator form from link to link.  Chains, conjugate
tails, power-family pieces and residuals are checked against the reference
applied link by link and summed with ``Fraction`` arithmetic.  Outputs are
compared as documents, which also pins the term order and the variable scope.
"""

import random
from fractions import Fraction
import pytest

from cliffsteer import polynomials
from cliffsteer.algebra import Multivector
from cliffsteer.appell import appell_poly
from cliffsteer.polynomials import (
    CliffordPolynomial,
    NumeratorForm,
    dirac,
    polyharmonic_basis,
)
from cliffsteer.steering import (
    DSolveSpec,
    RootSpec,
    SteeringExpression,
    SteeringSymbol,
    _steering_terms,
    construct_eigen,
    construct_exp_left,
    construct_power_left,
    construct_trig_left,
    dsolve,
    power_coefficient,
)
from cliffsteer.verify import (
    alpha_beta_residual,
    d_equation_residual,
    inframonogenic_residual,
    infrapoly_residual,
    lame_navier_residual,
    n_monogenic_residual,
)

DENOMINATORS = (1, 2, 3, 7)
RATES = (Fraction(1), Fraction(-3, 2), Fraction(1, 3), Fraction(2))
CHAIN_RATES = (Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(3, 2), Fraction(-3, 2))
# c_1..c_4 of the conjugate tails, written out rather than taken from the package
C = (Fraction(-1, 2), Fraction(1, 8), Fraction(-1, 16), Fraction(5, 128))


def reference(f, side, sign=1, y_only=False):
    total = f * 0 if y_only else f.partial(0)
    for j in range(2 if y_only else 1, f.m + 1):
        ej = Multivector.blade(f.m, (j,), sign)
        d = f.partial(j)
        total = total + (ej * d if side == "left" else d * ej)
    return total


def coefficient(rng, m):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mask = rng.randrange(1 << m)
        q = Fraction(rng.choice((-5, -3, -1, 1, 2, 4)), rng.choice(DENOMINATORS))
        terms[mask] = terms.get(mask, 0) + q
    return Multivector(m, terms)


def polynomial(rng, m, variables, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * (m + 1)
        for v in variables:
            exps[v] = rng.randint(0, 3)
        terms[tuple(exps)] = coefficient(rng, m)
    return CliffordPolynomial(m, terms, var_scope=variables)


def symbol(rng, rates=RATES):
    rate = rng.choice(rates)
    bar = rng.random() < 0.5
    kind = rng.randrange(3)
    if kind == 0:
        return SteeringSymbol.power_exp(rng.randint(0, 3), rng.choice((0, rate)), bar)
    # a trig symbol takes a positive rate: cos(-rz) = cos(rz), sin(-rz) = -sin(rz)
    if kind == 1:
        return SteeringSymbol.cosine(abs(rate), bar)
    return SteeringSymbol.sine(abs(rate), bar)


def expression(rng, m, rates=RATES):
    terms = [(symbol(rng, rates), polynomial(rng, m, range(2, m + 1), 3)) for _ in range(4)]
    return SteeringExpression(m, terms)


def cancelling_polynomial(m):
    # (x2 - x0 e2)/7 is left and right monogenic: its d/dx_0 and e_2 d/dx_2
    # contributions cancel for sign 1
    return CliffordPolynomial(
        m,
        {
            tuple(1 if i == 2 else 0 for i in range(m + 1)): Fraction(1, 7),
            tuple(1 if i == 0 else 0 for i in range(m + 1)): Multivector.blade(
                m, (2,), Fraction(-1, 7)
            ),
        },
    )


def cancelling_expression(m):
    # exp(r z) times a scalar: r exp(r z) + e_1 (r e_1 exp(r z)) = 0 on both sides
    sym = SteeringSymbol.power_exp(0, Fraction(-3, 2))
    return SteeringExpression(m, [(sym, CliffordPolynomial.constant(m, Fraction(2, 3)))])


def polynomial_inputs():
    rng = random.Random(20261018)
    out = [cancelling_polynomial(3), cancelling_polynomial(5)]
    for m in (3, 4, 5):
        out += [polynomial(rng, m, range(m + 1)) for _ in range(6)]
        out += [polynomial(rng, m, range(2, m + 1)) for _ in range(3)]
    return out


def expression_inputs():
    rng = random.Random(1018)
    out = [cancelling_expression(3), cancelling_expression(4)]
    for m in (3, 4, 5):
        out += [expression(rng, m) for _ in range(8)]
    return out


def check(out, expected, f):
    assert out.to_obj() == expected.to_obj()
    if isinstance(f, CliffordPolynomial):
        assert out.var_scope == f.var_scope
    else:
        for _, poly in out.items():
            assert poly.var_scope == frozenset(range(2, f.m + 1))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("y_only", [False, True])
def test_polynomials_match_definition(side, sign, y_only):
    for f in polynomial_inputs():
        check(dirac(f, side, sign, y_only), reference(f, side, sign, y_only), f)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("y_only", [False, True])
def test_expressions_match_definition(side, sign, y_only):
    for f in expression_inputs():
        check(dirac(f, side, sign, y_only), reference(f, side, sign, y_only), f)


def test_methods_match_definition():
    half = Fraction(1, 2)
    for f in polynomial_inputs() + expression_inputs():
        check(f.cr_left(), reference(f, "left"), f)
        check(f.cr_right(), reference(f, "right"), f)
        check(f.hypercomplex_d(), reference(f, "left", -1) * half, f)
        if isinstance(f, CliffordPolynomial) and f.var_scope == frozenset(range(2, f.m + 1)):
            check(f.dirac_y("left"), reference(f, "left", 1, True), f)
            check(f.dirac_y("right"), reference(f, "right", 1, True), f)


def test_inputs_cover_the_cases():
    polys = polynomial_inputs()
    exprs = expression_inputs()
    dens = {
        q.denominator
        for f in polys
        for _, mv in f.items()
        for _, q in mv.items()
    }
    assert {2, 3, 7} <= dens
    symbols = {sym for f in exprs for sym in f.symbols()}
    assert any(s.kind == "powexp" and s.power for s in symbols)
    assert {s.kind for s in symbols} == {"powexp", "cos", "sin"}
    assert any(s.bar for s in symbols)
    assert {Fraction(-3, 2), Fraction(1, 3)} <= {s.rate for s in symbols}
    assert not cancelling_polynomial(4).cr_left() and not cancelling_polynomial(4).cr_right()
    assert not cancelling_expression(4).cr_left() and not cancelling_expression(4).cr_right()
    assert cancelling_expression(4).hypercomplex_d()


# -- chains -------------------------------------------------------------------


def chain_reference(f, k, side, sign=1, y_only=False, scale=Fraction(1)):
    for _ in range(k):
        f = reference(f, side, sign, y_only) * scale
    return f


def laplacian_chain(seed, order):
    # the forms seed .. laplacian^(order-1) seed, the chain _steering_terms takes
    chain = [NumeratorForm(seed)]
    for _ in range(order - 1):
        chain.append(chain[-1].laplacian())
    return chain


def chain_inputs():
    rng = random.Random(1)
    polys = [polynomial(rng, m, range(m + 1), 3) for m in (3, 4) for _ in range(2)]
    ypolys = [polynomial(rng, m, range(2, m + 1), 3) for m in (3, 4) for _ in range(2)]
    exprs = [expression(rng, m, CHAIN_RATES) for m in (3, 4) for _ in range(2)]
    rates = {sym.rate for f in exprs for sym in f.symbols()}
    assert {Fraction(-2), Fraction(1, 2), Fraction(3, 2), Fraction(-3, 2)} <= rates
    assert {sym.kind for f in exprs for sym in f.symbols()} == {"powexp", "cos", "sin"}
    dens = {q.denominator for f in polys + ypolys for _, mv in f.items() for _, q in mv.items()}
    assert {2, 3, 7} <= dens
    return polys, ypolys, exprs


def harmonic_seed(rng, m):
    # a y-harmonic polynomial with coefficient denominators 2, 3 and 7
    basis = polyharmonic_basis(3, 1, m)
    return sum((b * coefficient(rng, m) for b in rng.sample(basis, 3)), basis[0] * 0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("sign", [1, -1])
def test_chains_match_repeated_definition(k, side, sign):
    polys, ypolys, exprs = chain_inputs()
    half = Fraction(1, 2)
    for f in polys + exprs:
        expected = chain_reference(f, k, side, sign)
        check(NumeratorForm(f).dirac(side, sign, times=k).build(), expected, f)
        # the 1/2 of D weights the unscaled chain, as hypercomplex_d and the D-equation do
        expected = chain_reference(f, k, side, sign, scale=half)
        chain = NumeratorForm(f).dirac(side, sign, times=k)
        check(NumeratorForm.combine(f, [(chain, half**k)]).build(), expected, f)
    for f in ypolys:
        expected = chain_reference(f, k, side, sign, y_only=True)
        check(NumeratorForm(f).dirac(side, sign, y_only=True, times=k).build(), expected, f)
    for f in polys + exprs:
        if sign == 1:
            check(n_monogenic_residual(f, k, side).residual, chain_reference(f, k, side), f)
            p, q = (k, 4 - k) if side == "left" else (4 - k, k)
            expected = chain_reference(chain_reference(f, p, "left"), q, "right")
            check(infrapoly_residual(f, p, q).residual, expected, f)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("sign", [1, -1])
def test_tail_matches_weighted_definition(order, sign):
    # sign 1: exp(r z) A gets exp(r zb) sum_k r^(1-2k) c_k dirac^(2k-1) A; sign -1:
    # cos(r z) A gets sin(r zb) and sin(r z) A gets cos(r zb), with weights
    # -(-1)^k c_k / r^(2k-1) and (-1)^k c_k / r^(2k-1)
    rng = random.Random(order * 10 + sign)
    for m, rate in zip((3, 4, 4, 5, 5), CHAIN_RATES):
        seed = polynomial(rng, m, range(2, m + 1), 4)
        if sign == 1:
            exp = SteeringSymbol.power_exp(0, rate)
            rows = [(exp, exp.conjugate(), lambda k: 1)]
        else:
            rate = abs(rate)
            cos, sin = SteeringSymbol.cosine(rate), SteeringSymbol.sine(rate)
            rows = [(cos, sin.conjugate(), lambda k: -(-1) ** k),
                    (sin, cos.conjugate(), lambda k: (-1) ** k)]
        for sym, target, weight in rows:
            tail = seed * 0
            for k in range(1, order + 1):
                power = chain_reference(seed, 2 * k - 1, "left", y_only=True)
                tail = tail + power * (weight(k) * C[k - 1] / rate ** (2 * k - 1))
            expected = SteeringExpression(m, [(sym, seed), (target, tail)])
            got = SteeringExpression(m, _steering_terms([(sym, laplacian_chain(seed, order))]))
            check(got, expected, expected)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_power_terms_match_weighted_definition(order):
    rng = random.Random(order)
    for m in (3, 4, 5):
        seeds = [polynomial(rng, m, range(2, m + 1), 3) for _ in range(3)]
        pairs = [(SteeringSymbol.power_exp(i), a) for i, a in enumerate(seeds)]
        expected = SteeringExpression(m, pairs)
        for i, a in enumerate(seeds):
            for j in range(1, order + 1):
                k = i + 2 * j - 1
                power = chain_reference(a, 2 * j - 1, "left", y_only=True)
                piece = power * power_coefficient(j, k)
                zbar_k = SteeringSymbol.power_exp(k, bar=True)
                expected = expected + SteeringExpression(m, [(zbar_k, piece)])
        chains = [(sym, laplacian_chain(a, order)) for sym, a in pairs]
        got = SteeringExpression(m, _steering_terms(chains))
        check(got, expected, expected)


def test_nonzero_d_equation_matches_definition():
    rng = random.Random(7)
    inputs = [construct_eigen(r, harmonic_seed(rng, 4)) for r in CHAIN_RATES[1:]]
    inputs += [appell_poly(k, 3) * coefficient(rng, 3) for k in (2, 3)]
    half = Fraction(1, 2)
    for f in inputs:
        for coeffs in ([1, -half, Fraction(3, 7)], [Fraction(2, 3), 0, 1, Fraction(-5, 2)]):
            powers = [f]
            for _ in range(len(coeffs) - 1):
                powers.append(reference(powers[-1], "left", -1) * half)
            expected = f * 0
            for power, a in zip(reversed(powers), coeffs):
                expected = expected + power * Fraction(a)
            report = d_equation_residual(f, coeffs)
            assert not report.is_zero
            check(report.residual, expected, f)


def test_combined_residuals_match_definition():
    polys, _, exprs = chain_inputs()
    mu, lam, alpha, beta = Fraction(3, 2), Fraction(-1, 3), Fraction(2, 7), Fraction(-5, 4)
    for f in polys + exprs:
        once = reference(f, "left")
        sandwich, second = reference(once, "right"), reference(once, "left")
        check(inframonogenic_residual(f).residual, sandwich, f)
        expected = sandwich * ((mu + lam) / 2) + second * ((3 * mu + lam) / 2)
        check(lame_navier_residual(f, mu, lam).residual, expected, f)
        expected = reference(f, "right") * alpha + once * beta
        check(alpha_beta_residual(f, alpha, beta).residual, expected, f)


# -- single symbols and pass counts ----------------------------------------------

# (symbol, scale): the function scale * symbol; sin(-3/2 z) is written -sin(3/2 z),
# since a trig symbol takes a positive rate
SINGLE_SYMBOLS = [
    (SteeringSymbol.power_exp(0, Fraction(-3, 2)), 1),
    (SteeringSymbol.power_exp(2), 1),
    (SteeringSymbol.power_exp(1, Fraction(1, 3)), 1),
    (SteeringSymbol.cosine(2), 1),
    (SteeringSymbol.sine(Fraction(3, 2)), -1),
]
SINGLE_IDS = [str(sym) for sym, _ in SINGLE_SYMBOLS[:-1]] + ["sin(-3/2*z)"]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("bar", [False, True], ids=["z", "zbar"])
@pytest.mark.parametrize("sym, scale", SINGLE_SYMBOLS, ids=SINGLE_IDS)
def test_single_symbol_matches_definition(sym, scale, bar, sign, side):
    # on the left, d/dx_0 + e_1 d/dx_1 reaches a symbol as one action, so each
    # symbol kind and bar is checked alone, where no other term can hide it
    if bar:
        sym = sym.conjugate()
    rng = random.Random(str(sym))
    for m in (3, 4):
        a = polynomial(rng, m, range(2, m + 1), 3) * scale
        f = SteeringExpression(m, [(sym, a)])
        check(NumeratorForm(f).dirac(side, sign).build(), reference(f, side, sign), f)
        if side == "left" and sign == 1 and not bar:
            # 2 d/dz-bar kills phi(z): only phi(z-bar) dirac_y A is left
            expected = SteeringExpression(m, [(sym.conjugate(), reference(a, "left", 1, True))])
            check(NumeratorForm(f).dirac(side, sign).build(), expected, f)


def count_dirac_calls(monkeypatch, build):
    calls = []
    original = NumeratorForm.dirac

    def counted(self, side, sign=1, y_only=False, times=1):
        calls.append(times)
        return original(self, side, sign, y_only, times)

    monkeypatch.setattr(NumeratorForm, "dirac", counted)
    build()
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_a_construction_makes_one_dirac_pass_per_target(monkeypatch, order):
    # dirac_y^(2k-1) = (-1)^(k-1) dirac_y laplacian_y^(k-1): the tails of every
    # order share one pass per barred target symbol
    m = 4
    a, b, c = polyharmonic_basis(2 * order - 1, order, m)[:3]
    assert count_dirac_calls(monkeypatch, lambda: construct_exp_left(a, order)) == [1]
    assert count_dirac_calls(monkeypatch, lambda: construct_trig_left(a, b, order)) == [1, 1]
    assert count_dirac_calls(monkeypatch, lambda: construct_trig_left(a, a * 0, order)) == [1]
    # a zero seed has a zero tail, so only the nonzero seeds' targets get a pass
    seeds = [a, a * 0, b, c]
    targets = {i + 2 * k - 1 for i, s in enumerate(seeds) if s for k in range(1, order + 1)}
    calls = count_dirac_calls(monkeypatch, lambda: construct_power_left(seeds, order))
    assert calls == [1] * len(targets)


def test_zero_seeds_make_no_dirac_pass(monkeypatch):
    m = 4
    zero = polyharmonic_basis(1, 1, m)[0] * 0
    for build in (lambda: construct_exp_left(zero, 3),
                  lambda: construct_power_left([zero, zero], 2)):
        out = []
        assert count_dirac_calls(monkeypatch, lambda: out.append(build())) == []
        assert out == [SteeringExpression(m)]


def test_a_left_seed_gets_one_laplacian_chain(monkeypatch):
    # the chain the precondition builds, A .. laplacian^(n-1) A, is the one the
    # conjugate side is built from: one first read of the seed and n links
    m = 4
    a = polyharmonic_basis(5, 3, m)[0]
    h = polyharmonic_basis(2, 1, m)[0]
    spec = DSolveSpec(m, [1, -1], [RootSpec(1, harmonic_seed=h)])
    init, laplacian = NumeratorForm.__init__, NumeratorForm.laplacian

    def counted(build):
        reads, links = [], []

        def counted_init(self, f, terms=None, den=1):
            if terms is None:
                reads.append(f)
            init(self, f, terms, den)

        def counted_laplacian(self, *args):
            links.append(self)
            return laplacian(self, *args)

        monkeypatch.setattr(NumeratorForm, "__init__", counted_init)
        monkeypatch.setattr(NumeratorForm, "laplacian", counted_laplacian)
        out = build()
        monkeypatch.undo()
        return out, len(links), len(reads)

    out, links, reads = counted(lambda: construct_exp_left(a, 3))
    assert (links, reads) == (3, 1)
    assert n_monogenic_residual(out, 3, "left").is_zero
    assert counted(lambda: construct_exp_left(a * 0, 3))[1:] == (0, 0)
    out, links, reads = counted(lambda: dsolve(spec))
    assert (links, reads) == (1, 1)
    assert d_equation_residual(out, [1, -1]).is_zero


def test_a_fresh_form_holds_integers_over_one_denominator():
    # the first link reads f's Fractions once, so every form has one format: an
    # int den and int numerators, which build back into f
    fractional = [cancelling_polynomial(4), cancelling_expression(4)]
    assert all(NumeratorForm(f).den > 1 for f in fractional)
    for f in fractional + polynomial_inputs() + expression_inputs():
        form = NumeratorForm(f)
        assert type(form.den) is int
        blades = [b for monos in form.terms.values() for b in monos.values()]
        numerators = [q for b in blades for q in b.values()]
        assert numerators and all(type(q) is int for q in numerators)
        check(form.build(), f, f)


# -- built values ----------------------------------------------------------------


def random_numerators(rng, m, scope):
    # monomial -> blade -> numerator, with zero numerators, zero monomials,
    # negative numerators and numerators sharing a factor with the denominator
    out = {}
    for _ in range(rng.randint(0, 4)):
        exps = tuple(rng.randint(0, 2) if i in scope else 0 for i in range(m + 1))
        out[exps] = {
            rng.randrange(1 << m): rng.choice((0, 0, 1, -1, 2, -3, 4, 6, -12))
            for _ in range(rng.randint(1, 3))
        }
    return out


def from_fractions(numerators, den, m, scope):
    terms = [
        (exps, Multivector(m, {mask: Fraction(v, den) for mask, v in blades.items()}))
        for exps, blades in numerators.items()
    ]
    return CliffordPolynomial(m, terms, scope)


def count_fractions(monkeypatch):
    # every Fraction the polynomials module makes, as its arguments
    made = []
    real = polynomials.Fraction

    def counted(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(polynomials, "Fraction", counted)
    return made


def read_back(value):
    # symbol -> monomial -> blade -> rational of a fresh form, zeros left out
    form = NumeratorForm(value)
    return {
        sym: {
            exps: {mask: Fraction(v, form.den) for mask, v in blades.items() if v}
            for exps, blades in monos.items()
            if any(blades.values())
        }
        for sym, monos in form.terms.items()
    }


def rationals(value):
    own = [(None, value)] if isinstance(value, CliffordPolynomial) else value.items()
    return {sym: {exps: dict(mv.items()) for exps, mv in poly.items()} for sym, poly in own}


def coefficients(value):
    return [value] if isinstance(value, CliffordPolynomial) else [p for _, p in value.items()]


def test_a_built_value_reads_like_one_made_from_its_fractions(monkeypatch):
    # the same ==, to_obj(), str and len as the value made from the same Fractions;
    # len, bool and a fresh form make no Fraction, and the form reads the same rationals
    rng = random.Random(2210)
    cases = []
    for m in (3, 4):
        y = range(2, m + 1)
        for den in (1, 2, 6, 12):
            for scope in (range(m + 1), y):
                nums = random_numerators(rng, m, scope)
                f = CliffordPolynomial.zero(m, scope)
                cases.append((f, {None: nums}, den, from_fractions(nums, den, m, scope)))
            terms = {symbol(rng): random_numerators(rng, m, y) for _ in range(3)}
            expected = SteeringExpression(
                m, [(sym, from_fractions(nums, den, m, y)) for sym, nums in terms.items()]
            )
            cases.append((SteeringExpression(m), terms, den, expected))
    assert not all(expected for *_, expected in cases) and any(expected for *_, expected in cases)
    for f, terms, den, expected in cases:
        made = count_fractions(monkeypatch)
        built = NumeratorForm(f, terms, den).build()
        assert (len(built), bool(built)) == (len(expected), bool(expected))
        sizes = [len(p) for p in coefficients(built)]
        assert read_back(built) == rationals(expected)
        assert made == []
        monkeypatch.undo()
        assert built == expected and expected == built
        assert built.to_obj() == expected.to_obj()
        assert str(built) == str(expected)
        assert sizes == [len(p) for p in coefficients(expected)]


def test_a_zero_residual_makes_no_fraction(monkeypatch):
    # a construction builds its conjugate side, and a verify its residual, as
    # integer numerators; Fractions are made only once the terms are read
    m = 4
    seed = polyharmonic_basis(3, 2, m)[1] * Multivector.blade(m, (2,), 3)
    seed = seed + polyharmonic_basis(2, 2, m)[0] * Fraction(1, 3)
    harmonic = polyharmonic_basis(2, 1, m)[0]
    made = count_fractions(monkeypatch)
    f = construct_exp_left(seed, 2)
    eigen = construct_eigen(Fraction(-3, 2), harmonic)
    assert made == []
    report = n_monogenic_residual(f, 2, "left")
    assert report.is_zero and report.term_count == 0
    assert d_equation_residual(eigen, [1, Fraction(3, 2)]).is_zero
    assert made == []
    f.to_obj()
    assert made


def test_a_zero_monomial_gets_no_output_entries():
    # a monomial whose numerators are all zero writes nothing, not even empty entries
    m = 4
    for f in (CliffordPolynomial.zero(m), cancelling_expression(m)):
        sym = None if isinstance(f, CliffordPolynomial) else next(iter(f.symbols()))
        form = NumeratorForm(f, {sym: {(0, 1, 1, 2, 0): {0: 0, 3: 0}}}, 5)
        assert form.is_zero()
        for side in ("left", "right"):
            for out in (form.dirac(side), form.dirac(side, y_only=True)):
                assert not any(out.terms.values())


# -- the one form ----------------------------------------------------------------


def test_a_form_made_from_fractions_is_worked_out_once_and_shared():
    # two first links on one polynomial made from Fractions share one numerator map
    m = 4
    p = polyharmonic_basis(2, 1, m)[0] * Fraction(2, 3) + Multivector.blade(m, (2,), 5)
    first, second = NumeratorForm(p), NumeratorForm(p)
    assert first.terms[None] is second.terms[None]
    assert first.den == second.den == 3
    check(second.build(), p, p)


def test_a_construction_and_its_check_work_the_seed_form_out_once(monkeypatch):
    # every read of the seed (the precondition, the conjugate side, the seed term of
    # the constructed expression and the residual) returns the one numerator map
    m = 4
    seed = polyharmonic_basis(2, 2, m)[1] * Fraction(1, 3) + polyharmonic_basis(1, 2, m)[0]
    maps = []
    real = getattr(polynomials, "_form", None)

    def counted(poly):
        nums, den = real(poly)
        if poly is seed:
            maps.append(nums)
        return nums, den

    monkeypatch.setattr(polynomials, "_form", counted, raising=False)
    f = construct_exp_left(seed, 2)
    assert n_monogenic_residual(f, 2, "left").is_zero
    assert len(maps) >= 2 and all(nums is maps[0] for nums in maps)
