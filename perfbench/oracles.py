"""Checks that judge each case without reusing the code under test.

Polynomials are read into plain dicts ``{monomial: {blade mask: Fraction}}``
through the public ``items()`` accessors, and every derivative, blade
product and Laplacian below is computed here from first principles.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb

Dense = dict  # {monomial tuple: {mask: Fraction}}
# a large prime: a rank taken modulo it never exceeds the rank over Q
PRIME = (1 << 61) - 1


def as_dense(poly) -> Dense:
    """A CliffordPolynomial as nested plain dicts."""
    return {exps: dict(mv.items()) for exps, mv in poly.items()}


def blade_mul(a: int, b: int) -> tuple[int, int]:
    """Sign and mask of e_A e_B in R_{0,m}, where every e_i squares to -1."""
    swaps = 0
    rest = a >> 1
    while rest:
        swaps += (rest & b).bit_count()
        rest >>= 1
    squares = (a & b).bit_count()
    return (-1 if (swaps + squares) & 1 else 1), a ^ b


def from_doc(doc) -> Dense:
    """A polynomial JSON document, as the CLI writes it, as nested plain dicts."""
    m = doc["m"]
    out: Dense = {}
    for term in doc["terms"]:
        exps = [0] * (m + 1)
        for i, e in term["monomial"].items():
            exps[int(i)] = e
        for blade in term["coef"]["terms"]:
            mask = sum(1 << (i - 1) for i in blade["blades"])
            _add_into(out, tuple(exps), mask, Fraction(blade["coef"]))
    return out


def z_symbol(kind: str = "powexp", power: int = 0, rate=0) -> tuple:
    """A steering symbol of the argument z (not z-bar) as these checks name
    it: (kind, bar, power, rate)."""
    return (kind, False, power, Fraction(rate))


def _add_into(out: Dense, exps: tuple, mask: int, q: Fraction) -> None:
    coef = out.setdefault(exps, {})
    acc = coef.get(mask, 0) + q
    if acc:
        coef[mask] = acc
    else:
        coef.pop(mask, None)
        if not coef:
            del out[exps]


def partial(p: Dense, index: int) -> Dense:
    out: Dense = {}
    for exps, coef in p.items():
        k = exps[index]
        if k:
            key = exps[:index] + (k - 1,) + exps[index + 1 :]
            for mask, q in coef.items():
                _add_into(out, key, mask, q * k)
    return out


def laplacian(p: Dense, variables) -> Dense:
    out: Dense = {}
    for v in variables:
        for exps, coef in partial(partial(p, v), v).items():
            for mask, q in coef.items():
                _add_into(out, exps, mask, q)
    return out


def dirac_left(p: Dense, m: int, scale_e: int = 1) -> Dense:
    """d/dx_0 + scale_e * sum_j e_j d/dx_j, acting on the left."""
    out: Dense = {}
    for exps, coef in partial(p, 0).items():
        for mask, q in coef.items():
            _add_into(out, exps, mask, q)
    for j in range(1, m + 1):
        ej = 1 << (j - 1)
        for exps, coef in partial(p, j).items():
            for mask, q in coef.items():
                sign, prod = blade_mul(ej, mask)
                _add_into(out, exps, prod, q * sign * scale_e)
    return out


def added(*parts: Dense) -> Dense:
    out: Dense = {}
    for p in parts:
        for exps, coef in p.items():
            for mask, q in coef.items():
                _add_into(out, exps, mask, q)
    return out


def product(p: Dense, q: Dense) -> Dense:
    out: Dense = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            for ma, qa in ca.items():
                for mb, qb in cb.items():
                    sign, mask = blade_mul(ma, mb)
                    _add_into(out, exps, mask, qa * qb * sign)
    return out


def sandwich_difference(p: Dense) -> Dense:
    """p - e1 p e1, the seed of a two-sided construction."""
    out: Dense = {}
    for exps, coef in p.items():
        for mask, q in coef.items():
            _add_into(out, exps, mask, q)
            s1, left = blade_mul(1, mask)
            s2, both = blade_mul(left, 1)
            _add_into(out, exps, both, -q * s1 * s2)
    return out


def scaled(p: Dense, factor: Fraction) -> Dense:
    return {
        exps: {mask: q * factor for mask, q in coef.items()} for exps, coef in p.items()
    }


def kernel_dimension(degree: int, order: int, nvars: int) -> int:
    """dim ker(Laplacian^order) on homogeneous degree-``degree`` polynomials
    in ``nvars`` variables: dim P_d - dim P_{d-2k}, since the Laplacian
    power maps P_d onto P_{d-2k}."""
    def dim(d: int) -> int:
        return comb(d + nvars - 1, nvars - 1) if d >= 0 else 0

    return dim(degree) - dim(degree - 2 * order)


def rank_mod_prime(vectors: list[Dense]) -> int:
    """Rank of the coefficient vectors modulo PRIME, by sparse elimination.
    A full rank here proves the vectors linearly independent over Q."""
    pivots: dict = {}
    for p in vectors:
        v = {}
        for exps, coef in p.items():
            for mask, q in coef.items():
                v[exps, mask] = q.numerator * pow(q.denominator, -1, PRIME) % PRIME
        while v:
            lead = min(v)
            row = pivots.get(lead)
            if row is None:
                inv = pow(v[lead], -1, PRIME)
                pivots[lead] = {key: x * inv % PRIME for key, x in v.items()}
                break
            f = v[lead]
            for key, x in row.items():
                y = (v.get(key, 0) - f * x) % PRIME
                if y:
                    v[key] = y
                else:
                    v.pop(key, None)
    return len(pivots)


def check_basis(polys, count: int, degree: int, order: int, m: int) -> bool:
    """``count`` linearly independent elements, each homogeneous of the
    degree and annihilated by Laplacian^order."""
    yvars = range(2, m + 1)
    if len(polys) != count:
        return False
    dense = [as_dense(poly) for poly in polys]
    for p in dense:
        if any(sum(exps) != degree for exps in p):
            return False
        for _ in range(order):
            p = laplacian(p, yvars)
        if p:
            return False
    return rank_mod_prime(dense) == count


def _pochhammer(a: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


@cache
def appell(k: int, m: int) -> Dense:
    """P_k = sum_s C(k,s) ((m+1)/2)_(k-s) ((m-1)/2)_s / (m)_k X^(k-s) Xbar^s,
    with X = x_0 + sum_j x_j e_j, expanded here from the closed form."""
    def power(sign: int, n: int) -> Dense:
        unit = tuple(int(i == 0) for i in range(m + 1))
        base = {unit: {0: Fraction(1)}}
        for j in range(1, m + 1):
            base[tuple(int(i == j) for i in range(m + 1))] = {1 << (j - 1): Fraction(sign)}
        out = {(0,) * (m + 1): {0: Fraction(1)}}
        for _ in range(n):
            out = product(out, base)
        return out

    parts = []
    for s in range(k + 1):
        weight = (
            comb(k, s)
            * _pochhammer(Fraction(m + 1, 2), k - s)
            * _pochhammer(Fraction(m - 1, 2), s)
            / _pochhammer(Fraction(m), k)
        )
        parts.append(scaled(product(power(1, k - s), power(-1, s)), weight))
    return added(*parts)


def check_appell(pk, k: int, m: int) -> bool:
    """P_k is left monogenic and its hypercomplex derivative is k P_{k-1},
    with P_{k-1} from the closed form above; P_0 = 1."""
    p = as_dense(pk)
    if dirac_left(p, m):
        return False
    if k == 0:
        return p == {(0,) * (m + 1): {0: Fraction(1)}}
    derived = scaled(dirac_left(p, m, scale_e=-1), Fraction(1, 2))
    return derived == scaled(appell(k - 1, m), Fraction(k))


def leads_with(terms: dict, leading: dict) -> bool:
    """``terms`` maps each symbol, named as by ``z_symbol``, to its dense
    coefficient.  Each expected z-side coefficient must be there unchanged,
    and at least one is expected, so an empty or truncated construction
    fails even when its residual is empty."""
    return bool(leading) and all(terms.get(key) == want for key, want in leading.items())


def expression_terms(expr) -> dict:
    """A SteeringExpression as {(kind, bar, power, rate): dense coefficient}."""
    return {(s.kind, s.bar, s.power, s.rate): as_dense(coef) for s, coef in expr.items()}


def expression_doc_terms(doc) -> dict:
    """A steering expression JSON document, as ``expression_terms`` gives it."""
    out = {}
    for term in doc["terms"]:
        s = term["symbol"]
        out[s["kind"], s["bar"], s["power"], Fraction(s["rate"])] = from_doc(term["coef"])
    return out


def solution_agrees(outcome, expected: bool, leading: dict) -> bool:
    """The constructed expression carries its seeds, and its residual
    reports give the expected verdict."""
    expr, reports = outcome
    return leads_with(expression_terms(expr), leading) and reports_agree(reports, expected)


def reports_agree(reports, expected: bool) -> bool:
    """The verdict (every residual empty) matches the label, and each report
    is self-consistent: its flag, its count and its residual all agree."""
    for r in reports:
        empty = len(r.residual) == 0
        if r.is_zero != empty or (r.term_count == 0) != empty:
            return False
    return all(r.is_zero for r in reports) == expected
