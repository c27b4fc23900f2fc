"""Polynomials in commuting variables x_0..x_m with Clifford coefficients.

The variables commute with everything; the coefficients live in R_{0,m}
and multiply by the geometric product, so left and right actions of the
Dirac-type operators differ and both are provided.

A monomial is stored densely as a tuple of m+1 exponents.  ``var_scope``
declares which variables may appear at all (for example the y-only scope
{2..m} used for steering coefficients); it is metadata used for
validation, not a separate polynomial type; a sum or a product carries
the union of its operands' scopes.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from typing import Iterable, Iterator, Mapping, Tuple, Union

from .algebra import (
    Multivector, TermMap, document_m, generator_count, integer_in, json_field, json_list,
    json_object, quoted
)

Monomial = Tuple[int, ...]

CoefficientLike = Union[Multivector, int, Fraction]


def _monomial_key(exps: Monomial) -> Tuple[int, Monomial]:
    return (sum(exps), exps)


class DiracOperand(TermMap):
    """A term map the Dirac-type operators act on: a Clifford polynomial or a
    steering expression.  Each operator is one ``NumeratorForm.dirac`` link."""

    __slots__ = ()

    def cr_left(self):
        """d/dx_0 + sum_j e_j d/dx_j, the Cauchy-Riemann operator acting on the left."""
        return dirac(self, "left")

    def cr_right(self):
        """d/dx_0 + sum_j (d/dx_j)(.)e_j, the Cauchy-Riemann operator acting on the right."""
        return dirac(self, "right")

    def hypercomplex_d(self):
        """(1/2)(d/dx_0 - sum_j e_j d/dx_j), the hypercomplex derivative; it is one
        only on left monogenic input, but the operator applies unconditionally."""
        form = NumeratorForm(self).dirac("left", -1)
        return NumeratorForm(self, form.terms, 2 * form.den).build()


class CliffordPolynomial(DiracOperand):
    """Immutable polynomial with Multivector coefficients.

    No zero coefficient is stored and every monomial uses only variables
    from ``var_scope``.  A multivector or rational operand is the constant
    polynomial of full scope.

    A polynomial that ``NumeratorForm.build`` makes holds integer numerators
    (monomial -> blade -> nonzero numerator) over the one denominator
    ``_den``; its Fractions are made when its terms are first read, and kept.
    ``len`` and ``bool`` read only its monomials.  ``_den`` is None for a
    polynomial made from Fractions.
    """

    __slots__ = ("var_scope", "_numerators", "_den")
    _order = staticmethod(_monomial_key)

    def __init__(
        self,
        m: int,
        terms: Mapping[Monomial, CoefficientLike] | Iterable = (),
        var_scope: Iterable[int] | None = None,
    ):
        generator_count(m)
        scope = frozenset(range(m + 1)) if var_scope is None else frozenset(var_scope)
        if not all(type(i) is int and 0 <= i <= m for i in scope):
            raise ValueError(f"var_scope must be a subset of x0..x{m}")
        pairs = []
        for exps, coef in terms.items() if isinstance(terms, Mapping) else terms:
            key = tuple(exps)
            if len(key) != m + 1 or any(type(x) is not int or x < 0 for x in key):
                raise ValueError(
                    f"monomial {quoted(exps)} must give {m + 1} nonnegative exponents"
                )
            for i, x in enumerate(key):
                if x and i not in scope:
                    raise ValueError(f"monomial uses x{i} outside the declared variable scope")
            mv = coef if isinstance(coef, Multivector) else Multivector.scalar(m, coef)
            if mv.m != m:
                raise ValueError(f"coefficient dimension mismatch: m={mv.m} vs m={m}")
            pairs.append((key, mv))
        self.var_scope, self._den = scope, None
        super().__init__(m, pairs)

    @classmethod
    def _unsafe(
        cls, m: int, scope: frozenset, data: dict[Monomial, Multivector]
    ) -> "CliffordPolynomial":
        poly = super()._unsafe(m, data)
        poly.var_scope, poly._den = scope, None
        return poly

    @classmethod
    def _built(
        cls, m: int, scope: frozenset, numerators: dict[Monomial, dict[int, int]], den: int
    ) -> "CliffordPolynomial":
        # numerators over den, as a form holds them; zeros are dropped, no Fraction is made
        poly = object.__new__(cls)
        poly.m, poly.var_scope, poly._den = m, scope, den
        kept = {}
        for exps, blades in numerators.items():
            # a form is never changed once made, so a blade map without zeros is shared
            if 0 in blades.values():
                blades = {mask: v for mask, v in blades.items() if v}
            if blades:
                kept[exps] = blades
        poly._numerators = kept
        return poly

    def __getattr__(self, name: str):
        # only a built polynomial's _terms is ever missing: its Fractions are
        # made here, on the first read, and kept
        if name != "_terms" or self._den is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        m, den, numerators = self.m, self._den, self._numerators
        made: dict[int, Fraction] = {}  # a polynomial repeats few numerators: one Fraction each
        terms = {}
        for exps in sorted(numerators, key=_monomial_key):
            coef = {}
            for mask, v in numerators[exps].items():
                q = made.get(v)
                if q is None:
                    q = made[v] = Fraction(v, den)
                coef[mask] = q
            terms[exps] = Multivector._unsafe(m, coef)
        self._terms = terms
        return terms

    @property
    def _keys(self):
        return self._terms if self._den is None else self._numerators

    def _like(self, other, data):
        return CliffordPolynomial._unsafe(self.m, self.var_scope | other.var_scope, data)

    def _lift(self, other):
        if isinstance(other, CliffordPolynomial):
            return other
        if isinstance(other, (Multivector, int, Fraction)):
            return CliffordPolynomial.constant(self.m, other)
        return None

    @classmethod
    def zero(cls, m: int, var_scope: Iterable[int] | None = None) -> "CliffordPolynomial":
        return cls(m, (), var_scope)

    @classmethod
    def constant(
        cls, m: int, value: CoefficientLike, var_scope: Iterable[int] | None = None
    ) -> "CliffordPolynomial":
        return cls(m, {(0,) * (m + 1): value}, var_scope)

    @classmethod
    def variable(
        cls, m: int, index: int, var_scope: Iterable[int] | None = None
    ) -> "CliffordPolynomial":
        return cls.monomial(m, {index: 1}, 1, var_scope)

    @classmethod
    def monomial(
        cls,
        m: int,
        exponents: Mapping[int, int],
        coef: CoefficientLike = 1,
        var_scope: Iterable[int] | None = None,
    ) -> "CliffordPolynomial":
        exps = [0] * (m + 1)
        for i, e in exponents.items():
            exps[integer_in(i, 0, m, "variable index")] = e
        return cls(m, {tuple(exps): coef}, var_scope)

    # -- access ----------------------------------------------------------------

    def constant_term(self) -> Multivector:
        return self._terms.get((0,) * (self.m + 1), Multivector.zero(self.m))

    def restrict_scope(self, scope: Iterable[int]) -> "CliffordPolynomial":
        """Re-declare the variable scope, failing if the content does not fit."""
        scope = frozenset(scope)
        if scope == self.var_scope:
            # every constructor keeps the monomials inside var_scope
            return self
        return CliffordPolynomial(self.m, self._terms, var_scope=scope)

    # -- ring structure ----------------------------------------------------------

    def _times(self, other, left: bool):
        if isinstance(other, Multivector):
            self._require_same_m(other)
            data = {}
            for exps, mv in self._terms.items():
                prod = other * mv if left else mv * other
                if prod:
                    data[exps] = prod
            return CliffordPolynomial._unsafe(self.m, self.var_scope, data)
        if isinstance(other, CliffordPolynomial):
            self._require_same_m(other)
            a, b = (other, self) if left else (self, other)
            products = (
                (tuple(x + y for x, y in zip(ea, eb)), ca * cb)
                for ea, ca in a._terms.items()
                for eb, cb in b._terms.items()
            )
            return self._like(other, self.merge_terms({}, products))
        return NotImplemented

    # -- differential operators ----------------------------------------------------

    def partial(self, index: int) -> "CliffordPolynomial":
        """Coefficient-wise formal partial derivative with respect to x_index."""
        integer_in(index, 0, self.m, "variable index")
        lowered = (
            (exps[:index] + (exps[index] - 1,) + exps[index + 1 :], mv * exps[index])
            for exps, mv in self._terms.items()
            if exps[index]
        )
        return self._like(self, self.merge_terms({}, lowered))

    def dirac_y(self, side: str = "left") -> "CliffordPolynomial":
        """Dirac operator over the y variables x_2..x_m, acting on one side."""
        return dirac(self, side, y_only=True)

    def laplacian(self) -> "CliffordPolynomial":
        """Sum of second partials over the var_scope."""
        return NumeratorForm(self).laplacian().build()

    # -- serialization ----------------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "m": self.m,
            "vars": sorted(self.var_scope),
            "terms": [
                {
                    "monomial": {str(i): e for i, e in enumerate(exps) if e},
                    "coef": mv.to_obj(),
                }
                for exps, mv in self._terms.items()
            ],
        }

    @classmethod
    def from_obj(cls, obj: Mapping) -> "CliffordPolynomial":
        """Decode a document: the JSON shapes and canonical monomial keys are
        checked here, every rule of a polynomial once, by the constructor."""
        m = document_m(obj, "polynomial")
        scope = obj.get("vars")
        if scope is not None:
            json_list(scope, "polynomial field 'vars'")
        pairs = []
        for entry in json_list(obj.get("terms", []), "polynomial field 'terms'"):
            monomial = json_field(entry, "monomial", "polynomial term")
            json_object(monomial, "polynomial term field 'monomial'")
            exps = [0] * (m + 1)
            for raw_i, e in monomial.items():
                try:  # a key that is not a string (no JSON key) is checked as it is
                    i = int(raw_i) if type(raw_i) is str else raw_i
                except ValueError:  # int's own message shows up to 200 characters
                    raise ValueError(f"monomial key {quoted(raw_i)} names no variable") from None
                integer_in(i, 0, m, "variable index")
                # two keys naming one variable cannot both be written str(i)
                if raw_i != str(i):
                    raise ValueError(f"monomial key {quoted(raw_i)} must be written {str(i)!r}")
                exps[i] = e
            coef = Multivector.from_obj(json_field(entry, "coef", "polynomial term"))
            pairs.append((tuple(exps), coef))
        return cls(m, pairs, scope)._decoded(pairs, lambda key: f"monomial {key!r}")

    def _term_str(self, exps: Monomial, mv: Multivector) -> str:
        mono = "*".join(f"x{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e)
        return f"[{mv}]{'*' + mono if mono else ''}"


def _common_denominator(polys: Iterable[CliffordPolynomial]) -> int:
    den = 1
    for poly in polys:
        if poly._den is not None:
            den = lcm(den, poly._den)
            continue
        for mv in poly._terms.values():
            for q in mv._terms.values():
                d = q.denominator
                if den % d:
                    den = lcm(den, d)
    return den


def _numerators_over(poly: CliffordPolynomial, den: int) -> dict[Monomial, dict[int, int]]:
    # poly's terms as integer numerators over den, a multiple of its own denominators
    if poly._den == den:  # a built polynomial over den: its form, as it is
        return poly._numerators
    if poly._den is not None:
        k = den // poly._den
        return {
            exps: {mask: v * k for mask, v in blades.items()}
            for exps, blades in poly._numerators.items()
        }
    return {
        exps: {mask: q.numerator * (den // q.denominator) for mask, q in mv._terms.items()}
        for exps, mv in poly._terms.items()
    }


class NumeratorForm:
    """``f``'s terms as symbol (None for a polynomial) -> monomial -> blade ->
    integer numerator over the integer ``den``.  The first link reads ``f``
    over one common denominator: a built polynomial's numerators as they are,
    and Fractions only of a polynomial made from them; so there is one format
    from seed to residual.  Operators chain forms, and ``build`` makes no
    Fraction: a built value makes its Fractions only when its terms are read."""

    __slots__ = ("f", "terms", "den")

    def __init__(self, f, terms: dict | None = None, den: int = 1):
        if terms is None:
            own = [(None, f)] if isinstance(f, CliffordPolynomial) else list(f.items())
            den = _common_denominator(poly for _, poly in own)
            terms = {sym: _numerators_over(poly, den) for sym, poly in own}
        self.f, self.terms, self.den = f, terms, den

    def is_zero(self) -> bool:
        """Whether every numerator of the form is zero: the built value is zero."""
        return not any(any(b.values()) for s in self.terms.values() for b in s.values())

    def build(self):
        """The object of ``f``'s type and scope holding this form."""
        f, den = self.f, self.den
        if isinstance(f, CliffordPolynomial):
            return CliffordPolynomial._built(f.m, f.var_scope, self.terms.get(None, {}), den)
        y = frozenset(range(2, f.m + 1))
        polys = {
            sym: CliffordPolynomial._built(f.m, y, monos, den)
            for sym, monos in self.terms.items()
        }
        return type(f)._unsafe(f.m, {sym: poly for sym, poly in polys.items() if poly})

    @classmethod
    def combine(cls, f, parts: list) -> "NumeratorForm":
        """sum w * form over (form, w) parts as integers over one lcm."""
        den = lcm(*(p.den * w.denominator for p, w in parts))
        out: dict = {}
        for p, w in parts:
            n = w.numerator * (den // (p.den * w.denominator))
            for sym, monos in p.terms.items():
                own = out.setdefault(sym, {})
                for exps, blades in monos.items():
                    acc = own.setdefault(exps, {})
                    for mask, q in blades.items():
                        acc[mask] = acc.get(mask, 0) + n * q
        return cls(f, out, den)

    def laplacian(self) -> "NumeratorForm":
        """The Laplacian of a polynomial's form, over the polynomial's var_scope."""
        scope = self.f.var_scope
        acc: dict[Monomial, dict[int, int]] = {}
        for exps, blades in self.terms[None].items():
            for i in scope:
                e = exps[i]
                if e < 2:
                    continue
                target = acc.setdefault(exps[:i] + (e - 2,) + exps[i + 1 :], {})
                w = e * (e - 1)
                for mask, q in blades.items():
                    target[mask] = target.get(mask, 0) + w * q
        return NumeratorForm(self.f, {None: acc}, self.den)

    def dirac(self, side: str, sign: int = 1, y_only: bool = False,
              times: int = 1) -> "NumeratorForm":
        """d/dx_0 + sign * sum_(j>=1) e_j d/dx_j, e_j acting on ``side``, applied
        ``times`` times; ``y_only`` keeps only sign * sum_(j>=2).

        Each application is one pass over the flat (symbol, monomial, blade,
        numerator) terms.  e_j on e_A is a signed bit flip, its sign the parity
        of the generators of A up to and including j on the left, or from j up
        on the right.  On a steering expression d/dx_0 and d/dx_1 act on the
        symbols through ``SteeringSymbol._dz`` (d(z-bar)/dx_1 = -e_1), and e_j
        with j >= 2 on the left flips the bar.  On the left, d/dx_0 + e_1 d/dx_1
        = 2 d/dz-bar on a symbol: one action, which leaves phi(z) out for sign 1
        and doubles the derivative of phi(z-bar).  Zero numerators are skipped
        where they are read; the output is over the input denominator times
        the lcm of the rate denominators.  Once a pass leaves no nonzero
        numerator, the passes left are not run: the form is already zero.
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        m = self.f.m
        left = side == "left"
        full = (1 << m) - 1
        form = self
        for step in range(times):
            # a pass that reads no nonzero numerator writes none, nor does any later one
            if step and form.is_zero():
                break
            rates = () if y_only else (s.rate.denominator for s in form.terms if s is not None)
            rate_den = lcm(*rates)
            # e_j d/dx_j as (multiplier, flip bit, parity selector, lands on the
            # flipped symbol); d/dx_0 flips nothing
            gens = {} if y_only else {0: (rate_den, 0, 0, False)}
            for j in range(2 if y_only else 1, m + 1):
                bit = 1 << (j - 1)
                gens[j] = (sign * rate_den, bit, bit * 2 - 1 if left else full ^ (bit - 1), j > 1)
            # out symbol -> lowered monomial -> blade -> numerator over the denominator
            acc: dict = {}
            for sym, monos in form.terms.items():
                if not monos:
                    continue
                # the symbol e_j d/dx_j lands on, without and with a bar flip; an
                # entry is made on its first write, as many symbols get no term
                flipped = sym.conjugate() if sym is not None and left else sym
                # (out symbol's monomials, multiplier, flip bit, parity selector) of
                # d/dx_0 and e_1 d/dx_1 on the symbol; the monomial stays
                sym_actions = []
                if sym is not None and not y_only:
                    x1_sign = sign if sym.bar else -sign
                    for q, dsym in sym._dz():
                        n = q.numerator * (rate_den // q.denominator)
                        if not left:
                            out = acc.setdefault(dsym, {})
                            sym_actions += [(out, n, 0, 0), (out, x1_sign * n, 0, full ^ 1)]
                        elif x1_sign > 0:  # one action, 2 d/dz-bar, or none at all
                            sym_actions.append((acc.setdefault(dsym, {}), 2 * n, 0, 0))
                for exps, blades in monos.items():
                    if not any(blades.values()):  # a zero monomial gets no output entries
                        continue
                    actions = [(out.setdefault(exps, {}), n, b, s) for out, n, b, s in sym_actions]
                    for j, (n, bit, sel, flips) in gens.items():
                        k = exps[j]
                        if k:
                            out = acc.setdefault(flipped if flips else sym, {}).setdefault(
                                exps[:j] + (k - 1,) + exps[j + 1 :], {}
                            )
                            actions.append((out, k * n, bit, sel))
                    if not actions:
                        continue
                    for mask, c in blades.items():
                        if not c:
                            continue
                        for target, n, bit, sel in actions:
                            v = c * n
                            if (mask & sel).bit_count() & 1:
                                v = -v
                            out_mask = mask ^ bit
                            target[out_mask] = target.get(out_mask, 0) + v
            form = NumeratorForm(self.f, acc, form.den * rate_den)
        return form


def dirac(f, side: str, sign: int = 1, y_only: bool = False):
    """``NumeratorForm.dirac`` as a chain of one link on a CliffordPolynomial
    or SteeringExpression ``f``; the output makes its Fractions when read."""
    return NumeratorForm(f).dirac(side, sign, y_only).build()


def homogeneous_exponents(count: int, degree: int) -> Iterator[Tuple[int, ...]]:
    # graded-lex listing: the earliest variable takes the largest exponent first
    if count == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in homogeneous_exponents(count - 1, degree - first):
            yield (first,) + rest


def _scalar_laplacian(poly: Mapping[Tuple[int, ...], int]) -> dict[Tuple[int, ...], int]:
    out: dict[Tuple[int, ...], int] = {}
    for exps, q in poly.items():
        for pos, e in enumerate(exps):
            if e >= 2:
                key = exps[:pos] + (e - 2,) + exps[pos + 1 :]
                out[key] = out.get(key, 0) + q * e * (e - 1)
    return {key: q for key, q in out.items() if q}


def polyharmonic_basis(degree: int, order: int, m: int) -> list[CliffordPolynomial]:
    """Basis of homogeneous degree-``degree`` polynomials in the y variables
    x_2..x_m killed by laplacian^order.

    Write p = sum_j x_2^j b_j, every b_j free of x_2, and L for the Laplacian
    in x_3..x_m.  Expanding laplacian^k = sum_i C(k,i) d_2^(2i) L^(k-i) shows
    that p lies in the kernel of laplacian^k exactly when, for every j >= 0,

        (j+2k)!/j! b_(j+2k) = -sum_(i<k) C(k,i) (j+2i)!/j! L^(k-i) b_(j+2i),

    the Cauchy-Kovalevskaya recurrence in x_2; b_0..b_(2k-1) are free.  There
    is one element per free monomial, i.e. per monomial whose x_2-exponent is
    below 2*order, listed in graded-lex order; the element's part of
    x_2-degree below 2*order is exactly that monomial with coefficient 1.
    This is the reduced-echelon kernel basis of the iterated-Laplacian
    matrix in the graded-lex monomial basis.  Every coefficient is a scalar.
    """
    integer_in(degree, 0, None, "degree")
    integer_in(order, 1, None, "Laplacian order")
    scope = frozenset(range(2, generator_count(m) + 1))
    # a_j = j! b_j turns the recurrence into a_(j+2k) = -sum_i C(k,i) L^(k-i) a_(j+2i)
    # over the integers; step[(rest, i)] caches C(k,i) L^(k-i) of one monomial
    step: dict[Tuple[Tuple[int, ...], int], dict[Tuple[int, ...], int]] = {}
    fact = [factorial(j) for j in range(degree + 1)]
    out = []
    for free in homogeneous_exponents(m - 1, degree):
        if free[0] >= 2 * order:
            continue
        a: list[dict[Tuple[int, ...], int]] = [{} for _ in range(degree + 1)]
        a[free[0]] = {free[1:]: fact[free[0]]}
        for j in range(free[0] % 2, degree - 2 * order + 1, 2):
            acc: dict[Tuple[int, ...], int] = {}
            for i in range(order):
                for rest, c in a[j + 2 * i].items():
                    image = step.get((rest, i))
                    if image is None:
                        image = {rest: comb(order, i)}
                        for _ in range(order - i):
                            image = _scalar_laplacian(image)
                        step[rest, i] = image
                    for t, w in image.items():
                        acc[t] = acc.get(t, 0) - c * w
            a[j + 2 * order] = {t: c for t, c in acc.items() if c}
        terms = {
            (0, 0, j) + rest: Multivector._unsafe(m, {0: Fraction(c, fact[j])})
            for j, aj in enumerate(a)
            for rest, c in aj.items()
        }
        out.append(CliffordPolynomial._unsafe(m, scope, terms))
    return out
