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
from typing import Callable, Iterable, Iterator, Mapping, Tuple, Union

from .algebra import (
    PARITY, Multivector, TermMap, blade_terms, blades_obj, document_m, generator_count,
    integer_in, json_field, json_list, json_object, quoted
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

    Every polynomial has one integer form, its nonzero numerators (monomial ->
    blade -> numerator) over its own denominator ``_den``: a built one (an
    operator's output or a decoded document) from the start, making its
    Fractions on their first read; one made from Fractions on its first read
    through ``NumeratorForm`` or ``to_obj``.  Either keeps what it makes, so
    ``_den`` is None only until that read.  ``len`` and ``bool`` read monomials.
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

        def lift(coef):
            mv = coef if isinstance(coef, Multivector) else Multivector.scalar(m, coef)
            return mv, mv.m

        pairs = terms.items() if isinstance(terms, Mapping) else terms
        self.var_scope, pairs = self._checked(m, var_scope, pairs, lift)
        self._den = None
        super().__init__(m, pairs)

    @staticmethod
    def _checked(
        m: int, var_scope: Iterable[int] | None, terms: Iterable, lift: Callable
    ) -> tuple[frozenset, list]:
        """(scope, [(monomial, coefficient)]) of ``var_scope`` (None for every
        variable) and the (exponents, coefficient) ``terms``, each rule of a
        polynomial checked in turn: the one check of each, for the constructor
        and the decoder.  ``lift`` gives a coefficient as (value kept, its m)."""
        scope = frozenset(range(m + 1)) if var_scope is None else frozenset(var_scope)
        if not all(type(i) is int and 0 <= i <= m for i in scope):
            raise ValueError(f"var_scope must be a subset of x0..x{m}")
        outside = [i for i in range(m + 1) if i not in scope]
        pairs = []
        for exps, coef in terms:
            key = tuple(exps)
            if len(key) != m + 1 or any(type(x) is not int or x < 0 for x in key):
                raise ValueError(
                    f"monomial {quoted(exps)} must give {m + 1} nonnegative exponents"
                )
            for i in outside:
                if key[i]:
                    raise ValueError(f"monomial uses x{i} outside the declared variable scope")
            value, coef_m = lift(coef)
            if coef_m != m:
                raise ValueError(f"coefficient dimension mismatch: m={coef_m} vs m={m}")
            pairs.append((key, value))
        return scope, pairs

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
        if name != "_terms":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        m, den, numerators = self.m, self._den, self._numerators
        made: dict[int, Fraction] = {}  # a polynomial repeats few numerators: one Fraction each
        terms = {}
        for exps, blades in numerators.items():
            coef = {}
            for mask, v in blades.items():
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
        """Re-declare the scope on the integer form, failing if the content does not fit."""
        scope = frozenset(scope)
        if scope == self.var_scope:
            # every constructor keeps the monomials inside var_scope
            return self
        numerators, den = _form(self)
        scope, pairs = self._checked(self.m, scope, numerators.items(), lambda b: (b, self.m))
        return CliffordPolynomial._built(self.m, scope, dict(pairs), den)

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
        """The document, written from the integer form: no Fraction is made."""
        m = self.m
        numerators, den = _form(self)
        return {
            "m": m,
            "vars": sorted(self.var_scope),
            "terms": [
                {
                    "monomial": {str(i): e for i, e in enumerate(exps) if e},
                    "coef": blades_obj(
                        m, [(mask, v, den) for mask, v in Multivector._ordered(blades)]
                    ),
                }
                for exps, blades in self._ordered(numerators)
            ],
        }

    @classmethod
    def from_obj(cls, obj: Mapping) -> "CliffordPolynomial":
        """Decode a document: the JSON shapes and canonical monomial keys are
        checked here, every rule of a polynomial by ``_checked``, as the
        constructor checks them.  Each coefficient is read by ``blade_terms`` as
        integers, and the polynomial is built over the lcm of their
        denominators: decoding makes no Fraction."""
        m = document_m(obj, "polynomial")
        scope = obj.get("vars")
        if scope is not None:
            json_list(scope, "polynomial field 'vars'")
        terms = []
        den = 1
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
            coef = blade_terms(json_field(entry, "coef", "polynomial term"))
            terms.append((tuple(exps), coef))
            if den % coef[2]:
                den = lcm(den, coef[2])

        def lift(coef):
            # (numerators over den, m) of a coefficient read as (m, numerators, denominator)
            coef_m, blades, d = coef
            k = den // d
            return (blades if k == 1 else {mask: v * k for mask, v in blades.items()}), coef_m

        scope, pairs = cls._checked(m, scope, terms, lift)
        poly = cls._built(m, scope, dict(pairs), den)
        cls._decoded(poly._numerators, pairs, lambda key: f"monomial {key!r}")
        return poly

    def _term_str(self, exps: Monomial, mv: Multivector) -> str:
        mono = "*".join(f"x{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e)
        return f"[{mv}]{'*' + mono if mono else ''}"


def _form(poly: CliffordPolynomial) -> tuple[dict[Monomial, dict[int, int]], int]:
    """``poly``'s one integer form, (numerators, denominator): the one rule that
    reads a polynomial.  One made from Fractions works it out on its first read
    and keeps it; a kept form is never changed."""
    if poly._den is None:
        den = 1
        for mv in poly._terms.values():
            for q in mv._terms.values():
                if den % q.denominator:
                    den = lcm(den, q.denominator)
        poly._numerators = {
            exps: {mask: q.numerator * (den // q.denominator) for mask, q in mv._terms.items()}
            for exps, mv in poly._terms.items()
        }
        poly._den = den  # last: it marks the form as present, to another thread too
    return poly._numerators, poly._den


class NumeratorForm:
    """``f``'s terms as symbol (None for a polynomial) -> monomial -> blade ->
    integer numerator over the integer ``den``.  The first link reads each
    polynomial of ``f`` by one rule, ``_form``, and rescales only the forms not
    over the lcm of their denominators, sharing the others: one format from seed
    to residual.  Operators chain forms; ``build`` makes no Fraction."""

    __slots__ = ("f", "terms", "den")

    def __init__(self, f, terms: dict | None = None, den: int = 1):
        if terms is None:
            own = [(None, f)] if isinstance(f, CliffordPolynomial) else f.items()
            forms = {sym: _form(poly) for sym, poly in own}
            den = lcm(*(d for _, d in forms.values()))
            terms = {}
            for sym, (nums, d) in forms.items():
                k = den // d
                terms[sym] = nums if k == 1 else {
                    exps: {mask: v * k for mask, v in blades.items()}
                    for exps, blades in nums.items()
                }
        self.f, self.terms, self.den = f, terms, den

    def is_zero(self) -> bool:
        """Whether every numerator of the form is zero: the built value is zero."""
        return not any(any(b.values()) for s in self.terms.values() for b in s.values())

    def build(self):
        """The object of ``f``'s type and scope holding this form."""
        f, den = self.f, self.den
        terms = {} if self.is_zero() else self.terms  # a zero form builds at once
        if isinstance(f, CliffordPolynomial):
            return CliffordPolynomial._built(f.m, f.var_scope, terms.get(None, {}), den)
        y = frozenset(range(2, f.m + 1))
        polys = {
            sym: CliffordPolynomial._built(f.m, y, monos, den)
            for sym, monos in terms.items()
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
        on the right, read from ``PARITY``.  On a steering expression d/dx_0 and
        d/dx_1 act on the symbols through ``SteeringSymbol._dz`` (d(z-bar)/dx_1 =
        -e_1), and e_j with j >= 2 on the left flips the bar.  On the left,
        d/dx_0 + e_1 d/dx_1 = 2 d/dz-bar on a symbol: one action, which leaves
        phi(z) out for sign 1 and doubles the derivative of phi(z-bar).  Zero
        numerators are skipped where they are read; the output is over the input
        denominator times the lcm of the rate denominators.  Once a pass leaves
        no nonzero numerator, the passes left are not run: the form is already
        zero.
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
            # e_j d/dx_j as (j, multiplier, flip bit, parity selector, 1 if it lands
            # on the bar-flipped symbol); d/dx_0 flips nothing
            gens = [] if y_only else [(0, rate_den, 0, 0, 0)]
            for j in range(2 if y_only else 1, m + 1):
                bit = 1 << (j - 1)
                sel = bit * 2 - 1 if left else full ^ (bit - 1)
                gens.append((j, sign * rate_den, bit, sel, int(j > 1)))
            # out symbol -> lowered monomial -> blade -> numerator over the denominator
            acc: dict = {}
            for sym, monos in form.terms.items():
                if not monos:
                    continue
                # the symbols e_j d/dx_j lands on, without and with a bar flip, and
                # their output maps, each made on its first write, as many get no term
                keys = (sym, sym.conjugate() if sym is not None and left else sym)
                maps = [None, None]
                # (out symbol's monomials, (multiplier, -multiplier), parity selector)
                # of d/dx_0 and e_1 d/dx_1 on the symbol; the monomial and the blade stay
                sym_actions = []
                if sym is not None and not y_only:
                    x1_sign = sign if sym.bar else -sign
                    for q, dsym in sym._dz():
                        n = q.numerator * (rate_den // q.denominator)
                        if not left:
                            out = acc.setdefault(dsym, {})
                            n1 = x1_sign * n
                            sym_actions += [(out, (n, -n), 0), (out, (n1, -n1), full ^ 1)]
                        elif x1_sign > 0:  # one action, 2 d/dz-bar, or none at all
                            sym_actions.append((acc.setdefault(dsym, {}), (2 * n, -2 * n), 0))
                for exps, blades in monos.items():
                    nonzero = blades.items()
                    if 0 in blades.values():
                        nonzero = [(mask, c) for mask, c in nonzero if c]
                    if not nonzero:  # a zero monomial gets no output entries
                        continue
                    # pm[PARITY[mask & sel]] is the multiplier with its sign for blade mask
                    for out, pm, sel in sym_actions:
                        target = out.setdefault(exps, {})
                        for mask, c in nonzero:
                            target[mask] = target.get(mask, 0) + c * pm[PARITY[mask & sel]]
                    for j, n, bit, sel, flips in gens:
                        k = exps[j]
                        if not k:
                            continue
                        out = maps[flips]
                        if out is None:
                            out = maps[flips] = acc.setdefault(keys[flips], {})
                        target = out.setdefault(exps[:j] + (k - 1,) + exps[j + 1 :], {})
                        pm = (n * k, -n * k)
                        for mask, c in nonzero:
                            t = mask ^ bit
                            target[t] = target.get(t, 0) + c * pm[PARITY[mask & sel]]
            form = NumeratorForm(self.f, acc, form.den * rate_den)
        return form


def dirac(f, side: str, sign: int = 1, y_only: bool = False):
    """``NumeratorForm.dirac`` as a chain of one link on a CliffordPolynomial
    or SteeringExpression ``f``; the output makes its Fractions when read."""
    return NumeratorForm(f).dirac(side, sign, y_only).build()


def homogeneous_exponents(count: int, degree: int) -> Iterator[Tuple[int, ...]]:
    # graded-lex listing: the earliest variable takes the largest exponent first.
    # Each successor moves one unit from the last nonzero place before the end
    # to the place after it, which also takes everything the end held.
    # No variables make one monomial, (), of degree 0 and none of any other.
    if not count:
        if not degree:
            yield ()
        return
    exps = [degree] + [0] * (count - 1)
    end = count - 1
    while True:
        yield tuple(exps)
        i = end - 1
        while i >= 0 and not exps[i]:
            i -= 1
        if i < 0:
            return
        exps[i] -= 1
        held, exps[end] = exps[end], 0
        exps[i + 1] = held + 1


def polyharmonic_basis(degree: int, order: int, m: int) -> list[CliffordPolynomial]:
    """Basis of homogeneous degree-``degree`` polynomials in the y variables
    x_2..x_m killed by laplacian^order.

    Write p = sum_j x_2^j a_j / j!, every a_j free of x_2, L for the Laplacian
    in x_3..x_m and k = order.  Expanding laplacian^k = sum_i C(k,i) d_2^(2i)
    L^(k-i) shows that p lies in the kernel of laplacian^k exactly when, for
    every j >= 0,

        a_(j+2k) = -sum_(i<k) C(k,i) L^(k-i) a_(j+2i),

    the Cauchy-Kovalevskaya recurrence in x_2; a_0..a_(2k-1) are free.  There
    is one element per free monomial x_2^f0 r, f0 < 2k and r in x_3..x_m,
    whose free slices are a_f0 = f0! r and a_j = 0 for the other j < 2k.  By
    induction its every slice is a_(f0+2s) = c_s L^s r: if the slices below
    f0+2s are, the recurrence's term i for it is C(k,i) c_(s-k+i) L^s r.  So
    the integers c_s depend only on (k, f0), with c_s = 0 for s < 0:

        c_0 = f0!,  c_s = 0 while f0+2s < 2k,  else c_s = -sum_(i<k) C(k,i) c_(s-k+i),

    and the element is sum_s c_s/(f0+2s)! x_2^(f0+2s) L^s r.
    Only the free monomials are listed, in graded-lex order; the element's
    part of x_2-degree below 2k is exactly its monomial with coefficient 1.
    This is the reduced-echelon kernel basis of the iterated-Laplacian
    matrix in the graded-lex monomial basis.  Every coefficient is a scalar,
    and one call makes one coefficient object per value: the terms and
    elements with that value share it, as term maps are immutable.
    """
    integer_in(degree, 0, None, "degree")
    integer_in(order, 1, None, "Laplacian order")
    scope = frozenset(range(2, generator_count(m) + 1))
    fact = [factorial(j) for j in range(degree + 1)]
    # L on one monomial of x_3..x_m, as (monomial, weight) pairs, made once a call
    lap: dict[Tuple[int, ...], list[Tuple[Tuple[int, ...], int]]] = {}
    # one scalar c / j! per numerator c of x_2^j, keyed (c, j): the terms share it
    coefs: dict[Tuple[int, int], Multivector] = {}
    out = []
    for f0 in range(min(2 * order - 1, degree), -1, -1):
        c = [fact[f0]]
        for s in range(1, (degree - f0) // 2 + 1):
            free = f0 + 2 * s < 2 * order
            c.append(0 if free else -sum(
                comb(order, i) * c[s - order + i] for i in range(max(order - s, 0), order)
            ))
        while not c[-1]:  # L^s r is not needed past the last nonzero c_s
            c.pop()
        for rest in homogeneous_exponents(m - 2, degree - f0):
            # chain holds L^s r; its numerators are positive, so none cancels
            chain: dict[Tuple[int, ...], int] = {rest: 1}
            terms = {}
            for s, cs in enumerate(c):
                if s:
                    after: dict[Tuple[int, ...], int] = {}
                    for t, v in chain.items():
                        image = lap.get(t)
                        if image is None:
                            image = lap[t] = [
                                (t[:pos] + (e - 2,) + t[pos + 1 :], e * (e - 1))
                                for pos, e in enumerate(t) if e >= 2
                            ]
                        for u, w in image:
                            after[u] = after.get(u, 0) + v * w
                    chain = after
                    if not chain:
                        break
                if not cs:
                    continue
                j = f0 + 2 * s
                for t, v in chain.items():
                    coef = coefs.get((cs * v, j))
                    if coef is None:
                        coef = coefs[cs * v, j] = Multivector._unsafe(
                            m, {0: Fraction(cs * v, fact[j])}
                        )
                    terms[(0, 0, j) + t] = coef
            out.append(CliffordPolynomial._unsafe(m, scope, terms))
    return out
