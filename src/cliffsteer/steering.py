"""The steering-expression calculus.

A steering expression is a finite sum  F(X) = sum_phi phi(z) * G_phi(y)
where z = x_0 + x_1 e_1, y = x_2 e_2 + ... + x_m e_m, each phi comes from
a family of R_{0,1}-valued functions closed under conjugation and under
d/dz-bar (powers of z times exponentials, cosines, sines), and each
coefficient G_phi is a Clifford polynomial in the y variables only.

The single algebraic fact that makes the whole calculus work is the
commutation rule  e_j phi(z) = phi(z-bar) e_j  for j >= 2, while e_1
commutes with z.  Left multiplication by a blade therefore flips every
symbol's bar exactly when the blade contains an odd number of generators
of index >= 2; right multiplication never flips.  With that, applying the
Cauchy-Riemann operator, its right-handed version, or the hypercomplex
derivative keeps expressions inside the same closed symbol family.

There is one ``SteeringSymbol`` object per symbol value (kind, bar, power,
rate): the constructor hands back the live object of its value, so equality
and hashing of symbols are identity, and a symbol's derivative and conjugate
are worked out once and kept on it.

This module also houses the constructors: exponential / trigonometric /
power-steering polymonogenic solutions, two-sided monogenic solutions,
hypercomplex-derivative eigenfunctions, and solutions of constant
coefficient equations in the hypercomplex derivative.  Each completes a z
side, terms phi(z) A with phi unbarred (the exp, trig and power families are
presets), by one rule: a seed term phi(z) A with laplacian^n A = 0 gets
the conjugate side

    sum_{k=1..n} c_k (I^(2k-1) phi)(z-bar) dirac_y^(2k-1) A,

where I is the antiderivative in z inside phi's family, in closed form:
z^j -> z^(j+1)/(j+1); cos(rz) -> sin(rz)/r and sin(rz) -> -cos(rz)/r; and
z^j exp(rz) -> exp(rz) sum_i (-1)^i j!/(j-i)! z^(j-i) / r^(i+1).

In R_{0,m}, dirac_y^2 = -laplacian_y, so the tail a target symbol collects,
sum_k w_k dirac_y^(2k-1) A, is dirac_y(sum_k (-1)^(k-1) w_k laplacian_y^(k-1) A):
one Laplacian chain per seed, and one Dirac pass per target symbol.  The series
stops with the seed's own chain, at its first zero power, so its work follows A's
degree, not n; a zero seed has a zero tail and costs neither.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, Mapping, Sequence, Tuple, Union

from .algebra import (
    Multivector,
    ScalarLike,
    e1_sandwich,
    coerce_fraction,
    document_m,
    format_fraction,
    generator_count,
    integer_in,
    json_field,
    json_list,
    parse_ratio,
    quoted,
)
from .polynomials import CliffordPolynomial, DiracOperand, NumeratorForm

KIND_POWEXP = "powexp"
KIND_COS = "cos"
KIND_SIN = "sin"

_KIND_ORDER = {KIND_POWEXP: 0, KIND_COS: 1, KIND_SIN: 2}

CoefficientLike = Union[CliffordPolynomial, Multivector, int, Fraction]


# (kind, bar, power, rate) -> the one symbol of that value, while anything holds it
_SYMBOLS = weakref.WeakValueDictionary()


class SteeringSymbol:
    """Canonical token for z^j*exp(r*z), cos(r*z), sin(r*z) and conjugates.

    ``bar`` marks that the argument is z-bar.  The constant function 1 is
    the unique power/exp symbol with power 0 and rate 0; its bar flag is
    forced to False so that it has a single representation.

    There is one object per symbol value: the constructor checks the fields,
    then returns the live symbol with the same (kind, bar, power, rate), or
    makes and keeps a new one.  Equality and hashing are therefore identity.
    A symbol is immutable, and its derivative and its conjugate are worked
    out once and kept on it.
    """

    __slots__ = ("kind", "bar", "power", "rate", "_derivative", "_twin", "__weakref__")

    def __new__(
        cls, kind: str, bar: bool = False, power: int = 0, rate: ScalarLike = 0
    ) -> "SteeringSymbol":
        if type(kind) is not str or kind not in _KIND_ORDER:  # a list has no hash
            raise ValueError(f"unknown symbol kind {quoted(kind)}")
        rate = coerce_fraction(rate)
        integer_in(power, 0, None, "symbol power")
        if type(bar) is not bool:
            raise ValueError("symbol bar flag must be true or false")
        if kind != KIND_POWEXP:
            if power:
                raise ValueError("trigonometric symbols carry no power")
            if rate.numerator <= 0:  # cos(-rz) = cos(rz), sin(-rz) = -sin(rz): one symbol each
                raise ValueError("trigonometric symbols need a positive rate")
        elif power == 0 and not rate:
            bar = False
        key = (kind, bar, power, rate)
        sym = _SYMBOLS.get(key)
        if sym is None:
            # the one place a symbol is made
            sym = object.__new__(cls)
            for name, value in zip(cls.__slots__, key + (None, None)):
                object.__setattr__(sym, name, value)
            _SYMBOLS[key] = sym
        return sym

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable symbol")

    __delattr__ = __setattr__  # nor delete one

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__[:4])
        return f"SteeringSymbol({fields})"

    def __reduce__(self):
        # copies and pickles go through the constructor, so they are this object
        return SteeringSymbol, (self.kind, self.bar, self.power, self.rate)

    @classmethod
    def power_exp(
        cls, power: int = 0, rate: ScalarLike = 0, bar: bool = False
    ) -> "SteeringSymbol":
        return cls(KIND_POWEXP, bar=bar, power=power, rate=rate)

    @classmethod
    def cosine(cls, rate: ScalarLike, bar: bool = False) -> "SteeringSymbol":
        return cls(KIND_COS, bar=bar, rate=rate)

    @classmethod
    def sine(cls, rate: ScalarLike, bar: bool = False) -> "SteeringSymbol":
        return cls(KIND_SIN, bar=bar, rate=rate)

    @classmethod
    def constant(cls) -> "SteeringSymbol":
        return cls(KIND_POWEXP)

    def conjugate(self) -> "SteeringSymbol":
        twin = self._twin
        if twin is None:  # the constant is its own twin: the constructor drops its bar
            twin = SteeringSymbol(self.kind, not self.bar, self.power, self.rate)
            object.__setattr__(self, "_twin", twin)
            object.__setattr__(twin, "_twin", self)
        return twin

    def value_at_origin(self) -> Fraction:
        if self.kind == KIND_SIN:
            return Fraction(0)
        if self.kind == KIND_COS:
            return Fraction(1)
        return Fraction(1) if self.power == 0 else Fraction(0)

    def _dz(self) -> Tuple[Tuple[Fraction, "SteeringSymbol"], ...]:
        # derivative with respect to the complex-like argument (z or z-bar),
        # worked out on the first call and kept
        if self._derivative is not None:
            return self._derivative
        r, j, bar = self.rate, self.power, self.bar
        if self.kind == KIND_POWEXP:
            out = ((Fraction(j), SteeringSymbol.power_exp(j - 1, r, bar)),) if j else ()
            if r:
                out += ((r, self),)
        elif self.kind == KIND_COS:
            out = ((-r, SteeringSymbol.sine(r, bar)),)
        else:
            out = ((r, SteeringSymbol.cosine(r, bar)),)
        object.__setattr__(self, "_derivative", out)
        return out

    def _antiderivative(self, times: int) -> Tuple[Tuple[Fraction, "SteeringSymbol"], ...]:
        # I^times in the argument, a right inverse of _dz^times on the family
        r, j, bar = self.rate, self.power, self.bar
        if self.kind != KIND_POWEXP:
            # cos, sin, -cos, -sin: each step of I moves one place, over r
            step = (self.kind == KIND_SIN) + times
            make = SteeringSymbol.sine if step % 2 else SteeringSymbol.cosine
            return (((-1 if step % 4 > 1 else 1) / r**times, make(r, bar)),)
        if not r:
            q = Fraction(factorial(j), factorial(j + times))
            return ((q, SteeringSymbol.power_exp(j + times, 0, bar)),)
        out = []
        for i in range(j + 1):
            q = (-1) ** i * comb(times + i - 1, i) * factorial(j) // factorial(j - i)
            out.append((q / r ** (times + i), SteeringSymbol.power_exp(j - i, r, bar)))
        return tuple(out)

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.rate, self.power, self.bar)

    def to_obj(self) -> dict:
        return {
            "bar": self.bar,
            "kind": self.kind,
            "power": self.power,
            "rate": format_fraction(self.rate),
        }

    @classmethod
    def from_obj(cls, obj: Mapping) -> "SteeringSymbol":
        return cls(
            json_field(obj, "kind", "steering symbol document"),
            bar=obj.get("bar", False),
            power=obj.get("power", 0),
            rate=Fraction(*parse_ratio(obj.get("rate", 0), "symbol rate")),
        )

    def __str__(self) -> str:
        arg = "zb" if self.bar else "z"
        if self.kind == KIND_COS:
            return f"cos({format_fraction(self.rate)}*{arg})"
        if self.kind == KIND_SIN:
            return f"sin({format_fraction(self.rate)}*{arg})"
        parts = []
        if self.power:
            parts.append(arg if self.power == 1 else f"{arg}^{self.power}")
        if self.rate:
            parts.append(f"exp({format_fraction(self.rate)}*{arg})")
        return "*".join(parts) if parts else "1"


class SteeringExpression(DiracOperand):
    """Immutable finite sum of symbol * y-polynomial terms."""

    __slots__ = ()
    _order = staticmethod(SteeringSymbol.sort_key)

    def __init__(
        self,
        m: int,
        terms: Mapping[SteeringSymbol, CoefficientLike] | Iterable = (),
    ):
        pairs = []
        y_scope = range(2, generator_count(m) + 1)
        for sym, coef in terms.items() if isinstance(terms, Mapping) else terms:
            if not isinstance(sym, SteeringSymbol):
                raise TypeError(f"term keys must be SteeringSymbol, got {type(sym).__name__}")
            if not isinstance(coef, CliffordPolynomial):
                coef = CliffordPolynomial.constant(m, coef)
            if coef.m != m:
                raise ValueError(f"coefficient dimension mismatch: m={coef.m} vs m={m}")
            if coef:  # skipped here, since the merge would hash its symbol for nothing
                pairs.append((sym, coef.restrict_scope(y_scope)))
        super().__init__(m, pairs)

    def _lift(self, other):
        return other if isinstance(other, SteeringExpression) else None

    @classmethod
    def zero(cls, m: int) -> "SteeringExpression":
        return cls(m)

    # -- access -----------------------------------------------------------------

    def coefficient(self, sym: SteeringSymbol) -> CliffordPolynomial:
        return self._terms.get(sym, CliffordPolynomial.zero(self.m, range(2, self.m + 1)))

    def symbols(self) -> Tuple[SteeringSymbol, ...]:
        return tuple(sym for sym, _ in self._ordered(self._terms))

    # -- blade multiplication -------------------------------------------------------

    def _times(self, other, left: bool):
        if isinstance(other, Multivector):
            return self.lmul(other) if left else self.rmul(other)
        return NotImplemented

    def lmul(self, b: Multivector) -> "SteeringExpression":
        """Left multiplication by a multivector.

        Blades with an odd number of generators of index >= 2 flip every
        symbol's bar before landing on the coefficient; e_1 never flips.
        """
        self._require_same_m(b)
        out: list = []
        for mask, q in b.items():
            single = Multivector(self.m, {mask: q})
            flips = bool((mask & ~1).bit_count() & 1)
            for sym, poly in self._terms.items():
                key = sym.conjugate() if flips else sym
                out.append((key, single * poly))
        return SteeringExpression(self.m, out)

    def rmul(self, b: Multivector) -> "SteeringExpression":
        """Right multiplication by a multivector (no bar flips)."""
        self._require_same_m(b)
        return SteeringExpression(
            self.m, [(sym, poly * b) for sym, poly in self._terms.items()]
        )

    # -- differential operators -------------------------------------------------------

    def partial(self, index: int) -> "SteeringExpression":
        """d/dx_index: hits the symbols for index 0, 1 and the coefficients else."""
        if integer_in(index, 0, self.m, "variable index") < 2:
            # x_1 brings e_1, and d(z-bar)/dx_1 = -e_1 flips its sign on barred symbols
            out = []
            for sym, poly in self._terms.items():
                for q, dsym in sym._dz():
                    if index == 0:
                        factor = Multivector.scalar(self.m, q)
                    else:
                        factor = Multivector.blade(self.m, (1,), -q if sym.bar else q)
                    out.append((dsym, factor * poly))
            return SteeringExpression(self.m, out)
        return SteeringExpression(
            self.m, [(sym, poly.partial(index)) for sym, poly in self._terms.items()]
        )

    def at_origin(self) -> Multivector:
        """Value of the expression at X = 0."""
        total = Multivector.zero(self.m)
        for sym, poly in self._terms.items():
            v = sym.value_at_origin()
            if v:
                total = total + poly.constant_term() * v
        return total

    # -- serialization -----------------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "m": self.m,
            "terms": [
                {"symbol": sym.to_obj(), "coef": poly.to_obj()}
                for sym, poly in self._ordered(self._terms)
            ],
        }

    @classmethod
    def from_obj(cls, obj: Mapping) -> "SteeringExpression":
        """Decode a document: the JSON shapes are checked here, every rule of
        an expression once, by the constructor; each coefficient is decoded as
        ``CliffordPolynomial.from_obj`` decodes it, as integers."""
        m = document_m(obj, "steering expression")
        pairs = []
        what = "steering expression term"
        for entry in json_list(obj.get("terms", []), "steering expression field 'terms'"):
            sym = SteeringSymbol.from_obj(json_field(entry, "symbol", what))
            pairs.append((sym, CliffordPolynomial.from_obj(json_field(entry, "coef", what))))
        expr = cls(m, pairs)
        cls._decoded(expr._terms, pairs, lambda sym: f"symbol {sym}")
        return expr

    def _term_str(self, sym: SteeringSymbol, poly: CliffordPolynomial) -> str:
        return f"{sym}*({poly})"


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _c(k: int) -> Fraction:
    # the paper's recursion c_1 = -1/2, c_k = -(1/2^k) sum_{j=1..k//2} sum_{i=1..j}
    # C(k+1,2j+1) C(j,i) c_{k-i} has the closed form c_k = -C(1/2, k), the Taylor
    # coefficients of 1 - sqrt(1+t): c_k = (-1)^k C(2k-2, k-1) / (k 2^(2k-1));
    # every caller checks that k >= 1
    return Fraction((-1) ** k * comb(2 * k - 2, k - 1), k << (2 * k - 1))


@dataclass(frozen=True)
class CoefficientTable:
    """The recursion coefficients scaling the z-bar side of exponential solutions."""

    n: int
    c: Tuple[Fraction, ...]

    def to_obj(self) -> dict:
        return {"n": self.n, "c": [format_fraction(q) for q in self.c]}


def ck_table(n: int) -> CoefficientTable:
    """Exact table c_1..c_n of the recursion coefficients."""
    integer_in(n, 1, None, "table length")
    return CoefficientTable(n, tuple(_c(k) for k in range(1, n + 1)))


def power_coefficient(j: int, k: int) -> Fraction:
    """Coefficient of the (2j-1)-th Dirac power in the k-th conjugate term
    of a power-steering solution: c_j / ((2j-1)! * C(k, k-2j+1))."""
    integer_in(k, 2 * integer_in(j, 1, None, "Dirac power index j") - 1, None, "term index k")
    return _c(j) / (factorial(2 * j - 1) * comb(k, k - 2 * j + 1))


IntPoly = Tuple[int, ...]


def tn_closed_form(n: int) -> Tuple[Tuple[IntPoly, IntPoly], Tuple[IntPoly, IntPoly]]:
    """Closed form of the n-th power of the 2x2 operator matrix [[0, x], [x, 2]].

    Entries are integer coefficient sequences (constant term first).  Must
    agree with the brute-force matrix power in the commutative ring Z[x].
    """
    integer_in(n, 2, None, "matrix power n")  # n = 1 is the base matrix

    def double_sum(binomial_top: int, power_offset: int, k_max: int) -> IntPoly:
        # every k here has 2k + 1 <= binomial_top, so each binomial is positive
        coeffs: dict[int, int] = {}
        for k in range(k_max + 1):
            top = comb(binomial_top, 2 * k + 1)
            for j in range(k + 1):
                deg = 2 * j + power_offset
                coeffs[deg] = coeffs.get(deg, 0) + top * comb(k, j)
        out = [0] * (max(coeffs) + 1)
        for d, c in coeffs.items():
            out[d] = c
        return tuple(out)

    top_left = double_sum(n - 1, 2, (n - 2) // 2)
    off_diag = double_sum(n, 1, (n - 1) // 2)
    bottom_right = double_sum(n + 1, 0, n // 2)
    return ((top_left, off_diag), (off_diag, bottom_right))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _as_steering_seed(poly: CliffordPolynomial, what: str) -> CliffordPolynomial:
    if not isinstance(poly, CliffordPolynomial):
        raise TypeError(f"{what} must be a CliffordPolynomial")
    try:
        return poly.restrict_scope(range(2, poly.m + 1))
    except ValueError as exc:
        raise ValueError(f"{what} must depend on x2..x{poly.m} only ({exc})") from None


def _require_polyharmonic(seed: CliffordPolynomial, order: int, what: str) -> list:
    # the nonzero powers seed, laplacian seed, .. the conjugate side is built from:
    # the chain ends at its first zero power, which must come by laplacian^order,
    # so its work follows the seed's degree; a zero seed has no power, and no pass
    chain = [NumeratorForm(seed)] if seed else []
    while chain and not (power := chain[-1].laplacian()).is_zero():
        if len(chain) == order:
            raise ValueError(f"{what} is not annihilated by laplacian^{order}")
        chain.append(power)
    return chain


def _require_monogenic(seed: CliffordPolynomial, side: str, what: str) -> None:
    if not NumeratorForm(seed).dirac(side, y_only=True).is_zero():
        raise ValueError(f"{what} is not {side} monogenic in the y variables")


@lru_cache(maxsize=1024)
def _conjugate_side(sym: SteeringSymbol, order: int) -> tuple:
    # (barred target, ((k, c_k * weight), ...)) of every target that I^(2k-1) sym
    # reaches for k = 1..order; integrate first, then conjugate, since the
    # constant 1 has no barred form
    out: dict = {}
    for k in range(1, order + 1):
        for weight, target in sym._antiderivative(2 * k - 1):
            out.setdefault(target.conjugate(), []).append((k, _c(k) * weight))
    return tuple((target, tuple(parts)) for target, parts in out.items())


def _steering_terms(pairs: Sequence[tuple], two_sided: bool = False) -> list:
    # (symbol, A) and the conjugate side of each (symbol, nonzero powers A, laplacian_y A,
    # ..) pair: chain[k-1] at link k, one sum over one denominator per target and one
    # Dirac pass on it; a zero seed's chain is empty, and it costs nothing.  A two-sided
    # pair holds the forms of M and e1 M e1 instead: A = M - e1 M e1 is summed by the
    # same rule and built once, and its form is the chain
    terms, parts = [], {}
    for sym, chain in pairs:
        if two_sided:
            power = NumeratorForm.combine(chain[0].f, [(chain[0], 1), (chain[1], -1)])
            chain = [] if power.is_zero() else [NumeratorForm(power.build())]
        if not chain:
            continue
        terms.append((sym, chain[0].f))
        for target, weights in _conjugate_side(sym, len(chain)):
            parts.setdefault(target, []).extend(
                (chain[k - 1], -w if k % 2 == 0 else w) for k, w in weights
            )
    return terms + [
        (target, NumeratorForm.combine(forms[0][0].f, forms).dirac("left", y_only=True).build())
        for target, forms in parts.items()
    ]


def _built(m: int, terms: list) -> SteeringExpression:
    # the expression of (symbol, polynomial) terms the package made, each over the
    # y scope at m, where no check of the constructor can fail: only its merge runs,
    # which drops zeros and adds through + only where two terms share a symbol
    return SteeringExpression._unsafe(m, SteeringExpression.merge_terms({}, terms))


def _family(family: str, seeds) -> list:
    # the z side of a family at rate 1, as (name refusals give the seed, symbol,
    # seed) triples; power runs at rate 0
    if family == "exp":
        return [("seed", SteeringSymbol.power_exp(0, 1), seeds)]
    if family == "trig":
        seed_cos, seed_sin = seeds
        cos, sin = SteeringSymbol.cosine(1), SteeringSymbol.sine(1)
        return [("cos seed", cos, seed_cos), ("sin seed", sin, seed_sin)]
    if family == "power":
        return [(f"seed {i}", SteeringSymbol.power_exp(i), seed) for i, seed in enumerate(seeds)]
    raise ValueError(f"unknown steering family {family!r}")


def _construct(z_side: Sequence[tuple], order: int = 1, side: str = "left") -> SteeringExpression:
    # the one construction path, from the z side: a (name, unbarred symbol, seed)
    # triple per term; side "left" needs laplacian^order of every seed to vanish,
    # side "both" needs right monogenic seeds and builds on M - e1 M e1
    integer_in(order, 1, None, "order")
    clean = [_as_steering_seed(seed, what) for what, _, seed in z_side]
    if not clean:
        raise ValueError("at least one seed is required")
    m = clean[0].m
    pairs = []
    for (what, sym, _), seed in zip(z_side, clean):
        if seed.m != m:
            raise ValueError(f"dimension mismatch: m={m} vs m={seed.m}")
        if side == "left":
            pairs.append((sym, _require_polyharmonic(seed, order, what)))
        else:
            _require_monogenic(seed, "right", what)
            pairs.append((sym, [NumeratorForm(seed), NumeratorForm(e1_sandwich(seed))]))
    return _built(m, _steering_terms(pairs, side == "both"))


def construct_exp_left(seed: CliffordPolynomial, order: int) -> SteeringExpression:
    """exp(z)H + exp(zb) sum_k c_k dirac^(2k-1) H, left n-monogenic for
    every H with laplacian^n H = 0."""
    return _construct(_family("exp", seed), order)


def construct_trig_left(
    seed_cos: CliffordPolynomial, seed_sin: CliffordPolynomial, order: int
) -> SteeringExpression:
    """cos(z)A1 + sin(z)B1 + cos(zb)A2 + sin(zb)B2 with the alternating-sign
    conjugate tails A2 = sum (-1)^k c_k dirac^(2k-1) B1 and
    B2 = sum (-1)^(k+1) c_k dirac^(2k-1) A1."""
    return _construct(_family("trig", (seed_cos, seed_sin)), order)


def construct_power_left(
    seeds: Sequence[CliffordPolynomial], order: int
) -> SteeringExpression:
    """A0 + sum_k (z^k A_k + zb^k B_k) with
    B_k = sum_j c_j / ((2j-1)! C(k, k-2j+1)) dirac^(2j-1) A_{k-2j+1}.

    The conjugate series stops with each seed's own Laplacian chain, and
    seeds past the list are zero: no B_k with k > K + 2n - 1 is built.
    """
    return _construct(_family("power", seeds), order)


def construct_two_sided(family: str, seeds) -> SteeringExpression:
    """Two-sided monogenic solutions built from right monogenic seeds.

    ``family`` selects the steering family: "exp" takes a single seed M,
    "trig" a pair (M, N) and "power" a sequence (M_0, M_1, ...).  The
    result is the order-1 left construction of that family on the
    differences M - e1 M e1, which are harmonic and whose left Dirac
    derivatives supply the conjugate-side coefficients.
    """
    return _construct(_family(family, seeds), side="both")


def construct_eigen(rate: ScalarLike, seed: CliffordPolynomial) -> SteeringExpression:
    """exp(r z)H - (1/2r) exp(r zb) dirac H: a left monogenic eigenfunction
    of the hypercomplex derivative with eigenvalue r."""
    if not coerce_fraction(rate):
        raise ValueError("eigenvalue rate must be nonzero")
    return _construct([("seed", SteeringSymbol.power_exp(0, rate), seed)])


# ---------------------------------------------------------------------------
# constant coefficient equations in the hypercomplex derivative
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootSpec:
    """One declared root of the characteristic polynomial.

    A nonzero root may carry a harmonic seed H (the eigenfunction pair
    exp(r z)H - (1/2r)exp(r zb) dirac H) plus up to ``multiplicity``
    monogenic seeds M_k feeding z^k exp(r z) M_k terms.  The zero root
    carries monogenic seeds only, feeding plain z^k M_k terms.
    """

    value: Fraction
    multiplicity: int = 1
    harmonic_seed: CliffordPolynomial | None = None
    monogenic_seeds: Tuple[CliffordPolynomial, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "value", coerce_fraction(self.value))
        integer_in(self.multiplicity, 1, None, "multiplicity")
        object.__setattr__(self, "monogenic_seeds", tuple(self.monogenic_seeds))


@dataclass(frozen=True)
class DSolveSpec:
    """Constant coefficients a_0..a_n plus declared, seed-carrying roots."""

    m: int
    coeffs: Tuple[Fraction, ...]
    roots: Tuple[RootSpec, ...]

    def __post_init__(self):
        coeffs = tuple(coerce_fraction(c) for c in self.coeffs)
        if len(coeffs) < 2:
            raise ValueError("need at least degree 1 (two coefficients)")
        if not coeffs[0]:
            raise ValueError("leading coefficient a0 must be nonzero")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "roots", tuple(self.roots))


def _verify_root(coeffs: Sequence[Fraction], r: Fraction, multiplicity: int) -> None:
    # dsolve has checked that the multiplicities sum to at most the degree
    work = list(coeffs)
    for stage in range(multiplicity):
        # synthetic division by (x - r) in place; the last entry is the remainder
        for i in range(1, len(work)):
            work[i] += work[i - 1] * r
        if work.pop():
            raise ValueError(
                f"{r} is not a root of the characteristic polynomial to multiplicity "
                f"{multiplicity} (division fails at stage {stage + 1})"
            )


def dsolve(spec: DSolveSpec) -> SteeringExpression:
    """Steering-type solution of a_0 D^n f + ... + a_n f = 0.

    Every declared root is verified exactly against the characteristic
    polynomial before any term is built; every seed is checked against its
    own precondition (harmonic for eigen pairs, left monogenic in y for
    the z-power terms).
    """
    n = len(spec.coeffs) - 1
    total_multiplicity = sum(r.multiplicity for r in spec.roots)
    if total_multiplicity > n:
        raise ValueError(
            f"declared multiplicities sum to {total_multiplicity} > degree {n}"
        )
    seen = set()
    for root in spec.roots:
        if root.value in seen:
            raise ValueError(f"root {root.value} declared more than once")
        seen.add(root.value)
        _verify_root(spec.coeffs, root.value, root.multiplicity)

    def read(seed, what):
        seed = _as_steering_seed(seed, what)
        if seed.m != spec.m:
            raise ValueError(f"{what}: dimension mismatch: m={seed.m} vs m={spec.m}")
        return seed

    terms, pairs = [], []
    for root in spec.roots:
        r = root.value
        if len(root.monogenic_seeds) > root.multiplicity:
            raise ValueError(
                f"root {r}: {len(root.monogenic_seeds)} monogenic seeds exceed "
                f"multiplicity {root.multiplicity}"
            )
        if root.harmonic_seed is not None:
            if not r:
                raise ValueError(
                    "the zero root takes monogenic seeds only (the eigen pair needs 1/(2*rate))"
                )
            h = read(root.harmonic_seed, f"root {r} harmonic seed")
            chain = _require_polyharmonic(h, 1, f"root {r} harmonic seed")
            pairs.append((SteeringSymbol.power_exp(0, r), chain))
        for k, seed in enumerate(root.monogenic_seeds):
            mk = read(seed, f"root {r} seed {k}")
            if not mk:
                continue
            _require_monogenic(mk, "left", f"root {r} seed {k}")
            terms.append((SteeringSymbol.power_exp(k, r), mk))
    return _built(spec.m, terms + _steering_terms(pairs))
