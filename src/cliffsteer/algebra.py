"""Exact arithmetic in the universal real Clifford algebra R_{0,m}.

Generators e_1..e_m obey e_j^2 = -1 and e_i e_j = -e_j e_i for i != j.
A basis blade e_A = e_{j_1}...e_{j_k} (j_1 < ... < j_k) is stored as a bit
mask with bit j-1 standing for generator e_j; the empty mask is the scalar
unit.  Multiplying two blades costs O(m) word operations: the sign is the
parity of the transpositions needed to merge the two masks, plus one flip
per generator that squares away, and the resulting mask is the symmetric
difference of the inputs.

Coefficients are fractions.Fraction throughout; there is no floating point
mode.  ``TermMap`` is the base of every term map (multivector, polynomial,
steering expression): it holds the linear structure they share and
``merge_terms``, the one rule that sums like terms and drops exact zeros.
Term maps are immutable: every operation builds a new object, so values can
be shared freely between threads.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Tuple, Union

MIN_GENERATORS = 2
MAX_GENERATORS = 16
MAX_DIGITS = sys.int_info.default_max_str_digits

ScalarLike = Union[int, Fraction]

_ZERO = Fraction(0)

# PARITY[mask] is mask.bit_count() & 1 for every mask of MAX_GENERATORS bits: the
# table for one more bit is the table so far, then it again with each entry flipped
PARITY = b"\0"
while len(PARITY) < 1 << MAX_GENERATORS:
    PARITY += PARITY.translate(b"\1\0" + bytes(254))


def coerce_fraction(value: ScalarLike) -> Fraction:
    """Return ``value`` as a Fraction, rejecting floats and other inexact types."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(
        f"expected an exact rational (int or Fraction), got {type(value).__name__}"
    )


def format_fraction(value: Fraction) -> str:
    """Canonical decimal-free encoding used by every JSON document."""
    return f"{value.numerator}/{value.denominator}"


def quoted(value) -> str:
    """``value`` as an error shows it: its repr cut after 20 characters, a string's in quotes."""
    text = repr(value)
    cut = repr(value[:20]) if isinstance(value, str) else text[:20]
    return text if cut == text else f"{cut}..."


def parse_fraction(raw: object, what: str = "fraction") -> Fraction:
    """Parse a "num/den" string (or bare integer) into a Fraction; ``what`` names it."""
    if isinstance(raw, str):
        if "e" in raw or "E" in raw:  # "1e30000000" alone is a 30-million-digit integer
            raise ValueError(f"{what} {quoted(raw)} uses exponent notation; write it as num/den")
        if len(raw) > MAX_DIGITS:  # no shorter string has a part with too many digits
            digits = max(sum(c.isdigit() for c in part) for part in raw.split("/"))
            if digits > MAX_DIGITS:
                raise OverflowError(
                    f"{what} {quoted(raw)} has {digits} digits, over the limit of {MAX_DIGITS}"
                )
        try:
            return Fraction(raw)
        except ValueError:  # Fraction's own message shows the whole string
            raise ValueError(f"Invalid literal for Fraction: {quoted(raw)}") from None
        except ZeroDivisionError:  # Fraction's own message names no value
            raise ZeroDivisionError(f"{what} {quoted(raw)} has a zero denominator") from None
    if isinstance(raw, int) and not isinstance(raw, bool):
        return Fraction(raw)
    raise TypeError(f"fractions must be encoded as strings, got {type(raw).__name__}")


def parse_ratio(raw: object, what: str = "fraction") -> Tuple[int, int]:
    """``parse_fraction(raw, what)`` as (numerator, denominator) in lowest terms.
    The spelling ``format_fraction`` writes, ASCII ``-?digits/digits``, is read
    with two ``int`` calls and no Fraction; every other spelling, and every
    refusal, is ``parse_fraction``'s."""
    if type(raw) is str and len(raw) <= MAX_DIGITS and raw.isascii():
        num, slash, den = raw.partition("/")
        if slash and den.isdigit() and (num[1:] if num[:1] == "-" else num).isdigit():
            try:  # int refuses fewer digits than MAX_DIGITS if the process limit is lower
                n, d = int(num), int(den)
            except ValueError:
                n = d = 0
            if d:
                g = gcd(n, d)
                return n // g, d // g
    q = parse_fraction(raw, what)
    return q.numerator, q.denominator


def blade_product(a: int, b: int) -> Tuple[int, int]:
    """Sign and mask of e_A * e_B for blade masks ``a`` and ``b``.

    The transposition count is sum over s >= 1 of popcount((a >> s) & b):
    each pair (j in A, i in B) with j > i is counted exactly once, at shift
    s = j - i.  Every generator common to both masks then squares to -1,
    flipping the sign once more.
    """
    swaps = 0
    t = a >> 1
    while t:
        swaps += (t & b).bit_count()
        t >>= 1
    sign = -1 if (swaps + (a & b).bit_count()) & 1 else 1
    return sign, a ^ b


def conjugation_sign(mask: int) -> int:
    """(-1)^(k(k+1)/2) for a blade of grade k."""
    k = mask.bit_count()
    return -1 if (k * (k + 1) // 2) & 1 else 1


def mask_from_indices(indices: Iterable[int], m: int) -> int:
    mask = 0
    previous = 0
    for j in indices:
        if integer_in(j, 1, m, "generator index") <= previous:
            raise ValueError("blade indices must be strictly increasing")
        mask |= 1 << (j - 1)
        previous = j
    return mask


def json_object(value, what: str) -> Mapping:
    """``value``, checked to be a JSON object; ``what`` names it in errors."""
    if not isinstance(value, dict) and not isinstance(value, Mapping):  # dict: no ABC lookup
        raise TypeError(f"{what} must be a JSON object")
    return value


def json_list(value, what: str) -> list:
    """``value``, checked to be a JSON list; ``what`` names it in errors."""
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a JSON list")
    return value


def json_field(obj, key: str, what: str):
    """``obj[key]``, ``obj`` checked to be a JSON object; ``what`` names it in errors."""
    try:
        return obj[key]
    except (KeyError, TypeError):  # a JSON list, string or number has no fields
        json_object(obj, what)
        raise ValueError(f"{what}: missing field {key!r}") from None


def document_m(obj, kind: str) -> int:
    """The checked generator count of a JSON document; ``kind`` names it in errors."""
    m = json_field(obj, "m", f"{kind} document")
    return generator_count(m, f"{kind} field 'm'")


def integer_in(value, least: int, most: int | None, what: str) -> int:
    """``value``, checked to be an int (not a bool) in least..most, or of at least
    ``least`` when ``most`` is None; ``what`` names it in errors.  The one check
    of every integer bound in the package."""
    if type(value) is not int or value < least or most is not None and value > most:
        bound = f"of at least {least}" if most is None else f"in {least}..{most}"
        raise ValueError(f"{what} must be an integer {bound}, got {quoted(value)}")
    return value


def generator_count(m, what: str = "generator count") -> int:
    """``m``, checked to be a generator count the package supports; ``what`` names it."""
    return integer_in(m, MIN_GENERATORS, MAX_GENERATORS, what)


def indices_from_mask(mask: int) -> Tuple[int, ...]:
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


class TermMap:
    """Immutable map from keys to nonzero coefficients over R_{0,m}: the base of
    multivectors, polynomials and steering expressions, three rational vector
    spaces whose ``+``, ``-``, ``==``, ``*`` and ``/`` by a rational and ``str``
    are defined here once.  A subclass checks its keys in ``__init__``, turns
    each operand it accepts into its own type in ``_lift`` (None for any other),
    carries its metadata into results in ``_like``, multiplies by every other
    operand it takes in ``_times`` and writes one term in ``_term_str``.  Terms
    stay in merge order: the writers sort them, through ``_ordered``.  ``len``
    and ``bool`` read ``_keys``, the keys of ``_terms``, so a subclass making its
    coefficients on their first read answers both without making them."""

    __slots__ = ("m", "_terms")
    _order = None  # sort key of the canonical order, read by _ordered; None sorts by value

    def __init__(self, m: int, pairs: Iterable):
        # pairs must hold checked keys and coefficients of the subclass's type
        self.m, self._terms = m, self.merge_terms({}, pairs)

    @classmethod
    def _unsafe(cls, m: int, data: dict):
        out = object.__new__(cls)  # data: validated, free of zeros, and kept as it is
        out.m, out._terms = m, data
        return out

    @classmethod
    def _ordered(cls, terms: dict) -> list:
        """The (key, value) items of ``terms``, keyed as this class's terms are, in
        canonical order, as ``str`` and ``to_obj`` write them."""
        return [(k, terms[k]) for k in sorted(terms, key=cls._order)]

    @staticmethod
    def merge_terms(data: dict, pairs: Iterable) -> dict:
        """Add each (key, coefficient) of ``pairs`` into ``data``, dropping every
        key whose sum is zero; the one place where like terms are summed."""
        for key, c in pairs:
            old = data.get(key)
            acc = c if old is None else old + c
            if acc:
                data[key] = acc
            elif old is not None:
                del data[key]
        return data

    @staticmethod
    def _decoded(data: dict, pairs: list, name) -> dict:
        """``data``, the terms built from a document's (key, coefficient) ``pairs``,
        or an error if the document listed a key twice or with a zero coefficient,
        which the build overwrote, summed or dropped; ``name`` writes a key."""
        if len(data) < len(pairs):
            seen = set()
            for key, c in pairs:
                if not c or key in seen:
                    problem = "is listed more than once" if c else "has a zero coefficient"
                    raise ValueError(f"{name(key)} {problem}")
                seen.add(key)
        return data

    def _like(self, other, data: dict):
        """A value of this type and ``m`` holding ``data``, made from ``self`` and ``other``."""
        return self._unsafe(self.m, data)

    def items(self) -> Iterator[tuple]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._keys)

    def __bool__(self) -> bool:
        return bool(self._keys)

    def _require_same_m(self, other) -> None:
        if self.m != other.m:
            raise ValueError(f"dimension mismatch: m={self.m} vs m={other.m}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(m={self.m}, {self})"

    def __str__(self) -> str:
        return " + ".join(self._term_str(k, c) for k, c in self._ordered(self._terms)) or "0"

    # -- linear structure ----------------------------------------------------

    def __eq__(self, other: object):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.m == other.m and self._terms == other._terms

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        self._require_same_m(other)
        return self._like(other, self.merge_terms(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._like(self, {k: -v for k, v in self._terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def _scale(self, value: ScalarLike):
        q = coerce_fraction(value)
        if not q:
            return self._like(self, {})
        return self._like(self, {k: v * q for k, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        return self._times(other, False)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        return self._times(other, True)

    def _times(self, other, left: bool):
        """``other * self`` if ``left``, else ``self * other``, for an ``other``
        that is not a rational; NotImplemented for any the subclass does not take."""
        return NotImplemented

    def __truediv__(self, other):
        q = coerce_fraction(other)
        if not q:
            raise ZeroDivisionError(f"division of a {type(self).__name__} by zero")
        return self._scale(Fraction(1) / q)


# the _terms slot itself, read as fast as _terms is
TermMap._keys = TermMap._terms


class Multivector(TermMap):
    """Immutable sparse element of R_{0,m}.

    ``terms`` maps blade masks to nonzero rational coefficients; the zero
    multivector has an empty mapping.  A rational operand is the scalar
    multivector.
    """

    __slots__ = ()

    def __init__(self, m: int, terms: Mapping[int, ScalarLike] | Iterable = ()):
        top = (1 << generator_count(m)) - 1
        pairs = []
        for mask, coef in terms.items() if isinstance(terms, Mapping) else terms:
            pairs.append((integer_in(mask, 0, top, "blade mask"), coerce_fraction(coef)))
        super().__init__(m, pairs)

    @classmethod
    def zero(cls, m: int) -> "Multivector":
        return cls(m)

    @classmethod
    def scalar(cls, m: int, value: ScalarLike) -> "Multivector":
        return cls(m, {0: value})

    @classmethod
    def blade(cls, m: int, indices: Iterable[int], coef: ScalarLike = 1) -> "Multivector":
        return cls(m, {mask_from_indices(indices, m): coef})

    def _lift(self, other):
        if isinstance(other, Multivector):
            return other
        if isinstance(other, (int, Fraction)):
            return Multivector.scalar(self.m, other)
        return None

    # -- ring structure ------------------------------------------------------

    def __mul__(self, other):
        """The geometric product; every other operand is ``TermMap``'s.

        A term c e_B of one factor relabels the other's blades e_A as
        +-e_(A xor B), one to one, since XOR with B is a bijection.  So the
        product is one signed relabel of the longer factor per term of the
        shorter: the first is written straight into the output, and only later
        ones are merged.  A unit c reuses or negates each coefficient."""
        if not isinstance(other, Multivector):
            return super().__mul__(other)
        self._require_same_m(other)
        a, b = self._terms, other._terms
        left = len(a) <= len(b)  # the shorter factor's terms act on the left
        short, terms = (a, b) if left else (b, a)
        data: dict = {}
        for mask, c in short.items():
            flip = c == -1
            scale = not flip and c != 1
            relabel = {} if data else data
            for key, q in terms.items():
                sign, out = blade_product(mask, key) if left else blade_product(key, mask)
                if scale:
                    q = q * c
                relabel[out] = -q if (sign < 0) is not flip else q
            if relabel is not data:
                self.merge_terms(data, relabel.items())
        return Multivector._unsafe(self.m, data)

    # -- algebra operations ----------------------------------------------------

    def conjugate(self) -> "Multivector":
        """Anti-involution scaling each blade e_A by (-1)^(|A|(|A|+1)/2)."""
        return Multivector._unsafe(
            self.m,
            {
                mask: (q if conjugation_sign(mask) > 0 else -q)
                for mask, q in self._terms.items()
            },
        )

    def grade(self, k: int) -> "Multivector":
        """Projection onto the subspace of k-vectors."""
        integer_in(k, 0, self.m, "grade")
        return Multivector._unsafe(
            self.m, {mask: q for mask, q in self._terms.items() if mask.bit_count() == k}
        )

    def scalar_part(self) -> Fraction:
        return self._terms.get(0, _ZERO)

    def norm_sq(self) -> Fraction:
        """Sum of squared coefficients; equals the scalar part of a*conj(a)."""
        total = _ZERO
        for q in self._terms.values():
            total += q * q
        return total

    # -- serialization ---------------------------------------------------------

    def to_obj(self) -> dict:
        terms = [(mask, q.numerator, q.denominator) for mask, q in self._ordered(self._terms)]
        return blades_obj(self.m, terms)

    @classmethod
    def from_obj(cls, obj: Mapping) -> "Multivector":
        """Decode a document through ``blade_terms``."""
        m, numerators, den = blade_terms(obj)
        return cls._unsafe(m, {mask: Fraction(v, den) for mask, v in numerators.items()})

    def _term_str(self, mask: int, q: Fraction) -> str:
        blade = "*".join(f"e{j}" for j in indices_from_mask(mask))
        return f"({format_fraction(q)}){'*' + blade if blade else ''}"


def blades_obj(m: int, terms: Iterable[Tuple[int, int, int]]) -> dict:
    """The document of a multivector: its (mask, numerator, denominator) terms, in
    canonical order, each written in lowest terms as ``format_fraction`` writes it.
    The one writer of blade terms, for multivectors and polynomial coefficients."""
    out = []
    for mask, v, den in terms:
        g = gcd(v, den)
        out.append({"blades": list(indices_from_mask(mask)), "coef": f"{v // g}/{den // g}"})
    return {"m": m, "terms": out}


def blade_terms(obj) -> Tuple[int, dict, int]:
    """(m, {mask: numerator}, denominator) of a multivector document: its
    coefficients as integer numerators over the lcm of their denominators, read
    by ``parse_ratio``, so no Fraction is made.  The one reader of blade terms,
    for multivectors and polynomial coefficients; ``TermMap._decoded`` refuses
    a blade listed twice or with a zero coefficient."""
    m = document_m(obj, "multivector")
    pairs, numerators, den = [], {}, 1
    for entry in json_list(obj.get("terms", []), "multivector field 'terms'"):
        blades = json_field(entry, "blades", "multivector term")
        mask = mask_from_indices(json_list(blades, "multivector term field 'blades'"), m)
        n, d = parse_ratio(json_field(entry, "coef", "multivector term"), "blade coefficient")
        pairs.append((mask, n))
        if den % d:  # the numerators so far, over the new lcm
            k = lcm(den, d) // den
            numerators = {key: v * k for key, v in numerators.items()}
            den *= k
        if n:
            numerators[mask] = n * (den // d)
    return m, TermMap._decoded(numerators, pairs, _blade_name), den


def _blade_name(mask: int) -> str:
    return f"blade {list(indices_from_mask(mask))}"


def e1_sandwich(a):
    """e_1 * a * e_1; flips the sign of every blade that commutes with e_1.

    ``a`` is a Multivector or anything else with ``m`` that multiplies by
    multivectors on both sides, such as a Clifford polynomial.
    """
    e1 = Multivector.blade(a.m, (1,))
    return e1 * a * e1
