"""Exact arithmetic in the three supported coefficient fields.

Supported fields:

* ``PrimeField(p)``     -- GF(p) for an odd prime p <= 97; payloads are ints in [0, p).
* ``Galois2Field(k)``   -- GF(2^k) for 1 <= k <= 8, arithmetic modulo an
  irreducible polynomial over GF(2); payloads are ints whose binary digits
  are polynomial coefficients (bit i = coefficient of x^i).
* ``RationalFunctionField()`` -- GF(2)(t), reduced fractions of GF(2)[t]
  polynomials; payloads are ``(num, den)`` int pairs in lowest terms with
  nonzero denominator (every nonzero GF(2)[t] polynomial is monic).

Elements are immutable :class:`FieldElement` wrappers around payloads and
support ``+ - * /``.  Fields also expose payload-level ``add/sub/mul/div``
for hot loops.  Square-class queries (``is_square``, ``sqrt``) are exact.
Finite fields intern their elements, one per payload, so wrapping a payload
(:meth:`Field.wrap`) allocates nothing; their product and inverse tables
(:func:`field_tables`) are built once and shared by every equal field.
The same tables drive the batched numpy arithmetic on payload arrays
(``batched._batch_arith``, one per field) that the oracle's enumeration
and the Clifford-algebra checks share.  It lives in its own module, so
numpy is loaded only once the oracle or an explicit matrix model needs it.

Textual literals: fields ``"gf(7)"``, ``"gf(4;x^2+x+1)"``, ``"gf2(t)"``;
elements ``"3"``, ``"w+1"``, ``"(t^2+1)/t"``.  :func:`parse_field` returns
one interned object per field, so a process builds each field's kernel,
tables and elements once, however often and however spelled its literal
is read.  A finite field formats a payload and parses its canonical
literal by one lookup in tables of at most |F| entries; every other
element literal goes through the one parser.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterator

from .errors import (
    CapExceeded,
    DescriptorMismatch,
    DivisionByZero,
    NotASquare,
    ParseError,
)

MAX_PRIME = 97
MAX_EXTENSION_DEGREE = 8
MAX_POLY_DEGREE = 64
_CAP_BITS = MAX_POLY_DEGREE + 1  # bit length of a polynomial of the largest degree
# Largest exponent a polynomial literal may name ("t^4096").  Far above
# every cap, so a literal like "t^100/t^99" still parses and reduces; it
# only keeps a literal from asking for an arbitrarily large shift.
MAX_LITERAL_EXPONENT = 4096

# Irreducible polynomials over GF(2), one per extension degree.
DEFAULT_MODULI = {
    1: 0b11,          # x + 1
    2: 0b111,         # x^2 + x + 1
    3: 0b1011,        # x^3 + x + 1
    4: 0b10011,       # x^4 + x + 1
    5: 0b100101,      # x^5 + x^2 + 1
    6: 0b1000011,     # x^6 + x + 1
    7: 0b10001001,    # x^7 + x^3 + 1
    8: 0b100011101,   # x^8 + x^4 + x^3 + x^2 + 1
}


# ---------------------------------------------------------------------------
# GF(2)[x] polynomials as ints (bit i = coefficient of x^i)
# ---------------------------------------------------------------------------

def poly_deg(p: int) -> int:
    """Degree of a GF(2) polynomial; deg(0) = -1."""
    return p.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    if a.bit_length() < b.bit_length():
        a, b = b, a  # one shifted copy of the longer operand per term of the shorter
    out = 0
    while b:
        low = b & -b
        out ^= a * low
        b ^= low
    return out


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise DivisionByZero("polynomial division by zero")
    db = b.bit_length()
    da = a.bit_length()
    q = 0
    while da >= db:
        shift = da - db
        q ^= 1 << shift
        a ^= b << shift
        da = a.bit_length()
    return q, a


def poly_mod(a: int, b: int) -> int:
    if b == 0:
        raise DivisionByZero("polynomial division by zero")
    db = b.bit_length()
    da = a.bit_length()
    while da >= db:
        a ^= b << (da - db)
        da = a.bit_length()
    return a


def poly_gcd(a: int, b: int) -> int:
    """Euclid's algorithm, the remainder loop inline; it stops at a
    remainder of 1, whose gcd with anything is 1."""
    db = b.bit_length()
    while db > 1:
        da = a.bit_length()
        while da >= db:
            a ^= b << (da - db)
            da = a.bit_length()
        a, b, db = b, a, da
    return b if db else a


def poly_is_square(p: int) -> bool:
    """Over GF(2), f is a square iff f has only even-degree terms."""
    odd_mask = 0
    for i in range(1, p.bit_length(), 2):
        odd_mask |= 1 << i
    return p & odd_mask == 0


def poly_sqrt(p: int) -> int:
    """Square root of an even-degree-terms GF(2) polynomial (halve exponents)."""
    out = 0
    i = 0
    while p:
        if p & 1:
            out |= 1 << i
        p >>= 2
        i += 1
    return out


def poly_is_irreducible(p: int) -> bool:
    """Brute-force irreducibility test; fine for the tiny degrees used here."""
    d = poly_deg(p)
    if d < 1:
        return False
    for f in range(2, 1 << (d // 2 + 1)):
        if poly_deg(f) >= 1 and poly_mod(p, f) == 0:
            return False
    return True


def _poly_to_str(p: int, var: str) -> str:
    if p == 0:
        return "0"
    terms = []
    for i in range(poly_deg(p), -1, -1):
        if p >> i & 1:
            if i == 0:
                terms.append("1")
            elif i == 1:
                terms.append(var)
            else:
                terms.append(f"{var}^{i}")
    return "+".join(terms)


_ASCII_INT = re.compile(r"\s*[+-]?[0-9]+\s*")


def _ascii_int(text: str) -> int:
    """int(text) for ASCII digits with an optional sign and surrounding
    whitespace; ValueError for the rest of what int() reads, such as
    "1_0" or non-ASCII digits."""
    if not _ASCII_INT.fullmatch(text):
        raise ValueError(f"not an integer literal: {text!r}")
    return int(text)


def _poly_from_str(s: str, var: str) -> int:
    s = s.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial literal")
    out = 0
    for term in s.split("+"):
        if term == "0":
            continue
        if term == "1":
            out ^= 1
        elif term == var:
            out ^= 2
        elif term.startswith(var + "^"):
            try:
                exp = _ascii_int(term[len(var) + 1:])
            except ValueError:
                raise ParseError(f"bad polynomial term {term!r}") from None
            if not 0 <= exp <= MAX_LITERAL_EXPONENT:
                raise ParseError(f"bad polynomial term {term!r} "
                                 f"(exponents run from 0 to {MAX_LITERAL_EXPONENT})")
            out ^= 1 << exp
        else:
            raise ParseError(f"bad polynomial term {term!r} (variable {var!r})")
    return out


def _check_literal(s, field) -> None:
    """Element literals are strings or plain integers.  Anything else (a
    float, a boolean, None) is rejected, not coerced."""
    if isinstance(s, bool) or not isinstance(s, (int, str)):
        raise ParseError(f"bad element literal {s!r} for {field}")


def _check_int(n, field) -> int:
    """`n`, if it is an integer; a float is not rounded."""
    if not isinstance(n, int):
        raise DescriptorMismatch(f"{n!r} is not an integer, so it has no image in {field}")
    return n


# The primes up to 41.  As Miller-Rabin bases they decide primality
# exactly below 3 317 044 064 679 887 385 961 981 > 3.3 * 10^24
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_odd_prime(p: int) -> bool:
    """Whether p is an odd prime, by Miller-Rabin with the bases 2 .. 41:
    at most 13 modular powers, so a literal like ``gf(100000000000000003)``
    is refused at once.  Exact below 3.3 * 10^24; above, a composite that
    is a strong pseudoprime to all 13 bases would pass as a prime."""
    if p < 3 or p % 2 == 0:
        return False
    if p in _MILLER_RABIN_BASES:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

class FieldElement:
    """Immutable element of a :class:`Field`; supports ``+ - * /``."""

    __slots__ = ("field", "payload")

    def __init__(self, field: "Field", payload):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other: "FieldElement") -> "FieldElement":
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.field is not self.field and other.field != self.field:
            raise DescriptorMismatch(f"{self.field} vs {other.field}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return self.field.wrap(self.field.add(self.payload, other.payload))

    def __sub__(self, other):
        other = self._coerce(other)
        return self.field.wrap(self.field.sub(self.payload, other.payload))

    def __mul__(self, other):
        other = self._coerce(other)
        return self.field.wrap(self.field.mul(self.payload, other.payload))

    def __truediv__(self, other):
        other = self._coerce(other)
        return self.field.wrap(self.field.div(self.payload, other.payload))

    def __neg__(self):
        return self.field.wrap(self.field.neg(self.payload))

    def __pow__(self, n: int):
        if n < 0:
            return (self.field.one / self) ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.payload == other.payload and (
            self.field is other.field or self.field == other.field)

    def __hash__(self):
        return hash((self.field, self.payload))

    def __bool__(self):
        return self.payload != self.field._zero.payload

    def is_zero(self) -> bool:
        return not self

    def __str__(self):
        return self.field.format(self.payload)

    def __repr__(self):
        return f"{self.field.literal()}:{self}"


class Field:
    """Common interface of the three supported fields."""

    kind: str
    _kernel = None  # the payload kernel of ``linalg``, built on first use

    # payload-level arithmetic, implemented by subclasses
    def add(self, a, b): raise NotImplementedError
    def sub(self, a, b): raise NotImplementedError
    def mul(self, a, b): raise NotImplementedError
    def div(self, a, b): raise NotImplementedError
    def neg(self, a): raise NotImplementedError

    def characteristic(self) -> int:
        raise NotImplementedError

    def order(self) -> int | None:
        """Number of elements, or None for an infinite field."""
        return None

    def element(self, payload) -> FieldElement:
        """The element with this payload; DescriptorMismatch unless it is a
        canonical payload of the field."""
        if not self.is_payload(payload):
            raise DescriptorMismatch(f"{payload!r} is not a payload of {self}")
        return self.wrap(payload)

    def is_payload(self, payload) -> bool:
        """Whether `payload` is a canonical payload of this field."""
        raise NotImplementedError

    def wrap(self, payload) -> FieldElement:
        """The element with a payload already known to be canonical (no
        check); finite fields return their interned element."""
        return FieldElement(self, payload)

    def wrap_all(self, payloads) -> tuple[FieldElement, ...]:
        """:meth:`wrap` over an iterable of canonical payloads."""
        return tuple(map(self.wrap, payloads))

    def from_int(self, n: int) -> FieldElement:
        """The image of the integer n under the canonical ring map Z -> F."""
        raise NotImplementedError

    def payloads(self) -> Iterator:
        raise NotImplementedError

    def elements(self) -> Iterator[FieldElement]:
        for p in self.payloads():
            yield self.wrap(p)

    def is_square(self, a: FieldElement) -> bool:
        raise NotImplementedError

    def sqrt(self, a: FieldElement) -> FieldElement:
        raise NotImplementedError

    def parse(self, s) -> FieldElement:
        raise NotImplementedError

    def format(self, payload) -> str:
        raise NotImplementedError

    def literal(self) -> str:
        raise NotImplementedError

    @property
    def zero(self) -> FieldElement:
        return self._zero

    @property
    def one(self) -> FieldElement:
        return self._one

    def __repr__(self):
        return self.literal()


class _FiniteField(Field):
    """Payloads are the ints 0 .. order-1; one interned element each.

    Two literal tables of at most |F| entries each are built on first use
    from the field's own formatter (``_format``): payload -> canonical
    literal, which :meth:`format` and ``str(e)`` read, and canonical
    literal -> element, which :meth:`parse` tries first.  Every other input
    goes through the full parser (``_parse``), so the grammar is one."""

    def _intern(self, order: int):
        self._elements = tuple(FieldElement(self, p) for p in range(order))
        self._zero, self._one = self._elements[0], self._elements[1]

    @functools.cached_property
    def _literals(self) -> tuple[str, ...]:
        return tuple(map(self._format, range(len(self._elements))))

    @functools.cached_property
    def _by_literal(self) -> dict[str, FieldElement]:
        return dict(zip(self._literals, self._elements))

    def format(self, payload) -> str:
        return self._literals[payload]

    def parse(self, s) -> FieldElement:
        """The element `s` names: a canonical literal by one lookup, any
        other input through the full parser, with its ParseErrors."""
        if type(s) is str:
            element = self._by_literal.get(s)
            if element is not None:
                return element
        return self._parse(s)

    def is_payload(self, payload) -> bool:
        return type(payload) is int and 0 <= payload < len(self._elements)

    def wrap(self, payload) -> FieldElement:
        return self._elements[payload]

    def wrap_all(self, payloads) -> tuple[FieldElement, ...]:
        return tuple(map(self._elements.__getitem__, payloads))

    def payloads(self):
        return iter(range(len(self._elements)))


@dataclass(frozen=True)
class FieldTables:
    """Payload product and inverse tables of a finite field."""

    mul: tuple[tuple[int, ...], ...]   # mul[a][b] = a * b
    inv: tuple[int, ...]               # inv[a] = 1 / a; inv[0] = 0


@functools.lru_cache(maxsize=None)
def field_tables(field: Field) -> FieldTables:
    """The tables of a finite field, tabulated once from its own payload
    ``mul`` and ``div``.  Cached by field equality, so every equal field
    (a re-parsed literal, say) shares one tabulation."""
    codes = list(field.payloads())
    return FieldTables(
        tuple(tuple(field.mul(a, b) for b in codes) for a in codes),
        (0,) + tuple(field.div(1, a) for a in codes[1:]),
    )


class PrimeField(_FiniteField):
    """GF(p) for an odd prime p <= 97."""

    kind = "prime"

    def __init__(self, p: int):
        if not _is_odd_prime(p):
            raise ParseError(f"{p} is not an odd prime")
        if p > MAX_PRIME:
            raise CapExceeded(f"prime {p} exceeds cap {MAX_PRIME}")
        self.p = p
        self._intern(p)
        self._squares = frozenset((a * a) % p for a in range(p))

    def add(self, a, b): return (a + b) % self.p
    def sub(self, a, b): return (a - b) % self.p
    def mul(self, a, b): return (a * b) % self.p

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero(f"division by zero in {self}")
        return (a * pow(b, self.p - 2, self.p)) % self.p

    def neg(self, a): return (-a) % self.p

    def characteristic(self): return self.p
    def order(self): return self.p

    def from_int(self, n: int) -> FieldElement:
        return self._elements[_check_int(n, self) % self.p]

    def is_square(self, a: FieldElement) -> bool:
        return a.payload in self._squares

    def sqrt(self, a: FieldElement) -> FieldElement:
        # exhaustive search; p <= 97 keeps this instant
        for c in range(self.p):
            if (c * c) % self.p == a.payload:
                return self._elements[c]
        raise NotASquare(f"{a} is not a square in {self}")

    def _parse(self, s) -> FieldElement:
        _check_literal(s, self)
        try:
            return self.from_int(s if isinstance(s, int) else _ascii_int(s))
        except ValueError:
            raise ParseError(f"bad element literal {s!r} for {self}") from None

    def _format(self, payload) -> str:
        return str(payload)

    def literal(self) -> str:
        return f"gf({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))


class Galois2Field(_FiniteField):
    """GF(2^k), k in [1, 8], arithmetic modulo an irreducible polynomial."""

    kind = "galois2"
    var = "w"

    def __init__(self, k: int, modulus: int | None = None):
        if not 1 <= k <= MAX_EXTENSION_DEGREE:
            raise CapExceeded(f"extension degree {k} outside [1, {MAX_EXTENSION_DEGREE}]")
        if modulus is None:
            modulus = DEFAULT_MODULI[k]
        if poly_deg(modulus) != k or not poly_is_irreducible(modulus):
            raise ParseError(f"modulus {_poly_to_str(modulus, 'x')} is not irreducible of degree {k}")
        self.k = k
        self.modulus = modulus
        self.size = 1 << k
        self._intern(self.size)
        # small fields multiply by lookups in the shared tables
        self._mul_table = self._inv_table = None
        if k <= 4:
            tables = field_tables(self)
            self._mul_table, self._inv_table = tables.mul, tables.inv

    def _mul_raw(self, a: int, b: int) -> int:
        out = 0
        top = 1 << self.k
        while b:
            if b & 1:
                out ^= a
            a <<= 1
            if a & top:
                a ^= self.modulus
            b >>= 1
        return out

    def _pow_raw(self, a: int, n: int) -> int:
        out = 1
        while n:
            if n & 1:
                out = self._mul_raw(out, a)
            a = self._mul_raw(a, a)
            n >>= 1
        return out

    def add(self, a, b): return a ^ b
    sub = add

    def mul(self, a, b):
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_raw(a, b)

    def inv(self, a):
        if a == 0:
            raise DivisionByZero(f"division by zero in {self}")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self._pow_raw(a, self.size - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def neg(self, a): return a

    def characteristic(self): return 2
    def order(self): return self.size

    def from_int(self, n: int) -> FieldElement:
        return self._elements[_check_int(n, self) % 2]

    def is_square(self, a: FieldElement) -> bool:
        # Frobenius x -> x^2 is bijective on a finite field of characteristic 2
        return True

    def sqrt(self, a: FieldElement) -> FieldElement:
        return self._elements[self._pow_raw(a.payload, 1 << (self.k - 1))]

    def _parse(self, s) -> FieldElement:
        _check_literal(s, self)
        if isinstance(s, int):
            return self.from_int(s)
        p = _poly_from_str(s.strip(), self.var)
        if poly_deg(p) >= self.k:
            p = poly_mod(p, self.modulus)
        return self._elements[p]

    def _format(self, payload) -> str:
        return _poly_to_str(payload, self.var)

    def literal(self) -> str:
        if self.k == 1:
            return "gf(2)"
        return f"gf({self.size};{_poly_to_str(self.modulus, 'x')})"

    def __eq__(self, other):
        return (
            isinstance(other, Galois2Field)
            and other.k == self.k
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("galois2", self.k, self.modulus))


class RationalFunctionField(Field):
    """GF(2)(t): reduced fractions of GF(2)[t] polynomials.

    Payloads are ``(num, den)`` with gcd(num, den) = 1 and 0 as ``(0, 1)``.
    A gcd is taken only where a result can fail to be reduced:

    * ``fraction`` (and parsing) reduce by gcd(num, den), taken only when
      den is not 1, and divide only when it is not 1.
    * ``add`` returns the other operand when one is zero; with equal
      denominators it XORs the numerators (a gcd with the denominator
      unless that is 1); otherwise it reduces the cross sum over ad*bd.
    * ``mul`` (and ``div``) return 0 for a zero operand, else cancel across
      (Henrici 1956): gcd(an, bd) and gcd(bn, ad), each taken only when
      neither polynomial is 1.  The product of the cancelled parts is
      reduced, so no gcd of the full product is taken.

    ``CapExceeded`` means the *reduced* result has a numerator or
    denominator of degree above ``MAX_POLY_DEGREE``.  The reduced form is
    unique, so the cap does not depend on how a result was computed.
    """

    kind = "ratfunc"
    var = "t"

    def __init__(self):
        self._zero = FieldElement(self, (0, 1))
        self._one = FieldElement(self, (1, 1))

    @staticmethod
    def _capped(num: int, den: int) -> tuple[int, int]:
        """`(num, den)`, a reduced fraction, if it is within the cap."""
        if num.bit_length() > _CAP_BITS or den.bit_length() > _CAP_BITS:
            raise CapExceeded(f"polynomial degree exceeds cap {MAX_POLY_DEGREE}")
        return (num, den)

    @staticmethod
    def _normalize(num: int, den: int) -> tuple[int, int]:
        if den == 0:
            raise DivisionByZero("zero denominator in gf2(t)")
        if num == 0:
            return (0, 1)
        if den != 1:
            g = poly_gcd(num, den)
            if g != 1:
                num = poly_divmod(num, g)[0]
                den = poly_divmod(den, g)[0]
        return RationalFunctionField._capped(num, den)

    def is_payload(self, payload) -> bool:
        if not (type(payload) is tuple and len(payload) == 2
                and all(type(x) is int and x >= 0 for x in payload) and payload[1]):
            return False
        try:
            return self._normalize(*payload) == payload
        except CapExceeded:
            return False

    def fraction(self, num: int, den: int = 1) -> FieldElement:
        return FieldElement(self, self._normalize(num, den))

    @property
    def t(self) -> FieldElement:
        return FieldElement(self, (2, 1))

    def add(self, a, b):
        (an, ad), (bn, bd) = a, b
        if not an:
            return b
        if not bn:
            return a
        if ad == bd:
            return self._normalize(an ^ bn, ad)
        return self._normalize(poly_mul(an, bd) ^ poly_mul(bn, ad), poly_mul(ad, bd))

    sub = add

    def mul(self, a, b):
        an, ad = a
        bn, bd = b
        if not an or not bn:
            return (0, 1)
        if bd != 1 and an != 1:
            g = poly_gcd(bd, an)
            if g != 1:
                an = poly_divmod(an, g)[0]
                bd = poly_divmod(bd, g)[0]
        if ad != 1 and bn != 1:
            g = poly_gcd(ad, bn)
            if g != 1:
                bn = poly_divmod(bn, g)[0]
                ad = poly_divmod(ad, g)[0]
        # a product with 1 needs no carry-less multiplication
        num = bn if an == 1 else an if bn == 1 else poly_mul(an, bn)
        den = bd if ad == 1 else ad if bd == 1 else poly_mul(ad, bd)
        return self._capped(num, den)

    def div(self, a, b):
        (bn, bd) = b
        if bn == 0:
            raise DivisionByZero("division by zero in gf2(t)")
        return self.mul(a, (bd, bn))

    def neg(self, a): return a

    def characteristic(self): return 2

    def from_int(self, n: int) -> FieldElement:
        return self._one if _check_int(n, self) % 2 else self._zero

    def payloads(self):
        raise CapExceeded("gf2(t) is infinite; cannot enumerate")

    def is_square(self, a: FieldElement) -> bool:
        # a reduced f/g is a square iff both f and g lie in GF(2)[t^2]
        num, den = a.payload
        return poly_is_square(num) and poly_is_square(den)

    def sqrt(self, a: FieldElement) -> FieldElement:
        if not self.is_square(a):
            raise NotASquare(f"{a} is not a square in {self}")
        num, den = a.payload
        return FieldElement(self, (poly_sqrt(num), poly_sqrt(den)))

    def parse(self, s) -> FieldElement:
        _check_literal(s, self)
        if isinstance(s, int):
            return self.from_int(s)
        s = s.strip().replace(" ", "")
        if s.count("/") > 1:
            raise ParseError(f"bad element literal {s!r} for {self}")
        if "/" in s:
            num_s, den_s = s.split("/")
        else:
            num_s, den_s = s, "1"
        num_s = num_s[1:-1] if num_s.startswith("(") and num_s.endswith(")") else num_s
        den_s = den_s[1:-1] if den_s.startswith("(") and den_s.endswith(")") else den_s
        num = _poly_from_str(num_s, self.var)
        den = _poly_from_str(den_s, self.var)
        return self.fraction(num, den)

    def format(self, payload) -> str:
        num, den = payload
        if den == 1:
            return _poly_to_str(num, self.var)
        num_s = _poly_to_str(num, self.var)
        den_s = _poly_to_str(den, self.var)
        if "+" in num_s:
            num_s = f"({num_s})"
        if "+" in den_s:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def literal(self) -> str:
        return "gf2(t)"

    def __eq__(self, other):
        return isinstance(other, RationalFunctionField)

    def __hash__(self):
        return hash("ratfunc")


# ---------------------------------------------------------------------------
# Field literals
# ---------------------------------------------------------------------------

_KINDS = {"prime": PrimeField, "galois2": Galois2Field, "ratfunc": RationalFunctionField}


@functools.cache
def _interned(kind: str, *params) -> Field:
    """The one field of `kind` with these parameters, built on first use.
    A construction that raises is not kept, so only valid parameters
    become keys, and a bad literal raises on every call."""
    return _KINDS[kind](*params)


def parse_field(s: str) -> Field:
    """Parse a field literal: ``gf(7)``, ``gf(4;x^2+x+1)``, ``gf2(t)``.

    Every literal of one field gives the same interned object, keyed by the
    field's parameters: ``("prime", p)``, ``("galois2", k, modulus)`` with
    the default modulus filled in, or GF(2)(t).  So ``gf(7)`` and
    `` GF(7) ``, or ``gf(4)`` and ``gf(4;x^2+x+1)``, share one field with its
    kernel, tables and elements.  The constructors (``PrimeField(7)``, ...)
    still build a new, equal field."""
    if not isinstance(s, str):
        raise ParseError(f"field literal must be a string, got {s!r}")
    text = s.strip().lower().replace(" ", "")
    if text == "gf2(t)":
        return _interned("ratfunc")
    if not (text.startswith("gf(") and text.endswith(")")):
        raise ParseError(f"bad field literal {s!r}")
    body = text[3:-1]
    if ";" in body:
        size_s, mod_s = body.split(";", 1)
        modulus = _poly_from_str(mod_s, "x")
    else:
        size_s, modulus = body, None
    try:
        size = _ascii_int(size_s)
    except ValueError:
        raise ParseError(f"bad field literal {s!r}") from None
    if size >= 2 and size & (size - 1) == 0:  # a power of two
        k = size.bit_length() - 1
        # a degree without a default modulus is refused by the constructor
        return _interned("galois2", k, DEFAULT_MODULI.get(k) if modulus is None else modulus)
    if modulus is not None:
        raise ParseError(f"modulus given for non-2-power field in {s!r}")
    return _interned("prime", size)
