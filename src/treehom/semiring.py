"""Commutative semirings and tagged weights.

Every quantitative value the package hands out is a ``Weight``: a carrier
element tagged with the semiring it lives in.  Values are combined by the
semiring's ``add`` and ``mul`` on carrier elements; weights themselves have
no arithmetic.  The registry is closed: boolean, natural, integer, tropical,
arctic, and modular z<k> for k >= 2.
"""

from __future__ import annotations

import math
import re


class SemiringError(ValueError):
    pass


class WeightSyntaxError(SemiringError):
    pass


class Semiring:
    """Base class; instances are stateless and compared by id."""

    id: str
    zero: object
    one: object
    zero_sum_free: bool
    finite: bool
    zero_divisor_free: bool

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def parse_value(self, text: str):
        raise NotImplementedError

    def format_value(self, v) -> str:
        return decimal_text(v)

    def parse(self, text: str) -> "Weight":
        return Weight(self, self.parse_value(text))

    @property
    def one_weight(self) -> "Weight":
        return Weight(self, self.one)

    def __eq__(self, other):
        return isinstance(other, Semiring) and other.id == self.id

    def __hash__(self):
        return hash(self.id)

    def __repr__(self):
        return f"<semiring {self.id}>"


# int() and str() refuse numbers past the interpreter's digit limit (4300
# digits by default); weights have no such bound.  Longer numbers are split in
# halves until each piece fits in _DIGITS_PIECE digits.
_DIGITS_PIECE = 1000


def decimal_text(n: int) -> str:
    """The decimal digits of an int of any size."""
    if n < 0:
        return "-" + decimal_text(-n)
    if n.bit_length() <= 3 * _DIGITS_PIECE:  # so n < 10**_DIGITS_PIECE
        return str(n)
    k = n.bit_length() * 3 // 20  # about half its digits
    high, low = divmod(n, 10**k)
    return decimal_text(high) + decimal_text(low).zfill(k)


def parse_digits(digits: str) -> int:
    if len(digits) <= _DIGITS_PIECE:
        return int(digits)
    k = len(digits) // 2
    return parse_digits(digits[:-k]) * 10**k + parse_digits(digits[-k:])


_UINT_RE = re.compile(r"[0-9]+")
_INT_RE = re.compile(r"[+-]?[0-9]+")


def _parse_uint(text: str, what: str):
    if not _UINT_RE.fullmatch(text):
        raise WeightSyntaxError(f"invalid {what} weight literal: {text!r}")
    return parse_digits(text)


class BooleanSemiring(Semiring):
    id = "boolean"
    zero = 0
    one = 1
    zero_sum_free = True
    finite = True
    zero_divisor_free = True

    def add(self, a, b):
        return a | b

    def mul(self, a, b):
        return a & b

    def parse_value(self, text):
        if text not in ("0", "1"):
            raise WeightSyntaxError(f"invalid boolean weight literal: {text!r}")
        return int(text)


class NaturalSemiring(Semiring):
    id = "natural"
    zero = 0
    one = 1
    zero_sum_free = True
    finite = False
    zero_divisor_free = True

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def parse_value(self, text):
        return _parse_uint(text, "natural")


class IntegerSemiring(Semiring):
    id = "integer"
    zero = 0
    one = 1
    zero_sum_free = False
    finite = False
    zero_divisor_free = True

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def parse_value(self, text):
        if not _INT_RE.fullmatch(text):
            raise WeightSyntaxError(f"invalid integer weight literal: {text!r}")
        value = parse_digits(text.lstrip("+-"))
        return -value if text[0] == "-" else value


class TropicalSemiring(Semiring):
    """min/plus over N plus infinity; inf is the additive zero."""

    id = "tropical"
    zero = math.inf
    one = 0
    zero_sum_free = True
    finite = False
    zero_divisor_free = True

    def add(self, a, b):
        return min(a, b)

    def mul(self, a, b):
        return a + b

    def parse_value(self, text):
        if text == "inf":
            return math.inf
        return _parse_uint(text, "tropical")

    def format_value(self, v):
        return "inf" if v == math.inf else decimal_text(v)


class ArcticSemiring(Semiring):
    """max/plus over N plus minus-infinity; -inf is the additive zero."""

    id = "arctic"
    zero = -math.inf
    one = 0
    zero_sum_free = True
    finite = False
    zero_divisor_free = True

    def add(self, a, b):
        return max(a, b)

    def mul(self, a, b):
        return a + b

    def parse_value(self, text):
        if text == "-inf":
            return -math.inf
        return _parse_uint(text, "arctic")

    def format_value(self, v):
        return "-inf" if v == -math.inf else decimal_text(v)


# Miller-Rabin with these bases decides primality exactly below
# _MR_EXACT_BELOW (Sorenson & Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 2017).  Above it a witness still proves a number
# composite.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981
# One modular exponentiation per base costs about the cube of the modulus
# length: all bases take about 60 ms at 1024 bits, 2.6 s at 4096.  A modulus
# that needs them must be below this.
_MR_MAX_BITS = 1024


def _is_prime(k: int) -> bool:
    if k < 2:
        return False
    for a in _MR_BASES:
        if k % a == 0:
            return k == a
    if k.bit_length() > _MR_MAX_BITS:
        raise SemiringError(
            f"modulus of {len(decimal_text(k))} digits is too large to test for primality: "
            f"a modulus without a factor up to {_MR_BASES[-1]} must be below 2^{_MR_MAX_BITS}"
        )
    d, s = k - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, k)
        if x == 1 or x == k - 1:
            continue
        for _ in range(s - 1):
            x = x * x % k
            if x == k - 1:
                break
        else:
            return False
    if k >= _MR_EXACT_BELOW:
        raise SemiringError(f"cannot tell whether the modulus {decimal_text(k)} is prime")
    return True


class ModularSemiring(Semiring):
    """Integers modulo k; has zero divisors whenever k is composite."""

    zero = 0
    one = 1
    zero_sum_free = False
    finite = True

    def __init__(self, k: int):
        if k < 2:
            raise SemiringError(f"modulus must be at least 2, got {k}")
        self.k = k
        self.id = f"z{decimal_text(k)}"
        self.zero_divisor_free = _is_prime(k)

    def add(self, a, b):
        return (a + b) % self.k

    def mul(self, a, b):
        return (a * b) % self.k

    def parse_value(self, text):
        v = _parse_uint(text, self.id)
        if v >= self.k:
            raise WeightSyntaxError(
                f"residue {text} out of range for {self.id} "
                f"(expected 0..{decimal_text(self.k - 1)})"
            )
        return v


class Weight:
    """A carrier value tagged with its semiring.

    Immutable; equal weights have equal semirings and values and hash alike.
    """

    __slots__ = ("semiring", "value")

    def __init__(self, semiring: Semiring, value: object):
        _set_semiring(self, semiring)
        _set_value(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.semiring, self.value) == (other.semiring, other.value)
        return NotImplemented

    def __hash__(self):
        return hash((self.semiring, self.value))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Weight, (self.semiring, self.value)

    @property
    def is_zero(self) -> bool:
        return self.value == self.semiring.zero

    @property
    def is_one(self) -> bool:
        return self.value == self.semiring.one

    def __str__(self):
        return self.semiring.format_value(self.value)

    def __repr__(self):
        return f"Weight({self.semiring.id}, {self})"


# The slot descriptors write the fields past the refusing __setattr__.
_set_semiring = Weight.semiring.__set__
_set_value = Weight.value.__set__


_MODULAR_ID = re.compile(r"z([0-9]+)\Z")
_CACHE: dict[str, Semiring] = {
    sr.id: sr
    for sr in (BooleanSemiring(), NaturalSemiring(), IntegerSemiring(),
               TropicalSemiring(), ArcticSemiring())
}


def get_semiring(name: str) -> Semiring:
    """Look up a semiring by id: boolean, natural, integer, tropical, arctic, z<k>."""
    key = name.strip().lower()
    if key not in _CACHE:
        m = _MODULAR_ID.fullmatch(key)
        if not m:
            raise SemiringError(f"unknown semiring: {name!r}")
        _CACHE[key] = ModularSemiring(parse_digits(m.group(1)))
    return _CACHE[key]


def power_index_period(w: Weight) -> tuple[int, int]:
    """Smallest (index, period) with w^(index+period) = w^index, powers from w^0 = one.

    Only defined over finite semirings, where the power sequence must cycle.
    """
    sr = w.semiring
    if not sr.finite:
        raise SemiringError(f"power index/period needs a finite semiring, got {sr.id}")
    seen: dict = {}
    v = sr.one
    e = 0
    while v not in seen:
        seen[v] = e
        v = sr.mul(v, w.value)
        e += 1
    first = seen[v]
    return first, e - first
