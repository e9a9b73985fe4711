"""Finite local rings with a nilpotent maximal ideal and 6 invertible.

Two instances are provided under a common interface:

* ``integer-quotient``      Z/p^e Z, maximal ideal (p)
* ``truncated-polynomial``  F_p[t]/(t^e), maximal ideal (t)

Elements are kept in a canonical form, and in both rings that form is an
int: the least non-negative residue for the integer quotient, and for the
polynomial quotient the Kronecker packing sum c_i 2^(k i) of the
coefficients 0 <= c_i < p (a :class:`Poly`).  So ``==`` and hashing are
structural, and sums and products of payloads are plain int arithmetic:
exact in Z[t] for packed polynomials, as long as every digit stays within
the slot width documented on :class:`Poly`.  Each ring has one reducer,
``RingConfig.mod``, that brings such an expression back to a payload:
``expr % ring.mod`` and ``pow(u, -1, ring.mod)`` mean the same thing in
both rings.  The valuation of zero is the float infinity, which already
behaves as the absorbing element under ``+`` and ``min``.

The arithmetic methods on :class:`RingConfig` work on these canonical
payloads directly; :class:`RingElem` is a thin operator-overloading wrapper
around them for code where readability matters more than speed.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

from .errors import NonUnit

INTEGER_QUOTIENT = "integer-quotient"
TRUNCATED_POLYNOMIAL = "truncated-polynomial"

#: canonical payload: a residue for Z/p^e, a packed :class:`Poly` for F_p[t]/(t^e)
Payload = int

INFINITY = math.inf


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Poly(int):
    """A canonical element of F_p[t]/(t^e), packed as the int sum c_i 2^(k i).

    One subclass exists per (p, e) (see :func:`_poly_class`), carrying p, e
    and the slot width k as class attributes.  Payloads add, subtract and
    multiply as ints, which is exact polynomial arithmetic in Z[t] while
    every digit d_i below t^e stays in |d_i| < 2^(k-1); digits from t^e up
    are discarded by the reduction and may be anything.  The law's largest
    such digit is in T2 = Q1 Q4 - Q2 Q3, raw or canonical: the unreduced Q's
    have digits below 4 e^2 (p-1)^3, and a product digit below t^e sums at
    most e terms, so |d_i| < 32 e^5 (p-1)^6.  Hence

        k = 6 bitlen(p) + 5 bitlen(e) + 6,

    which puts 2^(k-1) above that bound; F, H and each canonical x3 or z3
    numerator times T2's inverse (below 16 e^4 (p-1)^5) stay under it.
    ``repr`` and ``str`` show the coefficient tuple.
    """

    __slots__ = ()
    p = e = k = 1
    mod = None  # the _Reducer of this (p, e)

    def coeffs(self) -> tuple:
        k, mask = self.k, (1 << self.k) - 1
        return tuple(self >> k * i & mask for i in range(self.e))

    def __repr__(self) -> str:
        return repr(self.coeffs())

    __str__ = __repr__

    def __reduce__(self):  # the class is made at run time: pickle by (p, e)
        return _poly_payload, (self.p, self.e, int(self))

    def __pow__(self, n, mod=None):
        """``pow(a, -1, mod)`` is the inverse: Newton steps u' = u(2 - a u)
        from the constant term, each doubling the t-adic precision, with one
        reduction per step (digits stay below e^2 (p-1)^3).  Raises
        ValueError on the maximal ideal, as ``pow`` does for ints."""
        if n != -1 or mod is not self.mod:
            return int.__pow__(self, n, mod)
        c0 = self & (1 << self.k) - 1
        if c0 == 0:
            raise ValueError("base is not invertible for the given modulus")
        inv = type(self)(pow(c0, -1, self.p))
        for _ in range((self.e - 1).bit_length()):
            inv = inv * (2 - self * inv) % mod
        return inv


class _Reducer:
    """``v % reducer``: the payload of an int-packed polynomial expression.

    Takes the low e digits of v as signed k-bit digits, reduces each mod p,
    and packs the result.  A bias of 2^(k-1) per digit turns the signed
    digits into unsigned ones, so one mask isolates all e of them.
    """

    __slots__ = ("cls", "p", "k", "mask", "half", "bias", "low", "shifts")

    def __init__(self, cls):
        k, e = cls.k, cls.e
        self.cls = cls
        self.p = cls.p
        self.k = k
        self.mask = (1 << k) - 1
        self.half = 1 << (k - 1)
        self.bias = sum(self.half << k * i for i in range(e))
        self.low = (1 << k * e) - 1
        self.shifts = tuple(k * i for i in range(e))

    def __rmod__(self, v: int) -> Poly:
        p, mask, half = self.p, self.mask, self.half
        w = (v + self.bias) & self.low
        out = 0
        for s in self.shifts:
            out |= ((w >> s & mask) - half) % p << s
        return self.cls(out)


@functools.lru_cache(maxsize=None)
def _poly_class(p: int, e: int) -> type:
    """The packed payload class of F_p[t]/(t^e), one per (p, e)."""
    k = 6 * p.bit_length() + 5 * e.bit_length() + 6
    cls = type(f"Poly_{p}_{e}", (Poly,), {"__slots__": (), "p": p, "e": e, "k": k})
    cls.mod = _Reducer(cls)
    return cls


def _poly_payload(p: int, e: int, value: int) -> Poly:
    return _poly_class(p, e)(value)


class RingConfig:
    """A finite local ring R with maximal ideal m, m^e = 0 and 6 in R*.

    The residue field R/m is F_p in both instances.  ``p >= 5`` is
    enforced so that 2 and 3 are invertible.
    """

    __slots__ = ("kind", "p", "e", "modulus", "mod", "key", "zero", "one")

    def __init__(self, kind: str, p: int, e: int):
        if kind not in (INTEGER_QUOTIENT, TRUNCATED_POLYNOMIAL):
            raise ValueError(f"unknown ring kind {kind!r}")
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if p < 5:
            raise ValueError(f"p = {p} < 5: the residue characteristic must avoid 2 and 3")
        if e < 1:
            raise ValueError(f"e = {e} must be at least 1")
        self.kind = kind
        self.p = p
        self.e = e
        self.modulus = p ** e  # |R| = p^e
        # what the formulas reduce by: p^e itself, or the packed class's reducer
        self.mod = self.modulus if kind == INTEGER_QUOTIENT else _poly_class(p, e).mod
        self.key = (kind, p, e)
        # canonical 0 and 1, read on every addition: set once, not per access
        self.zero = self.from_int(0)
        self.one = self.from_int(1)

    @classmethod
    def integer(cls, p: int, e: int) -> "RingConfig":
        """Z/p^e Z."""
        return cls(INTEGER_QUOTIENT, p, e)

    @classmethod
    def truncated_poly(cls, p: int, e: int) -> "RingConfig":
        """F_p[t]/(t^e)."""
        return cls(TRUNCATED_POLYNOMIAL, p, e)

    # -- construction of canonical payloads ---------------------------------

    def from_int(self, n: int) -> Payload:
        """Image of the integer n under the unique map Z -> R.

        A payload of this ring is an int too, and comes back unchanged.
        """
        if self.kind == INTEGER_QUOTIENT:
            return n % self.modulus
        cls = self.mod.cls
        if isinstance(n, Poly):
            if type(n) is not cls:
                raise ValueError(f"{n!r} is a payload of another ring than {self!r}")
            return n
        return cls(n % self.p)

    def from_coeffs(self, coeffs) -> Payload:
        """Polynomial payload from a coefficient sequence (constant first)."""
        if self.kind == INTEGER_QUOTIENT:
            raise ValueError("coefficient form only exists for the polynomial quotient")
        coeffs = list(coeffs)
        if len(coeffs) > self.e:
            raise ValueError(f"got {len(coeffs)} coefficients for truncation order {self.e}")
        p, k = self.p, self.mod.k
        return self.mod.cls(sum(c % p << k * i for i, c in enumerate(coeffs)))

    def uniformizer(self) -> Payload:
        """A generator of the maximal ideal: p, respectively t."""
        if self.kind == INTEGER_QUOTIENT:
            return self.p % self.modulus
        return self.from_coeffs([0, 1] if self.e > 1 else [0])

    # -- arithmetic on payloads ---------------------------------------------

    def add(self, a: Payload, b: Payload) -> Payload:
        return (a + b) % self.mod

    def sub(self, a: Payload, b: Payload) -> Payload:
        return (a - b) % self.mod

    def neg(self, a: Payload) -> Payload:
        return (-a) % self.mod

    def mul(self, a: Payload, b: Payload) -> Payload:
        return (a * b) % self.mod

    def mul_int(self, n: int, a: Payload) -> Payload:
        """n * a for an integer scalar n (reduced first, so any n is safe)."""
        return (self.from_int(n) * a) % self.mod

    def valuation(self, a: Payload):
        """m-adic valuation in {0, ..., e-1}, or infinity for zero."""
        if a == 0:
            return INFINITY
        if self.kind == INTEGER_QUOTIENT:
            p, v = self.p, 0
            while a % p == 0:
                a //= p
                v += 1
            return v
        return ((a & -a).bit_length() - 1) // self.mod.k  # the lowest nonzero digit

    def is_unit(self, a: Payload) -> bool:
        if self.kind == INTEGER_QUOTIENT:
            return a % self.p != 0
        return a & self.mod.mask != 0

    def inverse(self, a: Payload) -> Payload:
        """Multiplicative inverse; raises NonUnit on the maximal ideal."""
        try:
            return pow(a, -1, self.mod)
        except ValueError:
            raise NonUnit(f"{a} lies in the maximal ideal of {self!r}") from None

    def residue(self, a: Payload) -> int:
        """Projection R -> R/m = F_p, as an integer in [0, p)."""
        if self.kind == INTEGER_QUOTIENT:
            return a % self.p
        return a & self.mod.mask

    def digits(self, a: Payload) -> tuple:
        """(r, d): the residue r = a mod m and the next m-adic digit d, both in
        [0, p), so that a = r + pi * d modulo m^2 (pi the :meth:`uniformizer`)."""
        if self.kind == INTEGER_QUOTIENT:
            return a % self.p, a // self.p % self.p
        return a & self.mod.mask, a >> self.mod.k & self.mod.mask

    def residue_ring(self) -> "RingConfig":
        """The residue field F_p presented as the integer quotient Z/p."""
        return RingConfig(INTEGER_QUOTIENT, self.p, 1)

    # -- enumeration ---------------------------------------------------------

    @property
    def size(self) -> int:
        return self.modulus

    @property
    def ideal_size(self) -> int:
        """|m| = p^(e-1)."""
        return self.p ** (self.e - 1)

    def elements(self) -> Iterator[Payload]:
        """All p^e canonical payloads."""
        return self.ideal_elements(0)

    def ideal_elements(self, power: int = 1) -> Iterator[Payload]:
        """All elements of m^power (the zero ideal once power >= e), the n-th
        being :meth:`ideal_element` (n, power)."""
        power = min(power, self.e)
        if self.kind == INTEGER_QUOTIENT:
            return iter(range(0, self.modulus, self.p ** power))
        return map(functools.partial(self.ideal_element, power=power),
                   range(self.p ** (self.e - power)))

    def ideal_element(self, n: int, power: int = 1) -> Payload:
        """The n-th element of m^power, 0 <= n < |m^power| (power <= e): pi^power
        times the element whose base-p digits, constant first, are n's."""
        if self.kind == INTEGER_QUOTIENT:
            return n * self.p ** power % self.modulus
        p = self.p
        return self.from_coeffs([0] * power + [n // p ** i % p for i in range(self.e - power)])

    def random_element(self, rng, min_valuation: int = 0) -> Payload:
        """A uniformly random element of m^min_valuation.

        Uses the generator directly instead of materializing the ideal, so
        it stays cheap for large e.
        """
        k = min(min_valuation, self.e)
        if self.kind == INTEGER_QUOTIENT:
            step = self.p ** k
            return step * rng.randrange(self.p ** (self.e - k)) if k < self.e else 0
        return self.from_coeffs([0] * k + [rng.randrange(self.p) for _ in range(self.e - k)])

    # -- serialization and housekeeping --------------------------------------

    def payload_to_json(self, a: Payload):
        return a if self.kind == INTEGER_QUOTIENT else list(a.coeffs())

    def payload_from_json(self, obj) -> Payload:
        if self.kind == INTEGER_QUOTIENT:
            return int(obj) % self.modulus
        return self.from_coeffs(obj)

    def to_json(self) -> dict:
        return {"kind": self.kind, "p": self.p, "e": self.e}

    @classmethod
    def from_json(cls, obj: dict) -> "RingConfig":
        return cls(obj["kind"], int(obj["p"]), int(obj["e"]))

    def payload(self, value) -> Payload:
        """The payload named by a RingElem, an int or payload (any kind), or a
        coefficient sequence (polynomial kind)."""
        if isinstance(value, RingElem):
            return value.val
        if isinstance(value, int):
            return self.from_int(value)
        return self.from_coeffs(value)

    def elem(self, value) -> "RingElem":
        """Wrap anything :meth:`payload` accepts."""
        return RingElem(self, self.payload(value))

    def __eq__(self, other) -> bool:
        return isinstance(other, RingConfig) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __reduce__(self):
        return RingConfig, (self.kind, self.p, self.e)

    def __repr__(self) -> str:
        if self.kind == INTEGER_QUOTIENT:
            return f"Z/{self.modulus}"
        return f"F_{self.p}[t]/(t^{self.e})"


class RingElem:
    """An element of a RingConfig, kept in canonical form.

    Supports +, -, *, unary -, ** with integer exponents, and exact
    equality.  Mixed-ring arithmetic is rejected.  Integers coerce into
    the ring, matching how the structure constants of a curve are used.
    """

    __slots__ = ("ring", "val")

    def __init__(self, ring: RingConfig, val: Payload):
        self.ring = ring
        self.val = val

    def _coerce(self, other) -> "RingElem":
        if isinstance(other, RingElem):
            if other.ring.key != self.ring.key:
                raise ValueError(f"mixed rings: {self.ring!r} and {other.ring!r}")
            return other
        if isinstance(other, int):
            return RingElem(self.ring, self.ring.from_int(other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RingElem(self.ring, self.ring.add(self.val, o.val))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RingElem(self.ring, self.ring.sub(self.val, o.val))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RingElem(self.ring, self.ring.sub(o.val, self.val))

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElem(self.ring, self.ring.mul_int(other, self.val))
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RingElem(self.ring, self.ring.mul(self.val, o.val))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElem(self.ring, self.ring.neg(self.val))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = RingElem(self.ring, self.ring.one)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def valuation(self):
        return self.ring.valuation(self.val)

    def is_unit(self) -> bool:
        return self.ring.is_unit(self.val)

    def inverse(self) -> "RingElem":
        return RingElem(self.ring, self.ring.inverse(self.val))

    def residue(self) -> int:
        return self.ring.residue(self.val)

    def is_zero(self) -> bool:
        return self.val == self.ring.zero

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.val == self.ring.from_int(other)
        return (
            isinstance(other, RingElem)
            and self.ring.key == other.ring.key
            and self.val == other.val
        )

    def __hash__(self) -> int:
        return hash((self.ring.key, self.val))

    def __repr__(self) -> str:
        return f"{self.val!r} in {self.ring!r}"
