"""Finite local rings with a nilpotent maximal ideal and 6 invertible.

Two instances are provided under a common interface:

* ``integer-quotient``      Z/p^e Z, maximal ideal (p)
* ``truncated-polynomial``  F_p[t]/(t^e), maximal ideal (t)

Elements are kept in a canonical form (least non-negative residue for the
integer quotient, coefficient tuple for the polynomial quotient), so ``==``
and hashing are structural.  The valuation of zero is the float infinity,
which already behaves as the absorbing element under ``+`` and ``min``.

The arithmetic methods on :class:`RingConfig` work on these canonical
payloads directly; :class:`RingElem` is a thin operator-overloading wrapper
around them for code where readability matters more than speed.
"""

from __future__ import annotations

import math
from typing import Iterator, Union

from .errors import NonUnit

INTEGER_QUOTIENT = "integer-quotient"
TRUNCATED_POLYNOMIAL = "truncated-polynomial"

#: canonical payload: an int for Z/p^e, a coefficient tuple for F_p[t]/(t^e)
Payload = Union[int, tuple]

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


class RingConfig:
    """A finite local ring R with maximal ideal m, m^e = 0 and 6 in R*.

    The residue field R/m is F_p in both instances.  ``p >= 5`` is
    enforced so that 2 and 3 are invertible.
    """

    __slots__ = ("kind", "p", "e", "modulus", "key", "zero", "one")

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
        self.modulus = p ** e  # p^e; used as the int modulus for Z/p^e
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
        """Image of the integer n under the unique map Z -> R."""
        if self.kind == INTEGER_QUOTIENT:
            return n % self.modulus
        return (n % self.p,) + (0,) * (self.e - 1)

    def from_coeffs(self, coeffs) -> Payload:
        """Polynomial payload from a coefficient sequence (constant first)."""
        if self.kind == INTEGER_QUOTIENT:
            raise ValueError("coefficient form only exists for the polynomial quotient")
        cs = [c % self.p for c in coeffs]
        if len(cs) > self.e:
            raise ValueError(f"got {len(cs)} coefficients for truncation order {self.e}")
        cs += [0] * (self.e - len(cs))
        return tuple(cs)

    def uniformizer(self) -> Payload:
        """A generator of the maximal ideal: p, respectively t."""
        if self.kind == INTEGER_QUOTIENT:
            return self.p % self.modulus
        return self.from_coeffs([0, 1] if self.e > 1 else [0])

    # -- arithmetic on payloads ---------------------------------------------

    def add(self, a: Payload, b: Payload) -> Payload:
        if self.kind == INTEGER_QUOTIENT:
            return (a + b) % self.modulus
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a: Payload, b: Payload) -> Payload:
        if self.kind == INTEGER_QUOTIENT:
            return (a - b) % self.modulus
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a: Payload) -> Payload:
        if self.kind == INTEGER_QUOTIENT:
            return (-a) % self.modulus
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a: Payload, b: Payload) -> Payload:
        if self.kind == INTEGER_QUOTIENT:
            return (a * b) % self.modulus
        p, e = self.p, self.e
        out = [0] * e
        for i, x in enumerate(a):
            if x:
                for j in range(e - i):
                    out[i + j] = (out[i + j] + x * b[j]) % p
        return tuple(out)

    def mul_int(self, n: int, a: Payload) -> Payload:
        """n * a for an integer scalar n."""
        if self.kind == INTEGER_QUOTIENT:
            return (n * a) % self.modulus
        p = self.p
        return tuple((n * x) % p for x in a)

    def valuation(self, a: Payload):
        """m-adic valuation in {0, ..., e-1}, or infinity for zero."""
        if self.kind == INTEGER_QUOTIENT:
            if a == 0:
                return INFINITY
            p, v = self.p, 0
            while a % p == 0:
                a //= p
                v += 1
            return v
        for i, c in enumerate(a):
            if c:
                return i
        return INFINITY

    def is_unit(self, a: Payload) -> bool:
        if self.kind == INTEGER_QUOTIENT:
            return a % self.p != 0
        return a[0] != 0

    def inverse(self, a: Payload) -> Payload:
        """Multiplicative inverse; raises NonUnit on the maximal ideal."""
        if self.kind == INTEGER_QUOTIENT:
            if a % self.p == 0:
                raise NonUnit(f"{a} lies in the maximal ideal of Z/{self.modulus}")
            return pow(a, -1, self.modulus)
        if a[0] == 0:
            raise NonUnit(f"{a} lies in the maximal ideal (constant term 0)")
        p, e = self.p, self.e
        out = [0] * e
        c0 = pow(a[0], -1, p)
        out[0] = c0
        # (sum a_i t^i)(sum b_j t^j) = 1 truncated at t^e, solved degree by degree
        for k in range(1, e):
            acc = 0
            for i in range(1, k + 1):
                acc += a[i] * out[k - i]
            out[k] = (-c0 * acc) % p
        return tuple(out)

    def residue(self, a: Payload) -> int:
        """Projection R -> R/m = F_p, as an integer in [0, p)."""
        if self.kind == INTEGER_QUOTIENT:
            return a % self.p
        return a[0]

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
        if self.kind == INTEGER_QUOTIENT:
            yield from range(self.modulus)
            return
        p, e = self.p, self.e
        for n in range(p ** e):
            cs = []
            for _ in range(e):
                cs.append(n % p)
                n //= p
            yield tuple(cs)

    def ideal_elements(self, power: int = 1) -> Iterator[Payload]:
        """All elements of m^power (the zero ideal once power >= e)."""
        if power >= self.e:
            yield self.zero
            return
        if self.kind == INTEGER_QUOTIENT:
            step = self.p ** power
            yield from range(0, self.modulus, step)
            return
        p, e = self.p, self.e
        free = e - power
        for n in range(p ** free):
            cs = [0] * power
            for _ in range(free):
                cs.append(n % p)
                n //= p
            yield tuple(cs)

    def random_element(self, rng, min_valuation: int = 0) -> Payload:
        """A uniformly random element of m^min_valuation.

        Uses the generator directly instead of materializing the ideal, so
        it stays cheap for large e.
        """
        k = min(min_valuation, self.e)
        if self.kind == INTEGER_QUOTIENT:
            step = self.p ** k
            return step * rng.randrange(self.p ** (self.e - k)) if k < self.e else 0
        cs = [0] * k + [rng.randrange(self.p) for _ in range(self.e - k)]
        return tuple(cs)

    # -- serialization and housekeeping --------------------------------------

    def payload_to_json(self, a: Payload):
        return a if self.kind == INTEGER_QUOTIENT else list(a)

    def payload_from_json(self, obj) -> Payload:
        if self.kind == INTEGER_QUOTIENT:
            return int(obj) % self.modulus
        return self.from_coeffs(obj)

    def to_json(self) -> dict:
        return {"kind": self.kind, "p": self.p, "e": self.e}

    @classmethod
    def from_json(cls, obj: dict) -> "RingConfig":
        return cls(obj["kind"], int(obj["p"]), int(obj["e"]))

    def elem(self, value) -> "RingElem":
        """Wrap an int (any kind) or coefficient sequence (polynomial kind)."""
        if isinstance(value, int):
            return RingElem(self, self.from_int(value))
        return RingElem(self, self.from_coeffs(value))

    def __eq__(self, other) -> bool:
        return isinstance(other, RingConfig) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

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
