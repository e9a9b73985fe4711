"""Points of the projective plane over a finite local ring.

A triple (X : Y : Z) is primitive when at least one coordinate is a unit;
only primitive triples name points of P^2(R).  Each point is stored in a
canonical form: the first unit coordinate in the priority order Y, Z, X is
rescaled to 1.  With this convention two ProjPoints are projectively equal
exactly when they are structurally equal, which the rank-style test
``proj_equal`` cross-checks.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, product, starmap
from typing import Iterator

from .errors import NotPrimitive
from .ring import Payload, RingConfig


class ProjPoint:
    """A canonical-form point of P^2(R).

    The coordinate payloads are exposed as ``x``, ``y``, ``z``.  Construct
    through :func:`normalize` (or ``ProjPoint.of``) unless the triple is
    already canonical.
    """

    __slots__ = ("ring", "x", "y", "z")

    def __init__(self, ring: RingConfig, x: Payload, y: Payload, z: Payload):
        self.ring = ring
        self.x = x
        self.y = y
        self.z = z

    @classmethod
    def of(cls, ring: RingConfig, x, y, z) -> "ProjPoint":
        """Canonicalize a triple given as anything ``ring.payload`` accepts."""
        return normalize(ring, ring.payload(x), ring.payload(y), ring.payload(z))

    def coords(self) -> tuple:
        return (self.x, self.y, self.z)

    def scaled(self, u: Payload) -> tuple:
        """The representative (uX, uY, uZ), as payloads (u must be a unit
        for the result to represent the same point)."""
        r = self.ring
        return (r.mul(u, self.x), r.mul(u, self.y), r.mul(u, self.z))

    def to_json(self) -> list:
        r = self.ring
        return [r.payload_to_json(self.x), r.payload_to_json(self.y), r.payload_to_json(self.z)]

    @classmethod
    def from_json(cls, ring: RingConfig, obj) -> "ProjPoint":
        return normalize(ring, *(ring.payload_from_json(c) for c in obj))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProjPoint)
            and self.ring.key == other.ring.key
            and self.x == other.x
            and self.y == other.y
            and self.z == other.z
        )

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.z))

    def __repr__(self) -> str:
        return f"({self.x!r} : {self.y!r} : {self.z!r})"


def normalize(ring: RingConfig, x: Payload, y: Payload, z: Payload) -> ProjPoint:
    """Canonical form: scale the first unit coordinate (priority Y, Z, X) to 1.

    Raises NotPrimitive when all three coordinates lie in the maximal ideal.
    """
    if ring.is_unit(y):
        u = ring.inverse(y)
    elif ring.is_unit(z):
        u = ring.inverse(z)
    elif ring.is_unit(x):
        u = ring.inverse(x)
    else:
        raise NotPrimitive(f"({x!r} : {y!r} : {z!r}) has no unit coordinate")
    return ProjPoint(ring, ring.mul(u, x), ring.mul(u, y), ring.mul(u, z))


def is_primitive(ring: RingConfig, x: Payload, y: Payload, z: Payload) -> bool:
    return ring.is_unit(x) or ring.is_unit(y) or ring.is_unit(z)


def proj_equal(ring: RingConfig, t1: tuple, t2: tuple) -> bool:
    """Equality of two primitive triples as points of P^2(R).

    Two primitive triples describe the same point exactly when the 2x2
    minors of the matrix stacking them all vanish.  Triples may be any
    representatives, not just canonical ones.
    """
    x1, y1, z1 = t1
    x2, y2, z2 = t2
    if not (is_primitive(ring, x1, y1, z1) and is_primitive(ring, x2, y2, z2)):
        raise NotPrimitive("projective comparison needs primitive triples")
    mul, sub, zero = ring.mul, ring.sub, ring.zero
    return (
        sub(mul(x1, y2), mul(x2, y1)) == zero
        and sub(mul(x1, z2), mul(x2, z1)) == zero
        and sub(mul(y1, z2), mul(y2, z1)) == zero
    )


def count_projective(n: int, ring: RingConfig) -> int:
    """|P^n(R)| = sum_{i=0}^{n} |R|^(n-i) |m|^i for a local ring R."""
    if n < 0:
        raise ValueError("projective dimension must be non-negative")
    r, m = ring.size, ring.ideal_size
    return sum(r ** (n - i) * m ** i for i in range(n + 1))


def plane_triples(ring: RingConfig) -> Iterator[tuple]:
    """The canonical coordinate triples (x, y, z) of all points of P^2(R).

    Stratified by which coordinate is the first unit: Y = 1 with X, Z free;
    then Y in m, Z = 1; then Y, Z in m, X = 1.
    """
    one, elems, ideal = ring.one, list(ring.elements()), list(ring.ideal_elements())
    return chain(product(elems, (one,), elems),
                 ((x, y, one) for y, x in product(ideal, elems)),
                 product((one,), ideal, ideal))


def plane_points(ring: RingConfig) -> Iterator[ProjPoint]:
    """All points of P^2(R), one canonical representative each, in the order
    of :func:`plane_triples`."""
    return starmap(partial(ProjPoint, ring), plane_triples(ring))
