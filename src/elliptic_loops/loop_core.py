"""Elliptic loops over a finite local ring: points and the complete law.

For a ring R with maximal ideal m and parameters A, B the loop consists of
every point of P^2(R) where the Weierstrass cubic

    F(X, Y, Z) = X^3 + A X Z^2 + B Z^3 - Y^2 Z

falls into m.  The base curve over the residue field must be nonsingular
and of odd order; both are checked at construction time.  Addition is one
polynomial map, total on the whole loop:

    T1 = (X1 Y2 + X2 Y1) Q1 + (Z1 Y2 + Z2 Y1) Q2
    T2 = Q1 Q4 - Q2 Q3
    T3 = (X1 Y2 + X2 Y1) Q3 + (Z1 Y2 + Z2 Y1) Q4

with the four bilinear forms

    Q1 = -A X1 Z2 - A X2 Z1 - 3B Z1 Z2 + Y1 Y2
    Q2 = A^2 Z1 Z2 - A X1 X2 - 3B X1 Z2 - 3B X2 Z1
    Q3 = A Z1 Z2 + 3 X1 X2
    Q4 = A X1 Z2 + A X2 Z1 + 3B Z1 Z2 + Y1 Y2

The identity is (0 : 1 : 0) and -(X : Y : Z) = (X : -Y : Z).  Every loop
point has unit Y, so canonical forms are (x : 1 : z); addition of two
canonical points uses a reduced instance of the same formulas.

The operation is commutative and power-associative but in general not
associative; nothing in this module assumes associativity.
"""

from __future__ import annotations

from math import isqrt

from .errors import (
    DegenerateSum,
    EvenOrder,
    PreconditionUnmet,
    SingularCurve,
)
from .projective import ProjPoint, normalize
from .ring import INTEGER_QUOTIENT, Payload, RingConfig, RingElem


def _sqrt_table(p: int) -> dict:
    """v -> sorted list of square roots of v modulo p."""
    roots: dict = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    return roots


def _cubic_has_root(p: int, a: int, b: int) -> bool:
    """Whether f = x^3 + a x + b has a root mod p, i.e. gcd(x^p - x, f) != 1.

    x^p mod f comes by square-and-multiply on c0 + c1 x + c2 x^2, the gcd
    by Euclid's algorithm (H. Cohen, GTM 138, section 1.6).
    """
    def mul(u, v):  # reduced by x^3 = -a x - b and x^4 = -a x^2 - b x
        (u0, u1, u2), (v0, v1, v2) = u, v
        c3, c4 = u1 * v2 + u2 * v1, u2 * v2
        return [(u0 * v0 - b * c3) % p, (u0 * v1 + u1 * v0 - a * c3 - b * c4) % p,
                (u0 * v2 + u1 * v1 + u2 * v0 - a * c4) % p]

    r = [1, 0, 0]
    for bit in bin(p)[2:]:
        r = mul(mul(r, r), [0, 1, 0]) if bit == "1" else mul(r, r)
    u, v = [b % p, a % p, 0, 1], [r[0], (r[1] - 1) % p, r[2]]  # constant term first
    while any(v):
        while not v[-1]:
            v.pop()
        while len(u) >= len(v):  # u <- u mod v
            c, k = u.pop() * pow(v[-1], -1, p), len(u) - len(v) + 1
            for i in range(len(v) - 1):
                u[k + i] = (u[k + i] - c * v[i]) % p
        u, v = v, u
    return len(u) > 1


class LoopParams:
    """Validated parameters (R, A, B) plus the residue curve, listed on first use.

    Constructed through :func:`validate_params`.  The residue curve
    E: y^2 = x^3 + ab x + bb over F_p is listed both as affine pairs and
    as canonical points of the e = 1 loop over Z/p, which carries the
    same addition law and is used for all order bookkeeping downstairs.
    That loop enumerates the curve when ``q`` or a list is first read;
    every other loop shares its lists.
    """

    __slots__ = (
        "ring", "a", "b", "delta",
        "_a2", "_b3",
        "_lists", "residue_params",
        "_orders", "_points", "_identity",
    )

    def __init__(self, ring: RingConfig, a, b):
        a, b = ring.payload(a), ring.payload(b)
        self.ring = ring
        self.a = a
        self.b = b
        self._orders = {}
        self._points = self._identity = self._lists = None
        self._a2 = ring.mul(a, a)
        self._b3 = ring.mul_int(3, b)

        # discriminant up to sign: -(4 A^3 + 27 B^2) must be a unit
        a3 = ring.mul(self._a2, a)
        b2 = ring.mul(b, b)
        self.delta = ring.neg(ring.add(ring.mul_int(4, a3), ring.mul_int(27, b2)))
        if not ring.is_unit(self.delta):
            raise SingularCurve(
                f"-(4A^3 + 27B^2) = {self.delta!r} is not a unit in {ring!r}"
            )

        if ring.e == 1 and ring.kind == INTEGER_QUOTIENT:
            self.residue_params = self
            if _cubic_has_root(ring.p, a, b):
                raise EvenOrder(
                    f"residue curve y^2 = x^3 + {a}x + {b} over F_{ring.p} has a"
                    f" point with y = 0, so its order is even"
                )
        else:
            # Z/p carries the residue curve; check it there, once
            self.residue_params = LoopParams(ring.residue_ring(), ring.residue(a), ring.residue(b))

    def _curve(self) -> tuple:
        """(residue_pairs, residue_points), listed on the residue loop on first use."""
        rp = self.residue_params
        if rp._lists is None:
            rp._lists = rp._enumerate_residue_curve()
        return rp._lists

    residue_pairs = property(lambda self: self._curve()[0], doc="Affine points (x, y) of E.")
    residue_points = property(lambda self: self._curve()[1],
                              doc="The identity, then the canonical form of each pair.")
    q = property(lambda self: len(self._curve()[0]) + 1, doc="|E(F_p)|.")

    def _enumerate_residue_curve(self) -> tuple:
        """Affine points of y^2 = x^3 + A x + B over F_p and their loop points.

        Only the e = 1 integer loop runs this; every other loop shares the
        lists of its residue loop.  Each affine (x, y) has y != 0 (odd
        order), so its canonical form is (x y^-1 : 1 : y^-1).
        """
        p = self.ring.p
        ra, rb = self.a, self.b
        roots = _sqrt_table(p)
        pairs = []
        pts = [identity(self)]
        for x in range(p):
            for y in roots.get((x * x * x + ra * x + rb) % p, ()):
                pairs.append((x, y))
                yi = pow(y, -1, p)
                pts.append(ProjPoint(self.ring, x * yi % p, 1, yi))
        return pairs, pts

    # -- point bookkeeping ---------------------------------------------------

    def point(self, x, y, z) -> ProjPoint:
        """Canonicalize and membership-check a coordinate triple."""
        pt = ProjPoint.of(self.ring, x, y, z)
        if not membership(self, pt):
            raise PreconditionUnmet(f"{pt!r} is not a point of this loop")
        return pt

    def project(self, pt: ProjPoint) -> ProjPoint:
        """Reduction modulo m, landing on the residue curve over Z/p; a point
        with Y = 1, every loop point, is already canonical there."""
        r = self.ring
        rr = self.residue_params.ring
        if pt.y == r.one:
            return ProjPoint(rr, r.residue(pt.x), rr.one, r.residue(pt.z))
        return normalize(rr, r.residue(pt.x), r.residue(pt.y), r.residue(pt.z))

    def residue_order(self, rpt: ProjPoint) -> int:
        """Order of a residue-curve point, cached."""
        key = rpt.coords()
        n = self._orders.get(key)
        if n is None:
            n = order_of(self.residue_params, rpt)
            self._orders[key] = n
        return n

    def pi_order(self, pt: ProjPoint) -> int:
        """Order of the reduction pi(P) on the residue curve, cached."""
        return self.residue_order(self.project(pt))

    def fiber(self, f: int) -> list:
        """The |m|^2 loop points over the f-th residue point (x0 : 1 : z0).

        This is the loop's one point order.  Fiber f is (x0 + dx : 1 : z0 + dz)
        with dx outer and dz inner, both over ``ring.ideal_elements()``; fiber
        0, over the residue identity, is the infinity part.  ``loop_points()``
        lists the q fibers in turn, so its point f * |m|^2 + u * |m| + v is the
        one with dx, dz the u-th and v-th elements of m.
        """
        return self._fibers((self.residue_points[f],))

    def _fibers(self, residues) -> list:
        """The fibers over ``residues`` in turn, each as :meth:`fiber` orders it."""
        ring = self.ring
        one, plus, lift, offsets = ring.one, ring.add, ring.from_int, list(ring.ideal_elements())
        return [ProjPoint(ring, x, one, z) for rpt in residues
                for zs in [[plus(lift(rpt.z), dz) for dz in offsets]]
                for x in [plus(lift(rpt.x), dx) for dx in offsets] for z in zs]

    def loop_point(self, i: int) -> ProjPoint:
        """``loop_points()[i]``, built alone (see :meth:`fiber`)."""
        ring, isz = self.ring, self.ring.ideal_size
        f, (u, v) = i // isz ** 2, divmod(i % isz ** 2, isz)
        rpt = self.residue_points[f]
        return ProjPoint(ring, ring.add(ring.from_int(rpt.x), ring.ideal_element(u)), ring.one,
                         ring.add(ring.from_int(rpt.z), ring.ideal_element(v)))

    def loop_points(self) -> list:
        """All q * |m|^2 points: the fibers of :meth:`fiber` in turn, listed once."""
        if self._points is None:
            self._points = self._fibers(self.residue_points)
        return self._points

    def infinity_points(self) -> list:
        """The fiber over the residue identity: all (x : 1 : z), x, z in m."""
        return self.fiber(0)

    def cardinality(self) -> int:
        return self.q * self.ring.ideal_size ** 2

    def __repr__(self) -> str:
        return f"LoopParams(A={self.a!r}, B={self.b!r} over {self.ring!r})"


def validate_params(ring: RingConfig, a, b) -> LoopParams:
    """Build LoopParams from ints (any ring) or payloads.

    Raises SingularCurve when the discriminant is not a unit and EvenOrder
    when the residue curve contains 2-torsion: x^3 + A x + B has a root mod
    p, which a gcd with x^p - x decides without listing the curve.
    """
    return LoopParams(ring, a, b)


# -- the cubic, its Hessian and the raw law: one statement for both rings ----
#
# Each of F, H and the raw law is a single integer polynomial in the
# payloads, reduced once by ``ring.mod``: p^e over Z/p^e, and over
# F_p[t]/(t^e) the reducer of the Kronecker-packed payloads, for which int
# products are polynomial products (see ring.Poly for the slot width).


def _eval_f(params: LoopParams, x: Payload, y: Payload, z: Payload) -> Payload:
    zz = z * z
    return (x * x * x + (params.a * x + params.b * z) * zz - y * y * z) % params.ring.mod


def _eval_h(params: LoopParams, x: Payload, y: Payload, z: Payload) -> Payload:
    inner = 3 * x * (params.a * x * z + y * y + 3 * params.b * z * z) - params._a2 * z * z * z
    return -8 * inner % params.ring.mod


def raw_add(params: LoopParams, t1: tuple, t2: tuple) -> tuple:
    """The full bihomogeneous law on arbitrary representatives.

    Returns the unnormalized image triple (T1, T2, T3) as payloads.  Both
    inputs may be any primitive representatives; the output then represents
    the sum of the two points whenever both lie on the loop.  The law is
    symmetric as a map of triples: raw_add(u, v) == raw_add(v, u) exactly.
    """
    M = params.ring.mod
    a, b3 = params.a, params._b3
    x1, y1, z1 = t1
    x2, y2, z2 = t2
    xx = x1 * x2
    yy = y1 * y2
    zz = z1 * z2
    xz = x1 * z2 + x2 * z1
    xy = x1 * y2 + x2 * y1
    zy = z1 * y2 + z2 * y1
    axz = a * xz
    b3zz = b3 * zz
    q1 = yy - axz - b3zz
    q2 = params._a2 * zz - a * xx - b3 * xz
    q3 = a * zz + 3 * xx
    q4 = yy + axz + b3zz
    return ((xy * q1 + zy * q2) % M, (q1 * q4 - q2 * q3) % M, (xy * q3 + zy * q4) % M)


def eval_F(params: LoopParams, pt: ProjPoint) -> RingElem:
    """Value of X^3 + AXZ^2 + BZ^3 - Y^2 Z at the canonical representative."""
    return RingElem(params.ring, _eval_f(params, pt.x, pt.y, pt.z))


def eval_H(params: LoopParams, pt: ProjPoint) -> RingElem:
    """Value of the Hessian determinant -8(3AX^2 Z + 3XY^2 + 9BXZ^2 - A^2 Z^3)."""
    return RingElem(params.ring, _eval_h(params, pt.x, pt.y, pt.z))


def membership(params: LoopParams, pt: ProjPoint) -> bool:
    """Whether F(P) lies in the maximal ideal (scaling-invariant)."""
    return not params.ring.is_unit(_eval_f(params, pt.x, pt.y, pt.z))


def identity(params: LoopParams) -> ProjPoint:
    if params._identity is None:
        ring = params.ring
        params._identity = ProjPoint(ring, ring.zero, ring.one, ring.zero)
    return params._identity


# -- the addition law ----------------------------------------------------------


def _add_canonical(params: LoopParams, x1, z1, x2, z2) -> tuple:
    """Reduced law for two canonical points (x : 1 : z); only T2, x3 and z3 are reduced."""
    M = params.ring.mod
    a, a2, b3 = params.a, params._a2, params._b3
    xx = x1 * x2
    zz = z1 * z2
    xz = x1 * z2 + x2 * z1
    sx = x1 + x2
    sz = z1 + z2
    q1 = 1 - a * xz - b3 * zz
    q2 = a2 * zz - a * xx - b3 * xz
    q3 = a * zz + 3 * xx
    q4 = a * xz + b3 * zz + 1
    t2 = (q1 * q4 - q2 * q3) % M
    try:
        inv = pow(t2, -1, M)
    except ValueError:
        raise DegenerateSum(
            f"sum of ({x1}:1:{z1}) and ({x2}:1:{z2}) has no unit Y coordinate"
        ) from None
    x3 = (sx * q1 + sz * q2) * inv % M
    z3 = (sx * q3 + sz * q4) * inv % M
    return x3, z3


def add(params: LoopParams, p1: ProjPoint, p2: ProjPoint) -> ProjPoint:
    """Sum of two loop points, in canonical form.

    Canonical loop points always carry Y = 1, where a reduced form of the
    law applies; other representatives fall through to the full law.
    """
    ring = params.ring
    one = ring.one
    if p1.y == one and p2.y == one:
        x3, z3 = _add_canonical(params, p1.x, p1.z, p2.x, p2.z)
        return ProjPoint(ring, x3, one, z3)
    s1, s2, s3 = raw_add(params, p1.coords(), p2.coords())
    if not (ring.is_unit(s1) or ring.is_unit(s2) or ring.is_unit(s3)):
        raise DegenerateSum(f"sum of {p1!r} and {p2!r} is not primitive")
    return normalize(ring, s1, s2, s3)


def neg(params: LoopParams, pt: ProjPoint) -> ProjPoint:
    """-(X : Y : Z) = (X : -Y : Z), canonicalized."""
    ring = params.ring
    if pt.y == ring.one:
        return ProjPoint(ring, ring.neg(pt.x), ring.one, ring.neg(pt.z))
    return normalize(ring, pt.x, ring.neg(pt.y), pt.z)


def sub(params: LoopParams, p1: ProjPoint, p2: ProjPoint) -> ProjPoint:
    return add(params, p1, neg(params, p2))


def scalar_mul(params: LoopParams, n: int, pt: ProjPoint) -> ProjPoint:
    """n-fold sum by double-and-add.

    Power-associativity of the loop makes every addition order give the
    same answer, so the binary chain is safe; the test suite compares it
    against the unary definition.
    """
    if n < 0:
        return scalar_mul(params, -n, neg(params, pt))
    if n == 0:
        return identity(params)
    out = pt
    for bit in bin(n)[3:]:
        out = add(params, out, out)
        if bit == "1":
            out = add(params, out, pt)
    return out


def _multiples(params: LoopParams, g: ProjPoint, count: int) -> list:
    """[0*g, 1*g, ..., (count-1)*g], by repeated addition."""
    out = [identity(params)]
    for _ in range(count - 1):
        out.append(add(params, out[-1], g))
    return out


def order_of(params: LoopParams, pt: ProjPoint) -> int:
    """Least n >= 1 with n P = identity.

    The reduction pi is a homomorphism and the powers of P form a cyclic
    group (power-associativity), so n = r * ord(r P) with r = ord(pi(P)).
    The multiple r P lies at infinity, which p^(e-1) kills, so its order
    is p^j with j <= e - 1: r P is multiplied by p until it vanishes, and
    a point that p^e does not kill raises PreconditionUnmet.  Only the
    e = 1 integer loop, the residue curve itself, counts by iterated
    addition; its orders are cached per residue point.
    """
    if params.residue_params is params:
        return _order_by_addition(params, pt)
    r = params.pi_order(pt)
    acc = scalar_mul(params, r, pt)
    o = identity(params)
    p = params.ring.p
    n = r
    for _ in range(params.ring.e + 1):
        if acc == o:
            return n
        acc = scalar_mul(params, p, acc)
        n *= p
    raise PreconditionUnmet(
        f"{r} * {pt!r} is not killed by p^{params.ring.e}, so {pt!r} is not"
        f" a point of this loop"
    )


def _order_by_addition(params: LoopParams, pt: ProjPoint) -> int:
    """Least n >= 1 with n P = identity, by iterated addition.

    The loop holds q * |m|^2 points with q <= p + 1 + 2 sqrt(p) (Hasse), so
    that bounds the walk without listing the residue curve to read q.
    """
    o = identity(params)
    if pt == o:
        return 1
    p = params.ring.p
    bound = (p + 1 + isqrt(4 * p)) * params.ring.ideal_size ** 2 + 1
    acc = pt
    for n in range(2, bound + 1):
        acc = add(params, acc, pt)
        if acc == o:
            return n
    raise PreconditionUnmet(f"{pt!r} generated more points than the loop holds")


def lift_affine(params: LoopParams, pt: ProjPoint, alpha) -> RingElem:
    """Parameter shift that puts an affine point exactly on a curve.

    For P with unit Z, written as (x : y : 1), and a chosen alpha in m,
    returns beta = y^2 - x^3 - (A + alpha) x - B, the unique value with
    y^2 = x^3 + (A + alpha) x + (B + beta).  Both shifts stay in m when P
    is a loop point and alpha is in m.
    """
    ring = params.ring
    if not ring.is_unit(pt.z):
        raise PreconditionUnmet(f"{pt!r} is not affine (Z is not a unit)")
    al = ring.payload(alpha)
    u = ring.inverse(pt.z)
    x = ring.mul(pt.x, u)
    y = ring.mul(pt.y, u)
    mul, sub = ring.mul, ring.sub
    x3 = mul(mul(x, x), x)
    beta = sub(sub(sub(mul(y, y), x3), mul(ring.add(params.a, al), x)), params.b)
    return RingElem(ring, beta)
