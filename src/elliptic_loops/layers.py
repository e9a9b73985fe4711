"""Layers: level sets of F - t*H_F inside an elliptic loop.

For each t in the maximal ideal, the layer L_t collects the projective
points where F - t*H_F vanishes exactly (not merely modulo m).  The
0-layer is the classical curve E_{A,B}(R).  Layers are abelian groups
under the loop addition, they cover the loop, and their affine parts are
pairwise disjoint; the affine part of a point with invertible Hessian
value belongs to exactly one layer, recovered by :func:`stratify`.

Everything here is exact ring arithmetic; no layer result depends on a
choice of representatives because F and H_F are homogeneous of the same
degree.
"""

from __future__ import annotations

from .errors import HessianNotUnit, PreconditionUnmet
from .loop_core import (
    LoopParams,
    _eval_f,
    _eval_h,
    _multiples,
    add,
    order_of,
    raw_add,
    scalar_mul,
)
from .projective import ProjPoint, plane_points
from .ring import INTEGER_QUOTIENT, Payload, RingElem


class Layer:
    """One layer L_t; ``t`` is kept as a canonical payload in m."""

    __slots__ = ("params", "t")

    def __init__(self, params: LoopParams, t):
        ring = params.ring
        t = ring.payload(t)
        if ring.is_unit(t):
            raise PreconditionUnmet(
                f"layer parameter {t!r} must lie in the maximal ideal"
            )
        self.params = params
        self.t = t

    def equation(self, x: Payload, y: Payload, z: Payload) -> Payload:
        """(F - t*H_F)(x, y, z) as a payload."""
        params = self.params
        ring = params.ring
        f = _eval_f(params, x, y, z)
        h = _eval_h(params, x, y, z)
        return ring.sub(f, ring.mul(self.t, h))

    def __repr__(self) -> str:
        return f"Layer(t={self.t!r} of {self.params!r})"


def all_layers(params: LoopParams) -> list:
    """One Layer per element of m, |m| = p^(e-1) of them."""
    return [Layer(params, t) for t in params.ring.ideal_elements()]


def layer_membership(layer: Layer, pt: ProjPoint) -> bool:
    """Exact vanishing of F - t*H_F at the point."""
    return layer.equation(pt.x, pt.y, pt.z) == layer.params.ring.zero


def stratify(params: LoopParams, pt: ProjPoint) -> RingElem:
    """The unique layer parameter of an affine loop point.

    t = F(P) * H_F(P)^{-1}; requires the Hessian value to be a unit,
    which fails exactly over residue 3-torsion.
    """
    ring = params.ring
    h = _eval_h(params, pt.x, pt.y, pt.z)
    if not ring.is_unit(h):
        raise HessianNotUnit(
            f"Hessian value {h!r} at {pt!r} is not invertible; the point"
            f" sits over residue 3-torsion and does not stratify"
        )
    f = _eval_f(params, pt.x, pt.y, pt.z)
    return RingElem(ring, ring.mul(f, ring.inverse(h)))


def layer_points(layer: Layer) -> list:
    """All canonical points of the layer, q * p^(e-1) of them, in the order
    of ``loop_points()``: every layer point is a loop point."""
    equation, zero = layer.equation, layer.params.ring.zero
    return [pt for pt in layer.params.loop_points() if equation(pt.x, pt.y, pt.z) == zero]


def layer_infinity_points(layer: Layer) -> list:
    """The layer's points over the residue identity."""
    equation, zero = layer.equation, layer.params.ring.zero
    return [pt for pt in layer.params.infinity_points() if equation(pt.x, pt.y, pt.z) == zero]


def layer_infinity_generator(layer: Layer) -> ProjPoint:
    """The point (p : 1 : Z_t) generating the layer's infinity part.

    Z_t is the unique element of m with (F - t*H_F)(p, 1, Z_t) = 0; it is
    found by Newton iteration from z = 0, where the z-derivative of the
    layer equation is a unit congruent to -1.
    """
    params = layer.params
    ring = params.ring
    if ring.kind != INTEGER_QUOTIENT:
        raise PreconditionUnmet(
            "infinity generators are computed for integer quotients only"
        )
    u = ring.uniformizer()
    t = layer.t
    a, a2, b = params.a, params._a2, params.b
    mul, addp, sub = ring.mul, ring.add, ring.sub

    def g(z: Payload) -> Payload:
        return layer.equation(u, ring.one, z)

    def gprime(z: Payload) -> Payload:
        # d/dz [F(u,1,z)] = 2Auz + 3Bz^2 - 1
        fz = sub(
            addp(ring.mul_int(2, mul(a, mul(u, z))), ring.mul_int(3, mul(b, mul(z, z)))),
            ring.one,
        )
        # d/dz [H(u,1,z)] = -8(3Au^2 + 18Buz - 3A^2 z^2)
        hz = ring.mul_int(
            -8,
            sub(
                addp(ring.mul_int(3, mul(a, mul(u, u))), ring.mul_int(18, mul(b, mul(u, z)))),
                ring.mul_int(3, mul(a2, mul(z, z))),
            ),
        )
        return sub(fz, mul(t, hz))

    z = ring.zero
    for _ in range(2 * ring.e + 2):
        val = g(z)
        if val == ring.zero:
            return ProjPoint(ring, u, ring.one, z)
        z = sub(z, mul(val, ring.inverse(gprime(z))))
    raise PreconditionUnmet(f"Newton iteration failed to settle for {layer!r}")


def hessian_closure_sweep(params: LoopParams, alpha, beta, pairs=None) -> tuple:
    """Closure of the zero set of alpha*F + beta*H_F under the raw law.

    Each supplied pair must consist of points annihilating the
    combination, else PreconditionUnmet is raised; each distinct point is
    checked once.  The sum is evaluated on the raw (unnormalized) image
    triple, so non-primitive sums are handled too.  When no pairs are
    given, every unordered pair of the combination's zero set in P^2(R)
    is used: the raw law is symmetric as a map of triples, so one order
    per pair suffices.

    Returns (closed, pairs checked, size of the zero set or None).  The
    sweep stops at the first pair whose sum leaves the zero set.
    """
    ring = params.ring
    zero = ring.zero
    al, be = ring.payload(alpha), ring.payload(beta)

    def combo(x, y, z):
        return ring.add(ring.mul(al, _eval_f(params, x, y, z)),
                        ring.mul(be, _eval_h(params, x, y, z)))

    if pairs is None:
        zero_set = [pt for pt in plane_points(ring) if combo(pt.x, pt.y, pt.z) == zero]
        size = len(zero_set)
        verified = {pt.coords() for pt in zero_set}
        pairs = ((u, v) for i, u in enumerate(zero_set) for v in zero_set[i:])
    else:
        size = None
        verified = set()
    checked = 0
    for u, v in pairs:
        for w in (u, v):
            key = w.coords()
            if key not in verified:
                if combo(*key) != zero:
                    raise PreconditionUnmet(
                        f"pair {u!r}, {v!r} does not annihilate the combination"
                    )
                verified.add(key)
        checked += 1
        if combo(*raw_add(params, u.coords(), v.coords())) != zero:
            return False, checked, size
    return True, checked, size


def hessian_closure_check(params: LoopParams, alpha, beta, pairs=None) -> bool:
    """Whether the zero set of alpha*F + beta*H_F is closed under raw sums.

    See :func:`hessian_closure_sweep`, which also reports the counts.
    """
    return hessian_closure_sweep(params, alpha, beta, pairs)[0]


def layer_isomorphism_check(layer: Layer) -> tuple:
    """Explicit isomorphism Z/p^(e-1) x E(F_p) -> L_t when gcd(q, 3p) = 1.

    The infinity generator G supplies the first factor.  For the second, a
    section of the reduction map is built by scaling any fiber lift by the
    integer c with c = 0 mod p^(e-1) and c = 1 mod q, which kills the
    infinity component without moving the residue point.  The map
    (i, S) -> i*G + section(S) is then checked to be a bijection and a
    homomorphism on every pair.  Returns (True, mapping) on success.
    """
    params = layer.params
    ring = params.ring
    q = params.q
    pe1 = ring.ideal_size
    if q % 3 == 0 or q % ring.p == 0:
        raise PreconditionUnmet(
            f"isomorphism check needs gcd(q, 3p) = 1; q = {q}, p = {ring.p}"
        )
    pts = layer_points(layer)
    pt_set = set(pts)
    if len(pts) != q * pe1:
        return False, None

    gen = layer_infinity_generator(layer)
    if order_of(params, gen) != pe1:
        return False, None

    c = pe1 * pow(pe1, -1, q)  # 0 mod p^(e-1), 1 mod q
    rp = params.residue_params
    section = {}
    for pt in pts:
        r = params.project(pt)
        if r not in section:
            section[r] = scalar_mul(params, c, pt)
    if len(section) != q:
        return False, None

    gen_multiples = _multiples(params, gen, pe1)

    phi = {}
    for i in range(pe1):
        gi = gen_multiples[i]
        for r, s in section.items():
            phi[(i, r.coords())] = add(params, gi, s)

    # bijection onto the layer
    if set(phi.values()) != pt_set or len(phi) != len(pts):
        return False, None

    # homomorphism on all pairs; the second factor adds on the residue curve
    rkeys = list(section.keys())
    radd = {}
    for r1 in rkeys:
        for r2 in rkeys:
            radd[(r1.coords(), r2.coords())] = add(rp, r1, r2).coords()
    for (i1, r1), v1 in phi.items():
        for (i2, r2), v2 in phi.items():
            target = phi[((i1 + i2) % pe1, radd[(r1, r2)])]
            if add(params, v1, v2) != target:
                return False, None
    return True, phi


def layer_group_structure(layer: Layer) -> tuple:
    """Observed invariant factors (n1, n2) of the layer group, n1 | n2."""
    params = layer.params
    pts = layer_points(layer)
    n = len(pts)
    n2 = 1
    for pt in pts:
        o = order_of(params, pt)
        if o > n2:
            n2 = o
    n1 = n // n2
    return (n1, n2)


def layer_report(layer: Layer) -> dict:
    """Summary record used by the command-line surface."""
    params = layer.params
    ring = params.ring
    pts = layer_points(layer)
    gen = layer_infinity_generator(layer)
    n1, n2 = layer_group_structure(layer)
    structure = f"Z/{n2}" if n1 == 1 else f"Z/{n1} x Z/{n2}"
    return {
        "t": ring.payload_to_json(layer.t),
        "Z_t": ring.payload_to_json(gen.z),
        "cardinality": len(pts),
        "infinity_order": order_of(params, gen),
        "group_structure": structure,
    }


def matching_curve_shift(layer: Layer):
    """Search for (alpha, beta) in m^2 with L_t = E_{A+alpha, B+beta}(R).

    Layers are observed to coincide with curves for small instances; this
    is reported as an observation, not asserted as a theorem.  Returns the
    first matching pair of payloads, or None.
    """
    params = layer.params
    ring = params.ring
    target = set(layer_points(layer))
    for da in ring.ideal_elements():
        for db in ring.ideal_elements():
            shifted = LoopParams(ring, ring.add(params.a, da), ring.add(params.b, db))
            curve = set(layer_points(Layer(shifted, ring.zero)))
            if curve == target:
                return (da, db)
    return None
