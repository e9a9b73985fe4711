"""Layers: level sets of F - t*H_F inside an elliptic loop.

For each t in the maximal ideal, the layer L_t collects the projective
points where F - t*H_F vanishes exactly (not merely modulo m).  The
0-layer is the classical curve E_{A,B}(R).  Layers are abelian groups
under the loop addition, they cover the loop, and their affine parts are
pairwise disjoint; the affine part of a point with invertible Hessian
value belongs to exactly one layer, recovered by :func:`stratify`.  Each
layer is smooth over R, so :func:`layer_points` lifts it fiber by fiber
from the residue curve instead of searching the loop.

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
    add,
    order_of,
    raw_add,
)
from .projective import ProjPoint, plane_triples
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
    """All canonical points of the layer, q * p^(e-1) of them, in the loop's
    point order (see :meth:`LoopParams.fiber`): every layer point is a loop point.

    Hensel's lemma: the layer is smooth over R, so over each residue point
    (x0 : 1 : z0) it is the graph of z over x, or of x over z.  With
    g = F - t*H_F on Y = 1, digit 1 of g after one unit step in z (or x) is
    that partial mod m, and one of the two is a unit (the residue curve is
    smooth; Euler's relation covers Y).  For each offset of x, the step
    z -> z - g * c from z0, c a unit lift of the inverse slope, gains one
    m-adic digit, so the unique exact root appears within e evaluations:
    at most q * (e * |m| + 3) in all, and the loop is never listed.
    """
    params = layer.params
    ring = params.ring
    mod, e, one = ring.mod, ring.e, ring.one
    pi = ring.uniformizer()
    offsets = list(ring.ideal_elements())
    rank = {d: i for i, d in enumerate(offsets)}
    pts = []
    for rpt in params.residue_points:
        x0, z0 = ring.from_int(rpt.x), ring.from_int(rpt.z)
        g0 = layer.equation(x0, one, z0)
        slope = ring.digits((layer.equation(x0, one, (z0 + pi) % mod) - g0) % mod)[1]
        swap = not slope and e > 1  # then solve for x over each z
        if swap:
            slope = ring.digits((layer.equation((x0 + pi) % mod, one, z0) - g0) % mod)[1]
            if not slope:
                raise PreconditionUnmet(f"neither partial of {layer!r} is a unit over {rpt!r}")
            x0, z0 = z0, x0
        # e = 1: m = 0, the residue point is the whole fiber and no step is taken
        c = ring.from_int(pow(slope, -1, ring.p)) if slope else ring.zero
        fiber = []
        for d in offsets:
            u, v = (x0 + d) % mod, z0  # v is solved for, u runs over its fiber
            for _ in range(e):
                val = layer.equation(v, one, u) if swap else layer.equation(u, one, v)
                if val == 0:
                    break
                v = (v - val * c) % mod
            else:
                raise PreconditionUnmet(
                    f"the Hensel lift of {layer!r} over {rpt!r} found no root in {e} steps"
                )
            fiber.append((v, u) if swap else (u, v))
        if swap:  # back into the fiber's order, by the offset of x
            fiber.sort(key=lambda xz: rank[(xz[0] - z0) % mod])
        pts += [ProjPoint(ring, x, one, z) for x, z in fiber]
    return pts


def layer_infinity_generator(layer: Layer) -> ProjPoint:
    """The point (p : 1 : Z_t) generating the layer's infinity part.

    Z_t is the unique element of m with g(Z_t) = 0, g(z) = (F - t*H_F)(p, 1, z).
    As g'(z) = -1 mod m, each step z -> z + g(z) from z = 0 gains at least one
    m-adic digit toward Z_t, so at most e evaluations of the layer equation
    find it.
    """
    ring = layer.params.ring
    if ring.kind != INTEGER_QUOTIENT:
        raise PreconditionUnmet(
            "infinity generators are computed for integer quotients only"
        )
    u = ring.uniformizer()
    z = ring.zero
    for _ in range(ring.e):
        val = layer.equation(u, ring.one, z)
        if val == ring.zero:
            return ProjPoint(ring, u, ring.one, z)
        z = ring.add(z, val)
    raise PreconditionUnmet(f"the iteration for Z_t failed to settle for {layer!r}")


def combination(params: LoopParams, alpha, beta):
    """alpha*F + beta*H_F as a payload function of a coordinate triple."""
    ring = params.ring
    al, be, mod = ring.payload(alpha), ring.payload(beta), ring.mod
    return lambda x, y, z: (al * _eval_f(params, x, y, z) + be * _eval_h(params, x, y, z)) % mod


def plane_zeros(params: LoopParams, combo) -> list:
    """The points of P^2(R) where ``combo`` vanishes, by one scan of the plane's triples."""
    ring = params.ring
    zero = ring.zero
    return [ProjPoint(ring, *t) for t in plane_triples(ring) if combo(*t) == zero]


def _cross(u, v) -> tuple:
    return u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]


def closure_blocks(params: LoopParams, zeros) -> tuple:
    """(price, blocks): the blocks of point pairs whose raw sums decide the closure
    of ``zeros`` under the raw law, and the number of those sums.

    There is one block per unordered pair of fibers, each fiber with itself
    and then with every later one; the price is known from the fibers'
    frames, and the blocks are listed lazily, as they are run.  ``zeros``
    is the zero set of a combination g = alpha*F + beta*H_F.  At e = 2 a
    fiber is its points over one residue point: each is that residue plus pi
    times its offset digits (:meth:`RingConfig.digits`).  As pi^2 = 0,
    G(a, b) = g(raw_add(a, b)) is affine in the digits of a and b together,
    with no term in both, as every such term carries pi^2 (the first-order
    formal group, see ``diagnostics._table_by_blocks``).  A fiber's frame is
    a0, then the first member off a0, then the first off the line through
    both: an affine basis of the span aff(A) of the fiber's offsets.  G is
    c + L(a) + L'(b), so if it vanishes at (a0, b0), (a_i, b0) and (a0, b_j),
    L and L' vanish on the frames' steps and G on all of aff(A) x aff(B),
    which holds A x B whether or not A fills its span: 1 + d_A + d_B sums,
    and 1 + d_A on A x A, as the raw law is symmetric (L = L').  At any
    other e each point is a fiber, its own frame, so each block is one pair,
    in the order of a direct sweep.  f frames are priced at
    f * sum |frame| - f(f - 1)/2 sums, s(s+1)/2 for s one-point fibers.
    """
    p, digits, two = params.ring.p, params.ring.digits, params.ring.e == 2
    fibers = {}
    for k, pt in enumerate(zeros):
        residue, off = zip(*map(digits, pt.coords())) if two else (k, None)
        fibers.setdefault(residue, []).append((pt, off))
    frames = []
    for members in fibers.values():
        (_, o0), frame, steps = members[0], [members[0][0]], []
        for pt, off in members[1:]:
            step = [a - b for a, b in zip(off, o0)]
            if steps and not any(c % p for c in _cross(steps[0], step)):
                continue  # on the line through the frame so far
            steps.append(step)
            frame.append(pt)
            if len(steps) == 2:
                break
        frames.append(frame)
    # frames A, B make |A| + |B| - 1 sums, A with itself |A|
    f = len(frames)
    price = f * sum(map(len, frames)) - f * (f - 1) // 2

    def blocks():
        for i, (a0, *rest) in enumerate(frames):
            yield [(a, a0) for a in (a0, *rest)]
            for b0, *more in frames[i + 1:]:  # (a0, b0), A's frame with b0, a0 with B's frame
                yield [(a0, b0), *((a, b0) for a in rest), *((a0, b) for b in more)]
    return price, blocks()


def closure_run(params: LoopParams, sets) -> tuple:
    """(failing (set, u, v) or None, raw sums made, blocks run): the blocks of
    :func:`closure_blocks` of each set [(combination, its blocks)], set after
    set, up to the first sum that the set's combination does not annihilate."""
    zero, sums, runs = params.ring.zero, 0, 0
    for i, (combo, blocks) in enumerate(sets):
        for block in blocks:
            runs += 1
            for u, v in block:
                sums += 1
                if combo(*raw_add(params, u.coords(), v.coords())) != zero:
                    return (i, u, v), sums, runs
    return None, sums, runs


def layer_isomorphism_check(layer: Layer, cayley) -> tuple:
    """Explicit isomorphism Z/p^(e-1) x E(F_p) -> L_t when gcd(q, 3p) = 1.

    Everything is read off ``cayley``, the layer's index table, whose build
    proved it closed.  The infinity generator G gives the first factor; for
    the second, a section sigma of the reduction map scales any fiber lift by
    the c with c = 0 mod p^(e-1) and c = 1 mod q, which kills the infinity
    component and keeps the residue point.  phi(i, S) = i*G + sigma(S) is
    checked to be a bijection, and is a homomorphism as the table is an
    abelian group (:meth:`CayleyIndex.abelian`) in which G has order p^(e-1)
    and sigma(S1) + sigma(S2) = sigma(S1 + S2) on the residue curve (q^2
    additions).  Returns (True, phi) on success, else (False, None).
    """
    params = layer.params
    ring = params.ring
    q = params.q
    pe1 = ring.ideal_size
    if q % 3 == 0 or q % ring.p == 0:
        raise PreconditionUnmet(
            f"isomorphism check needs gcd(q, 3p) = 1; q = {q}, p = {ring.p}"
        )
    pts, table = cayley.points, cayley.table
    gen_multiples = cayley.multiples(cayley.index[layer_infinity_generator(layer).coords()])

    c = pe1 * pow(pe1, -1, q)  # 0 mod p^(e-1), 1 mod q
    section = {}
    for i, pt in enumerate(pts):
        r = params.project(pt)
        if r not in section:
            section[r] = cayley.mul(i, c)
    if len(pts) != q * pe1 or len(gen_multiples) != pe1 or len(section) != q:
        return False, None

    phi = {(i, r.coords()): table[g][s]
           for i, g in enumerate(gen_multiples) for r, s in section.items()}
    if len(set(phi.values())) != len(pts) or not cayley.abelian():
        return False, None
    rp = params.residue_params
    if any(table[s1][s2] != section[add(rp, r1, r2)]
           for r1, s1 in section.items() for r2, s2 in section.items()):
        return False, None
    return True, {key: pts[k] for key, k in phi.items()}


def layer_report(layer: Layer) -> dict:
    """Summary record used by the command-line surface.

    The observed invariant factors n1 | n2 of the layer group: n2 is the
    largest point order, n1 = |L_t| / n2.
    """
    params = layer.params
    ring = params.ring
    pts = layer_points(layer)
    gen = layer_infinity_generator(layer)
    n2 = max((order_of(params, pt) for pt in pts), default=1)
    n1 = len(pts) // n2
    structure = f"Z/{n2}" if n1 == 1 else f"Z/{n1} x Z/{n2}"
    return {
        "t": ring.payload_to_json(layer.t),
        "Z_t": ring.payload_to_json(gen.z),
        "cardinality": len(pts),
        "infinity_order": order_of(params, gen),
        "group_structure": structure,
    }
