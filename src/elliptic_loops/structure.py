"""Associativity criteria, infinity coordinates, and torsion geometry.

The central object is the association matrix of a tuple of points: the
2 x n matrix whose columns hold the values (F(P_i), H_F(P_i)).  Its rank
(over the local ring, in the sense below) controls associativity: rank
at most 1 forces every triple from the tuple to associate.

Also here: the canonical coordinates of points at infinity with respect
to the generating pair (p : 1 : 0), (0 : 1 : p); the forbidden-locus
check (multiples of (0 : 1 : p) avoid every layer); and the geometry of
q-torsion fibers, which are lines in the plane when the nilpotency
degree is at most 2.
"""

from __future__ import annotations

from .errors import NilpotencyTooHigh, PreconditionUnmet
from .loop_core import (
    LoopParams,
    _eval_f,
    _eval_h,
    _multiples,
    add,
    identity,
    order_of,
    scalar_mul,
    sub,
)
from .projective import ProjPoint
from .ring import INTEGER_QUOTIENT


class AssocMatrix:
    """2 x n matrix of (F, H_F) values at the given points."""

    __slots__ = ("params", "points", "columns")

    def __init__(self, params: LoopParams, points):
        self.params = params
        self.points = tuple(points)
        self.columns = tuple(
            (_eval_f(params, pt.x, pt.y, pt.z), _eval_h(params, pt.x, pt.y, pt.z))
            for pt in self.points
        )

    def rank(self) -> int:
        """Coarse rank in {0, 1, 2}: 0 when every entry vanishes, 2 when
        some 2-minor is nonzero, 1 otherwise.  This is the grading the
        associativity criteria consume.
        """
        ring = self.params.ring
        zero = ring.zero
        cols = self.columns
        if all(f == zero and h == zero for f, h in cols):
            return 0
        for i in range(len(cols)):
            fi, hi = cols[i]
            for j in range(i + 1, len(cols)):
                fj, hj = cols[j]
                if ring.sub(ring.mul(fi, hj), ring.mul(fj, hi)) != zero:
                    return 2
        return 1

    def __repr__(self) -> str:
        return f"AssocMatrix({self.columns!r})"


def matrix_rank(params: LoopParams, points) -> int:
    return AssocMatrix(params, points).rank()


def triple_associates(params: LoopParams, p1: ProjPoint, p2: ProjPoint, p3: ProjPoint) -> bool:
    """(P1 + P2) + P3 == P1 + (P2 + P3), decided by direct evaluation."""
    return add(params, add(params, p1, p2), p3) == add(params, p1, add(params, p2, p3))


def assoc_sufficient(params: LoopParams, p1: ProjPoint, p2: ProjPoint, p3: ProjPoint) -> bool:
    """Rank criterion: rank <= 1 is sufficient for the triple to associate.

    Returns True when the criterion applies; in that case the triple is
    also checked directly and a failure would be a genuine contradiction,
    so it is raised rather than returned.
    """
    if matrix_rank(params, (p1, p2, p3)) > 1:
        return False
    if not triple_associates(params, p1, p2, p3):
        raise AssertionError(
            f"rank <= 1 triple failed to associate: {p1!r}, {p2!r}, {p3!r}"
        )
    return True


class InfDecomposition:
    """Coordinates of an infinity point over the generating pair.

    P = alpha * (p : 1 : 0) + beta * (0 : 1 : p) with
    0 <= alpha, beta < p^(e-1), uniquely.
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: int, beta: int):
        self.alpha = alpha
        self.beta = beta

    def to_json(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta}

    def __eq__(self, other) -> bool:
        if not isinstance(other, InfDecomposition):
            return NotImplemented
        return self.alpha == other.alpha and self.beta == other.beta

    def __repr__(self) -> str:
        return f"InfDecomposition(alpha={self.alpha}, beta={self.beta})"


def infinity_generators(params: LoopParams) -> tuple:
    """The pair (p : 1 : 0), (0 : 1 : p)."""
    ring = params.ring
    u = ring.uniformizer()
    return (
        ProjPoint(ring, u, ring.one, ring.zero),
        ProjPoint(ring, ring.zero, ring.one, u),
    )


def infinity_decompose(params: LoopParams, pt: ProjPoint) -> InfDecomposition:
    """Digit-by-digit extraction of the (alpha, beta) coordinates.

    After k rounds the partial sum agrees with the target modulo p^(k+1)
    in both affine coordinates; the next base-p digits of alpha and beta
    are read off the quotients of the differences.  The result is checked
    by recomputation.
    """
    ring = params.ring
    if ring.kind != INTEGER_QUOTIENT:
        raise PreconditionUnmet("infinity coordinates need an integer quotient ring")
    p, e = ring.p, ring.e
    if pt.y != ring.one or ring.is_unit(pt.x) or ring.is_unit(pt.z):
        raise PreconditionUnmet(f"{pt!r} is not a point at infinity")
    g1, g2 = infinity_generators(params)
    alpha = beta = 0
    for k in range(e - 1):
        partial = add(params, scalar_mul(params, alpha, g1), scalar_mul(params, beta, g2))
        dx = (pt.x - partial.x) % ring.modulus
        dz = (pt.z - partial.z) % ring.modulus
        step = p ** (k + 1)
        if dx % step or dz % step:
            raise AssertionError(
                f"digit extraction out of step at round {k}: {pt!r}"
            )
        alpha += ((dx // step) % p) * p**k
        beta += ((dz // step) % p) * p**k
    check = add(params, scalar_mul(params, alpha, g1), scalar_mul(params, beta, g2))
    if check != pt:
        raise AssertionError(f"decomposition of {pt!r} failed to recompose")
    return InfDecomposition(alpha, beta)


def forbidden_locus_check(params: LoopParams) -> bool:
    """No nonzero multiple of (0 : 1 : p) lies on any layer.

    Exhaustive over the p^(e-1) - 1 nonzero multiples and all layer
    parameters t in m.
    """
    from .layers import all_layers, layer_membership

    _, g2 = infinity_generators(params)
    ident = identity(params)
    layers = all_layers(params)
    for current in _multiples(params, g2, params.ring.ideal_size)[1:]:
        if current == ident:
            continue
        for lay in layers:
            if layer_membership(lay, current):
                return False
    return True


def fiber_points(params: LoopParams, pt: ProjPoint) -> list:
    """All loop points with the same residue as ``pt``: the fiber over its residue
    point, built alone (see :meth:`LoopParams.fiber`)."""
    try:
        f = params.residue_points.index(params.project(pt))
    except ValueError:
        raise PreconditionUnmet(f"{pt!r} is not a point of this loop") from None
    return params.fiber(f)


def torsion_fiber(params: LoopParams, q: int, pt: ProjPoint) -> list:
    """L_{q/P}: the q-torsion points sharing P's residue."""
    ident = identity(params)
    return [
        candidate
        for candidate in fiber_points(params, pt)
        if scalar_mul(params, q, candidate) == ident
    ]


def _torsion_needs_e_at_most_2(params: LoopParams) -> None:
    """Raise before any torsion work past e = 2, where the geometry has no theorem."""
    if params.ring.e > 2:
        raise NilpotencyTooHigh(f"torsion geometry needs e <= 2 (e = {params.ring.e})")


def difference_group(params: LoopParams, q: int, pt: ProjPoint):
    """D_{q/P}: pairwise differences of the torsion fiber, for e <= 2.

    Verified as in :func:`_checked_differences`: a subgroup of the infinity
    part that (when P itself is q-torsion) translates P onto the fiber.
    """
    _torsion_needs_e_at_most_2(params)
    return _checked_differences(params, pt, torsion_fiber(params, q, pt))


def _checked_differences(params: LoopParams, pt: ProjPoint, fiber: list):
    """The checked difference set of P's torsion ``fiber`` (e <= 2).

    Its index table (:class:`CayleyIndex`: at e = 2 one affine map of the offset
    digits per pair of fibers, from at most five sums, else one ``add`` per pair
    up to negation) checks that the set holds the identity and is closed under
    negation and addition.  A set that is not a subgroup, not at infinity, or
    (P in the fiber) whose translate by P is not the fiber raises AssertionError.
    """
    from .diagnostics import CayleyIndex

    diffs = {sub(params, a, b) for a in fiber for b in fiber}
    rident = params.project(identity(params))
    if fiber:
        try:
            CayleyIndex(params, list(diffs))
        except PreconditionUnmet as exc:
            raise AssertionError(f"difference set is not a subgroup: {exc}") from exc
        for d in diffs:
            if params.project(d) != rident:
                raise AssertionError(f"difference {d!r} is not at infinity")
        if pt in fiber:
            translate = {add(params, pt, d) for d in diffs}
            if translate != set(fiber):
                raise AssertionError("P + D does not recover the torsion fiber")
    return diffs


def torsion_geometry(params: LoopParams, q: int, bases=None) -> list:
    """One record (P, L_{q/P}, D_{q/P}, line) per base point P, for e <= 2.

    ``bases`` defaults to the first q-torsion point of each residue fiber,
    in the order of :meth:`LoopParams.fiber`; each residue fiber is then
    built and filtered once, and its q-torsion is both the base and L_{q/P}.
    ``line`` is the :func:`torsion_line` of P's coset, drawn in the
    direction of a generator of D_{q/P}; it is None over the residue
    identity and when D_{q/P} is not cyclic, where no line carries the fiber.
    """
    _torsion_needs_e_at_most_2(params)
    ident = identity(params)
    if bases is None:
        fibers = ([pt for pt in params.fiber(f) if scalar_mul(params, q, pt) == ident]
                  for f in range(params.q))
        based = [(fiber[0], fiber) for fiber in fibers if fiber]
    else:
        based = [(base, torsion_fiber(params, q, base)) for base in bases]
    records = []
    for base, fiber in based:
        diffs = _checked_differences(params, base, fiber)
        gen = None if params.project(base) == params.project(ident) else next(
            (d for d in diffs if order_of(params, d) == len(diffs)), None)
        line = None if gen is None else torsion_line(params, base, gen)
        records.append((base, fiber, diffs, line))
    return records


class TorsionLine:
    """A line through a torsion fiber, plus its reduced refinement.

    ``line`` holds projective coefficients (a, b, c) with the fiber inside
    a*x + b*y + c*z = 0.  When the coefficients a, c share positive
    valuation, dividing by the uniformizer gives ``reduced_line``, which
    cuts the fiber exactly out of the residue fiber.  ``degenerate`` marks
    the collapsed case (trivial direction vector): the fiber is the single
    point P and every line through P qualifies.
    """

    __slots__ = ("params", "base", "line", "reduced_line", "degenerate", "coset")

    def __init__(self, params, base, line, reduced_line, degenerate, coset):
        self.params = params
        self.base = base
        self.line = line
        self.reduced_line = reduced_line
        self.degenerate = degenerate
        self.coset = coset

    def evaluate(self, pt: ProjPoint):
        ring = self.params.ring
        a, b, c = self.line
        return ring.add(
            ring.add(ring.mul(a, pt.x), ring.mul(b, pt.y)), ring.mul(c, pt.z)
        )

    def to_json(self) -> dict:
        ring = self.params.ring
        enc = ring.payload_to_json
        out = {
            "line": [enc(v) for v in self.line],
            "degenerate": self.degenerate,
        }
        out["reduced_line"] = (
            [enc(v) for v in self.reduced_line] if self.reduced_line else None
        )
        return out


def torsion_line(params: LoopParams, pt: ProjPoint, gen: ProjPoint) -> TorsionLine:
    """The line carrying the coset P + <gen> for affine P, gen at infinity.

    With P = (X : 1 : Z) and gen = (m_x : 1 : m_z), repeated addition of
    gen moves P along the fixed direction (alpha, beta):

        P + k*gen = (X + k*alpha : 1 : Z + k*beta),

    so the whole coset lies on -beta*x + (beta*X - alpha*Z)*y + alpha*z = 0.
    Both this and the membership of every coset point are checked.  For
    integer quotients with e = 2 the reduced line (coefficients divided by
    p) is computed and checked to cut the coset exactly out of the residue
    fiber.
    """
    _torsion_needs_e_at_most_2(params)
    ring = params.ring
    if pt.y != ring.one or not ring.is_unit(pt.z):
        raise PreconditionUnmet(f"base point {pt!r} must be affine of shape (X : 1 : Z)")
    if gen.y != ring.one or ring.is_unit(gen.x) or ring.is_unit(gen.z):
        raise PreconditionUnmet(f"direction {gen!r} must be at infinity of shape (m_x : 1 : m_z)")

    X, Z = pt.x, pt.z
    mx, mz = gen.x, gen.z
    a, b = params.a, params.b
    mul, addp, subp = ring.mul, ring.add, ring.sub

    # Exact integer statements of the direction, reduced by ring.mod for
    # the line.  Over Z/p^2 they also give the reduced line: from the
    # canonical representatives, -(beta/p)*X + ((beta*X - alpha*Z)/p)*1 +
    # (alpha/p)*Z = 0 holds as an integer identity, which is what pins the
    # cut to the coset.
    alpha_z = (params._a2 * Z * Z * mz - a * X * X * mz - 2 * a * X * Z * mx
               - 6 * b * X * Z * mz - 3 * b * Z * Z * mx + mx)
    beta_z = (2 * a * X * Z * mz + a * Z * Z * mx + 3 * b * Z * Z * mz
              + 3 * X * X * mx + mz)
    alpha, beta = alpha_z % ring.mod, beta_z % ring.mod

    degenerate = mx == ring.zero and mz == ring.zero
    line = (ring.neg(beta), subp(mul(beta, X), mul(alpha, Z)), alpha)

    # walk the coset and confirm both the displacement law and the line
    coset = []
    current = pt
    k = 0
    while True:
        expected = ProjPoint(
            ring,
            addp(X, ring.mul_int(k, alpha)),
            ring.one,
            addp(Z, ring.mul_int(k, beta)),
        )
        if current != expected:
            raise AssertionError(
                f"coset point {k} deviates from the displacement law at {pt!r}"
            )
        coset.append(current)
        current = add(params, current, gen)
        k += 1
        if current == pt:
            break
    result = TorsionLine(params, pt, line, None, degenerate, coset)
    for cpt in coset:
        if result.evaluate(cpt) != ring.zero:
            raise AssertionError(f"coset point {cpt!r} misses the line")

    if ring.kind == INTEGER_QUOTIENT and ring.e == 2 and not degenerate:
        p, pe = ring.p, ring.size
        if alpha_z % p or beta_z % p:
            raise AssertionError("line coefficients are not all divisible by p")
        reduced = (
            (-beta_z // p) % pe,
            ((beta_z * X - alpha_z * Z) // p) % pe,
            (alpha_z // p) % pe,
        )
        result.reduced_line = reduced
        ra, rb, rc = reduced
        cut = [
            fpt
            for fpt in fiber_points(params, pt)
            if ring.add(
                ring.add(ring.mul(ra, fpt.x), ring.mul(rb, fpt.y)), ring.mul(rc, fpt.z)
            )
            == ring.zero
        ]
        if set(cut) != set(coset):
            raise AssertionError(
                "reduced line does not cut the coset exactly out of the fiber"
            )
    return result
