"""Core loop arithmetic against independent oracles.

The addition law is cross-checked four ways: against the textbook
chord-and-tangent formulas on the classical curve points (the exact
zero set of F), against repeated addition for scalar multiples, against
unit-rescaled inputs for projective well-definedness, and, with F and H,
against the module docstring's formulas evaluated with RingElem
operators on both ring kinds, up to the slot width of packed polynomials.
"""

from __future__ import annotations

import random

import pytest

from elliptic_loops import (
    DegenerateSum,
    EvenOrder,
    Layer,
    LoopParams,
    PreconditionUnmet,
    ProjPoint,
    RingConfig,
    RingElem,
    SingularCurve,
    add,
    eval_F,
    eval_H,
    identity,
    lift_affine,
    membership,
    neg,
    normalize,
    order_of,
    plane_points,
    proj_equal,
    scalar_mul,
    sub,
    validate_params,
)
from elliptic_loops import loop_core
from elliptic_loops.loop_core import raw_add


def params_for(p, e, a, b):
    return LoopParams(RingConfig.integer(p, e), a, b)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_singular_curve_rejected():
    with pytest.raises(SingularCurve):
        validate_params(RingConfig.integer(5, 2), 0, 0)
    with pytest.raises(SingularCurve):
        validate_params(RingConfig.integer(5, 2), 10, 5)  # delta in the ideal


def test_even_order_rejected():
    # y^2 = x^3 + x over F_5 has exactly 4 points
    with pytest.raises(EvenOrder):
        validate_params(RingConfig.integer(5, 2), 1, 0)


@pytest.mark.parametrize("ring", [RingConfig.integer(5, 3), RingConfig.truncated_poly(5, 3)],
                         ids=repr)
def test_ring_one_and_zero_are_canonical_payloads(ring):
    assert ring.one == ring.from_int(1) and ring.zero == ring.from_int(0)
    for v in list(ring.elements())[::7]:
        assert ring.mul(ring.one, v) == v
        assert ring.add(ring.zero, v) == v


def test_residue_curve_orders_frozen():
    # brute-force counts over F_p, frozen here as oracle values
    assert params_for(5, 2, 2, 1).q == 7
    assert params_for(5, 2, 4, 2).q == 3
    assert params_for(5, 2, 1, 1).q == 9
    assert params_for(7, 2, 0, 2).q == 9
    assert params_for(13, 2, 0, 3).q == 9  # |L| = 9 * 169 = 1521 = 39 * 39


def test_q_against_direct_affine_count():
    for (p, a, b) in [(5, 2, 1), (5, 4, 2), (7, 0, 2), (7, 3, 1)]:
        try:
            params = params_for(p, 1, a, b)
        except (SingularCurve, EvenOrder):
            continue
        count = 1  # infinity
        for x in range(p):
            rhs = (x**3 + a * x + b) % p
            count += sum(1 for y in range(p) if y * y % p == rhs)
        assert params.q == count


# ---------------------------------------------------------------------------
# membership and enumeration
# ---------------------------------------------------------------------------


def test_membership_is_f_in_ideal():
    params = params_for(5, 2, 2, 1)
    ring = params.ring
    members = [pt for pt in plane_points(ring) if membership(params, pt)]
    assert len(members) == 175
    for pt in members[::7]:
        assert not ring.is_unit(eval_F(params, pt).val)
    assert set(members) == set(params.loop_points())


def test_cardinality_formula():
    for (p, e, a, b, q) in [(5, 2, 2, 1, 7), (5, 3, 2, 1, 7), (7, 2, 0, 2, 9)]:
        params = params_for(p, e, a, b)
        assert params.cardinality() == q * p ** (2 * (e - 1))
        assert len(params.loop_points()) == params.cardinality()
        assert len(params.infinity_points()) == p ** (2 * (e - 1))


@pytest.mark.parametrize("ring,a,b", [
    (RingConfig.integer(5, 2), 2, 1), (RingConfig.integer(5, 3), 2, 1),
    (RingConfig.truncated_poly(5, 3), 2, 1), (RingConfig.integer(7, 1), 0, 2),
], ids=["Z/25", "Z/125", "F_5[t]/(t^3)", "Z/7"])
def test_fibers_and_points_by_index_are_the_listed_loop_in_order(monkeypatch, ring, a, b):
    """``fiber(f)`` and ``loop_point(i)``, built on fresh params that never list the
    loop, are the slices and the entries of ``loop_points()``, fiber 0 the infinity part."""
    params, s = LoopParams(ring, a, b), ring.ideal_size ** 2
    with monkeypatch.context() as m:
        m.setattr(LoopParams, "loop_points", None)
        fibers = [params.fiber(f) for f in range(params.q)]
        points = [params.loop_point(i) for i in range(params.cardinality())]
        infinity = params.infinity_points()
    pts = LoopParams(ring, a, b).loop_points()
    assert fibers == [pts[f * s:f * s + s] for f in range(params.q)]
    assert points == pts
    assert infinity == fibers[0] == pts[:s]


def test_loop_points_have_unit_y():
    params = params_for(5, 2, 2, 1)
    for pt in params.loop_points():
        assert pt.y == 1


# ---------------------------------------------------------------------------
# loop axioms (exhaustive at p=5, e=2)
# ---------------------------------------------------------------------------


def test_identity_and_inverses_exhaustive():
    params = params_for(5, 2, 2, 1)
    ident = identity(params)
    assert ident == ProjPoint.of(params.ring, 0, 1, 0)
    for pt in params.loop_points():
        assert add(params, ident, pt) == pt
        assert add(params, pt, ident) == pt
        assert add(params, pt, neg(params, pt)) == ident
        assert neg(params, neg(params, pt)) == pt
        assert sub(params, pt, pt) == ident


def test_commutativity_exhaustive():
    params = params_for(5, 2, 4, 2)
    pts = params.loop_points()
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            assert add(params, a, b) == add(params, b, a)


def test_neg_of_canonical_point_flips_x_and_z():
    params = params_for(5, 3, 2, 1)
    for pt in params.loop_points()[::11]:
        n = neg(params, pt)
        ring = params.ring
        assert n == normalize(ring, ring.neg(pt.x), ring.one, ring.neg(pt.z))


# ---------------------------------------------------------------------------
# chord-and-tangent oracle on the classical curve
# ---------------------------------------------------------------------------


def _affine_coords(ring, pt):
    """(u, v) with v^2 = u^3 + Au + B for a point with unit z."""
    zi = ring.inverse(pt.z)
    return ring.mul(pt.x, zi), ring.mul(pt.y, zi)


def _chord_tangent(params, p1, p2):
    """Textbook affine addition; None when a denominator is not a unit."""
    ring = params.ring
    if not (ring.is_unit(p1.z) and ring.is_unit(p2.z)):
        return None
    u1, v1 = _affine_coords(ring, p1)
    u2, v2 = _affine_coords(ring, p2)
    if p1 == p2:
        den = ring.mul_int(2, v1)
        if not ring.is_unit(den):
            return None
        lam = ring.mul(
            ring.add(ring.mul_int(3, ring.mul(u1, u1)), params.a), ring.inverse(den)
        )
    else:
        den = ring.sub(u1, u2)
        if not ring.is_unit(den):
            return None
        lam = ring.mul(ring.sub(v1, v2), ring.inverse(den))
    u3 = ring.sub(ring.sub(ring.mul(lam, lam), u1), u2)
    v3 = ring.sub(ring.mul(lam, ring.sub(u1, u3)), v1)
    return normalize(ring, u3, v3, ring.one)


def _exact_curve_points(params):
    """Points where F vanishes exactly (the classical curve inside the loop)."""
    return [pt for pt in params.loop_points() if eval_F(params, pt).is_zero()]


@pytest.mark.parametrize("p,e,a,b", [(5, 2, 2, 1), (5, 2, 4, 2), (7, 2, 0, 2)])
def test_addition_matches_chord_tangent_on_curve(p, e, a, b):
    params = params_for(p, e, a, b)
    curve = _exact_curve_points(params)
    assert len(curve) == params.q * p ** (e - 1)
    compared = 0
    for p1 in curve:
        for p2 in curve:
            oracle = _chord_tangent(params, p1, p2)
            if oracle is None:
                continue
            assert add(params, p1, p2) == oracle
            compared += 1
    # every affine curve point at least doubles through the oracle
    assert compared >= len(curve) - params.ring.ideal_size


def test_residue_addition_matches_chord_tangent_exhaustively():
    params = params_for(5, 1, 2, 1)
    pts = params.loop_points()
    assert len(pts) == 7
    ident = identity(params)
    for p1 in pts:
        for p2 in pts:
            if p1 == ident or p2 == ident:
                assert add(params, p1, p2) == (p2 if p1 == ident else p1)
                continue
            if p1 == neg(params, p2):
                assert add(params, p1, p2) == ident
                continue
            oracle = _chord_tangent(params, p1, p2)
            assert oracle is not None
            assert add(params, p1, p2) == oracle


# ---------------------------------------------------------------------------
# projective well-definedness and the raw law
# ---------------------------------------------------------------------------


def test_addition_invariant_under_unit_rescaling():
    params = params_for(5, 2, 2, 1)
    ring = params.ring
    rng = random.Random(1)
    pts = params.loop_points()
    for _ in range(300):
        p1, p2 = rng.choice(pts), rng.choice(pts)
        u = ring.from_int(rng.choice([1, 2, 3, 4, 6, 7, 8, 9, 11]))
        v = ring.from_int(rng.choice([1, 2, 3, 4, 6, 7, 8, 9, 11]))
        rescaled = raw_add(params, p1.scaled(u), p2.scaled(v))
        assert normalize(ring, *rescaled) == add(params, p1, p2)
        assert proj_equal(ring, rescaled, add(params, p1, p2).coords())


def test_sum_stays_on_loop_exhaustive():
    params = params_for(5, 2, 2, 1)
    pts = params.loop_points()
    members = set(pts)
    for p1 in pts[::3]:
        for p2 in pts:
            assert add(params, p1, p2) in members


# ---------------------------------------------------------------------------
# scalar multiples and orders
# ---------------------------------------------------------------------------


def test_scalar_mul_matches_repeated_addition():
    params = params_for(5, 2, 2, 1)
    ident = identity(params)
    rng = random.Random(2)
    pts = params.loop_points()
    for pt in rng.sample(pts, 12):
        acc = ident
        for n in range(0, 45):
            assert scalar_mul(params, n, pt) == acc
            assert scalar_mul(params, -n, pt) == neg(params, acc)
            acc = add(params, acc, pt)


def test_orders_frozen():
    params = params_for(5, 3, 2, 1)
    g1 = ProjPoint.of(params.ring, 5, 1, 0)
    g2 = ProjPoint.of(params.ring, 0, 1, 5)
    assert order_of(params, g1) == 25
    assert order_of(params, g2) == 25
    assert order_of(params, identity(params)) == 1
    assert scalar_mul(params, 25, g1) == identity(params)
    assert scalar_mul(params, 5, g1) != identity(params)


def test_order_of_matches_brute_force():
    params = params_for(5, 2, 2, 1)
    ident = identity(params)
    for pt in params.loop_points()[::13]:
        n, acc = 1, pt
        while acc != ident:
            acc = add(params, acc, pt)
            n += 1
        assert order_of(params, pt) == n


@pytest.mark.parametrize("ring,a,b", [
    (RingConfig.integer(5, 2), 2, 1),
    (RingConfig.integer(5, 3), 2, 1),
    (RingConfig.integer(7, 2), 0, 2),
    (RingConfig.truncated_poly(5, 2), 2, 1),
], ids=repr)
def test_order_of_matches_linear_definition_on_every_point(ring, a, b):
    params = LoopParams(ring, a, b)
    for pt in params.loop_points():
        assert order_of(params, pt) == loop_core._order_by_addition(params, pt)


def test_order_of_matches_linear_definition_on_a_cubic_polynomial_sample():
    params = LoopParams(RingConfig.truncated_poly(5, 3), 2, 1)
    for pt in random.Random(3).sample(params.loop_points(), 300):
        assert order_of(params, pt) == loop_core._order_by_addition(params, pt)


def test_order_of_work_is_logarithmic(monkeypatch, capsys):
    from elliptic_loops.cli import run

    calls = [0]
    real_add = loop_core.add

    def counting_add(*args):
        calls[0] += 1
        return real_add(*args)

    monkeypatch.setattr(loop_core, "add", counting_add)
    assert run(["order", "-p", "5", "-e", "12", "-A", "2", "-B", "1",
                "--point", "5,1,0"]) == 0
    assert capsys.readouterr().out.strip() == "48828125"  # 5^11
    assert 0 < calls[0] < 300


def test_order_of_on_a_large_p_loop_lists_no_residue_curve(monkeypatch):
    """The walk on the residue curve is bounded by Hasse, not by listing E(F_p)."""
    def no_listing(p):
        raise AssertionError("the residue curve was listed")

    monkeypatch.setattr(loop_core, "_sqrt_table", no_listing)
    params = params_for(100_003, 2, 1, 1)
    pt = params.point(0, 1, 1)
    n = order_of(params, pt)
    ident = identity(params)
    assert scalar_mul(params, n, pt) == ident
    m, primes, d = n, set(), 2  # n is the least such multiple: no n / prime kills P
    while d * d <= m:
        while m % d == 0:
            primes.add(d)
            m //= d
        d += 1
    assert all(scalar_mul(params, n // ell, pt) != ident for ell in primes | {m} - {1})


def test_order_of_refuses_a_p_tower_that_never_vanishes(monkeypatch):
    params = params_for(5, 2, 2, 1)
    pt = next(pt for pt in params.loop_points() if params.pi_order(pt) == 7)
    monkeypatch.setattr(LoopParams, "pi_order", lambda self, pt: 1)
    with pytest.raises(PreconditionUnmet):
        order_of(params, pt)


# ---------------------------------------------------------------------------
# the residue curve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ring", [RingConfig.integer(5, 3), RingConfig.truncated_poly(5, 3)],
                         ids=repr)
def test_residue_curve_enumerated_once(monkeypatch, ring):
    calls = [0]
    real_table = loop_core._sqrt_table

    def counting_table(p):
        calls[0] += 1
        return real_table(p)

    monkeypatch.setattr(loop_core, "_sqrt_table", counting_table)
    params = LoopParams(ring, 2, 1)
    rp = params.residue_params
    assert calls[0] == 0  # the odd-order check enumerates nothing
    assert params.residue_pairs is rp.residue_pairs
    assert params.residue_points is rp.residue_points
    assert params.q == rp.q == 7
    assert calls[0] == 1


def _primes(lo, hi):
    return [p for p in range(lo, hi) if all(p % d for d in range(2, int(p ** 0.5) + 1))]


@pytest.mark.parametrize("p", _primes(5, 200))
def test_cubic_root_test_matches_a_root_scan(p):
    for a in range(p):
        roots = {-(x ** 3 + a * x) % p for x in range(p)}  # b with f(x) = 0 for some x
        for b in range(p):
            assert loop_core._cubic_has_root(p, a, b) == (b in roots), (p, a, b)


@pytest.mark.parametrize("p", _primes(5, 50))
def test_validation_error_class_at_every_residue(p):
    rings = [RingConfig.integer(p, 1), RingConfig.integer(p, 2), RingConfig.truncated_poly(p, 2)]
    for a in range(p):
        for b in range(p):
            if (4 * a ** 3 + 27 * b ** 2) % p == 0:
                expected = SingularCurve
            elif any((x ** 3 + a * x + b) % p == 0 for x in range(p)):
                expected = EvenOrder
            else:
                expected = None
            for ring in rings:
                try:
                    LoopParams(ring, a, b)
                    raised = None
                except (SingularCurve, EvenOrder) as exc:
                    raised = type(exc)
                assert raised is expected, (ring, a, b)


@pytest.mark.parametrize("p,e,a,b", [(5, 1, 2, 1), (7, 1, 0, 2), (13, 1, 0, 3), (11, 1, 2, 4)])
def test_residue_points_are_normalized_affine_pairs(p, e, a, b):
    params = params_for(p, e, a, b)
    ring = params.ring
    expected = [identity(params)] + [normalize(ring, x, y, 1) for x, y in params.residue_pairs]
    assert params.residue_points == expected
    assert all(membership(params, pt) for pt in params.residue_points)


@pytest.mark.parametrize("ring", [RingConfig.integer(7, 2), RingConfig.truncated_poly(7, 2)],
                         ids=repr)
def test_validation_errors_follow_the_residue_curve(ring):
    p = ring.p
    for a in range(0, 2 * p, 3):
        for b in range(p):
            ra, rb = a % p, b % p
            if (4 * ra ** 3 + 27 * rb ** 2) % p == 0:
                expected = SingularCurve
            elif any((x ** 3 + ra * x + rb) % p == 0 for x in range(p)):
                expected = EvenOrder
            else:
                expected = None
            if expected is None:
                params = LoopParams(ring, a, b)
                count = sum((y * y - x ** 3 - ra * x - rb) % p == 0
                            for x in range(p) for y in range(p))
                assert params.q == count + 1
            else:
                with pytest.raises(expected):
                    LoopParams(ring, a, b)


# ---------------------------------------------------------------------------
# projection, evaluation, lifting
# ---------------------------------------------------------------------------


def test_projection_is_residue_curve_point():
    params = params_for(5, 3, 2, 1)
    rp = params.residue_params
    assert rp.ring.e == 1
    for pt in params.loop_points()[::17]:
        rpt = params.project(pt)
        assert membership(rp, rpt)


@pytest.mark.parametrize("ring", [RingConfig.integer(5, 2), RingConfig.integer(5, 3),
                                  RingConfig.truncated_poly(5, 2)], ids=str)
def test_projection_of_a_canonical_point_equals_the_normalize_route(ring):
    """A point with Y = 1 reduces coordinate by coordinate, as normalize would."""
    params = LoopParams(ring, 2, 1)
    rr, res = params.residue_params.ring, ring.residue
    for pt in params.loop_points():
        assert pt.y == ring.one
        expected = normalize(rr, res(pt.x), res(pt.y), res(pt.z))
        assert params.project(pt) == expected
        assert params.project(pt).coords() == expected.coords()


def test_eval_h_frozen_values():
    params = params_for(5, 2, 2, 1)
    ring = params.ring
    # H(x, y, z) = -8 (3 A x^2 z + 3 x y^2 + 9 B x z^2 - A^2 z^3)
    pt = ProjPoint.of(ring, 0, 1, 1)
    assert eval_H(params, pt).val == (-8 * (0 + 0 + 0 - 4)) % 25
    ident = identity(params)
    assert eval_H(params, ident).is_zero()


def test_lift_affine_shifts_curve_exactly():
    params = params_for(5, 2, 2, 1)
    ring = params.ring
    for pt in params.loop_points():
        if not ring.is_unit(pt.z):
            continue
        for alpha in [0, 5, 10]:
            beta = lift_affine(params, pt, alpha)
            assert beta.val in set(ring.ideal_elements())
            zi = ring.inverse(pt.z)
            x, y = ring.mul(pt.x, zi), ring.mul(pt.y, zi)
            lhs = ring.mul(y, y)
            rhs = ring.add(
                ring.add(
                    ring.mul(ring.mul(x, x), x),
                    ring.mul(ring.add(params.a, ring.from_int(alpha)), x),
                ),
                ring.add(params.b, beta.val),
            )
            assert lhs == rhs


def test_polynomial_ring_loop_matches_integer_counts():
    poly = LoopParams(RingConfig.truncated_poly(5, 2), 2, 1)
    ints = params_for(5, 2, 2, 1)
    assert poly.q == ints.q == 7
    assert poly.cardinality() == ints.cardinality() == 175
    assert len(poly.loop_points()) == 175
    ident = identity(poly)
    for pt in poly.loop_points()[::9]:
        assert add(poly, ident, pt) == pt
        assert add(poly, pt, neg(poly, pt)) == ident


# ---------------------------------------------------------------------------
# the kernels against the module docstring's formulas, evaluated with
# RingElem operators (which reduce after every operation)
# ---------------------------------------------------------------------------


def _wrap(params, *payloads):
    return [RingElem(params.ring, v) for v in (params.a, params.b) + payloads]


def _f_oracle(params, x, y, z):
    A, B, X, Y, Z = _wrap(params, x, y, z)
    return (X * X * X + A * X * Z * Z + B * Z * Z * Z - Y * Y * Z).val


def _h_oracle(params, x, y, z):
    A, B, X, Y, Z = _wrap(params, x, y, z)
    return (-8 * (3 * A * X * X * Z + 3 * X * Y * Y + 9 * B * X * Z * Z - A * A * Z * Z * Z)).val


def _raw_oracle(params, t1, t2):
    A, B, X1, Y1, Z1, X2, Y2, Z2 = _wrap(params, *t1, *t2)
    Q1 = -A * X1 * Z2 - A * X2 * Z1 - 3 * B * Z1 * Z2 + Y1 * Y2
    Q2 = A * A * Z1 * Z2 - A * X1 * X2 - 3 * B * X1 * Z2 - 3 * B * X2 * Z1
    Q3 = A * Z1 * Z2 + 3 * X1 * X2
    Q4 = A * X1 * Z2 + A * X2 * Z1 + 3 * B * Z1 * Z2 + Y1 * Y2
    XY, ZY = X1 * Y2 + X2 * Y1, Z1 * Y2 + Z2 * Y1
    return ((XY * Q1 + ZY * Q2).val, (Q1 * Q4 - Q2 * Q3).val, (XY * Q3 + ZY * Q4).val)


def _assert_canonical_add_matches_oracle(params, x1, z1, x2, z2):
    """add on (x1 : 1 : z1), (x2 : 1 : z2) is (T1/T2 : 1 : T3/T2), or raises
    DegenerateSum when T2 is no unit."""
    ring = params.ring
    one = ring.one
    t1, t2, t3 = (RingElem(ring, v)
                  for v in _raw_oracle(params, (x1, one, z1), (x2, one, z2)))
    p1, p2 = ProjPoint(ring, x1, one, z1), ProjPoint(ring, x2, one, z2)
    if not t2.is_unit():
        with pytest.raises(DegenerateSum):
            add(params, p1, p2)
        return
    inv = t2.inverse()
    assert add(params, p1, p2) == ProjPoint(ring, (t1 * inv).val, one, (t3 * inv).val)


@pytest.mark.parametrize("ring,a,b,where", [
    pytest.param(RingConfig.integer(5, 2), 2, 1, "plane", id="5-2-2-1-plane"),
    pytest.param(RingConfig.integer(5, 3), 2, 1, "loop", id="5-3-2-1-loop"),
    pytest.param(RingConfig.truncated_poly(5, 2), 2, 1, "plane", id="poly-5-2-2-1-plane"),
    pytest.param(RingConfig.truncated_poly(5, 3), 2, 1, "loop", id="poly-5-3-2-1-loop"),
])
def test_f_and_h_kernels_match_ring_ops(ring, a, b, where):
    params = LoopParams(ring, a, b)
    pts = plane_points(ring) if where == "plane" else params.loop_points()
    for pt in pts:
        c = pt.coords()
        assert loop_core._eval_f(params, *c) == _f_oracle(params, *c)
        assert loop_core._eval_h(params, *c) == _h_oracle(params, *c)
        assert eval_F(params, pt).val == _f_oracle(params, *c)


def test_raw_add_kernel_matches_ring_ops_and_is_symmetric():
    for ring in (RingConfig.integer(5, 2), RingConfig.truncated_poly(5, 2)):
        params = LoopParams(ring, 2, 1)
        pts = list(plane_points(ring))[::13]
        non_primitive = 0
        for u in pts:
            for v in pts:
                s = raw_add(params, u.coords(), v.coords())
                assert s == _raw_oracle(params, u.coords(), v.coords())
                assert s == raw_add(params, v.coords(), u.coords())
                if not any(ring.is_unit(c) for c in s):
                    non_primitive += 1
        assert non_primitive > 0  # the set exercises non-primitive sums too


@pytest.mark.parametrize("ring", [RingConfig.integer(5, 3), RingConfig.truncated_poly(5, 2)],
                         ids=repr)
def test_law_is_odd_in_y(ring):
    """-P + -Q = -(P + Q) exactly, on the canonical law and on raw_add: negating
    Y1 and Y2 negates T1 and T3 and keeps T2, which the index tables' build uses."""
    params = LoopParams(ring, 2, 1)
    pts, rng = params.loop_points(), random.Random(11)
    two = ring.from_int(2)
    for _ in range(300):
        p, q = rng.choice(pts), rng.choice(pts)
        s = add(params, p, q)
        assert add(params, neg(params, p), neg(params, q)) == neg(params, s)
        # (2X : 2Y : 2Z) is no canonical form, so both sums go through raw_add
        x, y, z = p.scaled(two)
        assert add(params, ProjPoint(ring, x, y, z), q) == s
        minus = ProjPoint(ring, x, ring.neg(y), z)
        assert add(params, minus, neg(params, q)) == neg(params, s)


@pytest.mark.parametrize("ring", [RingConfig.integer(5, 3), RingConfig.truncated_poly(5, 3)],
                         ids=repr)
def test_canonical_add_matches_ring_ops(ring):
    params = LoopParams(ring, 2, 1)
    pts = params.loop_points()
    for u in pts[::41]:
        for v in pts[::43]:
            _assert_canonical_add_matches_oracle(params, u.x, u.z, v.x, v.z)


# ---------------------------------------------------------------------------
# packed polynomial payloads: the slot width and the int pass-through
# ---------------------------------------------------------------------------


def _unchecked_params(ring, a, b):
    """LoopParams with only what the kernels read, skipping the curve checks."""
    params = LoopParams.__new__(LoopParams)
    params.ring, params.a, params.b = ring, a, b
    params._a2, params._b3 = ring.mul(a, a), ring.mul_int(3, b)
    return params


@pytest.mark.parametrize("p,e", [(5, 2), (5, 12), (65521, 7)])
def test_kernels_hold_at_the_slot_width_bound(p, e):
    ring = RingConfig.truncated_poly(p, e)
    top = ring.from_coeffs([p - 1] * e)  # the largest digits a payload has
    rng = random.Random(p * e)
    rand = [ring.random_element(rng) for _ in range(12)]
    for a, b in [(top, top), (rand[0], rand[1])]:
        params = _unchecked_params(ring, a, b)
        triples = [(top, top, top)] + [tuple(rand[i:i + 3]) for i in range(2, 11, 3)]
        for t in triples:
            assert loop_core._eval_f(params, *t) == _f_oracle(params, *t)
            assert loop_core._eval_h(params, *t) == _h_oracle(params, *t)
            for u in triples:
                assert raw_add(params, t, u) == _raw_oracle(params, t, u)
            _assert_canonical_add_matches_oracle(params, t[0], t[2], top, top)
            _assert_canonical_add_matches_oracle(params, t[0], t[2], t[1], t[0])
    big = 1 << 4 * ring.mod.k
    for n in (big + 12345, -big - 7, 3 ** 400, -(5 ** 300) + 2):
        for a in [top] + rand:
            coeffs = ring.payload_to_json(a)
            assert ring.payload_to_json(ring.mul_int(n, a)) == [n * c % p for c in coeffs]


def test_packed_payload_coerces_like_its_coefficient_list():
    ring = RingConfig.truncated_poly(5, 3)
    pack = ring.from_coeffs
    A, B = [2, 1, 3], [1, 4, 0]
    params = validate_params(ring, A, B)
    for built in (params, LoopParams(ring, pack(A), pack(B)),
                  validate_params(ring, pack(A), pack(B))):
        assert (built.a, built.b) == (pack(A), pack(B))

    xyz = ([1, 2, 0], [3, 0, 1], [0, 1, 1])
    assert ProjPoint.of(ring, *map(pack, xyz)) == ProjPoint.of(ring, *xyz)
    t = [0, 1, 2]
    assert Layer(params, pack(t)).t == Layer(params, RingElem(ring, pack(t))).t == pack(t)
    pt = next(q for q in params.loop_points() if ring.is_unit(q.z) and not ring.is_unit(q.x))
    assert lift_affine(params, pt, pack(t)) == lift_affine(params, pt, t)
    u = RingElem(ring, pack([3, 1, 4]))
    assert u * pack(t) == u * ring.elem(t)
    assert u + pack(t) == u + ring.elem(t)
    assert u - pack(t) == u - ring.elem(t)
    assert ring.elem(pack(t)) == ring.elem(t) == pack(t)
