"""Layers: exact zero sets of F - t*H inside the loop.

Independent oracles: layer membership is re-derived by scanning the
whole projective plane; the infinity generator's Z_t is re-derived by
exhaustively scanning the ideal for roots of the layer equation on the
line (p : 1 : z); group structure is cross-checked against order
statistics.
"""

from __future__ import annotations

import random

import pytest

from elliptic_loops import (
    HessianNotUnit,
    Layer,
    LoopParams,
    PreconditionUnmet,
    ProjPoint,
    RingConfig,
    RingElem,
    add,
    all_layers,
    count_projective,
    eval_F,
    eval_H,
    identity,
    layer_infinity_generator,
    layer_isomorphism_check,
    layer_membership,
    layer_points,
    layer_report,
    neg,
    order_of,
    plane_points,
    scalar_mul,
    stratify,
)
from elliptic_loops import diagnostics, layers
from elliptic_loops.diagnostics import CayleyIndex, layer_suite
from elliptic_loops.layers import closure_blocks, closure_run, combination, plane_zeros


def params_for(p, e, a, b):
    return LoopParams(RingConfig.integer(p, e), a, b)


# ---------------------------------------------------------------------------
# membership and cardinality
# ---------------------------------------------------------------------------


def test_layer_zero_is_exact_zero_set_of_f():
    params = params_for(5, 2, 2, 1)
    lay = Layer(params, 0)
    by_scan = {pt for pt in plane_points(params.ring) if eval_F(params, pt).is_zero()}
    assert set(layer_points(lay)) == by_scan
    assert len(by_scan) == 35


def _filtered_layer_points(layer):
    """Every loop point on which the layer equation vanishes, in ``loop_points()``
    order: the former implementation, kept as the oracle of the Hensel lift."""
    equation, zero = layer.equation, layer.params.ring.zero
    return [pt for pt in layer.params.loop_points() if equation(pt.x, pt.y, pt.z) == zero]


@pytest.mark.parametrize("ring,a,b,ts", [
    pytest.param(RingConfig.integer(5, 2), 2, 1, None, id="5-2-2-1"),
    pytest.param(RingConfig.integer(5, 3), 2, 1, None, id="5-3-2-1"),
    pytest.param(RingConfig.integer(7, 2), 0, 2, None, id="7-2-0-2"),
    pytest.param(RingConfig.integer(7, 1), 0, 2, None, id="7-1-0-2"),
    # 6 of the 12 affine residue points have a z-slope in m: x is solved for
    pytest.param(RingConfig.integer(7, 2), 0, 3, None, id="7-2-0-3-swapped"),
    pytest.param(RingConfig.truncated_poly(5, 2), 2, 1, None, id="F5[t]/(t^2)-2-1"),
    pytest.param(RingConfig.truncated_poly(5, 3), 2, 1, (0, 1, 7, 24), id="F5[t]/(t^3)-2-1"),
    pytest.param(RingConfig.integer(5, 4), 2, 1, (0, 1, 24), id="5-4-2-1"),
])
def test_layer_points_match_plane_scan(ring, a, b, ts):
    """The lift equals the filter over the loop, point for point and in order,
    and, where the plane is small, the zero set found by scanning P^2(R).
    ``ts`` picks layers by their index in ``ideal_elements()``; None takes all."""
    params = LoopParams(ring, a, b)
    scan = count_projective(2, ring) <= 20_000
    elements = list(ring.ideal_elements())
    for t in elements if ts is None else [elements[i] for i in ts]:
        lay = Layer(params, t)
        pts = layer_points(lay)
        assert pts == _filtered_layer_points(lay)
        assert len(pts) == params.q * ring.ideal_size
        if scan:
            assert set(pts) == {pt for pt in plane_points(ring)
                                if lay.equation(pt.x, pt.y, pt.z) == ring.zero}


def test_the_swapped_lift_is_needed_on_z49_0_3():
    """(1 : 1 : 5) over Z/49 (0,3) has a z-slope in m, so its fiber is lifted in x."""
    params = params_for(7, 2, 0, 3)
    lay = Layer(params, 0)
    g0 = lay.equation(1, 1, 5)
    assert params.ring.digits((lay.equation(1, 1, 12) - g0) % 49)[1] == 0
    assert params.ring.digits((lay.equation(8, 1, 5) - g0) % 49)[1] != 0
    assert ProjPoint.of(params.residue_params.ring, 1, 1, 5) in params.residue_points


@pytest.mark.parametrize("ring,a,b", [
    (RingConfig.integer(5, 1), 2, 1), (RingConfig.integer(5, 3), 2, 1),
    (RingConfig.integer(7, 2), 0, 3), (RingConfig.truncated_poly(5, 3), 2, 1),
    (RingConfig.integer(5, 4), 2, 1),
])
def test_layer_points_evaluate_at_most_e_per_offset(monkeypatch, ring, a, b):
    params = LoopParams(ring, a, b)
    calls = []
    real = Layer.equation
    monkeypatch.setattr(Layer, "equation", lambda self, *xyz: calls.append(xyz) or real(self, *xyz))
    monkeypatch.setattr(LoopParams, "loop_points", None)  # the lift lists no loop
    bound = params.q * (ring.e * ring.ideal_size + 3)
    for t in list(ring.ideal_elements())[:3]:
        calls.clear()
        assert len(layer_points(Layer(params, t))) == params.q * ring.ideal_size
        assert len(calls) <= bound


def test_a_lift_that_finds_no_root_is_a_precondition_error(monkeypatch):
    params = params_for(5, 3, 2, 1)
    real = Layer.equation
    # the true equation, except that it never vanishes: slopes stay units
    monkeypatch.setattr(Layer, "equation", lambda self, *xyz: real(self, *xyz) or 25)
    with pytest.raises(PreconditionUnmet, match="found no root in 3 steps"):
        layer_points(Layer(params, 5))
    # a constant: neither partial is a unit
    monkeypatch.setattr(Layer, "equation", lambda self, *xyz: 25)
    with pytest.raises(PreconditionUnmet, match="neither partial"):
        layer_points(Layer(params, 5))


def test_layer_rejects_unit_t():
    params = params_for(5, 2, 2, 1)
    with pytest.raises(PreconditionUnmet):
        Layer(params, 3)


def test_all_layers_enumerates_the_ideal():
    params = params_for(5, 3, 2, 1)
    layers = all_layers(params)
    assert len(layers) == 25
    assert sorted(l.t for l in layers) == list(range(0, 125, 5))


# ---------------------------------------------------------------------------
# stratification
# ---------------------------------------------------------------------------


def test_stratify_inverts_layer_membership():
    params = params_for(5, 2, 2, 1)
    ring = params.ring
    rident = params.project(identity(params))
    count = 0
    for pt in params.loop_points():
        if params.project(pt) == rident:
            continue  # infinity points sit over residue 3-torsion
        t = stratify(params, pt)
        assert isinstance(t, RingElem)
        assert layer_membership(Layer(params, t), pt)
        # t is determined by F(P) = t * H(P)
        assert eval_F(params, pt) == t * eval_H(params, pt)
        count += 1
    assert count == 150


def test_stratify_unique_layer_per_affine_point():
    for e in (2, 3):
        params = params_for(5, e, 2, 1)
        ring = params.ring
        layers = all_layers(params)
        rident = params.project(identity(params))
        for pt in params.loop_points():
            if params.project(pt) == rident:
                continue
            containing = [l for l in layers if layer_membership(l, pt)]
            assert len(containing) == 1
            assert containing[0].t == stratify(params, pt).val


def test_stratify_raises_over_residue_three_torsion():
    params = params_for(5, 2, 2, 1)
    with pytest.raises(HessianNotUnit):
        stratify(params, identity(params))
    with pytest.raises(HessianNotUnit):
        stratify(params, ProjPoint.of(params.ring, 5, 1, 0))
    # on a 3 | q curve some affine points are 3-torsion too
    params32 = params_for(5, 2, 4, 2)
    affine_3tors = [
        pt for pt in params32.loop_points()
        if params32.residue_order(params32.project(pt)) == 3
    ]
    assert affine_3tors
    with pytest.raises(HessianNotUnit):
        stratify(params32, affine_3tors[0])


# ---------------------------------------------------------------------------
# infinity generators (Hensel) against the exhaustive z-scan oracle
# ---------------------------------------------------------------------------


def _z_scan_oracle(lay):
    """All z in m with the layer equation vanishing at (p : 1 : z)."""
    params = lay.params
    ring = params.ring
    u = ring.uniformizer()
    return [z for z in ring.ideal_elements() if lay.equation(u, ring.one, z) == ring.zero]


@pytest.mark.parametrize("p,e,a,b", [(5, 2, 2, 1), (5, 3, 2, 1), (7, 2, 0, 2)])
def test_infinity_generator_against_z_scan(p, e, a, b):
    params = params_for(p, e, a, b)
    ring = params.ring
    for t in ring.ideal_elements():
        lay = Layer(params, t)
        roots = _z_scan_oracle(lay)
        assert len(roots) == 1  # simple root lifts uniquely
        gen = layer_infinity_generator(lay)
        assert (gen.x, gen.y, gen.z) == (p, 1, roots[0])


def test_z_t_frozen_values():
    # e = 2: Z_t = 0 for every t; e = 3: Z_t = 24 t p mod p^3
    params2 = params_for(5, 2, 2, 1)
    for t in params2.ring.ideal_elements():
        assert layer_infinity_generator(Layer(params2, t)).z == 0
    params3 = params_for(5, 3, 2, 1)
    seen = {}
    for t in params3.ring.ideal_elements():
        z = layer_infinity_generator(Layer(params3, t)).z
        assert z == (24 * t * 5) % 125
        seen[t] = z
    assert seen[5] == 100  # 24 * 5 * 5 = 600 = 100 mod 125
    assert seen[10] == 75


def _newton_z_t(lay):
    """Z_t by Newton iteration with hand-derived derivatives of F and H_F (the
    former implementation, kept as the oracle of the fixed-point iteration)."""
    params = lay.params
    ring = params.ring
    u, t = ring.uniformizer(), lay.t
    a, a2, b = params.a, params._a2, params.b
    mul, addp, sub = ring.mul, ring.add, ring.sub

    def gprime(z):
        # d/dz [F(u,1,z)] = 2Auz + 3Bz^2 - 1
        fz = sub(addp(ring.mul_int(2, mul(a, mul(u, z))), ring.mul_int(3, mul(b, mul(z, z)))),
                 ring.one)
        # d/dz [H(u,1,z)] = -8(3Au^2 + 18Buz - 3A^2 z^2)
        hz = ring.mul_int(-8, sub(addp(ring.mul_int(3, mul(a, mul(u, u))),
                                       ring.mul_int(18, mul(b, mul(u, z)))),
                                  ring.mul_int(3, mul(a2, mul(z, z)))))
        return sub(fz, mul(t, hz))

    z = ring.zero
    for _ in range(2 * ring.e + 2):
        val = lay.equation(u, ring.one, z)
        if val == ring.zero:
            return z
        z = sub(z, mul(val, ring.inverse(gprime(z))))
    raise AssertionError(f"Newton iteration failed to settle for {lay!r}")


@pytest.mark.parametrize("p,e,a,b", [
    (5, 2, 2, 1), (5, 6, 2, 1), (5, 12, 2, 1), (7, 5, 0, 5), (7, 9, 1, 1), (13, 4, 0, 6),
    (10007, 3, 1, 1), (10007, 12, 1, 1),
])
def test_z_t_fixed_point_matches_newton(p, e, a, b, monkeypatch):
    params = params_for(p, e, a, b)
    ring = params.ring
    rng = random.Random(p * 100 + e)
    ts = [0, ring.uniformizer()] + [ring.mul_int(p, rng.randrange(ring.ideal_size))
                                    for _ in range(40)]
    for t in ts:
        lay = Layer(params, t)
        z = _newton_z_t(lay)
        evaluations = []
        real = Layer.equation
        monkeypatch.setattr(Layer, "equation",
                            lambda self, *xyz: evaluations.append(xyz) or real(self, *xyz))
        gen = layer_infinity_generator(lay)
        monkeypatch.undo()
        assert (gen.x, gen.y, gen.z) == (ring.uniformizer(), ring.one, z)
        assert len(evaluations) <= e


def test_layer_infinity_points_are_generator_multiples():
    params = params_for(5, 3, 2, 1)
    for t in (0, 5, 20):
        lay = Layer(params, t)
        gen = layer_infinity_generator(lay)
        assert order_of(params, gen) == 25
        expected = set()
        acc = identity(params)
        for _ in range(25):
            expected.add(acc)
            acc = add(params, acc, gen)
        rident = params.project(identity(params))
        assert {pt for pt in layer_points(lay) if params.project(pt) == rident} == expected


# ---------------------------------------------------------------------------
# group structure of layers
# ---------------------------------------------------------------------------


def test_layers_closed_under_addition_and_negation_exhaustive():
    params = params_for(5, 2, 2, 1)
    for t in params.ring.ideal_elements():
        lay = Layer(params, t)
        pts = layer_points(lay)
        members = set(pts)
        for p1 in pts:
            assert neg(params, p1) in members
            for p2 in pts:
                assert add(params, p1, p2) in members


def test_one_layer_fully_associative_exhaustive():
    params = params_for(5, 2, 2, 1)
    for t in (0, 10):
        pts = layer_points(Layer(params, t))
        assert CayleyIndex(params, pts).assoc_sweep() is None


def _table(layer):
    return CayleyIndex(layer.params, layer_points(layer))


def test_layer_isomorphism_when_gcd_q_3p_is_one():
    params = params_for(5, 2, 2, 1)
    for t in params.ring.ideal_elements():
        lay = Layer(params, t)
        ok, phi = layer_isomorphism_check(lay, _table(lay))
        assert ok
        assert len(phi) == 35
    # gcd(q, 3) != 1 on the q = 3 curve: precondition refused
    lay32 = Layer(params_for(5, 2, 4, 2), 0)
    with pytest.raises(PreconditionUnmet):
        layer_isomorphism_check(lay32, _table(lay32))


def _isomorphism_by_homomorphism(layer):
    """The isomorphism check with one ``add`` per pair of points (the former
    implementation, kept as the oracle of the index-table check)."""
    params = layer.params
    ring = params.ring
    q, pe1 = params.q, ring.ideal_size
    pts = layer_points(layer)
    if len(pts) != q * pe1:
        return False, None
    gen = layer_infinity_generator(layer)
    if order_of(params, gen) != pe1:
        return False, None
    c = pe1 * pow(pe1, -1, q)
    section = {}
    for pt in pts:
        r = params.project(pt)
        if r not in section:
            section[r] = scalar_mul(params, c, pt)
    if len(section) != q:
        return False, None
    gen_multiples = [scalar_mul(params, i, gen) for i in range(pe1)]
    phi = {(i, r.coords()): add(params, gen_multiples[i], s)
           for i in range(pe1) for r, s in section.items()}
    if set(phi.values()) != set(pts) or len(phi) != len(pts):
        return False, None
    rp = params.residue_params
    radd = {(r1.coords(), r2.coords()): add(rp, r1, r2).coords()
            for r1 in section for r2 in section}
    for (i1, r1), v1 in phi.items():
        for (i2, r2), v2 in phi.items():
            if add(params, v1, v2) != phi[((i1 + i2) % pe1, radd[(r1, r2)])]:
                return False, None
    return True, phi


@pytest.mark.parametrize("p,e,a,b", [(5, 2, 2, 1), (7, 2, 1, 1), (11, 2, 2, 7)])
def test_layer_isomorphism_matches_the_homomorphism_definition(p, e, a, b):
    params = params_for(p, e, a, b)
    for lay in all_layers(params):
        ok, phi = layer_isomorphism_check(lay, _table(lay))
        oracle = _isomorphism_by_homomorphism(lay)
        assert ok and (ok, phi) == oracle
        assert list(phi) == list(oracle[1])  # the same order of (i, S) too


def test_layer_isomorphism_needs_an_abelian_table(monkeypatch):
    params = params_for(5, 2, 2, 1)
    monkeypatch.setattr(CayleyIndex, "abelian", lambda self: False)
    lay = Layer(params, 5)
    assert layer_isomorphism_check(lay, _table(lay)) == (False, None)


def _not_closed(params):
    """Layer 5's points with one swapped for a point of layer 10: the same size, not closed."""
    return layer_points(Layer(params, 5))[:-1] + layer_points(Layer(params, 10))[-1:]


def test_layer_isomorphism_of_a_set_not_closed_is_false():
    params = params_for(5, 2, 2, 1)
    with pytest.raises(PreconditionUnmet):
        CayleyIndex(params, _not_closed(params))


def test_layer_suite_names_the_pair_leaving_a_set_not_closed(monkeypatch):
    params = params_for(5, 2, 2, 1)
    bad = _not_closed(params)
    monkeypatch.setattr(layers, "layer_points", lambda layer: bad)
    reports = {r.law: r for r in layer_suite(params, 200_000, 0)}
    closure = reports["layer-closure"]
    assert not closure.holds and closure.exhaustive
    a, b = diagnostics._decode_points(params, closure.counterexample["points"])
    assert a in bad and b in bad and add(params, a, b) not in bad
    assert not reports["layer-group-isomorphism"].holds


def test_layer_isomorphism_adds_once_per_unordered_pair(monkeypatch):
    params = params_for(5, 2, 2, 1)
    calls = []
    real = layers.add
    monkeypatch.setattr(layers, "add", lambda *args: calls.append(args) or real(*args))
    q = params.q
    for lay in all_layers(params):
        cayley = _table(lay)
        calls.clear()
        assert layer_isomorphism_check(lay, cayley)[0]
        # on a given table, only the q^2 sums on the residue curve
        assert len(calls) == q * q
        assert all(args[0] is params.residue_params for args in calls)


def test_layer_suite_reads_every_table_check_off_one_table_per_layer(monkeypatch):
    params = params_for(5, 2, 2, 1)
    builds, scans = [], []
    real_init, real_points = CayleyIndex.__init__, layers.layer_points
    monkeypatch.setattr(CayleyIndex, "__init__",
                        lambda self, *a: builds.append(a) or real_init(self, *a))
    monkeypatch.setattr(layers, "layer_points", lambda lay: scans.append(lay) or real_points(lay))
    reports = {r.law: r for r in layer_suite(params, 200_000, 0)}
    assert len(builds) == len(scans) == 5  # one table and one scan per layer
    n = params.q * params.ring.ideal_size
    for law, space in (("layer-closure", n ** 2), ("layer-associativity", n ** 3),
                       ("layer-group-isomorphism", n ** 2)):
        assert reports[law].holds and reports[law].exhaustive
        assert reports[law].checked == 5 * space
    assert reports["layer-closure"].detail == "index table builds on 5 of 5 layers"


def test_layer_suite_samples_where_no_table_pays(monkeypatch):
    params = params_for(5, 2, 1, 1)  # 45 points a layer: 23^2 = 529 additions a table
    builds = []
    real_init = CayleyIndex.__init__
    monkeypatch.setattr(CayleyIndex, "__init__",
                        lambda self, *a: builds.append(a) or real_init(self, *a))
    reports = {r.law: r for r in layer_suite(params, 500, 0)}  # 5 * 100 samples < 529
    assert builds == []
    for law in ("layer-closure", "layer-associativity"):
        assert reports[law].holds and not reports[law].exhaustive
        assert reports[law].checked == 500  # 100 cases in each of 5 layers


def test_layer_report_shapes():
    params = params_for(5, 3, 2, 1)
    rep = layer_report(Layer(params, 5))
    assert rep == {
        "t": 5,
        "Z_t": 100,
        "cardinality": 175,
        "infinity_order": 25,
        "group_structure": "Z/175",
    }
    params32 = params_for(5, 2, 4, 2)
    rep32 = layer_report(Layer(params32, 0))
    assert rep32["cardinality"] == 15
    assert rep32["group_structure"] == "Z/15"


def test_layer_group_structure_against_order_statistics():
    params = params_for(5, 2, 2, 1)
    pts = layer_points(Layer(params, 0))
    orders = sorted(order_of(params, pt) for pt in pts)
    # Z/35: order statistics of the cyclic group of order 35
    expected = sorted(35 // __import__("math").gcd(35, k) for k in range(35))
    assert orders == expected


# ---------------------------------------------------------------------------
# Hessian combinations
# ---------------------------------------------------------------------------


def test_hessian_closure_for_f_h_and_layer_combinations():
    """The zero sets of F, H and F - 5H are each closed under the raw law."""
    params = params_for(5, 2, 2, 1)
    ring = params.ring
    for alpha, beta in [(1, 0), (0, 1), (1, RingElem(ring, ring.neg(ring.from_int(5))))]:
        g = combination(params, alpha, beta)
        blocks = closure_blocks(params, plane_zeros(params, g))[1]
        bad, sums, _ = closure_run(params, [(g, blocks)])
        assert bad is None and sums > 0


def test_distinct_shifts_give_distinct_curves():
    params = params_for(5, 2, 2, 1)
    ring = params.ring
    seen = set()
    for da in ring.ideal_elements():
        for db in ring.ideal_elements():
            shifted = LoopParams(ring, ring.add(params.a, da), ring.add(params.b, db))
            pts = frozenset(
                pt for pt in plane_points(ring)
                if eval_F(shifted, pt).is_zero()
            )
            seen.add(pts)
    assert len(seen) == 25
