"""Associativity matrices, infinity coordinates, and torsion geometry.

Independent oracles: infinity decomposition against a brute-force table
of all generator combinations; torsion fibers against direct order
filtering; lines against explicit evaluation on every fiber point.
"""

from __future__ import annotations

import random

import pytest

from elliptic_loops import (
    AssocMatrix,
    InfDecomposition,
    LoopParams,
    NilpotencyTooHigh,
    PreconditionUnmet,
    ProjPoint,
    RingConfig,
    add,
    assoc_sufficient,
    difference_group,
    eval_F,
    eval_H,
    fiber_points,
    forbidden_locus_check,
    identity,
    infinity_decompose,
    infinity_generators,
    matrix_rank,
    neg,
    order_of,
    plane_points,
    scalar_mul,
    sub,
    torsion_fiber,
    torsion_geometry,
    torsion_line,
    triple_associates,
)


def params_for(p, e, a, b):
    return LoopParams(RingConfig.integer(p, e), a, b)


# ---------------------------------------------------------------------------
# associativity matrix
# ---------------------------------------------------------------------------


def test_matrix_entries_are_f_and_h_values():
    params = params_for(5, 2, 2, 1)
    pts = params.loop_points()[3:6]
    mat = AssocMatrix(params, pts)
    for col, pt in zip(mat.columns, pts):
        assert col[0] == eval_F(params, pt).val
        assert col[1] == eval_H(params, pt).val


def test_rank_frozen_cases():
    params = params_for(5, 2, 2, 1)
    ident = identity(params)
    # identity: F and H vanish exactly -> zero column
    assert matrix_rank(params, [ident]) == 0
    # affine non-3-torsion point: H is a unit -> rank 1
    affine = ProjPoint.of(params.ring, 0, 1, 1)
    assert matrix_rank(params, [affine]) == 1
    # two points of one layer: minors vanish -> rank <= 1
    from elliptic_loops import Layer, layer_points

    pts = layer_points(Layer(params, 5))
    assert matrix_rank(params, [pts[1], pts[2], pts[3]]) <= 1


def test_rank_le_one_forces_associativity():
    params = params_for(5, 2, 2, 1)
    rng = random.Random(11)
    pts = params.loop_points()
    found_low_rank = 0
    for _ in range(400):
        triple = [rng.choice(pts) for _ in range(3)]
        rank = matrix_rank(params, triple)
        if rank <= 1:
            found_low_rank += 1
            assert assoc_sufficient(params, *triple)
            assert triple_associates(params, *triple)
        else:
            assert not assoc_sufficient(params, *triple)
    assert found_low_rank > 0


def test_triple_associates_matches_direct_comparison():
    params = params_for(5, 2, 2, 1)
    rng = random.Random(5)
    pts = params.loop_points()
    for _ in range(200):
        a, b, c = (rng.choice(pts) for _ in range(3))
        direct = add(params, add(params, a, b), c) == add(params, a, add(params, b, c))
        assert triple_associates(params, a, b, c) == direct


def test_same_layer_triples_have_rank_le_one_and_associate():
    params = params_for(5, 2, 2, 1)
    from elliptic_loops import Layer, layer_points

    rng = random.Random(3)
    for t in (0, 5, 15):
        pts = layer_points(Layer(params, t))
        for _ in range(60):
            triple = [rng.choice(pts) for _ in range(3)]
            assert matrix_rank(params, triple) <= 1
            assert triple_associates(params, *triple)


# ---------------------------------------------------------------------------
# infinity decomposition against the brute-force table
# ---------------------------------------------------------------------------


def test_generators_are_the_two_axis_points():
    params = params_for(5, 3, 2, 1)
    g1, g2 = infinity_generators(params)
    assert (g1.x, g1.y, g1.z) == (5, 1, 0)
    assert (g2.x, g2.y, g2.z) == (0, 1, 5)


@pytest.mark.parametrize("e", [2, 3])
def test_decompose_matches_brute_force_table(e):
    params = params_for(5, e, 2, 1)
    g1, g2 = infinity_generators(params)
    n = params.ring.ideal_size
    table = {}
    for alpha in range(n):
        for beta in range(n):
            pt = add(params, scalar_mul(params, alpha, g1), scalar_mul(params, beta, g2))
            table[pt] = (alpha, beta)
    assert len(table) == n * n  # the combinations exhaust the infinity part
    for pt, (alpha, beta) in table.items():
        dec = infinity_decompose(params, pt)
        assert (dec.alpha, dec.beta) == (alpha, beta)
        assert dec == InfDecomposition(alpha, beta)
        assert dec.to_json() == {"alpha": alpha, "beta": beta}


def test_decompose_rejects_affine_points():
    params = params_for(5, 2, 2, 1)
    with pytest.raises(PreconditionUnmet):
        infinity_decompose(params, ProjPoint.of(params.ring, 0, 1, 1))


def test_forbidden_locus():
    assert forbidden_locus_check(params_for(5, 2, 2, 1))
    assert forbidden_locus_check(params_for(5, 3, 2, 1))


# ---------------------------------------------------------------------------
# torsion fibers and difference groups (p = 5, e = 2, A = 2, B = 1, q = 7)
# ---------------------------------------------------------------------------


def _torsion_points(params, q):
    ident = identity(params)
    return [pt for pt in params.loop_points() if scalar_mul(params, q, pt) == ident]


def test_torsion_census():
    params = params_for(5, 2, 2, 1)
    torsion = _torsion_points(params, 7)
    assert len(torsion) == 31  # 6 affine fibers of 5 + the identity
    fibers = {}
    for pt in torsion:
        fibers.setdefault(params.project(pt), []).append(pt)
    ident = identity(params)
    sizes = sorted(len(v) for v in fibers.values())
    assert sizes == [1, 5, 5, 5, 5, 5, 5]
    assert fibers[params.project(ident)] == [ident]


def test_torsion_fiber_matches_filter_oracle():
    params = params_for(5, 2, 2, 1)
    torsion = _torsion_points(params, 7)
    for base in torsion:
        fiber = torsion_fiber(params, 7, base)
        oracle = [
            pt for pt in fiber_points(params, base)
            if scalar_mul(params, 7, pt) == identity(params)
        ]
        assert set(fiber) == set(oracle)


@pytest.mark.parametrize("ring", [RingConfig.integer(5, 2), RingConfig.integer(5, 3),
                                  RingConfig.truncated_poly(5, 2)],
                         ids=["z25", "z125", "f5-t2"])
def test_fiber_points_is_the_projection_filter(ring):
    params = LoopParams(ring, 2, 1)
    pts = params.loop_points()
    s = ring.ideal_size ** 2
    for base in pts[::s] + pts[s - 1::s]:  # first and last point of every fiber
        target = params.project(base)
        assert fiber_points(params, base) == [
            pt for pt in pts if params.project(pt) == target]


def test_fiber_points_builds_one_fiber_without_listing_the_loop(monkeypatch):
    """On Z/101^2 (1,3), 887,487 points, the fiber is built alone: 10,201 points."""
    from elliptic_loops.diagnostics import random_loop_point
    monkeypatch.setattr(LoopParams, "loop_points", None)  # listing the loop raises
    params = params_for(101, 2, 1, 3)
    pt = random_loop_point(params, random.Random(5))
    fiber = fiber_points(params, pt)
    assert len(fiber) == 101 ** 2 and pt in fiber
    assert {params.project(fpt) for fpt in fiber[::97]} == {params.project(pt)}


def test_fiber_points_of_a_point_off_the_loop_is_a_precondition_error():
    params = params_for(5, 2, 2, 1)
    off = next(pt for pt in plane_points(params.ring) if eval_F(params, pt).is_unit())
    with pytest.raises(PreconditionUnmet, match="not a point of this loop"):
        fiber_points(params, off)


def test_difference_groups_are_z5_on_affine_fibers():
    params = params_for(5, 2, 2, 1)
    ident = identity(params)
    torsion = _torsion_points(params, 7)
    rident = params.project(ident)
    for base in torsion:
        diffs = difference_group(params, 7, base)
        if params.project(base) == rident:
            assert diffs == {ident}
            continue
        assert len(diffs) == 5
        orders = sorted(order_of(params, d) for d in diffs)
        assert orders == [1, 5, 5, 5, 5]  # Z/5
        # differences live at infinity
        for d in diffs:
            assert params.project(d) == rident


def test_difference_group_translates_onto_fiber():
    params = params_for(5, 2, 2, 1)
    torsion = _torsion_points(params, 7)
    for base in torsion[:8]:
        diffs = difference_group(params, 7, base)
        fiber = torsion_fiber(params, 7, base)
        assert {add(params, base, d) for d in diffs} == set(fiber)


def _brute_closed_group(params, diffs):
    """The identity, negation and sum closures checked pair by pair (the
    former implementation, kept as the oracle of the index-table check)."""
    return (identity(params) in diffs
            and all(neg(params, d) in diffs for d in diffs)
            and all(add(params, d1, d2) in diffs for d1 in diffs for d2 in diffs))


@pytest.mark.parametrize("p,e,a,b,q", [(5, 2, 2, 1, 7), (7, 2, 1, 1, 3), (5, 2, 4, 2, 3),
                                       (11, 2, 2, 7, None)])
def test_difference_groups_match_brute_force_closure(p, e, a, b, q):
    params = params_for(p, e, a, b)
    q = q or params.q
    for base in params.loop_points()[::7]:
        diffs = difference_group(params, q, base)
        fiber = torsion_fiber(params, q, base)
        assert diffs == {sub(params, x, y) for x in fiber for y in fiber}
        assert not fiber or _brute_closed_group(params, diffs)


def test_difference_set_that_is_not_a_subgroup_raises(monkeypatch):
    from elliptic_loops import structure

    params = params_for(5, 2, 2, 1)
    g1, _ = infinity_generators(params)  # order 5: {0, g1, -g1} misses 2*g1
    fake = [identity(params), g1]
    assert not _brute_closed_group(params, {sub(params, x, y) for x in fake for y in fake})
    monkeypatch.setattr(structure, "torsion_fiber", lambda params, q, pt: fake)
    with pytest.raises(AssertionError, match="not a subgroup") as info:
        difference_group(params, 7, identity(params))
    assert isinstance(info.value.__cause__, PreconditionUnmet)


@pytest.mark.parametrize("p,e,a,b,q", [(5, 2, 2, 1, 7), (7, 2, 1, 1, 3), (11, 2, 2, 7, None)])
def test_torsion_geometry_default_bases_and_records(p, e, a, b, q):
    params = params_for(p, e, a, b)
    q = q or params.q
    rident = params.project(identity(params))
    firsts = {}
    for pt in _torsion_points(params, q):
        firsts.setdefault(params.project(pt), pt)
    records = torsion_geometry(params, q)
    assert [base for base, *_ in records] == list(firsts.values())
    given = torsion_geometry(params, q, list(firsts.values())[::-1])
    assert [rec[:3] for rec in given] == [rec[:3] for rec in records[::-1]]
    for base, fiber, diffs, line in records:
        assert fiber == torsion_fiber(params, q, base)
        assert diffs == difference_group(params, q, base)
        cyclic = any(order_of(params, d) == len(diffs) for d in diffs)
        assert (line is None) == (params.project(base) == rident or not cyclic)
        if line is not None:
            assert line.base == base and set(line.coset) == set(fiber)


def test_torsion_needs_low_nilpotency():
    params = params_for(5, 3, 2, 1)
    with pytest.raises(NilpotencyTooHigh):
        difference_group(params, 7, identity(params))
    with pytest.raises(NilpotencyTooHigh):
        torsion_geometry(params, 7)


def test_torsion_suite_builds_each_fiber_once(monkeypatch):
    from elliptic_loops import diagnostics, structure

    params = params_for(5, 2, 2, 1)
    muls, bases = [], []
    real_mul, real_fiber = structure.scalar_mul, structure.torsion_fiber

    def counting_mul(*args):
        muls.append(args[1])
        return real_mul(*args)

    def counting_fiber(params_, q, pt):
        bases.append(pt)
        return real_fiber(params_, q, pt)

    monkeypatch.setattr(structure, "scalar_mul", counting_mul)
    monkeypatch.setattr(diagnostics, "scalar_mul", counting_mul)
    monkeypatch.setattr(structure, "torsion_fiber", counting_fiber)
    reports = diagnostics.torsion_suite(params)
    assert all(r.holds and r.checked == 7 for r in reports)
    assert len(bases) == len(set(bases)) == 7  # one fiber per base, q = 7 bases
    # 175 to group the 7-torsion in the suite, then 7 fibers of 25 points
    assert len(muls) == 350


def test_torsion_geometry_filters_each_fiber_once(monkeypatch):
    """With its default bases, each residue fiber is built once and its q-torsion
    filtered once, base and fiber alike: on Z/49 (0,2), one q * P for each of the
    441 points and one build for each of the 9 fibers."""
    from elliptic_loops import structure

    params = params_for(7, 2, 0, 2)
    muls, built = [], []
    real_mul, real_fiber = structure.scalar_mul, LoopParams.fiber
    monkeypatch.setattr(structure, "scalar_mul",
                        lambda *args: muls.append(args[1]) or real_mul(*args))
    monkeypatch.setattr(LoopParams, "fiber", lambda self, f: built.append(f) or real_fiber(self, f))
    records = torsion_geometry(params, params.q)
    assert len(records) == params.q == 9 and built == list(range(9))
    assert muls == [params.q] * params.cardinality() and len(muls) == 441


# ---------------------------------------------------------------------------
# torsion lines
# ---------------------------------------------------------------------------


def _affine_fiber_cases(params, q):
    ident = identity(params)
    rident = params.project(ident)
    cases = []
    seen = set()
    for pt in _torsion_points(params, q):
        rpt = params.project(pt)
        if rpt == rident or rpt in seen:
            continue
        seen.add(rpt)
        diffs = difference_group(params, q, pt)
        gen = next(d for d in diffs if order_of(params, d) == len(diffs))
        cases.append((pt, gen))
    return cases


def test_torsion_lines_carry_cosets_every_affine_fiber():
    params = params_for(5, 2, 2, 1)
    ring = params.ring
    for base, gen in _affine_fiber_cases(params, 7):
        tl = torsion_line(params, base, gen)
        assert not tl.degenerate
        assert len(tl.coset) == 5
        assert set(tl.coset) == set(torsion_fiber(params, 7, base))
        for pt in tl.coset:
            assert tl.evaluate(pt) == ring.zero
        # the reduced line cuts the coset exactly out of the 25-point fiber
        assert tl.reduced_line is not None
        ra, rb, rc = tl.reduced_line
        cut = [
            pt for pt in fiber_points(params, base)
            if (ra * pt.x + rb * pt.y + rc * pt.z) % 25 == 0
        ]
        assert set(cut) == set(tl.coset)


def test_torsion_line_displacement_law():
    params = params_for(5, 2, 2, 1)
    cases = _affine_fiber_cases(params, 7)
    base, gen = cases[0]
    X, Z = base.x, base.z
    walked = base
    for k in range(1, 5):
        walked = add(params, walked, gen)
        # displacement is linear: coordinates move by fixed alpha, beta
        assert (walked.x - X) % 25 == k * ((add(params, base, gen).x - X) % 25) % 25
    tl = torsion_line(params, base, gen)
    assert tl.to_json()["reduced_line"] == list(tl.reduced_line)


def test_torsion_line_degenerate_for_identity_direction():
    params = params_for(5, 2, 2, 1)
    base, _ = _affine_fiber_cases(params, 7)[0]
    tl = torsion_line(params, base, identity(params))
    assert tl.degenerate
    assert tl.coset == [base]
    assert tl.reduced_line is None


def test_torsion_line_preconditions():
    params = params_for(5, 2, 2, 1)
    base, gen = _affine_fiber_cases(params, 7)[0]
    with pytest.raises(PreconditionUnmet):
        torsion_line(params, identity(params), gen)  # base not affine
    with pytest.raises(PreconditionUnmet):
        torsion_line(params, base, base)  # direction not at infinity
    params3 = params_for(5, 3, 2, 1)
    with pytest.raises(NilpotencyTooHigh):
        torsion_line(params3, base, gen)


# ---------------------------------------------------------------------------
# rank monotonicity (collapsing a pair never raises the rank)
# ---------------------------------------------------------------------------


def test_rank_monotone_under_pair_collapse():
    params = params_for(5, 2, 2, 1)
    rng = random.Random(17)
    pts = params.loop_points()
    for _ in range(300):
        p1, p2, p3 = (rng.choice(pts) for _ in range(3))
        r3 = matrix_rank(params, [p1, p2, p3])
        r2 = matrix_rank(params, [p1, add(params, p2, p3)])
        assert r2 <= r3
