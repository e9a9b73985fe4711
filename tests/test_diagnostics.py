"""Law diagnostics, witnesses, certificates, and verification suites.

Frozen expectations for the 175-point loop over Z/25 with A=2, B=1:
the loop is power-associative and a quasigroup but fails the
alternative, Jordan, Moufang, diassociative, and associative laws.
Every reported counterexample must replay.
"""

from __future__ import annotations

import json
import random

import pytest

from elliptic_loops import (
    LAW_NAMES,
    CayleyIndex,
    LawReport,
    LoopParams,
    NilpotencyTooHigh,
    PreconditionUnmet,
    ProjPoint,
    RingConfig,
    WitnessReport,
    add,
    cardinality_report,
    classify_group_loops,
    eval_H,
    group_certificate,
    identity,
    infinity_suite,
    law_suite,
    low_nilpotency_suite,
    matrix_rank,
    neg,
    order_of,
    plane_points,
    proj_equal,
    replay,
    scalar_mul,
    technical_congruences,
    verify_instance,
    witness_A,
    witness_B,
    witness_inf,
)
from elliptic_loops import diagnostics
from elliptic_loops.diagnostics import VERIFY_SUITES, random_loop_point
from elliptic_loops.loop_core import _multiples


def params_for(p, e, a, b):
    return LoopParams(RingConfig.integer(p, e), a, b)


LAW_EXPECTATIONS = {
    "alternative": False,
    "jordan": False,
    "moufang": False,
    "diassociative": False,
    "power-associative": True,
    "full-associative": False,
    "latin-square": True,
}


# ---------------------------------------------------------------------------
# the seven laws on the reference instance
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference_reports():
    params = params_for(5, 2, 2, 1)
    return params, law_suite(params, budget=400_000, seed=0)


def test_law_verdicts_match_expectations(reference_reports):
    _, reports = reference_reports
    verdicts = {r.law: r.holds for r in reports}
    assert verdicts == LAW_EXPECTATIONS
    assert set(LAW_NAMES) == set(LAW_EXPECTATIONS)


def test_failed_laws_carry_replayable_counterexamples(reference_reports):
    params, reports = reference_reports
    for report in reports:
        if report.holds:
            continue
        assert report.counterexample is not None
        # replay returns True when the counterexample still violates the law
        assert replay(params, report) is True
        assert replay(params, report.to_json()) is True


def test_passing_reports_have_nothing_to_replay(reference_reports):
    params, reports = reference_reports
    for report in reports:
        if report.holds:
            assert report.counterexample is None
            with pytest.raises(PreconditionUnmet):
                replay(params, report)


def test_report_json_shape(reference_reports):
    _, reports = reference_reports
    for report in reports:
        blob = json.loads(json.dumps(report.to_json()))
        assert blob["law"] == report.law
        assert blob["holds"] == report.holds
        assert blob["checked"] == report.checked
        assert blob["exhaustive"] == report.exhaustive
        if report.counterexample is not None:
            assert blob["counterexample"]["points"]


def test_identical_seeds_identical_reports():
    params = params_for(5, 2, 2, 1)
    first = law_suite(params, ("moufang",), budget=20_000, seed=42)
    second = law_suite(params, ("moufang",), budget=20_000, seed=42)
    assert [r.to_json() for r in first] == [r.to_json() for r in second]


def test_laws_on_polynomial_ring():
    params = LoopParams(RingConfig.truncated_poly(5, 2), 2, 1)
    reports = law_suite(params, ("power-associative", "latin-square"), budget=50_000,
                        seed=1)
    assert all(r.holds for r in reports)


# ---------------------------------------------------------------------------
# Cayley tables
# ---------------------------------------------------------------------------


def test_cayley_index_mul_matches_scalar_mul():
    params = params_for(5, 2, 2, 1)
    pts = params.loop_points()
    cayley = CayleyIndex(params, pts)
    n = len(pts)
    for i, pt in enumerate(pts):
        for m in range(-2 * n, 2 * n):
            s = scalar_mul(params, m, pt)
            assert cayley.mul(i, m) == cayley.index[s.x, s.y, s.z], (i, m)


def test_cayley_assoc_sweep_finds_loop_non_associativity():
    params = params_for(5, 2, 2, 1)
    pts = params.loop_points()
    bad = CayleyIndex(params, pts).assoc_sweep()
    assert bad is not None
    i, j, k = bad
    lhs = add(params, add(params, pts[i], pts[j]), pts[k])
    rhs = add(params, pts[i], add(params, pts[j], pts[k]))
    assert lhs != rhs


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def _assert_confirmed(params, w):
    assert w.lhs != w.rhs
    assert not proj_equal(params.ring, w.lhs.coords(), w.rhs.coords())
    p1, p2, p3 = w.points
    assert add(params, add(params, p1, p2), p3) == w.lhs
    assert add(params, p1, add(params, p2, p3)) == w.rhs
    assert w.rank == matrix_rank(params, list(w.points))


def test_witness_a_on_e3():
    params = params_for(5, 3, 2, 1)
    w = witness_A(params)
    assert w.kind == "A"
    assert (w.points[1].x, w.points[1].y, w.points[1].z) == (5, 1, 5)
    assert (w.points[2].x, w.points[2].y, w.points[2].z) == (0, 1, 5)
    _assert_confirmed(params, w)
    assert w.rank == 2  # observed, not asserted by theory


def test_witness_a_needs_e_at_least_3():
    with pytest.raises(PreconditionUnmet):
        witness_A(params_for(5, 2, 2, 1))


def test_witness_b_on_e2():
    params = params_for(5, 2, 2, 1)
    w = witness_B(params)
    assert w.kind == "B"
    p1, p2, p3 = w.points
    # P2 is P1 shifted by p in the y coordinate, both scaled to z = 1
    assert p3 == ProjPoint.of(params.ring, 0, 1, 5)
    _assert_confirmed(params, w)


def test_witness_b_rejects_all_three_torsion_curves():
    params = params_for(5, 2, 4, 2)  # q = 3: every affine point is 3-torsion
    with pytest.raises(PreconditionUnmet):
        witness_B(params)


def test_witness_b_validates_supplied_point():
    params = params_for(5, 2, 2, 1)
    affine = ProjPoint.of(params.ring, 0, 1, 1)
    w = witness_B(params, affine)
    _assert_confirmed(params, w)


def test_witness_inf_on_e6():
    params = params_for(5, 6, 2, 1)
    w = witness_inf(params)
    assert w.kind == "inf"
    _assert_confirmed(params, w)


def test_witness_inf_needs_e_at_least_6():
    with pytest.raises(PreconditionUnmet):
        witness_inf(params_for(5, 5, 2, 1))


def test_witness_json_round_trip():
    params = params_for(5, 3, 2, 1)
    w = witness_A(params)
    blob = json.loads(json.dumps(w.to_json(params)))
    assert blob["kind"] == "A"
    assert blob["associates"] is False
    pts = [ProjPoint.from_json(params.ring, obj) for obj in blob["points"]]
    assert tuple(pts) == w.points


# ---------------------------------------------------------------------------
# low-nilpotency identities and infinity structure
# ---------------------------------------------------------------------------


def test_low_nilpotency_suite_all_hold():
    params = params_for(5, 2, 2, 1)
    reports = low_nilpotency_suite(params, budget=400_000, seed=0)
    names = [r.law for r in reports]
    assert names == [
        "translate-by-infinity-pair",
        "difference-across-fiber",
        "triple-in-fiber",
        "fiberwise-sum-exchange",
        "multiple-of-fiber-sum",
    ]
    assert all(r.holds for r in reports)
    by_name = {r.law: r for r in reports}
    assert by_name["translate-by-infinity-pair"].exhaustive
    assert by_name["triple-in-fiber"].exhaustive
    assert not by_name["fiberwise-sum-exchange"].exhaustive


def test_low_nilpotency_needs_e_le_2():
    with pytest.raises(NilpotencyTooHigh):
        low_nilpotency_suite(params_for(5, 3, 2, 1))


def test_infinity_suite_e2_and_e3():
    for e in (2, 3):
        params = params_for(5, e, 2, 1)
        reports = infinity_suite(params, budget=300_000, seed=0)
        assert all(r.holds for r in reports)
        by_name = {r.law: r for r in reports}
        assert by_name["infinity-cardinality"].checked == 5 ** (2 * (e - 1))
        # 25^3 triples fit the budget at e = 2; 625^3 need the big acceptance budget
        assert by_name["infinity-associativity"].exhaustive == (e == 2)


def test_infinity_non_associative_from_e6():
    params = params_for(5, 6, 2, 1)
    reports = infinity_suite(params, budget=20_000, seed=0)
    by_name = {r.law: r for r in reports}
    assoc = by_name["infinity-associativity"]
    assert not assoc.holds
    assert assoc.counterexample is not None
    assert assoc.exhaustive and assoc.checked == 1  # the witness is the whole case space
    assert replay(params, assoc) is True


# ---------------------------------------------------------------------------
# technical congruences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("e", [4, 6])
def test_congruences_on_integer_rings(e):
    params = params_for(5, e, 2, 1)
    reports = technical_congruences(params, cases=800, seed=0)
    assert [r.law for r in reports] == ["congruence-i", "congruence-ii", "congruence-iv"]
    assert all(r.holds for r in reports)


def test_congruences_on_polynomial_ring():
    params = LoopParams(RingConfig.truncated_poly(5, 3), 2, 1)
    reports = technical_congruences(params, cases=300, seed=0, parts=("i", "ii"))
    assert all(r.holds for r in reports)
    with pytest.raises(PreconditionUnmet):
        technical_congruences(params, cases=10, seed=0, parts=("iv",))


# ---------------------------------------------------------------------------
# certificates and classification
# ---------------------------------------------------------------------------


def test_group_certificate_on_known_group():
    params = params_for(5, 2, 4, 2)
    cert = group_certificate(params)
    assert cert["is_group"] is True
    assert cert["invariants"] == [5, 15]
    assert cert["order"] == 75
    assert cert["method"] == "basis-isomorphism"


def test_group_certificate_on_known_non_group():
    params = params_for(5, 2, 2, 1)
    cert = group_certificate(params)
    assert cert["is_group"] is False
    assert cert["method"] == "shifted-pair-witness"
    pts = [ProjPoint.from_json(params.ring, obj) for obj in cert["witness"]["points"]]
    assert add(params, add(params, pts[0], pts[1]), pts[2]) != add(
        params, pts[0], add(params, pts[1], pts[2])
    )


def certificate_by_homomorphism(params, budget=200_000, seed=0):
    """The group certificate by its definition, the oracle of the fast one:
    the basis map (i, j) -> i*G1 + j*G2 is a bijection, and a homomorphism
    on every ordered pair, by one ``add`` per pair."""
    n = params.cardinality()

    def non_group(method, witness):
        return {"is_group": False, "order": n, "invariants": None, "method": method,
                "witness": witness}

    if params.ring.e >= 3:
        return non_group("affine-infinity-witness",
                         diagnostics.witness_A(params).to_json(params))
    try:
        return non_group("shifted-pair-witness", diagnostics.witness_B(params).to_json(params))
    except PreconditionUnmet:
        pass
    pts = params.loop_points()

    def search():
        rep = diagnostics._sweep("full-associative", budget, seed,
                                 diagnostics._point_ce(params),
                                 draws=diagnostics._picks(pts, 3),
                                 first_bad=diagnostics._law_breaker(params, "full-associative"))
        if not rep.holds:
            return non_group("sampled-triple", rep.counterexample)
        return {"is_group": None, "order": n, "invariants": None,
                "method": "undetermined", "checked": rep.checked}

    orders = {pt: order_of(params, pt) for pt in pts}
    n2 = max(orders.values())
    n1 = n // n2
    if n1 * n2 != n or (n1 > 1 and n2 % n1):
        return search()
    g2_multiples = _multiples(params, next(pt for pt, o in orders.items() if o == n2), n2)
    candidates = [pt for pt, o in orders.items() if o == n1] if n1 > 1 else [identity(params)]
    for g1 in candidates:
        phi = {(i, j): add(params, gi, gj) for i, gi in enumerate(_multiples(params, g1, n1))
               for j, gj in enumerate(g2_multiples)}
        if len(set(phi.values())) != n:
            continue
        if all(add(params, v1, v2) == phi[((i1 + i2) % n1, (j1 + j2) % n2)]
               for (i1, j1), v1 in phi.items() for (i2, j2), v2 in phi.items()):
            return {"is_group": True, "order": n, "invariants": [n1, n2],
                    "method": "basis-isomorphism", "checked_pairs": n * n}
    return search()


@pytest.mark.parametrize("inst", [(5, 2, 4, 2), (5, 2, 4, 3), (7, 2, 0, 4), (7, 2, 0, 2)])
def test_group_certificate_matches_the_homomorphism_definition(inst):
    params = params_for(*inst)
    cert = group_certificate(params)
    assert cert["is_group"] is True
    assert cert == certificate_by_homomorphism(params)


def test_non_group_past_the_witnesses_fails_light_test_as_the_definition_does(monkeypatch):
    def no_witness(params, pt=None):
        raise PreconditionUnmet("no structured witness")

    monkeypatch.setattr(diagnostics, "witness_B", no_witness)
    tried = []
    light = CayleyIndex.associative

    def recording(self, gens=None):
        tried.append(light(self, gens))
        return tried[-1]

    monkeypatch.setattr(CayleyIndex, "associative", recording)
    params = params_for(5, 2, 2, 1)
    cert = group_certificate(params, seed=3)
    assert tried == [False]  # a bijective basis reached Light's test
    assert cert["method"] == "sampled-triple"
    assert cert == certificate_by_homomorphism(params, seed=3)


def test_group_certificate_adds_no_more_than_one_table_build(monkeypatch):
    params = params_for(7, 2, 0, 2)
    n = params.cardinality()
    calls = [0]
    counted = diagnostics.add

    def counting_add(*args):
        calls[0] += 1
        return counted(*args)

    monkeypatch.setattr(diagnostics, "add", counting_add)
    with pytest.raises(PreconditionUnmet):
        diagnostics.witness_B(params)
    witness_adds, calls[0] = calls[0], 0
    assert group_certificate(params)["is_group"] is True
    # order_of adds through loop_core, so only the table build and the basis count
    assert calls[0] - witness_adds <= n * (n + 1) // 2 + n


def test_small_classification_sweep():
    records = classify_group_loops(p_max=5, size_max=30, seed=0)
    assert len(records) == 8
    groups = [(r["A"], r["B"]) for r in records if r["is_group"]]
    assert groups == [(4, 2), (4, 3)]
    for r in records:
        if r["is_group"]:
            assert r["invariants"] == [5, 15]
        else:
            assert r["invariants"] is None


def test_group_ness_invariant_under_coefficient_lifts():
    ring = RingConfig.integer(5, 2)
    assert group_certificate(LoopParams(ring, 4, 2))["is_group"]
    assert group_certificate(LoopParams(ring, 9, 7))["is_group"]
    assert group_certificate(LoopParams(ring, 24, 22))["is_group"]
    assert not group_certificate(LoopParams(ring, 7, 1))["is_group"]
    assert not group_certificate(LoopParams(ring, 2, 21))["is_group"]


# ---------------------------------------------------------------------------
# cardinality report and verification dispatch
# ---------------------------------------------------------------------------


def test_cardinality_report_frozen_examples():
    report = cardinality_report(params_for(5, 2, 2, 1))
    assert report["infinity"] == 25 and report["affine"] == 150
    assert report["formulas_match"]
    report = cardinality_report(params_for(7, 2, 0, 2))
    assert report["infinity"] == 49 and report["affine"] == 392
    assert report["total"] == 441
    assert report["formulas_match"]
    report = cardinality_report(params_for(5, 1, 2, 1))
    assert report["infinity"] == 1 and report["affine"] == 6


def test_verify_instance_dispatch():
    params = params_for(5, 2, 2, 1)
    laws_only = verify_instance(params, "laws", budget=30_000, seed=0)
    assert [r.law for r in laws_only] == ["power-associative", "latin-square"]
    with pytest.raises(ValueError):
        verify_instance(params, "no-such-suite")
    assert set(VERIFY_SUITES) >= {"laws", "layers", "witnesses", "torsion"}


def test_verify_instance_rejects_budget_below_one():
    params = params_for(5, 2, 2, 1)
    for budget in (0, -5):
        with pytest.raises(PreconditionUnmet):
            verify_instance(params, "laws", budget=budget)


@pytest.mark.parametrize("law", ["full-associative", "moufang"])
def test_triple_laws_sample_a_pool_that_is_not_the_loop(law):
    # 5^5 (2,1) has 2.7 M points, so the laws draw from a 5,000-point pool;
    # a budget above the pool's n^3 must not build index tables over it
    params = params_for(5, 5, 2, 1)
    (report,) = law_suite(params, (law,), budget=10**12, seed=0)
    assert not report.holds and not report.exhaustive
    assert replay(params, report)


def test_reported_counts_match_the_work_done():
    params = params_for(5, 2, 2, 1)
    reports = {r.law: r for r in verify_instance(params, "hessian-closure", budget=1_000)}
    hess = reports["combination-closure-hessian"]
    zeros = sum(1 for pt in plane_points(params.ring) if eval_H(params, pt).is_zero())
    assert hess.holds and hess.checked == zeros * (zeros + 1) // 2
    assert f"({zeros} of 775 plane points)" in hess.detail
    reports = {r.law: r for r in verify_instance(params, "layers", budget=1_000)}
    isz = params.ring.ideal_size  # isz layers, each with isz - 1 nonzero infinity points
    assert reports["layer-infinity-valuation"].checked == isz * (isz - 1)


def test_verify_instance_seed_determinism():
    params = params_for(5, 2, 2, 1)
    a = verify_instance(params, "structure", budget=5_000, seed=3)
    b = verify_instance(params, "structure", budget=5_000, seed=3)
    assert [r.to_json() for r in a] == [r.to_json() for r in b]


def test_random_loop_point_lands_on_loop():
    params = params_for(5, 4, 2, 1)
    rng = random.Random(0)
    from elliptic_loops import membership

    for _ in range(50):
        assert membership(params, random_loop_point(params, rng))
