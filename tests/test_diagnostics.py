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
from elliptic_loops.diagnostics import VERIFY_SUITES, random_loop_point


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
    rng = random.Random(9)
    for _ in range(100):
        i = rng.randrange(len(pts))
        n = rng.randrange(-50, 50)
        assert pts[cayley.mul(i, n)] == scalar_mul(params, n, pts[i])


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
