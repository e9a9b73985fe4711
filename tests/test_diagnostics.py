"""Law diagnostics, witnesses, certificates, and verification suites.

Frozen expectations for the 175-point loop over Z/25 with A=2, B=1:
the loop is power-associative and a quasigroup but fails the
alternative, Jordan, Moufang, diassociative, and associative laws.
Every reported counterexample must replay.
"""

from __future__ import annotations

import json
import random
import re
from functools import partial
from itertools import islice

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


def _decode(params, coords):
    return diagnostics._decode_points(params, coords)


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


@pytest.mark.parametrize("law", ["projection-homomorphism", "layer-closure",
                                 "rank-monotonicity", "stratification"])
def test_replay_names_a_law_it_cannot_replay(law):
    params = params_for(5, 2, 2, 1)
    points = diagnostics._encode_points(params, params.loop_points()[:3])
    report = LawReport(law, False, {"points": points}, 1, False, 0)
    with pytest.raises(PreconditionUnmet, match=f"cannot replay a '{law}' report") as raised:
        replay(params, report)
    assert all(known in str(raised.value)
               for known in (*LAW_NAMES, *diagnostics.NILPOTENCY_CHECKS,
                             "infinity-associativity", "layer-associativity"))


@pytest.mark.parametrize("law", ["triple-in-fiber", "multiple-of-fiber-sum"])
def test_replay_decides_a_fiber_identity_over_points(law):
    """The low-nilpotency identities replay through the one statement of each law,
    the multiplier read from the counterexample: an in-fiber triple of Z/125, where
    m^2 != 0, that breaks the identity replays as a violation, and one of Z/25 as none."""
    rng = random.Random(3)
    for inst, violates in (((5, 3, 2, 1), True), ((5, 2, 2, 1), False)):
        params = params_for(*inst)
        s = params.ring.ideal_size ** 2
        pts, ops = params.loop_points(), diagnostics._ops(params)
        for _ in range(100):
            f = rng.randrange(params.q)
            case = [pts[f * s + rng.randrange(s)] for _ in range(3)]
            extra = [rng.randrange(2, 50)] if law == "multiple-of-fiber-sum" else []
            if diagnostics._law_holds(ops, law, *case, *extra) != violates:
                break
        else:
            raise AssertionError(f"no in-fiber case that {'fails' if violates else 'holds'}")
        ce = {"points": diagnostics._encode_points(params, case)}
        if extra:
            ce["multiplier"] = extra[0]
        assert replay(params, LawReport(law, False, ce, 1, False, 0)) is violates


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


def counting_builds(monkeypatch) -> list:
    """The point counts of the index tables built from here on."""
    built, init = [], CayleyIndex.__init__

    def counting_init(self, params, points):
        built.append(len(points))
        init(self, params, points)

    monkeypatch.setattr(CayleyIndex, "__init__", counting_init)
    return built


@pytest.mark.parametrize("ring, a, b", [(RingConfig.integer(5, 2), 2, 1),
                                        (RingConfig.integer(5, 2), 4, 2),
                                        (RingConfig.truncated_poly(5, 2), 2, 1)],
                         ids=["Z/25-2-1", "Z/25-4-2", "F_5[t]/(t^2)-2-1"])
def test_each_law_is_stated_once_for_points_and_indices(ring, a, b):
    """Every law over a whole-loop table's indices agrees with the same law
    over points, the oracle, on seeded pairs, triples and exponent pairs."""
    params = LoopParams(ring, a, b)
    pts = params.loop_points()
    ops = diagnostics._ops(params, CayleyIndex(params, pts))
    n, rng = len(pts), random.Random(11)
    verdicts = set()
    for law in LAW_NAMES:
        for _ in range(8 if law == "diassociative" else 40):
            i, j, k = (rng.randrange(n) for _ in range(3))
            if law == "power-associative":  # a point and two exponents
                case, on_points = (i, j - 200, k - 200), (pts[i], j - 200, k - 200)
            else:
                case = (i, j, k) if law in diagnostics.TRIPLE_LAWS else (i, j)
                on_points = [pts[c] for c in case]
            verdict = diagnostics._law_holds(ops, law, *case)
            expected = diagnostics._law_holds(diagnostics._ops(params), law, *on_points)
            assert verdict == expected, (law, case)
            verdicts.add(verdict)
    assert verdicts == ({True} if (a, b) == (4, 2) else {True, False})


@pytest.mark.parametrize("inst, laws, budget", [
    ((5, 2, 4, 2), ("power-associative",), 200_000),
    ((5, 2, 1, 1), ("moufang", "diassociative"), 5_000),
])
def test_the_whole_loop_table_changes_no_sampled_report(inst, laws, budget, monkeypatch):
    """Over the table's indices the samples make the same draws as over points.  On
    Z/25 (1,1), q = 9, the table pays for the samples from budget 4,245 on, and
    moufang's 7 * 9^3 = 5,103 probes of its fiber triples do not fit 5,000."""
    params = params_for(*inst)
    built = counting_builds(monkeypatch)
    tabled = law_suite(params, laws, budget=budget, seed=7)
    affordable = diagnostics._affordable  # every other route decides as before
    monkeypatch.setattr(diagnostics, "_affordable",
                        lambda *args, table=0, **kw: not table and affordable(*args, **kw))
    on_points = law_suite(params, laws, budget=budget, seed=7)
    assert built == [params.cardinality()]  # only the first run has a table
    assert not any(r.exhaustive for r in tabled)
    assert [r.to_json() for r in tabled] == [r.to_json() for r in on_points]


# ---------------------------------------------------------------------------
# unique solvability: the identity P + (Q - P) = Q, pair by pair
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("budget", [300, 1_000])
@pytest.mark.parametrize("inst", [(5, 3, 2, 1), (13, 2, 0, 6)], ids=["Z/125", "Z/169"])
def test_sampled_latin_square_stays_within_its_budget(inst, budget):
    """A pair costs two additions, so a budget decides at most half as many probes
    of fiber pairs, 5 a pair at e = 2 and 15 at e = 3.  The 7^2 fiber pairs of
    Z/169 (0,6) take 245 probes, which budget 1,000 affords; budget 300 draws 30
    seeded fiber pairs, each covering 13^4 point pairs.  The 7^2 of Z/125 (2,1)
    take 735 probes: budgets 300 and 1,000 draw 10 and 33, each covering 25^4."""
    params = params_for(*inst)
    rep = law_suite(params, ("power-associative", "latin-square"), budget=budget, seed=0)[1]
    assert rep.law == "latin-square" and rep.holds
    q, probes = params.q, {2: 5, 3: 15}[params.ring.e]
    if rep.exhaustive:
        assert (inst, budget) == ((13, 2, 0, 6), 1_000) and probes * q * q <= budget // 2
        assert rep.checked == params.cardinality() ** 2
        assert rep.detail == (f"simplex probes: {probes * q * q:,} cases decide "
                              f"{q * q:,} fiber pairs")
    else:
        tuples = budget // (2 * probes)
        assert (inst, budget) != ((13, 2, 0, 6), 1_000) and probes * tuples * 2 <= budget
        assert rep.checked == tuples * params.ring.ideal_size ** 4
        assert rep.detail == (f"simplex probes: {probes * tuples:,} cases decide "
                              f"{tuples:,} seeded fiber pairs")


def test_the_identity_alone_catches_a_row_collision(monkeypatch):
    """One cell of row i set to another cell's sum, so row i is no permutation:
    the table route of latin-square fails at a pair in row i.  The loop has
    e = 1, where a fiber is one point and its one probe, so the table is read
    pair by pair: at e = 2 the fiber probes would assume the very structure
    the broken cell breaks."""
    params = params_for(263, 1, 4, 1)
    pts = params.loop_points()
    n, neg_idx = len(pts), CayleyIndex(params, pts).neg
    i = 5  # and a cell (i, j) that no earlier row reads as its inner sum Q - P
    j = next(c for c in range(n) if neg_idx[c] > i and c != neg_idx[i])
    j2 = next(c for c in range(n) if c != j)
    init = CayleyIndex.__init__

    def colliding_init(self, params, points):
        init(self, params, points)
        self.table[i][j] = self.table[i][j2]
        assert sorted(self.table[i]) != list(range(n))  # the oracle: row i repeats a sum

    monkeypatch.setattr(CayleyIndex, "__init__", colliding_init)
    (rep,) = law_suite(params, ("latin-square",), budget=200_000, seed=0)
    assert not rep.holds and rep.exhaustive and rep.checked == n * n
    p, q = (pts.index(pt) for pt in _decode(params, rep.counterexample["points"]))
    assert p == i
    assert rep.detail == (f"simplex probes: {p * n + q + 1:,} cases decide {n * n:,} "
                          "fiber pairs over the index table")


def test_a_failing_pair_over_points_encodes_and_replays(monkeypatch):
    """Without a table, a pair breaking P + (Q - P) = Q is two points, and
    replay confirms it under the same broken negation (and not without it)."""
    params = params_for(5, 2, 2, 1)
    built = counting_builds(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(diagnostics, "neg", lambda params, pt: pt)
        (rep,) = law_suite(params, ("latin-square",), budget=100, seed=0)
        assert built == [] and not rep.holds and not rep.exhaustive
        assert list(rep.counterexample) == ["points"]
        assert len(rep.counterexample["points"]) == 2
        assert replay(params, rep) is True
    assert replay(params, rep) is False


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
    assert all(r.exhaustive for r in reports)


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
        # the 625-point table's 195,625 additions are under the 1.2 M of sampled triples
        assert by_name["infinity-associativity"].exhaustive


@pytest.mark.parametrize("inst, tabled", [((7, 2, 0, 2), True), ((7, 2, 1, 1), True),
                                           ((5, 3, 2, 1), False)])
def test_infinity_additivity_is_read_off_the_infinity_table(inst, tabled, monkeypatch):
    """At budget 1,000 the earlier rule read the sums of the 49-point parts off their
    tables (1,225 additions pay for 4,000 of sampled triples), and sampled the
    625-point part.  Now no table is built: the simplex probes of the one infinity
    pair, 5 at e = 2 and 15 at e = 3, decide all n^2 sums of each part."""
    params = params_for(*inst)
    n = params.ring.ideal_size ** 2
    assert tabled == (((n + 1) // 2) ** 2 <= 4 * 1_000)
    built = counting_builds(monkeypatch)
    additive = {r.law: r for r in infinity_suite(params, budget=1_000, seed=0)}[
        "infinity-coordinates-additive"]
    probes = {2: 5, 3: 15}[params.ring.e]
    assert additive.holds and additive.exhaustive and additive.checked == n ** 2
    assert additive.detail == f"simplex probes: {probes} cases decide 1 fiber tuple"
    assert built == []


def test_infinity_non_associative_from_e6():
    """At e = 6 a probe of the one infinity triple fails, so the check is decided on
    all |m|^6 triples, at any budget, and the probe triple replays."""
    params = params_for(5, 6, 2, 1)
    for budget in (10, 20_000):
        by_name = {r.law: r for r in infinity_suite(params, budget=budget, seed=0)}
        assoc = by_name["infinity-associativity"]
        assert not assoc.holds
        assert assoc.counterexample is not None
        assert assoc.exhaustive and assoc.checked == params.ring.ideal_size ** 6
        assert re.fullmatch(r"simplex probes: \d+ cases decide 1 fiber tuple", assoc.detail)
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
                                 first_bad=diagnostics._breaker(partial(
                                     diagnostics._law_holds, diagnostics._ops(params),
                                     "full-associative")))
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


def no_witness(params, pt=None):
    raise PreconditionUnmet("no structured witness")


def test_non_group_past_the_witnesses_fails_light_test_as_the_definition_does(monkeypatch):
    monkeypatch.setattr(diagnostics, "witness_B", no_witness)
    tried = []
    light = CayleyIndex._light_test

    def recording(self, gens=None):
        tried.append((gens, light(self, gens)))
        return tried[-1][1]

    monkeypatch.setattr(CayleyIndex, "_light_test", recording)
    params = params_for(5, 2, 2, 1)
    cert = group_certificate(params, seed=3)
    assert [(len(gens), bad is None) for gens, bad in tried] == [(2, False)]  # on a basis
    assert certificate_by_homomorphism(params, seed=3)["is_group"] is False
    assert cert["is_group"] is False and cert["method"] == "light-test-triple"
    a, b, c = diagnostics._decode_points(params, cert["witness"]["points"])
    assert add(params, add(params, a, b), c) != add(params, a, add(params, b, c))


@pytest.mark.parametrize("budget", [1, 200_000])
def test_light_test_names_the_triple_at_any_budget(budget, monkeypatch):
    """Past the witnesses the table's Light's test refutes a non-group at every
    budget: no seeded search runs, so budget 1 is not left undetermined."""
    monkeypatch.setattr(diagnostics, "witness_B", no_witness)
    params = params_for(5, 2, 2, 1)
    cert = group_certificate(params, budget=budget, seed=3)
    assert cert == group_certificate(params, budget=7, seed=5)
    assert cert["is_group"] is False and cert["method"] == "light-test-triple"
    a, b, c = diagnostics._decode_points(params, cert["witness"]["points"])
    assert add(params, add(params, a, b), c) != add(params, a, add(params, b, c))


def test_an_associative_table_without_a_basis_is_a_failed_construction(monkeypatch):
    """Orders misread as 1 leave the group Z/25 (4,2) without a basis: Light's test
    then passes on the table's generators, and the certificate raises, not answers."""
    monkeypatch.setattr(CayleyIndex, "multiples", lambda self, i: [self.ident])
    with pytest.raises(AssertionError, match="no basis"):
        group_certificate(params_for(5, 2, 4, 2))


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
    # orders are read off the table's cycles, so only the table build adds (at most
    # one add per unordered pair up to negation)
    assert calls[0] - witness_adds <= ((n + 1) // 2) ** 2 + n


def test_group_certificate_reads_orders_off_its_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("order_of ran")

    monkeypatch.setattr(diagnostics, "order_of", refuse)
    for inst, invariants in [((7, 2, 0, 2), [21, 21]), ((5, 2, 4, 2), [5, 15])]:
        cert = group_certificate(params_for(*inst))
        assert cert["is_group"] is True and cert["invariants"] == invariants


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


@pytest.mark.parametrize("law", LAW_NAMES)
def test_triple_laws_sample_a_pool_that_is_not_the_loop(law, monkeypatch):
    # 5^5 (2,1) has 2.7 M points, so no budget builds an index table over it:
    # every law is decided on the C(2k + 4, 4) probes of its fiber pairs or
    # triples, or for power-associative of one fiber and two exponents, points
    # built by index.  The five laws that fail stop at a counterexample even
    # at 10^12, decided on every tuple; the two that hold run at a budget that
    # ends, latin-square's 49 * 70 probes of two additions sampled.
    params = params_for(5, 5, 2, 1)
    built = counting_builds(monkeypatch)
    holds = LAW_EXPECTATIONS[law]
    (report,) = law_suite(params, (law,), budget=2_000 if holds else 10**12, seed=0)
    assert built == []
    assert report.holds == holds and report.exhaustive == (not holds)
    assert report.detail.startswith("simplex probes: ")
    if not holds:
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


RANK_LOOPS = [(RingConfig.integer(5, 2), 2, 1), (RingConfig.truncated_poly(5, 2), 2, 1),
              (RingConfig.integer(5, 5), 2, 1)]  # the last one's pool is 4,000 drawn points


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("ring, a, b", RANK_LOOPS, ids=str)
def test_rank_monotonicity_draws_the_same_triples_and_replays(monkeypatch, ring, a, b, seed):
    """The suite sees the triples of ``_picks(_point_pool(params, rng), 3)``, case by
    case, and a sum planted off P1's layer fails at its case with a counterexample
    that replays.  A triple of rank 2 passes whatever its sum, so the failure is
    planted at the first case k >= 40 of rank below 2 whose pair no earlier such
    case sums and whose rank some sum exceeds (over the identity none exceeds 1),
    where one exists."""
    from elliptic_loops import structure

    params = LoopParams(ring, a, b)
    rng = random.Random(seed)
    pool = diagnostics._point_pool(params, rng)
    triples = list(islice(diagnostics._picks(pool, 3)(rng), 2000))
    triple_columns = []
    real_rank = diagnostics.coarse_rank

    def spy(r, columns):
        if len(columns) == 3:
            triple_columns.append(tuple(columns))
        return real_rank(r, columns)

    monkeypatch.setattr(diagnostics, "coarse_rank", spy)
    (rep,) = diagnostics.structure_suite(params, seed=seed)
    assert rep.holds and rep.checked == 2000
    assert triple_columns == [tuple(structure.point_column(params, pt) for pt in t)
                              for t in triples]
    ranks = [matrix_rank(params, t) for t in triples]
    low = [k for k in range(1, 2001) if ranks[k - 1] < 2]
    planted = next(((k, off) for k in low if k >= 40
                    and all(triples[j - 1][1:] != triples[k - 1][1:] for j in low if j < k)
                    for off in pool
                    if matrix_rank(params, [triples[k - 1][0], off]) > ranks[k - 1]), None)
    if planted is None:
        return
    k, off = planted
    p1, p2, p3 = triples[k - 1]
    real_add = diagnostics.add
    monkeypatch.setattr(diagnostics, "add",
                        lambda params, u, v: off if (u, v) == (p2, p3) else real_add(params, u, v))
    (rep,) = diagnostics.structure_suite(params, seed=seed)
    assert not rep.holds and rep.checked == k
    assert rep.counterexample == {"points": diagnostics._encode_points(params, triples[k - 1])}
    q1, q2, q3 = _decode(params, rep.counterexample["points"])
    assert matrix_rank(params, [q1, off]) > matrix_rank(params, [q1, q2, q3])


def test_random_loop_point_lands_on_loop():
    params = params_for(5, 4, 2, 1)
    rng = random.Random(0)
    from elliptic_loops import membership

    for _ in range(50):
        assert membership(params, random_loop_point(params, rng))


# ---------------------------------------------------------------------------
# failure paths: each check names its counterexample
# ---------------------------------------------------------------------------


def test_a_failing_fiber_probe_carries_its_multiplier_and_replays(monkeypatch):
    params = params_for(5, 2, 2, 1)
    pts, law = params.loop_points(), "multiple-of-fiber-sum"
    *slots, k = diagnostics._fiber_probes(params, diagnostics.FIBER_LAYOUTS[law], (1, 5))[0]
    target, holds = [pts[c] for c in slots], diagnostics._law_holds

    def one_bad_probe(ops, name, *case):  # the case as indices (the suite) or points (replay)
        on = [pts[c] if isinstance(c, int) else c for c in case[:-1]]
        return holds(ops, name, *case) and not (name == law and [*on, case[-1]] == [*target, k])

    monkeypatch.setattr(diagnostics, "_law_holds", one_bad_probe)
    rep = {r.law: r for r in low_nilpotency_suite(params, budget=400_000, seed=0)}[law]
    assert not rep.holds and rep.exhaustive
    assert rep.counterexample["multiplier"] == k
    assert _decode(params, rep.counterexample["points"]) == target
    assert replay(params, rep) is True


def test_a_point_on_several_layers_names_them(monkeypatch):
    from elliptic_loops import layers

    params = params_for(5, 2, 2, 1)
    monkeypatch.setattr(layers, "layer_membership", lambda layer, pt: True)
    (rep,) = verify_instance(params, "stratification", budget=1_000, seed=0)
    ring = params.ring
    assert not rep.holds and rep.exhaustive  # the first affine point already fails
    assert rep.counterexample["layers"] == [ring.payload_to_json(t) for t in ring.ideal_elements()]
    (pt,) = _decode(params, rep.counterexample["points"])
    assert params.project(pt) != params.project(identity(params))


def test_a_non_additive_pair_at_infinity_is_named(monkeypatch):
    # at e = 3 and budget 1,000 the probes' sums are made with add: a negated sum
    # has coordinates -(a + b), not a + b
    params = params_for(5, 3, 2, 1)
    real = diagnostics.add
    monkeypatch.setattr(diagnostics, "add", lambda params, a, b: neg(params, real(params, a, b)))
    reports = {r.law: r for r in infinity_suite(params, budget=1_000, seed=0)}
    rep = reports["infinity-coordinates-additive"]
    assert not rep.holds and rep.exhaustive
    a, b = _decode(params, rep.counterexample["points"])
    s = real(params, a, b)
    ring = params.ring
    assert (s.x, s.z) == (ring.add(a.x, b.x), ring.add(a.z, b.z))  # the true sum is additive
    assert neg(params, s) != s


def test_the_layer_isomorphism_skip_names_its_price(monkeypatch):
    """The isomorphism needs each layer's table: its SKIP names the table's price
    against the budget or the samples it replaces, or the size cap it passes."""
    params = params_for(5, 2, 2, 1)  # 35-point layers, 18^2 = 324 additions a table
    iso = lambda budget: {r.law: r for r in diagnostics.layer_suite(params, budget=budget)}[
        "layer-group-isomorphism"]
    assert iso(300).detail == ("skipped: a 35-point layer table's ((n+1)/2)^2 = 324 exceeds "
                               "max(budget, 300) = 300")
    assert iso(324).status == "pass"
    monkeypatch.setattr(diagnostics, "LOOP_TABLE_MAX", 35 * 35 - 1)
    assert iso(324).detail == ("skipped: a 35-point layer table's n^2 = 1,225 exceeds "
                               "LOOP_TABLE_MAX = 1,224")


def test_e2_pair_laws_without_a_table_list_no_point(monkeypatch):
    """law_suite lists the loop only for a law that reads its points: the e = 2
    pair laws on Z/961 (1,3), 39,401 points, run on points built by index."""
    monkeypatch.setattr(LoopParams, "loop_points", None)  # listing the loop raises
    reports = law_suite(params_for(31, 2, 1, 3), ("alternative", "jordan", "latin-square"),
                        budget=1000, seed=0)
    assert [r.law for r in reports] == ["alternative", "jordan", "latin-square"]
    assert all(r.checked > 0 and "fiber pair" in r.detail for r in reports)


def test_torsion_and_forbidden_locus_skips_name_their_price(monkeypatch):
    """Both gates are :func:`diagnostics._affordable`: a SKIP names the price that
    exceeds the budget, and the check runs once the budget reaches it."""
    params = params_for(5, 2, 2, 1)  # |L| = 175
    skipped = VERIFY_SUITES["torsion"](params, budget=174)
    assert {r.detail for r in skipped} == {"skipped: |L| = 175 exceeds budget = 174"}
    assert all(r.checked for r in VERIFY_SUITES["torsion"](params, budget=175))
    monkeypatch.setattr(diagnostics, "infinity_suite", lambda *args: [])
    params = params_for(5, 4, 2, 1)  # |m|^2 = 15,625
    (rep,) = diagnostics.infinity_structure_suite(params, budget=15_624)
    assert rep.status == "skipped"
    assert rep.detail == "skipped: |m|^2 = 15,625 exceeds max(budget, 10,000) = 15,624"
    (rep,) = diagnostics.infinity_structure_suite(params, budget=15_625)
    assert rep.status == "pass" and rep.checked == 15_625
