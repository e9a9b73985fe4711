"""The exhaustive-or-sampled runner behind every diagnostics check.

The runner sweeps a check's whole case space when the space, weighted by
the cost of one case, fits the budget, or when the space holds no more
cases than would be drawn, and otherwise draws seeded cases.
An exhaustive report counts the whole space, even when it stops at a
counterexample; a sampled report counts the draws made, the failing one
included.  The regressions below are checks that used to print PASS for
work they did not do.
"""

from __future__ import annotations

from itertools import count

import pytest

from elliptic_loops import (LoopParams, NilpotencyTooHigh, RingConfig,
                            law_suite, low_nilpotency_suite, replay, verify_instance)
from elliptic_loops import diagnostics, structure
from elliptic_loops.diagnostics import NILPOTENCY_CHECKS, VERIFY_SUITES, _sweep


def params_for(p, e, a, b):
    return LoopParams(RingConfig.integer(p, e), a, b)


def _counting(rng):
    """Draws 1, 2, 3, ... (one rng call each, so seeds still matter)."""
    for k in count(1):
        rng.random()
        yield (k,)


def _first_at_least(limit):
    """first_bad failing at the first case k >= limit."""
    def first_bad(cases):
        for n, (k,) in enumerate(cases, 1):
            if k >= limit:
                return n, (k,)
    return first_bad


def _run(budget, space=None, weight=1, limit=10**9, seed=0, **kw):
    return _sweep("t", budget, seed, lambda case: {"case": list(case)}, space=space,
                  weight=weight, exhaust=lambda: _first_at_least(limit)(zip(range(space))),
                  draws=_counting, first_bad=_first_at_least(limit), **kw)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("space,weight,budget", [
    (10, 1, 10), (10, 1, 9), (10, 3, 30), (10, 3, 29), (7, 50, 350), (7, 50, 349),
])
def test_exhaustive_iff_weighted_space_fits_budget(space, weight, budget):
    report = _run(budget, space, weight)
    assert report.holds
    assert report.exhaustive == (space * weight <= budget)
    assert report.checked == (space if report.exhaustive else max(1, budget // weight))


@pytest.mark.parametrize("samples", [24, 25, 2000])
def test_a_space_no_larger_than_the_samples_is_swept(samples):
    # 25 cases of weight 50 do not fit a budget of 1,000, but drawing more
    # than 25 cases would be more work than sweeping them all
    report = _run(1000, space=25, weight=50, samples=samples)
    assert report.holds
    assert report.exhaustive == (samples >= 25)
    assert report.checked == (25 if report.exhaustive else samples)


def test_no_space_is_always_sampled():
    report = _run(10**12, None, samples=123)
    assert not report.exhaustive and report.checked == 123


def test_exhaustive_failure_counts_the_whole_space():
    report = _run(100, space=50, limit=7)
    assert not report.holds and report.exhaustive
    assert report.checked == 50
    assert report.counterexample == {"case": [7]}


def test_sampled_failure_counts_the_draws_made():
    report = _run(100, space=500, limit=7)
    assert not report.holds and not report.exhaustive
    assert report.checked == 7  # the failing draw included
    assert report.counterexample == {"case": [7]}


def test_same_seed_same_report():
    def draws(rng):
        while True:
            yield (rng.randrange(1000),)

    def first_bad(cases):
        for k, (x,) in enumerate(cases, 1):
            if x == 0:
                return k, (x,)

    runs = [_sweep("t", 5000, seed, list, draws=draws, first_bad=first_bad).to_json()
            for seed in (3, 3, 4)]
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]


@pytest.mark.parametrize("budget", [1_000, 20_000])
@pytest.mark.parametrize("inst", [(5, 2, 2, 1), (5, 3, 2, 1)], ids=["int-5-2-2-1", "int-5-3-2-1"])
def test_a_report_carries_its_seed_iff_it_drew_cases(inst, budget):
    """Of all 13 suites' reports, an exhaustive one drew nothing and a skipped one
    inspected nothing, so their seed is None; a sampled one names the seed."""
    params = params_for(*inst)
    for suite in VERIFY_SUITES:
        for rep in verify_instance(params, suite, budget=budget, seed=7):
            sampled = not rep.exhaustive and rep.status != "skipped"
            assert rep.seed == (7 if sampled else None), (suite, rep.law)


def test_sampled_law_failure_counts_its_draw():
    # the report of a failing sampled law stops at its k-th drawn fiber triple, of
    # 7 probes and 5^6 point triples: a budget of 7k reproduces it, and the k - 1
    # tuples before it all pass
    params = params_for(5, 2, 2, 1)
    (bad,) = law_suite(params, ("full-associative",), budget=1000, seed=5)
    assert not bad.holds and not bad.exhaustive and replay(params, bad)
    k = bad.checked // 5 ** 6
    assert bad.checked == k * 5 ** 6 and bad.detail.endswith(f"decide {k:,} seeded fiber tuples"
                                                             if k > 1 else "1 seeded fiber tuple")
    (again,) = law_suite(params, ("full-associative",), budget=7 * k, seed=5)
    assert again.to_json() == bad.to_json()
    if k > 1:
        (before,) = law_suite(params, ("full-associative",), budget=7 * (k - 1), seed=5)
        assert before.holds and before.checked == (k - 1) * 5 ** 6


def test_exhaustive_law_failure_counts_the_whole_space():
    params = params_for(5, 2, 2, 1)
    (report,) = law_suite(params, ("alternative",), budget=400_000, seed=0)
    assert not report.holds and report.exhaustive
    assert report.checked == params.cardinality() ** 2
    assert replay(params, report)


def test_power_associativity_draws_fiber_tuples_without_listing_the_loop(monkeypatch):
    """power-associative is decided on seeded tuples of one fiber and two exponents,
    on the C(2 + 3, 3) = 10 probes of the fiber at e = 4, points built by index:
    on a fresh Z/625 (2,1), 109,375 points, the loop is never listed."""
    params = params_for(5, 4, 2, 1)

    def unlisted(self):
        raise AssertionError("the loop was listed")

    monkeypatch.setattr(LoopParams, "loop_points", unlisted)
    drawn, real = [], diagnostics._law_holds
    monkeypatch.setattr(diagnostics, "_law_holds",
                        lambda ops, law, *case: drawn.append(case) or real(ops, law, *case))
    (report,) = law_suite(params, ("power-associative",), budget=1_000, seed=0)
    tuples = 1_000 // (10 * 32)  # 4 * max(e, 8) additions a probe
    assert report.holds and not report.exhaustive and report.seed == 0
    assert len(drawn) == 10 * tuples and report.checked == tuples * 125 ** 2
    assert report.detail == f"simplex probes: {10 * tuples} cases decide {tuples} seeded fiber tuples"
    for k in range(tuples):  # each tuple: one fiber, one pair of exponents in [-200, 200]
        cases = drawn[10 * k:10 * (k + 1)]
        assert len({params.project(pt) for pt, _, _ in cases}) == 1
        assert len({(a, b) for _, a, b in cases}) == 1
        assert all(-200 <= a <= 200 and -200 <= b <= 200 for _, a, b in cases)


def _decode(params, coords):
    dec = params.ring.payload_from_json
    return [params.point(*(dec(c) for c in xyz)) for xyz in coords]


# ---------------------------------------------------------------------------
# checks that used to pass on work they did not do
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("budget", [1_000, 2_000])
def test_stratification_checks_affine_points_at_e3(budget):
    params = params_for(5, 3, 2, 1)
    (report,) = verify_instance(params, "stratification", budget=budget, seed=0)
    assert report.holds and not report.exhaustive
    assert report.checked == budget // params.ring.ideal_size > 0


@pytest.mark.parametrize("inst,budget", [
    ((5, 3, 2, 1), 1_000), ((5, 3, 2, 1), 5_000), ((5, 2, 2, 1), 1_000), ((5, 2, 2, 1), 100),
    ((5, 3, 2, 1), 30), ((5, 2, 2, 1), 20), ((5, 3, 2, 1), 5), ((5, 2, 2, 1), 1),
])
def test_three_torsion_exhaustive_flag_matches_its_count(inst, budget):
    """One fiber per case, decided by its one probe, as the identity holds modulo
    m: the report counts the |m|^2 points of every fiber it decides, all q of
    them when they fit."""
    params = params_for(*inst)
    (report,) = verify_instance(params, "three-torsion", budget=budget, seed=0)
    assert report.holds
    assert report.exhaustive == (report.checked == params.cardinality())
    assert report.checked == min(budget, params.q) * params.ring.ideal_size ** 2


def test_three_torsion_decides_every_fiber_without_listing_the_loop(monkeypatch):
    """On a fresh Z/961 (1,3) each of the 41 fibers is decided by its one probe,
    on points built by index: the loop is never listed."""
    params = LoopParams(RingConfig.integer(31, 2), 1, 3)

    def refuse(self):
        raise AssertionError("the loop was listed")

    monkeypatch.setattr(LoopParams, "loop_points", refuse)
    (report,) = verify_instance(params, "three-torsion", budget=200_000, seed=0)
    assert report.holds and report.exhaustive and report.seed is None
    assert report.checked == params.cardinality() == 41 * 31 ** 2
    assert report.detail == "simplex probes: 41 cases decide 41 fiber tuples"


@pytest.mark.parametrize("budget", [10, 1_000, 10_000])
def test_infinity_bijection_reports_a_bad_decomposition(monkeypatch, budget):
    # 25 points at infinity: budget 10 draws 10 of them; 1,000 would draw
    # 1,000, more than the 25 it sweeps instead, and 10,000 fits all 25
    params = params_for(5, 2, 2, 1)
    real = structure.infinity_decompose
    victim = params.point(5, 1, 10)
    if budget == 10:  # the victim is the fifth point the sampled check draws
        seen = []
        monkeypatch.setattr(structure, "infinity_decompose",
                            lambda params_, pt: seen.append(pt) or real(params_, pt))
        verify_instance(params, "infinity", budget=budget, seed=0)
        victim = seen[4]

    def broken(params_, pt):
        if pt == victim:
            raise AssertionError("does not recompose")
        return real(params_, pt)

    monkeypatch.setattr(structure, "infinity_decompose", broken)
    reports = {r.law: r for r in verify_instance(params, "infinity", budget=budget, seed=0)}
    bij = reports["infinity-coordinate-bijection"]
    assert not bij.holds
    assert bij.exhaustive == (budget >= 1_000)
    assert bij.checked == (25 if bij.exhaustive else seen.index(victim) + 1)
    assert _decode(params, bij.counterexample["points"]) == [victim]


def test_infinity_bijection_reports_a_collision(monkeypatch):
    params = params_for(5, 2, 2, 1)
    monkeypatch.setattr(structure, "infinity_decompose",
                        lambda params_, pt: structure.InfDecomposition(0, 0))
    reports = {r.law: r for r in verify_instance(params, "infinity", budget=10_000, seed=0)}
    bij = reports["infinity-coordinate-bijection"]
    assert not bij.holds and bij.exhaustive and bij.checked == 25
    assert bij.counterexample["points"]


VERIFY_INSTANCES = [
    RingConfig.integer(5, 2), RingConfig.integer(5, 3), RingConfig.integer(7, 2),
    RingConfig.truncated_poly(5, 2),
]


@pytest.mark.parametrize("ring, budget", [
    *(pytest.param(ring, 1_000, id=str(ring)) for ring in VERIFY_INSTANCES),
    *(pytest.param(ring, 1, id=f"{ring}-budget1") for ring in VERIFY_INSTANCES),
])
def test_no_check_passes_on_zero_cases_without_saying_why(ring, budget):
    a, b = (0, 2) if ring.p == 7 else (2, 1)
    params = LoopParams(ring, a, b)
    for report in verify_instance(params, "all", budget=budget, seed=0):
        if report.checked == 0:
            assert any(word in report.detail
                       for word in ("skipped", "not applicable", "formula only")), report


@pytest.mark.parametrize("ring, a, b, suite, law", [
    (RingConfig.truncated_poly(5, 2), 2, 1, "infinity", "forbidden-locus"),
    (RingConfig.integer(7, 2), 0, 2, "layers", "layer-group-isomorphism"),  # q = 9
])
def test_gated_checks_say_they_do_not_apply(ring, a, b, suite, law):
    reports = {r.law: r for r in verify_instance(LoopParams(ring, a, b), suite,
                                                 budget=1_000, seed=0)}
    assert reports[law].checked == 0 and reports[law].detail.startswith("not applicable")


@pytest.mark.parametrize("suite", ["infinity", "congruences"])
def test_integer_only_checks_report_on_polynomial_rings(suite):
    def laws(ring):
        return [r.law for r in verify_instance(LoopParams(ring, 2, 1), suite,
                                               budget=1_000, seed=0)]

    poly = RingConfig.truncated_poly(5, 2)
    assert laws(poly) == laws(RingConfig.integer(5, 2))
    reports = verify_instance(LoopParams(poly, 2, 1), suite, budget=1_000, seed=0)
    skipped = [r for r in reports if r.detail == "not applicable: needs an integer quotient"]
    assert skipped and all(r.checked == 0 for r in skipped)


# ---------------------------------------------------------------------------
# one line per check at every budget, and no unbounded work inside verify
# ---------------------------------------------------------------------------


def test_verify_all_lists_the_same_checks_on_every_ring_and_budget():
    names = {
        (str(ring), budget): [r.law for r in verify_instance(LoopParams(ring, 2, 1), "all",
                                                             budget=budget, seed=0)]
        for ring in VERIFY_INSTANCES if ring.p == 5 for budget in (1, 1_000)
    }
    first = next(iter(names.values()))
    assert len(names) == 6 and len(set(first)) == len(first)
    assert all(listed == first for listed in names.values()), names


def test_hessian_check_over_the_plane_cap_is_a_named_skip():
    """P^2(Z/169) has 30,927 points, and the plane scan is priced at 40 * budget, the
    factor of the layer gate (q * |m|^3 = 15,379 passes at both budgets)."""
    params = params_for(13, 2, 0, 6)
    laws = ["combination-closure-layers", "combination-closure-hessian"]
    reports = verify_instance(params, "hessian-closure", budget=1_000, seed=0)
    assert [r.law for r in reports] == laws
    layers, hessian = reports
    assert layers.holds and layers.checked > 0
    # the 351-point zero set of H: all 61,776 unordered pairs from 360 raw sums
    assert hessian.holds and hessian.exhaustive and hessian.checked == 351 * 352 // 2
    assert hessian.detail.endswith(": 360 raw sums decide 120 fiber pairs")
    reports = verify_instance(params, "hessian-closure", budget=700, seed=0)
    assert [r.law for r in reports] == laws
    layers, hessian = reports
    assert layers.holds and layers.checked > 0
    assert hessian.status == "skipped" and hessian.checked == 0
    assert "30,927" in hessian.detail and "28,000" in hessian.detail


@pytest.mark.parametrize("budget", [1_000, 200_000])
def test_every_pair_of_a_small_e_1_layer_is_decided(budget):
    """Z/7 (0,2) is one 9-point layer: its 45 unordered pairs cost 45 raw sums,
    which fit every budget, where they used to be drawn 250 or 2,000 times."""
    layers, _ = verify_instance(params_for(7, 1, 0, 2), "hessian-closure", budget=budget)
    assert layers.holds and layers.exhaustive and layers.checked == 45


@pytest.mark.parametrize("inst, budget, draws", [
    ((13, 2, 0, 6), 1_000, 13 * 19),  # 1,001 raw sums over 13 layers, 77 each
    ((5, 3, 2, 1), 20_000, 25 * 200),  # 25 layers of 15,400 pairs, each alone in budget
])
def test_the_layers_closure_is_priced_once_over_all_layers(inst, budget, draws):
    """The raw sums of all layers together are priced against the budget, so a check
    whose layers each fit but not all together is sampled, pair_budget per layer."""
    layers, _ = verify_instance(params_for(*inst), "hessian-closure", budget=budget, seed=0)
    assert layers.holds and not layers.exhaustive and layers.checked == draws


@pytest.mark.parametrize("inst,budget,runs", [
    ((31, 2, 1, 3), 1_000, False),  # 39,401 points
    ((5, 2, 2, 1), 174, False),
    ((5, 2, 2, 1), 175, True),  # |L| = 175 one-point cases
])
def test_torsion_suite_runs_within_the_budget(inst, budget, runs):
    reports = verify_instance(params_for(*inst), "torsion", budget=budget, seed=0)
    assert [r.law for r in reports] == ["torsion-fibers", "torsion-differences",
                                        "torsion-lines"]
    assert all(r.holds for r in reports)
    if runs:
        assert all(r.checked == 7 and r.exhaustive for r in reports)  # q = 7 fibers
    else:
        size = params_for(*inst).cardinality()
        assert all(r.checked == 0 and r.detail == f"skipped: |L| = {size:,} exceeds budget"
                   f" = {budget:,}" for r in reports)


def test_low_nilpotency_over_the_table_cap_runs_inside_verify(capsys, monkeypatch):
    """Above LOOP_TABLE_MAX the five identities are decided on the probes of fiber
    tuples, points built by index, with no table: on Z/961 (1,3) (39,401 points)
    and on Z/101^2 (1,1) (1,071,105 points), where verify prints no SKIP."""
    from elliptic_loops.cli import run

    built = []
    monkeypatch.setattr(diagnostics.CayleyIndex, "__init__",
                        lambda self, params, pts: built.append(len(pts)))
    for inst in ((31, 2, 1, 3), (101, 2, 1, 1)):
        reports = low_nilpotency_suite(params_for(*inst), budget=1_000, seed=0)
        assert [r.law for r in reports] == list(NILPOTENCY_CHECKS)
        assert all(r.holds and r.checked and r.detail.startswith("simplex probes: ")
                   for r in reports)
    assert built == []
    assert run(["verify", "-p", "101", "-e", "2", "-A", "1", "-B", "1", "--suite",
                "low-nilpotency", "--budget", "1000"]) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["PASS", law] for law in NILPOTENCY_CHECKS]
    assert summary == "VERIFIED: 5 pass, 0 skip, 0 fail"


@pytest.mark.parametrize("inst, error", [
    ((5, 3, 2, 1), NilpotencyTooHigh),
])
def test_low_nilpotency_skips_say_the_suites_own_reason(inst, error):
    params = params_for(*inst)
    with pytest.raises(error) as raised:
        low_nilpotency_suite(params, budget=1_000)
    reports = verify_instance(params, "low-nilpotency", budget=1_000, seed=0)
    assert [r.law for r in reports] == list(NILPOTENCY_CHECKS)
    assert all(r.holds and r.checked == 0 and not r.exhaustive
               and r.detail == f"skipped: {raised.value}" for r in reports)


def test_additivity_past_e3_is_not_applicable_and_draws_nothing(monkeypatch):
    from elliptic_loops import diagnostics

    params = params_for(5, 4, 2, 1)
    reports = {r.law: r for r in verify_instance(params, "infinity", budget=1_000, seed=0)}
    additive = reports["infinity-coordinates-additive"]
    assert additive.holds and additive.checked == 0
    assert additive.detail == "not applicable: no theorem past e = 3"
    # the sampled bijection draws fresh points at infinity, associativity picks
    # from the enumerated part, and the additivity check draws none
    draws = []
    real = diagnostics.random_infinity_point
    monkeypatch.setattr(diagnostics, "random_infinity_point",
                        lambda *args: draws.append(args) or real(*args))
    verify_instance(params, "infinity", budget=1_000, seed=0)
    assert len(draws) == reports["infinity-coordinate-bijection"].checked
