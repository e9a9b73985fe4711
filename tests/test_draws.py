"""The fiber tuples of the low-nilpotency identities, and their probes.

``low_nilpotency_suite`` decides each identity on whole tuples of fibers:
with m^2 = 0 both sides are affine in the points' offset digits, so the
base case of a tuple and one unit step per slot and digit decide every
point case over it.  A fiber is an index range of ``loop_points()``, the
point f*s + u*|m| + v at offset digits (u, v) over the fiber's first
point.  These tests pin that layout, where each probe lies, that the
probes are the base and its unit steps, that the probes decide a fiber
triple exactly as its full sweep does, that the suite evaluates every
probe of every tuple it decides, and that tuples are drawn by seed.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import islice, product

import pytest

from elliptic_loops import LoopParams, RingConfig, identity, low_nilpotency_suite
from elliptic_loops import diagnostics
from elliptic_loops.diagnostics import FIBER_LAYOUTS, NILPOTENCY_CHECKS, _fiber_probes

LOOPS = [
    (RingConfig.integer(5, 2), 2, 1),
    (RingConfig.truncated_poly(5, 2), 2, 1),
    (RingConfig.integer(263, 1), 4, 1),  # e = 1: q = 281 fibers of one point
]


@pytest.fixture(scope="module", params=LOOPS, ids=lambda loop: f"{loop[0]}")
def loop(request):
    ring, a, b = request.param
    params = LoopParams(ring, a, b)
    residue = [params.project(pt).coords() for pt in params.loop_points()]
    return params, residue


def offsets(params, first, pt):
    """The offset digits (u, v) of pt over the point ``first`` of its fiber."""
    digits = params.ring.digits
    return tuple((digits(b)[1] - digits(a)[1]) % params.ring.p
                 for a, b in ((first.x, pt.x), (first.z, pt.z)))


def test_index_ranges_are_the_fibers(loop):
    params, residue = loop
    isz = params.ring.ideal_size
    s = isz ** 2
    by_residue = {}
    for i, r in enumerate(residue):
        by_residue.setdefault(r, []).append(i)
    assert list(by_residue.values()) == [list(range(f * s, f * s + s))
                                         for f in range(params.q)]
    assert residue[0] == params.project(identity(params)).coords()
    # the unit steps of the probes: f*s + u*|m| + v sits at offset digits (u, v)
    pts = params.loop_points()
    assert all(offsets(params, pts[f * s], pts[f * s + u * isz + v]) == (u, v)
               for f in range(params.q) for u in range(isz) for v in range(isz))


# slot layout of each identity: a letter names a fiber of the tuple, "inf"
# the infinity fiber, "any" a point of any fiber
LAYOUTS = {
    "translate-by-infinity-pair": ("any", "inf", "inf"),
    "difference-across-fiber": ("a", "a", "inf", "inf"),
    "triple-in-fiber": ("a", "a", "a"),
    "fiberwise-sum-exchange": ("a", "a", "a", "b", "b", "b"),
    "multiple-of-fiber-sum": ("a", "a", "a"),  # before the multiplier
}


def test_every_drawn_case_lies_where_its_identity_needs_it(loop, monkeypatch):
    """Every probe the suite evaluates, on every tuple it decides or draws, has
    its points in the fibers its identity names; drawn tuples reach every fiber
    and every multiplier."""
    params, residue = loop
    n, q, isz = len(residue), params.q, params.ring.ideal_size
    probed, drawn, sweeping = {}, {}, []
    real_probes, real_sweep = diagnostics._fiber_probes, diagnostics._sweep

    def probes(params, layout, tup):  # the probes each law's sweep evaluates
        cases = real_probes(params, layout, tup)
        if sweeping:
            probed.setdefault(sweeping[-1], []).extend(cases)
        return cases

    def spy(law, *args, draws=None, **kw):
        drawn[law] = [tup for (tup,) in islice(draws(random.Random(1)), 10_000)]
        sweeping.append(law)
        rep = real_sweep(law, *args, draws=draws, **kw)
        sweeping.pop()
        return rep

    monkeypatch.setattr(diagnostics, "_fiber_probes", probes)
    monkeypatch.setattr(diagnostics, "_sweep", spy)
    low_nilpotency_suite(params, budget=1_000, seed=0)
    assert drawn.keys() == LAYOUTS.keys() == FIBER_LAYOUTS.keys()

    for law, layout in LAYOUTS.items():
        multiplier = law == "multiple-of-fiber-sum"
        for case in probed[law]:
            if multiplier:
                assert 0 <= case[-1] < q * isz, (law, case)
                case = case[:-1]
            assert len(case) == len(layout)
            assert all(0 <= i < n for i in case), (law, case)
            where = {}
            for slot, i in zip(layout, case):
                if slot == "inf":
                    assert residue[i] == residue[0], (law, case)
                elif slot != "any":
                    assert where.setdefault(slot, residue[i]) == residue[i], (law, case)
        # uniform tuples: 10,000 draws reach every fiber, and every multiplier
        ranges = [range(q)] * len(set(layout) - {"inf"}) + [range(q * isz)] * multiplier
        assert [set(column) for column in zip(*drawn[law])] == [set(r) for r in ranges], law


@pytest.mark.parametrize("law", NILPOTENCY_CHECKS)
def test_probes_are_the_base_and_one_unit_step_per_slot_and_digit(loop, law):
    params, _ = loop
    pts, s = params.loop_points(), params.ring.ideal_size ** 2
    layout = FIBER_LAYOUTS[law]
    rng = random.Random(5)
    tup = tuple(rng.randrange(params.q) for _ in range(max(layout)))
    if law == "multiple-of-fiber-sum":
        tup += (17,)
    base, *steps = _fiber_probes(params, layout, tup)
    rest = tup[max(layout):]
    assert base == (*((0, *tup)[c] * s for c in layout), *rest)  # every slot at (0, 0)
    moved = []
    for case in steps:
        assert case[len(layout):] == rest
        slots = [c for c in range(len(layout)) if case[c] != base[c]]
        assert len(slots) == 1, case
        (c,) = slots
        moved.append((c, offsets(params, pts[base[c]], pts[case[c]])))
    expected = [(c, d) for c in range(len(layout)) for d in ((1, 0), (0, 1))]
    assert moved == (expected if params.ring.e == 2 else [])


@pytest.mark.parametrize("ring, a, b, group", [(RingConfig.integer(5, 2), 2, 1, False),
                                               (RingConfig.truncated_poly(5, 2), 2, 1, False),
                                               (RingConfig.integer(5, 2), 4, 2, True)],
                         ids=["Z/25-2-1", "F_5[t]/(t^2)-2-1", "Z/25-4-2"])
def test_probes_decide_a_fiber_triple_as_its_full_sweep_does(ring, a, b, group):
    """Associativity fails on some fiber triples of a non-group: on 20 seeded
    triples the 7 probes give the verdict of all |m|^6 cases, both verdicts
    occur, and on a group both routes pass every triple."""
    params = LoopParams(ring, a, b)
    ops = diagnostics._ops(params, diagnostics.CayleyIndex(params, params.loop_points()))
    s, rng = ring.ideal_size ** 2, random.Random(0)
    verdicts = []
    for _ in range(20):
        tup = tuple(rng.randrange(params.q) for _ in range(3))
        by_probes = all(diagnostics._law_holds(ops, "full-associative", *case)
                        for case in _fiber_probes(params, (1, 2, 3), tup))
        by_sweep = all(diagnostics._law_holds(ops, "full-associative", *case)
                       for case in product(*(range(f * s, f * s + s) for f in tup)))
        assert by_probes == by_sweep, tup
        verdicts.append(by_probes)
    assert set(verdicts) == ({True} if group else {True, False})


@pytest.mark.parametrize("budget, exhaustive", [(120_000, 5), (1_000, 4)])
def test_the_suite_evaluates_every_probe_of_every_tuple(budget, exhaustive, monkeypatch):
    """On Z/25 (2,1) an exhaustive report evaluates the 2k + 1 probes of each of its
    fiber tuples, and counts the |m|^(2k) point cases each covers; the sampled
    multiplier identity evaluates budget // 56 tuples of 7 probes."""
    params = LoopParams(RingConfig.integer(5, 2), 2, 1)
    calls, real = Counter(), diagnostics._law_holds

    def counting(ops, law, *case):
        calls[law] += 1
        return real(ops, law, *case)

    monkeypatch.setattr(diagnostics, "_law_holds", counting)
    reports = low_nilpotency_suite(params, budget=budget, seed=0)
    tuples = [7, 7, 7, 7 ** 2, 7 * 35][:exhaustive] + [budget // 56] * (5 - exhaustive)
    probes = [7, 9, 7, 13, 7]
    assert [r.exhaustive for r in reports] == [True] * exhaustive + [False] * (5 - exhaustive)
    assert [calls[r.law] for r in reports] == [t * k for t, k in zip(tuples, probes)]
    assert [r.checked for r in reports] == [t * 25 ** len(FIBER_LAYOUTS[r.law])
                                            for t, r in zip(tuples, reports)]
    assert all(f"{calls[r.law]:,} cases decide {t:,} " in r.detail for t, r in zip(tuples, reports))


def test_same_seed_same_draws(monkeypatch):
    """A sampled run draws its tuples by seed: the same seed gives the same tuples
    and the same reports, another seed other tuples."""
    params = LoopParams(RingConfig.integer(263, 1), 4, 1)
    real_sweep = diagnostics._sweep

    def run(seed):
        drawn = []

        def spy(law, *args, first_bad=None, **kw):
            def sampled(cases):  # only the sampled route calls it: exhaust has its own
                drawn.append(list(cases))
                return first_bad(drawn[-1])
            return real_sweep(law, *args, first_bad=sampled, **kw)

        monkeypatch.setattr(diagnostics, "_sweep", spy)
        return [r.to_json() for r in low_nilpotency_suite(params, budget=1_000, seed=seed)], drawn

    (first, drawn), (again, redrawn), (_, other) = run(3), run(3), run(4)
    assert first == again and drawn == redrawn != other
    assert [r["law"] for r in first if not r["exhaustive"]] == ["fiberwise-sum-exchange",
                                                               "multiple-of-fiber-sum"]
    assert len(drawn) == 2 and all(drawn)
