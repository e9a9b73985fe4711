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

import inspect
import random
from collections import Counter
from functools import partial
from itertools import islice, product

import pytest

from elliptic_loops import LoopParams, RingConfig, add, identity, low_nilpotency_suite, replay
from elliptic_loops import diagnostics, layers
from elliptic_loops.diagnostics import FIBER_LAYOUTS, NILPOTENCY_CHECKS, _fiber_probes
from elliptic_loops.layers import (Layer, closure_blocks, closure_run, combination,
                                   layer_points, plane_zeros)
from elliptic_loops.loop_core import _eval_f, raw_add

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


def fiber_verdicts(params, layout, tup, on_probes, on_every=None):
    """The verdicts of an identity on one fiber tuple: ``on_probes`` on its probes, and
    ``on_every`` (by default the same) on every case over it; cases are indices."""
    s = params.ring.ideal_size ** 2
    every = product(*(range(f * s, f * s + s) for f in ((0, *tup)[c] for c in layout)))
    return (all(on_probes(*case) for case in _fiber_probes(params, layout, tup)),
            all((on_every or on_probes)(*case) for case in every))


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
    rng = random.Random(0)
    verdicts = []
    for _ in range(20):
        tup = tuple(rng.randrange(params.q) for _ in range(3))
        by_probes, by_sweep = fiber_verdicts(
            params, (1, 2, 3), tup, partial(diagnostics._law_holds, ops, "full-associative"))
        assert by_probes == by_sweep, tup
        verdicts.append(by_probes)
    assert set(verdicts) == ({True} if group else {True, False})


# the e = 2 loops whose every fiber pair is decided both ways; True marks a group
PAIR_LOOPS = [(RingConfig.integer(5, 2), 2, 1, False), (RingConfig.integer(5, 2), 4, 2, True),
              (RingConfig.integer(7, 2), 0, 2, True), (RingConfig.truncated_poly(5, 2), 2, 1, False)]


@pytest.fixture(scope="module", params=PAIR_LOOPS, ids=lambda loop: f"{loop[0]}-{loop[1]}-{loop[2]}")
def pair_loop(request):
    """The loop, whether it is a group, and its index table built by one ``add`` per
    unordered pair: an oracle that does not rest on the affine blocks."""
    ring, a, b, group = request.param
    params = LoopParams(ring, a, b)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(diagnostics, "_table_by_blocks", lambda *args: None)
        cayley = diagnostics.CayleyIndex(params, params.loop_points())
    return params, group, cayley


@pytest.mark.parametrize("check", ["projection-homomorphism", "latin-square", "alternative",
                                   "jordan"])
def test_probes_decide_every_fiber_pair_as_its_full_sweep_does(pair_loop, check):
    """The 5 probes of each fiber pair, on points built from the residue curve as
    the suites build them, give the verdict of all |m|^4 point pairs over it,
    read off the oracle table; alternative and jordan fail on some fiber pairs
    of a non-group and pass on others."""
    params, group, cayley = pair_loop
    s, at = params.ring.ideal_size ** 2, params.loop_point
    if check == "projection-homomorphism":
        rp, proj, res = params.residue_params, params.project, params.residue_points
        on_points = lambda a, b: add(rp, proj(a), proj(b)) == proj(add(params, a, b))
        sums = [[res.index(add(rp, f, g)) for g in res] for f in res]  # fiber f + fiber g
        on_every = lambda i, j: sums[i // s][j // s] == cayley.table[i][j] // s
    else:
        on_points = partial(diagnostics._law_holds, diagnostics._ops(params), check)
        on_every = partial(diagnostics._law_holds, diagnostics._ops(params, cayley), check)
    verdicts = set()
    for tup in product(range(params.q), repeat=2):
        by_probes, by_sweep = fiber_verdicts(params, (1, 2), tup,
                                             lambda i, j: on_points(at(i), at(j)), on_every)
        assert by_probes == by_sweep, tup
        verdicts.add(by_probes)
    assert verdicts == ({True} if group or check in ("projection-homomorphism", "latin-square")
                        else {True, False})


#: the fiber-pair loops, then e = 1 (fibers of one point) and e = 3 (one block per pair)
CLOSURE_LOOPS = [loop[:3] for loop in PAIR_LOOPS] + [(RingConfig.integer(7, 1), 0, 2),
                                                    (RingConfig.integer(5, 3), 2, 1)]


@pytest.fixture(scope="module", params=CLOSURE_LOOPS,
                ids=lambda loop: f"{loop[0]}-{loop[1]}-{loop[2]}")
def closure_params(request):
    return LoopParams(*request.param)


def zero_sets(params, zero_set) -> list:
    """[(g, its zero set)]: every layer's, H's in the plane, or that of F + X^3,
    a cubic off the pencil whose zero set is not closed."""
    ring = params.ring
    if zero_set == "layers":
        return [(combination(params, 1, ring.neg(t)), layer_points(Layer(params, t)))
                for t in ring.ideal_elements()]
    g = (combination(params, 0, 1) if zero_set == "hessian" else
         lambda x, y, z: (_eval_f(params, x, y, z) + x * x * x) % ring.mod)
    return [(g, plane_zeros(params, g))]


def closed(params, g, pairs) -> bool:
    return all(g(*raw_add(params, u.coords(), v.coords())) == 0 for u, v in pairs)


def residue_fibers(ring, zeros) -> list:
    """The oracle's fibers: the zero set grouped by residue point."""
    fibers = {}
    for pt in zeros:
        fibers.setdefault(tuple(map(ring.residue, pt.coords())), []).append(pt)
    return list(fibers.values())


def fiber_pairs(fibers):
    """Each unordered fiber pair (i, j), in block order, with all its point pairs."""
    for i, a in enumerate(fibers):
        yield i, i, [(u, v) for k, u in enumerate(a) for v in a[k:]]
        for j, b in enumerate(fibers[i + 1:], i + 1):
            yield i, j, list(product(a, b))


@pytest.mark.parametrize("zero_set", ["hessian", "layers", "off-pencil"])
def test_closure_probes_decide_every_fiber_pair_as_its_full_sweep_does(closure_params, zero_set):
    """On the zero set of H in the plane, of every layer, and of F + X^3, a cubic
    off the pencil whose zero set is not closed.  At e = 2 the at most 5 raw sums
    of each unordered fiber pair decide all its point pairs; off the pencil both
    verdicts occur, and some fiber pair passes at its base pair and fails only at
    a unit step.  At any other e every block is one unordered pair, so the run's
    verdict, first failing pair and sums are those of a direct pair sweep."""
    params = closure_params
    ring = params.ring
    sets = zero_sets(params, zero_set)
    closed_ = partial(closed, params)
    verdicts, at_a_step = set(), False
    for g, zeros in sets:
        price, blocks = closure_blocks(params, zeros)
        blocks = list(blocks)  # listed lazily, as a run consumes them
        if ring.e != 2:
            every = [(u, v) for k, u in enumerate(zeros) for v in zeros[k:]]
            assert price == len(every) == len(blocks)
            assert all(u is a and v is b for [(u, v)], (a, b) in zip(blocks, every))
            first = next((k for k, pair in enumerate(every) if not closed_(g, [pair])), None)
            bad, sums, runs = closure_run(params, [(g, blocks)])
            assert bad == (None if first is None else (0, *every[first]))
            assert sums == runs == (len(every) if first is None else first + 1)
            verdicts.add(first is None)
            continue
        fibers = residue_fibers(ring, zeros)
        assert len(blocks) == len(fibers) * (len(fibers) + 1) // 2
        assert price == sum(map(len, blocks))
        for sums, (i, j, every) in zip(blocks, fiber_pairs(fibers), strict=True):
            assert len(sums) <= 5 and set(sums) <= set(product(fibers[i], fibers[j]))
            assert closed_(g, sums) == closed_(g, every), (i, j)
            verdicts.add(closed_(g, every))
            at_a_step |= closed_(g, sums[:1]) and not closed_(g, sums)
    by_pairs = ring.e == 2 and zero_set == "off-pencil"
    assert verdicts == ({True, False} if by_pairs else {zero_set != "off-pencil"})
    assert at_a_step == by_pairs


@pytest.mark.parametrize("ring, a, b", [loop[:3] for loop in PAIR_LOOPS], ids=str)
def test_frames_decide_the_fiber_pairs_of_random_subsets_of_zero_sets(ring, a, b):
    """Random 60% subsets of every layer, of H's zero set and of F + X^3's: a
    fiber that no longer fills its frame's affine span lies in it still, so the
    frame's sums decide each fiber pair exactly as its full pair sweep does."""
    params = LoopParams(ring, a, b)
    p, rng = ring.p, random.Random(0)
    verdicts, unfilled = Counter(), 0
    for zero_set in ("layers", "hessian", "off-pencil"):
        for g, zeros in zero_sets(params, zero_set):
            cut = [pt for pt in zeros if rng.random() < 0.6]
            fibers = residue_fibers(ring, cut)
            price, blocks = closure_blocks(params, cut)
            blocks = list(blocks)
            assert price == sum(map(len, blocks))
            for sums, (i, j, every) in zip(blocks, fiber_pairs(fibers), strict=True):
                if i == j:  # a fiber with itself: its frame, each point with the base
                    unfilled += len(fibers[i]) < p ** (len(sums) - 1)
                verdicts[closed(params, g, every)] += 1
                assert closed(params, g, sums) == closed(params, g, every), (zero_set, i, j)
    assert unfilled and verdicts[True] and verdicts[False], (unfilled, verdicts)


def test_a_fiber_that_is_not_an_affine_span_is_decided_by_its_frame(monkeypatch):
    """Each layer of Z/25 (2,1) without its first point: that fiber keeps 4 of the
    5 points its frame spans, and its frame of two points still decides its 7
    fiber pairs, as every other fiber's does: 2 sums with itself, 3 with another."""
    params = LoopParams(RingConfig.integer(5, 2), 2, 1)
    q, p = params.q, params.ring.p
    real = layers.layer_points
    monkeypatch.setattr(layers, "layer_points", lambda layer: real(layer)[1:])
    rep, _ = diagnostics.hessian_combination_suite(params, budget=1_000, seed=0)
    assert rep.holds and rep.exhaustive
    n = q * p - 1
    assert rep.checked == p * n * (n + 1) // 2
    framed = 2 * q + 3 * q * (q - 1) // 2
    assert rep.detail.endswith(f": {p * framed:,} raw sums decide "
                               f"{p * q * (q + 1) // 2:,} fiber pairs")


@pytest.mark.parametrize("budget, tabled", [(1_000, False), (200_000, True)])
def test_alternative_and_jordan_fail_on_fiber_pairs_and_replay(budget, tabled, monkeypatch):
    """On the non-group Z/25 (2,1) both laws are decided on fiber pairs, over points
    or over the whole-loop table, and fail with a pair that replay confirms."""
    params = LoopParams(RingConfig.integer(5, 2), 2, 1)
    built, init = [], diagnostics.CayleyIndex.__init__
    monkeypatch.setattr(diagnostics.CayleyIndex, "__init__",
                        lambda self, params, pts: built.append(len(pts)) or init(self, params, pts))
    reports = diagnostics.law_suite(params, ("alternative", "jordan"), budget=budget, seed=0)
    assert built == ([175] if tabled else [])
    for rep in reports:
        assert not rep.holds and rep.exhaustive and rep.checked == 175 ** 2
        assert rep.detail.startswith("simplex probes: ")
        assert rep.detail.endswith(" over the index table") == tabled
        assert replay(params, rep) is True


#: an e = 2 loop whose 41^2 fiber pairs do not fit budget 1,000 (5 probes each)
WIDE = (RingConfig.integer(31, 2), 1, 3)


def sampled_pair_checks(params, seed):
    return (diagnostics.law_suite(params, ("latin-square",), budget=1_000, seed=seed)
            + diagnostics.projection_suite(params, budget=1_000, seed=seed))


def test_sampled_pair_checks_draw_seeded_fiber_pairs():
    """On Z/961 (1,3), with q = 41, latin-square (two additions a probe) draws
    1,000 // 10 fiber pairs and projection 1,000 // 5, each covering 31^4 point
    pairs."""
    params = LoopParams(*WIDE)
    assert params.q == 41
    for rep, tuples in zip(sampled_pair_checks(params, 0), (100, 200)):
        assert rep.holds and not rep.exhaustive and rep.seed == 0
        assert rep.checked == tuples * 31 ** 4
        assert rep.detail == (f"simplex probes: {5 * tuples:,} cases decide "
                              f"{tuples} seeded fiber pairs")


def test_sampled_fiber_pairs_are_drawn_by_seed(monkeypatch):
    """The same seed gives the same fiber pairs and reports, another seed other pairs."""
    params = LoopParams(*WIDE)
    real = diagnostics._fiber_probes

    def run(seed):
        probed = []
        monkeypatch.setattr(diagnostics, "_fiber_probes",
                            lambda *args: probed.append(args[2]) or real(*args))
        return [r.to_json() for r in sampled_pair_checks(params, seed)], probed

    (first, tuples), (again, retuples), (_, other) = run(0), run(0), run(1)
    assert first == again and tuples == retuples != other
    assert len(tuples) == 1 + 100 + 1 + 200  # each sweep first sizes its probes


@pytest.mark.parametrize("law", ["alternative", "jordan"])
def test_a_sampled_pair_law_fails_on_a_fiber_pair_and_replays(law):
    params = LoopParams(*WIDE)
    (rep,) = diagnostics.law_suite(params, (law,), budget=1_000, seed=0)
    assert not rep.holds and not rep.exhaustive
    tuples = rep.checked // 31 ** 4
    assert rep.checked == tuples * 31 ** 4
    assert rep.detail.endswith(f" {tuples:,} seeded fiber pair" + "s" * (tuples > 1))
    assert replay(params, rep) is True


def test_a_sampled_closure_builds_no_block(monkeypatch):
    """On Z/169 (0,3) at budget 1,000 both closures sample: the 13 layers and the zero
    set of H are priced from their frames, no block is listed, and the reports are
    those of a build that lists every block before pricing."""
    params = LoopParams(RingConfig.integer(13, 2), 0, 3)
    lazy, real = [], layers.closure_blocks

    def spy(params, zeros):
        price, blocks = real(params, zeros)
        lazy.append(blocks)
        return price, blocks

    monkeypatch.setattr(layers, "closure_blocks", spy)
    reports = diagnostics.hessian_combination_suite(params, budget=1_000, seed=0)
    assert len(lazy) == 13 + 1
    assert all(inspect.getgeneratorstate(blocks) == inspect.GEN_CREATED for blocks in lazy)
    assert [r.to_json() for r in reports] == [
        {"law": "combination-closure-layers", "status": "pass", "holds": True,
         "counterexample": None, "checked": 247, "exhaustive": False, "seed": 0,
         "detail": "(F - t*H)(P1 + P2) = 0 on raw sums, every t"},
        {"law": "combination-closure-hessian", "status": "pass", "holds": True,
         "counterexample": None, "checked": 19, "exhaustive": False, "seed": 0,
         "detail": "zero set of H (975 of 30927 plane points) closed under raw sums"}]


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
