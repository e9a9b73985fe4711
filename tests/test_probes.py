"""The simplex probes of a fiber tuple, at every e.

``_fiber_probes`` puts each slot of a k-slot fiber tuple at the offsets of
the simplex of degree e - 1: over Z/p^e every offset vector of at most
e - 1 in all, over F_p[t]/(t^e) every vector of base-p digits whose
weights (digit i weighs i + 1) sum to at most e - 1.  These tests pin that
set and its order, that its verdict is a full sweep's on every pair of the
625-point infinity parts of Z/125 and F_5[t]/(t^3), and power-associativity's
on every point of a fiber, that a planted defect of top degree fails the
suites and the power-associativity probes, also past e = p, where a probe
set without its top degree misses it, that seeded tuples at e = 3 replay,
that every identity on loop points is decided by the probes or by
Light's test, and that the weighted probes of the technical congruences (i)
and (ii), identities modulo m^T on slots of level k, give a full sweep's
verdict and catch a planted defect of top weight that a cut simplex misses.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import product

import pytest

from elliptic_loops import (CayleyIndex, LoopParams, RingConfig, law_suite, low_nilpotency_suite,
                            replay)
from elliptic_loops import diagnostics
from elliptic_loops.diagnostics import (LAW_NAMES, NILPOTENCY_CHECKS, _fiber_probes, _law_holds,
                                        _ops, projection_suite, technical_congruences,
                                        three_torsion_suite)
from elliptic_loops.ring import INTEGER_QUOTIENT


def offset_degree(ring, n):
    """The weighted degree of the n-th offset of m: n itself over Z/p^e, and the
    weighted sum of its base-p digits over F_p[t]/(t^e)."""
    if ring.kind == INTEGER_QUOTIENT:
        return n
    return sum((i + 1) * (n // ring.p ** i % ring.p) for i in range(ring.e - 1))


def degree(ring, case):
    """The weighted degree of a probe of the infinity fiber: its slots' x and z offsets."""
    return sum(offset_degree(ring, n) for i in case for n in divmod(i, ring.ideal_size))


def simplex(ring, width):
    """Every infinity-fiber case of weighted degree at most e - 1, offset by offset."""
    top = ring.e - 1
    offsets = [n for n in range(ring.ideal_size) if offset_degree(ring, n) <= top]
    return {tuple(u * ring.ideal_size + v for u, v in zip(cs[::2], cs[1::2]))
            for cs in product(offsets, repeat=2 * width)
            if sum(offset_degree(ring, n) for n in cs) <= top}


@pytest.mark.parametrize("ring, width, count", [
    (RingConfig.integer(5, 3), 2, 15), (RingConfig.integer(5, 4), 2, 35),
    (RingConfig.integer(5, 5), 2, 70), (RingConfig.integer(5, 6), 2, 126),
    (RingConfig.integer(5, 5), 3, 210),
    (RingConfig.truncated_poly(5, 3), 2, 19), (RingConfig.truncated_poly(5, 4), 2, 59),
], ids=lambda v: str(v))
def test_probes_are_the_simplex_by_degree(ring, width, count):
    """C(2k + e - 1, e - 1) probes a k-slot tuple over Z/5^e, e > p included, and the
    weighted counts over F_5[t]/(t^e): the simplex, each case once, by degree."""
    params = LoopParams(ring, 2, 1)
    probes = _fiber_probes(params, (0,) * width, ())
    if ring.kind == INTEGER_QUOTIENT:
        assert count == math.comb(2 * width + ring.e - 1, ring.e - 1)
    assert len(probes) == len(set(probes)) == count
    assert set(probes) == simplex(ring, width)
    degrees = [degree(ring, case) for case in probes]
    assert degrees == sorted(degrees) and degrees[0] == 0 and degrees[-1] == ring.e - 1


def top_bump(ring, x):
    """A defect of top degree on a coordinate x = x0 + pi * n, n its offset: p^(e-1)
    C(n, e - 1) over Z/p^e, and over F_p[t]/(t^e) t^(e-1) times n's digit of weight
    e - 1, which is x's coefficient of t^(e-1)."""
    e, p = ring.e, ring.p
    if ring.kind == INTEGER_QUOTIENT:
        return p ** (e - 1) * math.comb(x // p, e - 1) % ring.modulus
    return ring.from_coeffs([0] * (e - 1) + [x.coeffs()[e - 1]])


INFINITY_RINGS = [RingConfig.integer(5, 3), RingConfig.truncated_poly(5, 3)]


@pytest.fixture(scope="module", params=INFINITY_RINGS, ids=str)
def infinity_table(request):
    params = LoopParams(request.param, 2, 1)
    return params, CayleyIndex(params, params.infinity_points())


@pytest.mark.parametrize("check", ["alternative", "latin-square", "additive", "planted"])
def test_probes_decide_every_infinity_pair_as_its_full_sweep_does(infinity_table, check):
    """On the infinity part of Z/125 and of F_5[t]/(t^3) (2,1), the probes of the one
    fiber pair give the verdict of all 625^2 pairs, read off its index table.  The
    planted check is additivity with every sum's x moved by a defect of top degree:
    the probes fail it, and so do they without their top degree only for the
    checks that hold."""
    params, cayley = infinity_table
    ring, pts, table = params.ring, cayley.points, cayley.table
    if check in ("alternative", "latin-square"):
        holds = lambda i, j: _law_holds(_ops(params, cayley), check, i, j)
    else:
        def holds(i, j):
            a, b, s = pts[i], pts[j], pts[table[i][j]]
            x = ring.add(s.x, top_bump(ring, a.x)) if check == "planted" else s.x
            return x == ring.add(a.x, b.x) and s.z == ring.add(a.z, b.z)
    probes = _fiber_probes(params, (0, 0), ())
    assert all(i < len(pts) for case in probes for i in case)
    below_top = [case for case in probes if degree(ring, case) < ring.e - 1]
    by_probes = all(holds(*case) for case in probes)
    assert by_probes == all(holds(i, j) for i in range(len(pts)) for j in range(len(pts)))
    assert by_probes == (check != "planted")
    assert all(holds(*case) for case in below_top)


def bumped_add(real):
    """``add`` with its sum's x moved by the top-degree defect of the first summand's x."""
    def plus(params, a, b):
        s = real(params, a, b)
        return type(s)(params.ring, params.ring.add(s.x, top_bump(params.ring, a.x)), s.y, s.z)
    return plus


@pytest.mark.parametrize("ring", [RingConfig.integer(5, 3), RingConfig.truncated_poly(5, 3),
                                  RingConfig.integer(5, 6), RingConfig.truncated_poly(5, 6)],
                         ids=str)
def test_a_top_degree_defect_fails_and_a_truncated_simplex_misses_it(ring, monkeypatch):
    """latin-square, P + (Q - P) = Q, holds on every fiber pair; with ``add`` moved by
    a defect of top degree, also past e = p, its probes fail it with a pair that
    replays under the same defect, and the probes without their top degree, the
    mutation, pass it."""
    params = LoopParams(ring, 2, 1)
    (clean,) = law_suite(params, ("latin-square",), budget=10**7, seed=0)
    assert clean.holds and clean.exhaustive
    monkeypatch.setattr(diagnostics, "add", bumped_add(diagnostics.add))
    (bad,) = law_suite(params, ("latin-square",), budget=10**7, seed=0)
    assert not bad.holds and bad.exhaustive and replay(params, bad)
    real = diagnostics._simplex
    monkeypatch.setattr(diagnostics, "_simplex", lambda ring, levels, top: [
        steps for steps in real(ring, levels, top) if degree(ring, steps) < ring.e - 1])
    (missed,) = law_suite(params, ("latin-square",), budget=10**7, seed=0)
    assert missed.holds and missed.exhaustive


@pytest.mark.parametrize("ring", [RingConfig.integer(5, 3), RingConfig.truncated_poly(5, 3)],
                         ids=str)
def test_seeded_fiber_tuples_at_e3_are_drawn_by_seed_and_replay(ring, monkeypatch):
    """At budget 1,000 no (2,1) law over e = 3 affords all its tuples: the same seed
    draws the same tuples and reports, another seed other tuples, and the failing
    full-associative and moufang triples replay."""
    params = LoopParams(ring, 2, 1)
    real = diagnostics._fiber_probes

    def run(seed):
        drawn = []
        monkeypatch.setattr(diagnostics, "_fiber_probes",
                            lambda *args: drawn.append(args[2]) or real(*args))
        laws = ("full-associative", "moufang", "latin-square")
        return [r.to_json() for r in law_suite(params, laws, budget=1_000, seed=seed)], drawn

    (first, tuples), (again, retuples), (_, other) = run(3), run(3), run(4)
    assert first == again and tuples == retuples != other
    assert [(r["holds"], r["exhaustive"]) for r in first] == [(False, False), (False, False),
                                                              (True, False)]
    assert all("seeded fiber" in r["detail"] for r in first)
    for rep in first[:2]:
        assert replay(params, rep) is True


#: exponent pairs of power-associativity; with the first exponent 1 the planted
#: defect moves P + bP by a top-degree bump of P itself
POWER_PAIRS = ((1, 1), (1, -2), (1, 7), (-3, 5))


@pytest.mark.parametrize("ring", [RingConfig.integer(5, 2), RingConfig.integer(5, 3),
                                  RingConfig.integer(5, 4), RingConfig.truncated_poly(5, 3)],
                         ids=str)
def test_power_associativity_probes_decide_a_fiber_as_its_full_sweep_does(ring, monkeypatch):
    """For each exponent pair, the probes of one affine fiber give the verdict of all
    |m|^2 points of it: clean, where both hold, and with ``add`` moved by a defect
    of top degree, where both fail for the pairs that bump P itself; the probes
    without their top degree, the mutation, miss that defect."""
    params = LoopParams(ring, 2, 1)
    fiber, top = params.fiber(1), ring.e - 1

    def verdicts(pairs, kept=None):  # (by the probes, by the full sweep) per pair
        holds = partial(_law_holds, _ops(params), "power-associative")
        out = []
        for a, b in pairs:  # the probes come in the order of _simplex's steps
            probes = _fiber_probes(params, (1,), (1, a, b))
            probes = probes if kept is None else [c for c, k in zip(probes, kept) if k]
            out.append((all(holds(params.loop_point(i), a, b) for i, _, _ in probes),
                        all(holds(pt, a, b) for pt in fiber)))
        return out

    assert verdicts(POWER_PAIRS) == [(True, True)] * len(POWER_PAIRS)
    monkeypatch.setattr(diagnostics, "add", bumped_add(diagnostics.add))
    planted = verdicts(POWER_PAIRS)
    assert all(by_probes == by_sweep for by_probes, by_sweep in planted)
    assert planted[:3] == [(False, False)] * 3
    below_top = [degree(ring, steps) < top for steps in diagnostics._simplex(ring, (1,), top)]
    assert [by_probes for by_probes, _ in verdicts(POWER_PAIRS[:3], below_top)] == [True] * 3


@pytest.mark.parametrize("budget", [1, 1_000, 200_000])
@pytest.mark.parametrize("ring, a, b", [(RingConfig.integer(13, 1), 0, 6),
                                        (RingConfig.integer(5, 2), 2, 1),
                                        (RingConfig.integer(5, 3), 2, 1)], ids=str)
def test_every_identity_on_loop_points_is_decided_by_the_probes_or_light_test(ring, a, b, budget):
    """Every law and low-nilpotency identity, at e = 1, 2 and 3 and at any budget,
    names its route: the simplex probes of fiber tuples, or Light's test over the
    whole loop's table, so none can fall back to a private sampler; so are the
    projection homomorphism and the Hessian's detection of the residue 3-torsion."""
    params = LoopParams(ring, a, b)
    reports = law_suite(params, budget=budget, seed=0)
    if ring.e <= 2:
        reports += low_nilpotency_suite(params, budget=budget, seed=0)
    reports += [*projection_suite(params, budget, 0), *three_torsion_suite(params, budget, 0)]
    congruences = technical_congruences(params, budget, 0, ("i", "ii"))
    assert [r.law for r in reports + congruences] == (
        list(LAW_NAMES) + list(NILPOTENCY_CHECKS) * (ring.e <= 2)
        + ["projection-homomorphism", "three-torsion-hessian", "congruence-i", "congruence-ii"])
    routes = ("simplex probes: ", "Light's test", "implied by associativity, Light's test")
    assert all(r.detail.startswith(routes) for r in reports + congruences), [
        r.detail for r in reports + congruences]
    assert all(r.exhaustive and r.seed is None for r in congruences)  # one tuple per level


def planted_add(real):
    """``add`` with its sum's x moved by x1 z1, the product of the first summand's
    coordinates: of weight 2k on two points of level k, so it breaks congruence (i)
    where 2k < min(3k, e), and (ii) where k + f < min(f + 2k, e)."""
    def plus(params, a, b):
        s = real(params, a, b)
        return type(s)(params.ring, params.ring.add(s.x, params.ring.mul(a.x, a.z)), s.y, s.z)
    return plus


def congruence_levels(params, part, monkeypatch):
    """The report of congruence (i) or (ii), and for each level its number of point
    cases, the probe verdict and, where those cases are at most 20,000, the verdict
    of all of them (else None), on the condition its sweep judges."""
    real, sweeps = diagnostics._fiber_sweep, []

    def spy(params, law, layout, holds, *args, levels=None, top=None, **kw):
        sweeps.append((layout, holds, levels, top))
        return real(params, law, layout, holds, *args, levels=levels, top=top, **kw)

    monkeypatch.setattr(diagnostics, "_fiber_sweep", spy)
    (report,) = technical_congruences(params, 1_000, 0, (part,))
    monkeypatch.setattr(diagnostics, "_fiber_sweep", real)
    ring, at, verdicts = params.ring, params.loop_point, []
    isz = ring.ideal_size
    for layout, holds, levels, top in sweeps:
        probes = _fiber_probes(params, layout, (), levels, top)
        by_probes = all(holds(*map(at, case)) for case in probes)
        # a slot of level k: the infinity-fiber points at every offset index n p^(k-1)
        sides = [[at(u * isz + v) for u, v in product(range(0, isz, ring.p ** (k - 1)), repeat=2)]
                 for k in levels]
        space = math.prod(map(len, sides))
        verdicts.append((levels, space, by_probes, all(holds(*case) for case in product(*sides))
                         if space <= 20_000 else None))
    return report, verdicts


@pytest.mark.parametrize("planted", [False, True], ids=["clean", "planted"])
@pytest.mark.parametrize("part", ["i", "ii"])
@pytest.mark.parametrize("ring", [RingConfig.integer(5, 2), RingConfig.truncated_poly(5, 2),
                                  RingConfig.integer(5, 3)], ids=str)
def test_congruence_probes_decide_a_level_as_its_full_sweep_does(ring, part, planted,
                                                                 monkeypatch):
    """On every level of at most 20,000 point cases, all of them on Z/25 and
    F_5[t]/(t^2), and k = 2 (k = f = 2 for (ii)) on Z/125, the weighted probes
    give the verdict of the full sweep: clean, and with ``add`` moved by x1 z1,
    which those levels do not see modulo m^T; the report is the levels' verdict."""
    params = LoopParams(ring, 2, 1)
    if planted:
        monkeypatch.setattr(diagnostics, "add", planted_add(diagnostics.add))
    report, verdicts = congruence_levels(params, part, monkeypatch)
    swept = [(levels, by_probes, by_sweep) for levels, _, by_probes, by_sweep in verdicts
             if by_sweep is not None]
    assert [levels[0] for levels, _, _ in swept] == ([1] if ring.e == 2 else [2])
    assert all(by_probes == by_sweep for _, by_probes, by_sweep in swept)
    assert report.exhaustive and report.holds == all(v[2] for v in verdicts)
    assert report.checked == sum(space for _, space, _, _ in verdicts)
    assert report.holds == (not planted or ring.e == 2)  # Z/125 sees it at k = 1


@pytest.mark.parametrize("part, ring", [
    ("i", RingConfig.integer(5, 3)), ("i", RingConfig.truncated_poly(5, 3)),
    ("i", RingConfig.integer(5, 4)),
    ("ii", RingConfig.integer(5, 3)), ("ii", RingConfig.integer(5, 4)),
    ("ii", RingConfig.truncated_poly(5, 4)),
], ids=str)
def test_a_top_weight_defect_fails_the_congruences_and_a_cut_simplex_misses_it(part, ring,
                                                                               monkeypatch):
    """With ``add`` moved by x1 z1, of weight 2k, (i) at k = 1 and (ii) at k = f = 1
    fail on their full weighted simplex, exhaustively, with a counterexample at that
    level, and pass on the simplex cut below its top weight, the mutation."""
    params = LoopParams(ring, 2, 1)
    (clean,) = technical_congruences(params, 1_000, 0, (part,))
    assert clean.holds and clean.exhaustive
    monkeypatch.setattr(diagnostics, "add", planted_add(diagnostics.add))
    (bad,) = technical_congruences(params, 1_000, 0, (part,))
    assert not bad.holds and bad.exhaustive
    assert bad.counterexample["k"] == bad.counterexample.get("f", 1) == 1
    assert set(bad.counterexample) == ({"k", "points"} if part == "i" else
                                       {"k", "f", "deltas", "points"})
    real = diagnostics._simplex
    monkeypatch.setattr(diagnostics, "_simplex",
                        lambda ring, levels, top: real(ring, levels, top - 1))
    (missed,) = technical_congruences(params, 1_000, 0, (part,))
    assert missed.holds and missed.exhaustive
