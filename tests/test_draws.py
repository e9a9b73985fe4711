"""Seeded draws of the sampled low-nilpotency cases.

``low_nilpotency_suite`` draws its sampled cases from bulk random bytes:
a uniform fiber digit f and uniform offsets u give the point f*s + u of
``loop_points()``, whose fibers are the index ranges of s = |m|^2 points.
These tests pin the three facts that make this exact: the digits are
uniform, the index ranges are the fibers, and every drawn case has its
points where its identity needs them.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import islice

import pytest

from elliptic_loops import LoopParams, RingConfig, identity, low_nilpotency_suite
from elliptic_loops import diagnostics
from elliptic_loops.diagnostics import _digits


class _EveryByteRng:
    """Returns the bytes 0, 1, ..., 255, 0, 1, ... in order: each equally often."""

    def __init__(self):
        self.pos = 0

    def randbytes(self, n):
        out = bytes((self.pos + k) % 256 for k in range(n))
        self.pos += n
        return out


@pytest.mark.parametrize("base", [7, 25, 169])
def test_byte_digits_are_exactly_uniform(base):
    keep = 256 - 256 % base  # bytes at or above keep are rejected
    count = keep * 256       # the accepted bytes of 256 full cycles
    digits = _digits(_EveryByteRng(), base, count)
    assert len(digits) == count
    assert Counter(digits) == {d: count // base for d in range(base)}


@pytest.mark.parametrize("base", [257, 283, 2828])
def test_digits_above_a_byte_cover_the_range_and_follow_the_seed(base):
    digits = _digits(random.Random(5), base, 20_000)
    assert len(digits) == 20_000
    assert min(digits) == 0 and max(digits) == base - 1
    assert digits == _digits(random.Random(5), base, 20_000)
    assert digits != _digits(random.Random(6), base, 20_000)


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


def test_index_ranges_are_the_fibers(loop):
    params, residue = loop
    s = params.ring.ideal_size ** 2
    by_residue = {}
    for i, r in enumerate(residue):
        by_residue.setdefault(r, []).append(i)
    assert list(by_residue.values()) == [list(range(f * s, f * s + s))
                                         for f in range(params.q)]
    assert residue[0] == params.project(identity(params)).coords()


# slot layout of each sampled check: a letter names a fiber drawn for the
# case, "inf" the infinity fiber, "any" a point of any fiber
LAYOUTS = {
    "translate-by-infinity-pair": ("any", "inf", "inf"),
    "difference-across-fiber": ("a", "a", "inf", "inf"),
    "triple-in-fiber": ("a", "a", "a"),
    "fiberwise-sum-exchange": ("a", "a", "a", "b", "b", "b"),
    "multiple-of-fiber-sum": ("a", "a", "a"),  # after the multiplier
}


def test_every_drawn_case_lies_where_its_identity_needs_it(loop, monkeypatch):
    params, residue = loop
    n, q, s = len(residue), params.q, params.ring.ideal_size ** 2
    infinity = residue[0]
    drawn = {}
    real_sweep = diagnostics._sweep

    def spy(law, *args, draws=None, **kw):
        if draws is not None:
            drawn[law] = list(islice(draws(random.Random(1)), 10_000))
        return real_sweep(law, *args, draws=draws, **kw)

    monkeypatch.setattr(diagnostics, "_sweep", spy)
    low_nilpotency_suite(params, budget=1_000, seed=0)
    assert drawn.keys() == LAYOUTS.keys()

    for law, cases in drawn.items():
        if law == "multiple-of-fiber-sum":
            assert all(-2 * n <= case[0] < 2 * n for case in cases)
            cases = [case[1:] for case in cases]
        layout = LAYOUTS[law]
        fibers_hit, offsets_hit = set(), set()
        for case in cases:
            assert len(case) == len(layout)
            assert all(0 <= i < n for i in case), (law, case)
            where = {}
            for slot, i in zip(layout, case):
                if slot == "inf":
                    assert residue[i] == infinity, (law, case)
                elif slot != "any":
                    assert where.setdefault(slot, residue[i]) == residue[i], (law, case)
                fibers_hit.add(i // s)
                offsets_hit.add(i % s)
        # uniform fibers and offsets: 10,000 cases reach every one of them
        assert fibers_hit == set(range(q)), law
        assert offsets_hit == set(range(s)), law


def test_same_seed_same_draws():
    draws = diagnostics._fiber_draws(7, 25, (0, 0, 0, 1, 1, 1))
    first = [list(islice(draws(random.Random(seed)), 10_000)) for seed in (3, 3, 4)]
    assert first[0] == first[1] != first[2]
