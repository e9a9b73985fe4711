"""Ring arithmetic against independent oracles.

Integer quotients are checked against Python's own modular arithmetic
and pow-based inverses; truncated polynomials, read as coefficient lists
through ``payload_to_json``, against a naive convolution oracle; inverses
additionally against an extended-Euclid implementation local to this file.
"""

from __future__ import annotations

import math
import pickle
import random

import pytest

from elliptic_loops import NonUnit, RingConfig, RingElem
from elliptic_loops.ring import INTEGER_QUOTIENT, TRUNCATED_POLYNOMIAL

INT_RINGS = [RingConfig.integer(5, 2), RingConfig.integer(5, 3), RingConfig.integer(7, 2)]
POLY_RINGS = [RingConfig.truncated_poly(5, 2), RingConfig.truncated_poly(5, 3)]


def _ext_gcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    return old_r, old_s


def _poly_mul_oracle(ring, a, b):
    p, e = ring.p, ring.e
    out = [0] * e
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            if i + j < e:
                out[i + j] = (out[i + j] + ca * cb) % p
    return out


# ---------------------------------------------------------------------------
# integer quotients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ring", INT_RINGS, ids=repr)
def test_int_ops_match_python_modular_arithmetic(ring):
    n = ring.size
    for a in range(n):
        for b in range(n):
            assert ring.add(a, b) == (a + b) % n
            assert ring.sub(a, b) == (a - b) % n
            assert ring.mul(a, b) == (a * b) % n
        assert ring.neg(a) == (-a) % n
        assert ring.mul_int(7, a) == (7 * a) % n
        assert ring.mul_int(-3, a) == (-3 * a) % n


@pytest.mark.parametrize("ring", INT_RINGS, ids=repr)
def test_int_valuation_exhaustive(ring):
    p, e = ring.p, ring.e
    assert ring.valuation(0) == math.inf
    for a in range(1, ring.size):
        v = 0
        while a % p ** (v + 1) == 0:
            v += 1
        assert ring.valuation(a) == v
        assert ring.is_unit(a) == (v == 0)


@pytest.mark.parametrize("ring", INT_RINGS, ids=repr)
def test_int_inverse_matches_pow_and_extended_euclid(ring):
    n = ring.size
    for a in range(n):
        if ring.is_unit(a):
            inv = ring.inverse(a)
            assert inv == pow(a, -1, n)
            g, s = _ext_gcd(a, n)
            assert g == 1 and inv == s % n
            assert ring.mul(a, inv) == 1
        else:
            with pytest.raises(NonUnit):
                ring.inverse(a)


def test_int_elements_and_ideal_enumeration():
    ring = RingConfig.integer(5, 3)
    elems = list(ring.elements())
    assert elems == list(range(125))
    ideal = list(ring.ideal_elements())
    assert ideal == list(range(0, 125, 5))
    assert len(ideal) == ring.ideal_size == 25
    deeper = list(ring.ideal_elements(2))
    assert deeper == list(range(0, 125, 25))


def test_residue_ring_and_residue_map():
    ring = RingConfig.integer(5, 3)
    res = ring.residue_ring()
    assert res.kind == INTEGER_QUOTIENT and res.p == 5 and res.e == 1
    for a in range(125):
        assert ring.residue(a) == a % 5


# ---------------------------------------------------------------------------
# truncated polynomials
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ring", POLY_RINGS, ids=repr)
def test_poly_ops_match_convolution_oracle(ring):
    coeffs = ring.payload_to_json
    elems = list(ring.elements())
    assert len(elems) == ring.p ** ring.e
    for a in elems:
        ca = coeffs(a)
        for b in elems:
            cb = coeffs(b)
            assert coeffs(ring.mul(a, b)) == _poly_mul_oracle(ring, ca, cb)
            assert coeffs(ring.add(a, b)) == [(x + y) % ring.p for x, y in zip(ca, cb)]
            assert coeffs(ring.sub(a, b)) == [(x - y) % ring.p for x, y in zip(ca, cb)]


@pytest.mark.parametrize("ring", POLY_RINGS, ids=repr)
def test_poly_valuation_and_units(ring):
    for a in ring.elements():
        lead = next((i for i, c in enumerate(ring.payload_to_json(a)) if c), None)
        if lead is None:
            assert ring.valuation(a) == math.inf
            assert not ring.is_unit(a)
        else:
            assert ring.valuation(a) == lead
            assert ring.is_unit(a) == (lead == 0)


@pytest.mark.parametrize("ring", POLY_RINGS, ids=repr)
def test_poly_inverse_by_multiplication(ring):
    one = ring.one
    for a in ring.elements():
        if ring.is_unit(a):
            assert ring.mul(a, ring.inverse(a)) == one
        else:
            with pytest.raises(NonUnit):
                ring.inverse(a)


def test_poly_residue_ring_is_integer_kind():
    ring = RingConfig.truncated_poly(5, 2)
    res = ring.residue_ring()
    assert res.kind == INTEGER_QUOTIENT and res.e == 1
    assert ring.residue(ring.from_coeffs([3, 4])) == 3


def test_poly_uniformizer_is_t():
    ring = RingConfig.truncated_poly(5, 3)
    t = ring.uniformizer()
    assert ring.valuation(t) == 1
    assert ring.mul(t, t) == ring.from_coeffs([0, 0, 1])
    assert ring.mul(ring.mul(t, t), t) == ring.zero


# ---------------------------------------------------------------------------
# shared surface
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ring", INT_RINGS + POLY_RINGS, ids=repr)
def test_payload_json_round_trip(ring):
    for a in ring.elements():
        encoded = ring.payload_to_json(a)
        assert ring.payload_from_json(encoded) == a
    blob = ring.to_json()
    assert RingConfig.from_json(blob) == ring
    elems = list(ring.elements())
    assert pickle.loads(pickle.dumps((ring, elems))) == (ring, elems)


@pytest.mark.parametrize("ring", INT_RINGS + POLY_RINGS, ids=repr)
def test_random_element_respects_min_valuation(ring):
    rng = random.Random(7)
    for k in range(ring.e + 1):
        for _ in range(50):
            a = ring.random_element(rng, k)
            assert ring.valuation(a) >= k


def test_random_element_deterministic_under_seed():
    ring = RingConfig.integer(5, 3)
    first = [ring.random_element(random.Random(3), 1) for _ in range(5)]
    second = [ring.random_element(random.Random(3), 1) for _ in range(5)]
    assert first == second


def test_ring_elem_dunder_ops_match_payload_ops():
    ring = RingConfig.integer(7, 2)
    for a in range(0, 49, 5):
        for b in range(0, 49, 3):
            ea, eb = RingElem(ring, a), RingElem(ring, b)
            assert (ea + eb).val == ring.add(a, b)
            assert (ea - eb).val == ring.sub(a, b)
            assert (ea * eb).val == ring.mul(a, b)
            assert (-ea).val == ring.neg(a)
            assert (ea + 3).val == ring.add(a, 3)
            assert (5 - ea).val == ring.sub(5, a)
            assert (ea ** 3).val == pow(a, 3, 49)
    unit = RingElem(ring, 3)
    assert (unit.inverse() * unit).val == 1
    assert RingElem(ring, 14).valuation() == 1
    assert RingElem(ring, 0).is_zero()


def test_kind_constants_distinct():
    assert INTEGER_QUOTIENT != TRUNCATED_POLYNOMIAL
    assert RingConfig.integer(5, 2) != RingConfig.truncated_poly(5, 2)
