"""Law diagnostics, non-associativity witnesses, and classification.

Every check in this module produces a :class:`LawReport`: which law or
identity was examined, whether it held, how many cases were inspected,
whether the sweep was exhaustive, the seed that drove any sampling, and
a replayable counterexample when one was found.

The headline searches live here too: explicit witness triples that break
associativity (three constructions with different preconditions), the
identities valid at nilpotency degree at most two, the infinity part's
group structure, the technical congruences for points at infinity, and the
classification of the parameter pairs whose loops are honest groups.  Every
identity on loop points (the loop laws, the projection, the infinity part's
laws and the low-nilpotency identities) is decided on whole fiber tuples, by
the simplex probes of :func:`_fiber_probes`, or over an index table by
Light's test.

Every check that can either sweep its whole case space or draw seeded
cases runs through one runner, :func:`_sweep`: it sweeps exhaustively when
the case space, weighted by the cost of one case, fits the budget or is
no larger than the sample, and otherwise draws cases with the seed.  A
check supplies its space, draws, condition and counterexample encoding.
That choice and every index table's are one rule, :func:`_affordable`.
"""

from __future__ import annotations

import math
import operator
import random
from array import array
from functools import cache, partial
from itertools import count, islice, product, starmap, takewhile

from . import loop_core
from .errors import DegenerateSum, EvenOrder, NilpotencyTooHigh, PreconditionUnmet, SingularCurve
from .loop_core import (
    LoopParams,
    _multiples,
    add,
    identity,
    neg,
    order_of,
    raw_add,
    scalar_mul,
)
from .projective import ProjPoint, count_projective, plane_triples
from .ring import INTEGER_QUOTIENT, RingConfig, _is_prime
from .structure import AssocMatrix, coarse_rank, infinity_generators, point_column

LAW_NAMES = (
    "alternative",
    "jordan",
    "moufang",
    "diassociative",
    "power-associative",
    "full-associative",
    "latin-square",
)


class LawReport:
    """Outcome of one verification run."""

    __slots__ = ("law", "holds", "counterexample", "checked", "exhaustive", "seed", "detail")

    def __init__(self, law, holds, counterexample=None, checked=0, exhaustive=False,
                 seed=None, detail=""):
        self.law = law
        self.holds = holds
        self.counterexample = counterexample
        self.checked = checked
        self.exhaustive = exhaustive
        self.seed = seed
        self.detail = detail

    @property
    def status(self) -> str:
        """The verdict: pass, fail, or skipped when the check inspected nothing (vacuously true)."""
        return "fail" if not self.holds else "pass" if self.checked else "skipped"

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "status": self.status,
            "holds": self.holds,
            "counterexample": self.counterexample,
            "checked": self.checked,
            "exhaustive": self.exhaustive,
            "seed": self.seed,
            "detail": self.detail,
        }

    def __repr__(self) -> str:
        return f"LawReport({self.to_json()!r})"


def _encode_points(params: LoopParams, pts) -> list:
    enc = params.ring.payload_to_json
    return [[enc(pt.x), enc(pt.y), enc(pt.z)] for pt in pts]


def _decode_points(params: LoopParams, coords) -> list:
    dec = params.ring.payload_from_json
    return [params.point(dec(c[0]), dec(c[1]), dec(c[2])) for c in coords]


def _point_ce(params: LoopParams, pts=None, **fixed):
    """Counterexample encoder of a case of points, or of indices into ``pts``, after ``fixed``."""
    at = pts.__getitem__ if pts else None
    return lambda case: {**fixed, "points": _encode_points(params, map(at, case) if at else case)}


def _skipped(law: str, detail: str) -> LawReport:
    """A check that inspected nothing; ``detail`` says why (``verify`` prints SKIP)."""
    return LawReport(law, True, None, 0, False, None, detail)


#: the most entries, n^2, of any index table over a loop or a layer
LOOP_TABLE_MAX = 8_000_000


def _affordable(budget, sampled=0, *, cost=0, table=0) -> bool:
    """The one rule for every exhaustive route: it runs when its ``cost`` in additions is at
    most ``max(budget, sampled)``, ``sampled`` the additions of the draws it replaces.  An
    n = ``table``-point :class:`CayleyIndex` is priced at ((n+1)/2)^2, the per-pair build's
    additions, and is never built over LOOP_TABLE_MAX entries.  At e = 2 the price is an upper
    bound: the block build makes far fewer sums.  Light's test's lookups are not counted,
    though against the block build they take a tenth of the time on a layer, a third on an
    infinity part or a byte-row loop, and twice the build on the 441-point group (7,2,0,2);
    at e = 3, at most a seventh.  Pricing each route by its own estimate is left open."""
    cost += ((table + 1) // 2) ** 2
    return table * table <= LOOP_TABLE_MAX and cost <= max(budget, sampled)


def _sweep(law, budget, seed, encode, *, space=None, weight=1, exhaust=None, draws=None,
           first_bad=None, samples=None, rng=None, cost=None) -> LawReport:
    """Run one check over its whole case space if that fits the budget, else on draws.

    Exhaustive iff, by :func:`_affordable`, ``space * weight <= budget`` or
    ``space <= samples`` so that no more cases are drawn than the space holds
    (``space`` counts the cases, None if there is no exhaustive path;
    ``weight`` is the cost of one case; ``cost``, when given, prices
    ``exhaust`` instead: fewer additions for a space decided from fewer
    cases, 0 where an index table already built decides it): then ``exhaust()``
    runs and the report counts the whole space, even when it stops at a
    counterexample.  Otherwise ``first_bad`` runs on the first ``samples``
    (default ``max(1, budget // weight)``) of ``draws(rng)``, an endless
    generator, and the report counts the draws made, the failing one
    included.  ``first_bad`` and ``exhaust`` return ``(k, case)`` for the
    k-th failing case (``exhaust`` may give any k), or None; ``encode(case)``
    is the counterexample.  ``rng`` is the stream the checks of one suite
    share; by default a fresh one.  The report carries ``seed`` iff it drew
    cases: an exhaustive report's seed is None.
    """
    if samples is None:
        samples = max(1, budget // weight)
    if space is not None and _affordable(budget, samples * weight,
                                         cost=space * weight if cost is None else cost):
        hit, checked, exhaustive = exhaust(), space, True
    else:
        hit = first_bad(islice(draws(rng or random.Random(seed)), samples))
        checked, exhaustive = (samples if hit is None else hit[0]), False
    return LawReport(law, hit is None, None if hit is None else encode(hit[1]),
                     checked, exhaustive, None if exhaustive else seed)


def _merge(parts, detail: str = "") -> LawReport:
    """One report for a check run as several sweeps (per layer, or in phases), with
    the seed of its sampled parts, None when every part was exhaustive."""
    bad = next((r for r in parts if not r.holds), None)
    return LawReport(parts[0].law, bad is None, bad and bad.counterexample,
                     sum(r.checked for r in parts), all(r.exhaustive for r in parts),
                     next((r.seed for r in parts if not r.exhaustive), None), detail)


def _draws(width: int, draw):
    """Endless draws of ``width`` independent values, each ``draw(rng)``."""
    def draws(rng):
        while True:
            yield tuple([draw(rng) for _ in range(width)])
    return draws


def _picks(pool, width: int):
    """Draws of ``width`` independent uniform members of ``pool``."""
    return _draws(width, lambda rng: rng.choice(pool))


def _breaker(ok):
    """The ``first_bad`` of a condition: the first ``(k, case)`` with ``ok(*case)`` false."""
    def first_bad(cases):
        for k, case in enumerate(cases, 1):
            if not ok(*case):
                return k, case
    return first_bad


def random_loop_point(params: LoopParams, rng, residues=None) -> ProjPoint:
    """A uniformly random loop point, without enumerating the loop.

    Every canonical lift of a residue-curve point lies on the loop, and
    these lifts partition it, so a random residue point plus random ideal
    offsets is uniform.  ``residues`` narrows the residue points drawn
    from (to the affine ones, say).
    """
    ring = params.ring
    if residues is None:
        residues = params.residue_points
    rpt = residues[rng.randrange(len(residues))]
    x = ring.add(ring.from_int(rpt.x), ring.random_element(rng, 1))
    z = ring.add(ring.from_int(rpt.z), ring.random_element(rng, 1))
    return ProjPoint(ring, x, ring.one, z)


def random_infinity_point(params: LoopParams, rng) -> ProjPoint:
    ring = params.ring
    return ProjPoint(ring, ring.random_element(rng, 1), ring.one, ring.random_element(rng, 1))


def _point_pool(params: LoopParams, rng):
    """The whole loop up to 200,000 points, else 4,000 seeded random draws."""
    if params.cardinality() <= 200_000:
        return params.loop_points()
    return list({random_loop_point(params, rng) for _ in range(4000)})


#: the largest table Light's test runs as byte rows: a row's entries must fit one byte each
BYTE_ROWS_MAX = 256


def _table_by_pairs(params: LoopParams, pts: list, idx: dict, mirror: list, at) -> list:
    """The index table of canonical points by one sum per unordered pair, and
    (-i) + (-j) = -(i + j) filled from it when all three negatives are in the set
    (``mirror[i]`` is the index of -points[i], or None); ``at(sum, why)`` raises
    for a sum outside.  A sum is ``add``'s own statement of the law on canonical
    points, :func:`loop_core._add_canonical`, with no ``ProjPoint`` built but for
    the error."""
    n, ring = len(pts), params.ring
    one, kernel = ring.one, loop_core._add_canonical
    table = [[None] * n for _ in range(n)]
    for i, a in enumerate(pts):
        row, ni = table[i], mirror[i]
        for j in range(i, n):
            if row[j] is not None:  # filled as the negative of an earlier sum
                continue
            b = pts[j]
            x, z = kernel(params, a.x, a.z, b.x, b.z)
            s = x, one, z
            k = idx.get(s)
            if k is None:
                k = at(ProjPoint(ring, *s), f"{a!r} + {b!r}")  # raises: the sum is outside
            row[j] = table[j][i] = k
            if None not in (ni, mirror[j], mirror[k]):  # -i + -j = -k: the law is odd in Y
                table[ni][mirror[j]] = table[mirror[j]][ni] = mirror[k]
    return table


def _table_by_blocks(params: LoopParams, pts: list, idx: dict, mirror: list):
    """The index table of canonical points at e = 2, fiber pair by fiber pair; None
    at any other e, or on any miss (a sum outside the set, or a degenerate one),
    where :func:`_table_by_pairs` names the error.
    ``mirror[i]`` is the index of -points[i], or None.

    A fiber is the set's points over one residue (x mod m, z mod m); a point
    in it is keyed by its offset digits (u, v), x = x0 + pi u and z = z0 + pi v
    (:meth:`RingConfig.digits`).  As pi^2 = 0, the law on a pair of fibers
    is exactly affine in the four offsets: N(x + pi u) T2(x + pi u)^-1 =
    N T2^-1 + pi (linear in u), the first-order formal group (Silverman,
    GTM 106, ch. IV).  So the sum of two members P0 + Q0 and the sums with
    one coordinate of P0 (or Q0) shifted by pi give the map's 2x4 matrix,
    the shifted sums taken only for a fiber of more than one point, and
    only once on a fiber paired with itself (the law is symmetric).  The
    law is odd in Y, so the same matrix serves the pair of negated fibers,
    anchored at -P0, -Q0 and -(P0 + Q0) when all three are in the set.
    Every entry is then one lookup in the target fiber's (2p)^2 slots,
    whose keys add the offset digits of both points without reduction; -1
    marks an empty slot.  A row chunk is read from the slots' tail: through
    a ``memoryview`` on sets of at most BYTE_ROWS_MAX points, where a slice
    copies nothing and every index read is a shared small int, and as a list
    slice above, where a view's reads would each allocate an int.
    At e = 1 every fiber is one point and the blocks share nothing.
    """
    ring = params.ring
    one, digits, pi = ring.one, ring.digits, ring.uniformizer()
    if ring.e != 2:
        return None
    s, w = ring.p, 2 * ring.p
    fibers, members, slots, fiber, offsets = {}, [], [], [], []
    for i, pt in enumerate(pts):
        (rx, u), (rz, v) = digits(pt.x), digits(pt.z)
        f = fibers.setdefault((rx, rz), len(members))
        if f == len(members):
            members.append([])
            slots.append([-1] * (w * w))
        members[f].append(i)
        fiber.append(f)
        offsets.append((u, v))
        ext, k = slots[f], u * w + v  # at (u, v), (u, v + p), (u + p, v) and (u + p, v + p),
        ext[k] = ext[k + s] = ext[k + s * w] = ext[k + s * w + s] = i  # so keys add unreduced
    if len(pts) <= BYTE_ROWS_MAX:  # a view's slice copies nothing, and its small ints are shared
        slots = [memoryview(array("i", ext)) for ext in slots]

    def slopes(a, b, u0, v0):  # the sum's digit steps per pi-step of a's x and of a's z
        out = []
        for x, z in ((ring.add(a.x, pi), a.z), (a.x, ring.add(a.z, pi))):
            t = add(params, ProjPoint(ring, x, one, z), b)
            out += (digits(t.x)[1] - u0, digits(t.z)[1] - v0)
        return out

    def keys(f, i, slope, base=(0, 0)):  # f's members' slot keys, from member i's
        (ui, vi), (xu, xv, zu, zv), (u0, v0) = offsets[i], slope, base
        bu, bv = u0 - xu * ui - zu * vi, v0 - xv * ui - zv * vi
        return [(bu + xu * u + zu * v) % s * w + (bv + xv * u + zv * v) % s
                for u, v in map(offsets.__getitem__, members[f])]

    def getter(ks):  # the entries at keys ks of a sequence, as a sequence (a slice for one key)
        return operator.itemgetter(*ks if len(ks) > 1 else [slice(ks[0], ks[0] + 1)])

    flat, blocks = (0, 0, 0, 0), {}
    try:
        for f, mf in enumerate(members):
            for g in range(f, len(members)):
                if (f, g) in blocks:  # filled from the negated pair of fibers
                    continue
                i, j = mf[0], members[g][0]
                t = add(params, pts[i], pts[j])
                k = idx.get((t.x, t.y, t.z))
                if k is None:
                    return None
                shape = len(mf), len(members[g])
                sa = slopes(pts[i], pts[j], *offsets[k]) if shape[0] > 1 else flat
                sb = sa if f == g else (slopes(pts[j], pts[i], *offsets[k])
                                        if shape[1] > 1 else flat)
                for a, b, c in ((i, j, k), (mirror[i], mirror[j], mirror[k])):  # a + b = c
                    if None in (a, b, c):
                        continue
                    fa, fb, ext = fiber[a], fiber[b], slots[fiber[c]]
                    # the negated pair reuses the slopes, flat ones only for one-point fibers
                    if (fa, fb) in blocks or (len(members[fa]), len(members[fb])) != shape:
                        continue
                    ka, kb = keys(fa, a, sa, offsets[c]), keys(fb, b, sb)
                    blocks[fa, fb] = ext, ka, getter(kb)  # row r of fa: ka[r] + kb[col]
                    blocks[fb, fa] = ext, kb, getter(ka)
    except DegenerateSum:
        return None

    rows = []
    for f, mf in enumerate(members):
        plan = [blocks[f, g] for g in range(len(members))]
        for r in range(len(mf)):
            row = []
            for ext, mine, get in plan:
                row += get(ext[mine[r]:])
            rows.append(row)
    if any(len(mf) < s * s for mf in members) and any(-1 in row for row in rows):
        return None  # a sum fell on an empty slot of a fiber that is not full
    order = [i for mf in members for i in mf]  # the points of the rows and of the columns
    if order == list(range(len(pts))):
        return rows
    where = sorted(range(len(order)), key=order.__getitem__)  # each point's row and column
    get = operator.itemgetter(*where)
    return [list(get(rows[c])) for c in where]


class CayleyIndex:
    """Index tables over a finite, addition-closed set of points.

    ``table[i][j]`` is the index of points[i] + points[j]; ``neg[i]`` the
    index of -points[i]; ``index`` maps a point's coordinate triple
    ``(x, y, z)`` to its index.  Built once, it turns bulk law sweeps into
    lookups, which is what makes the exhaustive checks affordable.

    Every point must be canonical, (x : 1 : z), as every loop point is; the
    first that is not raises PreconditionUnmet.  At e = 2 the table is built
    block by block, one affine map per pair of fibers from at most five sums,
    because m^2 = 0 (:func:`_table_by_blocks`).  Otherwise, or on a miss there,
    each unordered pair is added once (:func:`_table_by_pairs`, by ``add``'s
    kernel on canonical points), and as the law is odd in Y each sum i + j also
    fills -i + -j: ((n+1)/2)^2 additions on odd sets closed under negation.  A
    set that is not closed raises at its first pair, in row order, whose sum is
    outside, with the point ``add`` gives for that pair.

    Light's test on a generating set (:meth:`associative`, n^2 lookups per
    generator, run once and cached) proves associativity, or names a failing
    triple, and with commuting generators proves the Moufang identity; it
    runs as ``bytes`` rows on tables of at most ``BYTE_ROWS_MAX`` points.
    Every other law is decided on fiber tuples over the table's indices
    (:func:`law_suite`).
    """

    __slots__ = ("params", "points", "index", "table", "neg", "ident", "_cycles", "_light")

    def __init__(self, params: LoopParams, points):
        self.params = params
        self.points = pts = list(points)
        if bad := next((pt for pt in pts if pt.y != params.ring.one), None):
            raise PreconditionUnmet(f"{bad!r} is not a canonical point (x : 1 : z)")
        # tuple keys hash and compare in C, where ProjPoint keys call Python
        self.index = idx = {(pt.x, pt.y, pt.z): i for i, pt in enumerate(pts)}

        def at(pt, why):
            try:
                return idx[pt.x, pt.y, pt.z]
            except KeyError:
                raise PreconditionUnmet(f"{why} = {pt!r} is not among the points: "
                                        "the set is not closed under the loop") from None

        negs = [neg(params, pt) for pt in pts]
        mirror = [idx.get((m.x, m.y, m.z)) for m in negs]  # None: -P is outside
        table = _table_by_blocks(params, pts, idx, mirror)
        self.table = _table_by_pairs(params, pts, idx, mirror, at) if table is None else table
        self.neg = mirror if None not in mirror else [at(m, f"-{pt!r}") for m, pt in zip(negs, pts)]
        self.ident = at(identity(params), "the identity")
        self._cycles = {}
        self._light = None  # (generators, verdict) of the default Light's test

    def multiples(self, i: int) -> list:
        """Indices of [0 * points[i], 1 * points[i], ...] up to its order, cached.

        The multiples of one point form a cyclic group (power-associativity),
        walked once through the table: (k + 1) * P = k * P + P.
        """
        cyc = self._cycles.get(i)
        if cyc is None:
            table, k = self.table, i
            cyc = self._cycles[i] = [self.ident]
            while k != self.ident:
                cyc.append(k)
                k = table[k][i]
        return cyc

    def mul(self, i: int, n: int) -> int:
        """Index of n * points[i], for any integer n."""
        cyc = self.multiples(i)
        return cyc[n % len(cyc)]

    def generators(self) -> list:
        """A generating set S of the table, found greedily; never the identity.

        Each generator is the smallest index not yet reached; the reached
        set is closed under the right translations x -> x + s, s in S (the
        left-normed words of S), until it holds all n indices.  The identity
        comes last, so it is taken only in the one-point table.
        """
        table, ident = self.table, self.ident
        n = len(table)
        reached = [False] * n
        gens = []
        for g in [*range(ident), *range(ident + 1, n), ident]:
            if reached[g]:
                continue
            gens.append(g)
            reached[g] = True
            todo = [x for x in range(n) if reached[x]]  # every word so far, now also + g
            while todo:
                row = table[todo.pop()]
                for s in gens:
                    y = row[s]
                    if not reached[y]:
                        reached[y] = True
                        todo.append(y)
        return gens

    def associative(self, gens=None) -> bool:
        """Whether the table is associative, by Light's test on ``gens``.

        In any finite magma the g with (x + g) + y = x + (g + y) for all x, y
        form a closed subset, so a generating set that passes proves all n^3
        triples.  ``gens`` must generate the table; by default
        :meth:`generators` finds a set, and that set and the test's failing
        triple (:meth:`assoc_sweep`) are kept for later calls.  Costs n^2
        lookups per generator: as byte rows, one ``bytes.translate`` per
        (x, g), row g mapped through row x against row (x + g).
        """
        return self._light_test(gens) is None

    def _light_test(self, gens=None):
        """The first (x, g, y), by x and then g in ``gens``, with
        (x + g) + y != x + (g + y), or None: see :meth:`associative`."""
        if gens is None:
            if self._light is None:
                gens = self.generators()
                self._light = gens, self._light_test(gens)
            return self._light[1]
        table = self.table
        n = len(table)
        rows = maps = table
        image = lambda row, tx: [tx[c] for c in row]
        if n <= BYTE_ROWS_MAX:  # row x as a bytes.translate map, padded to 256
            rows = [bytes(r) for r in table]
            maps, image = [r + bytes(BYTE_ROWS_MAX - n) for r in rows], bytes.translate
        for x, (tx, x_map) in enumerate(zip(table, maps)):
            for g in gens:
                lhs, rhs = rows[tx[g]], image(rows[g], x_map)
                if lhs != rhs:
                    return x, g, next(y for y in range(n) if lhs[y] != rhs[y])
        return None

    def abelian(self) -> bool:
        """Whether the table is associative and symmetric.

        By :meth:`associative` and the k^2 lookups that show its generators
        commute: every index is a word in them, so they commute with all.
        """
        if not self.associative():
            return False
        t, gens = self.table, self._light[0]
        return all(t[g][h] == t[h][g] for g in gens for h in gens)

    def assoc_sweep(self):
        """A non-associative triple (i, j, c) of indices, or None.

        Both come from Light's test (:meth:`associative`): its first failing
        triple, or None when it proves the table associative.
        """
        return self._light_test()


def _table_law(cayley: CayleyIndex, proofs: list):
    """``exhaust`` by Light's test over an index table: associativity, Moufang of an
    abelian table (a commutative semigroup is Moufang) and diassociativity of an
    associative one.  Appends (generators, lookups up to a failing triple) to ``proofs``."""
    n, bad = len(cayley.table), cayley.assoc_sweep()
    gens = cayley._light[0]  # n lookups per (x, g) up to Light's failing triple
    pairs = n * len(gens) if bad is None else bad[0] * len(gens) + gens.index(bad[1]) + 1
    proofs.append((len(gens), pairs * n))
    return None if bad is None else (None, bad)


def _table_detail(proofs: list, law: str = "full-associative") -> str:
    """The detail of a report decided by Light's test (see _table_law); "" if none ran."""
    if not proofs:
        return ""
    how = {"moufang": "Light's test and commuting generators",
           "diassociative": "implied by associativity, Light's test"}.get(law, "Light's test")
    on = f" on {len(proofs)} tables" if len(proofs) > 1 else ""
    return (f"{how}{on}: {sum(g for g, _ in proofs)} generators, "
            f"{sum(k for _, k in proofs):,} lookups")


# ----------------------------------------------------------------------------
# the seven loop laws
# ----------------------------------------------------------------------------


TRIPLE_LAWS = ("full-associative", "moufang")
PAIR_LAWS = ("alternative", "jordan", "latin-square")


def _law_holds(ops, law, p, q, r=None, *more) -> bool:
    """Whether the law holds at the pair (p, q), or at the triple (p, q, r) and ``more``.

    ``ops`` is (plus, neg, mul, zero) over the elements, with ``mul(k, p)``
    the k-th multiple: points, or the indices of one :class:`CayleyIndex`
    (:func:`_ops`), so each law is stated once.
    For power-associativity q and r are the exponents; for unique
    solvability this checks that X = Q - P solves P + X = Q.  The five
    identities of :data:`NILPOTENCY_CHECKS` take their points in the slots
    of :data:`FIBER_LAYOUTS`, and multiple-of-fiber-sum its multiplier last.
    """
    plus, minus, mul, zero = ops
    if law == "alternative":
        return plus(p, plus(p, q)) == plus(plus(p, p), q)
    if law == "jordan":
        pp = plus(p, p)
        return plus(pp, plus(p, q)) == plus(p, plus(q, pp))
    if law == "diassociative":  # on the words of <p, q>, with each a + b made once
        words = list(dict.fromkeys([zero, p, q, plus(p, q), plus(p, p), plus(q, q),
                                    minus(p), minus(q), plus(p, minus(q))]))
        for a in words:
            for b in words:
                ab = plus(a, b)
                for c in words:
                    if plus(ab, c) != plus(a, plus(b, c)):
                        return False
        return True
    if law in ("full-associative", "translate-by-infinity-pair"):  # the latter: q, r at infinity
        return plus(plus(p, q), r) == plus(p, plus(q, r))
    if law == "moufang":
        return plus(plus(p, plus(q, r)), r) == plus(plus(plus(p, r), r), q)
    if law == "power-associative":
        return plus(mul(q, p), mul(r, p)) == mul(q + r, p)
    if law == "latin-square":
        return plus(p, plus(q, minus(p))) == q
    conv = lambda a, b, c: plus(plus(a, b), minus(c))  # (a + b) - c
    if law == "difference-across-fiber":  # (P + R1) - (Q + R2) = (P - Q) + (R1 - R2)
        (r2,) = more
        return conv(p, r, plus(q, r2)) == plus(plus(p, minus(q)), plus(r, minus(r2)))
    if law == "triple-in-fiber":  # (P + Q) - R = P + (Q - R)
        return conv(p, q, r) == plus(p, plus(q, minus(r)))
    if law == "fiberwise-sum-exchange":  # (P1+P2-P3) + (Q1+Q2-Q3) = (P1+Q1) + (P2+Q2) - (P3+Q3)
        q1, q2, q3 = more
        return plus(conv(p, q, r), conv(q1, q2, q3)) == conv(plus(p, q1), plus(q, q2), plus(r, q3))
    if law == "multiple-of-fiber-sum":  # k(P1 + P2 - P3) = kP1 + kP2 - kP3
        (k,) = more
        return mul(k, conv(p, q, r)) == conv(mul(k, p), mul(k, q), mul(k, r))
    raise ValueError(law)


def _ops(params: LoopParams, cayley: CayleyIndex = None):
    """The ``ops`` of :func:`_law_holds` over points, or over the indices of ``cayley``."""
    if cayley is None:
        return (*(partial(f, params) for f in (add, neg, scalar_mul)), identity(params))
    t, mul = cayley.table, cayley.mul
    return lambda a, b: t[a][b], cayley.neg.__getitem__, lambda k, i: mul(i, k), cayley.ident


def law_suite(params: LoopParams, laws=None, budget: int = 1_000_000, seed: int = 0):
    """Run the requested laws (all seven by default) and report.

    Each law takes one of two routes.  The whole loop's index table is
    built where it is :func:`_affordable` against the budget or the samples
    (at least 3 additions each), and over it Light's test (:func:`_table_law`)
    decides full-associative, moufang when abelian and diassociative when
    associative.  Every other law is decided by :func:`_fiber_sweep` on the
    probes of :func:`_fiber_probes`, over the table's indices when it is
    built and else over points built by index (:meth:`LoopParams.loop_point`):
    on fiber pairs, on fiber triples for full-associative and moufang, and
    for power-associative on one fiber and two exponents in [-200, 200],
    since for fixed exponents both of its sides are fixed multiples.  A case
    costs its additions (two for unique solvability, P + (Q - P) = Q), and
    the three pair laws over a table cost nothing.  The loop is listed only
    for the table.
    """
    if laws is None:
        laws = LAW_NAMES
    elif isinstance(laws, str):
        laws = (laws,)
    unknown = set(laws) - set(LAW_NAMES)
    if unknown:
        raise ValueError(f"unknown laws: {sorted(unknown)}; expected {LAW_NAMES}")
    n = params.cardinality()
    weights = {"diassociative": 360, "power-associative": 4 * max(params.ring.e, 8),
               "latin-square": 2}
    samples = sum(max(1, budget // weights.get(law, 1)) for law in laws)
    cayley = None
    if _affordable(budget, 3 * samples, table=n):  # capped at n <= 2,828: all points
        cayley = CayleyIndex(params, params.loop_points())
    ops, points = _ops(params, cayley), _point_ce(params, cayley and cayley.points)
    reports = []
    for law in laws:
        holds, weight = partial(_law_holds, ops, law), weights.get(law, 1)
        if cayley and (law == "full-associative" or law == "moufang" and cayley.abelian()
                       or law == "diassociative" and cayley.associative()):
            proofs = []
            bad = _table_law(cayley, proofs)
            rep = LawReport(law, bad is None, bad and points(bad[1]),
                            n ** (3 if law in TRIPLE_LAWS else 2), True, None,
                            _table_detail(proofs, law))
        else:
            layout, extra, encode = (1, 2, 3) if law in TRIPLE_LAWS else (1, 2), (), points
            if law == "power-associative":  # one point, then its two exponents
                layout, extra = (1,), (range(-200, 201),) * 2
                encode = lambda case: {**points(case[:1]), "exponents": list(case[1:])}
            rep = _fiber_sweep(params, law, layout, holds, budget, seed, encode, extra=extra,
                               weight=weight, at=None if cayley else params.loop_point,
                               cost=0 if cayley and law in PAIR_LAWS else None)
            rep.detail += " over the index table" if cayley and rep.exhaustive else ""
        reports.append(rep)
    return reports


def replay(params: LoopParams, report) -> bool:
    """Re-evaluate a report's counterexample; True when it still violates."""
    if isinstance(report, LawReport):
        report = report.to_json()
    law, ce = report["law"], report["counterexample"]
    known = LAW_NAMES + NILPOTENCY_CHECKS + ("infinity-associativity", "layer-associativity")
    if law not in known:
        raise PreconditionUnmet(f"cannot replay a {law!r} report; replay knows {', '.join(known)}")
    if ce is None:
        raise PreconditionUnmet("report carries no counterexample to replay")
    case = _decode_points(params, ce["points"]) + ce.get("exponents", [])
    if "multiplier" in ce:
        case.append(ce["multiplier"])
    law = "full-associative" if law.endswith("-associativity") else law
    return not _law_holds(_ops(params), law, *case)


# ----------------------------------------------------------------------------
# witness triples
# ----------------------------------------------------------------------------


class WitnessReport:
    """A concrete triple breaking associativity, with both association orders."""

    __slots__ = ("kind", "points", "lhs", "rhs", "rank")

    def __init__(self, kind, points, lhs, rhs, rank):
        self.kind = kind
        self.points = points
        self.lhs = lhs
        self.rhs = rhs
        self.rank = rank

    def to_json(self, params) -> dict:
        return {
            "kind": self.kind,
            "points": _encode_points(params, self.points),
            "lhs": _encode_points(params, (self.lhs,))[0],
            "rhs": _encode_points(params, (self.rhs,))[0],
            "rank": self.rank,
            "associates": False,
        }


def _finish_witness(params, kind, p1, p2, p3):
    lhs = add(params, add(params, p1, p2), p3)
    rhs = add(params, p1, add(params, p2, p3))
    if lhs == rhs:
        raise AssertionError(
            f"witness construction {kind} unexpectedly associated at {p1!r}"
        )
    rank = AssocMatrix(params, (p1, p2, p3)).rank()
    return WitnessReport(kind, (p1, p2, p3), lhs, rhs, rank)


def witness_A(params: LoopParams) -> WitnessReport:
    """(P + (p:1:p)) + (0:1:p) != P + ((p:1:p) + (0:1:p)) for affine P.

    Needs p^2 outside (p^3), i.e. nilpotency degree at least 3.
    """
    ring = params.ring
    if ring.e < 3:
        raise PreconditionUnmet(f"this witness needs e >= 3 (e = {ring.e})")
    u = ring.uniformizer()
    m1 = params.point(u, ring.one, u)
    m2 = params.point(ring.zero, ring.one, u)
    for _, rpt in params.residue_walk():  # the first affine residue point
        p1 = params.point(ring.from_int(rpt.x), ring.one, ring.from_int(rpt.z))
        return _finish_witness(params, "A", p1, m1, m2)
    raise PreconditionUnmet("no affine point available")


def witness_B(params: LoopParams, pt: ProjPoint = None) -> WitnessReport:
    """(P + (X:Y+p:1)) + (0:1:p) != P + ((X:Y+p:1) + (0:1:p)).

    P = (X:Y:1) must be affine with 3*pi(P) nonzero; needs e >= 2.
    """
    ring = params.ring
    if ring.e < 2:
        raise PreconditionUnmet(f"this witness needs e >= 2 (e = {ring.e})")
    ident = identity(params.residue_params)
    if pt is None:
        for _, rpt in params.residue_walk():
            if scalar_mul(params.residue_params, 3, rpt) == ident:
                continue
            pt = params.point(ring.from_int(rpt.x), ring.one, ring.from_int(rpt.z))
            break
        else:
            raise PreconditionUnmet(
                "every affine residue point is 3-torsion; no base point qualifies"
            )
    else:
        if not ring.is_unit(pt.z):
            raise PreconditionUnmet(f"base point {pt!r} is not affine")
        if scalar_mul(params.residue_params, 3, params.project(pt)) == ident:
            raise PreconditionUnmet(f"base point {pt!r} sits over residue 3-torsion")
    zinv = ring.inverse(pt.z)
    x_cap = ring.mul(pt.x, zinv)  # P = (X : Y : 1)
    y_cap = ring.mul(pt.y, zinv)
    p1 = params.point(x_cap, y_cap, ring.one)
    p2 = params.point(x_cap, ring.add(y_cap, ring.uniformizer()), ring.one)
    p3 = params.point(ring.zero, ring.one, ring.uniformizer())
    return _finish_witness(params, "B", p1, p2, p3)


def witness_inf(params: LoopParams) -> WitnessReport:
    """((p:1:0) + (0:1:p)) + (0:1:p) != (p:1:0) + ((0:1:p) + (0:1:p)).

    Needs p outside (p^5), i.e. nilpotency degree at least 6; below that
    the infinity part is an abelian group and no such triple exists.
    """
    ring = params.ring
    if ring.e < 6:
        raise PreconditionUnmet(f"this witness needs e >= 6 (e = {ring.e})")
    g1, g2 = infinity_generators(params)
    return _finish_witness(params, "inf", g1, g2, g2)


WITNESS_KINDS = {"A": witness_A, "B": witness_B, "inf": witness_inf}


# ----------------------------------------------------------------------------
# low-nilpotency identities (valid for e <= 2)
# ----------------------------------------------------------------------------


NILPOTENCY_CHECKS = ("translate-by-infinity-pair", "difference-across-fiber", "triple-in-fiber",
                     "fiberwise-sum-exchange", "multiple-of-fiber-sum")

#: each identity's points, slot by slot: 0 is the infinity fiber, i the i-th fiber of a tuple;
#: multiple-of-fiber-sum's tuples carry its multiplier after their one fiber
FIBER_LAYOUTS = {"translate-by-infinity-pair": (1, 0, 0), "difference-across-fiber": (1, 1, 0, 0),
                 "triple-in-fiber": (1, 1, 1), "fiberwise-sum-exchange": (1, 1, 1, 2, 2, 2),
                 "multiple-of-fiber-sum": (1, 1, 1)}


def _fiber_probes(params: LoopParams, layout, tup, levels=None, top=None) -> list:
    """The cases, as indices into ``loop_points()``, that decide an identity on a fiber tuple.

    Fiber f is the index range from f * |m|^2 on, its point f * |m|^2 +
    u * |m| + v at the u-th x offset and the v-th z offset of m (see
    :meth:`LoopParams.fiber`).  Slot c lies in the fiber ``layout[c]`` names
    (:data:`FIBER_LAYOUTS`) at level ``levels[c]`` (1 by default): offsets
    pi^k u in m^k, ``ideal_element(u, k) == ideal_element(u p^(k-1))``.  The
    tuple's entries after its fibers end every case.

    Every coordinate of a law expression on the tuple (sums, negatives, fixed
    multiples; its one inverse is of a unit, a finite geometric series) is a
    polynomial in the offsets, over Z/p^e each of weight k at level k, over
    F_p[t]/(t^e) in their base-p digits, digit i of weight k + i and below p
    as d^p = d on F_p; a monomial of weight w carries pi^w, and so does its
    term in the binomial (Mahler) basis, prod C(u_i, b_i) (K. Mahler, J.
    reine angew. Math. 199, 1958).  So an identity modulo m^T loses every
    term of weight >= T, and the probes, the vectors b of weight at most
    ``top`` = T - 1 (e - 1 by default: an exact identity), fix the rest by a
    unitriangular system: an identity modulo m^T that holds at them holds on
    all prod |m^k|^2 cases of the tuple (C(2k + e - 1, e - 1) probes for k
    slots of level 1 over Z/p^e).  The probes come by weight, so at top 0
    the base case (every slot at offset 0) is all, and at e = 2 the base is
    followed by one unit step per slot, in x (+|m|) and then z (+1).
    """
    ring = params.ring
    base, rest = [(0, *tup)[c] * ring.ideal_size ** 2 for c in layout], tup[max(layout):]
    steps = _simplex(ring, tuple(levels or [1] * len(base)), ring.e - 1 if top is None else top)
    return [(*map(operator.add, base, s), *rest) for s in steps]


@cache
def _simplex(ring: RingConfig, levels: tuple, top: int) -> tuple:
    """The slot steps of :func:`_fiber_probes`' probes on slots of ``levels``, the
    exponent vectors of weight at most ``top``, by weight."""
    isz, p = ring.ideal_size, ring.p
    # (weight, index step, cap) of each variable, one per digit, of an offset of level k
    digits = lambda k: ([(k, p ** (k - 1), top)] if ring.kind == INTEGER_QUOTIENT
                        else [(k + i, p ** (k - 1 + i), p - 1) for i in range(top - k + 1)])
    # one variable per slot, coordinate (an x step is |m| indices, a z step 1) and digit
    variables = [(c, coord * step, w, cap) for c, k in enumerate(levels) for coord in (isz, 1)
                 for w, step, cap in digits(k)]

    def vectors(k, left):  # exponents of variables[k:] of weight at most left
        if k == len(variables):
            yield ()
            return
        w, cap = variables[k][2:]
        for b in range(min(cap, left // w) + 1):
            yield from ((b, *more) for more in vectors(k + 1, left - b * w))

    by_weight = sorted(vectors(0, top), key=lambda bs: (
        sum(b * v[2] for b, v in zip(bs, variables)), [-b for b in bs]))
    return tuple(tuple(sum(b * v[1] for b, v in zip(bs, variables) if v[0] == c)
                       for c in range(len(levels))) for bs in by_weight)


def _fiber_sweep(params: LoopParams, law, layout, holds, budget, seed, encode, *, extra=(),
                 levels=None, top=None, weight=1, at=None, cost=None, rng=None) -> LawReport:
    """Decide ``law`` on whole fiber tuples through :func:`_sweep`: the one loop of
    every fiber-tuple route, at every e.

    A tuple names one fiber per fiber of ``layout``, then a value from each
    range of ``extra``.  Its cases are the probes of :func:`_fiber_probes` (on
    ``levels`` up to weight ``top``), deciding the tuple, as indices into
    ``loop_points()`` or, mapped by ``at`` (such as
    :meth:`LoopParams.loop_point`), as points, and ``holds(*case)`` judges
    one; a probe costs ``weight``.  Every tuple runs when their probes, or
    ``cost`` (0 over an index table already built), are affordable, and
    otherwise seeded tuples are drawn.  The report counts the point cases its
    tuples cover in ``checked`` and names its probes in ``detail``, as "fiber
    pairs" for the layout (1, 2).
    """
    dims, levels = [range(params.q)] * max(layout) + list(extra), levels or (1,) * len(layout)
    probe = lambda tup: _fiber_probes(params, layout, tup, levels, top)
    probes, evaluated, width = len(probe((0,) * len(dims))), 0, len(layout)
    at = at and cache(at)  # a probe point recurs in every tuple over its fiber

    def first_bad(tuples):
        nonlocal evaluated
        for k, (tup,) in enumerate(tuples, 1):
            for case in probe(tup):
                evaluated += 1
                if at is not None:
                    case = (*map(at, case[:width]), *case[width:])
                if not holds(*case):
                    return k, case

    rep = _sweep(law, budget, seed, encode, space=math.prod(map(len, dims)),
                 weight=probes * weight, exhaust=lambda: first_bad(zip(product(*dims))),
                 draws=_draws(1, lambda rng: tuple(map(rng.choice, dims))),
                 first_bad=first_bad, rng=rng, cost=cost)
    ring, tuples = params.ring, rep.checked
    rep.checked *= math.prod(ring.p ** (2 * (ring.e - k)) for k in levels)
    noun = "fiber pair" if tuple(layout) == (1, 2) else "fiber tuple"
    cases = "1 case decides" if evaluated == 1 else f"{evaluated:,} cases decide"
    rep.detail = (f"simplex probes: {cases} {tuples:,} {'' if rep.exhaustive else 'seeded '}"
                  f"{noun}{'' if tuples == 1 else 's'}")
    return rep


def low_nilpotency_suite(params: LoopParams, budget: int = 1_000_000, seed: int = 0):
    """The five identities valid when m^2 = 0, each decided exactly on whole fiber tuples.

    The probes of :func:`_fiber_probes` (at e = 2 the base case and one unit
    step per slot and digit) decide all |m|^(2k) cases of one fiber tuple.
    They are evaluated over the whole loop's index table, built whenever it
    fits LOOP_TABLE_MAX, and above that cap over points built by index
    (:meth:`LoopParams.loop_point`).  multiple-of-fiber-sum takes its
    multiplier from range(q |m|), which covers every integer, as every order
    divides q |m|.  Each identity runs through :func:`_fiber_sweep` with the
    fiber tuples as its space, weighted by the probes of one tuple (eight
    times over for the multiplier's four table walks): all tuples when that
    is affordable, else seeded ones.
    """
    ring = params.ring
    if ring.e > 2:
        raise NilpotencyTooHigh(
            f"these identities require nilpotency degree <= 2 (e = {ring.e})"
        )
    rng = random.Random(seed)
    cayley = (CayleyIndex(params, params.loop_points())  # capped, never priced
              if _affordable(math.inf, table=params.cardinality()) else None)
    ops, points = _ops(params, cayley), _point_ce(params, cayley and cayley.points)
    reports = []
    for law in NILPOTENCY_CHECKS:
        extra, encode, weight = (), points, 1
        if law == "multiple-of-fiber-sum":
            extra = (range(params.q * ring.ideal_size),)
            encode, weight = lambda case: {**points(case[:-1]), "multiplier": case[-1]}, 8
        reports.append(_fiber_sweep(params, law, FIBER_LAYOUTS[law], partial(_law_holds, ops, law),
                                    budget, seed, encode, extra=extra, weight=weight,
                                    at=None if cayley else params.loop_point, rng=rng))
    return reports


# ----------------------------------------------------------------------------
# infinity part
# ----------------------------------------------------------------------------


def infinity_suite(params: LoopParams, budget: int = 1_000_000, seed: int = 0):
    """Structure checks for the points over the residue identity.

    Covers the cardinality p^(2(e-1)), the orders and independence of the
    generating pair, the coordinate bijection, associativity (a theorem for
    e <= 5, false from e = 6 on) and additivity for e <= 3.  Both laws are
    decided on the one tuple of the infinity fiber by :func:`_fiber_sweep`,
    on the probes of :func:`_fiber_probes`, whatever the budget.
    """
    from .structure import infinity_decompose

    ring = params.ring
    expected = ring.ideal_size**2
    encode = _point_ce(params)
    enumerable = expected <= 1_000_000
    if enumerable:
        inf_pts = params.infinity_points()
        reports = [LawReport("infinity-cardinality", len(inf_pts) == expected,
                             None, len(inf_pts), True, None,
                             detail=f"|L^inf| = {len(inf_pts)}, expected {expected}")]
    else:
        inf_pts = None
        reports = [_skipped("infinity-cardinality",
                            f"skipped: too large to enumerate ({expected})")]

    if ring.kind == INTEGER_QUOTIENT:
        g1, g2 = infinity_generators(params)
        o1 = order_of(params, g1)
        o2 = order_of(params, g2)
        ok = o1 == ring.ideal_size and o2 == ring.ideal_size
        reports.append(LawReport("infinity-generator-orders", ok, None, 2, True, None,
                                 detail=f"orders {o1}, {o2}, expected {ring.ideal_size}"))
        inter = set(_multiples(params, g1, o1)) & set(_multiples(params, g2, o2))
        reports.append(LawReport("infinity-generator-independence",
                                 inter == {identity(params)}, None,
                                 o1 + o2, True, None,
                                 detail=f"|<g1> & <g2>| = {len(inter)}"))

        def undecomposable(cases, seen=None):
            """First point that does not recompose, or (given ``seen``) collides."""
            for k, (pt,) in enumerate(cases, 1):
                try:
                    d = infinity_decompose(params, pt)
                except AssertionError:
                    return k, (pt,)
                if seen is not None:
                    if (d.alpha, d.beta) in seen:
                        return k, (pt,)
                    seen.add((d.alpha, d.beta))

        rep = _sweep("infinity-coordinate-bijection", budget, seed, encode,
                     space=expected if enumerable else None, weight=50,
                     exhaust=lambda: undecomposable(zip(inf_pts), set()),
                     draws=_draws(1, lambda rng: random_infinity_point(params, rng)),
                     first_bad=undecomposable, samples=min(budget, 2000))
        rep.detail = (f"decomposition is a bijection onto [0,{ring.ideal_size})^2"
                      if rep.exhaustive else "sampled decompositions recompose")
        reports.append(rep)
    else:
        reports += [_skipped(name, "not applicable: needs an integer quotient")
                    for name in ("infinity-generator-orders", "infinity-generator-independence",
                                 "infinity-coordinate-bijection")]

    reports.append(_fiber_sweep(params, "infinity-associativity", (0, 0, 0),
                                partial(_law_holds, _ops(params), "full-associative"),
                                budget, seed, encode, at=params.loop_point))

    # coordinatewise addition (an isomorphism onto (m, +)^2 for e <= 3)
    if ring.e > 3:
        return reports + [_skipped("infinity-coordinates-additive",
                                   "not applicable: no theorem past e = 3")]

    def additive(a, b):
        s = add(params, a, b)
        return s.x == ring.add(a.x, b.x) and s.z == ring.add(a.z, b.z)

    return reports + [_fiber_sweep(params, "infinity-coordinates-additive", (0, 0), additive,
                                   budget, seed, encode, at=params.loop_point)]


# ----------------------------------------------------------------------------
# technical congruences for infinity points
# ----------------------------------------------------------------------------


def _congruent(ring, pt, x, z, k) -> bool:
    """Whether pt = (X : 1 : Z) has X = x and Z = z modulo m^k."""
    return (ring.valuation(ring.sub(pt.x, x)) >= min(k, ring.e)
            and ring.valuation(ring.sub(pt.z, z)) >= min(k, ring.e))


def technical_congruences(params: LoopParams, cases: int = 10_000, seed: int = 0,
                          parts=("i", "ii", "iv")):
    """The three infinity congruences: (i) and (ii) on weighted simplex probes, (iv) seeded.

    (i)   sums of points with coordinates in m^k are coordinatewise
          additive modulo m^(3k);
    (ii)  perturbing one summand by deltas in m^f (f >= k) moves the sum
          by the same deltas modulo m^(f+2k);
    (iv)  integer multiples are coordinatewise linear modulo
          m^(3k + v(n) - 1)  (integer quotients only).

    (i) and (ii) are identities modulo m^T, T = min(3k, e), min(f + 2k, e), on
    infinity-fiber points of level k (and the deltas' of level f), so each
    level, one tuple, is decided on its probes (:func:`_fiber_probes`) at any
    budget: every k <= f below max(2, e); f = e moves by zero, trivially.  (iv)
    draws ``cases`` seeded (k, point, n): no certified period bounds n.
    """
    ring, e = params.ring, params.ring.e
    if bad := set(parts) - {"i", "ii", "iv"}:
        raise ValueError(f"unknown parts {sorted(bad)}; expected subset of ['i', 'ii', 'iv']")
    if "iv" in parts and ring.kind != INTEGER_QUOTIENT:
        raise PreconditionUnmet("part (iv) needs an integer uniformizer")
    end, judged = max(2, e), []  # every level is below end
    levels = {"i": [((k, k), min(3 * k, e)) for k in range(1, end)],  # (slot levels, T)
              "ii": [((k, k, f), min(f + 2 * k, e)) for k in range(1, end) for f in range(k, end)]}

    def holds(T, a, b, d=None):  # (i) on (P1, P2); (ii) on (P1, P2, D): P1 moved by D's x, z
        judged.append(T)
        s = add(params, a, b)
        if d is None:
            return _congruent(ring, s, ring.add(a.x, b.x), ring.add(a.z, b.z), T)
        moved = add(params, ProjPoint(ring, ring.add(a.x, d.x), ring.one, ring.add(a.z, d.z)), b)
        return _congruent(ring, moved, ring.add(s.x, d.x), ring.add(s.z, d.z), T)

    def encode(lv, case):  # k, then for (ii) f and the deltas, D's x and z; then (P1, P2)
        pts = _encode_points(params, case)
        return {"k": lv[0], **({"f": lv[2], "deltas": pts[2][::2]} if case[2:] else {}),
                "points": pts[:2]}

    def linear(k, pt, n):  # (iv)
        bound = 3 * k + min(e, ring.valuation(ring.from_int(n))) - 1
        return _congruent(ring, scalar_mul(params, n, pt), ring.mul_int(n, pt.x),
                          ring.mul_int(n, pt.z), bound)

    def draws(rng):
        while True:
            k = rng.randrange(1, end)
            x, z = ring.random_element(rng, k), ring.random_element(rng, k)
            yield k, ProjPoint(ring, x, ring.one, z), rng.randrange(-ring.modulus, ring.modulus)

    reports = []
    for part in parts:
        judged.clear()
        if part == "iv":
            rep = _sweep("congruence-iv", cases, seed, lambda case: {
                "k": case[0], "n": case[2], "points": _encode_points(params, case[1:2])},
                draws=draws, first_bad=_breaker(linear), samples=cases)
            rep.detail = "seeded: n ranges over every integer, and no certified period bounds it"
        else:
            rep = _merge([_fiber_sweep(params, f"congruence-{part}", (0,) * len(lv),
                                       partial(holds, T), cases, seed, partial(encode, lv),
                                       levels=lv, top=T - 1, at=params.loop_point)
                          for lv, T in levels[part]])
            decide = "1 case decides" if len(judged) == 1 else f"{len(judged):,} cases decide"
            rep.detail = f"simplex probes: {decide} every level k {'<= f ' * (part == 'ii')}< {end}"
        reports.append(rep)
    return reports


# ----------------------------------------------------------------------------
# group certificates and classification
# ----------------------------------------------------------------------------


def group_certificate(params: LoopParams, budget: int = 200_000, seed: int = 0) -> dict:
    """Decide whether the loop is a group, with an explicit reason.

    Groups are certified by an isomorphism with Z/n1 x Z/n2, read off the
    whole loop's index table (at most ((n+1)/2)^2 additions, see CayleyIndex):
    each point's order is the length of its cycle of multiples there
    (:meth:`CayleyIndex.multiples`), a basis G1, G2 of orders n1, n2 with
    n1 * n2 = n is searched, and the map
    (i, j) -> i*G1 + j*G2 is checked to be a bijection, which proves that
    G1 and G2 generate the loop.  Light's test on {G1, G2}, or on the table's
    own generators without a basis (:meth:`CayleyIndex.associative`), then
    proves the loop associative, so an abelian group (the law is symmetric),
    and the bijection an isomorphism; or it names a triple that refutes it.
    An associative table without a basis would be an abelian group of rank
    above 2, which the construction rules out, so it raises AssertionError.
    Non-groups with a structured witness are certified by it.

    Past ``witness_B`` at e = 2 every affine residue point is 3-torsion, so
    E(F_p) has exponent 3, q is 3 or 9, Hasse's bound q >= p + 1 - 2 sqrt(p)
    gives p <= 13, and n = q p^2 <= 1,521: the table always fits
    ``LOOP_TABLE_MAX``: ``classify``, which asks only at e >= 2, never passes
    that cap.  Past it, which only e = 1 reaches, the triples are searched by
    :func:`_fiber_sweep` on fiber triples, at e = 1 each a triple of points
    built by index; an exhaustive search (``fiber-triple-probes``) refutes
    the loop or proves it associative, so a group (invariants not computed),
    and a seeded one refutes it (``sampled-triple``) or leaves it undetermined.
    """
    n = params.cardinality()

    def non_group(method, witness):
        return {"is_group": False, "order": n, "invariants": None, "method": method,
                "witness": witness}

    if params.ring.e >= 3:
        return non_group("affine-infinity-witness", witness_A(params).to_json(params))
    try:
        return non_group("shifted-pair-witness", witness_B(params).to_json(params))
    except PreconditionUnmet:
        pass

    if not _affordable(math.inf, table=n):  # capped, never priced: a seeded search
        rep = _fiber_sweep(params, "full-associative", (1, 2, 3),
                           partial(_law_holds, _ops(params), "full-associative"), budget, seed,
                           _point_ce(params), at=params.loop_point)
        method = "fiber-triple-probes" if rep.exhaustive else "sampled-triple"
        if not rep.holds:
            return non_group(method, rep.counterexample)
        return {"is_group": rep.exhaustive or None, "order": n, "invariants": None,
                "method": method if rep.exhaustive else "undetermined",
                "checked": rep.checked}
    pts = params.loop_points()
    cayley = CayleyIndex(params, pts)
    orders = [len(cayley.multiples(i)) for i in range(n)]
    n2 = max(orders)
    n1, g2 = n // n2, orders.index(n2)
    fits = n1 * n2 == n and n2 % n1 == 0
    candidates = [i for i, o in enumerate(orders) if o == n1] if fits else []
    basis = next(([g1, g2] for g1 in candidates if n == len(
        {cayley.table[a][b] for a in cayley.multiples(g1) for b in cayley.multiples(g2)})), None)
    bad = cayley._light_test(basis)
    if bad is not None:
        return non_group("light-test-triple", _point_ce(params, pts)(bad))
    if basis is None:
        raise AssertionError(f"the {n}-point loop is associative, yet no basis generates it")
    return {"is_group": True, "order": n, "invariants": [n1, n2],
            "method": "basis-isomorphism", "checked_pairs": n * n}


def classify_group_loops(p_max: int = 17, size_max: int = 300, seed: int = 0):
    """Classify which loops over Z/p^e (e >= 2, p^e <= size_max) are groups.

    The parameter sweep covers every curve equation over the prime field,
    i.e. coefficient pairs (A, B) in [0, p)^2 that define an elliptic
    curve of odd order, and not their lifts A + p a, B + p b.  That a lift
    is a group iff its residue pair's loop is has been checked only on five
    pairs over Z/25: (4, 2), (9, 7) and (24, 22) are groups, and (7, 1) and
    (2, 21), lifts of (2, 1), are not
    (``test_group_ness_invariant_under_coefficient_lifts``); it is not proved.
    Returns one record per loop.
    """
    records = []
    for p in filter(_is_prime, range(5, p_max + 1, 2)):
        for e in takewhile(lambda e: p ** e <= size_max, count(2)):
            ring = RingConfig.integer(p, e)
            for a, b in product(range(p), repeat=2):
                try:
                    params = LoopParams(ring, a, b)
                except (SingularCurve, EvenOrder):
                    continue
                cert = group_certificate(params, seed=seed)
                records.append({"p": p, "e": e, "A": a, "B": b, "q": params.q, **{
                    key: cert[key] for key in ("order", "is_group", "invariants", "method")}})
    return records


# ----------------------------------------------------------------------------
# cardinalities
# ----------------------------------------------------------------------------


def cardinality_report(params: LoopParams, plane_budget: int = 100_000) -> dict:
    """Counts of the loop strata, against both formulas and enumeration; the plane
    scan evaluates F on every coordinate triple of P^2(R)."""
    from .loop_core import _eval_f

    ring = params.ring
    q = params.q
    isz = ring.ideal_size
    report = {
        "p": ring.p, "e": ring.e, "q": q,
        "infinity": isz**2,
        "affine": (q - 1) * isz**2,
        "total": q * isz**2,
        "plane": count_projective(2, ring),
    }
    if q * isz**2 <= plane_budget:
        pts = params.loop_points()
        ident_res = params.project(identity(params))
        inf_count = sum(1 for pt in pts if params.project(pt) == ident_res)
        report["enumerated_total"] = len(pts)
        report["enumerated_infinity"] = inf_count
        report["enumerated_affine"] = len(pts) - inf_count
        report["formulas_match"] = (
            len(pts) == report["total"]
            and inf_count == report["infinity"]
        )
    if report["plane"] <= plane_budget:
        is_unit = ring.is_unit
        on_loop = sum(not is_unit(f) for f in starmap(partial(_eval_f, params), plane_triples(ring)))
        report["plane_scan_total"] = on_loop
        if "formulas_match" in report:
            report["formulas_match"] = report["formulas_match"] and on_loop == report["total"]
    return report


# ----------------------------------------------------------------------------
# verification suites (theorem-backed invariants, for the `verify` command)
# ----------------------------------------------------------------------------


def laws_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """The two law-level theorems: power-associativity and unique solvability."""
    return law_suite(params, ("power-associative", "latin-square"), budget, seed)


def cardinality_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    report = cardinality_report(params, plane_budget=budget)
    holds = report.get("formulas_match", True)
    detail = (f"|L| = {report['total']} = q * p^(2e-2); plane {report['plane']}"
              + ("" if "formulas_match" in report else " (formula only, too large to enumerate)"))
    return [LawReport("cardinality-formulas", holds, None,
                      report.get("enumerated_total", 0), "formulas_match" in report,
                      None, detail)]


def projection_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Reduction mod m is a loop homomorphism onto the residue curve.

    An identity modulo m, so the one probe of weight 0 (:func:`_fiber_probes`
    at top 0) decides all |m|^4 point pairs of a fiber pair: decided by
    :func:`_fiber_sweep` on points built by index (see :meth:`LoopParams.fiber`),
    all q^2 fiber pairs when they fit the budget, else seeded ones.
    """
    rp, proj = params.residue_params, params.project
    ok = lambda a, b: add(rp, proj(a), proj(b)) == proj(add(params, a, b))
    return [_fiber_sweep(params, "projection-homomorphism", (1, 2), ok, budget, seed,
                         _point_ce(params), top=0, at=params.loop_point)]


def three_torsion_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Hessian vanishing mod m detects exactly the residue 3-torsion.

    Both sides, "H(P) is a unit" and "the order of P mod m is not 1 or 3",
    depend on P mod m alone, so one probe (top 0) decides a fiber: decided on
    single fibers as :func:`projection_suite` decides fiber pairs.
    """
    from .loop_core import eval_H

    ok = lambda pt: eval_H(params, pt).is_unit() != (params.pi_order(pt) in (1, 3))
    return [_fiber_sweep(params, "three-torsion-hessian", (1,), ok, budget, seed,
                         _point_ce(params), top=0, at=params.loop_point)]


def stratification_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Affine points lie on exactly one layer each (3 not dividing q)."""
    from .layers import all_layers, layer_membership

    if params.q % 3 == 0:
        return [_skipped("stratification", f"skipped: q = {params.q} divisible by 3")]
    ring = params.ring
    layers = all_layers(params)
    affine = params.residue_points[1:]  # the residue identity is first

    def first_bad(cases):
        for k, (pt,) in enumerate(cases, 1):
            containing = [lay for lay in layers if layer_membership(lay, pt)]
            if len(containing) != 1:
                return k, (pt, containing)

    def encode(case):
        return {"points": _encode_points(params, case[:1]),
                "layers": [ring.payload_to_json(lay.t) for lay in case[1]]}

    return [_sweep("stratification", budget, seed, encode,
                   space=len(affine) * ring.ideal_size**2, weight=ring.ideal_size,
                   exhaust=lambda: first_bad((pt,) for f in range(1, params.q)
                                             for pt in params.fiber(f)),
                   draws=_draws(1, lambda rng: random_loop_point(params, rng, affine)),
                   first_bad=first_bad)]


def _layer_gate(params: LoopParams, budget: int, checks):
    """One SKIP per check if q * |m|^3 exceeds 40 * budget, else None.

    q * |m|^3 is |m| times the size of all layers together: a fixed price for
    the per-layer samples, tables and orders of the layer suites, not the cost
    of listing the layers, which :func:`layers.layer_points` lifts in about
    q * e * |m|^2 evaluations.
    """
    price = params.q * params.ring.ideal_size ** 3
    if not _affordable(40 * budget, cost=price):
        detail = f"skipped: q * |m|^3 = {price:,} exceeds 40 * budget = {40 * budget:,}"
        return [_skipped(law, detail) for law in checks]


LAYER_CHECKS = ("layer-cardinality", "layer-closure", "layer-associativity",
                "layer-infinity-generator", "layer-infinity-valuation", "layer-group-isomorphism")


def layer_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Per-layer group facts: size, closure, associativity, infinity part, isomorphism.

    One index table per layer decides closure, associativity and the isomorphism
    where it is :func:`_affordable` against the budget or its budget share's
    samples; elsewhere those sample or skip.
    """
    from .layers import Layer, layer_infinity_generator, layer_isomorphism_check, layer_points

    ring = params.ring
    if ring.kind != INTEGER_QUOTIENT:
        return [_skipped(law, "skipped: layer reports need an integer quotient")
                for law in LAYER_CHECKS]
    if skips := _layer_gate(params, budget, LAYER_CHECKS):
        return skips
    rng = random.Random(seed)
    isz = ring.ideal_size
    expected = params.q * isz
    per_layer = max(1, budget // max(1, isz))
    iso = params.q % 3 != 0 and params.q % ring.p != 0
    samples = 4 * per_layer + min(per_layer, 2000)  # additions of the samples a table replaces
    tabled = _affordable(budget, samples, table=expected)
    size_ok = gen_ok = val_ok = iso_ok = True
    closure, assoc, proofs = [], [], []
    associative = _breaker(partial(_law_holds, _ops(params), "full-associative"))
    for t in ring.ideal_elements():
        lay = Layer(params, t)
        pts = layer_points(lay)
        size_ok = size_ok and len(pts) == expected
        encode = _point_ce(params, t=ring.payload_to_json(t))
        try:
            cayley = CayleyIndex(params, pts) if tabled else None
        except PreconditionUnmet:  # not closed: a pair sweep names a sum outside, assoc samples
            cayley = None
        members = set(pts)
        closed = _breaker(lambda a, b: add(params, a, b) in members)
        closure.append(_sweep("layer-closure", per_layer, seed, encode, space=len(pts) ** 2,
                              cost=0 if tabled else None, draws=_picks(pts, 2), first_bad=closed,
                              exhaust=lambda: None if cayley else closed(product(pts, repeat=2)),
                              samples=min(per_layer, 2000), rng=rng))
        assoc.append(_sweep("layer-associativity", per_layer, seed,
                            _point_ce(params, cayley and pts, t=ring.payload_to_json(t)),
                            space=None if cayley is None else len(pts) ** 3, cost=0,
                            exhaust=lambda: _table_law(cayley, proofs),
                            draws=_picks(pts, 3), rng=rng,
                            first_bad=associative))
        if iso and tabled and iso_ok:
            iso_ok = cayley is not None and layer_isomorphism_check(lay, cayley)[0]
        gen_ok &= order_of(params, layer_infinity_generator(lay)) == isz
        # no nonzero infinity point of a layer has v(Z) <= v(X): the infinity
        # fiber comes first, the identity first in it (see LoopParams.fiber)
        val_ok &= all(ring.valuation(pt.z) > ring.valuation(pt.x) for pt in pts[1:isz])
    reports = [
        LawReport("layer-cardinality", size_ok, None, isz, True, None,
                  detail=f"each layer has q * p^(e-1) = {expected} points: one Hensel"
                         f" lift per offset in each of the q fibers"),
        _merge(closure, f"index table builds on {len(proofs)} of {isz} layers" if proofs else ""),
        _merge(assoc, _table_detail(proofs)),
        LawReport("layer-infinity-generator", gen_ok, None, isz, True, None,
                  detail=f"(p : 1 : Z_t) has order {isz} in every layer"),
        LawReport("layer-infinity-valuation", val_ok, None, isz * (isz - 1), True, None,
                  detail="nonzero layer points at infinity have v(Z) > v(X)"),
    ]
    if not iso:
        reports.append(_skipped("layer-group-isomorphism",
                                f"not applicable: q = {params.q} divisible by 3 or by p"))
    elif not tabled:
        price, most = ((expected + 1) // 2) ** 2, max(budget, samples)
        reports.append(_skipped("layer-group-isomorphism", (
            f"skipped: a {expected:,}-point layer table's ((n+1)/2)^2 = {price:,} exceeds "
            f"max(budget, {samples:,}) = {most:,}" if price > most else
            f"skipped: a {expected:,}-point layer table's n^2 = {expected ** 2:,} exceeds "
            f"LOOP_TABLE_MAX = {LOOP_TABLE_MAX:,}")))
    else:
        reports.append(LawReport("layer-group-isomorphism", iso_ok, None,
                                 isz * expected ** 2, True, None,
                                 detail=f"every layer = Z/{isz} x (residue curve)"))
    return reports


def hessian_combination_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Raw-sum closure of the zero sets of F - t*H (every layer) and of H.

    Each check is priced once, in the raw sums of the blocks of all its zero
    sets (:func:`layers.closure_blocks`: each fiber pair is decided by the sums
    on its two fibers' frames, whether or not a fiber fills its frame's span),
    and :func:`_sweep` runs every block when that is :func:`_affordable`, else
    draws ``pair_budget`` seeded pairs per set.  H's zero set is listed by one
    scan of P^2(R), whose points are priced against 40 * budget, as
    :func:`_layer_gate` prices q * |m|^3.
    """
    from .layers import Layer, closure_blocks, closure_run, combination, layer_points, plane_zeros

    ring = params.ring
    if skips := _layer_gate(params, budget, ("combination-closure-layers",
                                             "combination-closure-hessian")):
        return skips
    rng = random.Random(seed)
    pair_budget = min(2000, max(10, budget // (4 * max(1, ring.ideal_size))))

    def closed(law, sets, detail):  # sets [(g, its zeros, encode)]
        priced, run = [closure_blocks(params, pts) for _, pts, _ in sets], [None, 0, 0]

        def exhaust():  # run: (failing case, raw sums made, blocks run)
            run[:] = closure_run(params, [(g, b) for (g, _, _), (_, b) in zip(sets, priced)])
            return run[0] and (1, run[0])

        rep = _sweep(law, budget, seed, lambda case: sets[case[0]][2](case[1:]),
                     space=sum(len(pts) * (len(pts) + 1) // 2 for _, pts, _ in sets),
                     cost=sum(price for price, _ in priced), exhaust=exhaust,
                     draws=lambda rng: ((i, rng.choice(pts), rng.choice(pts)) for i, (_, pts, _)
                                        in enumerate(sets) for _ in range(pair_budget)),
                     first_bad=_breaker(lambda i, u, v: sets[i][0](*raw_add(
                         params, u.coords(), v.coords())) == ring.zero),
                     samples=pair_budget * len(sets), rng=rng)
        # blocks that made fewer sums than the pairs they decide are named
        how = f": {run[1]:,} raw sums decide {run[2]:,} fiber pairs"
        rep.detail = detail + (how if 0 < run[1] < rep.checked else "")
        return rep

    # alpha*F + beta*H with (1, -t): zero set contains the layer
    reports = [closed("combination-closure-layers", [
        (combination(params, 1, ring.neg(t)), layer_points(Layer(params, t)),
         _point_ce(params, t=ring.payload_to_json(t))) for t in ring.ideal_elements()],
        "(F - t*H)(P1 + P2) = 0 on raw sums, every t")]
    plane = count_projective(2, ring)
    if not _affordable(40 * budget, cost=plane):
        return reports + [_skipped("combination-closure-hessian", f"skipped: |P^2(R)| ="
                                   f" {plane:,} exceeds 40 * budget = {40 * budget:,}")]
    combo = combination(params, 0, 1)
    zeros = plane_zeros(params, combo)
    return reports + [closed("combination-closure-hessian", [(combo, zeros, _point_ce(params))],
                             f"zero set of H ({len(zeros)} of {plane} plane points) closed"
                             " under raw sums")]


def infinity_structure_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """infinity_suite plus the forbidden-locus sweep for integer quotients."""
    from .structure import forbidden_locus_check

    reports = list(infinity_suite(params, budget, seed))
    price = params.ring.ideal_size ** 2
    if params.ring.kind != INTEGER_QUOTIENT:
        reports.append(_skipped("forbidden-locus", "not applicable: needs an integer quotient"))
    elif not _affordable(budget, 10_000, cost=price):
        reports.append(_skipped("forbidden-locus", f"skipped: |m|^2 = {price:,} exceeds"
                                f" max(budget, 10,000) = {max(budget, 10_000):,}"))
    else:
        reports.append(LawReport("forbidden-locus", forbidden_locus_check(params), None,
                                 price, True, None, detail="multiples of (0:1:p) meet no layer"))
    return reports


TORSION_CHECKS = ("torsion-fibers", "torsion-differences", "torsion-lines")


def torsion_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Fiberwise geometry of the q-torsion for e <= 2: one case per loop point.

    The fibers of :func:`~elliptic_loops.structure.torsion_geometry` are
    checked against the q-torsion grouped by projection.
    """
    from .structure import torsion_geometry

    ring = params.ring
    if ring.e > 2 or ring.kind != INTEGER_QUOTIENT:
        return [_skipped(law, "skipped: needs an integer quotient with e <= 2")
                for law in TORSION_CHECKS]
    if not _affordable(budget, cost=params.cardinality()):
        detail = f"skipped: |L| = {params.cardinality():,} exceeds budget = {budget:,}"
        return [_skipped(law, detail) for law in TORSION_CHECKS]
    q = params.q
    ident = identity(params)
    fibers = {}
    for pt in params.loop_points():
        if scalar_mul(params, q, pt) == ident:
            fibers.setdefault(params.project(pt), []).append(pt)
    try:  # a fiber, difference group or line that fails its own check fails all three
        geometry = torsion_geometry(params, q, [fiber[0] for fiber in fibers.values()])
    except AssertionError as exc:
        return [LawReport(law, False, None, 0, False, None, str(exc)) for law in TORSION_CHECKS]
    lined = [(fiber, diffs, line) for _, fiber, diffs, line in geometry if line is not None]
    oks = (all(set(fiber) == set(fibers[params.project(base)])
               for base, fiber, _, _ in geometry),
           all(len(diffs) == len(fiber) for fiber, diffs, _ in lined),
           all(line.degenerate or set(line.coset) == set(fiber) for fiber, _, line in lined))
    details = (f"{len(fibers)} fibers of the {q}-torsion",
               "difference sets are subgroups translating onto fibers",
               "cyclic difference groups trace projective lines")
    return [LawReport(law, ok, None, len(geometry), True, None, detail)
            for law, ok, detail in zip(TORSION_CHECKS, oks, details)]


def witness_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Every applicable witness construction yields a rank-2 broken triple."""
    reports = []
    for kind, fn in WITNESS_KINDS.items():
        try:
            w = fn(params)
        except PreconditionUnmet as exc:
            reports.append(_skipped(f"witness-{kind}", f"not applicable: {exc}"))
            continue
        except AssertionError as exc:  # the triple associated: the construction failed
            reports.append(LawReport(f"witness-{kind}", False, None, 1, True, None, str(exc)))
            continue
        # the case space is the one constructed triple, so one case is all of it
        reports.append(LawReport(f"witness-{kind}", True, w.to_json(params), 1, True, None,
                                 detail=f"association orders differ; observed rank {w.rank}"))
    return reports


def structure_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Sampled rank monotonicity: collapsing a pair never raises the rank.

    A case is three indices into the point pool, drawn as ``rng.choice(pool)``
    draws its members.  Each drawn point's column is evaluated once per call;
    the sum P2 + P3 is formed, and its column evaluated, only below rank 2.
    """
    rng, ring = random.Random(seed), params.ring
    pool = _point_pool(params, rng)
    column = cache(lambda i: point_column(params, pool[i]))

    def monotone(i, j, k):  # a coarse rank is at most 2, so a triple of rank 2 passes
        r_triple = coarse_rank(ring, (column(i), column(j), column(k)))
        return r_triple == 2 or coarse_rank(
            ring, (column(i), point_column(params, add(params, pool[j], pool[k])))) <= r_triple

    rep = _sweep("rank-monotonicity", budget, seed, _point_ce(params, pool),
                 draws=_draws(3, lambda rng: rng.randrange(len(pool))),
                 first_bad=_breaker(monotone), samples=min(2000, budget), rng=rng)
    rep.detail = "seeded: its rank compares minors with zero, a condition, not an identity"
    return [rep]


def congruence_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    cases = min(10_000, max(100, budget // 20))
    if params.ring.kind == INTEGER_QUOTIENT:
        return technical_congruences(params, cases=cases, seed=seed)
    return technical_congruences(params, cases=cases, seed=seed, parts=("i", "ii")) + [
        _skipped("congruence-iv", "not applicable: needs an integer quotient")]


def nilpotency_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """:func:`low_nilpotency_suite`, or one SKIP per identity where it does not run."""
    try:
        return low_nilpotency_suite(params, budget, seed)
    except NilpotencyTooHigh as exc:
        return [_skipped(law, f"skipped: {exc}") for law in NILPOTENCY_CHECKS]


VERIFY_SUITES = {
    "laws": laws_suite,
    "cardinality": cardinality_suite,
    "projection": projection_suite,
    "three-torsion": three_torsion_suite,
    "stratification": stratification_suite,
    "layers": layer_suite,
    "hessian-closure": hessian_combination_suite,
    "infinity": infinity_structure_suite,
    "low-nilpotency": nilpotency_suite,
    "torsion": torsion_suite,
    "congruences": congruence_suite,
    "witnesses": witness_suite,
    "structure": structure_suite,
}


def verify_instance(params: LoopParams, suite: str = "all", budget: int = 200_000,
                    seed: int = 0):
    """Run one named suite, or all of them in a stable order."""
    if budget < 1:
        raise PreconditionUnmet(f"budget = {budget} must be at least 1")
    if suite == "all":
        names = list(VERIFY_SUITES)
    elif suite in VERIFY_SUITES:
        names = [suite]
    else:
        raise ValueError(
            f"unknown suite {suite!r}; expected 'all' or one of {sorted(VERIFY_SUITES)}"
        )
    return [rep for name in names for rep in VERIFY_SUITES[name](params, budget=budget, seed=seed)]
