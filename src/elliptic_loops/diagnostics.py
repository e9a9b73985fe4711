"""Law diagnostics, non-associativity witnesses, and classification.

Every check in this module produces a :class:`LawReport`: which law or
identity was examined, whether it held, how many cases were inspected,
whether the sweep was exhaustive, the seed that drove any sampling, and
a replayable counterexample when one was found.

The headline searches live here too: explicit witness triples that break
associativity (three constructions with different preconditions), the
suite of identities valid at nilpotency degree at most two, the infinity
part's group structure, the technical congruences for points at
infinity, and the classification of the parameter pairs whose loops are
honest groups.
"""

from __future__ import annotations

import random

from .errors import EvenOrder, NilpotencyTooHigh, PreconditionUnmet, SingularCurve
from .loop_core import (
    LoopParams,
    add,
    identity,
    neg,
    order_of,
    scalar_mul,
    sub,
)
from .projective import ProjPoint, count_projective, plane_points
from .ring import INTEGER_QUOTIENT, RingConfig, RingElem, _is_prime
from .structure import AssocMatrix, infinity_generators

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

    def to_json(self) -> dict:
        return {
            "law": self.law,
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


def random_loop_point(params: LoopParams, rng) -> ProjPoint:
    """A uniformly random loop point, without enumerating the loop.

    Every canonical lift of a residue-curve point lies on the loop, and
    these lifts partition it, so a random residue point plus random ideal
    offsets is uniform.
    """
    ring = params.ring
    rpt = params.residue_points[rng.randrange(len(params.residue_points))]
    x = ring.add(ring.from_int(rpt.x), ring.random_element(rng, 1))
    z = ring.add(ring.from_int(rpt.z), ring.random_element(rng, 1))
    return ProjPoint(ring, x, ring.one, z)


def random_infinity_point(params: LoopParams, rng, min_valuation: int = 1) -> ProjPoint:
    ring = params.ring
    x = ring.random_element(rng, min_valuation)
    z = ring.random_element(rng, min_valuation)
    return ProjPoint(ring, x, ring.one, z)


class CayleyIndex:
    """Index tables over a finite, addition-closed set of points.

    ``table[i][j]`` is the index of points[i] + points[j]; ``neg[i]`` the
    index of -points[i].  Built once, it turns bulk law sweeps into list
    lookups, which is what makes the exhaustive checks affordable.
    """

    __slots__ = ("params", "points", "index", "table", "neg", "ident")

    def __init__(self, params: LoopParams, points):
        self.params = params
        self.points = list(points)
        idx = {pt: i for i, pt in enumerate(self.points)}
        self.index = idx
        n = len(self.points)
        table = [None] * n
        for i in range(n):
            table[i] = [0] * n
        pts = self.points
        for i in range(n):
            a = pts[i]
            row = table[i]
            for j in range(i, n):
                k = idx[add(params, a, pts[j])]
                row[j] = k
                table[j][i] = k
        self.table = table
        self.neg = [idx[neg(params, pt)] for pt in pts]
        self.ident = idx[identity(params)]

    def mul(self, i: int, n: int) -> int:
        """Index of n * points[i]."""
        if n < 0:
            return self.mul(self.neg[i], -n)
        result = self.ident
        base = i
        table = self.table
        while n:
            if n & 1:
                result = table[result][base]
            base = table[base][base]
            n >>= 1
        return result

    def assoc_sweep(self):
        """First non-associative triple of indices, or None; full n^3 sweep."""
        table = self.table
        n = len(table)
        for i in range(n):
            ti = table[i]
            for j in range(n):
                tj = table[j]
                lhs = table[ti[j]]
                rhs = [ti[c] for c in tj]
                if lhs != rhs:
                    for c in range(n):
                        if lhs[c] != rhs[c]:
                            return (i, j, c)
        return None


# ----------------------------------------------------------------------------
# the seven loop laws
# ----------------------------------------------------------------------------


def _word_set(params, p, q):
    words = [
        identity(params), p, q, add(params, p, q), add(params, p, p),
        add(params, q, q), neg(params, p), neg(params, q), sub(params, p, q),
    ]
    return list(dict.fromkeys(words))


def _check_law_pair(params, law, p, q) -> bool:
    if law == "alternative":
        return add(params, p, add(params, p, q)) == add(params, add(params, p, p), q)
    if law == "jordan":
        pp = add(params, p, p)
        return add(params, pp, add(params, p, q)) == add(params, p, add(params, q, pp))
    if law == "diassociative":
        words = _word_set(params, p, q)
        for a in words:
            for b in words:
                ab = add(params, a, b)
                for c in words:
                    if add(params, ab, c) != add(params, a, add(params, b, c)):
                        return False
        return True
    raise ValueError(law)


def _check_law_triple(params, law, p, q, r) -> bool:
    if law == "full-associative":
        return add(params, add(params, p, q), r) == add(params, p, add(params, q, r))
    if law == "moufang":
        lhs = add(params, add(params, p, add(params, q, r)), r)
        rhs = add(params, add(params, add(params, p, r), r), q)
        return lhs == rhs
    raise ValueError(law)


def _law_report_pairs(params, law, pts, budget, seed) -> LawReport:
    n = len(pts)
    weight = 360 if law == "diassociative" else 1
    exhaustive = n * n * weight <= budget
    rng = random.Random(seed)
    checked = 0
    if exhaustive:
        for p in pts:
            for q in pts:
                checked += 1
                if not _check_law_pair(params, law, p, q):
                    return LawReport(law, False, {"points": _encode_points(params, (p, q))},
                                     checked, True, seed)
        return LawReport(law, True, None, checked, True, seed)
    cases = max(1, budget // weight)
    for _ in range(cases):
        p = pts[rng.randrange(n)]
        q = pts[rng.randrange(n)]
        checked += 1
        if not _check_law_pair(params, law, p, q):
            return LawReport(law, False, {"points": _encode_points(params, (p, q))},
                             checked, False, seed)
    return LawReport(law, True, None, checked, False, seed)


def _law_report_triples(params, law, pts, budget, seed) -> LawReport:
    n = len(pts)
    rng = random.Random(seed)
    # index tables need an addition-closed set: only the whole loop is one
    tables = n == params.cardinality() and n**3 <= budget
    if law == "full-associative" and tables:
        cayley = CayleyIndex(params, pts)
        bad = cayley.assoc_sweep()
        if bad is None:
            return LawReport(law, True, None, n**3, True, seed)
        ce = {"points": _encode_points(params, [pts[i] for i in bad])}
        return LawReport(law, False, ce, n**3, True, seed)
    if law == "moufang" and tables:
        cayley = CayleyIndex(params, pts)
        t = cayley.table
        for i in range(n):
            ti = t[i]
            for j in range(n):
                tj = t[j]
                for k in range(n):
                    if t[ti[tj[k]]][k] != t[t[ti[k]][k]][j]:
                        ce = {"points": _encode_points(params, (pts[i], pts[j], pts[k]))}
                        return LawReport(law, False, ce, n**3, True, seed)
        return LawReport(law, True, None, n**3, True, seed)
    checked = 0
    for _ in range(budget):
        p, q, r = (pts[rng.randrange(n)] for _ in range(3))
        checked += 1
        if not _check_law_triple(params, law, p, q, r):
            return LawReport(law, False, {"points": _encode_points(params, (p, q, r))},
                             checked, False, seed)
    return LawReport(law, True, None, checked, False, seed)


def _law_report_power(params, pts, budget, seed, max_exp=200) -> LawReport:
    rng = random.Random(seed)
    cases = max(1, budget // (4 * max(params.ring.e, 8)))
    checked = 0
    for _ in range(cases):
        p = pts[rng.randrange(len(pts))]
        n = rng.randrange(-max_exp, max_exp + 1)
        m = rng.randrange(-max_exp, max_exp + 1)
        checked += 1
        if add(params, scalar_mul(params, n, p), scalar_mul(params, m, p)) != scalar_mul(params, n + m, p):
            ce = {"points": _encode_points(params, (p,)), "exponents": [n, m]}
            return LawReport("power-associative", False, ce, checked, False, seed)
    return LawReport("power-associative", True, None, checked, False, seed)


def _law_report_latin(params, pts, budget, seed) -> LawReport:
    """Unique solvability: rows are bijections and the inverse-shift solves.

    Existence of a solution to P + X = Q is checked through weak
    associativity (X = Q - P works), uniqueness through row injectivity.
    """
    n = len(pts)
    rng = random.Random(seed)
    if n * n <= budget:
        for p in pts:
            row = set()
            for q in pts:
                row.add(add(params, p, q))
                if add(params, p, sub(params, q, p)) != q:
                    ce = {"points": _encode_points(params, (p, q)), "relation": "solution"}
                    return LawReport("latin-square", False, ce, n * n, True, seed)
            if len(row) != n:
                ce = {"points": _encode_points(params, (p,)), "relation": "row-collision"}
                return LawReport("latin-square", False, ce, n * n, True, seed)
        return LawReport("latin-square", True, None, n * n, True, seed)
    checked = 0
    rows = max(1, budget // (2 * n))
    for _ in range(rows):
        p = pts[rng.randrange(n)]
        row = set()
        for q in pts:
            row.add(add(params, p, q))
            if add(params, p, sub(params, q, p)) != q:
                ce = {"points": _encode_points(params, (p, q)), "relation": "solution"}
                return LawReport("latin-square", False, ce, checked, False, seed)
            checked += 1
        if len(row) != n:
            ce = {"points": _encode_points(params, (p,)), "relation": "row-collision"}
            return LawReport("latin-square", False, ce, checked, False, seed)
    return LawReport("latin-square", True, None, checked, False, seed)


def law_suite(params: LoopParams, laws=None, budget: int = 1_000_000, seed: int = 0):
    """Run the requested laws (all seven by default) and report.

    Exhaustive sweeps are used whenever the constrained case count fits
    the budget; otherwise cases are drawn with the given seed, so two runs
    with identical arguments produce identical reports.
    """
    if laws is None:
        laws = LAW_NAMES
    elif isinstance(laws, str):
        laws = (laws,)
    unknown = set(laws) - set(LAW_NAMES)
    if unknown:
        raise ValueError(f"unknown laws: {sorted(unknown)}; expected {LAW_NAMES}")
    if params.cardinality() <= 200_000:
        pts = params.loop_points()
    else:
        rng = random.Random(seed)
        pts = list({random_loop_point(params, rng) for _ in range(5000)})
    reports = []
    for law in laws:
        if law in ("alternative", "jordan", "diassociative"):
            reports.append(_law_report_pairs(params, law, pts, budget, seed))
        elif law in ("full-associative", "moufang"):
            reports.append(_law_report_triples(params, law, pts, budget, seed))
        elif law == "power-associative":
            reports.append(_law_report_power(params, pts, budget, seed))
        else:
            reports.append(_law_report_latin(params, pts, budget, seed))
    return reports


def replay(params: LoopParams, report) -> bool:
    """Re-evaluate a report's counterexample; True when it still violates."""
    if isinstance(report, LawReport):
        law, ce = report.law, report.counterexample
    else:
        law, ce = report["law"], report["counterexample"]
    if ce is None:
        raise PreconditionUnmet("report carries no counterexample to replay")
    pts = _decode_points(params, ce["points"])
    if law in ("alternative", "jordan", "diassociative"):
        return not _check_law_pair(params, law, *pts)
    if law in ("full-associative", "moufang", "infinity-associativity",
               "layer-associativity"):
        if law != "moufang":
            law = "full-associative"
        return not _check_law_triple(params, law, *pts)
    if law == "power-associative":
        n, m = ce["exponents"]
        p = pts[0]
        return add(params, scalar_mul(params, n, p), scalar_mul(params, m, p)) != scalar_mul(
            params, n + m, p
        )
    if law == "latin-square":
        if ce.get("relation") == "row-collision":
            p = pts[0]
            row = {add(params, p, q) for q in params.loop_points()}
            return len(row) != params.cardinality()
        p, q = pts
        return add(params, p, sub(params, q, p)) != q
    raise ValueError(law)


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
    for rpt in params.residue_points:
        if rpt.y == 1 and ring.residue_ring().is_unit(rpt.z):
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
        for rpt in params.residue_points:
            if not params.residue_params.ring.is_unit(rpt.z):
                continue
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


def _fiber_indices(cayley: CayleyIndex):
    params = cayley.params
    fibers = {}
    for i, pt in enumerate(cayley.points):
        fibers.setdefault(params.project(pt), []).append(i)
    return fibers


def low_nilpotency_suite(params: LoopParams, budget: int = 1_000_000, seed: int = 0):
    """The five identities valid when m^2 = 0, checked over index tables.

    Identities with a finite constrained case count are swept exhaustively
    when they fit the budget; the two with unbounded or astronomically
    large spaces (the six-point convolution and the integer-multiple
    family) combine exhaustive small-parameter sweeps with seeded
    sampling.
    """
    ring = params.ring
    if ring.e > 2:
        raise NilpotencyTooHigh(
            f"these identities require nilpotency degree <= 2 (e = {ring.e})"
        )
    if params.cardinality() ** 2 > 8_000_000:
        raise PreconditionUnmet(
            f"loop of size {params.cardinality()} exceeds the index-table budget"
        )
    rng = random.Random(seed)
    pts = params.loop_points()
    cayley = CayleyIndex(params, pts)
    t, nn = cayley.table, cayley.neg
    fibers = _fiber_indices(cayley)
    inf = fibers[params.project(identity(params))]
    reports = []

    def encode(indices):
        return {"points": _encode_points(params, [pts[i] for i in indices])}

    # P + (Q + R) == (P + Q) + R with Q, R at infinity
    name = "translate-by-infinity-pair"
    space = len(pts) * len(inf) ** 2
    if space <= budget:
        ce = None
        for i in range(len(pts)):
            ti = t[i]
            for q in inf:
                tiq = t[ti[q]]
                tq = t[q]
                for r in inf:
                    if ti[tq[r]] != tiq[r]:
                        ce = (i, q, r)
                        break
                if ce:
                    break
            if ce:
                break
        reports.append(LawReport(name, ce is None, encode(ce) if ce else None,
                                 space, True, seed))
    else:
        ce = None
        checked = 0
        for _ in range(budget):
            i = rng.randrange(len(pts))
            q, r = rng.choice(inf), rng.choice(inf)
            checked += 1
            if t[i][t[q][r]] != t[t[i][q]][r]:
                ce = (i, q, r)
                break
        reports.append(LawReport(name, ce is None, encode(ce) if ce else None,
                                 checked, False, seed))

    # (P + R1) - (Q + R2) == (P - Q) + (R1 - R2) with pi(P) = pi(Q)
    name = "difference-across-fiber"
    space = sum(len(f) ** 2 for f in fibers.values()) * len(inf) ** 2
    ce = None
    checked = 0
    if space <= budget:
        for fib in fibers.values():
            for i in fib:
                ti = t[i]
                for j in fib:
                    tinj = t[ti[nn[j]]]  # row of P - Q
                    tj = t[j]
                    for r1 in inf:
                        lhs_base = t[ti[r1]]
                        tr1 = t[r1]
                        for r2 in inf:
                            if lhs_base[nn[tj[r2]]] != tinj[tr1[nn[r2]]]:
                                ce = (i, j, r1, r2)
                                break
                        if ce:
                            break
                    if ce:
                        break
                if ce:
                    break
            if ce:
                break
        checked = space
        exhaustive = True
    else:
        exhaustive = False
        fib_list = list(fibers.values())
        for _ in range(budget):
            fib = fib_list[rng.randrange(len(fib_list))]
            i, j = rng.choice(fib), rng.choice(fib)
            r1, r2 = rng.choice(inf), rng.choice(inf)
            checked += 1
            if t[t[i][r1]][nn[t[j][r2]]] != t[t[i][nn[j]]][t[r1][nn[r2]]]:
                ce = (i, j, r1, r2)
                break
    reports.append(LawReport(name, ce is None, encode(ce) if ce else None,
                             checked, exhaustive, seed))

    # (P + Q) - R == P + (Q - R) with pi(P) = pi(Q) = pi(R)
    name = "triple-in-fiber"
    space = sum(len(f) ** 3 for f in fibers.values())
    ce = None
    if space <= budget:
        for fib in fibers.values():
            for i in fib:
                ti = t[i]
                for j in fib:
                    tij = t[ti[j]]
                    tj = t[j]
                    for k in fib:
                        if tij[nn[k]] != ti[tj[nn[k]]]:
                            ce = (i, j, k)
                            break
                    if ce:
                        break
                if ce:
                    break
            if ce:
                break
        checked, exhaustive = space, True
    else:
        checked, exhaustive = 0, False
        fib_list = list(fibers.values())
        for _ in range(budget):
            fib = fib_list[rng.randrange(len(fib_list))]
            i, j, k = rng.choice(fib), rng.choice(fib), rng.choice(fib)
            checked += 1
            if t[t[i][j]][nn[k]] != t[i][t[j][nn[k]]]:
                ce = (i, j, k)
                break
    reports.append(LawReport(name, ce is None, encode(ce) if ce else None,
                             checked, exhaustive, seed))

    # (P1+P2-P3) + (Q1+Q2-Q3) == (P1+Q1) + (P2+Q2) - (P3+Q3), fiberwise
    name = "fiberwise-sum-exchange"
    fib_list = list(fibers.values())

    def conv(a, b, c):
        return t[t[a][b]][nn[c]]

    ce = None
    checked = 0
    for _ in range(budget):
        fp = fib_list[rng.randrange(len(fib_list))]
        fq = fib_list[rng.randrange(len(fib_list))]
        p1, p2, p3 = rng.choice(fp), rng.choice(fp), rng.choice(fp)
        q1, q2, q3 = rng.choice(fq), rng.choice(fq), rng.choice(fq)
        checked += 1
        if t[conv(p1, p2, p3)][conv(q1, q2, q3)] != conv(t[p1][q1], t[p2][q2], t[p3][q3]):
            ce = (p1, p2, p3, q1, q2, q3)
            break
    reports.append(LawReport(name, ce is None, encode(ce) if ce else None,
                             checked, False, seed,
                             detail="six-point space exceeds any exhaustive budget"))

    # m*(P1+P2-P3) == m*P1 + m*P2 - m*P3, fiberwise; exhaustive in the
    # triple for a spread of multipliers, then sampled jointly
    name = "multiple-of-fiber-sum"
    n_pts = len(pts)
    multipliers = sorted({0, 1, 2, 3, 5, 7, ring.p, 2 * ring.p + 1, n_pts - 1, n_pts + 2})
    ce = None
    ce_mult = None
    checked = 0
    triple_space = sum(len(f) ** 3 for f in fibers.values())
    exhaustive_triples = triple_space * len(multipliers) <= 4 * budget
    if exhaustive_triples:
        for m in multipliers:
            mul_map = [cayley.mul(i, m) for i in range(n_pts)]
            for fib in fibers.values():
                for i in fib:
                    for j in fib:
                        tij = t[t[i][j]]
                        for k in fib:
                            checked += 1
                            if mul_map[tij[nn[k]]] != conv(mul_map[i], mul_map[j], mul_map[k]):
                                ce, ce_mult = (i, j, k), m
                                break
                        if ce:
                            break
                    if ce:
                        break
                if ce:
                    break
            if ce:
                break
    if ce is None:
        for _ in range(max(0, budget // 8)):
            m = rng.randrange(-2 * n_pts, 2 * n_pts)
            fib = fib_list[rng.randrange(len(fib_list))]
            i, j, k = rng.choice(fib), rng.choice(fib), rng.choice(fib)
            checked += 1
            if cayley.mul(conv(i, j, k), m) != conv(cayley.mul(i, m), cayley.mul(j, m), cayley.mul(k, m)):
                ce, ce_mult = (i, j, k), m
                break
    payload = None
    if ce:
        payload = encode(ce)
        payload["multiplier"] = ce_mult
    reports.append(LawReport(name, ce is None, payload, checked, False, seed,
                             detail=f"exhaustive triples for multipliers {multipliers}"
                             if exhaustive_triples else ""))
    return reports


# ----------------------------------------------------------------------------
# infinity part
# ----------------------------------------------------------------------------


def infinity_suite(params: LoopParams, budget: int = 1_000_000, seed: int = 0):
    """Structure checks for the points over the residue identity.

    Covers the cardinality p^(2(e-1)), the orders and independence of the
    generating pair, the coordinate bijection, associativity (a theorem
    for e <= 5, refuted by an explicit triple from e = 6 on), and the
    coordinatewise-additive description valid for e <= 3.
    """
    from .structure import infinity_decompose

    ring = params.ring
    rng = random.Random(seed)
    reports = []
    p, e = ring.p, ring.e
    expected = ring.ideal_size**2

    enumerable = expected <= 1_000_000
    if enumerable:
        inf_pts = params.infinity_points()
        reports.append(LawReport("infinity-cardinality", len(inf_pts) == expected,
                                 None, len(inf_pts), True, None,
                                 detail=f"|L^inf| = {len(inf_pts)}, expected {expected}"))
    else:
        inf_pts = None
        reports.append(LawReport("infinity-cardinality", True, None, 0, False, None,
                                 detail=f"too large to enumerate ({expected})"))

    if ring.kind == INTEGER_QUOTIENT:
        g1, g2 = infinity_generators(params)
        o1 = order_of(params, g1)
        o2 = order_of(params, g2)
        ok = o1 == ring.ideal_size and o2 == ring.ideal_size
        reports.append(LawReport("infinity-generator-orders", ok, None, 2, True, None,
                                 detail=f"orders {o1}, {o2}, expected {ring.ideal_size}"))

        m1 = set()
        cur = identity(params)
        for _ in range(o1):
            m1.add(cur)
            cur = add(params, cur, g1)
        m2 = set()
        cur = identity(params)
        for _ in range(o2):
            m2.add(cur)
            cur = add(params, cur, g2)
        inter = m1 & m2
        reports.append(LawReport("infinity-generator-independence",
                                 inter == {identity(params)}, None,
                                 o1 + o2, True, None,
                                 detail=f"|<g1> & <g2>| = {len(inter)}"))

        if enumerable and expected * 50 <= budget:
            seen = set()
            for pt in inf_pts:
                d = infinity_decompose(params, pt)
                seen.add((d.alpha, d.beta))
            ok = len(seen) == expected
            reports.append(LawReport("infinity-coordinate-bijection", ok, None,
                                     expected, True, seed,
                                     detail="decomposition is a bijection onto"
                                            f" [0,{ring.ideal_size})^2"))
        else:
            checked = 0
            ok = True
            for _ in range(min(budget, 2000)):
                pt = random_infinity_point(params, rng)
                infinity_decompose(params, pt)  # raises on failure
                checked += 1
            reports.append(LawReport("infinity-coordinate-bijection", ok, None,
                                     checked, False, seed,
                                     detail="sampled decompositions recompose"))

    # associativity
    if e <= 5:
        if enumerable and expected**3 <= budget:
            cayley = CayleyIndex(params, inf_pts)
            bad = cayley.assoc_sweep()
            ce = {"points": _encode_points(params, [inf_pts[i] for i in bad])} if bad else None
            reports.append(LawReport("infinity-associativity", bad is None, ce,
                                     expected**3, True, seed))
        else:
            pool = inf_pts if enumerable else None
            ce = None
            checked = 0
            for _ in range(budget):
                if pool is not None:
                    a = pool[rng.randrange(len(pool))]
                    b = pool[rng.randrange(len(pool))]
                    c = pool[rng.randrange(len(pool))]
                else:
                    a = random_infinity_point(params, rng)
                    b = random_infinity_point(params, rng)
                    c = random_infinity_point(params, rng)
                checked += 1
                if add(params, add(params, a, b), c) != add(params, a, add(params, b, c)):
                    ce = {"points": _encode_points(params, (a, b, c))}
                    break
            reports.append(LawReport("infinity-associativity", ce is None, ce,
                                     checked, False, seed))
    else:
        w = witness_inf(params)
        reports.append(LawReport("infinity-associativity", False,
                                 w.to_json(params), 1, False, None,
                                 detail="guaranteed non-associative from e = 6 on"))

    # coordinatewise addition (an isomorphism onto (m, +)^2 for e <= 3)
    if e <= 3:
        ce = None
        checked = 0
        if enumerable and expected**2 <= budget:
            exhaustive = True
            for a in inf_pts:
                for b in inf_pts:
                    s = add(params, a, b)
                    if s.x != ring.add(a.x, b.x) or s.z != ring.add(a.z, b.z):
                        ce = {"points": _encode_points(params, (a, b))}
                        break
                if ce:
                    break
            checked = expected**2
        else:
            exhaustive = False
            for _ in range(budget):
                a = random_infinity_point(params, rng)
                b = random_infinity_point(params, rng)
                checked += 1
                s = add(params, a, b)
                if s.x != ring.add(a.x, b.x) or s.z != ring.add(a.z, b.z):
                    ce = {"points": _encode_points(params, (a, b))}
                    break
        reports.append(LawReport("infinity-coordinates-additive", ce is None, ce,
                                 checked, exhaustive, seed))
    else:
        additive = 0
        trials = min(budget, 2000)
        for _ in range(trials):
            a = random_infinity_point(params, rng)
            b = random_infinity_point(params, rng)
            s = add(params, a, b)
            if s.x == ring.add(a.x, b.x) and s.z == ring.add(a.z, b.z):
                additive += 1
        reports.append(LawReport("infinity-coordinates-additive", True, None,
                                 trials, False, seed,
                                 detail=f"no theorem at e = {e}; observed additive on"
                                        f" {additive}/{trials} sampled pairs"))
    return reports


# ----------------------------------------------------------------------------
# technical congruences for infinity points
# ----------------------------------------------------------------------------


def _val_at_least(ring, payload, k) -> bool:
    return ring.valuation(payload) >= min(k, ring.e)


def technical_congruences(params: LoopParams, cases: int = 10_000, seed: int = 0,
                          parts=("i", "ii", "iv")):
    """Seeded random verification of the three infinity congruences.

    (i)   sums of points with coordinates in m^k are coordinatewise
          additive modulo m^(3k);
    (ii)  perturbing one summand by deltas in m^f (f >= k) moves the sum
          by the same deltas modulo m^(f+2k);
    (iv)  integer multiples are coordinatewise linear modulo
          m^(3k + v(n) - 1)  (integer quotients only).
    """
    ring = params.ring
    known = {"i", "ii", "iv"}
    bad = set(parts) - known
    if bad:
        raise ValueError(f"unknown parts {sorted(bad)}; expected subset of {sorted(known)}")
    if "iv" in parts and ring.kind != INTEGER_QUOTIENT:
        raise PreconditionUnmet("part (iv) needs an integer uniformizer")
    rng = random.Random(seed)
    e = ring.e
    reports = []
    for part in parts:
        ce = None
        for _ in range(cases):
            k = rng.randrange(1, max(2, e))
            x1 = ring.random_element(rng, k)
            z1 = ring.random_element(rng, k)
            x2 = ring.random_element(rng, k)
            z2 = ring.random_element(rng, k)
            p1 = ProjPoint(ring, x1, ring.one, z1)
            p2 = ProjPoint(ring, x2, ring.one, z2)
            s = add(params, p1, p2)
            if part == "i":
                ok = _val_at_least(ring, ring.sub(s.x, ring.add(x1, x2)), 3 * k) and \
                     _val_at_least(ring, ring.sub(s.z, ring.add(z1, z2)), 3 * k)
                case = {"k": k}
            elif part == "ii":
                f = rng.randrange(k, e + 1)
                dx = ring.random_element(rng, f)
                dz = ring.random_element(rng, f)
                moved = add(params, ProjPoint(ring, ring.add(x1, dx), ring.one,
                                              ring.add(z1, dz)), p2)
                ok = _val_at_least(ring, ring.sub(moved.x, ring.add(s.x, dx)), f + 2 * k) and \
                     _val_at_least(ring, ring.sub(moved.z, ring.add(s.z, dz)), f + 2 * k)
                case = {"k": k, "f": f,
                        "deltas": [ring.payload_to_json(dx), ring.payload_to_json(dz)]}
            else:
                n = rng.randrange(-ring.modulus, ring.modulus)
                v = min(e, ring.valuation(ring.from_int(n)))
                mult = scalar_mul(params, n, p1)
                bound = 3 * k + v - 1
                ok = _val_at_least(ring, ring.sub(mult.x, ring.mul_int(n, x1)), bound) and \
                     _val_at_least(ring, ring.sub(mult.z, ring.mul_int(n, z1)), bound)
                case = {"k": k, "n": n}
            if not ok:
                case["points"] = _encode_points(params, (p1, p2))
                ce = case
                break
        reports.append(LawReport(f"congruence-{part}", ce is None, ce, cases,
                                 False, seed))
    return reports


# ----------------------------------------------------------------------------
# group certificates and classification
# ----------------------------------------------------------------------------


def group_certificate(params: LoopParams, budget: int = 200_000, seed: int = 0) -> dict:
    """Decide whether the loop is a group, with an explicit reason.

    Groups are certified by an isomorphism with Z/n1 x Z/n2: a basis is
    searched, the map (i, j) -> i*G1 + j*G2 is verified to be a bijection
    and then a homomorphism on every ordered pair.  Non-groups are
    certified by a concrete non-associative triple (a structured witness
    when one applies, a seeded search otherwise).
    """
    ring = params.ring
    if ring.e >= 3:
        w = witness_A(params)
        return {"is_group": False, "order": params.cardinality(),
                "invariants": None, "method": "affine-infinity-witness",
                "witness": w.to_json(params)}
    try:
        w = witness_B(params)
        return {"is_group": False, "order": params.cardinality(),
                "invariants": None, "method": "shifted-pair-witness",
                "witness": w.to_json(params)}
    except PreconditionUnmet:
        pass

    pts = params.loop_points()
    n = len(pts)
    orders = {pt: order_of(params, pt) for pt in pts}
    n2 = max(orders.values())
    n1 = n // n2
    ident = identity(params)
    if n1 * n2 != n or (n1 > 1 and n2 % n1):
        return _certificate_fallback(params, pts, budget, seed)

    g2 = next(pt for pt, o in orders.items() if o == n2)
    g2_multiples = [ident]
    for _ in range(n2 - 1):
        g2_multiples.append(add(params, g2_multiples[-1], g2))

    candidates = [pt for pt, o in orders.items() if o == n1] if n1 > 1 else [ident]
    for g1 in candidates:
        g1_multiples = [ident]
        for _ in range(n1 - 1):
            g1_multiples.append(add(params, g1_multiples[-1], g1))
        phi = {}
        values = set()
        for i, gi in enumerate(g1_multiples):
            for j, gj in enumerate(g2_multiples):
                v = add(params, gi, gj)
                phi[(i, j)] = v
                values.add(v)
        if len(values) != n:
            continue
        pairs = 0
        homomorphic = True
        for (i1, j1), v1 in phi.items():
            for (i2, j2), v2 in phi.items():
                pairs += 1
                if add(params, v1, v2) != phi[((i1 + i2) % n1, (j1 + j2) % n2)]:
                    homomorphic = False
                    break
            if not homomorphic:
                break
        if homomorphic:
            return {"is_group": True, "order": n, "invariants": [n1, n2],
                    "method": "basis-isomorphism", "checked_pairs": pairs}
    return _certificate_fallback(params, pts, budget, seed)


def _certificate_fallback(params, pts, budget, seed):
    rng = random.Random(seed)
    n = len(pts)
    for _ in range(budget):
        a, b, c = (pts[rng.randrange(n)] for _ in range(3))
        if add(params, add(params, a, b), c) != add(params, a, add(params, b, c)):
            return {"is_group": False, "order": n, "invariants": None,
                    "method": "sampled-triple",
                    "witness": {"points": _encode_points(params, (a, b, c))}}
    return {"is_group": None, "order": n, "invariants": None,
            "method": "undetermined", "checked": budget}


def classify_group_loops(p_max: int = 17, size_max: int = 300, e_min: int = 2,
                         seed: int = 0):
    """Classify which loops over Z/p^e (e >= 2, p^e <= size_max) are groups.

    The parameter sweep covers every curve equation over the prime field,
    i.e. coefficient pairs (A, B) in [0, p)^2 that define an elliptic
    curve of odd order; coefficients congruent mod p generate loops with
    identical associativity behavior at these sizes, which the exhaustive
    instances in the test suite confirm.  Returns one record per loop.
    """
    records = []
    p = 5
    while p <= p_max:
        e = e_min
        while p**e <= size_max:
            ring = RingConfig.integer(p, e)
            for a in range(p):
                for b in range(p):
                    try:
                        params = LoopParams(ring, a, b)
                    except (SingularCurve, EvenOrder):
                        continue
                    cert = group_certificate(params, seed=seed)
                    rec = {"p": p, "e": e, "A": a, "B": b, "q": params.q,
                           "order": cert["order"], "is_group": cert["is_group"],
                           "invariants": cert["invariants"],
                           "method": cert["method"]}
                    records.append(rec)
            e += 1
        p += 2
        while not _is_prime(p):
            p += 2
    return records


# ----------------------------------------------------------------------------
# cardinalities
# ----------------------------------------------------------------------------


def cardinality_report(params: LoopParams, plane_budget: int = 100_000) -> dict:
    """Counts of the loop strata, against both formulas and enumeration."""
    from .loop_core import membership

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
        on_loop = sum(1 for pt in plane_points(ring) if membership(params, pt))
        report["plane_scan_total"] = on_loop
        if "formulas_match" in report:
            report["formulas_match"] = report["formulas_match"] and on_loop == report["total"]
    return report


# ----------------------------------------------------------------------------
# verification suites (theorem-backed invariants, for the `verify` command)
# ----------------------------------------------------------------------------


def _enumerable(params: LoopParams, cap: int = 200_000) -> bool:
    return params.cardinality() <= cap


def _point_pool(params: LoopParams, rng, size: int = 4000):
    if _enumerable(params):
        return params.loop_points()
    return list({random_loop_point(params, rng) for _ in range(size)})


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
    """Reduction mod m is a loop homomorphism onto the residue curve."""
    rng = random.Random(seed)
    rp = params.residue_params
    ce = None
    if _enumerable(params) and params.cardinality() ** 2 <= budget:
        pts = params.loop_points()
        exhaustive = True
        checked = len(pts) ** 2
        for a in pts:
            ra = params.project(a)
            for b in pts:
                if add(rp, ra, params.project(b)) != params.project(add(params, a, b)):
                    ce = {"points": _encode_points(params, (a, b))}
                    break
            if ce:
                break
    else:
        exhaustive = False
        pool = _point_pool(params, rng)
        checked = min(budget, 100_000)
        for _ in range(checked):
            a = pool[rng.randrange(len(pool))]
            b = pool[rng.randrange(len(pool))]
            if add(rp, params.project(a), params.project(b)) != params.project(add(params, a, b)):
                ce = {"points": _encode_points(params, (a, b))}
                break
    return [LawReport("projection-homomorphism", ce is None, ce, checked, exhaustive, seed)]


def three_torsion_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Hessian vanishing mod m detects exactly the residue 3-torsion."""
    from .loop_core import eval_H

    rng = random.Random(seed)
    ce = None
    exhaustive = _enumerable(params, budget)
    pool = params.loop_points() if exhaustive else _point_pool(params, rng)
    checked = 0
    for pt in pool:
        checked += 1
        h_unit = eval_H(params, pt).is_unit()
        three_torsion = params.residue_order(params.project(pt)) in (1, 3)
        if h_unit == three_torsion:
            ce = {"points": _encode_points(params, (pt,))}
            break
    return [LawReport("three-torsion-hessian", ce is None, ce, checked, exhaustive, seed)]


def stratification_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Affine points lie on exactly one layer each (3 not dividing q)."""
    from .layers import Layer, layer_membership, stratify

    if params.q % 3 == 0:
        return [LawReport("stratification", True, None, 0, False, None,
                          detail=f"skipped: q = {params.q} divisible by 3")]
    ring = params.ring
    rng = random.Random(seed)
    layers = [Layer(params, t) for t in ring.ideal_elements()]
    exhaustive = params.cardinality() * ring.ideal_size <= budget
    if exhaustive:
        pool = params.loop_points()
    else:
        pool = _point_pool(params, rng)[: max(10, budget // max(1, 3 * ring.ideal_size))]
    rident = params.project(identity(params))
    ce = None
    checked = 0
    for pt in pool:
        if params.project(pt) == rident:
            continue
        checked += 1
        containing = [lay for lay in layers if layer_membership(lay, pt)]
        if len(containing) != 1 or not layer_membership(Layer(params, stratify(params, pt)), pt):
            ce = {"points": _encode_points(params, (pt,)),
                  "layers": [ring.payload_to_json(l.t) for l in containing]}
            break
    return [LawReport("stratification", ce is None, ce, checked, exhaustive, seed)]


def layer_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Per-layer group facts: size, closure, associativity, infinity part."""
    from .layers import (Layer, layer_infinity_generator, layer_isomorphism_check,
                         layer_membership, layer_points)

    ring = params.ring
    if ring.kind != INTEGER_QUOTIENT:
        return [LawReport("layers", True, None, 0, False, None,
                          detail="skipped: layer reports need an integer quotient")]
    if params.q * ring.ideal_size**3 > 40 * budget:
        return [LawReport("layers", True, None, 0, False, None,
                          detail="skipped: layer enumeration exceeds the budget")]
    rng = random.Random(seed)
    reports = []
    isz = ring.ideal_size
    expected = params.q * isz
    per_layer = max(1, budget // max(1, isz))
    size_ok = True
    assoc_ce = None
    assoc_checked = 0
    assoc_exhaustive = True
    closure_ce = None
    gen_ok = True
    val_ok = True
    val_checked = 0
    for t in ring.ideal_elements():
        lay = Layer(params, t)
        pts = layer_points(lay)
        if len(pts) != expected:
            size_ok = False
        # closure under the loop sum
        for _ in range(min(per_layer, 2000)):
            a = pts[rng.randrange(len(pts))]
            b = pts[rng.randrange(len(pts))]
            if not layer_membership(lay, add(params, a, b)):
                closure_ce = {"t": ring.payload_to_json(t),
                              "points": _encode_points(params, (a, b))}
                break
        # associativity inside the layer
        if len(pts) ** 3 <= per_layer:
            cayley = CayleyIndex(params, pts)
            bad = cayley.assoc_sweep()
            assoc_checked += len(pts) ** 3
            if bad is not None:
                assoc_ce = {"t": ring.payload_to_json(t),
                            "points": _encode_points(params, [pts[i] for i in bad])}
        else:
            assoc_exhaustive = False
            for _ in range(per_layer):
                a, b, c = (pts[rng.randrange(len(pts))] for _ in range(3))
                assoc_checked += 1
                if add(params, add(params, a, b), c) != add(params, a, add(params, b, c)):
                    assoc_ce = {"t": ring.payload_to_json(t),
                                "points": _encode_points(params, (a, b, c))}
                    break
        gen = layer_infinity_generator(lay)
        if order_of(params, gen) != isz or not layer_membership(lay, gen):
            gen_ok = False
        # no nonzero infinity point of a layer has v(Z) <= v(X)
        rident = params.project(identity(params))
        for pt in pts:
            if params.project(pt) == rident and pt != identity(params):
                val_checked += 1
                if ring.valuation(pt.z) <= ring.valuation(pt.x):
                    val_ok = False
    reports.append(LawReport("layer-cardinality", size_ok, None, isz, True, None,
                             detail=f"each layer has q * p^(e-1) = {expected} points"))
    reports.append(LawReport("layer-closure", closure_ce is None, closure_ce,
                             isz * min(per_layer, 2000), False, seed))
    reports.append(LawReport("layer-associativity", assoc_ce is None, assoc_ce,
                             assoc_checked, assoc_exhaustive, seed))
    reports.append(LawReport("layer-infinity-generator", gen_ok, None, isz, True, None,
                             detail=f"(p : 1 : Z_t) has order {isz} in every layer"))
    reports.append(LawReport("layer-infinity-valuation", val_ok, None, val_checked, True, None,
                             detail="nonzero layer points at infinity have v(Z) > v(X)"))
    if params.q % 3 and params.q % ring.p and expected ** 2 <= budget:
        ok_iso = True
        for t in ring.ideal_elements():
            ok, _ = layer_isomorphism_check(Layer(params, t))
            if not ok:
                ok_iso = False
        reports.append(LawReport("layer-group-isomorphism", ok_iso, None,
                                 isz * expected ** 2, True, None,
                                 detail=f"every layer = Z/{isz} x (residue curve)"))
    return reports


def hessian_combination_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Raw-sum closure of the zero sets of F, H, and F - t*H."""
    from .layers import Layer, hessian_closure_check, hessian_closure_sweep, layer_points

    ring = params.ring
    if params.q * ring.ideal_size**3 > 40 * budget:
        return [LawReport("hessian-closure", True, None, 0, False, None,
                          detail="skipped: layer enumeration exceeds the budget")]
    rng = random.Random(seed)
    reports = []
    # alpha*F + beta*H with (1, -t): zero set contains the layer
    ce_any = True
    pair_budget = max(10, budget // (4 * max(1, ring.ideal_size)))
    for t in ring.ideal_elements():
        lay = Layer(params, t)
        pts = layer_points(lay)
        pairs = [(pts[rng.randrange(len(pts))], pts[rng.randrange(len(pts))])
                 for _ in range(min(pair_budget, 2000))]
        if not hessian_closure_check(params, 1, RingElem(ring, ring.neg(t)), pairs):
            ce_any = False
    reports.append(LawReport("combination-closure-layers", ce_any, None,
                             ring.ideal_size * min(pair_budget, 2000), False, seed,
                             detail="(F - t*H)(P1 + P2) = 0 on raw sums, every t"))
    if count_projective(2, ring) <= 25_000:
        ok, closed, zeros = hessian_closure_sweep(params, 0, 1)
        reports.append(LawReport("combination-closure-hessian", ok, None, closed, True, None,
                                 detail=f"zero set of H ({zeros} of {count_projective(2, ring)}"
                                        f" plane points) closed under raw sums"))
    return reports


def infinity_structure_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """infinity_suite plus the forbidden-locus sweep for integer quotients."""
    from .structure import forbidden_locus_check

    reports = list(infinity_suite(params, budget, seed))
    if (params.ring.kind == INTEGER_QUOTIENT
            and params.ring.ideal_size ** 2 <= max(budget, 10_000)):
        ok = forbidden_locus_check(params)
        reports.append(LawReport("forbidden-locus", ok, None,
                                 params.ring.ideal_size ** 2, True, None,
                                 detail="multiples of (0:1:p) meet no layer"))
    return reports


def torsion_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Fiberwise geometry of the q-torsion for e <= 2."""
    from .structure import difference_group, torsion_fiber, torsion_line

    ring = params.ring
    if ring.e > 2 or ring.kind != INTEGER_QUOTIENT:
        return [LawReport("torsion-geometry", True, None, 0, False, None,
                          detail="skipped: needs an integer quotient with e <= 2")]
    q = params.q
    ident = identity(params)
    rident = params.project(ident)
    pts = params.loop_points()
    torsion = [pt for pt in pts if scalar_mul(params, q, pt) == ident]
    fibers = {}
    for pt in torsion:
        fibers.setdefault(params.project(pt), []).append(pt)
    fiber_ok = True
    line_ok = True
    diff_ok = True
    checked = 0
    for rpt, fiber in fibers.items():
        base = fiber[0]
        recovered = torsion_fiber(params, q, base)
        checked += 1
        if set(recovered) != set(fiber):
            fiber_ok = False
        diffs = difference_group(params, q, base)  # asserts subgroup + translation
        if rpt == rident:
            continue
        gen = next((d for d in diffs if order_of(params, d) == len(diffs)), None)
        if gen is None:
            continue  # difference group not cyclic: no single line carries it
        tl = torsion_line(params, base, gen)
        if not tl.degenerate and set(tl.coset) != set(fiber):
            line_ok = False
        if len(diffs) != len(fiber):
            diff_ok = False
    return [
        LawReport("torsion-fibers", fiber_ok, None, checked, True, None,
                  detail=f"{len(fibers)} fibers of the {q}-torsion"),
        LawReport("torsion-differences", diff_ok, None, checked, True, None,
                  detail="difference sets are subgroups translating onto fibers"),
        LawReport("torsion-lines", line_ok, None, checked, True, None,
                  detail="cyclic difference groups trace projective lines"),
    ]


def witness_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Every applicable witness construction yields a rank-2 broken triple."""
    reports = []
    for kind, fn in WITNESS_KINDS.items():
        try:
            w = fn(params)
        except PreconditionUnmet as exc:
            reports.append(LawReport(f"witness-{kind}", True, None, 0, False, None,
                                     detail=f"not applicable: {exc}"))
            continue
        ok = w.lhs != w.rhs
        reports.append(LawReport(f"witness-{kind}", ok, w.to_json(params), 1, False,
                                 None,
                                 detail=f"association orders differ; observed rank {w.rank}"))
    return reports


def structure_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Sampled rank monotonicity: collapsing a pair never raises the rank."""
    rng = random.Random(seed)
    pool = _point_pool(params, rng)
    cases = min(2000, budget)
    ce = None
    for _ in range(cases):
        p1, p2, p3 = (pool[rng.randrange(len(pool))] for _ in range(3))
        r_triple = AssocMatrix(params, (p1, p2, p3)).rank()
        r_pair = AssocMatrix(params, (p1, add(params, p2, p3))).rank()
        if r_pair > r_triple:
            ce = {"points": _encode_points(params, (p1, p2, p3))}
            break
    return [LawReport("rank-monotonicity", ce is None, ce, cases, False, seed)]


def congruence_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    parts = ("i", "ii", "iv") if params.ring.kind == INTEGER_QUOTIENT else ("i", "ii")
    return technical_congruences(params, cases=min(10_000, max(100, budget // 20)),
                                 seed=seed, parts=parts)


def nilpotency_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    if params.ring.e > 2:
        return [LawReport("low-nilpotency", True, None, 0, False, None,
                          detail=f"skipped: identities need e <= 2 (e = {params.ring.e})")]
    return low_nilpotency_suite(params, budget, seed)


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
    reports = []
    for name in names:
        reports.extend(VERIFY_SUITES[name](params, budget=budget, seed=seed))
    return reports
