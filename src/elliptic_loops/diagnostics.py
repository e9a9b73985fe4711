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

Every check that can either sweep its whole case space or draw seeded
cases runs through one runner, :func:`_sweep`: it sweeps exhaustively
when the case space, weighted by the cost of one case, fits the budget,
and otherwise draws cases with the seed.  A check supplies only its
space, its draws, its condition and its counterexample encoding.
"""

from __future__ import annotations

import functools
import operator
import random
from itertools import chain, islice, product, repeat

from .errors import EvenOrder, NilpotencyTooHigh, PreconditionUnmet, SingularCurve
from .loop_core import (
    LoopParams,
    _multiples,
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


def _point_ce(params: LoopParams, **fixed):
    """Counterexample encoder of a case of points, after the ``fixed`` entries."""
    return lambda case: {**fixed, "points": _encode_points(params, case)}


def _skipped(law: str, detail: str) -> LawReport:
    """A check that inspected nothing; ``detail`` says why (``verify`` prints SKIP)."""
    return LawReport(law, True, None, 0, False, None, detail)


def _sweep(law, budget, seed, encode, *, space=None, weight=1, exhaust=None, draws=None,
           first_bad=None, samples=None, rng=None, detail="") -> LawReport:
    """Run one check over its whole case space if that fits the budget, else on draws.

    Exhaustive iff ``space * weight <= budget`` (``space`` counts the cases,
    None if there is no exhaustive path; ``weight`` is the cost of one case):
    then ``exhaust()`` runs and the report counts the whole space, even when
    it stops at a counterexample.  Otherwise ``first_bad`` runs on the first
    ``samples`` (default ``max(1, budget // weight)``) of ``draws(rng)``, an
    endless generator, and the report counts the draws made, the failing one
    included; without ``draws`` the check is left out (None).  ``first_bad``
    and ``exhaust`` return ``(k, case)`` for the k-th failing case (``exhaust``
    may give any k), or None; ``encode(case)`` is the counterexample.  ``rng``
    is the stream the checks of one suite share; by default a fresh one.
    """
    if space is not None and space * weight <= budget:
        hit, checked, exhaustive = exhaust(), space, True
    elif draws is None:
        return None
    else:
        if samples is None:
            samples = max(1, budget // weight)
        hit = first_bad(islice(draws(rng or random.Random(seed)), samples))
        checked, exhaustive = (samples if hit is None else hit[0]), False
    return LawReport(law, hit is None, None if hit is None else encode(hit[1]),
                     checked, exhaustive, seed, detail)


def _merge(parts, detail: str = "") -> LawReport:
    """One report for a check run as several sweeps (per layer, or in phases)."""
    bad = next((r for r in parts if not r.holds), None)
    return LawReport(parts[0].law, bad is None, bad and bad.counterexample,
                     sum(r.checked for r in parts), all(r.exhaustive for r in parts),
                     parts[0].seed, detail)


def _draws(width: int, draw):
    """Endless draws of ``width`` independent values, each ``draw(rng)``."""
    def draws(rng):
        while True:
            yield tuple([draw(rng) for _ in range(width)])
    return draws


def _picks(pool, width: int):
    """Draws of ``width`` independent uniform members of ``pool``."""
    return _draws(width, lambda rng: rng.choice(pool))


@functools.cache
def _digit_maps(base: int):
    """``bytes.translate`` arguments that turn random bytes into digits < ``base``:
    each byte mod ``base``, with the bytes at or above the largest multiple of
    ``base`` not above 256 deleted, so every digit is equally likely."""
    keep = 256 - 256 % base
    return bytes(b % base for b in range(256)), bytes(range(keep, 256))


def _digits(rng, base: int, count: int):
    """``count`` independent, exactly uniform digits in [0, ``base``) from ``rng``.

    For ``base`` <= 256 they are rejection-sampled from ``rng.randbytes``, one
    ``bytes.translate`` per block; above 256 each digit is one ``randrange``
    (under the low-nilpotency size cap only the fiber digit at e = 1 is).
    """
    if base > 256:
        randrange = rng.randrange
        return [randrange(base) for _ in range(count)]
    table, reject = _digit_maps(base)
    out = b""
    while len(out) < count:
        need = count - len(out)
        out += rng.randbytes(need * 256 // (256 - len(reject)) + 8).translate(table, reject)
    return out[:count]


_FIBER_BATCH_MAX = 4096


def _fiber_draws(q: int, s: int, shape):
    """Endless draws of cases of indices into ``loop_points()``, fiber by fiber.

    ``loop_points()`` lists the q fibers of s = |m|^2 points each, residue
    identity first, so fiber f is the index range f*s ... f*s + s - 1 and the
    infinity fiber is ``range(s)``.  Slot c of a case lies in the case's
    ``shape[c]``-th fiber, drawn uniformly, or in the infinity fiber when
    ``shape[c]`` is None; each point is a uniform member of its fiber.  Cases
    are decoded in batches, growing to ``_FIBER_BATCH_MAX``, from two digit
    streams (:func:`_digits`): fibers in base q and offsets in base s.
    """
    n_fib = max(k for k in shape if k is not None) + 1
    width = len(shape)

    def draws(rng):
        batch = 64
        while True:
            fibs = _digits(rng, q, n_fib * batch)
            offs = _digits(rng, s, width * batch)
            starts = [list(map(operator.mul, fibs[k::n_fib], repeat(s))) for k in range(n_fib)]
            yield from zip(*[offs[c::width] if k is None
                             else map(operator.add, starts[k], offs[c::width])
                             for c, k in enumerate(shape)])
            batch = min(2 * batch, _FIBER_BATCH_MAX)
    return draws


def _law_breaker(params: LoopParams, law: str):
    """The ``first_bad`` of a law (see :func:`_check_law`) over cases of points."""
    def first_bad(cases):
        for k, case in enumerate(cases, 1):
            if not _check_law(params, law, *case):
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


def random_infinity_point(params: LoopParams, rng, min_valuation: int = 1) -> ProjPoint:
    ring = params.ring
    x = ring.random_element(rng, min_valuation)
    z = ring.random_element(rng, min_valuation)
    return ProjPoint(ring, x, ring.one, z)


def _point_pool(params: LoopParams, rng, size: int = 4000):
    """The whole loop up to 200,000 points, else ``size`` seeded random draws."""
    if params.cardinality() <= 200_000:
        return params.loop_points()
    return list({random_loop_point(params, rng) for _ in range(size)})


#: the largest table swept as byte rows: a row's entries must fit one byte each
BYTE_ROWS_MAX = 256


def _first_difference(a: bytes, b: bytes) -> int:
    """Position of the first byte where ``a`` and ``b`` (equal lengths, unequal) differ."""
    x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return len(a) - 1 - (x.bit_length() - 1) // 8


class CayleyIndex:
    """Index tables over a finite, addition-closed set of points.

    ``table[i][j]`` is the index of points[i] + points[j]; ``neg[i]`` the
    index of -points[i]; ``index`` maps a point's coordinate triple
    ``(x, y, z)`` to its index.  Built once, it turns bulk law sweeps into
    lookups, which is what makes the exhaustive checks affordable.

    Associativity is certified by Light's test from a generating set
    (:meth:`associative`), n^2 lookups per generator; only a table that
    fails it is swept over all n^3 triples, to name the first failing one.
    Tables of at most ``BYTE_ROWS_MAX`` points are checked and swept as
    ``bytes`` rows, one ``bytes.translate`` per row; larger ones as lists.
    """

    __slots__ = ("params", "points", "index", "table", "neg", "ident", "_cycles")

    def __init__(self, params: LoopParams, points):
        self.params = params
        self.points = pts = list(points)
        # tuple keys hash and compare in C, where ProjPoint keys call Python
        self.index = idx = {(pt.x, pt.y, pt.z): i for i, pt in enumerate(pts)}

        def at(pt, why):
            try:
                return idx[pt.x, pt.y, pt.z]
            except KeyError:
                raise PreconditionUnmet(f"{why} = {pt!r} is not among the points: "
                                        "the set is not closed under the loop") from None

        n = len(pts)
        table = [[0] * n for _ in range(n)]
        for i, a in enumerate(pts):
            row = table[i]
            for j in range(i, n):
                s = add(params, a, pts[j])
                try:
                    k = idx[s.x, s.y, s.z]
                except KeyError:
                    k = at(s, f"{a!r} + {pts[j]!r}")  # raises: the sum is outside
                row[j] = table[j][i] = k
        self.table = table
        self.neg = [at(neg(params, pt), f"-{pt!r}") for pt in pts]
        self.ident = at(identity(params), "the identity")
        self._cycles = {}

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
        :meth:`generators` finds a set.  Costs n^2 lookups per generator: as
        byte rows, one ``bytes.translate`` per (x, g), row (x + g) against
        row g mapped through row x.
        """
        table = self.table
        n = len(table)
        if gens is None:
            gens = self.generators()
        if n > BYTE_ROWS_MAX:
            return all(table[tx[g]] == [tx[c] for c in table[g]] for tx in table for g in gens)
        pad = bytes(BYTE_ROWS_MAX - n)
        rows = [bytes(r) for r in table]
        for tx, rx in zip(table, rows):
            x_map = rx + pad
            for g in gens:
                if rows[tx[g]] != rows[g].translate(x_map):
                    return False
        return True

    def assoc_sweep(self):
        """First non-associative triple (i, j, c) of indices, or None.

        None comes only from Light's test (:meth:`associative`).  A table
        that fails it is swept over all n^3 triples for the first failing
        one: as byte rows, the block of a fixed i is one comparison, row
        (i + j) for every j, joined, against the whole table mapped through
        row i.
        """
        if self.associative():
            return None
        table = self.table
        n = len(table)
        if n > BYTE_ROWS_MAX:
            return self._assoc_by_lists()
        pad = bytes(BYTE_ROWS_MAX - n)
        rows = [bytes(r) for r in table]
        flat = b"".join(rows)  # flat[j*n + c] = j + c
        for i, ti in enumerate(table):
            lhs = b"".join([rows[k] for k in ti])  # (i + j) + c
            rhs = flat.translate(rows[i] + pad)    # i + (j + c)
            if lhs != rhs:
                return (i, *divmod(_first_difference(lhs, rhs), n))
        raise AssertionError("Light's test failed, yet every triple associates")

    def moufang_sweep(self):
        """First triple (i, j, k) of indices breaking the Moufang identity
        (P + (Q + R)) + R = ((P + R) + R) + Q, or None; full n^3 sweep.

        As byte rows, a fixed (i, k) is one comparison over all j: column k
        mapped through row i, then through column k, against row
        ((i + k) + k).  The first failing j of each k is kept, so the triple
        returned is the first in (i, j, k) order, as in the list sweep.
        """
        table = self.table
        n = len(table)
        if n > BYTE_ROWS_MAX:
            return self._moufang_by_lists()
        pad = bytes(BYTE_ROWS_MAX - n)
        rows = [bytes(r) for r in table]
        flat = b"".join(rows)
        cols = [flat[k::n] for k in range(n)]  # cols[k][j] = j + k
        col_maps = [c + pad for c in cols]
        for i, ti in enumerate(table):
            row_map = rows[i] + pad
            first = None
            for k, ck in enumerate(cols):
                lhs = ck.translate(row_map).translate(col_maps[k])
                rhs = rows[table[ti[k]][k]]
                if lhs != rhs:
                    j = _first_difference(lhs, rhs)
                    if first is None or j < first[0]:
                        first = (j, k)
            if first is not None:
                return (i, *first)
        return None

    def _assoc_by_lists(self):
        """:meth:`assoc_sweep` over the list table: for any size, and the reference."""
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

    def _moufang_by_lists(self):
        """:meth:`moufang_sweep` over the list table: for any size, and the reference."""
        t = self.table
        n = len(t)
        for i in range(n):
            ti = t[i]
            for j in range(n):
                tj = t[j]
                for k in range(n):
                    if t[ti[tj[k]]][k] != t[t[ti[k]][k]][j]:
                        return (i, j, k)
        return None


def _table_hit(cayley: CayleyIndex, bad):
    """An ``exhaust`` result from a sweep's triple of indices (or None)."""
    return None if bad is None else (None, [cayley.points[i] for i in bad])


def _assoc_table(cayley: CayleyIndex, proofs: list):
    """``exhaust`` of associativity over index tables, by :meth:`CayleyIndex.assoc_sweep`.

    Appends to ``proofs`` how the table was decided: (generators, lookups)
    when Light's test certified it, None when it was swept in full.
    """
    bad = cayley.assoc_sweep()
    if bad is None:
        k = len(cayley.generators())
        proofs.append((k, k * len(cayley.table) ** 2))
    else:
        proofs.append(None)
    return _table_hit(cayley, bad)


def _assoc_detail(proofs: list) -> str:
    """The detail of a report decided by the tables in ``proofs`` (see _assoc_table)."""
    certs = [p for p in proofs if p]
    swept = len(proofs) - len(certs)
    parts = []
    if certs:
        on = f" on {len(certs)} tables" if len(certs) > 1 else ""
        parts.append(f"Light's test{on}: {sum(g for g, _ in certs)} generators, "
                     f"{sum(k for _, k in certs):,} lookups")
    if swept:
        parts.append("full sweep" + (f" on {swept} tables" if swept > 1 else ""))
    return "; ".join(parts)


# ----------------------------------------------------------------------------
# the seven loop laws
# ----------------------------------------------------------------------------


def _word_set(params, p, q):
    words = [
        identity(params), p, q, add(params, p, q), add(params, p, p),
        add(params, q, q), neg(params, p), neg(params, q), sub(params, p, q),
    ]
    return list(dict.fromkeys(words))


def _check_law(params, law, p, q, r=None) -> bool:
    """Whether the law holds at the pair (p, q), or at the triple (p, q, r).

    For power-associativity q and r are the exponents; for unique
    solvability this checks that X = Q - P solves P + X = Q.
    """
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
    if law == "full-associative":
        return add(params, add(params, p, q), r) == add(params, p, add(params, q, r))
    if law == "moufang":
        lhs = add(params, add(params, p, add(params, q, r)), r)
        rhs = add(params, add(params, add(params, p, r), r), q)
        return lhs == rhs
    if law == "power-associative":
        lhs = add(params, scalar_mul(params, q, p), scalar_mul(params, r, p))
        return lhs == scalar_mul(params, q + r, p)
    if law == "latin-square":
        return add(params, p, sub(params, q, p)) == q
    raise ValueError(law)


def _law_report_points(params, law, pts, budget, seed, cayley) -> LawReport:
    """A law on pairs, or on triples (full-associative, moufang) of points.

    ``cayley()`` gives the index tables of the whole loop, which the
    exhaustive triple sweeps run over.
    """
    width = 3 if law in ("full-associative", "moufang") else 2
    first_bad = _law_breaker(params, law)
    proofs = []

    def exhaust():
        if width == 2:
            return first_bad(product(params.loop_points(), repeat=2))
        t = cayley()
        if law == "full-associative":
            return _assoc_table(t, proofs)
        return _table_hit(t, t.moufang_sweep())

    rep = _sweep(law, budget, seed, _point_ce(params), space=params.cardinality() ** width,
                 weight=360 if law == "diassociative" else 1, exhaust=exhaust,
                 draws=_picks(pts, width), first_bad=first_bad)
    rep.detail = _assoc_detail(proofs)
    return rep


def _law_report_power(params, pts, budget, seed, max_exp=200) -> LawReport:
    def draws(rng):
        n, randrange = len(pts), rng.randrange
        while True:
            yield (pts[randrange(n)], randrange(-max_exp, max_exp + 1),
                   randrange(-max_exp, max_exp + 1))

    def encode(case):
        return {"points": _encode_points(params, case[:1]), "exponents": list(case[1:])}

    return _sweep("power-associative", budget, seed, encode,
                  weight=4 * max(params.ring.e, 8), draws=draws,
                  first_bad=_law_breaker(params, "power-associative"))


def _law_report_latin(params, pts, budget, seed) -> LawReport:
    """Unique solvability: rows are bijections and the inverse-shift solves.

    Existence of a solution to P + X = Q is checked through weak
    associativity (X = Q - P works), uniqueness through row injectivity.
    A case is one cell (P, Q); cells come a whole row at a time, and a row
    is checked for collisions at its last cell.
    """
    def first_bad(cases, n=len(pts)):
        row = set()
        for k, (p, q) in enumerate(cases, 1):
            row.add(add(params, p, q))
            if not _check_law(params, "latin-square", p, q):
                return k, (p, q)
            if k % n == 0:
                if len(row) != n:
                    return k, (p,)
                row = set()

    def draws(rng):
        while True:
            p = pts[rng.randrange(len(pts))]
            for q in pts:
                yield p, q

    def encode(case):
        return {"points": _encode_points(params, case),
                "relation": "solution" if len(case) == 2 else "row-collision"}

    n = params.cardinality()
    return _sweep("latin-square", budget, seed, encode, space=n * n,
                  exhaust=lambda: first_bad(product(params.loop_points(), repeat=2), n),
                  draws=draws, first_bad=first_bad,
                  samples=max(1, budget // (2 * len(pts))) * len(pts))


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
    pts = _point_pool(params, random.Random(seed))
    # one whole-loop index per call, built when the first triple sweep needs it
    cayley = functools.cache(lambda: CayleyIndex(params, params.loop_points()))
    reports = []
    for law in laws:
        if law == "power-associative":
            reports.append(_law_report_power(params, pts, budget, seed))
        elif law == "latin-square":
            reports.append(_law_report_latin(params, pts, budget, seed))
        else:
            reports.append(_law_report_points(params, law, pts, budget, seed, cayley))
    return reports


def replay(params: LoopParams, report) -> bool:
    """Re-evaluate a report's counterexample; True when it still violates."""
    if isinstance(report, LawReport):
        report = report.to_json()
    law, ce = report["law"], report["counterexample"]
    if ce is None:
        raise PreconditionUnmet("report carries no counterexample to replay")
    case = _decode_points(params, ce["points"]) + ce.get("exponents", [])
    if law in ("infinity-associativity", "layer-associativity"):
        law = "full-associative"
    if ce.get("relation") == "row-collision":
        row = {add(params, case[0], q) for q in params.loop_points()}
        return len(row) != params.cardinality()
    return not _check_law(params, law, *case)


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
    n_pts = len(pts)
    cayley = CayleyIndex(params, pts)
    t, nn = cayley.table, cayley.neg
    s = ring.ideal_size ** 2  # fiber f is range(f * s, f * s + s): see _fiber_draws
    fibers = [range(f * s, f * s + s) for f in range(params.q)]
    inf = fibers[0]

    def encode(case):  # cases hold indices into pts
        return {"points": _encode_points(params, [pts[i] for i in case])}

    def sweep(name, first_bad, draws, space=None, cases=None, **kw):
        return _sweep(name, budget, seed, encode, space=space, exhaust=lambda: first_bad(cases()),
                      draws=draws, first_bad=first_bad, rng=rng, **kw)

    def conv(a, b, c):
        return t[t[a][b]][nn[c]]

    # P + (Q + R) == (P + Q) + R with Q, R at infinity
    translate_draws = _fiber_draws(params.q, s, (0, None, None))

    def translate_bad(cases):
        for k, (i, q, r) in enumerate(cases, 1):
            if t[i][t[q][r]] != t[t[i][q]][r]:
                return k, (i, q, r)

    # (P + R1) - (Q + R2) == (P - Q) + (R1 - R2) with pi(P) = pi(Q)
    difference_draws = _fiber_draws(params.q, s, (0, 0, None, None))

    def difference_bad(cases):
        for k, (i, j, r1, r2) in enumerate(cases, 1):
            if t[t[i][r1]][nn[t[j][r2]]] != t[t[i][nn[j]]][t[r1][nn[r2]]]:
                return k, (i, j, r1, r2)

    # (P + Q) - R == P + (Q - R) with pi(P) = pi(Q) = pi(R)
    triple_draws = _fiber_draws(params.q, s, (0, 0, 0))

    def triple_bad(cases):
        for n, (i, j, k) in enumerate(cases, 1):
            if t[t[i][j]][nn[k]] != t[i][t[j][nn[k]]]:
                return n, (i, j, k)

    # (P1+P2-P3) + (Q1+Q2-Q3) == (P1+Q1) + (P2+Q2) - (P3+Q3), fiberwise
    exchange_draws = _fiber_draws(params.q, s, (0, 0, 0, 1, 1, 1))

    def exchange_bad(cases):
        for k, (p1, p2, p3, q1, q2, q3) in enumerate(cases, 1):
            if t[conv(p1, p2, p3)][conv(q1, q2, q3)] != conv(t[p1][q1], t[p2][q2], t[p3][q3]):
                return k, (p1, p2, p3, q1, q2, q3)

    triple_space = sum(len(f) ** 3 for f in fibers)
    reports = [
        sweep("translate-by-infinity-pair", translate_bad, translate_draws,
              n_pts * len(inf) ** 2, lambda: product(range(n_pts), inf, inf)),
        sweep("difference-across-fiber", difference_bad, difference_draws,
              sum(len(f) ** 2 for f in fibers) * len(inf) ** 2,
              lambda: chain.from_iterable(product(f, f, inf, inf) for f in fibers)),
        sweep("triple-in-fiber", triple_bad, triple_draws, triple_space,
              lambda: chain.from_iterable(product(f, f, f) for f in fibers)),
        sweep("fiberwise-sum-exchange", exchange_bad, exchange_draws,
              detail="six-point space exceeds any exhaustive budget"),
    ]

    # m*(P1+P2-P3) == m*P1 + m*P2 - m*P3, fiberwise; exhaustive in the
    # triple for a spread of multipliers when that fits four budgets, then
    # sampled jointly
    multipliers = sorted({0, 1, 2, 3, 5, 7, ring.p, 2 * ring.p + 1, n_pts - 1, n_pts + 2})

    def multiple_all():
        for m in multipliers:
            mul_map = [cayley.mul(i, m) for i in range(n_pts)]
            for fib in fibers:
                for i in fib:
                    for j in fib:
                        tij = t[t[i][j]]
                        for k in fib:
                            if mul_map[tij[nn[k]]] != conv(mul_map[i], mul_map[j], mul_map[k]):
                                return None, (m, i, j, k)

    def multiple_draws(rng):
        randrange, span = rng.randrange, 2 * n_pts
        for case in triple_draws(rng):
            yield randrange(-span, span), *case

    def multiple_bad(cases):
        mul = cayley.mul
        for n, (m, i, j, k) in enumerate(cases, 1):
            if mul(conv(i, j, k), m) != conv(mul(i, m), mul(j, m), mul(k, m)):
                return n, (m, i, j, k)

    def multiple_ce(case):
        return {**encode(case[1:]), "multiplier": case[0]}

    grid = _sweep("multiple-of-fiber-sum", 4 * budget, seed, multiple_ce,
                  space=triple_space * len(multipliers), exhaust=multiple_all)
    tail = _sweep("multiple-of-fiber-sum", budget, seed, multiple_ce, draws=multiple_draws,
                  first_bad=multiple_bad, weight=8, rng=rng)
    reports.append(_merge([r for r in (grid, tail) if r],
                          f"exhaustive triples for multipliers {multipliers}" if grid else ""))
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
    e = ring.e
    expected = ring.ideal_size**2
    encode = _point_ce(params)

    def fresh(width):  # draws of random points at infinity
        return _draws(width, lambda rng: random_infinity_point(params, rng))

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
                     exhaust=lambda: undecomposable(zip(inf_pts), set()), draws=fresh(1),
                     first_bad=undecomposable, samples=min(budget, 2000), rng=rng)
        rep.detail = (f"decomposition is a bijection onto [0,{ring.ideal_size})^2"
                      if rep.exhaustive else "sampled decompositions recompose")
        reports.append(rep)
    else:
        reports += [_skipped(name, "not applicable: needs an integer quotient")
                    for name in ("infinity-generator-orders", "infinity-generator-independence",
                                 "infinity-coordinate-bijection")]

    # associativity
    if e <= 5:
        proofs = []
        rep = _sweep("infinity-associativity", budget, seed, encode,
                     space=expected**3 if enumerable else None,
                     exhaust=lambda: _assoc_table(CayleyIndex(params, inf_pts), proofs),
                     draws=_picks(inf_pts, 3) if enumerable else fresh(3),
                     first_bad=_law_breaker(params, "full-associative"), rng=rng)
        rep.detail = _assoc_detail(proofs)
        reports.append(rep)
    else:
        w = witness_inf(params)
        reports.append(LawReport("infinity-associativity", False,
                                 w.to_json(params), 1, True, None,
                                 detail="guaranteed non-associative from e = 6 on"))

    # coordinatewise addition (an isomorphism onto (m, +)^2 for e <= 3)
    def additive(a, b):
        s = add(params, a, b)
        return s.x == ring.add(a.x, b.x) and s.z == ring.add(a.z, b.z)

    def non_additive(cases):
        for k, (a, b) in enumerate(cases, 1):
            if not additive(a, b):
                return k, (a, b)

    def observe(cases):  # no theorem past e = 3: count, never fail
        counts.append(sum(additive(a, b) for a, b in cases))

    counts = []
    rep = _sweep("infinity-coordinates-additive", budget, seed, encode,
                 space=expected**2 if enumerable and e <= 3 else None,
                 exhaust=lambda: non_additive(product(inf_pts, repeat=2)), draws=fresh(2),
                 first_bad=non_additive if e <= 3 else observe,
                 samples=None if e <= 3 else min(budget, 2000), rng=rng)
    if counts:
        rep.detail = (f"no theorem at e = {e}; observed additive on"
                      f" {counts[0]}/{rep.checked} sampled pairs")
    reports.append(rep)
    return reports


# ----------------------------------------------------------------------------
# technical congruences for infinity points
# ----------------------------------------------------------------------------


def _congruent(ring, pt, x, z, k) -> bool:
    """Whether pt = (X : 1 : Z) has X = x and Z = z modulo m^k."""
    return (ring.valuation(ring.sub(pt.x, x)) >= min(k, ring.e)
            and ring.valuation(ring.sub(pt.z, z)) >= min(k, ring.e))


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

    def draws(rng):
        while True:
            k = rng.randrange(1, max(2, e))
            x1, z1, x2, z2 = (ring.random_element(rng, k) for _ in range(4))
            if part == "ii":
                f = rng.randrange(k, e + 1)
                extra = (f, ring.random_element(rng, f), ring.random_element(rng, f))
            else:
                extra = (rng.randrange(-ring.modulus, ring.modulus),) if part == "iv" else ()
            yield k, x1, z1, x2, z2, extra

    def first_bad(cases):
        for c, (k, x1, z1, x2, z2, extra) in enumerate(cases, 1):
            p1 = ProjPoint(ring, x1, ring.one, z1)
            p2 = ProjPoint(ring, x2, ring.one, z2)
            s = add(params, p1, p2)
            if part == "i":
                ok = _congruent(ring, s, ring.add(x1, x2), ring.add(z1, z2), 3 * k)
                case = {"k": k}
            elif part == "ii":
                f, dx, dz = extra
                moved = add(params, ProjPoint(ring, ring.add(x1, dx), ring.one,
                                              ring.add(z1, dz)), p2)
                ok = _congruent(ring, moved, ring.add(s.x, dx), ring.add(s.z, dz), f + 2 * k)
                case = {"k": k, "f": f,
                        "deltas": [ring.payload_to_json(dx), ring.payload_to_json(dz)]}
            else:
                (n,) = extra
                bound = 3 * k + min(e, ring.valuation(ring.from_int(n))) - 1
                ok = _congruent(ring, scalar_mul(params, n, p1), ring.mul_int(n, x1),
                                ring.mul_int(n, z1), bound)
                case = {"k": k, "n": n}
            if not ok:
                case["points"] = _encode_points(params, (p1, p2))
                return c, case

    reports = []
    for part in parts:  # draws and first_bad read the current part
        reports.append(_sweep(f"congruence-{part}", cases, seed, lambda case: case,
                              draws=draws, first_bad=first_bad, samples=cases, rng=rng))
    return reports


# ----------------------------------------------------------------------------
# group certificates and classification
# ----------------------------------------------------------------------------


def group_certificate(params: LoopParams, budget: int = 200_000, seed: int = 0) -> dict:
    """Decide whether the loop is a group, with an explicit reason.

    Groups are certified by an isomorphism with Z/n1 x Z/n2, read off the
    whole loop's index table (one ``add`` per unordered pair): a basis
    G1, G2 of orders n1, n2 with n1 * n2 = n is searched, and the map
    (i, j) -> i*G1 + j*G2 is checked to be a bijection, which proves that
    G1 and G2 generate the loop.  Light's test on {G1, G2}
    (:meth:`CayleyIndex.associative`) then proves the loop associative, so
    an abelian group (the law is symmetric), and the bijection an
    isomorphism.  Non-groups are certified by a concrete non-associative
    triple (a structured witness when one applies, a seeded search
    otherwise).
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

    pts = params.loop_points()

    def search():  # the seeded search for a non-associative triple
        rep = _sweep("full-associative", budget, seed, _point_ce(params), draws=_picks(pts, 3),
                     first_bad=_law_breaker(params, "full-associative"))
        if not rep.holds:
            return non_group("sampled-triple", rep.counterexample)
        return {"is_group": None, "order": n, "invariants": None,
                "method": "undetermined", "checked": rep.checked}

    orders = [order_of(params, pt) for pt in pts]
    n2 = max(orders)
    n1 = n // n2
    if n1 * n2 != n or (n1 > 1 and n2 % n1):
        return search()

    cayley = CayleyIndex(params, pts)
    table = cayley.table
    g2 = orders.index(n2)
    g2_multiples = cayley.multiples(g2)
    candidates = [i for i, o in enumerate(orders) if o == n1] if n1 > 1 else [cayley.ident]
    for g1 in candidates:
        values = {table[a][b] for a in cayley.multiples(g1) for b in g2_multiples}
        if len(values) != n:
            continue
        if cayley.associative([g1, g2]):
            return {"is_group": True, "order": n, "invariants": [n1, n2],
                    "method": "basis-isomorphism", "checked_pairs": n * n}
        return search()  # not associative, so no basis is an isomorphism
    return search()


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
    rp, proj = params.residue_params, params.project

    def first_bad(cases):
        for k, (a, b) in enumerate(cases, 1):
            if add(rp, proj(a), proj(b)) != proj(add(params, a, b)):
                return k, (a, b)

    return [_sweep("projection-homomorphism", budget, seed, _point_ce(params),
                   space=params.cardinality() ** 2,
                   exhaust=lambda: first_bad(product(params.loop_points(), repeat=2)),
                   draws=_picks(_point_pool(params, rng), 2), first_bad=first_bad,
                   samples=min(budget, 100_000), rng=rng)]


def three_torsion_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Hessian vanishing mod m detects exactly the residue 3-torsion."""
    from .loop_core import eval_H

    def first_bad(cases):
        for k, (pt,) in enumerate(cases, 1):
            if eval_H(params, pt).is_unit() == (params.pi_order(pt) in (1, 3)):
                return k, (pt,)

    return [_sweep("three-torsion-hessian", budget, seed, _point_ce(params),
                   space=params.cardinality(),
                   exhaust=lambda: first_bad(zip(params.loop_points())),
                   draws=_draws(1, lambda rng: random_loop_point(params, rng)),
                   first_bad=first_bad)]


def stratification_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Affine points lie on exactly one layer each (3 not dividing q)."""
    from .layers import Layer, all_layers, layer_membership, stratify

    if params.q % 3 == 0:
        return [_skipped("stratification", f"skipped: q = {params.q} divisible by 3")]
    ring = params.ring
    layers = all_layers(params)
    rident = params.project(identity(params))
    affine = [rpt for rpt in params.residue_points if rpt != rident]

    def first_bad(cases):
        for k, (pt,) in enumerate(cases, 1):
            containing = [lay for lay in layers if layer_membership(lay, pt)]
            own = Layer(params, stratify(params, pt))
            if len(containing) != 1 or not layer_membership(own, pt):
                return k, (pt, containing)

    def encode(case):
        return {"points": _encode_points(params, case[:1]),
                "layers": [ring.payload_to_json(lay.t) for lay in case[1]]}

    return [_sweep("stratification", budget, seed, encode,
                   space=len(affine) * ring.ideal_size**2, weight=ring.ideal_size,
                   exhaust=lambda: first_bad((pt,) for pt in params.loop_points()
                                             if params.project(pt) != rident),
                   draws=_draws(1, lambda rng: random_loop_point(params, rng, affine)),
                   first_bad=first_bad)]


def layer_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Per-layer group facts: size, closure, associativity, infinity part."""
    from .layers import (Layer, all_layers, layer_infinity_generator,
                         layer_isomorphism_check, layer_membership, layer_points)

    ring = params.ring
    if ring.kind != INTEGER_QUOTIENT:
        return [_skipped("layers", "skipped: layer reports need an integer quotient")]
    if params.q * ring.ideal_size**3 > 40 * budget:
        return [_skipped("layers", "skipped: layer enumeration exceeds the budget")]
    rng = random.Random(seed)
    isz = ring.ideal_size
    expected = params.q * isz
    per_layer = max(1, budget // max(1, isz))
    size_ok = gen_ok = val_ok = True
    closure, assoc, proofs = [], [], []
    val_checked = 0
    ident = identity(params)
    rident = params.project(ident)
    for t in ring.ideal_elements():
        lay = Layer(params, t)
        pts = layer_points(lay)
        size_ok = size_ok and len(pts) == expected
        encode = _point_ce(params, t=ring.payload_to_json(t))

        def outside(cases):  # closure under the loop sum
            for k, (a, b) in enumerate(cases, 1):
                if not layer_membership(lay, add(params, a, b)):
                    return k, (a, b)

        closure.append(_sweep("layer-closure", per_layer, seed, encode,
                              draws=_picks(pts, 2), first_bad=outside,
                              samples=min(per_layer, 2000), rng=rng))
        assoc.append(_sweep("layer-associativity", per_layer, seed, encode,
                            space=len(pts) ** 3,
                            exhaust=lambda: _assoc_table(CayleyIndex(params, pts), proofs),
                            draws=_picks(pts, 3), rng=rng,
                            first_bad=_law_breaker(params, "full-associative")))
        gen = layer_infinity_generator(lay)
        if order_of(params, gen) != isz or not layer_membership(lay, gen):
            gen_ok = False
        # no nonzero infinity point of a layer has v(Z) <= v(X)
        for pt in pts:
            if params.project(pt) == rident and pt != ident:
                val_checked += 1
                if ring.valuation(pt.z) <= ring.valuation(pt.x):
                    val_ok = False
    reports = [
        LawReport("layer-cardinality", size_ok, None, isz, True, None,
                  detail=f"each layer has q * p^(e-1) = {expected} points"),
        _merge(closure),
        _merge(assoc, _assoc_detail(proofs)),
        LawReport("layer-infinity-generator", gen_ok, None, isz, True, None,
                  detail=f"(p : 1 : Z_t) has order {isz} in every layer"),
        LawReport("layer-infinity-valuation", val_ok, None, val_checked, True, None,
                  detail="nonzero layer points at infinity have v(Z) > v(X)"),
    ]
    if params.q % 3 == 0 or params.q % ring.p == 0:
        reports.append(_skipped("layer-group-isomorphism",
                                f"not applicable: q = {params.q} divisible by 3 or by p"))
    elif expected ** 2 > budget:
        reports.append(_skipped("layer-group-isomorphism", "skipped: exceeds the budget"))
    else:
        ok_iso = all(layer_isomorphism_check(lay)[0] for lay in all_layers(params))
        reports.append(LawReport("layer-group-isomorphism", ok_iso, None,
                                 isz * expected ** 2, True, None,
                                 detail=f"every layer = Z/{isz} x (residue curve)"))
    return reports


def hessian_combination_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Raw-sum closure of the zero sets of F, H, and F - t*H."""
    from .layers import Layer, hessian_closure_sweep, layer_points

    ring = params.ring
    if params.q * ring.ideal_size**3 > 40 * budget:
        return [_skipped("hessian-closure", "skipped: layer enumeration exceeds the budget")]
    rng = random.Random(seed)
    # alpha*F + beta*H with (1, -t): zero set contains the layer
    pair_budget = min(2000, max(10, budget // (4 * max(1, ring.ideal_size))))
    parts = []
    for t in ring.ideal_elements():
        def leaves(cases):
            pairs = list(cases)
            ok, k, _ = hessian_closure_sweep(params, 1, RingElem(ring, ring.neg(t)), pairs)
            return None if ok else (k, pairs[k - 1])

        encode = _point_ce(params, t=ring.payload_to_json(t))
        parts.append(_sweep("combination-closure-layers", budget, seed, encode,
                            draws=_picks(layer_points(Layer(params, t)), 2), first_bad=leaves,
                            samples=pair_budget, rng=rng))
    reports = [_merge(parts, "(F - t*H)(P1 + P2) = 0 on raw sums, every t")]
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
    if params.ring.kind != INTEGER_QUOTIENT:
        reports.append(_skipped("forbidden-locus", "not applicable: needs an integer quotient"))
    elif params.ring.ideal_size ** 2 > max(budget, 10_000):
        reports.append(_skipped("forbidden-locus", "skipped: exceeds the budget"))
    else:
        reports.append(LawReport("forbidden-locus", forbidden_locus_check(params), None,
                                 params.ring.ideal_size ** 2, True, None,
                                 detail="multiples of (0:1:p) meet no layer"))
    return reports


def torsion_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Fiberwise geometry of the q-torsion for e <= 2."""
    from .structure import difference_group, torsion_fiber, torsion_line

    ring = params.ring
    if ring.e > 2 or ring.kind != INTEGER_QUOTIENT:
        return [_skipped("torsion-geometry", "skipped: needs an integer quotient with e <= 2")]
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
            reports.append(_skipped(f"witness-{kind}", f"not applicable: {exc}"))
            continue
        ok = w.lhs != w.rhs
        # the case space is the one constructed triple, so one case is all of it
        reports.append(LawReport(f"witness-{kind}", ok, w.to_json(params), 1, True, None,
                                 detail=f"association orders differ; observed rank {w.rank}"))
    return reports


def structure_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    """Sampled rank monotonicity: collapsing a pair never raises the rank."""
    rng = random.Random(seed)

    def first_bad(cases):
        for k, (p1, p2, p3) in enumerate(cases, 1):
            r_triple = AssocMatrix(params, (p1, p2, p3)).rank()
            if AssocMatrix(params, (p1, add(params, p2, p3))).rank() > r_triple:
                return k, (p1, p2, p3)

    return [_sweep("rank-monotonicity", budget, seed, _point_ce(params),
                   draws=_picks(_point_pool(params, rng), 3), first_bad=first_bad,
                   samples=min(2000, budget), rng=rng)]


def congruence_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    cases = min(10_000, max(100, budget // 20))
    if params.ring.kind == INTEGER_QUOTIENT:
        return technical_congruences(params, cases=cases, seed=seed)
    return technical_congruences(params, cases=cases, seed=seed, parts=("i", "ii")) + [
        _skipped("congruence-iv", "not applicable: needs an integer quotient")]


def nilpotency_suite(params: LoopParams, budget: int = 200_000, seed: int = 0):
    if params.ring.e > 2:
        return [_skipped("low-nilpotency",
                         f"skipped: identities need e <= 2 (e = {params.ring.e})")]
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
