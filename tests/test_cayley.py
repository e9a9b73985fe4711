"""Index tables: Light's test decides, and names its own failing triple.

A law is decided on an index table in one of two ways.  Light's test on a
generating set proves associativity or stops at its first failing triple
(x, g, y), which ``assoc_sweep`` reports; with commuting generators it also
proves the Moufang identity (P + (Q + R)) + R = ((P + R) + R) + Q, which
every commutative semigroup satisfies.  Every other law, Moufang on a table
that is not abelian among them, is decided by ``law_suite`` on the simplex
probes of its fiber tuples, read off the table's indices; on a table with no
points behind it, the Moufang sweep here runs over all of its indices.
Light's test runs as ``bytes`` rows on
tables of at most ``BYTE_ROWS_MAX`` points, as lists above.  Its verdicts
must agree with the full n^3 list sweeps kept here as the reference
(``assoc_by_lists``), on both sides of that cutoff and on a table that is
associative but not symmetric, and every triple it names must fail in the
table; the Moufang sweep must name the first triple of ``moufang_by_definition``.
"""

from __future__ import annotations

import random
import re
from functools import partial
from itertools import combinations_with_replacement, permutations, product

import pytest

from elliptic_loops import CayleyIndex, LoopParams, PreconditionUnmet, ProjPoint, RingConfig
from elliptic_loops import diagnostics, loop_core, replay, structure
from elliptic_loops.errors import DegenerateSum, EllipticLoopError
from elliptic_loops.diagnostics import BYTE_ROWS_MAX, law_suite, laws_suite
from elliptic_loops.layers import Layer, layer_points


def params_for(p, e, a, b):
    return LoopParams(RingConfig.integer(p, e), a, b)


def symmetric(table):
    return table == [list(col) for col in zip(*table)]


def assoc_by_lists(table):
    """The first (i, j, c) with (i + j) + c != i + (j + c), swept over all n^3
    triples as lists: the reference for Light's test."""
    n = len(table)
    for i in range(n):
        ti = table[i]
        for j in range(n):
            lhs = table[ti[j]]
            rhs = [ti[c] for c in table[j]]
            if lhs != rhs:
                return i, j, next(c for c in range(n) if lhs[c] != rhs[c])
    return None


def fails(table, triple):
    i, j, c = triple
    return table[table[i][j]][c] != table[i][table[j][c]]


def assert_sweeps_match_lists(cayley):
    """Light's verdicts agree with the list sweeps; any triple it names fails."""
    reference = assoc_by_lists(cayley.table)
    assert cayley.associative() == (reference is None)
    assert cayley.abelian() == (reference is None and symmetric(cayley.table))
    bad = cayley.assoc_sweep()
    assert (bad is None) == (reference is None)
    assert bad is None or (fails(cayley.table, bad) and bad[1] in cayley._light[0])


def index_table(table, ident):
    """A CayleyIndex over a hand-written table, with no points behind it."""
    cayley = CayleyIndex.__new__(CayleyIndex)
    cayley.table, cayley.ident, cayley._cycles, cayley._light = table, ident, {}, None
    cayley.neg = [row.index(ident) for row in table]
    return cayley


def moufang_over_indices(cayley):
    """The first triple failing Moufang in a sweep of all the table's indices, or None."""
    holds = partial(diagnostics._law_holds, diagnostics._ops(None, cayley), "moufang")
    hit = diagnostics._breaker(holds)(product(range(len(cayley.table)), repeat=3))
    return hit and hit[1]


def left_normed_closure(table, gens):
    """Every index reached from ``gens`` by x -> x + s, s in ``gens``."""
    reached, frontier = set(gens), set(gens)
    while frontier:
        frontier = {table[x][s] for x in frontier for s in gens} - reached
        reached |= frontier
    return reached


@pytest.mark.parametrize("inst", [(5, 2, 2, 1), (7, 2, 0, 2)])
def test_byte_sweeps_match_lists_on_every_layer(inst):
    """Light's test, as byte rows here, and both sweeps agree with the list sweeps."""
    params = params_for(*inst)
    for t in params.ring.ideal_elements():
        cayley = CayleyIndex(params, layer_points(Layer(params, t)))
        assert cayley.assoc_sweep() is None  # every layer is a group
        assert_sweeps_match_lists(cayley)
        gens = cayley.generators()
        assert cayley.ident not in gens
        assert left_normed_closure(cayley.table, gens) == set(range(len(cayley.table)))


# whole loops of 75 to 245 points: two groups, then non-groups
@pytest.mark.parametrize("inst", [(5, 2, 4, 2), (7, 2, 0, 4), (5, 2, 3, 2), (5, 2, 2, 1),
                                  (5, 2, 1, 1), (7, 2, 1, 1), (7, 2, 4, 1)])
def test_byte_sweeps_match_lists_on_whole_loops(inst):
    """Light's test, as byte rows here, agrees with the list sweeps, and the Moufang
    report over the table with the Moufang identity read off it by definition."""
    params = params_for(*inst)
    pts = params.loop_points()
    cayley = CayleyIndex(params, pts)
    n = len(cayley.table)
    assert n <= BYTE_ROWS_MAX
    assert_sweeps_match_lists(cayley)
    bad = moufang_by_definition(cayley.table)
    (rep,) = law_suite(params, ("moufang",), budget=n**3)
    assert rep.exhaustive and rep.holds == (bad is None)
    assert bad is None or rep.counterexample == {
        "points": diagnostics._encode_points(params, [pts[k] for k in bad])}
    gens = cayley.generators()
    assert cayley.ident not in gens
    assert left_normed_closure(cayley.table, gens) == set(range(len(cayley.table)))


def cyclic_table(n, corrupt=None):
    """An index table of Z/n, optionally with one cell (i, j) set to i + j + 1."""
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    if corrupt:
        i, j = corrupt
        table[i][j] = (i + j + 1) % n
    return index_table(table, 0)


@pytest.mark.parametrize("n", [BYTE_ROWS_MAX, BYTE_ROWS_MAX + 1])
def test_cyclic_tables_on_both_sides_of_the_byte_row_cutoff(n):
    clean = cyclic_table(n)
    assert clean.assoc_sweep() is None
    assert clean.abelian()  # so Light's test proves Moufang too
    # at (2, 2) the first failing k of the first failing i is not the first j
    for cell in [(3, 5), (2, 2), (n - 1, n - 2)]:
        broken = cyclic_table(n, cell)
        assert broken.assoc_sweep() is not None
        assert not broken.abelian()
        assert moufang_over_indices(broken) == moufang_by_definition(broken.table) is not None
        assert_sweeps_match_lists(broken)


def nucleus_first_loop():
    """The whole loop (5,2,2,1), a non-group, listed identity first and then a
    point g of its nucleus: (x + g) + y = x + (g + y) for all x, y, so g
    passes Light's test although the table is not associative."""
    params = params_for(5, 2, 2, 1)
    pts = params.loop_points()
    whole = CayleyIndex(params, pts)
    g = next(k for k in range(1, len(pts)) if whole.associative([k]))
    return CayleyIndex(params, [pts[0], pts[g], *pts[1:g], *pts[g + 1:]])


def times_cyclic(cayley, m):
    """The index table of cayley x Z/m, index (a, k) at a * m + k."""
    t, n = cayley.table, len(cayley.table)
    return index_table([[t[a][b] * m + (k + l) % m for b in range(n) for l in range(m)]
                        for a in range(n) for k in range(m)], cayley.ident * m)


@pytest.mark.parametrize("m", [1, 2], ids=["bytes", "lists"])
def test_light_test_checks_every_generator_not_only_the_first(m):
    cayley = times_cyclic(nucleus_first_loop(), m)
    assert (len(cayley.table) > BYTE_ROWS_MAX) == (m == 2)
    gens = cayley.generators()
    assert gens[0] == 1 and len(gens) > 1
    assert cayley.associative([1])  # the first generator alone passes
    assert_sweeps_match_lists(cayley)
    assert cayley.assoc_sweep() is not None


def test_law_suite_builds_the_whole_loop_index_once(monkeypatch):
    params = params_for(5, 2, 2, 1)
    built, init = [], CayleyIndex.__init__

    def counting_init(self, params, points):
        built.append(len(points))
        init(self, params, points)

    monkeypatch.setattr(CayleyIndex, "__init__", counting_init)
    reports = law_suite(params, ("full-associative", "moufang"), budget=175**3, seed=0)
    assert [r.exhaustive for r in reports] == [True, True]
    assert built == [175]
    # all seven laws on a group: the 75-point table's 16 additions (its three
    # fibers make four pairs up to negation, two of a fiber with itself at three
    # sums, two at five) are all the suite makes, and it decides every law but
    # power-associativity's samples
    group, adds = params_for(5, 2, 4, 2), [0]
    canonical = loop_core._add_canonical

    def counting_add(*args):
        adds[0] += 1
        return canonical(*args)

    monkeypatch.setattr(loop_core, "_add_canonical", counting_add)
    reports = law_suite(group, budget=200_000, seed=7)
    assert built == [175, 75] and adds[0] == 16
    assert all(r.holds for r in reports)
    assert [r.law for r in reports if not r.exhaustive] == ["power-associative"]
    # the laws suite at budget 907 is priced at 28 power-associativity cases and
    # 453 latin-square pairs: 1,443 additions at 3 a case, under the 38^2 = 1,444
    # a table is priced at; latin-square is decided on its 9 fiber pairs instead,
    # and power-associativity on 907 // (3 * 32) = 9 seeded fibers of 25 points
    reports = laws_suite(group, budget=907, seed=7)
    assert built == [175, 75]
    assert [(r.checked, r.exhaustive) for r in reports] == [(9 * 25, False), (75 ** 2, True)]


def test_point_set_not_closed_under_the_loop_is_a_precondition_error():
    params = params_for(5, 2, 2, 1)
    pts = params.loop_points()[:10]
    with pytest.raises(PreconditionUnmet, match=r"\+ .* is not among the points"):
        CayleyIndex(params, pts)


def table_by_pairs(params, pts):
    """One ``add`` per unordered pair: the reference for the mirrored build.
    Returns the table, or the first pair (i, j), j >= i, whose sum is outside."""
    idx = {pt: i for i, pt in enumerate(pts)}
    table = [[None] * len(pts) for _ in pts]
    for i, j in combinations_with_replacement(range(len(pts)), 2):
        k = idx.get(loop_core.add(params, pts[i], pts[j]))
        if k is None:
            return i, j
        table[i][j] = table[j][i] = k
    return table


def mirrored_sets():
    """Sets closed under negation: two whole loops, an infinity part, a layer, and
    the additions that build each.  At e = 2, five per pair of fibers up to
    negation, three for a fiber with itself: the whole loops have seven fibers,
    so 4 * 3 + 12 * 5 = 72, and the infinity part is one fiber.  At e = 3,
    ((n+1)/2)^2."""
    z52, poly = params_for(5, 2, 2, 1), LoopParams(RingConfig.truncated_poly(5, 2), 2, 1)
    inf, lay = params_for(7, 2, 0, 2), params_for(5, 3, 2, 1)
    poly3 = LoopParams(RingConfig.truncated_poly(5, 3), 2, 1)
    return [(z52, z52.loop_points(), 72), (poly, poly.loop_points(), 72),
            (inf, inf.infinity_points(), 3), (lay, layer_points(Layer(lay, 5)), 88 ** 2),
            (poly3, layer_points(Layer(poly3, poly3.ring.uniformizer())), 88 ** 2)]


@pytest.mark.parametrize("params, pts, additions", mirrored_sets(),
                         ids=["Z/25", "F5[t]/(t^2)", "infinity-7-2-0-2", "layer-5-3",
                              "layer-F5[t]/(t^3)"])
def test_mirrored_build_matches_one_add_per_pair(params, pts, additions, monkeypatch):
    """-P + -Q = -(P + Q) fills half the table: at most ((n+1)/2)^2 additions, the same table."""
    reference = table_by_pairs(params, pts)
    adds, canonical = [0], loop_core._add_canonical

    def counting_add(*args):
        adds[0] += 1
        return canonical(*args)

    monkeypatch.setattr(loop_core, "_add_canonical", counting_add)
    cayley = CayleyIndex(params, pts)
    n = len(pts)
    assert n % 2 == 1 and sorted(cayley.neg) == list(range(n))
    assert adds[0] == additions <= ((n + 1) // 2) ** 2 < n * (n + 1) // 2
    assert cayley.table == reference


def test_mirrored_build_names_the_first_pair_outside():
    """Only pairs whose sum lies in the set are mirrored, so a set closed under
    negation but not under the loop fails at the per-pair build's first pair."""
    params = params_for(5, 2, 2, 1)
    inf = params.infinity_points()
    extra = params.loop_points()[25:40:3]
    pts = inf + extra + [loop_core.neg(params, pt) for pt in extra]
    i, j = table_by_pairs(params, pts)
    assert (i, j) == (1, len(inf))  # row 0 is built, partly by mirroring, before it fails
    with pytest.raises(PreconditionUnmet, match=re.escape(f"{pts[i]!r} + {pts[j]!r} = ")):
        CayleyIndex(params, pts)


# e = 2 loops of the benchmark's verify-suites and exhaustive-tables catalogs, as
# (p, A, B) over Z/p^2, and the loops over F_5[t]/(t^2) and F_7[t]/(t^2)
BLOCK_LOOPS = [(5, 1, 1), (5, 1, 4), (5, 2, 1), (5, 2, 4), (5, 3, 2), (5, 3, 3), (5, 4, 2),
               (7, 0, 2), (7, 0, 4), (7, 0, 5), (7, 1, 1), (7, 2, 1), (11, 2, 7), (13, 0, 6),
               ("t", 5, 2, 1), ("t", 7, 0, 2)]


def block_loop(inst):
    if inst[0] == "t":
        return LoopParams(RingConfig.truncated_poly(inst[1], 2), *inst[2:])
    return params_for(inst[0], 2, *inst[1:])


def refuse_pairs(*args):
    raise AssertionError("the per-pair build ran")


def assert_built_by_blocks(params, pts, monkeypatch):
    """The table of ``pts`` is one ``add`` per pair's, and no per-pair build ran."""
    reference = table_by_pairs(params, pts)
    with monkeypatch.context() as m:
        m.setattr(diagnostics, "_table_by_pairs", refuse_pairs)
        assert CayleyIndex(params, pts).table == reference


@pytest.mark.parametrize("inst", BLOCK_LOOPS, ids=str)
def test_block_build_matches_one_add_per_pair(inst, monkeypatch):
    """The whole loop, the infinity part and every layer, built block by block."""
    params = block_loop(inst)
    for pts in [params.loop_points(), params.infinity_points(),
                *(layer_points(Layer(params, t)) for t in params.ring.ideal_elements())]:
        assert_built_by_blocks(params, pts, monkeypatch)


def test_block_build_on_torsion_differences_and_shuffled_points(monkeypatch):
    """One fiber that is not full (of one point over the residue identity, else
    five), and fibers whose members are not contiguous."""
    params = params_for(5, 2, 2, 1)
    records = structure.torsion_geometry(params, params.q)
    assert sorted(len(diffs) for _, _, diffs, _ in records) == [1, 5, 5, 5, 5, 5, 5]
    for _, _, diffs, _ in records:
        assert_built_by_blocks(params, list(diffs), monkeypatch)
    for pts in (list(params.loop_points()), layer_points(Layer(params, 5))):
        random.Random(0).shuffle(pts)
        assert_built_by_blocks(params, pts, monkeypatch)


@pytest.mark.parametrize("inst", [(5, 2, 2, 1), (13, 2, 0, 6)])
def test_residue_loop_is_built_by_pairs(inst, monkeypatch):
    """At e = 1 every fiber is one point, so the blocks would share nothing:
    the mirrored per-pair build runs, ((n+1)/2)^2 additions."""
    params = params_for(*inst).residue_params
    pts = params.loop_points()
    reference = table_by_pairs(params, pts)
    adds, canonical = [0], loop_core._add_canonical

    def counting_add(*args):
        adds[0] += 1
        return canonical(*args)

    monkeypatch.setattr(loop_core, "_add_canonical", counting_add)
    assert CayleyIndex(params, pts).table == reference
    assert adds[0] == ((len(pts) + 1) // 2) ** 2


def build_error(params, pts, monkeypatch, blocks=True):
    """(class, message) of the error building ``pts`` raises, with or without blocks."""
    with monkeypatch.context() as m:
        if not blocks:
            m.setattr(diagnostics, "_table_by_blocks", lambda *args: None)
        with pytest.raises(EllipticLoopError) as info:
            CayleyIndex(params, pts)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("cut, inst", [("fiber", (5, 2, 2, 1)), ("point", (5, 2, 2, 1)),
                                       ("view-rows", (5, 2, 2, 1)), ("list-rows", (7, 2, 0, 2))],
                         ids=["fiber", "point", "view-rows", "list-rows"])
def test_block_build_raises_the_per_pair_error_off_the_set(cut, inst, monkeypatch):
    """A sum leaves the set: for the infinity part and one affine fiber, which is
    not closed under negation, into a fiber the set does not meet; for a layer
    without its last point, onto a missing point of a fiber it meets.  A whole
    loop without its last point has every anchor sum in the set, so the missing
    point is an empty slot that a row reads: through views up to BYTE_ROWS_MAX
    points (Z/25), through lists above (Z/49)."""
    params = params_for(*inst)
    if cut == "fiber":
        pts = params.infinity_points() + params.loop_points()[25:50]
    elif cut == "point":
        pts = layer_points(Layer(params, 5))[:-1]
    else:
        pts = params.loop_points()[:-1]
        assert (len(pts) > BYTE_ROWS_MAX) == (cut == "list-rows")
    err = build_error(params, pts, monkeypatch)
    assert err[0] is PreconditionUnmet and " + " in err[1]
    assert err == build_error(params, pts, monkeypatch, blocks=False)


def test_block_build_raises_the_per_pair_error_on_a_degenerate_sum(monkeypatch):
    """A fiber of canonical points off the loop, whose doubles have no unit T2."""
    params = params_for(5, 2, 2, 1)
    ring = params.ring

    def degenerate_double(pt):
        try:
            loop_core.add(params, pt, pt)
        except DegenerateSum:
            return True
        return False

    x, z = next((x, z) for x in range(5) for z in range(5)
                if degenerate_double(ProjPoint(ring, x, 1, z)))
    pts = [ProjPoint(ring, x + 5 * u, 1, z + 5 * v) for u in range(5) for v in range(5)]
    assert not any(loop_core.membership(params, pt) for pt in pts)
    index = {pt.coords(): i for i, pt in enumerate(pts)}
    assert diagnostics._table_by_blocks(params, pts, index, [None] * len(pts)) is None
    err = build_error(params, pts, monkeypatch)
    assert err[0] is DegenerateSum
    assert err == build_error(params, pts, monkeypatch, blocks=False)


def add_error(params, pts):
    """The message of ``add``'s DegenerateSum on the first pair, in row order, that raises."""
    for a, b in combinations_with_replacement(pts, 2):
        try:
            loop_core.add(params, a, b)
        except DegenerateSum as err:
            return str(err)
    return None


def test_kernel_route_names_the_sum_add_gives():
    """At e = 3 every canonical pair is summed by ``add``'s kernel: a layer
    without its last point names its first pair outside and the point ``add``
    makes of it; a fiber off the loop raises ``add``'s error for its first
    degenerate pair."""
    params = params_for(5, 3, 2, 1)
    pts = layer_points(Layer(params, 5))[:-1]
    i, j = table_by_pairs(params, pts)
    s = loop_core.add(params, pts[i], pts[j])
    with pytest.raises(PreconditionUnmet,
                       match=re.escape(f"{pts[i]!r} + {pts[j]!r} = {s!r} is not among")):
        CayleyIndex(params, pts)

    ring = params.ring
    x, z = next((x, z) for x in range(5) for z in range(5)
                if add_error(params, [ProjPoint(ring, x, 1, z)]))
    pts = [ProjPoint(ring, x + 5 * u, 1, z + 5 * v) for u in range(25) for v in range(25)]
    assert not any(loop_core.membership(params, pt) for pt in pts)
    with pytest.raises(DegenerateSum) as info:
        CayleyIndex(params, pts)
    assert str(info.value) == add_error(params, pts)


def s3_table():
    """The symmetric group S3 as composition of permutations of (0, 1, 2):
    associative, not commutative."""
    perms = list(permutations(range(3)))
    table = [[perms.index(tuple(a[b[x]] for x in range(3))) for b in perms] for a in perms]
    return index_table(table, perms.index((0, 1, 2)))


def moufang_by_definition(t):
    """The first (i, j, k) with (i + (j + k)) + k != ((i + k) + k) + j, or None."""
    n = len(t)
    return next(((i, j, k) for i, j, k in product(range(n), repeat=3)
                 if t[t[i][t[j][k]]][k] != t[t[t[i][k]][k]][j]), None)


def test_associative_table_that_is_not_symmetric_is_swept_for_moufang():
    s3 = s3_table()
    assert s3.associative() and not symmetric(s3.table)
    assert not s3.abelian()
    assert moufang_over_indices(s3) == moufang_by_definition(s3.table) is not None
    assert_sweeps_match_lists(s3)


def test_abelian_table_is_not_swept_for_moufang(monkeypatch):
    params = params_for(5, 2, 4, 2)
    n, law_holds = params.cardinality(), diagnostics._law_holds

    def refuse_moufang(ops, law, *case):
        assert law != "moufang", "an associative, symmetric table was swept"
        return law_holds(ops, law, *case)

    monkeypatch.setattr(diagnostics, "_law_holds", refuse_moufang)
    (rep,) = law_suite(params, ("moufang",), budget=n**3)
    assert rep.holds and rep.exhaustive and rep.detail.startswith("Light's test")


def test_law_suite_runs_light_test_once_per_table(monkeypatch):
    params = params_for(5, 2, 4, 2)
    searches, search = [], CayleyIndex.generators

    def counting_generators(self):
        searches.append(len(self.table))
        return search(self)

    monkeypatch.setattr(CayleyIndex, "generators", counting_generators)
    reports = law_suite(params, ("full-associative", "moufang"), budget=75**3, seed=0)
    assert [r.holds for r in reports] == [True, True]
    assert searches == [75]


@pytest.mark.parametrize("inst", [(5, 2, 2, 1), (5, 2, 1, 1), (7, 2, 1, 1), (7, 2, 4, 1)])
def test_non_group_counterexamples_are_light_tests_failing_triple(inst):
    """Light's first failure on each non-group is (1, s, s), s = |m|^2, the
    list sweep's first failure too, so the reports keep their triples."""
    params = params_for(*inst)
    p, n = params.ring.p, params.cardinality()
    cayley = CayleyIndex(params, params.loop_points())
    s = params.ring.ideal_size ** 2
    gens = cayley.generators()
    assert cayley.assoc_sweep() == (1, s, s) == assoc_by_lists(cayley.table)
    assoc, moufang = law_suite(params, ("full-associative", "moufang"), budget=n**3, seed=0)
    assert assoc.exhaustive and assoc.checked == n**3 and not assoc.holds
    assert assoc.counterexample == {"points": [[0, 1, p], [0, 1, 1], [0, 1, 1]]}
    # n lookups for each (x, g) tried: every generator at x = 0, then up to s at x = 1
    tried = len(gens) + gens.index(s) + 1
    assert assoc.detail == f"Light's test: {len(gens)} generators, {tried * n:,} lookups"
    # moufang, the table not abelian, on fiber triples: the 7 probes of (0, 0, 0) pass,
    # and (0, 0, 1) fails at its 5th, the same triple as the sweep of all n^3
    assert moufang.exhaustive and moufang.checked == n**3
    assert moufang.counterexample == {"points": [[0, 1, 0], [0, 1, p], [0, 1, 1]]}
    assert moufang.detail == (f"simplex probes: 12 cases decide {params.q ** 3:,} fiber tuples"
                              " over the index table")


@pytest.mark.parametrize("inst, detail", [
    ((5, 2, 4, 2), "Light's test and commuting generators: 3 generators, 16,875 lookups"),
    pytest.param((5, 2, 2, 1),
                 "simplex probes: 12 cases decide 343 fiber tuples over the index table",
                 id="non-group"),
])
def test_moufang_report_names_its_method(inst, detail):
    params = params_for(*inst)
    n = params.cardinality()
    (rep,) = law_suite(params, ("moufang",), budget=n**3, seed=0)
    assert rep.exhaustive and rep.checked == n**3
    assert rep.holds == (inst == (5, 2, 4, 2))
    assert rep.detail == detail


def test_moufang_on_a_table_that_is_not_abelian_is_priced_at_its_fiber_triple_probes():
    """Decided on fiber triples, it is priced at their q^3 * 7 probes, one a probe,
    with the table (built for the samples from budget 2,582 on) or without it;
    below that price it draws budget // 7 seeded fiber triples."""
    params = params_for(5, 2, 2, 1)
    n, price = params.cardinality(), 7 * params.q ** 3
    for budget, tabled in [(n**3, True), (3_000, True), (price, False)]:
        (rep,) = law_suite(params, ("moufang",), budget=budget, seed=0)
        assert not rep.holds and rep.exhaustive and rep.checked == n**3
        assert rep.detail == ("simplex probes: 12 cases decide 343 fiber tuples"
                              + " over the index table" * tabled)
    (rep,) = law_suite(params, ("moufang",), budget=price - 1, seed=0)
    assert not rep.holds and not rep.exhaustive
    assert rep.checked % 5 ** 6 == 0 and rep.checked // 5 ** 6 <= (price - 1) // 7
    assert " seeded fiber tuple" in rep.detail and replay(params, rep)


@pytest.mark.parametrize("inst", [(5, 2, 4, 2), (5, 2, 2, 1)], ids=["group", "non-group"])
def test_lookup_laws_name_the_table_and_its_lookups(inst):
    """alternative, jordan and latin-square over the whole-loop table are decided on
    its fiber pairs, 5 probes each at e = 2 and 1 at e = 1, up to the first failing
    probe, and say so and name the table; sampled, they say nothing."""
    params = params_for(*inst)
    n, q, group = params.cardinality(), params.q, inst == (5, 2, 4, 2)
    reports = law_suite(params, ("alternative", "jordan", "latin-square"), budget=200_000, seed=7)
    assert [r.holds for r in reports] == [group, group, True]
    for rep in reports:
        assert rep.exhaustive and rep.checked == n * n
        probes = 5 * q * q
        if not rep.holds:  # the probes up to the failing one, in fiber-pair order
            pts = params.loop_points()
            bad = tuple(pts.index(pt) for pt in
                        diagnostics._decode_points(params, rep.counterexample["points"]))
            order = [case for tup in product(range(q), repeat=2)
                     for case in diagnostics._fiber_probes(params, (1, 2), tup)]
            probes = order.index(bad) + 1
        assert rep.detail == (f"simplex probes: {probes:,} cases decide {q * q:,} fiber pairs"
                              " over the index table")
    # at budget 907 neither loop's table pays for the laws suite's samples, and
    # latin-square is decided on fiber pairs over points, power-associativity on
    # 9 seeded fibers, each with two exponents, from 3 probes a fiber
    assert [r.detail for r in laws_suite(params, budget=907, seed=7)] == [
        "simplex probes: 27 cases decide 9 seeded fiber tuples",
        f"simplex probes: {5 * q * q:,} cases decide {q * q:,} fiber pairs"]
    e1 = params_for(263, 1, 4, 1)  # a fiber is one point, its one probe: the table pair by pair
    reports = law_suite(e1, ("alternative", "jordan", "latin-square"), budget=200_000, seed=7)
    n = e1.cardinality()
    assert [(r.holds, r.exhaustive, r.checked) for r in reports] == [(True, True, n * n)] * 3
    assert [r.detail for r in reports] == [
        f"simplex probes: {n * n:,} cases decide {n * n:,} fiber pairs over the index table"] * 3


# ---------------------------------------------------------------------------
# which tables are built: one cost rule and one size cap
# ---------------------------------------------------------------------------


def old_law_table(params, laws, budget):
    """The earlier whole-loop rule's first clause: the table pays for 3 additions a
    sample, under the cap.  Its second clause, a triple law asked for with n^3
    within the budget, builds no table now: fiber triples decide both triple laws."""
    n, e = params.cardinality(), params.ring.e
    weights = {"diassociative": 360, "power-associative": 4 * max(e, 8)}
    samples = {law: max(1, budget // weights.get(law, 1)) for law in laws}
    if "latin-square" in samples:
        samples["latin-square"] = max(1, budget // (2 * n)) * n
    return n * n <= diagnostics.LOOP_TABLE_MAX and ((n + 1) // 2) ** 2 <= 3 * sum(samples.values())


def old_layer_table(params, budget):
    """The earlier layer rule: the table pays for its budget share's samples, or
    the isomorphism applies and n^2 fits the budget (behind the layer gate)."""
    q, isz = params.q, params.ring.ideal_size
    if q * isz ** 3 > 40 * budget:
        return False
    n, share = q * isz, max(1, budget // isz)
    iso = q % 3 != 0 and q % params.ring.p != 0
    return ((n + 1) // 2) ** 2 <= 4 * share + min(share, 2000) or iso and n * n <= budget


class Built(Exception):
    """Raised by a stubbed build, so a suite stops at the first table it builds."""


def first_build(monkeypatch, run):
    """The point count of the first index table ``run()`` builds, or None."""
    def stop(self, params, points):
        raise Built(len(points))

    with monkeypatch.context() as m:
        m.setattr(CayleyIndex, "__init__", stop)
        try:
            run()
        except Built as built:
            return built.args[0]
    return None


@pytest.mark.parametrize("inst", [(5, 2, 2, 1), (7, 2, 0, 2), (13, 2, 0, 6), (5, 3, 2, 1)],
                         ids=["Z/25", "Z/49", "Z/169", "Z/125"])
def test_every_table_the_earlier_rules_built_is_still_built(inst, monkeypatch):
    """The whole-loop table is built exactly where it pays for the samples, a layer's
    wherever it was, and the infinity part's never: its probes decide it."""
    params = params_for(*inst)
    for budget in (1, 100, 1_000, 3_000, 10_000, 40_000, 200_000):
        for laws in (diagnostics.LAW_NAMES, ("power-associative", "latin-square")):
            built = first_build(monkeypatch, lambda: law_suite(params, laws, budget))
            tabled = old_law_table(params, laws, budget)
            assert built == (params.cardinality() if tabled else None), (laws, budget)
        assert first_build(monkeypatch, lambda: diagnostics.infinity_suite(params, budget)) is None
        if old_layer_table(params, budget):
            built = first_build(monkeypatch, lambda: diagnostics.layer_suite(params, budget))
            assert built == params.q * params.ring.ideal_size, budget


@pytest.mark.parametrize("inst, n, run, law, exhaustive", [
    ((5, 2, 2, 1), 175, lambda params: law_suite(params, ("moufang",), budget=175 ** 3),
     "moufang", True),
    ((5, 2, 2, 1), 25, lambda params: diagnostics.infinity_suite(params, budget=50),
     "infinity-associativity", True),
    ((5, 2, 2, 1), 35, lambda params: diagnostics.layer_suite(params, budget=2_000),
     "layer-associativity", False),
    ((5, 2, 4, 2), 75, lambda params: [diagnostics.group_certificate(params, budget=1_000)],
     None, False),
], ids=["triple-law", "infinity", "layer", "group-certificate"])
def test_no_table_is_built_above_the_cap(inst, n, run, law, exhaustive, monkeypatch):
    """Each route would build its n-point table here, but the cap sits below n^2.
    The routes that need no table decide on the probes of fiber tuples; the
    others sample."""
    params = params_for(*inst)
    monkeypatch.setattr(diagnostics, "LOOP_TABLE_MAX", n * n - 1)
    built, init = [], CayleyIndex.__init__
    monkeypatch.setattr(CayleyIndex, "__init__",
                        lambda self, params, pts: built.append(len(pts)) or init(self, params, pts))
    answers = run(params)
    assert built == []
    if law is None:  # the group certificate answers with its exhaustive fiber-triple search
        assert answers[0]["is_group"] is True and answers[0]["method"] == "fiber-triple-probes"
    else:
        rep = next(r for r in answers if r.law == law)
        assert rep.checked and rep.exhaustive == exhaustive


@pytest.mark.parametrize("budget", [188, 189, 1_000])
def test_an_exhaustive_fiber_triple_search_past_the_cap_certifies_a_group(budget, monkeypatch):
    """The group Z/25 (4,2) with its 75-point table above the cap: its 27 fiber
    triples of 7 probes each, 189 in all, prove it associative once they all run,
    and below that the seeded triples leave it undetermined."""
    params = params_for(5, 2, 4, 2)
    monkeypatch.setattr(diagnostics, "LOOP_TABLE_MAX", 75 ** 2 - 1)
    cert = diagnostics.group_certificate(params, budget=budget)
    whole = budget >= 27 * 7
    assert cert["is_group"] is (True if whole else None)
    assert cert["method"] == ("fiber-triple-probes" if whole else "undetermined")
    assert cert["invariants"] is None and cert["order"] == 75
    assert (cert["checked"] == 75 ** 3) == whole


def test_a_table_over_a_point_that_is_not_canonical_names_it():
    """Every table is over canonical points (x : 1 : z); the first point without
    Y = 1 is named, before any sum is made."""
    params = params_for(5, 2, 2, 1)
    ring = params.ring
    off = ProjPoint(ring, 1, 0, 0)
    with pytest.raises(PreconditionUnmet, match=re.escape(f"{off!r} is not a canonical point")):
        CayleyIndex(params, [*params.infinity_points(), off, ProjPoint(ring, 0, 0, 1)])
