"""Index tables: the byte-row sweeps against the list sweeps they replace.

Tables of at most ``BYTE_ROWS_MAX`` points are swept for associativity
and the Moufang identity as ``bytes`` rows; larger ones, and the reference
here, as lists.  Both must return the same first failing triple of
indices, in (i, j, k) order, or None.
"""

from __future__ import annotations

import pytest

from elliptic_loops import CayleyIndex, LoopParams, PreconditionUnmet, RingConfig
from elliptic_loops.diagnostics import BYTE_ROWS_MAX, law_suite
from elliptic_loops.layers import Layer, layer_points


def params_for(p, e, a, b):
    return LoopParams(RingConfig.integer(p, e), a, b)


def assert_sweeps_match_lists(cayley):
    assert cayley.assoc_sweep() == cayley._assoc_by_lists()
    assert cayley.moufang_sweep() == cayley._moufang_by_lists()


@pytest.mark.parametrize("inst", [(5, 2, 2, 1), (7, 2, 0, 2)])
def test_byte_sweeps_match_lists_on_every_layer(inst):
    params = params_for(*inst)
    for t in params.ring.ideal_elements():
        cayley = CayleyIndex(params, layer_points(Layer(params, t)))
        assert cayley.assoc_sweep() is None  # every layer is a group
        assert_sweeps_match_lists(cayley)


# whole loops of 75 to 245 points: two groups, then non-groups
@pytest.mark.parametrize("inst", [(5, 2, 4, 2), (7, 2, 0, 4), (5, 2, 3, 2), (5, 2, 2, 1),
                                  (5, 2, 1, 1), (7, 2, 1, 1), (7, 2, 4, 1)])
def test_byte_sweeps_match_lists_on_whole_loops(inst):
    params = params_for(*inst)
    cayley = CayleyIndex(params, params.loop_points())
    assert len(cayley.table) <= BYTE_ROWS_MAX
    assert_sweeps_match_lists(cayley)


def cyclic_table(n, corrupt=None):
    """An index table of Z/n, optionally with one cell (i, j) set to i + j + 1."""
    cayley = CayleyIndex.__new__(CayleyIndex)
    cayley.table = [[(i + j) % n for j in range(n)] for i in range(n)]
    if corrupt:
        i, j = corrupt
        cayley.table[i][j] = (i + j + 1) % n
    return cayley


@pytest.mark.parametrize("n", [BYTE_ROWS_MAX, BYTE_ROWS_MAX + 1])
def test_cyclic_tables_on_both_sides_of_the_byte_row_cutoff(n):
    clean = cyclic_table(n)
    assert clean.assoc_sweep() is None
    assert clean.moufang_sweep() is None
    # at (2, 2) the first failing k of the first failing i is not the first j
    for cell in [(3, 5), (2, 2), (n - 1, n - 2)]:
        broken = cyclic_table(n, cell)
        assert broken.assoc_sweep() is not None
        assert broken.moufang_sweep() is not None
        assert_sweeps_match_lists(broken)


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


def test_point_set_not_closed_under_the_loop_is_a_precondition_error():
    params = params_for(5, 2, 2, 1)
    pts = params.loop_points()[:10]
    with pytest.raises(PreconditionUnmet, match=r"\+ .* is not among the points"):
        CayleyIndex(params, pts)
