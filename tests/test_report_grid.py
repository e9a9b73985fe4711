"""The verify report grid, frozen: (law, holds, exhaustive) of every report of
all 13 suites on the eight loops of the ``verify-suites`` benchmark catalog,
at budgets 1,000 and 20,000 with seed 7, as recorded before the e = 2 pair
checks were decided on fiber pairs (``data/verify_report_grid.json``).

No verdict may move, and no report may go from exhaustive to sampled; the
reports that became exhaustive are named below.
"""

from __future__ import annotations

import json
from pathlib import Path

from elliptic_loops import LoopParams, RingConfig, verify_instance
from elliptic_loops.diagnostics import VERIFY_SUITES

GRID = json.loads((Path(__file__).parent / "data" / "verify_report_grid.json").read_text())

LOOPS = {"int-5-2-2-1": RingConfig.integer(5, 2), "int-5-3-2-1": RingConfig.integer(5, 3),
         "int-7-2-0-2": RingConfig.integer(7, 2), "poly-5-2-2-1": RingConfig.truncated_poly(5, 2),
         "int-5-2-4-2": RingConfig.integer(5, 2), "int-5-2-3-2": RingConfig.integer(5, 2),
         "int-5-2-1-1": RingConfig.integer(5, 2), "int-7-2-1-1": RingConfig.integer(7, 2)}
E2 = [name for name in LOOPS if name != "int-5-3-2-1"]

# the reports that moved from sampled to exhaustive: budget -> law -> loops
BECAME_EXHAUSTIVE = {
    1_000: {"projection-homomorphism": E2 + ["int-5-3-2-1"],
            "latin-square": [name for name in E2 if name != "int-5-2-4-2"],  # tabled before
            "combination-closure-layers": E2,
            # decided on the simplex probes of the one infinity tuple at e = 3
            "infinity-associativity": ["int-5-3-2-1"],
            "infinity-coordinates-additive": ["int-5-3-2-1"],
            # 42 probes decide the 7 fibers at e = 3
            "three-torsion-hessian": ["int-5-3-2-1"]},
    20_000: {"projection-homomorphism": [name for name in E2
                                         if name not in ("int-5-2-4-2", "int-5-2-3-2")]
                                        + ["int-5-3-2-1"],
             # the only loop without a table there, and e = 3's 49 fiber pairs of 15 probes
             "latin-square": ["int-7-2-0-2", "int-5-3-2-1"],
             "combination-closure-layers": E2,
             "infinity-associativity": ["int-5-3-2-1"],
             "infinity-coordinates-additive": ["int-5-3-2-1"]},
}


def test_no_verdict_moves_and_reports_only_become_exhaustive():
    moved = set()
    for name, ring in LOOPS.items():
        a, b = map(int, name.split("-")[3:])
        params = LoopParams(ring, a, b)
        for budget in (1_000, 20_000):
            for suite in VERIFY_SUITES:
                key = f"{name}|{budget}|{suite}"
                reports = verify_instance(params, suite, budget=budget, seed=7)
                assert [r.law for r in reports] == [law for law, _, _ in GRID[key]], key
                for rep, (law, holds, exhaustive) in zip(reports, GRID[key]):
                    assert rep.holds == holds, (key, law)
                    assert rep.exhaustive or not exhaustive, (key, law)
                    if rep.exhaustive and not exhaustive:
                        moved.add((budget, law, name))
    assert len(GRID) == len(LOOPS) * 2 * len(VERIFY_SUITES)
    assert moved == {(budget, law, name) for budget, laws in BECAME_EXHAUSTIVE.items()
                     for law, names in laws.items() for name in names}
