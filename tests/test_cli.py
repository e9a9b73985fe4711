"""End-to-end tests for the command-line interface.

Each test drives ``elliptic_loops.cli.run`` with an argv list and checks
the printed output and the exit code against values computed directly
with the library, so the CLI contract (text/JSON output, 0 = verified,
1 = falsified, 2 = usage or precondition error) stays pinned down.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import elliptic_loops

from elliptic_loops import (
    ProjPoint,
    RingConfig,
    add,
    difference_group,
    identity,
    infinity_decompose,
    order_of,
    scalar_mul,
    stratify,
    torsion_fiber,
    torsion_line,
    validate_params,
)
from elliptic_loops.cli import run


def params_for(p, e, A, B):
    return validate_params(RingConfig.integer(p, e), A, B)


def run_cli(capsys, *argv):
    rc = run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ----------------------------------------------------------------------------
# arithmetic subcommands
# ----------------------------------------------------------------------------


def test_add_matches_library(capsys):
    params = params_for(5, 2, 2, 1)
    rc, out, _ = run_cli(
        capsys, "add", "-p", "5", "-e", "2", "-A", "2", "-B", "1",
        "--point", "5,1,0", "--point", "0,1,5",
    )
    assert rc == 0
    expected = add(params, ProjPoint.of(params.ring, 5, 1, 0),
                   ProjPoint.of(params.ring, 0, 1, 5))
    assert out.strip() == f"({expected.x} : {expected.y} : {expected.z})"


def test_mul_full_order_gives_identity(capsys):
    # (5 : 1 : 0) has order 25 when e = 3, so 25 * P is the identity.
    rc, out, _ = run_cli(
        capsys, "mul", "-p", "5", "-e", "3", "-A", "2", "-B", "1",
        "--point", "5,1,0", "-n", "25",
    )
    assert rc == 0
    assert out.strip() == "(0 : 1 : 0)"


def test_mul_json_round_trip(capsys):
    params = params_for(5, 3, 2, 1)
    rc, out, _ = run_cli(
        capsys, "mul", "-p", "5", "-e", "3", "-A", "2", "-B", "1",
        "--point", "5,1,0", "-n", "7", "--format", "json",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["n"] == 7
    decoded = ProjPoint.from_json(params.ring, obj["multiple"])
    pt = ProjPoint.of(params.ring, 5, 1, 0)
    assert decoded == scalar_mul(params, 7, pt)


def test_order_of_infinity_generator(capsys):
    rc, out, _ = run_cli(
        capsys, "order", "-p", "5", "-e", "3", "-A", "2", "-B", "1",
        "--point", "5,1,0",
    )
    assert rc == 0
    assert out.strip() == "25"


def test_membership_member_and_nonmember_exit_codes(capsys):
    rc, out, _ = run_cli(
        capsys, "membership", "-p", "5", "-e", "2", "-A", "2", "-B", "1",
        "--point", "0,1,1",
    )
    assert rc == 0
    assert "member" in out and "not a member" not in out

    rc, out, _ = run_cli(
        capsys, "membership", "-p", "5", "-e", "2", "-A", "2", "-B", "1",
        "--point", "1,1,1",
    )
    assert rc == 1
    assert "not a member" in out


def test_membership_mixed_points_exit_one(capsys):
    rc, out, _ = run_cli(
        capsys, "membership", "-p", "5", "-e", "2", "-A", "2", "-B", "1",
        "--point", "0,1,1", "--point", "1,1,1", "--format", "json",
    )
    assert rc == 1
    obj = json.loads(out)
    flags = [rec["member"] for rec in obj["members"]]
    assert flags == [True, False]


# ----------------------------------------------------------------------------
# structure subcommands
# ----------------------------------------------------------------------------


def test_stratify_matches_library(capsys):
    params = params_for(5, 2, 2, 1)
    pt = ProjPoint.of(params.ring, 0, 1, 1)
    expected = stratify(params, pt)
    rc, out, _ = run_cli(
        capsys, "stratify", "-p", "5", "-e", "2", "-A", "2", "-B", "1",
        "--point", "0,1,1",
    )
    assert rc == 0
    assert out.strip() == f"t = {expected.val}"


def test_stratify_identity_is_a_precondition_error(capsys):
    # The identity is residue three-torsion, so its Hessian is not a unit.
    rc, out, err = run_cli(
        capsys, "stratify", "-p", "5", "-e", "2", "-A", "2", "-B", "1",
        "--point", "0,1,0",
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_singular_curve_is_a_usage_error(capsys):
    rc, _, err = run_cli(
        capsys, "enumerate", "-p", "5", "-e", "2", "-A", "0", "-B", "0",
    )
    assert rc == 2
    assert "error:" in err


def test_decompose_infinity_point(capsys):
    params = params_for(5, 2, 2, 1)
    pt = ProjPoint.of(params.ring, 5, 1, 5)
    dec = infinity_decompose(params, pt)
    rc, out, _ = run_cli(
        capsys, "decompose", "-p", "5", "-e", "2", "-A", "2", "-B", "1",
        "--point", "5,1,5", "--format", "json",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj == {"alpha": dec.alpha, "beta": dec.beta}


def test_decompose_affine_point_is_a_precondition_error(capsys):
    rc, _, err = run_cli(
        capsys, "decompose", "-p", "5", "-e", "2", "-A", "2", "-B", "1",
        "--point", "0,1,1",
    )
    assert rc == 2
    assert "error:" in err


def test_layers_single_t_json(capsys):
    rc, out, _ = run_cli(
        capsys, "layers", "-p", "5", "-e", "3", "-A", "2", "-B", "1",
        "--t", "5", "--format", "json",
    )
    assert rc == 0
    obj = json.loads(out)
    assert len(obj["layers"]) == 1
    rep = obj["layers"][0]
    assert rep["t"] == 5
    assert rep["cardinality"] == 7 * 25
    assert rep["Z_t"] == 100
    assert rep["infinity_order"] == 25


def test_layers_all_t_text(capsys):
    rc, out, _ = run_cli(
        capsys, "layers", "-p", "5", "-e", "2", "-A", "2", "-B", "1",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        assert "Z_t=   0" in line


def test_layers_single_t_lists_no_loop(capsys, monkeypatch):
    """One layer is lifted fiber by fiber: the 16,807-point loop is never listed."""
    from elliptic_loops import LoopParams

    calls = []
    real = LoopParams.loop_points
    monkeypatch.setattr(LoopParams, "loop_points", lambda self: calls.append(self) or real(self))
    rc, out, _ = run_cli(capsys, "layers", "-p", "7", "-e", "3", "-A", "0", "-B", "5",
                         "--t", "7", "--format", "json")
    assert rc == 0
    assert json.loads(out)["layers"][0]["cardinality"] == 7 * 49
    assert calls == []


def test_a_layer_lift_that_fails_exits_two(capsys, monkeypatch):
    from elliptic_loops import Layer

    monkeypatch.setattr(Layer, "equation", lambda self, x, y, z: 25)  # no unit partial
    rc, out, err = run_cli(capsys, "layers", "-p", "5", "-e", "3", "-A", "2", "-B", "1",
                           "--t", "5")
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and "neither partial" in err


def test_torsion_fibers_json(capsys):
    rc, out, _ = run_cli(
        capsys, "torsion", "-p", "5", "-e", "2", "-A", "2", "-B", "1",
        "--format", "json",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["q"] == 7
    sizes = sorted(rec["fiber_size"] for rec in obj["fibers"])
    assert sizes == [1, 5, 5, 5, 5, 5, 5]
    affine = [rec for rec in obj["fibers"] if "reduced_line" in rec]
    assert len(affine) == 6
    for rec in affine:
        assert rec["difference_group_size"] == 5
        assert len(rec["reduced_line"]) == 3


def test_a_witness_that_associates_prints_fail(capsys, monkeypatch):
    """A construction that fails its own check is a FAIL line, not a traceback."""
    from elliptic_loops import diagnostics

    monkeypatch.setattr(diagnostics, "add", lambda params, a, b: identity(params))  # associative
    rc, out, _ = run_cli(capsys, "verify", "-p", "5", "-e", "3", "-A", "2", "-B", "1",
                         "--suite", "witnesses")
    assert rc == 1
    lines = out.splitlines()
    for kind in "AB":
        line = next(line for line in lines if line.startswith(f"FAIL witness-{kind} "))
        assert f"[witness construction {kind} unexpectedly associated at" in line
    assert lines[-1] == "FALSIFIED: 0 pass, 1 skip, 2 fail"


def test_a_torsion_line_that_fails_its_check_prints_fail(capsys, monkeypatch):
    from elliptic_loops import structure

    def broken_line(*args):
        raise AssertionError("coset point 0 deviates from the displacement law")

    monkeypatch.setattr(structure, "torsion_line", broken_line)
    instance = ("-p", "5", "-e", "2", "-A", "2", "-B", "1")
    rc, out, _ = run_cli(capsys, "verify", *instance, "--suite", "torsion")
    assert rc == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL torsion-")]
    assert len(fails) == 3
    assert all(line.endswith("[coset point 0 deviates from the displacement law]")
               for line in fails)
    rc, out, err = run_cli(capsys, "torsion", *instance)
    assert (rc, out) == (1, "")
    assert err == "falsified: coset point 0 deviates from the displacement law\n"


def test_torsion_at_a_point_lists_no_loop(capsys, monkeypatch):
    """``torsion --point`` on Z/101^2 (1,3), 887,487 points, builds the point's fiber only."""
    from elliptic_loops import LoopParams
    from elliptic_loops.diagnostics import random_loop_point

    params = params_for(101, 2, 1, 3)
    pt = scalar_mul(params, 101, random_loop_point(params, random.Random(1)))  # q-torsion
    monkeypatch.setattr(LoopParams, "loop_points", None)  # listing the loop raises
    rc, out, _ = run_cli(capsys, "torsion", "-p", "101", "-e", "2", "-A", "1", "-B", "3",
                         "--point", f"{pt.x},{pt.y},{pt.z}", "--format", "json")
    assert rc == 0
    (record,) = json.loads(out)["fibers"]
    assert record["fiber_size"] == 101 and pt.to_json() in record["fiber"]


def test_torsion_past_e2_is_a_precondition_error(capsys):
    rc, out, err = run_cli(capsys, "torsion", "-p", "5", "-e", "3", "-A", "2", "-B", "1")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "e <= 2" in err


def test_torsion_past_e2_fails_before_it_scans(capsys, monkeypatch):
    from elliptic_loops import loop_core, structure

    calls = []
    for module in (loop_core, structure):
        real = module.scalar_mul
        monkeypatch.setattr(module, "scalar_mul",
                            lambda *args, real=real: calls.append(args) or real(*args))
    rc, _, err = run_cli(capsys, "torsion", "-p", "5", "-e", "4", "-A", "2", "-B", "1")
    assert rc == 2 and "e <= 2" in err
    assert calls == []


def _torsion_records(params, q, bases):
    """The ``torsion`` records built by direct calls (the command's former
    pipeline, kept as its oracle)."""
    ident = identity(params)
    records = []
    for base in bases:
        fiber = torsion_fiber(params, q, base)
        diffs = difference_group(params, q, base)
        rec = {"residue": params.project(base).to_json(), "fiber_size": len(fiber),
               "fiber": [pt.to_json() for pt in fiber], "difference_group_size": len(diffs)}
        gen = next((d for d in diffs if order_of(params, d) == len(diffs)), None)
        if gen is not None and params.project(base) != params.project(ident):
            line = torsion_line(params, base, gen)
            rec["line"] = [params.ring.payload_to_json(c) for c in line.line]
            if line.reduced_line is not None:
                rec["reduced_line"] = list(line.reduced_line)
        records.append(rec)
    return {"q": q, "fibers": records}


@pytest.mark.parametrize("p,e,A,B", [(5, 2, 2, 1), (7, 2, 1, 1), (13, 2, 0, 6)])
def test_torsion_with_points_and_with_q_matches_direct_calls(capsys, p, e, A, B):
    params = params_for(p, e, A, B)
    pts = params.loop_points()
    picks = [pts[len(pts) // 3], pts[-1], pts[0]]
    argv = ["torsion", "-p", str(p), "-e", str(e), "-A", str(A), "-B", str(B),
            "--format", "json"]
    for pt in picks:
        argv += ["--point", f"{pt.x},{pt.y},{pt.z}"]
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0 and json.loads(out) == _torsion_records(params, params.q, picks)
    rc, out, _ = run_cli(capsys, *argv[:11], "--q", "3")
    ident = identity(params)
    firsts = {}
    for pt in pts:
        if scalar_mul(params, 3, pt) == ident:
            firsts.setdefault(params.project(pt), pt)
    assert rc == 0 and json.loads(out) == _torsion_records(params, 3, list(firsts.values()))


# ----------------------------------------------------------------------------
# queries at a large p: no residue curve is listed
# ----------------------------------------------------------------------------


BIG = ("-p", "1000003", "-e", "2", "-A", "1", "-B", "1")


@pytest.mark.parametrize("command, points, extra", [
    ("add", ["0,1,1", "1000003,1,0"], []),
    ("mul", ["0,1,1"], ["-n", "12345"]),
    ("membership", ["0,1,1", "1000003,1,1000003"], []),
    ("stratify", ["0,1,1"], []),
    ("decompose", ["3000009,1,1000003"], []),
])
def test_large_p_queries_enumerate_no_residue_curve(capsys, monkeypatch, command, points, extra):
    import tracemalloc

    from elliptic_loops import loop_core

    calls = []
    real_table = loop_core._sqrt_table
    monkeypatch.setattr(loop_core, "_sqrt_table", lambda p: calls.append(p) or real_table(p))
    tracemalloc.start()
    try:
        params_for(1000003, 2, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # listing E(F_p) takes hundreds of MB here
    argv = [command, *BIG, *extra]
    for pt in points:
        argv += ["--point", pt]
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 0, err
    assert calls == []


MID = ("-p", "10007", "-e", "2", "-A", "1", "-B", "1")


@pytest.mark.parametrize("command, points, extra", [
    ("add", ["0,1,1", "10007,1,0"], []),
    ("mul", ["0,1,1"], ["-n", "12345"]),
    ("membership", ["0,1,1", "10007,1,10007"], []),
    ("stratify", ["0,1,1"], []),
    ("decompose", ["30021,1,10007"], []),
    ("order", ["0,1,1"], []),
    ("witness", [], ["--type", "B"]),
])
def test_queries_answer_without_listing_the_residue_curve(capsys, monkeypatch, command,
                                                          points, extra):
    """``order_of`` walks the residue loop by addition and the witnesses stop at
    their first base point, so none of these lists E(F_p): each answers as it
    does with the listing allowed."""
    from elliptic_loops import loop_core

    argv = [command, *MID, *extra, "--format", "json"]
    for pt in points:
        argv += ["--point", pt]
    listed = run_cli(capsys, *argv)

    def refuse(self):
        raise RuntimeError("the residue curve was listed")

    monkeypatch.setattr(loop_core.LoopParams, "_enumerate_residue_curve", refuse)
    assert run_cli(capsys, *argv) == listed
    assert listed[0] == (1 if command == "witness" else 0), listed[2]


# ----------------------------------------------------------------------------
# verification, witnesses, classification
# ----------------------------------------------------------------------------


def test_verify_laws_suite_exits_zero(capsys):
    rc, out, _ = run_cli(
        capsys, "verify", "-p", "5", "-e", "2", "-A", "2", "-B", "1",
        "--suite", "laws",
    )
    assert rc == 0
    assert "VERIFIED" in out
    assert "FAIL" not in out


def test_verify_prints_checks_of_nothing_as_skip(capsys):
    rc, out, _ = run_cli(
        capsys, "verify", "-p", "5", "-e", "3", "-A", "2", "-B", "1",
        "--suite", "witnesses",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[2].startswith("SKIP witness-inf ") and "not applicable" in lines[2]
    # one constructed triple is the whole case space of a witness
    assert all(line.startswith("PASS ") and " exhaustive " in line for line in lines[:2])
    assert lines[-1] == "VERIFIED: 2 pass, 1 skip, 0 fail"
    rc, out, _ = run_cli(
        capsys, "verify", "-p", "5", "-e", "3", "-A", "2", "-B", "1",
        "--suite", "witnesses", "--format", "json",
    )
    report = json.loads(out)["reports"][2]
    assert report["holds"] is True and report["checked"] == 0


def test_verify_marks_read_the_report_status(capsys, monkeypatch):
    from elliptic_loops import diagnostics
    from elliptic_loops.diagnostics import LawReport

    reports = [LawReport("checked-law", True, None, 3, True),
               LawReport("vacuous-law", True, None, 0, False, None, "skipped: why"),
               LawReport("broken-law", False, {"points": []}, 2, False, 0)]
    assert [r.status for r in reports] == ["pass", "skipped", "fail"]
    monkeypatch.setitem(diagnostics.VERIFY_SUITES, "laws", lambda params, **kw: reports)
    argv = ("verify", "-p", "5", "-e", "2", "-A", "2", "-B", "1", "--suite", "laws")
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 1
    lines = out.strip().splitlines()
    assert [line.split()[:2] for line in lines[:3]] == [
        ["PASS", "checked-law"], ["SKIP", "vacuous-law"], ["FAIL", "broken-law"]]
    assert lines[-1] == "FALSIFIED: 1 pass, 1 skip, 1 fail"
    rc, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert rc == 1
    assert [r["status"] for r in json.loads(out)["reports"]] == ["pass", "skipped", "fail"]


@pytest.mark.parametrize("suite, e, gated, budgets", [
    ("layers", "2", "layer-group-isomorphism", ("300", "200000")),
    ("infinity", "4", "forbidden-locus", ("1000", "20000")),
])
def test_verify_prints_the_same_checks_at_any_budget(capsys, suite, e, gated, budgets):
    names = []
    for budget in budgets:
        rc, out, _ = run_cli(capsys, "verify", "-p", "5", "-e", e, "-A", "2", "-B", "1",
                             "--suite", suite, "--budget", budget)
        assert rc == 0
        lines = out.strip().splitlines()[:-1]
        names.append([line.split()[1] for line in lines])
        gate = next(line for line in lines if line.split()[1] == gated)
        if budget == budgets[0]:
            assert gate.startswith("SKIP") and {  # each gate names its own price
                "layer-group-isomorphism": "[skipped: a 35-point layer table's ((n+1)/2)^2 = 324"
                                           " exceeds max(budget, 300) = 300]",
                "forbidden-locus": "[skipped: |m|^2 = 15,625 exceeds max(budget, 10,000) = 10,000]",
            }[gated] in gate
        else:
            assert gate.startswith("PASS")
    assert names[0] == names[1]


def test_verify_projection_at_e_2_is_decided_on_fiber_pairs(capsys):
    """At the default budget the 441^2 point pairs of Z/49 (0,2) are decided by
    the one simplex probe of each of its 9^2 fiber pairs: the identity holds
    modulo m."""
    rc, out, _ = run_cli(capsys, "verify", "-p", "7", "-e", "2", "-A", "0", "-B", "2",
                         "--suite", "projection", "--format", "json")
    assert rc == 0
    (report,) = json.loads(out)["reports"]
    assert report["law"] == "projection-homomorphism" and report["holds"]
    assert report["exhaustive"] and report["checked"] == 441 ** 2
    assert report["detail"] == "simplex probes: 81 cases decide 81 fiber pairs"


def test_verify_json_is_deterministic(capsys):
    argv = ("verify", "-p", "5", "-e", "2", "-A", "2", "-B", "1",
            "--suite", "laws", "--seed", "3", "--format", "json")
    rc1, out1, _ = run_cli(capsys, *argv)
    rc2, out2, _ = run_cli(capsys, *argv)
    assert rc1 == rc2 == 0
    first, second = json.loads(out1), json.loads(out2)
    assert first == second
    assert first["verified"] is True
    assert all(rep["holds"] for rep in first["reports"])


def test_witness_exits_one(capsys):
    rc, out, _ = run_cli(
        capsys, "witness", "-p", "5", "-e", "3", "-A", "2", "-B", "1",
        "--type", "A",
    )
    assert rc == 1
    assert "associativity falsified" in out


def test_witness_json_breaks_associativity(capsys):
    params = params_for(5, 3, 2, 1)
    rc, out, _ = run_cli(
        capsys, "witness", "-p", "5", "-e", "3", "-A", "2", "-B", "1",
        "--type", "A", "--format", "json",
    )
    assert rc == 1
    obj = json.loads(out)
    assert obj["associates"] is False
    pts = [ProjPoint.from_json(params.ring, e) for e in obj["points"]]
    lhs = add(params, add(params, pts[0], pts[1]), pts[2])
    rhs = add(params, pts[0], add(params, pts[1], pts[2]))
    assert lhs != rhs
    assert ProjPoint.from_json(params.ring, obj["lhs"]) == lhs
    assert ProjPoint.from_json(params.ring, obj["rhs"]) == rhs


def test_classify_csv_output(capsys):
    rc, out, _ = run_cli(
        capsys, "classify", "--p-max", "5", "--size-max", "30", "--format", "csv",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,e,A,B,q,order,is_group,invariants,method"
    assert len(lines) == 9
    group_rows = [ln for ln in lines[1:] if ",true," in ln]
    assert len(group_rows) == 2
    for row in group_rows:
        assert "5x15" in row


def test_classify_text_summary(capsys):
    rc, out, _ = run_cli(
        capsys, "classify", "--p-max", "5", "--size-max", "30",
    )
    assert rc == 0
    assert out.strip().splitlines()[-1] == "2 groups among 8 loops"


def test_enumerate_counts(capsys):
    rc, out, _ = run_cli(
        capsys, "enumerate", "-p", "5", "-e", "2", "-A", "2", "-B", "1",
        "--format", "json",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["total"] == 175
    assert len(obj["points"]) == 175


# ----------------------------------------------------------------------------
# usage errors
# ----------------------------------------------------------------------------


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["mul", "-p", "5", "-e", "2", "-A", "2", "-B", "1",
             "--point", "0,1,1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_suite_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "-p", "5", "-e", "2", "-A", "2", "-B", "1",
             "--suite", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("budget", ["-5", "0", "many"])
def test_budget_below_one_exits_two(capsys, budget):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "-p", "5", "-e", "2", "-A", "2", "-B", "1",
             "--suite", "laws", "--budget", budget])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "--budget" in err and "at least 1" in err


@pytest.mark.parametrize("q", ["0", "-3"])
def test_torsion_order_below_one_exits_two(capsys, q):
    with pytest.raises(SystemExit) as exc:
        run(["torsion", "-p", "5", "-e", "2", "-A", "2", "-B", "1", "--q", q])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--q" in err and "at least 1" in err


def test_malformed_point_exits_two(capsys):
    rc, _, err = run_cli(
        capsys, "order", "-p", "5", "-e", "2", "-A", "2", "-B", "1",
        "--point", "1,2",
    )
    assert rc == 2
    assert "X,Y,Z" in err


def test_point_off_the_loop_exits_two(capsys):
    rc, _, err = run_cli(
        capsys, "order", "-p", "5", "-e", "2", "-A", "2", "-B", "1",
        "--point", "1,1,1",
    )
    assert rc == 2
    assert "not on the loop" in err


def test_missing_point_exits_two(capsys):
    rc, _, err = run_cli(
        capsys, "add", "-p", "5", "-e", "2", "-A", "2", "-B", "1",
    )
    assert rc == 2
    assert "at least 2" in err


# ----------------------------------------------------------------------------
# one parser per process
# ----------------------------------------------------------------------------

INSTANCE = ("-p", "5", "-e", "2", "-A", "2", "-B", "1")
#: calls whose flags differ from one to the next: two points, one point, a
#: usage error, the verify and classify parsers, and an add with no point
MIXED_CALLS = (
    ("add", *INSTANCE, "--point", "5,1,0", "--point", "0,1,5", "--format", "json"),
    ("membership", *INSTANCE, "--point", "0,1,5", "--format", "json"),
    ("mul", *INSTANCE, "--point", "0,1,5"),
    ("verify", *INSTANCE, "--suite", "witnesses", "--budget", "500", "--format", "json"),
    ("classify", "--p-max", "5", "--size-max", "25", "--format", "csv"),
    ("membership", *INSTANCE, "--point", "0,1,5", "--point", "1,1,1"),
    ("add", *INSTANCE),
)


def _outcome(capsys, argv):
    try:
        rc = run(list(argv))
    except SystemExit as exc:
        rc = exc.code
    return rc, capsys.readouterr().out


def test_the_parser_is_built_once_across_calls(capsys):
    from elliptic_loops import cli

    cli.build_parser.cache_clear()
    for argv in MIXED_CALLS * 3:
        _outcome(capsys, argv)
    assert cli.build_parser.cache_info().misses == 1


def test_a_reused_parser_answers_as_a_fresh_one(capsys):
    from elliptic_loops import cli

    cli.build_parser.cache_clear()
    reused = [_outcome(capsys, argv) for argv in MIXED_CALLS]
    fresh = []
    for argv in MIXED_CALLS:
        cli.build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert reused == fresh
    assert [rc for rc, _ in reused] == [0, 0, 2, 0, 0, 1, 2]
    # no --point list carries over: one member, then two, then none
    assert len(json.loads(reused[1][1])["members"]) == 1
    assert len(reused[5][1].splitlines()) == 2


# ----------------------------------------------------------------------------
# python -m elliptic_loops
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("point,code,out", [("5,1,0", 0, "25"), ("1,1,1", 2, "")])
def test_module_entry_point(point, code, out):
    src = str(Path(elliptic_loops.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "elliptic_loops", "order", "-p", "5", "-e", "3",
         "-A", "2", "-B", "1", "--point", point],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.strip() == out
