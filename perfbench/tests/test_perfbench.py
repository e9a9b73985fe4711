"""Tests of the benchmark itself: determinism, seed handling, oracles, tracer.

They run only cheap jobs of each workload, so the whole file takes seconds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import tracer  # noqa: E402
import workloads  # noqa: E402
from elliptic_loops import loop_core  # noqa: E402


def _cheap(name, jobs):
    """A handful of fast jobs of one round."""
    if name == "verify-suites":
        keep = [j for j in jobs if j["suite"] in ("witnesses", "cardinality", "three-torsion")
                and j["instance"] in (0, 2)]
    elif name == "exhaustive-tables":
        keep = [j for j in jobs if tuple(j["inst"]) == (5, 2, 2, 1) and j["kind"] == "layer"]
        keep += [j for j in jobs if j["kind"] == "laws" and tuple(j["inst"]) == (5, 2, 2, 1)]
    else:
        keep = [j for j in jobs if j["inst"] and j["inst"][0] in (5, 7) and j["argv"][0] in
                ("add", "mul", "order", "membership", "stratify", "decompose", "witness")]
    return keep[:12]


def _catalog(name, jobs):
    if name == "verify-suites":
        return sorted((j["instance"], j["suite"]) for j in jobs)
    if name == "exhaustive-tables":
        # which layers of (5,3,2,1) are swept is sampled; every layer costs the same
        return sorted(json.dumps([j["kind"], j["inst"],
                                  None if j["inst"][1] == 3 else j.get("t")]) for j in jobs)
    return sorted((j["argv"][0], tuple(j["inst"] or ())) for j in jobs)


@pytest.mark.parametrize("name", list(workloads.CLASSES))
def test_same_seed_same_jobs_and_verdicts(name):
    a, b = workloads.CLASSES[name](7), workloads.CLASSES[name](7)
    assert workloads.digest(a.jobs()) == workloads.digest(b.jobs())
    jobs = _cheap(name, a.jobs())
    assert jobs
    answers_a = [a.run(j) for j in jobs]
    answers_b = [b.run(j) for j in jobs]
    assert workloads.digest(answers_a) == workloads.digest(answers_b)
    for job, answer in zip(jobs, answers_a):
        assert a.check(job, answer) == []


@pytest.mark.parametrize("name", list(workloads.CLASSES))
def test_other_seed_changes_samples_not_catalog(name):
    a, b = workloads.CLASSES[name](1), workloads.CLASSES[name](2)
    ja, jb = a.jobs(), b.jobs()
    assert workloads.digest(ja) != workloads.digest(jb)
    assert _catalog(name, ja) == _catalog(name, jb)


def _first(wl, jobs, pred):
    job = next(j for j in jobs if pred(j))
    answer = wl.run(job)
    assert wl.check(job, answer) == []
    return job, answer


def test_oracle_flags_corrupted_verify_report():
    wl = workloads.VerifySuites(3)
    job, answer = _first(wl, wl.jobs(), lambda j: j["suite"] == "cardinality")
    bad = copy.deepcopy(answer)
    bad[0]["holds"] = False
    assert wl.check(job, bad)


def test_oracle_flags_corrupted_tables():
    wl = workloads.ExhaustiveTables(3)
    jobs = wl.jobs()
    job, answer = _first(wl, jobs, lambda j: j["kind"] == "layer" and j["inst"][:2] == (5, 2))
    assert wl.check(job, dict(answer, bad=[0, 1, 2]))
    assert wl.check(job, dict(answer, n=answer["n"] + 1))
    job, answer = _first(wl, jobs, lambda j: j["kind"] == "laws" and not j["group"])
    bad = copy.deepcopy(answer)
    params = wl.params[tuple(job["inst"])]
    ident = loop_core.identity(params).to_json()
    for r in bad["reports"]:
        r["counterexample"]["points"] = [ident, ident, ident]  # an associating triple
    assert wl.check(job, bad)


def test_oracle_flags_corrupted_cli_answers():
    wl = workloads.CliQueries(3)
    jobs = wl.jobs()
    job, answer = _first(wl, jobs, lambda j: j["argv"][0] == "order" and j["inst"][:2] == (5, 3))
    obj = json.loads(answer["stdout"])
    assert wl.check(job, dict(answer, stdout=json.dumps({"order": obj["order"] * 2})))
    assert wl.check(job, dict(answer, exit=2))
    job, answer = _first(wl, jobs, lambda j: j["argv"][0] == "decompose" and j["inst"][0] == 5)
    obj = json.loads(answer["stdout"])
    obj["alpha"] += 1
    assert wl.check(job, dict(answer, stdout=json.dumps(obj)))
    job, answer = _first(wl, jobs, lambda j: j["argv"][0] == "classify")
    obj = json.loads(answer["stdout"])
    group = next(r for r in obj["records"] if r["is_group"])
    group.update(is_group=False, invariants=None)  # a group certified as a non-group
    assert wl.check(job, dict(answer, stdout=json.dumps(obj)))
    obj["records"].pop()
    assert wl.check(job, dict(answer, stdout=json.dumps(obj)))


def test_tracer_restores_and_changes_no_answer():
    wl = workloads.ExhaustiveTables(5)
    jobs = _cheap("exhaustive-tables", wl.jobs())
    plain = [wl.run(j) for j in jobs]
    original = loop_core.add
    tr = tracer.Tracer().install()
    try:
        assert loop_core.add is not original
        traced = [wl.run(j) for j in jobs]
    finally:
        tr.uninstall()
    assert loop_core.add is original
    assert workloads.digest(traced) == workloads.digest(plain)
    assert tr.calls("loop_core.add") > 0
    assert tr.calls("diagnostics.CayleyIndex.build") == len(tr.sizes) > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
