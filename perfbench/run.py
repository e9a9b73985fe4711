"""Benchmark of the elliptic_loops package: three workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify-suites --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

It uses the package under ``src/`` of the same checkout and nothing else.

``--trace 0`` measures for ``--seconds``.  The seed gives one job list
(see ``workloads.py``); the run repeats it in rounds, at least three, and
then while the next round fits.  A shared host slows down by up to half,
in phases from under a second to minutes.  So between rounds the run times
a fixed piece of reference work, scales each round's times to the speed at
which the baseline host runs that work, and takes each job's median scaled
time.  The end-to-end metrics are ``wall_s`` (the time to all verdicts of
the job list), ``job_s.p50`` and ``job_s.p90`` (per job), ``setup_s``
(median over fresh processes of importing the package, building the
shared parameters and generating the job list, scaled the same way) and
``peak_rss_mb`` (the high-water mark of the measuring process).  The
result file also keeps the unscaled times.

``--trace 1`` runs the job list once untraced, then once under the tracer
(``tracer.py``), checks that both gave identical answers, and reports the
per-layer metrics of the traced round with ``trace.overhead_frac``.

Every answer is checked by the workload's oracle outside the timed region;
a job that raises or answers wrongly counts as failed.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file with provenance
is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("verify-suites", "exhaustive-tables", "cli-queries")
SETUP_PROBES = 7
MIN_ROUNDS = 3


def _import_workloads():
    if not os.path.isfile(os.path.join(SRC, "elliptic_loops", "__init__.py")):
        raise SystemExit(f"error: no elliptic_loops package under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import workloads

    return workloads


def _commit() -> str:
    """HEAD of the checkout, read from .git directly ('unknown' without one)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ----------------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------------

#: Median seconds of the reference work on the host the baseline was
#: measured on (a 2-vCPU Intel Xeon virtual machine) in its fast phases.
#: Reported times are scaled to that speed; the result file keeps the
#: measured ones.
REF_SECONDS = 0.0020
_REF_TABLE = [[(i * j + 3 * i + j) % 181 for j in range(181)] for i in range(181)]


def _reference_work() -> float:
    """Seconds for fixed pure-Python work that uses nothing of the package:
    modular products, index chasing through a list of lists and tuple-keyed
    dicts, the shapes of the package's hot paths."""
    t0 = time.perf_counter()
    m, x = 5**7, 1
    for _ in range(6000):
        x = (x * 48271 + 11) % m
    table, k = _REF_TABLE, 0
    for i in range(20000):
        k = table[k][i % 181]
    d = {}
    for i in range(3000):
        d[(i, i & 7)] = i
    for i in range(3000):
        x += d[(i, i & 7)]
    return time.perf_counter() - t0


def host_speed(window: float = 0.3) -> float:
    """Median time of the reference work over ``window`` seconds."""
    times = []
    end = time.perf_counter() + window
    while time.perf_counter() < end:
        times.append(_reference_work())
    return statistics.median(times)


# ----------------------------------------------------------------------------
# set-up probe (runs in a fresh process)
# ----------------------------------------------------------------------------


def probe_setup(name: str, seed: int) -> None:
    t0 = time.perf_counter()
    workloads = _import_workloads()
    wl = workloads.CLASSES[name](seed)
    wl.jobs()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(name: str, seed: int) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ----------------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------------


def run_round(run, jobs, order):
    """Run every job once, in ``order``; returns (wall, latencies, answers, errors),
    the last three indexed like ``jobs``."""
    clock = time.perf_counter
    n = len(jobs)
    latencies, answers, errors = [0.0] * n, [None] * n, [None] * n
    start = clock()
    for i in order:
        t0 = clock()
        try:
            answers[i] = run(jobs[i])
        except Exception as exc:  # a job that raises is a failed job, never dropped
            errors[i] = f"raised {type(exc).__name__}: {exc}"
        latencies[i] = clock() - t0
    return clock() - start, latencies, answers, errors


def check_rounds(workloads, wl, jobs, rounds):
    """The oracle: returns (failures, round-level errors).

    Round 0's answers go through the workload's oracle; every later round
    ran the same inputs and must give the same answers (kept as digests).
    """
    _, _, answers0, errors0 = rounds[0]
    errors0 = list(errors0)
    for i, (job, answer) in enumerate(zip(jobs, answers0)):
        if errors0[i] is not None:
            continue
        try:
            problems = wl.check(job, answer)
        except Exception as exc:  # a malformed answer fails its job
            problems = [f"oracle raised {type(exc).__name__}: {exc}"]
        if problems:
            errors0[i] = "; ".join(problems)
    try:
        round_errors = wl.check_round(jobs, answers0)
    except Exception as exc:
        round_errors = [f"round oracle raised {type(exc).__name__}: {exc}"]
    digests0 = [workloads.digest(a) for a in answers0]
    failures = []
    for k, (_, _, answers, errors) in enumerate(rounds):
        for i, job in enumerate(jobs):
            err = errors[i] or errors0[i]
            if err is None and k and answers[i] != digests0[i]:
                err = "answer differs from round 0 on the same input"
            if err is not None:
                failures.append({"round": k, "job": job, "error": err})
    return failures, round_errors


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _keep(workloads, rounds, outcome):
    """Later rounds keep digests only, so memory does not grow with the rounds."""
    if not rounds:
        return outcome
    wall, latencies, answers, errors = outcome
    return wall, latencies, [workloads.digest(a) for a in answers], errors


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workloads = _import_workloads()
    wl = workloads.CLASSES[name](seed)
    jobs = wl.jobs()
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    rounds = []  # (wall, latencies, answers, errors)
    if not trace:
        speeds = [host_speed()]
        setup_raw = statistics.median(measure_setup(name, seed))
        speeds.append(host_speed())
        setup_s = setup_raw * REF_SECONDS * 2 / (speeds[0] + speeds[1])
        started = time.perf_counter()
        while True:
            order = list(range(len(jobs)))
            if rounds:
                random.Random(f"order:{seed}:{len(rounds)}").shuffle(order)
            rounds.append(_keep(workloads, rounds, run_round(wl.run, jobs, order)))
            speeds.append(host_speed())
            # every job is timed at least MIN_ROUNDS times; after that a
            # round starts only if it is expected to end within the time
            if (len(rounds) >= MIN_ROUNDS
                    and time.perf_counter() - started + rounds[-1][0] > seconds):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        import tracer as tracer_mod

        order = list(range(len(jobs)))
        rounds.append(run_round(wl.run, jobs, order))
        tr = tracer_mod.Tracer().install()
        try:
            # each job is the root span of the spans it causes
            traced = run_round(tr.job_runner(wl.run), jobs, order)
        finally:
            tr.uninstall()
        rounds.append(_keep(workloads, rounds, traced))

    failures, round_errors = check_rounds(workloads, wl, jobs, rounds)
    traffic = wl.traffic(jobs, rounds[0][2])
    attempted = len(jobs) * len(rounds)
    result.update({
        "jobs": len(jobs),
        "rounds": len(rounds),
        "round_wall_s": [r[0] for r in rounds],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "round_errors": round_errors,
        "correct": not failures and not round_errors,
        "traffic": traffic,
    })
    if not trace:
        # A shared host slows down by up to half, in phases from under a
        # second to minutes.  Each round's times are scaled by the host speed
        # around it, and each job keeps the median of its scaled repeats.
        scale = [REF_SECONDS * 2 / (speeds[k + 1] + speeds[k + 2]) for k in range(len(rounds))]
        job_s = [statistics.median(r[1][i] * s for r, s in zip(rounds, scale))
                 for i in range(len(jobs))]
        measured = [statistics.median(r[1][i] for r in rounds) for i in range(len(jobs))]
        result.update(host_speed_s=speeds, job_s=job_s, job_s_measured=measured,
                      measured={"wall_s": sum(measured), "job_s.p50": statistics.median(measured),
                                "job_s.p90": _p90(measured), "setup_s": setup_raw})
        result["metrics"] = {
            "wall_s": {"value": sum(job_s), "unit": "s"},
            "job_s.p50": {"value": statistics.median(job_s), "unit": "s"},
            "job_s.p90": {"value": _p90(job_s), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        result["metrics"] = layer_metrics(tr, traffic, rounds[0][0], rounds[1][0])
        result["spans"] = tr.spans
    return result


# ----------------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------------

SUITES = ("laws", "cardinality", "projection", "three-torsion", "stratification", "layers",
          "hessian-closure", "infinity", "low-nilpotency", "torsion", "congruences",
          "witnesses", "structure")


def layer_metrics(tr, traffic, untraced_wall, traced_wall) -> dict:
    stats, counters = tr.stats, tr.counters

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    def ring_sum(kind, field):
        return sum(v[field] for k, v in stats.items() if k.startswith(f"ring.{kind}."))

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for kind in ("int", "poly"):
        put(f"ring.{kind}.calls", ring_sum(kind, 0), "count")
        put(f"ring.{kind}.self_s", ring_sum(kind, 2), "s")
    put("ring.int.inverse.calls", calls("ring.int.inverse"), "count")
    for op in ("mul", "inverse"):
        put(f"ring.poly.{op}.calls", calls(f"ring.poly.{op}"), "count")
        put(f"ring.poly.{op}.self_s", self_s(f"ring.poly.{op}"), "s")
    for name in ("projective.normalize", "loop_core.add", "loop_core.scalar_mul"):
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.self_s", self_s(name), "s")
    adds = calls("loop_core.add")
    put("loop_core.add.ns_per_call", ratio(self_s("loop_core.add"), adds) * 1e9, "ns")
    put("loop_core.add.canonical_frac", ratio(counters.get("add.canonical", 0), adds), "ratio")
    put("loop_core.add.poly_frac", ratio(counters.get("add.poly", 0), adds), "ratio")
    put("loop_core.order_of.calls", calls("loop_core.order_of"), "count")
    put("loop_core.order_of.total_s", total("loop_core.order_of"), "s")
    put("loop_core.order_of.adds_per_call",
        ratio(counters.get("order_of.adds", 0), calls("loop_core.order_of")), "count")
    put("loop_core.LoopParams.calls", calls("loop_core.LoopParams"), "count")
    put("loop_core.LoopParams.total_s", total("loop_core.LoopParams"), "s")
    put("loop_core.loop_points.total_s", total("loop_core.loop_points"), "s")
    hits = counters.get("residue_order.hits", 0)
    put("loop_core.residue_order.hit_ratio",
        ratio(hits, hits + counters.get("residue_order.misses", 0)), "ratio")

    put("layers.layer_points.calls", calls("layers.layer_points"), "count")
    put("layers.layer_points.total_s", total("layers.layer_points"), "s")
    put("layers.Layer.equation.calls", calls("layers.Layer.equation"), "count")
    put("layers.layer_infinity_generator.total_s", total("layers.layer_infinity_generator"), "s")
    put("layers.layer_isomorphism_check.total_s", total("layers.layer_isomorphism_check"), "s")

    put("structure.infinity_decompose.calls", calls("structure.infinity_decompose"), "count")
    put("structure.infinity_decompose.total_s", total("structure.infinity_decompose"), "s")
    put("structure.AssocMatrix.calls", calls("structure.AssocMatrix"), "count")
    put("structure.torsion.total_s", total("structure.torsion"), "s")

    build, sweep = "diagnostics.CayleyIndex.build", "diagnostics.CayleyIndex.assoc_sweep"
    entries, triples = counters.get("cayley.entries", 0), counters.get("cayley.triples", 0)
    put(f"{build}.calls", calls(build), "count")
    put(f"{build}.total_s", total(build), "s")
    put(f"{build}.entries", entries, "count")
    put(f"{build}.ns_per_entry", ratio(total(build), entries) * 1e9, "ns")
    put(f"{sweep}.total_s", total(sweep), "s")
    put(f"{sweep}.triples", triples, "count")
    put(f"{sweep}.ns_per_triple", ratio(total(sweep), triples) * 1e9, "ns")
    put("diagnostics.CayleyIndex.mul.calls", calls("diagnostics.CayleyIndex.mul"), "count")
    sizes = sorted(tr.sizes)
    put("diagnostics.CayleyIndex.size.p50", statistics.median(sizes) if sizes else 0, "count")
    put("diagnostics.CayleyIndex.size.max", sizes[-1] if sizes else 0, "count")
    for suite in SUITES:
        put(f"diagnostics.suite.{suite}.total_s", total(f"diagnostics.suite.{suite}"), "s")
    cert = "diagnostics.group_certificate"
    put(f"{cert}.calls", calls(cert), "count")
    put(f"{cert}.total_s", total(cert), "s")
    put(f"{cert}.adds_per_call",
        ratio(counters.get("group_certificate.adds", 0), calls(cert)), "count")
    put("diagnostics.reports.exhaustive_frac",
        ratio(traffic.get("reports_exhaustive", 0), traffic.get("reports", 0)), "ratio")

    put("cli.run.calls", calls("cli.run"), "count")
    put("cli.run.total_s", total("cli.run"), "s")
    put("cli.run.self_s", self_s("cli.run"), "s")

    put("trace.overhead_frac", ratio(traced_wall, untraced_wall) - 1, "ratio")
    return m


# ----------------------------------------------------------------------------
# output
# ----------------------------------------------------------------------------


def provenance(result) -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": result["seed"],
        "workload": result["workload"],
        "jobs": result["jobs"],
        "rounds": result["rounds"],
        "jobs_attempted": result["attempted"],
    }


def write_result(result) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(
        RESULTS, f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json")
    with open(path, "w") as fh:
        json.dump(dict(result, provenance=provenance(result)), fh, indent=1, sort_keys=True)
    return path


def report(result) -> None:
    name = result["workload"]
    print(f"{name}: seed {result['seed']}, {result['rounds']} round(s) of "
          f"{result['jobs']} jobs, {result['attempted']} attempted, "
          f"{result['failed']} failed (failed_frac "
          f"{result['failed'] / result['attempted']:.4f})")
    for metric, v in result["metrics"].items():
        print(f"  {metric:52s} {v['value']:.6g} {v['unit']}")
    if "measured" in result:
        print("  unscaled: " + ", ".join(f"{k} {v:.6g} s" for k, v in result["measured"].items()))
    if result["traffic"]:
        print(f"  traffic: {json.dumps(result['traffic'])}")
    for f in result["failures"]:
        print(f"  FAILED: {f['error']} (round {f['round']}, job {json.dumps(f['job'])})")
    for err in result["round_errors"]:
        print(f"  FAILED: {err}")


def final_line(result) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }, sort_keys=True)


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            return out.returncode or 1
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_result(result)
    report(result)
    print(f"  result file: {os.path.relpath(path, ROOT)}")
    print(final_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
