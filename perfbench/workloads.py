"""The three benchmark workloads: catalogs, job generation, jobs and oracles.

Every workload is a closed loop with one client: one job runs at a time,
in one process, and the next starts when the previous one has returned.
A workload is built from a seed.  Its instance catalog is fixed; the seed
only drives the job order, the sampled points and the seeds handed to the
library's own samplers, so runs on different seeds cost about the same.

The seed gives one job list, which covers the whole catalog.  A run
repeats it in rounds (in a new order each round), so every job is timed
several times on the same input.

Jobs are plain JSON-able dicts, answers are JSON-able values.  The oracle
(:meth:`Workload.check`) runs outside the timed region and returns a list
of error strings, empty when the answer is right.  Library calls go
through module attributes (``diagnostics.law_suite`` rather than a bound
name) so that the tracer's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

from elliptic_loops import cli, diagnostics, layers, loop_core, structure
from elliptic_loops.errors import EvenOrder, SingularCurve
from elliptic_loops.projective import ProjPoint
from elliptic_loops.ring import RingConfig


def digest(obj) -> str:
    """Stable hash of a JSON-able value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _params(kind: str, p: int, e: int, a: int, b: int):
    ring = RingConfig.integer(p, e) if kind == "int" else RingConfig.truncated_poly(p, e)
    return loop_core.validate_params(ring, a, b)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _decode(params, coords):
    dec = params.ring.payload_from_json
    return [ProjPoint(params.ring, *(dec(c) for c in xyz)) for xyz in coords]


def _associates(params, a, b, c) -> bool:
    add = loop_core.add
    return add(params, add(params, a, b), c) == add(params, a, add(params, b, c))


class Workload:
    """Base class: shared state is built in ``__init__`` (the set-up)."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def jobs(self) -> list:
        """The job list of this seed, in its first-round order."""
        raise NotImplementedError

    def run(self, job):
        raise NotImplementedError

    def check(self, job, answer) -> list:
        raise NotImplementedError

    def check_round(self, jobs, answers) -> list:
        """Checks that need the whole round (default: none)."""
        return []

    def traffic(self, jobs, answers) -> dict:
        """Input properties of the round that later optimisations key on."""
        return {}


# ----------------------------------------------------------------------------
# verify-suites
# ----------------------------------------------------------------------------

#: (ring kind, p, e, A, B): the e <= 3 instances users verify (the
#: polynomial one is the only real load on the F_p[t]/(t^e) ring), then
#: four small e = 2 loops that bring the job list to 104, so that
#: job_s.p90 has ten jobs beyond it
VERIFY_INSTANCES = (
    ("int", 5, 2, 2, 1),
    ("int", 5, 3, 2, 1),
    ("int", 7, 2, 0, 2),
    ("poly", 5, 2, 2, 1),
    ("int", 5, 2, 4, 2),
    ("int", 5, 2, 3, 2),
    ("int", 5, 2, 1, 1),
    ("int", 7, 2, 1, 1),
)
#: The CLI default (200,000) makes one round take about a minute, longer
#: than a whole run; at 1,000 a round takes a few seconds, so a run times
#: every job about five times.  At this budget the layer and
#: hessian-closure suites report "skipped" at e = 3 (the layers of (5,3)
#: are swept by exhaustive-tables instead).
VERIFY_BUDGET = 1_000


class VerifySuites(Workload):
    name = "verify-suites"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.params = [_params(*inst) for inst in VERIFY_INSTANCES]
        self.suites = tuple(diagnostics.VERIFY_SUITES)

    def jobs(self):
        rng = _rng(self.name, self.seed)
        out = [
            {"instance": i, "suite": s, "seed": rng.randrange(2**31)}
            for i in range(len(VERIFY_INSTANCES))
            for s in self.suites
        ]
        rng.shuffle(out)
        return out

    def run(self, job):
        reports = diagnostics.verify_instance(
            self.params[job["instance"]], job["suite"], budget=VERIFY_BUDGET,
            seed=job["seed"])
        return [r.to_json() for r in reports]

    def check(self, job, answer):
        if not answer:
            return ["no reports"]
        return [f"{r['law']} does not hold" for r in answer if not r["holds"]]

    def traffic(self, jobs, answers):
        reports = [r for a in answers if a for r in a]
        exhaustive = sum(1 for r in reports if r["exhaustive"])
        return {"reports": len(reports), "reports_exhaustive": exhaustive}


# ----------------------------------------------------------------------------
# exhaustive-tables
# ----------------------------------------------------------------------------

#: layers L_t of (5,3,2,1) are swept exhaustively; the seed picks which
#: (each has 175 points and costs the same; all 25 would take about 7 s)
TABLE_BIG_LAYERS = 4
#: every layer of these e = 2 loops is swept (15 to 91 points); together
#: with the rest they make 105 jobs, so job_s.p90 has ten jobs beyond it
TABLE_LAYER_INSTANCES = (
    (5, 2, 2, 1),
    (5, 2, 3, 2),
    (5, 2, 1, 1),
    (5, 2, 4, 2),
    (5, 2, 3, 3),
    (5, 2, 1, 4),
    (5, 2, 2, 4),
    (7, 2, 0, 2),
    (7, 2, 0, 4),
    (7, 2, 0, 5),
    (7, 2, 1, 1),
    (7, 2, 2, 1),
    (11, 2, 2, 7),
    (13, 2, 0, 6),
)
#: infinity parts swept over all |S|^3 triples (the 625-point part of
#: (5,3) alone takes longer than a round and is left out)
TABLE_INFINITY_INSTANCES = ((5, 2, 2, 1), (7, 2, 0, 2), (13, 2, 0, 6))
#: whole loops: two groups, and one non-group whose sweep exits early
TABLE_LAW_INSTANCES = ((5, 2, 4, 2, True), (7, 2, 0, 4, True), (5, 2, 2, 1, False))
TABLE_LAWS = ("full-associative", "moufang")
#: criterion 10 uses 4,000,000, about 15 s and most of a run; from
#: 109,375 up the identities over single fibers are still exhaustive
TABLE_NILPOTENCY_BUDGET = 120_000


class ExhaustiveTables(Workload):
    name = "exhaustive-tables"

    def __init__(self, seed: int):
        super().__init__(seed)
        insts = {(5, 3, 2, 1)} | set(TABLE_LAYER_INSTANCES) | set(TABLE_INFINITY_INSTANCES)
        insts |= {t[:4] for t in TABLE_LAW_INSTANCES}
        self.params = {inst: _params("int", *inst) for inst in sorted(insts)}

    def jobs(self):
        rng = _rng(self.name, self.seed)
        big = list(self.params[(5, 3, 2, 1)].ring.ideal_elements())
        out = [{"kind": "layer", "inst": (5, 3, 2, 1), "t": t}
               for t in sorted(rng.sample(big, TABLE_BIG_LAYERS))]
        for inst in TABLE_LAYER_INSTANCES:
            ring = self.params[inst].ring
            out += [{"kind": "layer", "inst": inst, "t": t} for t in ring.ideal_elements()]
        out += [{"kind": "infinity", "inst": inst, "seed": rng.randrange(2**31)}
                for inst in TABLE_INFINITY_INSTANCES]
        out += [{"kind": "laws", "inst": inst[:4], "group": inst[4],
                 "seed": rng.randrange(2**31)} for inst in TABLE_LAW_INSTANCES]
        out.append({"kind": "low-nilpotency", "inst": (5, 2, 2, 1),
                    "seed": rng.randrange(2**31)})
        rng.shuffle(out)
        return out

    def run(self, job):
        params = self.params[tuple(job["inst"])]
        kind = job["kind"]
        if kind == "layer":
            pts = layers.layer_points(layers.Layer(params, job["t"]))
            table = diagnostics.CayleyIndex(params, pts)
            return {"n": len(pts), "bad": table.assoc_sweep()}
        if kind == "infinity":
            n = params.ring.ideal_size ** 2
            reports = diagnostics.infinity_suite(params, budget=n**3, seed=job["seed"])
        elif kind == "laws":
            n = params.cardinality()
            reports = diagnostics.law_suite(params, TABLE_LAWS, budget=n**3, seed=job["seed"])
        else:
            n = params.cardinality()
            reports = diagnostics.low_nilpotency_suite(
                params, budget=TABLE_NILPOTENCY_BUDGET, seed=job["seed"])
        return {"n": n, "reports": [r.to_json() for r in reports]}

    def check(self, job, answer):
        params = self.params[tuple(job["inst"])]
        kind, n = job["kind"], answer["n"]
        if kind == "layer":
            errs = [] if n == params.q * params.ring.ideal_size else [f"layer has {n} points"]
            if answer["bad"] is not None:
                errs.append(f"layer sweep found a non-associative triple {answer['bad']}")
            return errs
        reports = {r["law"]: r for r in answer["reports"]}
        if kind == "infinity":
            errs = [f"{r['law']} does not hold" for r in reports.values() if not r["holds"]]
            assoc = reports.get("infinity-associativity")
            if assoc is None or not assoc["exhaustive"] or assoc["checked"] != n**3:
                errs.append("infinity associativity was not swept over all n^3 triples")
            return errs
        if kind == "low-nilpotency":
            return [f"{r['law']} does not hold" for r in reports.values() if not r["holds"]]
        errs = []
        for law in TABLE_LAWS:
            r = reports.get(law)
            if r is None or not r["exhaustive"] or r["checked"] != n**3:
                errs.append(f"{law} was not swept over all n^3 triples")
            elif job["group"] and not r["holds"]:
                errs.append(f"{law} fails on a group")
            elif not job["group"]:
                errs += self._replay_failure(params, law, r)
        return errs

    @staticmethod
    def _replay_failure(params, law, report):
        if report["holds"] or not report["counterexample"]:
            return [f"{law} holds on a loop that is not a group"]
        a, b, c = _decode(params, report["counterexample"]["points"])
        if law == "full-associative":
            bad = not _associates(params, a, b, c)
        else:
            add = loop_core.add
            bad = (add(params, add(params, a, add(params, b, c)), c)
                   != add(params, add(params, add(params, a, c), c), b))
        return [] if bad else [f"{law} counterexample does not replay"]

    def traffic(self, jobs, answers):
        sizes = sorted(a["n"] for j, a in zip(jobs, answers) if a and j["kind"] == "layer")
        reports = [r for a in answers if a for r in a.get("reports", ())]
        return {"layer_sizes": sizes, "reports": len(reports),
                "reports_exhaustive": sum(1 for r in reports if r["exhaustive"])}


# ----------------------------------------------------------------------------
# cli-queries
# ----------------------------------------------------------------------------

#: (p, A, B, exponents); q = 7 everywhere, none of it residue 3-torsion
CLI_CURVES = ((5, 2, 1, range(2, 8)), (7, 0, 5, range(2, 6)), (13, 0, 6, range(2, 5)),
              (10007, 1, 1, (2,)))
#: commands whose cost grows too fast with the instance get a smaller range:
#: order is linear in the point order, layers sweeps orders over a whole
#: layer, enumerate scans the plane, torsion and verify scan the loop
CLI_LAYERS = {(5, 2), (5, 3), (7, 2), (7, 3), (13, 2)}
CLI_ENUMERATE = {(5, 2), (5, 3), (7, 2), (13, 2), (5, 5), (7, 4)}
CLI_TORSION = {(5, 2), (7, 2), (13, 2)}
CLI_VERIFY = {(5, 2): "witnesses", (5, 3): "three-torsion", (7, 2): "congruences",
              (13, 2): "cardinality"}
CLI_MUL_MAX = 2000
#: criterion 01 of the paper: the six loops with e >= 2, p^e <= 300 and
#: p <= 17 that are groups, with their invariant factors
SIX_GROUPS = (
    (5, 2, 4, 2, (5, 15)),
    (5, 2, 4, 3, (5, 15)),
    (7, 2, 0, 2, (21, 21)),
    (7, 2, 0, 4, (7, 21)),
    (13, 2, 0, 3, (39, 39)),
    (13, 2, 0, 10, (39, 39)),
)
#: One classification per job list, over the 24 loops with p^e <= 50.  It
#: certifies four of the six groups; the 441-point (7,2,0,2) takes most of
#: it.  All 224 loops up to 300 take about 17 s, most of a run.
CLI_CLASSIFY = ["classify", "--p-max", "7", "--size-max", "50", "--format", "json"]


def cli_catalog() -> list:
    """(command, p, e, A, B) for every query of one round."""
    out = []
    for p, a, b, es in CLI_CURVES:
        for e in es:
            inst = (p, e, a, b)
            cmds = ["add", "mul", "membership", "stratify", "decompose", "witness"]
            if p < 1000:
                cmds.append("order")
            if (p, e) in CLI_LAYERS:
                cmds.append("layers")
            if (p, e) in CLI_ENUMERATE:
                cmds.append("enumerate")
            if (p, e) in CLI_TORSION:
                cmds.append("torsion")
            if (p, e) in CLI_VERIFY:
                cmds.append("verify")
            out += [(cmd,) + inst for cmd in cmds]
    return out


def _pt_arg(pt) -> str:
    return f"{pt.x},{pt.y},{pt.z}"


class CliQueries(Workload):
    name = "cli-queries"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.catalog = cli_catalog()
        self.params = {c[1:]: _params("int", *c[1:]) for c in self.catalog}

    def _argv(self, rng, cmd, p, e, a, b):
        params = self.params[(p, e, a, b)]
        ring = params.ring
        argv = [cmd, "-p", str(p), "-e", str(e), "-A", str(a), "-B", str(b),
                "--format", "json"]

        def rand_pt():
            return diagnostics.random_loop_point(params, rng)

        if cmd == "add":
            argv += ["--point", _pt_arg(rand_pt()), "--point", _pt_arg(rand_pt())]
        elif cmd == "mul":
            argv += ["--point", _pt_arg(rand_pt()), "-n", str(rng.randrange(2, CLI_MUL_MAX))]
        elif cmd == "order":
            argv += ["--point", _pt_arg(rand_pt())]
        elif cmd == "membership":
            # a loop point and a primitive plane point, which is usually not on it
            x, z = rng.randrange(ring.modulus), rng.randrange(ring.modulus)
            argv += ["--point", _pt_arg(rand_pt()), "--point", f"{x},1,{z}"]
        elif cmd == "stratify":
            pt = rand_pt()
            while params.project(pt).z == 0:
                pt = rand_pt()
            argv += ["--point", _pt_arg(pt)]
        elif cmd == "decompose":
            argv += ["--point", _pt_arg(diagnostics.random_infinity_point(params, rng))]
        elif cmd == "witness":
            argv += ["--type", "B" if e == 2 else "A" if e < 6 else "inf"]
        elif cmd == "layers":
            argv += ["--t", str(ring.random_element(rng, 1))]
        elif cmd == "verify":
            argv += ["--suite", CLI_VERIFY[(p, e)], "--budget", "2000",
                     "--seed", str(rng.randrange(2**31))]
        return argv

    def jobs(self):
        rng = _rng(self.name, self.seed)
        out = [{"argv": self._argv(rng, *c), "inst": c[1:]} for c in self.catalog]
        out.append({"argv": CLI_CLASSIFY + ["--seed", str(rng.randrange(2**31))],
                    "inst": None})
        rng.shuffle(out)
        return out

    def run(self, job):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(job["argv"])
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def check(self, job, answer):
        argv = job["argv"]
        cmd = argv[0]
        params = self.params[tuple(job["inst"])] if job["inst"] else None
        pts = [ProjPoint.of(params.ring, *map(int, argv[i + 1].split(",")))
               for i, a in enumerate(argv) if a == "--point"]
        expected_exit = 1 if cmd == "witness" else 0
        if cmd == "membership":
            members = [loop_core.membership(params, pt) for pt in pts]
            expected_exit = 0 if all(members) else 1
        if answer["exit"] != expected_exit:
            return [f"exit {answer['exit']}, expected {expected_exit}: {answer['stderr']!r}"]
        try:
            obj = json.loads(answer["stdout"])
        except ValueError:
            return ["stdout is not one JSON object"]
        return _CLI_ORACLES[cmd](params, argv, pts, obj)


def _from_json(params, coords):
    return ProjPoint.from_json(params.ring, coords)


def _oracle_add(params, argv, pts, obj):
    total = _from_json(params, obj["sum"])
    # P + (-P + Q) = Q holds in every elliptic loop
    back = loop_core.add(params, loop_core.neg(params, pts[0]), total)
    return [] if back == pts[1] else ["sum does not subtract back"]


def _oracle_mul(params, argv, pts, obj):
    n = int(argv[argv.index("-n") + 1])
    acc = loop_core.identity(params)
    for _ in range(n):
        acc = loop_core.add(params, acc, pts[0])
    return [] if _from_json(params, obj["multiple"]) == acc else ["n * P is not the n-fold sum"]


def _prime_factors(n):
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    return out | ({n} if n > 1 else set())


def _oracle_order(params, argv, pts, obj):
    n, pt = obj["order"], pts[0]
    ident = loop_core.identity(params)
    if loop_core.scalar_mul(params, n, pt) != ident:
        return [f"{n} * P is not the identity"]
    if any(loop_core.scalar_mul(params, n // ell, pt) == ident for ell in _prime_factors(n)):
        return [f"order {n} is not minimal"]
    return []


def _oracle_membership(params, argv, pts, obj):
    got = [m["member"] for m in obj["members"]]
    want = [not params.ring.is_unit(loop_core.eval_F(params, pt).val) for pt in pts]
    return [] if got == want else [f"membership {got}, expected {want}"]


def _oracle_stratify(params, argv, pts, obj):
    ring, pt = params.ring, pts[0]
    t = ring.payload_from_json(obj["t"])
    f, h = loop_core.eval_F(params, pt).val, loop_core.eval_H(params, pt).val
    return [] if f == ring.mul(t, h) else ["F(P) != t * H(P)"]


def _oracle_decompose(params, argv, pts, obj):
    g1, g2 = structure.infinity_generators(params)
    sm = loop_core.scalar_mul
    back = loop_core.add(params, sm(params, obj["alpha"], g1), sm(params, obj["beta"], g2))
    return [] if back == pts[0] else ["decomposition does not recompose"]


def _oracle_witness(params, argv, pts, obj):
    a, b, c = (_from_json(params, x) for x in obj["points"])
    add = loop_core.add
    lhs, rhs = add(params, add(params, a, b), c), add(params, a, add(params, b, c))
    reported = (_from_json(params, obj["lhs"]), _from_json(params, obj["rhs"]))
    return [] if lhs != rhs and (lhs, rhs) == reported else ["witness does not replay"]


def _oracle_layers(params, argv, pts, obj):
    ring = params.ring
    (rep,) = obj["layers"]
    isz = ring.ideal_size
    errs = []
    if rep["cardinality"] != params.q * isz:
        errs.append(f"layer size {rep['cardinality']}")
    if rep["infinity_order"] != isz:
        errs.append(f"infinity order {rep['infinity_order']}")
    gen = ProjPoint(ring, ring.uniformizer(), ring.one, ring.payload_from_json(rep["Z_t"]))
    layer = layers.Layer(params, ring.payload_from_json(rep["t"]))
    if layer.equation(gen.x, gen.y, gen.z) != ring.zero:
        errs.append("(p : 1 : Z_t) is not on the layer")
    return errs


def _oracle_enumerate(params, argv, pts, obj):
    isz = params.ring.ideal_size
    errs = [] if obj["total"] == params.q * isz**2 else [f"|L| = {obj['total']}"]
    if obj.get("formulas_match") is False:
        errs.append("enumeration disagrees with the formulas")
    if "points" in obj and len({tuple(p) for p in obj["points"]}) != obj["total"]:
        errs.append("point list has the wrong size")
    return errs


def _oracle_torsion(params, argv, pts, obj):
    q, ident = obj["q"], loop_core.identity(params)
    errs = []
    for rec in obj["fibers"]:
        fiber = [_from_json(params, c) for c in rec["fiber"]]
        if any(loop_core.scalar_mul(params, q, pt) != ident for pt in fiber):
            errs.append("fiber point is not q-torsion")
        if len(fiber) != rec["fiber_size"] or not fiber:
            errs.append("fiber size mismatch")
    return errs if obj["fibers"] else ["no torsion fibers"]


def _valid_loops(p_max, size_max):
    """Every (p, e, A, B) with 5 <= p <= p_max, e >= 2, p^e <= size_max."""
    out = []
    for p in (q for q in range(5, p_max + 1) if all(q % d for d in range(2, q))):
        e = 2
        while p**e <= size_max:
            for a in range(p):
                for b in range(p):
                    try:
                        _params("int", p, e, a, b)
                    except (SingularCurve, EvenOrder):
                        continue
                    out.append((p, e, a, b))
            e += 1
    return out


def _oracle_classify(params, argv, pts, obj):
    p_max = int(argv[argv.index("--p-max") + 1])
    size_max = int(argv[argv.index("--size-max") + 1])
    records = obj["records"]
    want = sorted(g for g in SIX_GROUPS if g[0] <= p_max and g[0] ** g[1] <= size_max)
    got = sorted((r["p"], r["e"], r["A"], r["B"], tuple(r["invariants"]))
                 for r in records if r["is_group"])
    errs = [] if got == want else [f"groups {got}, expected {want}"]
    if sorted((r["p"], r["e"], r["A"], r["B"]) for r in records) != _valid_loops(p_max, size_max):
        errs.append("the records do not cover every loop once")
    if any(r["is_group"] is None for r in records):
        errs.append("a loop was left undetermined")
    return errs


def _oracle_verify(params, argv, pts, obj):
    ok = obj["verified"] and obj["reports"] and all(r["holds"] for r in obj["reports"])
    return [] if ok else ["verify reported a failure"]


_CLI_ORACLES = {
    "add": _oracle_add, "mul": _oracle_mul, "order": _oracle_order,
    "membership": _oracle_membership, "stratify": _oracle_stratify,
    "decompose": _oracle_decompose, "witness": _oracle_witness,
    "layers": _oracle_layers, "enumerate": _oracle_enumerate,
    "torsion": _oracle_torsion, "verify": _oracle_verify, "classify": _oracle_classify,
}

CLASSES = {cls.name: cls for cls in (VerifySuites, ExhaustiveTables, CliQueries)}
