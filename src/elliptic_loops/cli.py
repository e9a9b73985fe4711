"""Command-line surface for elliptic loops over Z/p^e.

Every subcommand works on one instance (p, e, A, B) given by flags, with
points passed as comma-separated coordinates ``X,Y,Z`` (normalized on
ingest).  Output is text by default and JSON with ``--format json``
(``classify`` also offers CSV).  Exit codes follow the verification
contract: 0 when the requested fact is verified or computed, 1 when it
is falsified (a failed membership test, a failed suite, a confirmed
non-associativity witness, or a construction that fails its own check),
and 2 for usage or precondition errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .diagnostics import (
    WITNESS_KINDS,
    VERIFY_SUITES,
    cardinality_report,
    classify_group_loops,
    verify_instance,
)
from .errors import EllipticLoopError
from .layers import Layer, layer_report, stratify
from .loop_core import (
    LoopParams,
    add,
    membership,
    order_of,
    scalar_mul,
    validate_params,
)
from .projective import ProjPoint
from .ring import RingConfig
from .structure import infinity_decompose, torsion_geometry


def _params_from(args) -> LoopParams:
    ring = RingConfig.integer(args.p, args.e)
    return validate_params(ring, args.A, args.B)


def _positive_int(text: str) -> int:
    """A count such as a budget or a torsion order: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return n


def _parse_point(params: LoopParams, text: str) -> ProjPoint:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"point {text!r} is not of the form X,Y,Z")
    try:
        coords = [int(c) for c in parts]
    except ValueError:
        raise ValueError(f"point {text!r} has non-integer coordinates")
    return ProjPoint.of(params.ring, *coords)


def _require_points(params: LoopParams, args, count: int) -> list:
    pts = [_parse_point(params, text) for text in (args.point or [])]
    if len(pts) < count:
        raise ValueError(f"this subcommand needs at least {count} --point")
    for pt in pts:
        if not membership(params, pt):
            raise ValueError(f"{_fmt_point(pt)} is not on the loop")
    return pts


def _fmt_point(pt: ProjPoint) -> str:
    return f"({pt.x} : {pt.y} : {pt.z})"


def _emit(args, obj, text: str) -> None:
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text)


# ----------------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------------


def cmd_add(args) -> int:
    params = _params_from(args)
    pts = _require_points(params, args, 2)
    total = pts[0]
    for pt in pts[1:]:
        total = add(params, total, pt)
    _emit(args, {"sum": total.to_json()}, _fmt_point(total))
    return 0


def cmd_mul(args) -> int:
    params = _params_from(args)
    (pt,) = _require_points(params, args, 1)[:1]
    result = scalar_mul(params, args.n, pt)
    _emit(args, {"multiple": result.to_json(), "n": args.n}, _fmt_point(result))
    return 0


def cmd_order(args) -> int:
    params = _params_from(args)
    (pt,) = _require_points(params, args, 1)[:1]
    n = order_of(params, pt)
    _emit(args, {"order": n}, str(n))
    return 0


def cmd_membership(args) -> int:
    params = _params_from(args)
    pts = [_parse_point(params, text) for text in (args.point or [])]
    if not pts:
        raise ValueError("this subcommand needs at least 1 --point")
    results = [membership(params, pt) for pt in pts]
    _emit(
        args,
        {"members": [{"point": p.to_json(), "member": m} for p, m in zip(pts, results)]},
        "\n".join(f"{_fmt_point(p)}: {'member' if m else 'not a member'}"
                  for p, m in zip(pts, results)),
    )
    return 0 if all(results) else 1


def cmd_stratify(args) -> int:
    params = _params_from(args)
    (pt,) = _require_points(params, args, 1)[:1]
    t = stratify(params, pt)
    _emit(args, {"t": params.ring.payload_to_json(t.val)}, f"t = {t.val}")
    return 0


def cmd_decompose(args) -> int:
    params = _params_from(args)
    (pt,) = _require_points(params, args, 1)[:1]
    dec = infinity_decompose(params, pt)
    _emit(
        args,
        dec.to_json(),
        f"{_fmt_point(pt)} = {dec.alpha} * (p : 1 : 0) + {dec.beta} * (0 : 1 : p)",
    )
    return 0


def cmd_layers(args) -> int:
    params = _params_from(args)
    ring = params.ring
    if args.t is not None:
        ts = [ring.from_int(args.t)]
    else:
        ts = list(ring.ideal_elements())
    reports = [layer_report(Layer(params, t)) for t in ts]
    lines = [
        f"t={r['t']:>4}  |L_t|={r['cardinality']:>5}  Z_t={r['Z_t']:>4}  "
        f"infinity order={r['infinity_order']:>4}  structure={r['group_structure']}"
        for r in reports
    ]
    _emit(args, {"layers": reports}, "\n".join(lines))
    return 0


def cmd_torsion(args) -> int:
    params = _params_from(args)
    q = args.q if args.q is not None else params.q
    bases = _require_points(params, args, 1) if args.point else None
    records, lines = [], []
    for base, fiber, diffs, line in torsion_geometry(params, q, bases):
        rec = {
            "residue": params.project(base).to_json(),
            "fiber_size": len(fiber),
            "fiber": [pt.to_json() for pt in fiber],
            "difference_group_size": len(diffs),
        }
        extra = ""
        if line is not None:
            rec["line"] = [params.ring.payload_to_json(c) for c in line.line]
            if line.reduced_line is not None:
                rec["reduced_line"] = list(line.reduced_line)
                extra = f"  reduced line {tuple(rec['reduced_line'])}"
        records.append(rec)
        lines.append(
            f"residue {rec['residue']}: fiber size {rec['fiber_size']}, "
            f"difference group size {rec['difference_group_size']}{extra}"
        )
    _emit(args, {"q": q, "fibers": records}, "\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    params = _params_from(args)
    reports = verify_instance(params, args.suite, budget=args.budget, seed=args.seed)
    lines = []
    marks = {"pass": 0, "skipped": 0, "fail": 0}
    for r in reports:
        marks[r.status] += 1
        mark = {"pass": "PASS", "skipped": "SKIP", "fail": "FAIL"}[r.status]
        scope = "exhaustive" if r.exhaustive else "sampled" if r.checked else "none"
        detail = f"  [{r.detail}]" if r.detail else ""
        lines.append(f"{mark} {r.law:34s} checked={r.checked:<9} {scope}{detail}")
    ok = all(r.holds for r in reports)
    lines.append(f"{'VERIFIED' if ok else 'FALSIFIED'}: {marks['pass']} pass, "
                 f"{marks['skipped']} skip, {marks['fail']} fail")
    _emit(args, {"reports": [r.to_json() for r in reports], "verified": ok},
          "\n".join(lines))
    return 0 if ok else 1


def cmd_classify(args) -> int:
    records = classify_group_loops(p_max=args.p_max, size_max=args.size_max,
                                   seed=args.seed)
    groups = [r for r in records if r["is_group"]]
    if args.format == "csv":
        out = ["p,e,A,B,q,order,is_group,invariants,method"]
        for r in records:
            inv = "x".join(str(n) for n in r["invariants"]) if r["invariants"] else ""
            out.append(f"{r['p']},{r['e']},{r['A']},{r['B']},{r['q']},{r['order']},"
                       f"{str(r['is_group']).lower()},{inv},{r['method']}")
        print("\n".join(out))
        return 0
    lines = [
        f"p={r['p']} e={r['e']} A={r['A']} B={r['B']}: group of order {r['order']}, "
        f"invariant factors {tuple(r['invariants'])}"
        for r in groups
    ]
    lines.append(f"{len(groups)} groups among {len(records)} loops")
    _emit(args, {"records": records, "groups": len(groups)}, "\n".join(lines))
    return 0


def cmd_witness(args) -> int:
    params = _params_from(args)
    fn = WITNESS_KINDS[args.type]
    if args.type == "B" and args.point:
        w = fn(params, _parse_point(params, args.point[0]))
    else:
        w = fn(params)
    text = "\n".join([
        f"triple: {', '.join(_fmt_point(pt) for pt in w.points)}",
        f"(P1 + P2) + P3 = {_fmt_point(w.lhs)}",
        f"P1 + (P2 + P3) = {_fmt_point(w.rhs)}",
        f"associativity falsified; observed matrix rank {w.rank}",
    ])
    _emit(args, w.to_json(params), text)
    return 1


def cmd_enumerate(args) -> int:
    params = _params_from(args)
    report = cardinality_report(params)
    obj = dict(report)
    if params.cardinality() <= 10_000:
        obj["points"] = [pt.to_json() for pt in params.loop_points()]
    lines = [
        f"|L| = {report['total']} (q = {params.q}, p = {args.p}, e = {args.e})",
        f"|L^inf| = {params.ring.ideal_size ** 2}",
        f"|L^a| = {report['total'] - params.ring.ideal_size ** 2}",
        f"|P^2(R)| = {report['plane']}",
    ]
    if "formulas_match" in report:
        lines.append(f"enumerated counts match formulas: {report['formulas_match']}")
    _emit(args, obj, "\n".join(lines))
    return 0


# ----------------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="elliptic-loops",
        description="Exact arithmetic and verification for elliptic loops over Z/p^e.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("-p", type=int, required=True, help="prime p >= 5")
    instance.add_argument("-e", type=int, required=True, help="exponent e >= 1")
    instance.add_argument("-A", type=int, required=True, help="curve coefficient A")
    instance.add_argument("-B", type=int, required=True, help="curve coefficient B")
    instance.add_argument("--format", choices=("text", "json"), default="text")

    points = argparse.ArgumentParser(add_help=False)
    points.add_argument("--point", action="append", metavar="X,Y,Z",
                        help="projective point; repeatable")

    def command(name, handler, help_text, parents, extra=None):
        sp = sub.add_parser(name, parents=parents, help=help_text)
        if extra:
            extra(sp)
        sp.set_defaults(handler=handler)
        return sp

    command("add", cmd_add, "add two or more loop points", [instance, points])
    command("mul", cmd_mul, "scalar multiple n * P", [instance, points],
            lambda sp: sp.add_argument("-n", "--n", dest="n", type=int, required=True))
    command("order", cmd_order, "order of a loop point", [instance, points])
    command("membership", cmd_membership, "test whether points lie on the loop",
            [instance, points])
    command("stratify", cmd_stratify, "layer parameter t with P in L_t",
            [instance, points])
    command("decompose", cmd_decompose,
            "coordinates of an infinity point over the two generators",
            [instance, points])
    command("layers", cmd_layers, "per-layer structure reports", [instance],
            lambda sp: sp.add_argument("--t", type=int, default=None,
                                       help="single layer parameter"))
    command("torsion", cmd_torsion, "q-torsion fibers and difference groups",
            [instance, points],
            lambda sp: sp.add_argument("--q", type=_positive_int, default=None,
                                       help="torsion order (default: residue curve order)"))
    command("verify", cmd_verify, "run verification suites", [instance],
            lambda sp: (
                sp.add_argument("--suite", default="all",
                                choices=("all",) + tuple(sorted(VERIFY_SUITES))),
                sp.add_argument("--budget", type=_positive_int, default=200_000),
                sp.add_argument("--seed", type=int, default=0),
            ))
    command("witness", cmd_witness, "construct a non-associativity witness",
            [instance, points],
            lambda sp: sp.add_argument("--type", required=True,
                                       choices=tuple(WITNESS_KINDS)))
    command("enumerate", cmd_enumerate, "cardinalities and point enumeration",
            [instance])

    classify = sub.add_parser("classify", help="classify which loops are groups")
    classify.add_argument("--p-max", type=int, default=17)
    classify.add_argument("--size-max", type=int, default=300)
    classify.add_argument("--seed", type=int, default=0)
    classify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    classify.set_defaults(handler=cmd_classify)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (EllipticLoopError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # a construction failed its own check
        print(f"falsified: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
