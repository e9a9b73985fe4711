"""Outside-in tracing of the elliptic_loops modules.

The tracer wraps public functions and methods by rebinding module and
class attributes, including the copies of a function that other modules
imported by name, and restores them on :meth:`Tracer.uninstall`.  Nothing
inside the package changes.

* Hot calls (ring payload ops, ``add``, ``scalar_mul``, ``normalize`` and
  the like) are aggregated: calls, self time and, for the outermost call
  of a name, total time.
* Coarse calls (suites, sweeps, certificates, ``cli.run``) also keep an
  in-memory span with an id, name, start, end and parent span.

Self time is a call's duration minus the time of the traced calls made
inside it, so the self times of all names add up to the traced time.
"""

from __future__ import annotations

import time

import elliptic_loops
from elliptic_loops import cli, diagnostics, layers, loop_core, projective, structure
from elliptic_loops import ring as ring_mod

MODULES = (elliptic_loops, ring_mod, projective, loop_core, layers, structure, diagnostics, cli)
RING_OPS = ("add", "sub", "neg", "mul", "mul_int", "inverse", "is_unit", "valuation", "residue")
TORSION = "structure.torsion"


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, total_s of outermost calls, self_s]
        self.counters = {}
        self.sizes = []  # CayleyIndex sizes n
        self.spans = []  # [id, name, start, end, parent id]
        self._stack = []  # frames: [child time, span id or None]
        self._active = {}  # name -> calls of it currently on the stack
        self._patches = []

    # -- bookkeeping ---------------------------------------------------------

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def calls(self, name) -> int:
        st = self.stats.get(name)
        return st[0] if st else 0

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def _wrap(self, fn, name, span=False, pre=None, post=None, keyfn=None):
        stats, stack, active, spans = self.stats, self._stack, self._active, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            key = keyfn(args) if keyfn else name
            state = pre(args) if pre else None
            sid = None
            if span:
                sid = len(spans)
                spans.append([sid, key, 0.0, 0.0, self._parent_span()])
            frame = [0.0, sid]
            stack.append(frame)
            depth = active.get(key, 0)
            active[key] = depth + 1
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                active[key] = depth
                dur = t1 - t0
                st = stats.get(key)
                if st is None:
                    st = stats[key] = [0, 0.0, 0.0]
                st[0] += 1
                st[2] += dur - frame[0]
                if depth == 0:
                    st[1] += dur
                if stack:
                    stack[-1][0] += dur
                if span:
                    spans[sid][2], spans[sid][3] = t0, t1
                if post:
                    post(args, result, state)

        return traced

    def job_runner(self, run):
        """``run`` wrapped as a span named ``job``."""
        return self._wrap(run, "job", span=True)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, module, attr, name, **kw):
        """Rebind a function in its module and wherever it was imported."""
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, **kw)
        for mod in MODULES:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)
        return wrapper

    def _patch_method(self, cls, attr, name, **kw):
        self._patch(cls, attr, self._wrap(cls.__dict__[attr], name, **kw))

    # -- install / uninstall -----------------------------------------------

    def install(self):
        rc = ring_mod.RingConfig
        for op in RING_OPS:
            keys = {ring_mod.INTEGER_QUOTIENT: f"ring.int.{op}",
                    ring_mod.TRUNCATED_POLYNOMIAL: f"ring.poly.{op}"}
            self._patch_method(rc, op, None, keyfn=lambda args, keys=keys: keys[args[0].kind])

        self._patch_function(projective, "normalize", "projective.normalize")

        def add_pre(args):
            params, p1, p2 = args[:3]
            one = params.ring.one
            if p1.y == one and p2.y == one:
                self.count("add.canonical")
            if params.ring.kind != ring_mod.INTEGER_QUOTIENT:
                self.count("add.poly")

        self._patch_function(loop_core, "add", "loop_core.add", pre=add_pre)
        self._patch_function(loop_core, "scalar_mul", "loop_core.scalar_mul")
        self._patch_function(loop_core, "order_of", "loop_core.order_of",
                             pre=self._adds_pre, post=self._adds_post("order_of.adds"))
        lp = loop_core.LoopParams
        self._patch_method(lp, "__init__", "loop_core.LoopParams")
        self._patch_method(lp, "loop_points", "loop_core.loop_points")

        def residue_pre(args):
            self.count("residue_order.hits" if args[1].coords() in args[0]._orders
                       else "residue_order.misses")

        self._patch_method(lp, "residue_order", "loop_core.residue_order", pre=residue_pre)

        self._patch_function(layers, "layer_points", "layers.layer_points")
        self._patch_method(layers.Layer, "equation", "layers.Layer.equation")
        self._patch_function(layers, "layer_infinity_generator",
                             "layers.layer_infinity_generator")
        self._patch_function(layers, "layer_isomorphism_check",
                             "layers.layer_isomorphism_check")

        self._patch_function(structure, "infinity_decompose", "structure.infinity_decompose")
        self._patch_method(structure.AssocMatrix, "__init__", "structure.AssocMatrix")
        for attr in ("torsion_fiber", "difference_group", "torsion_line"):
            self._patch_function(structure, attr, TORSION)

        ci = diagnostics.CayleyIndex

        def build_pre(args):
            n = len(args[2])
            self.sizes.append(n)
            self.count("cayley.entries", n * n)

        def sweep_post(args, result, state):
            n = len(args[0].table)
            if result is None:
                self.count("cayley.triples", n**3)
            else:
                i, j, c = result
                self.count("cayley.triples", i * n * n + j * n + c + 1)

        self._patch_method(ci, "__init__", "diagnostics.CayleyIndex.build", span=True,
                           pre=build_pre)
        self._patch_method(ci, "assoc_sweep", "diagnostics.CayleyIndex.assoc_sweep",
                           span=True, post=sweep_post)
        self._patch_method(ci, "mul", "diagnostics.CayleyIndex.mul")
        suites = diagnostics.VERIFY_SUITES
        for name, fn in list(suites.items()):
            wrapper = self._patch_function(diagnostics, fn.__name__,
                                           f"diagnostics.suite.{name}", span=True)
            self._patches.append((suites, name, fn))
            suites[name] = wrapper
        self._patch_function(diagnostics, "group_certificate",
                             "diagnostics.group_certificate", span=True,
                             pre=self._adds_pre,
                             post=self._adds_post("group_certificate.adds"))
        self._patch_function(cli, "run", "cli.run", span=True)
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _adds_pre(self, args):
        return self.calls("loop_core.add")

    def _adds_post(self, key):
        def post(args, result, start):
            self.count(key, self.calls("loop_core.add") - start)
        return post
