"""Outside-in tracer: wraps flatcheck's public functions without touching
its source, counts calls and measures self time per metric.

A span is one call of a wrapped function. Its self time is its duration
minus the time covered by wrapped calls made inside it. Every module of the
package that bound a target with `from .x import name` gets the wrapper, so
a call through any binding is counted. `remove()` restores every original
object, so an untraced pass runs the unmodified program.
"""

import functools
import importlib
import time
import weakref
from collections import defaultdict

MODULES = ("flatcheck", "flatcheck.expr", "flatcheck.jetgeom",
           "flatcheck.prolong", "flatcheck.flatness", "flatcheck.sysdsl",
           "flatcheck.report", "flatcheck.cli")

# (defining module, function or Class.method, span name). Several targets
# may share a span name; their calls and self time add up.
TARGETS = (
    ("flatcheck.expr", "Expr.eval_at", "expr.eval"),
    ("flatcheck.expr", "Expr.__add__", "expr.arith"),
    ("flatcheck.expr", "Expr.__sub__", "expr.arith"),
    ("flatcheck.expr", "Expr.__mul__", "expr.arith"),
    ("flatcheck.expr", "Expr.__truediv__", "expr.arith"),
    ("flatcheck.expr", "Expr.__neg__", "expr.arith"),
    ("flatcheck.expr", "Expr.make", "expr.make"),
    ("flatcheck.expr", "Expr.diff", "expr.diff"),
    ("flatcheck.jetgeom", "lie_bracket", "jetgeom.bracket"),
    ("flatcheck.jetgeom", "generic_rank", "jetgeom.rank"),
    ("flatcheck.jetgeom", "fraction_rank", "jetgeom.fraction_rank"),
    ("flatcheck.jetgeom", "JetSpace.sample_point", "jetgeom.sample"),
    ("flatcheck.jetgeom", "symbolic_rank", "jetgeom.symbolic"),
    ("flatcheck.jetgeom", "Distribution.__init__", "jetgeom.distribution"),
    ("flatcheck.jetgeom", "Distribution.contains", "jetgeom.member"),
    ("flatcheck.jetgeom", "Distribution.contains_certified",
     "jetgeom.member_certified"),
    ("flatcheck.prolong", "build_prolonged", "prolong.build"),
    ("flatcheck.prolong", "ProlongedSystem.__init__", "prolong.system"),
    ("flatcheck.prolong", "g_filtration", "prolong.filtration"),
    ("flatcheck.prolong", "gamma_filtration", "prolong.filtration"),
    ("flatcheck.prolong", "delta_filtration", "prolong.filtration"),
    ("flatcheck.flatness", "analyze", "flatness.analyze"),
    ("flatcheck.flatness", "static_linearizable", "flatness.static"),
    ("flatcheck.flatness", "enumerate_initializations", "flatness.init_enum"),
    ("flatcheck.flatness", "SigmaRun.run", "flatness.sigma"),
    ("flatcheck.flatness", "Context.delta_involutive", "flatness.condition"),
    ("flatcheck.flatness", "Context.gamma_invariant", "flatness.condition"),
    ("flatcheck.flatness", "cns_check", "flatness.cns"),
    ("flatcheck.flatness", "search_flat_outputs", "flatness.flat_search"),
    ("flatcheck.flatness", "verify_flat_output", "flatness.verify_output"),
    ("flatcheck.sysdsl", "parse_system", "sysdsl.parse"),
    ("flatcheck.sysdsl", "emit_report", "report.emit"),
)

SYMBOLIC_DIM_CUTOFF = 12   # generic_rank's own default for the Bareiss pass


def _module_of(span):
    """Layer a span's self time belongs to: report.emit lives in sysdsl."""
    layer = span.split(".", 1)[0]
    return "sysdsl" if layer == "report" else layer


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(int)        # (parent span, child span) -> calls
        self.extra = defaultdict(int)
        self.symbolic_max_dim = 0
        self._stack = []                     # [span name, child seconds]
        self._patches = []                   # (owner, attribute, original value)
        self._seen_conditions = weakref.WeakKeyDictionary()

    # -- per-call bookkeeping for metrics that need arguments or results

    def _after(self, span, args, kwargs, result):
        if span == "jetgeom.rank":
            self.extra["sample_accepted"] += len(result.points)
            space = _arg(args, kwargs, 1, "space")
            if space.dim > SYMBOLIC_DIM_CUTOFF and result.symbolic_rank is None:
                self.extra["symbolic_skipped"] += 1
        elif span == "jetgeom.symbolic":
            dim = _arg(args, kwargs, 1, "space").dim
            self.symbolic_max_dim = max(self.symbolic_max_dim, dim)
        elif span == "flatness.init_enum":
            self.extra["initializations"] += len(result)

    def _condition_key_seen(self, fn, args, kwargs):
        ctx = args[0]
        key = (fn.__name__, tuple(_arg(args, kwargs, 1, "j")),
               _arg(args, kwargs, 2, "k"))
        seen = self._seen_conditions.setdefault(ctx, set())
        if key in seen:
            self.extra["condition_hits"] += 1
        else:
            seen.add(key)

    def _wrap(self, fn, span):
        stack, calls, self_s, edges = self._stack, self.calls, self.self_s, self.edges
        clock = time.perf_counter
        after = self._after
        needs_after = span in ("jetgeom.rank", "jetgeom.symbolic",
                               "flatness.init_enum")
        conditions = span == "flatness.condition"
        seen = self._condition_key_seen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if conditions:
                seen(fn, args, kwargs)
            edges[(stack[-1][0] if stack else None, span)] += 1
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[span] += 1
                self_s[span] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if needs_after:
                after(span, args, kwargs, result)
            return result

        return traced

    # -- install / remove

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(name) for name in MODULES]
        for modname, qualname, span in TARGETS:
            owner = importlib.import_module(modname)
            if "." in qualname:
                clsname, attr = qualname.split(".")
                cls = getattr(owner, clsname)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(raw.__func__, span))
                else:
                    new = self._wrap(raw, span)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            orig = getattr(owner, qualname)
            new = self._wrap(orig, span)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, name, orig))
                        setattr(mod, name, new)

    def remove(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- results

    def metrics(self, wall_s):
        """Per-layer metrics for `wall_s` seconds of traced work."""
        c, s, x = self.calls, self.self_s, self.extra
        filtration_new = self.edges[("prolong.filtration", "jetgeom.distribution")]
        out = {
            "sysdsl.parse_s": (s["sysdsl.parse"], "s"),
            "report.emit_s": (s["report.emit"], "s"),
            "jetgeom.sample_points": (c["jetgeom.sample"], "count"),
            "jetgeom.sample_accept_ratio": (
                x["sample_accepted"] / c["jetgeom.sample"]
                if c["jetgeom.sample"] else 1.0, "ratio"),
            "jetgeom.symbolic_max_dim": (self.symbolic_max_dim, "dim"),
            "jetgeom.symbolic_skipped": (x["symbolic_skipped"], "count"),
            "jetgeom.distributions": (c["jetgeom.distribution"], "count"),
            "jetgeom.distribution_s": (s["jetgeom.distribution"], "s"),
            "prolong.systems": (c["prolong.system"], "count"),
            "prolong.build_s": (s["prolong.build"] + s["prolong.system"], "s"),
            "prolong.filtration_calls": (c["prolong.filtration"], "count"),
            "prolong.filtration_s": (s["prolong.filtration"], "s"),
            "prolong.dist_cache_hit_ratio": (
                1.0 - filtration_new / c["prolong.filtration"]
                if c["prolong.filtration"] else 1.0, "ratio"),
            "flatness.static_s": (s["flatness.static"], "s"),
            "flatness.initializations": (x["initializations"], "count"),
            "flatness.init_enum_s": (s["flatness.init_enum"], "s"),
            "flatness.sigma_runs": (c["flatness.sigma"], "count"),
            "flatness.sigma_s": (s["flatness.sigma"], "s"),
            "flatness.condition_checks": (c["flatness.condition"], "count"),
            "flatness.condition_cache_hit_ratio": (
                x["condition_hits"] / c["flatness.condition"]
                if c["flatness.condition"] else 0.0, "ratio"),
            "flatness.cns_calls": (c["flatness.cns"], "count"),
            "flatness.cns_s": (s["flatness.cns"], "s"),
            "flatness.flat_search_s": (s["flatness.flat_search"], "s"),
            "flatness.verify_output_s": (s["flatness.verify_output"], "s"),
        }
        for span in ("expr.eval", "expr.arith", "expr.make", "expr.diff",
                     "jetgeom.bracket", "jetgeom.rank", "jetgeom.fraction_rank",
                     "jetgeom.symbolic", "jetgeom.member",
                     "jetgeom.member_certified"):
            out[span + "_calls"] = (c[span], "count")
            out[span + "_s"] = (s[span], "s")
        layers = defaultdict(float)
        for span, secs in s.items():
            layers[_module_of(span)] += secs
        for layer in ("expr", "jetgeom", "prolong", "flatness", "sysdsl"):
            out[layer + ".self_s"] = (layers[layer], "s")
        out["trace.coverage"] = (sum(s.values()) / wall_s, "ratio")
        return out
