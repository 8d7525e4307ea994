"""Spans and counters around the public functions of each quasiham module.

Wrappers are installed at run time from the benchmark's side; nothing under
``src/`` knows about them.  A span records name, start, end and parent; a
counter only counts, for functions called too often to span cheaply.  A
target that no longer exists is listed in ``missing`` and its metrics read
zero, so the traced run keeps working after refactors remove or stop
calling a function.

Self time of a span is its duration minus the durations of its direct
children; children are nested calls on one thread, so they never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack = []
        self.active = Counter()  # open spans per name
        self.counts = Counter()
        self.samples = defaultdict(list)  # per-name extra observations
        self.missing = []

    # -- wrappers -----------------------------------------------------------
    def spanned(self, name, fn, *, outermost=False, caller=None, inside=(), on_done=None):
        """Wrap fn in a span.  outermost: nested calls of the same name open
        no span (methods that recurse through a fusion tree).  caller: only
        calls from modules whose name starts with this prefix are traced.
        inside: also count calls made while a span of these names is open.
        on_done(bound args, result or None if it raised, duration_ns)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and tracer.active[name]:
                return fn(*args, **kwargs)
            if caller and not sys._getframe(1).f_globals.get("__name__", "").startswith(caller):
                return fn(*args, **kwargs)
            for ctx in inside:
                if tracer.active[ctx]:
                    tracer.counts[f"{name}@{ctx}"] += 1
            return tracer._run(name, fn, args, kwargs, on_done)

        return wrapper

    def counted(self, name, fn, *, inside=()):
        counts, active = self.counts, self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            for ctx in inside:
                if active[ctx]:
                    counts[f"{name}@{ctx}"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _run(self, name, fn, args, kwargs, on_done):
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.active[name] += 1
        self.counts[name] += 1
        result = None
        rec[1] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec[2] = perf_counter_ns()
            self.stack.pop()
            self.active[name] -= 1
            if on_done is not None:
                on_done(fn, args, kwargs, result, rec[2] - rec[1])

    def span_call(self, name, fn, *args):
        """Run fn(*args) inside a span (for calls made by the benchmark)."""
        return self._run(name, fn, args, {}, None)

    # -- aggregation --------------------------------------------------------
    def times_ns(self):
        """Total and self nanoseconds per span name."""
        total, own = Counter(), Counter()
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
        return total, own

    def dump(self, path):
        """Write every span as tab-separated name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\n")


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _quasiham_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "quasiham" or name.startswith("quasiham."))]


def _rebind(old, new):
    """Replace every binding of ``old`` in quasiham modules by ``new``."""
    for mod in _quasiham_modules():
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def cache_clearers():
    """cache_clear of every functools cache in the quasiham modules; call
    before installing wrappers, which hide the cached functions."""
    out = {}
    for mod in _quasiham_modules():
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                out[id(value)] = clear
    return list(out.values())


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are read from."""
    # Only modules the workload loaded: tracing must not import the numerical
    # layer into the exact workload.
    mods = {name: sys.modules.get(f"quasiham.{name}")
            for name in ("roots", "rational", "alcove", "prequant", "sun", "spaces", "gerbe",
                         "holonomy")}

    def function(module, attr, metric, kind="span", **opts):
        if mods[module] is None:
            return
        fn = getattr(mods[module], attr, None)
        if fn is None:
            tracer.missing.append(f"{module}.{attr}")
            return
        wrap = tracer.counted if kind == "count" else tracer.spanned
        _rebind(fn, wrap(metric, fn, **opts))

    def methods(module, attr, metric, **opts):
        mod = mods[module]
        if mod is None:
            return
        classes = [c for c in vars(mod).values()
                   if isinstance(c, type) and c.__module__ == mod.__name__
                   and attr in vars(c)]
        if not classes:
            tracer.missing.append(f"{module}.*.{attr}")
        for cls in classes:
            setattr(cls, attr, tracer.spanned(metric, vars(cls)[attr], outermost=True, **opts))

    def external(module_name, attr, metric, caller):
        mod = sys.modules.get(module_name)
        if mod is None:
            return
        fn = getattr(mod, attr, None)
        if fn is None:
            tracer.missing.append(f"{module_name}.{attr}")
            return
        wrapped = tracer.spanned(metric, fn, caller=caller)
        setattr(mod, attr, wrapped)
        _rebind(fn, wrapped)

    def level_weights_done(fn, args, kwargs, result, ns):
        tracer.counts["alcove.level_weights.weights"] += len(getattr(result, "weights", ()))

    def basis_done(fn, args, kwargs, result, ns):
        tracer.counts["spaces.tangent_basis.accepted" if result is not None
                      else "spaces.tangent_basis.rejected"] += 1

    def verify_done(fn, args, kwargs, result, ns):
        a = _bound(fn, args, kwargs)
        tracer.samples[f"verify:{a['axiom']}"].append((ns, a["samples"]))

    def cover_done(fn, args, kwargs, result, ns):
        n = len(args[0]) if args else 0
        key = "accepted" if result is not None and len(result) >= n else "rejected"
        tracer.counts[f"gerbe.cover_index_set.{key}"] += 1

    # exact layer
    function("roots", "build_root_system", "roots.build_root_system")
    function("rational", "solve", "rational.solve")
    function("alcove", "alcove_vertices", "alcove.alcove_vertices")
    function("alcove", "level_weights", "alcove.level_weights", on_done=level_weights_done)
    function("alcove", "minimal_integral_level", "alcove.minimal_integral_level")
    function("roots", "inner_product", "alcove.inner_product", kind="count",
             inside=("alcove.level_weights",))
    function("alcove", "alcove_contains", "alcove.alcove_contains")
    function("alcove", "weight_lattice_contains", "alcove.weight_lattice_contains")
    function("prequant", "class_prequantizable", "prequant.class_prequantizable")
    # numerical primitives (numpy and scipy as called from quasiham)
    external("scipy.linalg", "expm", "sun.exp", caller="quasiham")
    for attr in ("eig", "eigvals", "eigh", "eigvalsh"):
        external("numpy.linalg", attr, "sun.eig", caller="quasiham")
    external("numpy.linalg", "svd", "spaces.svd", caller="quasiham.spaces")
    function("sun", "alcove_coordinates", "sun.alcove_coordinates",
             inside=("gerbe.cocycle_check",))
    function("sun", "random_special_unitary", "sun.random_special_unitary", kind="count")
    function("sun", "basic_inner", "sun.basic_inner", kind="count")
    function("sun", "eta_integral_su2", "sun.eta_integral_su2")
    # spaces
    methods("spaces", "omega", "spaces.omega")
    methods("spaces", "tangent_basis", "spaces.tangent_basis", on_done=basis_done)
    function("spaces", "verify_axiom", "spaces.verify_axiom", on_done=verify_done)
    function("spaces", "reduction_rank", "spaces.reduction_rank")
    function("spaces", "make_space", "spaces.make_space")
    function("spaces", "sphere4_equivariance_residual", "spaces.sphere4_equivariance_residual")
    # gerbe
    function("gerbe", "cocycle_check", "gerbe.cocycle_check")
    function("gerbe", "spectral_det_line", "gerbe.spectral_det_line")
    function("gerbe", "wedge_product", "gerbe.wedge_product")
    function("gerbe", "cover_index_set", "gerbe.cover_index_set", caller="quasiham.cli",
             on_done=cover_done)
    # holonomy
    function("holonomy", "gauge_equivariance_residual", "holonomy.grid")
    function("holonomy", "holonomy", "holonomy.holonomy")
    function("holonomy", "gauge_transform", "holonomy.gauge_transform")


AXIOMS = ("cocycle", "moment", "min_degeneracy", "equivariance")

# Every span install() and the benchmark open (cli.* wrap dispatch and
# render); each reports its self time, so the self times add up to the traced
# wall time and trace.self_share checks that they do not exceed it.
SPANS = (
    "roots.build_root_system", "rational.solve", "alcove.alcove_vertices",
    "alcove.level_weights", "alcove.minimal_integral_level", "alcove.alcove_contains",
    "alcove.weight_lattice_contains", "prequant.class_prequantizable",
    "sun.exp", "sun.eig", "sun.alcove_coordinates", "sun.eta_integral_su2",
    "spaces.omega", "spaces.tangent_basis", "spaces.svd", "spaces.verify_axiom",
    "spaces.reduction_rank", "spaces.make_space", "spaces.sphere4_equivariance_residual",
    "gerbe.cocycle_check", "gerbe.spectral_det_line", "gerbe.wedge_product",
    "gerbe.cover_index_set", "holonomy.grid", "holonomy.holonomy", "holonomy.gauge_transform",
    "cli.dispatch", "cli.render",
)


def per_layer(tracer: Tracer, *, verify_samples: int, traced_ns: int, untraced_ns: int,
              imports: dict, repeat_share: float) -> dict:
    """The per-layer metrics as name -> (value, unit)."""
    c = tracer.counts
    total, own = tracer.times_ns()

    def ms(ns):
        return ns / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in SPANS:
        out[f"{name}.self_ms"] = (ms(own[name]), "ms")
    for name in ("roots.build_root_system", "rational.solve", "alcove.level_weights",
                 "alcove.inner_product", "prequant.class_prequantizable", "sun.exp", "sun.eig",
                 "sun.alcove_coordinates", "sun.random_special_unitary", "sun.basic_inner",
                 "spaces.omega", "spaces.tangent_basis", "spaces.svd", "gerbe.cocycle_check",
                 "gerbe.spectral_det_line", "holonomy.holonomy"):
        out[f"{name}.calls"] = (c[name], "count")
    out["alcove.level_weights.weights"] = (c["alcove.level_weights.weights"], "count")
    out["alcove.inner_products_per_weight"] = (
        ratio(c["alcove.inner_product@alcove.level_weights"], c["alcove.level_weights.weights"]),
        "calls/weight")
    out["spaces.omega.calls_per_sample"] = (ratio(c["spaces.omega"], verify_samples),
                                            "calls/sample")
    out["spaces.basis_accept_ratio"] = (
        ratio(c["spaces.tangent_basis.accepted"],
              c["spaces.tangent_basis.accepted"] + c["spaces.tangent_basis.rejected"]), "ratio")
    for axiom in AXIOMS:
        obs = tracer.samples[f"verify:{axiom}"]
        out[f"spaces.residual.{axiom}.per_sample_ms"] = (
            ratio(ms(sum(ns for ns, _ in obs)), sum(k for _, k in obs)), "ms")
    out["gerbe.cocycle_check.per_triple_ms"] = (
        ratio(ms(total["gerbe.cocycle_check"]), c["gerbe.cocycle_check"]), "ms")
    out["gerbe.cover_accept_ratio"] = (
        ratio(c["gerbe.cover_index_set.accepted"],
              c["gerbe.cover_index_set.accepted"] + c["gerbe.cover_index_set.rejected"]), "ratio")
    out["gerbe.alcove_coordinates_per_triple"] = (
        ratio(c["sun.alcove_coordinates@gerbe.cocycle_check"], c["gerbe.cocycle_check"]),
        "calls/triple")
    out["holonomy.grid_ms"] = (ratio(ms(total["holonomy.grid"]), c["holonomy.grid"]), "ms")
    out["cli.import_ms"] = (imports["cli_ms"], "ms")
    out["sun.scipy_import_ms"] = (imports["scipy_ms"], "ms")
    out["spaces.import_ms"] = (imports["spaces_ms"], "ms")
    out["cli.repeat_share"] = (repeat_share, "ratio")
    out["trace.overhead_ratio"] = (ratio(traced_ns, untraced_ns), "ratio")
    out["trace.self_share"] = (ratio(sum(own.values()), traced_ns), "ratio")
    return out
