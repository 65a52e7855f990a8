"""Per-layer split of graphcalc's time, measured from outside the package.

`LayerTracer.install()` replaces the public functions at the points where one
graphcalc module calls the next with wrappers that keep a span stack, and
`uninstall()` puts the originals back.  Each span's self time is its duration
minus the time of the wrapped spans inside it; it is added to the metric the
function belongs to.  Counters ride on the same wrappers.  The runs that
produce end-to-end numbers never import this module.

Wrappers are swapped into every loaded graphcalc module namespace that holds
the original object, because modules import each other's functions by name
(`from .spectral import eigensystem`).
"""

import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, metric): self time of the attribute goes to the metric.
# Dotted attributes are methods.
TIMED = [
    ("graphcalc.jacobi", "jacobi_eigh", "jacobi.eigh_s"),
    ("graphcalc.jacobi", "sorted_eigh", "jacobi.sort_s"),
    ("graphcalc.spectral", "eigensystem", "spectral.wrap_s"),
    ("graphcalc.spectral", "symmetric_matrix", "spectral.assemble_s"),
    ("graphcalc.spectral", "apply_operator", "spectral.apply_s"),
    ("graphcalc.spectral", "courant_fischer_check", "spectral.courant_fischer_s"),
    ("graphcalc.spectral", "HeatKernel.__init__", "spectral.kernel_s"),
    ("graphcalc.spectral", "HeatKernel.matrix", "spectral.kernel_s"),
    ("graphcalc.spectral", "HeatKernel.value", "spectral.kernel_s"),
    ("graphcalc.spectral", "HeatKernel.apply", "spectral.kernel_s"),
    ("graphcalc.spectral", "GreenFunction.__init__", "spectral.kernel_s"),
    ("graphcalc.spectral", "GreenFunction.value", "spectral.kernel_s"),
    ("graphcalc.spectral", "GreenFunction.apply", "spectral.kernel_s"),
    ("graphcalc.evolution", "spectral_heat_solve", "evolution.heat_s"),
    ("graphcalc.evolution", "heat_identities_report", "evolution.heat_audit_s"),
    ("graphcalc.evolution", "transport_solve", "evolution.transport_s"),
    ("graphcalc.evolution", "dmf_run", "evolution.dmf_run_s"),
    ("graphcalc.evolution", "dmf_step", "evolution.dmf_step_s"),
    ("graphcalc.calculus", "weighted_inner", "calculus.inner_s"),
    ("graphcalc.calculus", "weighted_norm_sq", "calculus.inner_s"),
    ("graphcalc.calculus", "closure_energy", "calculus.energy_s"),
    ("graphcalc.calculus", "dirichlet_energy", "calculus.energy_s"),
    ("graphcalc.calculus", "run_identity_suite", "calculus.identity_suite_s"),
    ("graphcalc.harmonic", "dirichlet_minimize", "harmonic.seed_s"),
    ("graphcalc.harmonic", "harmonic_heat_flow", "harmonic.flow_s"),
    ("graphcalc.minimax", "bottleneck_level", "minimax.bottleneck_s"),
    ("graphcalc.minimax", "find_minimax", "minimax.search_s"),
    ("graphcalc.minimax", "classify_vertex", "minimax.classify_s"),
    ("graphcalc.constants", "cheeger_h", "constants.cheeger_h_s"),
    ("graphcalc.constants", "cheeger_g", "constants.cheeger_g_s"),
    ("graphcalc.constants", "cut_report", "constants.witness_s"),
    ("graphcalc.constants", "cheeger_functional", "constants.functional_s"),
    ("graphcalc.cli", "main", "cli.self_s"),
    ("graphcalc.cli", "render_json", "cli.render_json_s"),
    ("graphcalc.cli", "render_json_line", "cli.render_json_s"),
    ("graphcalc.io", "parse_graph", "io.parse_s"),
    ("graphcalc.io", "parse_vertex_function", "io.parse_s"),
    ("graphcalc.io", "parse_vector_field", "io.parse_s"),
    ("graphcalc.io", "parse_sphere_map", "io.parse_s"),
    ("graphcalc.io", "render_trajectory_csv", "io.render_s"),
    ("graphcalc.io", "render_sphere_map_csv", "io.render_s"),
    ("graphcalc.io", "render_vertex_function_csv", "io.render_s"),
    ("graphcalc.graph", "Graph.__init__", "graph.build_s"),
    ("graphcalc.graph", "build_window", "graph.build_s"),
]

COUNTS = [
    "jacobi.calls",
    "jacobi.order_sum",
    "evolution.dmf_steps",
    "evolution.rk4_steps",
    "harmonic.steps_accepted",
    "harmonic.steps_rejected",
    "graph.value_calls",
    "constants.subsets",
    "io.bytes_out",
]

TIME_METRICS = sorted({metric for _, _, metric in TIMED})


def _count_hooks(counts):
    """Per-call counters, keyed by (module, attribute).

    Each hook sees the call's arguments and its result."""

    def jacobi(args, kwargs, result):
        counts["jacobi.calls"] += 1
        counts["jacobi.order_sum"] += len(args[0])

    def dmf_step(args, kwargs, result):
        counts["evolution.dmf_steps"] += 1

    def transport(args, kwargs, result):
        counts["evolution.rk4_steps"] += len(result.times) - 1

    def flow(args, kwargs, result):
        counts["harmonic.steps_accepted"] += result.steps_accepted
        counts["harmonic.steps_rejected"] += result.steps_rejected

    def enumeration(args, kwargs, result):
        counts["constants.subsets"] += 1 << (len(args[0]) - 1)

    return {
        ("graphcalc.jacobi", "jacobi_eigh"): jacobi,
        ("graphcalc.evolution", "dmf_step"): dmf_step,
        ("graphcalc.evolution", "transport_solve"): transport,
        ("graphcalc.harmonic", "harmonic_heat_flow"): flow,
        ("graphcalc.constants", "cheeger_h"): enumeration,
        ("graphcalc.constants", "cheeger_g"): enumeration,
    }


class LayerTracer:
    """Span stack, self-time totals and counters for one traced stretch."""

    def __init__(self):
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [wrapper, time covered by child spans]
        self._undo = []  # (owner, attribute, original)

    def snapshot(self):
        out = {m: self.self_time.get(m, 0.0) for m in TIME_METRICS}
        out.update({c: self.counts.get(c, 0) for c in COUNTS})
        return out

    def reset(self):
        self.self_time.clear()
        self.counts.clear()

    def _timed(self, fn, metric, hook):
        stack = self._stack
        totals = self.self_time

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is wrapper:  # recursion stays in one span
                return fn(*args, **kwargs)
            frame = [wrapper, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                totals[metric] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _swap(self, original, replacement):
        for name, mod in list(sys.modules.items()):
            if name != "graphcalc" and not name.startswith("graphcalc."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        import graphcalc.cli  # noqa: F401  (loads every graphcalc module)
        from graphcalc.graph import VertexFunction

        hooks = _count_hooks(self.counts)
        for modname, attr, metric in TIMED:
            mod = sys.modules[modname]
            hook = hooks.get((modname, attr))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._timed(original, metric, hook))
                self._undo.append((cls, meth, original))
            else:
                original = getattr(mod, attr)
                self._swap(original, self._timed(original, metric, hook))

        counts = self.counts
        value = VertexFunction.__dict__["value"]

        def counted_value(self_, x):
            counts["graph.value_calls"] += 1
            return value(self_, x)

        VertexFunction.value = counted_value
        self._undo.append((VertexFunction, "value", value))

        cli = sys.modules["graphcalc.cli"]
        emit = cli._emit

        def counted_emit(text, out):
            counts["io.bytes_out"] += len(text.encode("utf-8"))
            return emit(text, out)

        cli._emit = counted_emit
        self._undo.append((cli, "_emit", emit))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
