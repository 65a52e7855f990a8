"""Runs one workload's operations in whole passes and times each operation.

    python3 perfbench/worker.py PLAN_JSON RESULT_JSON

The plan (written by run.py) names the operations, the seconds to measure,
whether to trace, and whether every CLI operation runs as a fresh
`python -m graphcalc.cli` process or in this process through
`graphcalc.cli.main(argv)`.  Passes repeat until one more would overrun the
measuring time.  In a traced run every untraced pass is followed by a traced
one, so both see the same machine state; the wrappers exist only during
traced passes.

Every operation is bracketed by the workload's reference kernel (calibrate.py,
run here, outside the operation's timing).  The result lists, per pass, each
operation's start and end, its exit status and the sha256 of its output, and
every kernel sample with its time, plus the per-layer totals of traced passes
and the peak resident memory of the processes that ran the operations.
"""

import dataclasses
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import calibrate  # noqa: E402


# ---------------------------------------------------------------------------
# library-only operations: each returns a JSON-ready dict


def _window_inputs(gc, p):
    g = gc.load_graph(p["graph"])
    return gc.build_window(g, p["interior"]), gc.load_vertex_function(p["function"], g)


def _closure_values(u):
    return {x: u.value(x) for x in u.domain}


def heat_kernel_apply(gc, p):
    w, f = _window_inputs(gc, p)
    es = gc.eigensystem(gc.OperatorSpec(w, "dirichlet"))
    return {"values": _closure_values(gc.HeatKernel(es).apply(p["t"], f))}


def green_apply(gc, p):
    w, f = _window_inputs(gc, p)
    es = gc.eigensystem(gc.OperatorSpec(w, "dirichlet"))
    return {"values": _closure_values(gc.GreenFunction(es).apply(f))}


def heat_identities(gc, p):
    w, f = _window_inputs(gc, p)
    spec = gc.OperatorSpec(w, "dirichlet")
    traj = gc.spectral_heat_solve(spec, f, [k * p["dt"] for k in range(p["steps"] + 1)])
    return dataclasses.asdict(gc.heat_identities_report(traj, spec))


def courant_fischer(gc, p):
    w, _ = _window_inputs(gc, p)
    es = gc.eigensystem(gc.OperatorSpec(w, "dirichlet"))
    rep = gc.courant_fischer_check(es, p["j"], seed=p["seed"], samples=p["samples"], subspaces=p["subspaces"])
    return dataclasses.asdict(rep)


LIBRARY = {f.__name__: f for f in (heat_kernel_apply, green_apply, heat_identities, courant_fischer)}


# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, plan):
        self.plan = plan
        self.ops = plan["ops"]
        self.fresh = plan["fresh_process"]
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath(plan["src"]))
        self.stats_path = os.path.join(plan["workdir"], "layers.json")
        if not self.fresh:
            sys.path.insert(0, os.path.abspath(plan["src"]))
            import graphcalc
            import graphcalc.cli

            self.gc = graphcalc
            self.cli = graphcalc.cli
        self.tracer = None
        if plan["trace"]:
            from layertrace import LayerTracer

            self.tracer = LayerTracer()

    def _in_process(self, op):
        """(start, end, status, output bytes) of one operation run here."""
        if os.path.exists(op["out"]):
            os.remove(op["out"])
        t0 = perf_counter()
        try:
            if op["kind"] == "cli":
                status = self.cli.main(op["argv"] + ["--out", op["out"]])
            else:
                doc = LIBRARY[op["params"]["call"]](self.gc, op["params"])
                with open(op["out"], "w") as fh:
                    json.dump(doc, fh, indent=1)
                status = 0
        except Exception as e:  # a crash is this operation's failure, not the run's
            status = f"{type(e).__name__}: {e}"
        t1 = perf_counter()
        data = b""
        if os.path.exists(op["out"]):
            with open(op["out"], "rb") as fh:
                data = fh.read()
        return t0, t1, status, data

    def _fresh(self, op, traced):
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "tracecli.py"), self.stats_path]
        else:
            cmd = [sys.executable, "-m", "graphcalc.cli"]
        t0 = perf_counter()
        proc = subprocess.run(cmd + op["argv"], capture_output=True, env=self.env, timeout=120)
        t1 = perf_counter()
        with open(op["out"], "wb") as fh:
            fh.write(proc.stdout)
        status = proc.returncode
        if status != 0 and b"Traceback" in proc.stderr:
            status = f"{status}: traceback: {proc.stderr.decode(errors='replace').strip().splitlines()[-1]}"
        return t0, t1, status, proc.stdout

    def run_pass(self, traced):
        layers = None
        if traced and not self.fresh:
            self.tracer.reset()
            self.tracer.install()
        spans, kernel, status, digest = [], [], [], []
        kind = self.plan["kernel"]

        def sample():
            t = perf_counter()
            kernel.append((t, calibrate.measure(kind)))

        sample()
        try:
            for op in self.ops:
                if self.fresh:
                    t0, t1, st, data = self._fresh(op, traced)
                    if traced:
                        layers = _add(layers, _read_json(self.stats_path))
                        os.remove(self.stats_path)
                else:
                    t0, t1, st, data = self._in_process(op)
                sample()
                spans.append((t0, t1))
                status.append(st)
                digest.append(hashlib.sha256(data).hexdigest())
        finally:
            if traced and not self.fresh:
                self.tracer.uninstall()
                layers = self.tracer.snapshot()
        return {
            "traced": traced,
            "spans": spans,
            "kernel": kernel,
            "status": status,
            "digest": digest,
            "layers": layers,
        }

    def run(self):
        budget = self.plan["seconds"]
        start = perf_counter()
        rounds = []
        passes = []
        while True:
            t0 = perf_counter()
            passes.append(self.run_pass(traced=False))
            if self.tracer is not None:
                passes.append(self.run_pass(traced=True))
            rounds.append(perf_counter() - t0)
            if perf_counter() - start + statistics.median(rounds) > budget:
                break
        who = resource.RUSAGE_CHILDREN if self.fresh else resource.RUSAGE_SELF
        return {
            "passes": passes,
            "measured_s": perf_counter() - start,
            "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        }


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _add(total, part):
    if total is None:
        return dict(part)
    return {k: total[k] + part[k] for k in total}


def main():
    plan_path, result_path = sys.argv[1:3]
    result = Runner(_read_json(plan_path)).run()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
