"""graphcalc benchmark: one workload per run, checked against oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding src/graphcalc).  The
run writes the workload's inputs from the seed, times set-up (a fresh
interpreter importing graphcalc.cli), hands the operations to worker.py for S
seconds of whole passes, checks every output with oracles.py and prints the
metrics.  The last line of standard output is one JSON object: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.  A fuller record
goes to perfbench/_results/.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = "src"
# One BLAS thread: the benchmark's load is a single single-threaded process
# on a 2-core machine, and graphcalc's bytes depend on the thread count.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SPAWNS = 6  # before the worker, and as many again after it
FRESH_PROCESS = {"cli-small"}
KERNEL = {"spectral-ladder": "interp", "pointwise-flows": "interp", "cheeger-enum": "bulk", "cli-small": "spawn"}
WORKER_GRACE_S = 100  # the worker stops after the pass that crosses --seconds
SPEED_WINDOW_S = 2.0  # the machine's speed is read from kernel samples this close

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("small_s", "s"), ("large_s", "s")]

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import inputs  # noqa: E402


def pin_to_one_cpu():
    """Keep this process and every process it starts on one CPU, so the
    reference kernel and the operations it calibrates see the same core."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def scaled_times(spans, samples, kind):
    """Operation times in seconds at the kernel's reference speed.

    Each (start, end) span is scaled by the median of the kernel samples taken
    within SPEED_WINDOW_S of it, which always include the two around it.
    """
    out = []
    for t0, t1 in spans:
        near = [k for t, k in samples if t0 - SPEED_WINDOW_S <= t <= t1 + SPEED_WINDOW_S]
        out.append(calibrate.scale(kind, t1 - t0, statistics.median(near)))
    return out


def measure_setup(env, spawns):
    """Times from spawning an interpreter to `import graphcalc.cli` returning:
    (in seconds at the reference speed, raw seconds)."""
    probe = "import time, graphcalc.cli; print(repr(time.perf_counter()))"
    spans, samples = [], []
    for i in range(spawns + 1):
        samples.append((perf_counter(), calibrate.measure("spawn")))
        if i == spawns:
            break
        t0 = perf_counter()  # CLOCK_MONOTONIC, shared with the child
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, capture_output=True)
        spans.append((t0, float(out.stdout)))
    return scaled_times(spans, samples, "spawn"), [t1 - t0 for t0, t1 in spans]


def run_worker(plan, workdir, env, seconds):
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "result.json")
    log_path = os.path.join(workdir, "worker.log")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    with open(log_path, "wb") as log:
        # own process group, so a timeout also ends the worker's children
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=seconds + WORKER_GRACE_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail("worker ran past its time limit")
    if proc.returncode != 0:
        with open(log_path, errors="replace") as fh:
            sys.stderr.write(fh.read()[-4000:])
        fail(f"worker exited with {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def op_failed(op, status, data):
    """An operation fails when it breaks the README's exit-code contract."""
    if not op["expect_fail"]:
        return status != 0
    try:
        doc = json.loads(data)
    except ValueError:
        return True
    return not (status == 1 and isinstance(doc, dict) and list(doc) == ["error"])


def check_outputs(ops, passes):
    """(attempted, failed, problems) over every pass.

    The oracles read the output the last pass left, which every pass must
    match byte for byte."""
    import oracles

    problems = []
    failed = 0
    first = passes[0]
    for i, op in enumerate(ops):
        for p in passes[1:]:
            if p["digest"][i] != first["digest"][i] or p["status"][i] != first["status"][i]:
                problems.append(f"{op['id']}: output differs between repeats")
                break
        with open(op["out"], "rb") as fh:
            data = fh.read()
        bad = [op_failed(op, p["status"][i], data) for p in passes]
        failed += sum(bad)
        if bad[0]:
            if not op["expect_fail"]:
                problems.append(f"{op['id']}: failed with {first['status'][i]!r}")
            continue
        try:
            oracles.check(op, data)
        except oracles.CheckFailed as e:
            problems.append(f"{op['id']}: {e}")
        except (KeyError, ValueError, IndexError, TypeError) as e:
            problems.append(f"{op['id']}: unreadable output ({type(e).__name__}: {e})")
    return len(ops) * len(passes), failed, problems


def end_to_end(ops, result, setup, kind):
    plain = [scaled_times(p["spans"], p["kernel"], kind) for p in result["passes"] if not p["traced"]]
    med = [statistics.median(p[i] for p in plain) for i in range(len(ops))]
    top = max(op["rung"] for op in ops)
    return {
        "wall_s": sum(med),
        "setup_s": setup,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "small_s": sum(t for t, op in zip(med, ops) if op["rung"] == 0),
        "large_s": sum(t for t, op in zip(med, ops) if op["rung"] == top),
    }, med


def pass_seconds(p):
    return sum(t1 - t0 for t0, t1 in p["spans"])


def per_layer(result, kind):
    import layertrace

    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    values = {}
    for name in layertrace.TIME_METRICS:
        values[name] = (statistics.median(p["layers"][name] for p in traced), "s")
    for name in layertrace.COUNTS:
        values[name] = (traced[0]["layers"][name], "count")

    def scaled_pass(p):
        return sum(scaled_times(p["spans"], p["kernel"], kind))

    overhead = statistics.median(map(scaled_pass, traced)) - statistics.median(map(scaled_pass, plain))
    values["bench.trace_overhead_s"] = (overhead, "s")
    repeats = all(p["layers"][c] == traced[0]["layers"][c] for p in traced for c in layertrace.COUNTS)
    return values, repeats


def main():
    ap = argparse.ArgumentParser(description="graphcalc benchmark")
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "graphcalc", "cli.py")):
        fail("run from the root of a graphcalc checkout: src/graphcalc/cli.py not found")
    os.environ.update(BLAS_ENV)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    cpu = pin_to_one_cpu()

    workdir = os.path.join(HERE, "_work", f"{a.workload}-s{a.seed}-t{a.trace}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    setup_scaled, setup_raw = [], []
    try:
        ops = inputs.build(a.workload, a.seed, workdir)
        # one untimed import compiles the bytecode
        subprocess.run([sys.executable, "-c", "import graphcalc.cli"], env=env, check=True)
        if not a.trace:
            setup_scaled, setup_raw = measure_setup(env, SETUP_SPAWNS)
        plan = {
            "ops": ops,
            "seconds": a.seconds,
            "trace": bool(a.trace),
            "fresh_process": a.workload in FRESH_PROCESS,
            "kernel": KERNEL[a.workload],
            "src": SRC,
            "workdir": workdir,
        }
        result = run_worker(plan, workdir, env, a.seconds)
        if not a.trace:
            scaled, raw = measure_setup(env, SETUP_SPAWNS)
            setup_scaled += scaled
            setup_raw += raw
        attempted, failed, problems = check_outputs(ops, result["passes"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "blas": BLAS_ENV,
        "cpu": cpu,
        "python": sys.version.split()[0],
        "passes": len(result["passes"]),
        "kernel": KERNEL[a.workload],
        "pass_raw_s": [pass_seconds(p) for p in result["passes"]],
        "pass_scaled_s": [sum(scaled_times(p["spans"], p["kernel"], KERNEL[a.workload])) for p in result["passes"]],
        "op_spans": [p["spans"] for p in result["passes"]],
        "kernel_samples": [p["kernel"] for p in result["passes"]],
        "measured_s": result["measured_s"],
        "setup_raw_s": setup_raw,
        "problems": problems,
    }
    if a.trace:
        values, repeats = per_layer(result, KERNEL[a.workload])
        record["counts_repeat_across_passes"] = repeats
        if not repeats:
            problems.append("a per-layer count differs between traced passes")
    else:
        e2e, med = end_to_end(ops, result, statistics.median(setup_scaled), KERNEL[a.workload])
        values = {name: (e2e[name], unit) for name, unit in END_TO_END}
        record["op_median_s"] = {op["id"]: t for op, t in zip(ops, med)}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    os.makedirs(os.path.join(HERE, "_results"), exist_ok=True)
    with open(os.path.join(HERE, "_results", f"{a.workload}-s{a.seed}-t{a.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(f"# {a.workload} seed={a.seed} passes={len(result['passes'])} blas_threads=1")
    for name, (v, unit) in values.items():
        print(f"# {name:28s} {v:16.6f} {unit}" if unit != "count" else f"# {name:28s} {v:9d} {unit}")
    print(f"# attempted={attempted} failed={failed} correct={not problems}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )


if __name__ == "__main__":
    main()
