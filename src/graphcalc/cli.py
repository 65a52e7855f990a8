"""Command-line interface.

One-shot subcommands, each reading files named on the command line and
returning a payload dict (a JSON document) or a CSV body with its extra
comment lines.  `main` alone writes the document to --out or standard output,
led by a run manifest (argv, input digests, scale, version): the first JSON
key, or the first '# manifest: ...' line.  There are no timestamps, so
identical invocations produce identical bytes.

Exit codes: 0 success, 1 validation problems, 2 numerical failures.  Errors
print a one-object JSON diagnostic to standard output.
"""

import argparse
import hashlib
import math
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .calculus import (
    ALLOWED_SCALES,
    CalculusConfig,
    run_identity_suite,
)
from .constants import cheeger_constants, cheeger_functional
from .errors import GraphCalcError, NumericalError, ValidationError
from .evolution import dmf_run, spectral_heat_solve, transport_solve
from .graph import Graph, build_window, monge_cost, volume
from .harmonic import dirichlet_minimize
from .io import (
    _parse_float,
    format_float,
    parse_graph,
    parse_sphere_map,
    parse_vector_field,
    parse_vertex_function,
    render_sphere_map_csv,
    render_trajectory_csv,
)
from .minimax import bottleneck_level, classify_vertex, find_minimax, NEIGHBORHOOD_CAP
from .spectral import OperatorSpec, eigensystem

SCALE_ENV = "GRAPHCALC_SCALE"


def _render_scalar(obj) -> str:
    import json as _json

    if isinstance(obj, bool) or obj is None:
        return _json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return _json.dumps(str(obj))
        return format_float(obj)
    return _json.dumps(obj)


def render_json(obj, level: Optional[int] = 0) -> str:
    """Deterministic JSON: insertion order, floats at .17g; one line when level is None."""
    deeper = None if level is None else level + 1
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        brackets = "{}"
        items = [f"{_render_scalar(str(k))}: {render_json(v, deeper)}" for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        brackets = "[]"
        items = [render_json(v, deeper) for v in obj]
    else:
        return _render_scalar(obj)
    if level is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    pad = "  " * level
    return f"{brackets[0]}\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}{brackets[1]}"


def render_json_line(obj) -> str:
    """Single-line variant for CSV comment lines."""
    return render_json(obj, None)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation problems
        raise ValidationError(message)


def parse_scale(text: str) -> float:
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            val = float(num) / float(den)
        except (ValueError, ZeroDivisionError) as e:
            raise ValidationError(f"cannot parse scale {text!r}") from e
    else:
        try:
            val = float(s)
        except ValueError as e:
            raise ValidationError(f"cannot parse scale {text!r}") from e
    for allowed in ALLOWED_SCALES:
        if abs(val - allowed) < 1e-15:
            return allowed
    raise ValidationError(f"scale must be 1 or 2/3, got {text!r}")


class Inputs:
    """Reads input files and remembers their digests for the manifest."""

    def __init__(self):
        self.records: dict[str, dict] = {}

    def read(self, label: str, path: str) -> str:
        try:
            data = Path(path).read_bytes()
        except OSError as e:
            raise ValidationError(f"cannot read {label} file {path!r}: {e}") from e
        self.records[label] = {
            "path": path,
            "sha256": hashlib.sha256(data).hexdigest(),
        }
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValidationError(f"{label} file {path!r} is not UTF-8: {e}") from e


def build_manifest(argv: list[str], scale: float, inputs: Inputs, seed: Optional[int] = None) -> dict:
    m = {
        "tool": "graphcalc",
        "version": __version__,
        "argv": list(argv),
        "scale": scale,
    }
    if seed is not None:
        m["seed"] = seed
    m["inputs"] = inputs.records
    return m


def _split_names(text: str, what: str) -> list[str]:
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise ValidationError(f"empty {what} list")
    return names


def _load_graph_arg(args, inputs: Inputs) -> Graph:
    return parse_graph(inputs.read("graph", args.graph))


def _finite_float(text: str) -> float:
    return _parse_float(text, "numeric option")


def _static_potential(text: Optional[str], g: Graph, inputs: Inputs):
    if text is None or text == "none":
        return None
    if text.startswith("csv:"):
        return parse_vertex_function(inputs.read("potential", text[4:]), g)
    return _parse_float(text, "potential (a number, 'none' or 'csv:PATH')")


def _time_potential(text: Optional[str], g: Graph, inputs: Inputs):
    """Potential for the implicit flow: static forms plus linear:a,b and sin:a."""
    if text is None:
        return 0.0
    if text.startswith("linear:"):
        parts = text[len("linear:") :].split(",")
        if len(parts) != 2:
            raise ValidationError("linear potential needs 'linear:a,b'")
        a, b = (_parse_float(p, "linear potential") for p in parts)
        return lambda t: a + b * t
    if text.startswith("sin:"):
        amp = _parse_float(text[len("sin:") :], "sin potential")
        return lambda t: amp * math.sin(t)
    val = _static_potential(text, g, inputs)
    return 0.0 if val is None else val


# ---------------------------------------------------------------------------
# subcommands


def cmd_graph(args, inputs, cfg):
    g = _load_graph_arg(args, inputs)
    return {
        "vertices": len(g),
        "edges": len(g.edges()),
        "volume": volume(g, g.vertices),
        "connected": g.is_connected(),
        "degrees": {v: g.degree(v) for v in g.vertices},
    }


def _spec_from_args(args, g: Graph, cfg: CalculusConfig, inputs: Inputs) -> OperatorSpec:
    q = _static_potential(getattr(args, "potential", None), g, inputs)
    if args.bc == "none":
        if getattr(args, "interior", None):
            raise ValidationError("--interior only applies to dirichlet/neumann")
        return OperatorSpec(g, "none", q, cfg)
    if not getattr(args, "interior", None):
        raise ValidationError(f"--interior is required for bc={args.bc}")
    w = build_window(g, _split_names(args.interior, "interior"))
    return OperatorSpec(w, args.bc, q, cfg)


def cmd_spectrum(args, inputs, cfg):
    g = _load_graph_arg(args, inputs)
    spec = _spec_from_args(args, g, cfg, inputs)
    es = eigensystem(spec)
    inner = spec.interior
    # weighted Gram matrix Phi^T D Phi, one row at a time, upper triangle
    vecs = es.vectors[: len(inner)]
    dvecs = vecs * spec.region.layout.deg[: len(inner), None]
    ortho = 0.0
    for i in range(len(es)):
        row = (dvecs * vecs[:, i : i + 1]).sum(axis=0)[i:]
        row[0] -= 1.0
        ortho = max(ortho, float(np.max(np.abs(row))))
    payload = {
        "bc": spec.bc,
        "interior": list(inner),
        "boundary": list(spec.boundary),
        "values": list(es.values),
        "orthonormality_residual": ortho,
    }
    if args.functions:
        payload["functions"] = {
            str(k + 1): {x: phi.value(x) for x in phi.domain}
            for k, phi in enumerate(es.functions)
        }
    return payload


def cmd_cheeger(args, inputs, cfg):
    g = _load_graph_arg(args, inputs)
    h, hrep, gv, grep = cheeger_constants(g)

    def report(r):
        return {
            "subset": list(r.subset),
            "edge_cut": r.edge_cut,
            "boundary_vertices": r.boundary_vertices,
            "volume_inside": r.volume_inside,
            "volume_outside": r.volume_outside,
        }

    payload = {
        "h": h,
        "h_witness": report(hrep),
        "g": gv,
        "g_witness": report(grep),
    }
    if args.function:
        f = parse_vertex_function(inputs.read("function", args.function), g)
        payload["functional_ratio"] = cheeger_functional(g, f)
    return payload


def cmd_minimax(args, inputs, cfg):
    g = _load_graph_arg(args, inputs)
    f = parse_vertex_function(inputs.read("function", args.function), g)
    level, path = bottleneck_level(g, f, args.src, args.dst)
    result = find_minimax(g, f, args.src, args.dst)
    payload = {
        "level": result.level,
        "vertex": result.vertex,
        "path": list(result.path),
        "warnings": list(result.warnings),
        "bottleneck": {"level": level, "path": list(path)},
    }
    which = args.classify or result.vertex
    if g.degree(which) <= NEIGHBORHOOD_CAP:
        cls = classify_vertex(g, f, which)
        payload["classification"] = {
            "vertex": cls.vertex,
            "kinds": list(cls.kinds),
            "notes": list(cls.notes),
            "witness": None
            if cls.witness is None
            else {
                "anchor_high": list(cls.witness.anchor_high),
                "arc_plus": list(cls.witness.arc_plus),
                "arc_minus": list(cls.witness.arc_minus),
                "dip_plus": cls.witness.dip_plus,
                "dip_minus": cls.witness.dip_minus,
            },
        }
    return payload


def cmd_heat(args, inputs, cfg):
    g = _load_graph_arg(args, inputs)
    f = parse_vertex_function(inputs.read("function", args.function), g)
    spec = _spec_from_args(args, g, cfg, inputs)
    if args.t_final <= 0 or args.steps < 1:
        raise ValidationError("t-final must be positive and steps at least 1")
    dt = args.t_final / args.steps
    times = [k * dt for k in range(args.steps + 1)]
    traj = spectral_heat_solve(spec, f, times)
    return render_trajectory_csv(traj.times, traj.states), {}


def cmd_transport(args, inputs, cfg):
    g = _load_graph_arg(args, inputs)
    f = parse_vertex_function(inputs.read("function", args.function), g)
    base = parse_vector_field(inputs.read("field", args.field), g, args.field_mode)
    if args.profile == "const":
        field = base
    elif args.profile == "sin":
        field = lambda t: base.scaled(math.sin(t))
    elif args.profile.startswith("linear:"):
        parts = args.profile[len("linear:") :].split(",")
        if len(parts) != 2:
            raise ValidationError("linear profile needs 'linear:a,b'")
        a, b = (_parse_float(p, "linear profile") for p in parts)
        field = lambda t: base.scaled(a + b * t)
    else:
        raise ValidationError(f"unknown profile {args.profile!r}")
    traj = transport_solve(g, field, f, args.t_final, args.dt)
    return render_trajectory_csv(traj.times, traj.states), {}


def cmd_dmf(args, inputs, cfg):
    g = _load_graph_arg(args, inputs)
    f = parse_vertex_function(inputs.read("function", args.function), g)
    w = build_window(g, _split_names(args.interior, "interior"))
    pot = _time_potential(args.potential, g, inputs)
    run = dmf_run(f, pot, args.t_final, args.steps, w, cfg)
    audit = {
        "dissipation": run.dissipation,
        "audit_margin": run.audit_margin,
        "audit_ok": run.audit_ok,
        "warnings": list(run.warnings),
        "max_el_residual": max(r.el_residual for r in run.reports),
        "certificates_ok": all(r.certificate_ok for r in run.reports),
    }
    return render_trajectory_csv(run.times, run.states), {"audit": audit}


def cmd_harmonic(args, inputs, cfg):
    g = _load_graph_arg(args, inputs)
    w = build_window(g, _split_names(args.interior, "interior"))
    bmap = parse_sphere_map(inputs.read("boundary", args.boundary), g)
    res = dirichlet_minimize(
        bmap, w, tau=args.tau, tol=args.tol, max_steps=args.max_steps
    )
    if res.flow.status != "converged":
        raise NumericalError(
            f"flow did not converge: status {res.flow.status!r} after "
            f"{res.flow.steps_accepted} accepted steps, residual {res.flow.residual}"
        )
    summary = {
        "status": res.flow.status,
        "seed_energy": res.seed_energy,
        "final_energy": res.flow.final_energy,
        "residual": res.flow.residual,
        "steps_accepted": res.flow.steps_accepted,
        "steps_rejected": res.flow.steps_rejected,
        "certificate_ok": res.certificate_ok,
    }
    return render_sphere_map_csv(res.flow.map), {"result": summary}


def cmd_identities(args, inputs, cfg):
    g = _load_graph_arg(args, inputs)
    return run_identity_suite(g, args.seed, args.trials, cfg)


def cmd_monge(args, inputs, cfg):
    g = _load_graph_arg(args, inputs)
    sources = _split_names(args.sources, "sources")
    targets = _split_names(args.targets, "targets")
    cost, assignment = monge_cost(g, sources, targets)
    return {
        "sources": sources,
        "targets": targets,
        "cost": cost,
        "assignment": list(assignment),
    }


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="graphcalc", description="discrete calculus on finite graphs")
    p.add_argument("--version", action="version", version=f"graphcalc {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("graph", help="graph JSON file")
        sp.add_argument("--scale", default=None, help="laplacian scale: 1 or 2/3")
        sp.add_argument("--out", default=None, help="write the output document here")

    sp = sub.add_parser("graph", help="basic facts about a graph")
    common(sp)
    sp.set_defaults(func=cmd_graph)

    sp = sub.add_parser("spectrum", help="eigenvalues of -laplacian + potential")
    common(sp)
    sp.add_argument("--bc", choices=("dirichlet", "neumann", "none"), default="none")
    sp.add_argument("--interior", default=None, help="comma-separated interior vertices")
    sp.add_argument("--potential", default=None, help="number, 'none' or 'csv:PATH'")
    sp.add_argument("--functions", action="store_true", help="include eigenfunctions")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("cheeger", help="isoperimetric constants by enumeration")
    common(sp)
    sp.add_argument("--function", default=None, help="CSV for the functional ratio")
    sp.set_defaults(func=cmd_cheeger)

    sp = sub.add_parser("minimax", help="bottleneck level and minimax search")
    common(sp)
    sp.add_argument("function", help="vertex function CSV")
    sp.add_argument("--src", required=True, help="start vertex (strict local min)")
    sp.add_argument("--dst", required=True, help="end vertex (strict local min)")
    sp.add_argument("--classify", default=None, help="classify this vertex instead")
    sp.set_defaults(func=cmd_minimax)

    sp = sub.add_parser("heat", help="heat semigroup trajectory (spectral)")
    common(sp)
    sp.add_argument("function", help="initial data CSV")
    sp.add_argument("--bc", choices=("dirichlet", "neumann", "none"), default="none")
    sp.add_argument("--interior", default=None)
    sp.add_argument("--potential", default=None)
    sp.add_argument("--t-final", type=_finite_float, required=True, dest="t_final")
    sp.add_argument("--steps", type=int, required=True)
    sp.set_defaults(func=cmd_heat)

    sp = sub.add_parser("transport", help="linear transport along a vector field")
    common(sp)
    sp.add_argument("function", help="initial data CSV")
    sp.add_argument("--field", required=True, help="vector field CSV")
    sp.add_argument(
        "--field-mode",
        choices=("exact", "antisymmetrize", "symmetrize"),
        default="antisymmetrize",
        dest="field_mode",
    )
    sp.add_argument(
        "--profile",
        default="const",
        help="time profile: const, sin, or linear:a,b (multiplies the field)",
    )
    sp.add_argument("--t-final", type=_finite_float, required=True, dest="t_final")
    sp.add_argument("--dt", type=_finite_float, required=True)
    sp.set_defaults(func=cmd_transport)

    sp = sub.add_parser("dmf", help="implicit stepping of u' = lap u + lambda u")
    common(sp)
    sp.add_argument("function", help="initial data CSV, zero on the boundary")
    sp.add_argument("--interior", required=True)
    sp.add_argument(
        "--potential",
        default=None,
        help="number, 'csv:PATH', 'linear:a,b' or 'sin:a'",
    )
    sp.add_argument("--t-final", type=_finite_float, required=True, dest="t_final")
    sp.add_argument("--steps", type=int, required=True)
    sp.set_defaults(func=cmd_dmf)

    sp = sub.add_parser("harmonic", help="sphere-valued harmonic extension")
    common(sp)
    sp.add_argument("--interior", required=True)
    sp.add_argument("--boundary", required=True, help="boundary sphere map CSV")
    sp.add_argument("--tau", type=_finite_float, default=0.5)
    sp.add_argument("--tol", type=_finite_float, default=1e-8)
    sp.add_argument("--max-steps", type=int, default=20000, dest="max_steps")
    sp.set_defaults(func=cmd_harmonic)

    sp = sub.add_parser("identities", help="randomized first-order identity suite")
    common(sp)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--trials", type=int, default=20)
    sp.set_defaults(func=cmd_identities)

    sp = sub.add_parser("monge", help="optimal matching cost between vertex sets")
    common(sp)
    sp.add_argument("--sources", required=True)
    sp.add_argument("--targets", required=True)
    sp.set_defaults(func=cmd_monge)

    return p


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as e:
        raise ValidationError(f"cannot write output file {out!r}: {e}") from e


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        scale_text = args.scale if args.scale is not None else os.environ.get(SCALE_ENV)
        scale = parse_scale(scale_text) if scale_text is not None else 1.0
        cfg = CalculusConfig(laplacian_scale=scale)
        inputs = Inputs()
        result = args.func(args, inputs, cfg)
        manifest = build_manifest(argv, cfg.laplacian_scale, inputs, getattr(args, "seed", None))
        if isinstance(result, dict):
            _emit(render_json({"manifest": manifest, **result}) + "\n", args.out)
        else:
            body, notes = result
            notes = {"manifest": manifest, **notes}
            head = "".join(f"# {k}: {render_json_line(v)}\n" for k, v in notes.items())
            _emit(head + body, args.out)
        return 0
    except SystemExit as e:  # argparse --version/--help paths
        return e.code if isinstance(e.code, int) else 0
    except GraphCalcError as e:
        code = 2 if isinstance(e, NumericalError) else 1
        error = {"type": type(e).__name__, "message": str(e), "exit_code": code}
        _emit(render_json({"error": error}) + "\n", None)
        return code


if __name__ == "__main__":
    sys.exit(main())
