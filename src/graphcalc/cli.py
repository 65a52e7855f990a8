"""Command-line interface.

One-shot subcommands, each reading files named on the command line and
returning a payload dict (a JSON document) or the chunks of a CSV body with
its extra comment lines.  `main` alone writes the document, in batches, to
--out (opened once the subcommand has returned) or standard output, led by a
run manifest (argv, input digests, scale, version): the first JSON
key, or the first '# manifest: ...' line.  There are no timestamps, so
identical invocations produce identical bytes.

Exit codes: 0 success, 1 validation problems, 2 numerical failures.  Errors
print a one-object JSON diagnostic to standard output.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import BinaryIO, Optional

from . import __version__, _numpy as np, constants, evolution, harmonic, minimax, spectral
from .calculus import CalculusConfig, run_identity_suite
from .errors import GraphCalcError, NumericalError, ValidationError
from .graph import BOUNDARY_CONDITIONS, Graph, build_window, monge_cost, volume
from .io import (
    FIELD_MODES,
    FLOAT,
    _parse_float,
    format_float,
    parse_graph,
    parse_sphere_map,
    parse_vector_field,
    parse_vertex_function,
    render_sphere_map_csv,
    trajectory_csv_chunks,
)

SCALE_ENV = "GRAPHCALC_SCALE"
BATCH = 1 << 16  # most characters in one write; one chunk, a state's rows, is never split


def _finite_floats(values) -> bool:
    """Whether every value is a finite builtin float: not a numpy scalar or a bool."""
    return all([type(v) is float for v in values]) and all(map(math.isfinite, values))


def _render(obj, level: Optional[int], templates: dict) -> str:
    """render_json of obj; templates maps (keys, level) to the %-template of
    a dict of finite floats with those str keys, for one document."""
    deeper = None if level is None else level + 1
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        brackets = "{}"
        if _finite_floats(obj.values()):
            keys = tuple(obj)
            template = templates.get((keys, level))
            if template is None and all([type(k) is str for k in keys]):
                fields = [json.dumps(k).replace("%", "%%") + ": " + FLOAT for k in keys]
                template = templates[keys, level] = _join(brackets, level, fields)
            if template is not None:
                return template % tuple(obj.values())
        items = [f"{json.dumps(str(k))}: {_render(v, deeper, templates)}" for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        brackets = "[]"
        if _finite_floats(obj):
            return _join(brackets, level, [FLOAT] * len(obj)) % tuple(obj)
        items = [_render(v, deeper, templates) for v in obj]
    elif isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    elif isinstance(obj, int):
        return str(obj)
    elif isinstance(obj, float):
        return format_float(obj) if math.isfinite(obj) else json.dumps(str(obj))
    else:
        return json.dumps(obj)
    return _join(brackets, level, items)


def _join(brackets: str, level: Optional[int], items: list[str]) -> str:
    """A nonempty container of rendered items, on one line when level is None."""
    if level is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    pad = "  " * level
    return f"{brackets[0]}\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}{brackets[1]}"


def render_json(obj, level: Optional[int] = 0) -> str:
    """Deterministic JSON: insertion order, floats as format_float writes them;
    one line when level is None.  Flat containers of finite floats fill
    %-templates, with the same bytes."""
    return _render(obj, level, {})


def render_json_line(obj) -> str:
    """Single-line variant for CSV comment lines."""
    return render_json(obj, None)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation problems
        raise ValidationError(message)


def parse_scale(text: str) -> float:
    """The number "a" or "a/b"; CalculusConfig decides whether it is a scale."""
    num, slash, den = text.strip().partition("/")
    try:
        return float(num) / float(den) if slash else float(num)
    except (ValueError, ZeroDivisionError) as e:
        raise ValidationError(f"cannot parse scale {text!r}") from e


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


def _finite_float(text: str) -> float:
    return _parse_float(text, "numeric option")


def _static_potential(text: str, g: Graph, inputs: Inputs):
    if text == "none":
        return None
    if text.startswith("csv:"):
        return parse_vertex_function(inputs.read("potential", text[4:]), g)
    return _parse_float(text, "potential (a number, 'none' or 'csv:PATH')")


def _linear(text: str, what: str):
    """t -> a + b t from 'linear:a,b'; what names the option in messages."""
    parts = text[len("linear:") :].split(",")
    if len(parts) != 2:
        raise ValidationError(f"linear {what} needs 'linear:a,b'")
    a, b = (_parse_float(p, f"linear {what}") for p in parts)
    return lambda t: a + b * t


def _time_potential(text: str, g: Graph, inputs: Inputs):
    """Potential for the implicit flow: static forms plus linear:a,b and sin:a."""
    if text.startswith("linear:"):
        return _linear(text, "potential")
    if text.startswith("sin:"):
        amp = _parse_float(text[len("sin:") :], "sin potential")
        return lambda t: amp * math.sin(t)
    return _static_potential(text, g, inputs)


# ---------------------------------------------------------------------------
# subcommands


def cmd_graph(args, g, inputs, cfg):
    return {
        "vertices": len(g),
        "edges": len(g.edges()),
        "volume": volume(g, g.vertices),
        "connected": g.is_connected(),
        "degrees": {v: g.degree(v) for v in g.vertices},
    }


def _window(args, g: Graph):
    """The --interior window of g, or g itself under --bc none.  dmf and
    harmonic have no --bc, and argparse requires their --interior."""
    bc = getattr(args, "bc", None)
    if bc == "none":
        if args.interior:
            raise ValidationError("--interior only applies to dirichlet/neumann")
        return g
    if bc and not args.interior:
        raise ValidationError(f"--interior is required for bc={bc}")
    return build_window(g, _split_names(args.interior, "interior"))


def _spec_from_args(
    args, g: Graph, cfg: CalculusConfig, inputs: Inputs
) -> "spectral.OperatorSpec":
    q = _static_potential(args.potential, g, inputs)
    return spectral.OperatorSpec(_window(args, g), args.bc, q, cfg)


def cmd_spectrum(args, g, inputs, cfg):
    spec = _spec_from_args(args, g, cfg, inputs)
    es = spectral.eigensystem(spec)
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
            str(k + 1): dict(phi.values) for k, phi in enumerate(es.functions)
        }
    return payload


def cmd_cheeger(args, g, inputs, cfg):
    h, hrep, gv, grep = constants.cheeger_constants(g)
    payload = {"h": h, "h_witness": asdict(hrep), "g": gv, "g_witness": asdict(grep)}
    if args.function:
        f = parse_vertex_function(inputs.read("function", args.function), g)
        payload["functional_ratio"] = constants.cheeger_functional(g, f)
    return payload


def cmd_minimax(args, g, inputs, cfg):
    f = parse_vertex_function(inputs.read("function", args.function), g)
    level, path = minimax.bottleneck_level(g, f, args.src, args.dst)
    result = minimax.find_minimax(g, f, args.src, args.dst)
    payload = {**asdict(result), "bottleneck": {"level": level, "path": path}}
    which = args.classify or result.vertex
    if g.degree(which) <= minimax.NEIGHBORHOOD_CAP:
        payload["classification"] = asdict(minimax.classify_vertex(g, f, which))
    return payload


def cmd_heat(args, g, inputs, cfg):
    f = parse_vertex_function(inputs.read("function", args.function), g)
    spec = _spec_from_args(args, g, cfg, inputs)
    times = evolution._uniform_times("heat", args.t_final, args.steps, len(spec.closure))
    traj = evolution.spectral_heat_solve(spec, f, times)
    return trajectory_csv_chunks(traj.times, traj.states), {}


def cmd_transport(args, g, inputs, cfg):
    f = parse_vertex_function(inputs.read("function", args.function), g)
    base = parse_vector_field(inputs.read("field", args.field), g, args.field_mode)
    if args.profile == "const":
        field = base
    elif args.profile == "sin":
        field = lambda t: base.scaled(math.sin(t))
    elif args.profile.startswith("linear:"):
        factor = _linear(args.profile, "profile")
        field = lambda t: base.scaled(factor(t))
    else:
        raise ValidationError(f"unknown profile {args.profile!r}")
    traj = evolution.transport_solve(g, field, f, args.t_final, args.dt)
    return trajectory_csv_chunks(traj.times, traj.states), {}


def cmd_dmf(args, g, inputs, cfg):
    f = parse_vertex_function(inputs.read("function", args.function), g)
    w = _window(args, g)
    pot = _time_potential(args.potential, g, inputs)
    run = evolution.dmf_run(f, pot, args.t_final, args.steps, w, cfg)
    audit = {
        "dissipation": run.dissipation,
        "audit_margin": run.audit_margin,
        "audit_ok": run.audit_ok,
        "warnings": list(run.warnings),
        "max_el_residual": max(r.el_residual for r in run.reports),
        "certificates_ok": all(r.certificate_ok for r in run.reports),
    }
    return trajectory_csv_chunks(run.times, run.states), {"audit": audit}


def cmd_harmonic(args, g, inputs, cfg):
    w = _window(args, g)
    bmap = parse_sphere_map(inputs.read("boundary", args.boundary), g)
    res = harmonic.dirichlet_minimize(bmap, w, tau=args.tau, tol=args.tol, max_steps=args.max_steps)
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
    return [render_sphere_map_csv(res.flow.map)], {"result": summary}


def cmd_identities(args, g, inputs, cfg):
    return run_identity_suite(g, args.seed, args.trials, cfg)


def cmd_monge(args, g, inputs, cfg):
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use and then reused:
    parse_args keeps no state between calls, and the scale from the
    environment is read in main, not stored here."""
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
    sp.add_argument("--bc", choices=BOUNDARY_CONDITIONS, default="none")
    sp.add_argument("--interior", default=None, help="comma-separated interior vertices")
    sp.add_argument("--potential", default="none", help="number, 'none' or 'csv:PATH'")
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
    sp.add_argument("--bc", choices=BOUNDARY_CONDITIONS, default="none")
    sp.add_argument("--interior", default=None)
    sp.add_argument("--potential", default="none")
    sp.add_argument("--t-final", type=_finite_float, required=True, dest="t_final")
    sp.add_argument("--steps", type=int, required=True)
    sp.set_defaults(func=cmd_heat)

    sp = sub.add_parser("transport", help="linear transport along a vector field")
    common(sp)
    sp.add_argument("function", help="initial data CSV")
    sp.add_argument("--field", required=True, help="vector field CSV")
    sp.add_argument(
        "--field-mode",
        choices=FIELD_MODES,
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
        default="none",
        help="number, 'csv:PATH', 'linear:a,b' or 'sin:a'",
    )
    sp.add_argument("--t-final", type=_finite_float, required=True, dest="t_final")
    sp.add_argument("--steps", type=int, required=True)
    sp.set_defaults(func=cmd_dmf)

    sp = sub.add_parser("harmonic", help="sphere-valued harmonic extension")
    common(sp)
    sp.add_argument("--interior", required=True)
    sp.add_argument("--boundary", required=True, help="boundary sphere map CSV")
    sp.add_argument(
        "--tau", type=_finite_float, default=0.5, help="first step; later steps are Barzilai-Borwein"
    )
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


def _utf8_stdout() -> bool:
    encoding = getattr(sys.stdout, "encoding", None)  # None: a text stream
    return not encoding or codecs.lookup(encoding).name == "utf-8"


def _emit(text: str, out: Optional[BinaryIO]) -> None:
    """Write text's UTF-8 bytes to out, an open binary file, or to standard
    output, whatever the locale; non-ASCII text is refused on a standard
    output that is not UTF-8."""
    if out is not None:
        out.write(text.encode("utf-8"))
    elif text.isascii() or _utf8_stdout():
        sys.stdout.write(text)
    else:
        raise ValidationError(
            f"standard output encodes {sys.stdout.encoding!r}, which cannot carry the "
            "document's UTF-8 bytes; write it with --out"
        )


def _write(chunks, out: Optional[str]) -> None:
    """The chunks through _emit, joined into batches of at most BATCH
    characters (a longer chunk alone), to the file out, opened only now, or
    to standard output.  A standard output that is not UTF-8 gets one batch,
    so that a refusal comes before the first byte."""
    limit = BATCH if out is not None or _utf8_stdout() else math.inf
    try:
        with (open(out, "wb") if out is not None else contextlib.nullcontext()) as fh:
            batch, size = [], 0
            for chunk in chunks:
                if size + len(chunk) > limit and batch:
                    _emit("".join(batch), fh)
                    batch, size = [], 0
                batch.append(chunk)
                size += len(chunk)
            _emit("".join(batch), fh)
    except OSError as e:
        if out is None:
            raise
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
        g = parse_graph(inputs.read("graph", args.graph))
        result = args.func(args, g, inputs, cfg)
        manifest = build_manifest(argv, cfg.laplacian_scale, inputs, getattr(args, "seed", None))
        if isinstance(result, dict):
            chunks = [render_json({"manifest": manifest, **result}) + "\n"]
        else:
            body, notes = result
            notes = {"manifest": manifest, **notes}
            head = "".join(f"# {k}: {render_json_line(v)}\n" for k, v in notes.items())
            chunks = itertools.chain([head], body)
        _write(chunks, args.out)
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
