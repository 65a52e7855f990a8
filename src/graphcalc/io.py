"""File formats: graph JSON, vertex/field/sphere-map CSV.

CSV readers skip blank lines and '#' comment lines, tolerate surrounding
whitespace, and accept one optional header row naming the columns.  Writers
emit one leading '# manifest: ...' comment when given one, then plain rows
with floats at full round-trip precision.
"""

import csv
import io as _io
import json
import math
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from .calculus import VectorField
from .errors import (
    DanglingEndpointError,
    DuplicateEdgeError,
    GraphParseError,
    SelfLoopError,
    UnknownVertexError,
    ValidationError,
)
from .graph import Graph, VertexFunction
from .harmonic import SphereMap, SpherePoint

FIELD_MODES = ("exact", "antisymmetrize", "symmetrize")


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def parse_graph(text: str) -> Graph:
    """Graph from a JSON object {"vertices": [...], "edges": [[a, b], ...]}.

    The CSV writers print vertex ids raw, so an id may not contain ',', '"'
    or a line break, start with '#', or have leading or trailing whitespace.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise GraphParseError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise GraphParseError("top level must be an object")
    verts = doc.get("vertices")
    edges = doc.get("edges")
    if not isinstance(verts, list) or not verts or not all(
        isinstance(v, str) and v for v in verts
    ):
        raise GraphParseError("'vertices' must be a nonempty list of nonempty strings")
    if len(set(verts)) != len(verts):
        raise GraphParseError("vertex names must be unique")
    for v in verts:
        if v != v.strip() or v.startswith("#") or "," in v or '"' in v or v.splitlines() != [v]:
            raise GraphParseError(f"vertex id {v!r} cannot be written to CSV")
    if not isinstance(edges, list):
        raise GraphParseError("'edges' must be a list")
    vset = set(verts)
    seen: set[frozenset] = set()
    pairs = []
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e)):
            raise GraphParseError(f"edge entries must be pairs of strings, got {e!r}")
        a, b = e
        if a == b:
            raise SelfLoopError(f"self-loop at {a!r}")
        for v in (a, b):
            if v not in vset:
                raise DanglingEndpointError(f"edge endpoint {v!r} is not a vertex")
        key = frozenset((a, b))
        if key in seen:
            raise DuplicateEdgeError(f"edge {a!r} -- {b!r} listed twice")
        seen.add(key)
        pairs.append((a, b))
    return Graph(verts, pairs)


def load_graph(path: Union[str, Path]) -> Graph:
    return parse_graph(Path(path).read_text())


def write_graph(g: Graph) -> str:
    doc = {"vertices": list(g.vertices), "edges": [[a, b] for a, b in g.edges()]}
    return json.dumps(doc, indent=2) + "\n"


def _csv_rows(text: str) -> list[list[str]]:
    rows = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append([cell.strip() for cell in next(csv.reader([stripped]))])
    return rows


def _parse_float(cell: str, where: str) -> float:
    """A finite float; anything else is a ValidationError."""
    try:
        val = float(cell)
    except ValueError as e:
        raise ValidationError(f"{where}: cannot parse {cell!r} as a number") from e
    if not math.isfinite(val):
        raise ValidationError(f"{where}: {cell!r} is not a finite number")
    return val


def parse_vertex_function(text: str, g: Graph) -> VertexFunction:
    """CSV with rows vertex,value; header row 'vertex,value' is optional."""
    rows = _csv_rows(text)
    if rows and [c.lower() for c in rows[0]] == ["vertex", "value"]:
        rows = rows[1:]
    vals: dict[str, float] = {}
    for k, row in enumerate(rows, start=1):
        if len(row) != 2:
            raise ValidationError(f"row {k}: expected 'vertex,value', got {row!r}")
        v, cell = row
        if v not in g:
            raise UnknownVertexError(f"row {k}: unknown vertex {v!r}")
        if v in vals:
            raise ValidationError(f"row {k}: vertex {v!r} listed twice")
        vals[v] = _parse_float(cell, f"row {k}")
    if not vals:
        raise ValidationError("no function rows found")
    return VertexFunction(g, vals)


def load_vertex_function(path: Union[str, Path], g: Graph) -> VertexFunction:
    return parse_vertex_function(Path(path).read_text(), g)


def parse_vector_field(text: str, g: Graph, mode: str = "exact") -> VectorField:
    """CSV with rows from,to,value; 'from,to,value' header optional.

    mode "exact" keeps exactly the listed ordered pairs.  "antisymmetrize"
    fills each missing reverse pair with the negated value and insists any
    listed reverse agrees; "symmetrize" does the same with the plain value.
    """
    if mode not in FIELD_MODES:
        raise ValidationError(f"mode must be one of {FIELD_MODES}, got {mode!r}")
    rows = _csv_rows(text)
    if rows and [c.lower() for c in rows[0]] == ["from", "to", "value"]:
        rows = rows[1:]
    entries: dict[tuple[str, str], float] = {}
    for k, row in enumerate(rows, start=1):
        if len(row) != 3:
            raise ValidationError(f"row {k}: expected 'from,to,value', got {row!r}")
        x, y, cell = row
        for v in (x, y):
            if v not in g:
                raise UnknownVertexError(f"row {k}: unknown vertex {v!r}")
        if not g.has_edge(x, y):
            raise ValidationError(f"row {k}: {x!r} and {y!r} are not adjacent")
        if (x, y) in entries:
            raise ValidationError(f"row {k}: ordered pair ({x!r}, {y!r}) listed twice")
        entries[(x, y)] = _parse_float(cell, f"row {k}")
    if not entries:
        raise ValidationError("no field rows found")
    if mode != "exact":
        sign = -1.0 if mode == "antisymmetrize" else 1.0
        for (x, y), w in list(entries.items()):
            back = entries.get((y, x))
            if back is None:
                entries[(y, x)] = sign * w
            elif abs(back - sign * w) > 1e-12 * max(1.0, abs(w)):
                raise ValidationError(
                    f"pair ({x!r}, {y!r}) conflicts with its reverse under {mode}"
                )
    return VectorField(g, entries)


def parse_sphere_map(text: str, g: Graph) -> SphereMap:
    """CSV with rows vertex,x,y,z; header optional.  Rows are normalized."""
    rows = _csv_rows(text)
    if rows and [c.lower() for c in rows[0]] == ["vertex", "x", "y", "z"]:
        rows = rows[1:]
    pts: dict[str, SpherePoint] = {}
    for k, row in enumerate(rows, start=1):
        if len(row) != 4:
            raise ValidationError(f"row {k}: expected 'vertex,x,y,z', got {row!r}")
        v = row[0]
        if v not in g:
            raise UnknownVertexError(f"row {k}: unknown vertex {v!r}")
        if v in pts:
            raise ValidationError(f"row {k}: vertex {v!r} listed twice")
        coords = [_parse_float(c, f"row {k}") for c in row[1:]]
        pts[v] = SpherePoint(*coords)
    if not pts:
        raise ValidationError("no map rows found")
    return SphereMap(g, pts)


def _with_comments(body: str, comments: Sequence[str]) -> str:
    head = "".join(f"# {c}\n" for c in comments)
    return head + body


def render_vertex_function_csv(
    f: VertexFunction, comments: Sequence[str] = ()
) -> str:
    buf = _io.StringIO()
    buf.write("vertex,value\n")
    for x in f.domain:
        buf.write(f"{x},{format_float(f.value(x))}\n")
    return _with_comments(buf.getvalue(), comments)


def render_trajectory_csv(times, states, comments: Sequence[str] = ()) -> str:
    """time,vertex,value rows, time-major, vertices in file order."""
    buf = _io.StringIO()
    buf.write("time,vertex,value\n")
    for t, u in zip(times, states):
        for x in u.domain:
            buf.write(f"{format_float(t)},{x},{format_float(u.value(x))}\n")
    return _with_comments(buf.getvalue(), comments)


def render_sphere_map_csv(u: SphereMap, comments: Sequence[str] = ()) -> str:
    buf = _io.StringIO()
    buf.write("vertex,x,y,z\n")
    for v in u.domain:
        p = u.point(v).xyz
        buf.write(f"{v},{format_float(p[0])},{format_float(p[1])},{format_float(p[2])}\n")
    return _with_comments(buf.getvalue(), comments)
