"""File formats: graph JSON, vertex/field/sphere-map CSV.

CSV readers skip blank lines and '#' comment lines, tolerate surrounding
whitespace, and accept one optional header row naming the columns.  Writers
emit a header row, then plain rows with floats at full round-trip precision;
the CLI puts its '# manifest: ...' comment lines above them.
"""

import csv
import json
import math
from pathlib import Path
from typing import Union

from . import harmonic
from .calculus import VectorField
from .errors import GraphParseError, UnknownVertexError, ValidationError
from .graph import Graph, VertexFunction

FIELD_MODES = ("exact", "antisymmetrize", "symmetrize")

# The one float format, 17 significant digits: every finite float reads back
# exactly.  format_float, the JSON templates and the CSV writers all use it.
FLOAT = "%.17g"


def format_float(x: float) -> str:
    return FLOAT % float(x)


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
    for v in verts:
        if v != v.strip() or v.startswith("#") or "," in v or '"' in v or v.splitlines() != [v]:
            raise GraphParseError(f"vertex id {v!r} cannot be written to CSV")
    if not isinstance(edges, list):
        raise GraphParseError("'edges' must be a list")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e)):
            raise GraphParseError(f"edge entries must be pairs of strings, got {e!r}")
    return Graph(verts, map(tuple, edges))


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


def _records(text: str, g: Graph, columns: str, keys: int, noun: str):
    """(k, row) for each data row k = 1, 2, ... of a CSV of noun rows whose
    optional header is columns; a file with no data row is refused.  Each row
    must have one cell per column, and its first keys cells must be vertices
    of g that no earlier row listed; rows are checked as they are reached."""
    names = columns.split(",")
    rows = _csv_rows(text)
    if rows and [c.lower() for c in rows[0]] == names:
        rows = rows[1:]
    if not rows:
        raise ValidationError(f"no {noun} rows found")
    seen = set()
    for k, row in enumerate(rows, start=1):
        if len(row) != len(names):
            raise ValidationError(f"row {k}: expected '{columns}', got {row!r}")
        key = tuple(row[:keys])
        for v in key:
            if v not in g:
                raise UnknownVertexError(f"row {k}: unknown vertex {v!r}")
        if key in seen:
            what = f"vertex {key[0]!r}" if keys == 1 else f"ordered pair {key!r}"
            raise ValidationError(f"row {k}: {what} listed twice")
        seen.add(key)
        yield k, row


def parse_vertex_function(text: str, g: Graph) -> VertexFunction:
    """CSV with rows vertex,value; header row 'vertex,value' is optional."""
    rows = _records(text, g, "vertex,value", 1, "function")
    return VertexFunction(g, {v: _parse_float(cell, f"row {k}") for k, (v, cell) in rows})


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
    entries: dict[tuple[str, str], float] = {}
    for k, (x, y, cell) in _records(text, g, "from,to,value", 2, "field"):
        if not g.has_edge(x, y):
            raise ValidationError(f"row {k}: {x!r} and {y!r} are not adjacent")
        entries[(x, y)] = _parse_float(cell, f"row {k}")
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


def parse_sphere_map(text: str, g: Graph) -> "harmonic.SphereMap":
    """CSV with rows vertex,x,y,z; header optional.  Rows are normalized."""
    pts = {
        v: harmonic.SpherePoint(*[_parse_float(c, f"row {k}") for c in cells])
        for k, (v, *cells) in _records(text, g, "vertex,x,y,z", 1, "map")
    }
    return harmonic.SphereMap(g, pts)


def render_vertex_function_csv(f: VertexFunction) -> str:
    """vertex,value rows in f's domain order (file order)."""
    row = "%s," + FLOAT + "\n"
    return "vertex,value\n" + "".join([row % item for item in f.values.items()])


def render_trajectory_csv(times, states) -> str:
    """time,vertex,value rows, time-major, vertices in file order.

    Each state fills a %-template of its domain's rows, built once per
    domain.
    """
    parts = ["time,vertex,value\n"]
    templates: dict[tuple[str, ...], str] = {}
    for t, u in zip(times, states):
        domain = tuple(u.values)  # in file order
        template = templates.get(domain)
        if template is None:
            template = "".join([f"%s,{x.replace('%', '%%')},{FLOAT}\n" for x in domain])
            templates[domain] = template
        args = [format_float(t)] * (2 * len(domain))
        args[1::2] = u.values.values()
        parts.append(template % tuple(args))
    return "".join(parts)


def render_sphere_map_csv(u: "harmonic.SphereMap") -> str:
    """vertex,x,y,z rows in u's domain order (file order)."""
    row = f"%s,{FLOAT},{FLOAT},{FLOAT}\n"
    return "vertex,x,y,z\n" + "".join([row % (x, *p.xyz) for x, p in u.points.items()])
