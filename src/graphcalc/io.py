"""File formats: graph JSON, vertex/field/sphere-map CSV.

CSV readers skip blank lines and '#' comment lines, tolerate surrounding
whitespace, and accept one optional header row naming the columns.  Writers
emit a header row, then plain rows with floats at full round-trip precision;
the CLI puts its '# manifest: ...' comment lines above them.
"""

import csv
import functools
import itertools
import json
import math
from pathlib import Path
from typing import Union

from . import _numpy as np, harmonic
from .calculus import VectorField
from .errors import GraphParseError, UnknownVertexError, ValidationError
from .graph import Graph, VertexFunction, gather

FIELD_MODES = ("exact", "antisymmetrize", "symmetrize")
BLOCK = 4096  # values per _float_parts call when rendering a trajectory

# The one float format, 17 significant digits: every finite float reads back
# exactly.  format_float, the JSON templates and the CSV writers all use it.
FLOAT = "%.17g"


def format_float(x: float) -> str:
    return FLOAT % float(x)


def _covered(a):
    """Where _float_parts renders a value of magnitude a."""
    return (a < 10.0) & ((a >= 1e-4) | (a == 0.0))


@functools.cache
def _tables():
    """_float_parts' tables: the decade bounds; by X + 5 for decade X, the
    two halves of 10**(16 - X) and the divisor that leaves N's integer
    digit; the powers of ten; and the heads by (sign, integer digit, slot),
    where a slot k <= 16 puts the point and k - 1 zeros after the digit and
    a larger slot no point.  10**s is an exact double for s <= 22, and the
    halves of its Veltkamp split make Dekker's product exact."""
    scales = [10.0**s for s in range(21, 14, -1)]
    highs = [c - (c - s) for s, c in ((s, s * 134217729.0) for s in scales)]
    heads = [
        sign + (f"{digit}.{'0' * (slot - 1)}" if 0 < slot <= 16 else "")
        for sign in ("", "-")
        for digit in "0123456789"
        for slot in range(23)
    ]
    return (
        np.array([1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0]),
        np.array(highs),
        np.array([s - h for s, h in zip(scales, highs)]),
        np.array([10**18] * 5 + [10**16, 10**18]),  # only decade 0 has an integer digit
        np.array([10**d for d in range(19)]),
        np.array(heads, dtype=object),
    )


def _float_parts(values):
    """The array form of FLOAT: heads, int tails and a covered mask, with
    heads[i] + str(tails[i]) == FLOAT % values[i] for every covered value,
    that is zeros and every value with 1e-4 <= |x| < 10.  The other entries
    are placeholders.

    The 17 significant digits of an x in decade X are the integer
    N = |x| 10**(16 - X) rounded half to even.  That product's double p is
    an even integer >= 2**53 and Dekker's exact product (Numer. Math. 18,
    1971) gives its error e, so N = p + rint(e).  The tail is the digits
    after the point without trailing zeros, or the integer digit when none
    is left; the head is the sign, the integer digit, the point and the
    zeros after it.
    """
    decades, highs, lows, lead, powers, heads = _tables()
    x = np.asarray(values, dtype=float).ravel()
    covered = _covered(np.abs(x))
    a = np.fmin(np.abs(x), 10.0)  # no product below overflows
    k = np.searchsorted(decades, a, side="right")  # X + 5 when covered
    hi, lo = highs[k], lows[k]
    p = a * (hi + lo)
    c = a * 134217729.0
    a_hi = c - (c - a)
    a_lo = a - a_hi
    e = ((a_hi * hi - p) + a_hi * lo + a_lo * hi) + a_lo * lo
    n = p.astype(np.int64) + np.rint(e).astype(np.int64)
    digit = n // lead[k]
    rest = n - digit * 10**16
    slot = 22 - k - np.searchsorted(powers, rest, side="right")
    zeros = np.flatnonzero(rest % 10 == 0)  # trailing zeros to drop, at most 16
    if zeros.size:
        r = rest[zeros]
        for d in (16, 8, 4, 2, 1):
            q, m = np.divmod(r, 10**d)
            r = np.where(m == 0, q, r)
        rest[zeros] = r
    head = (np.signbit(x) * 10 + digit) * 23 + slot
    return heads[head].tolist(), np.where(rest == 0, digit, rest).tolist(), covered


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
    """time,vertex,value rows, time-major, vertices in file order."""
    return "".join(trajectory_csv_chunks(times, states))


def trajectory_csv_chunks(times, states):
    """render_trajectory_csv as chunks: the header row, then one chunk per
    state.  Consecutive states on one domain are read through gather, so a
    solver's function builds no values dict, in blocks of up to BLOCK values.
    A state with more than half its values covered by _float_parts fills
    its domain's template of heads and tails, and its other values come
    from one FLOAT call per block; any other state fills the FLOAT template.
    Each domain's templates are built once."""
    if len(times) != len(states):
        raise ValidationError(f"trajectory has {len(times)} times for {len(states)} states")
    yield "time,vertex,value\n"
    templates: dict[tuple[str, ...], tuple[str, str]] = {}
    for domain, run in itertools.groupby(zip(times, states), key=lambda pair: pair[1].domain):
        n = len(domain)
        if domain not in templates:
            names = [x.replace("%", "%%") for x in domain]
            templates[domain] = (
                "".join([f"%s,{x},{FLOAT}\n" for x in names]),
                "".join([f"%s,{x},%s%s\n" for x in names]),
            )
        plain, parted = templates[domain]
        while block := list(itertools.islice(run, max(1, BLOCK // max(n, 1)))):
            values = np.array([gather(u, domain) for _, u in block])
            parts = 2 * _covered(np.abs(values)).sum(axis=1) > n
            if parts.any():
                chosen = values[parts]
                heads, tails, covered = _float_parts(chosen)
                misses = np.flatnonzero(~covered).tolist()
                if misses:
                    rest = chosen.ravel()[misses].tolist()
                    texts = ("\n".join([FLOAT] * len(rest)) % tuple(rest)).split("\n")
                    for i, text in zip(misses, texts):
                        heads[i], tails[i] = text, ""
            j = 0
            for (t, _), row, part in zip(block, values, parts.tolist()):
                time = format_float(t)
                if part:
                    args = [time] * (3 * n)
                    args[1::3] = heads[j : j + n]
                    args[2::3] = tails[j : j + n]
                    j += n
                    yield parted % tuple(args)
                else:
                    args = [time] * (2 * n)
                    args[1::2] = row.tolist()
                    yield plain % tuple(args)


def render_sphere_map_csv(u: "harmonic.SphereMap") -> str:
    """vertex,x,y,z rows in u's domain order (file order)."""
    row = f"%s,{FLOAT},{FLOAT},{FLOAT}\n"
    return "vertex,x,y,z\n" + "".join([row % (x, *p.xyz) for x, p in u.points.items()])
