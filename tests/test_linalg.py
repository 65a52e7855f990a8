import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import graphcalc as gc
from graphcalc import linalg

from helpers import connected_graphs, eig_oracle, grid_graph, grid_interior

SRC = Path(gc.__file__).resolve().parent

# the k x k grids the canonical-basis tests run on, and the grids of the
# benchmark inputs (spectral ladder 4, 6, 7; Courant-Fischer audit 8)
GRIDS = (4, 6, 7, 8, 10)


def _grid_specs(k):
    g = grid_graph(k)
    w = gc.build_window(g, grid_interior(k))
    yield gc.OperatorSpec(g, "none")
    yield gc.OperatorSpec(w, "dirichlet")
    yield gc.OperatorSpec(w, "neumann")


def _check_eigenpairs(A, vals, vecs, tol):
    n = len(A)
    assert np.all(np.diff(vals) >= 0.0)
    assert np.max(np.abs(A @ vecs - vecs * vals), initial=0.0) <= tol
    assert np.max(np.abs(vecs.T @ vecs - np.eye(n)), initial=0.0) <= tol


def test_eigh_special_matrices():
    diag = np.diag([3.0, -1.0, 2.0, -1.0, 0.5])
    vals, vecs = gc.eigh(diag)
    assert vals.tolist() == [-1.0, -1.0, 0.5, 2.0, 3.0]
    assert np.array_equal(vecs, np.eye(5)[:, [1, 3, 4, 2, 0]])

    vals, vecs = gc.eigh(np.zeros((4, 4)))
    assert vals.tolist() == [0.0] * 4
    assert np.array_equal(vecs, np.eye(4))

    # blocks decouple: the Householder column of each block's last row is
    # zero and QL deflates at the zero subdiagonal entry
    rng = gc.Lcg64(41)
    blocks = [np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([[5.0]])]
    big = np.array([[rng.normal() for _ in range(4)] for _ in range(4)])
    blocks.append(big + big.T)
    A = np.zeros((7, 7))
    at = 0
    for blk in blocks:
        A[at : at + len(blk), at : at + len(blk)] = blk
        at += len(blk)
    vals, vecs = gc.eigh(A)
    assert np.allclose(vals, eig_oracle(A), atol=1e-13)
    _check_eigenpairs(A, vals, vecs, 1e-13)
    assert np.array_equal(gc.eigvalsh(A), vals)


def test_eigh_input_errors(monkeypatch):
    with pytest.raises(ValueError, match="square"):
        gc.eigh(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="square"):
        gc.eigvalsh(np.zeros(3))
    with pytest.raises(ValueError, match="symmetric"):
        gc.eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))
    nan = np.eye(3)
    nan[1, 1] = np.nan
    with pytest.raises(gc.NumericalError):
        gc.eigh(nan)
    with pytest.raises(gc.NumericalError):
        gc.eigvalsh(nan)
    monkeypatch.setattr(linalg, "MAX_QL_ITERATIONS", 0)
    with pytest.raises(gc.NumericalError, match="did not converge"):
        gc.eigvalsh(np.array([[1.0, 1.0], [1.0, 2.0]]))


def _canonical_lapack(M):
    """LAPACK eigenpairs put into the canonical basis independently: pivot
    rows are the first rows that raise the rank, V inv(V[pivots]) is the
    reduced column-echelon basis, and QR with a positive diagonal is
    Gram-Schmidt in pivot order.  A simple eigenvector keeps its first entry
    above 1e-12 of its peak positive."""
    vals, vecs = np.linalg.eigh(M)
    scale = max(1.0, float(np.max(np.abs(vals))))
    cuts = [0, *(np.flatnonzero(np.diff(vals) > 1e-9 * scale) + 1), len(vals)]
    out = np.empty_like(vecs)
    for a, b in zip(cuts, cuts[1:]):
        V = vecs[:, a:b]
        if b - a == 1:
            v = V[:, 0]
            first = v[np.abs(v) > 1e-12 * np.max(np.abs(v))][0]
            out[:, a] = v if first > 0 else -v
            continue
        pivots = []
        for r in range(len(V)):
            if np.linalg.matrix_rank(V[pivots + [r]], tol=1e-6) > len(pivots):
                pivots.append(r)
        Q, R = np.linalg.qr(V @ np.linalg.inv(V[pivots]))
        out[:, a:b] = Q * np.sign(np.diag(R))
    return vals, out


def test_canonical_bases_match_canonical_lapack_bases():
    for k in (4, 6, 7, 10):
        for spec in _grid_specs(k):
            M = gc.symmetric_matrix(spec)
            vals, vecs = gc.eigh(M)
            want_vals, want_vecs = _canonical_lapack(M)
            assert np.max(np.abs(vals - want_vals)) <= 1e-12, (k, spec.bc)
            assert np.max(np.abs(vecs - want_vecs)) <= 1e-10, (k, spec.bc)


def test_clusters_stable_under_threshold_change():
    # grouping eigenvalues at 1e-9 relative gives the same eigenspaces at
    # 1e-8 and 1e-10: no gap between sorted neighbours falls in between
    for k in GRIDS:
        for spec in _grid_specs(k):
            vals = gc.eigvalsh(gc.symmetric_matrix(spec))
            scale = max(1.0, float(np.max(np.abs(vals))))
            gaps = np.diff(vals) / scale
            assert not np.any((gaps > 0.1 * linalg.CLUSTER_TOL) & (gaps <= 10 * linalg.CLUSTER_TOL))
            assert np.any(gaps <= 0.1 * linalg.CLUSTER_TOL), (k, spec.bc)


def test_eigh_on_400_vertex_grid_agrees_with_lapack():
    M = gc.symmetric_matrix(gc.OperatorSpec(grid_graph(20), "none"))
    vals, vecs = gc.eigh(M)
    assert np.max(np.abs(vals - eig_oracle(M))) <= 1e-10
    _check_eigenpairs(M, vals, vecs, 1e-10)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(connected_graphs())
def test_eigensystem_property(g):
    spec = gc.OperatorSpec(g, "none")
    M = gc.symmetric_matrix(spec)
    vals, vecs = gc.eigh(M)
    assert np.max(np.abs(vals - eig_oracle(M))) <= 1e-12
    assert np.max(np.abs(M @ vecs - vecs * vals)) <= 1e-12
    es = gc.eigensystem(spec)
    deg = np.array([g.degree(v) for v in g.vertices], dtype=float)
    gram = es.vectors.T @ (deg[:, None] * es.vectors)
    assert np.max(np.abs(gram - np.eye(len(g)))) <= 1e-12


def test_cholesky_solve_matches_lapack():
    rng = gc.Lcg64(43)
    for n in (1, 2, 5, 30):
        B = np.array([[rng.normal() for _ in range(n)] for _ in range(n)])
        A = B @ B.T + n * np.eye(n)
        b = np.array([rng.normal() for _ in range(n)])
        L = linalg.cholesky(A)
        assert np.array_equal(L, np.tril(L))
        assert np.allclose(L @ L.T, A, atol=1e-12)
        assert np.allclose(linalg.cholesky_solve(L, b), np.linalg.solve(A, b), atol=1e-12)
    with pytest.raises(gc.NumericalError, match="pivot 2"):
        linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _numpy_uses(path):
    """Dotted np./numpy. names, numpy.* imports and @ operators in a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            names.add(_dotted(node).replace("numpy.", "np.", 1))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            names.add("@")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names.update(f"{node.module}.{a.name}".replace("numpy", "np", 1) for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name.replace("numpy", "np", 1) for a in node.names)
    return names


def test_no_blas_in_linalg_and_no_lapack_solvers_elsewhere():
    uses = _numpy_uses(SRC / "linalg.py")
    assert not {n for n in uses if n in ("@", "np.dot", "np.matmul") or n.startswith("np.linalg")}
    banned = {"np.linalg.eigh", "np.linalg.eigvalsh", "np.linalg.solve"}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "linalg.py":
            assert not _numpy_uses(path) & banned, path.name


def _region_type_checks(path):
    """(function, line) of every isinstance whose type names Graph or SubgraphWindow."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and _dotted(node.func) == "isinstance" and len(node.args) == 2:
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if {_dotted(k).rsplit(".", 1)[-1] for k in kinds} & {"Graph", "SubgraphWindow"}:
                found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def test_region_type_is_told_apart_only_by_operator_spec():
    """A graph is the window with an empty boundary, so only the bc rule of
    OperatorSpec may ask which of the two a region is."""
    sites = {
        (path.name, scope, line)
        for path in sorted(SRC.glob("*.py"))
        for scope, line in _region_type_checks(path)
    }
    assert {(name, scope) for name, scope, _ in sites} <= {
        ("spectral.py", "OperatorSpec.__post_init__")
    }, sorted(sites)
    assert len(sites) <= 1, sorted(sites)
