import ast
import math
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

import graphcalc as gc
from graphcalc import linalg

from conftest import FIXTURES
from helpers import (
    complete_graph,
    connected_graphs,
    cycle_graph,
    eig_oracle,
    grid_graph,
    grid_interior,
    per_cluster_canonical_basis,
    per_cluster_eigh,
    per_wave_rotate,
    sequential_eigh_unsorted,
)

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


def _tridiagonal(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


# a tridiagonal on which a QL rotation underflows to r == 0, so the matrix
# splits inside a sweep (found by a seeded search over mixed scales)
SPLIT = _tridiagonal([-2.0, 0.0, 3e-300, 1e-300, -0.0], [1e-200, 2e-300, -1.0, 4.0])


def _reference_matrices():
    for make in FIXTURES.values():
        yield gc.symmetric_matrix(gc.OperatorSpec(make(), "none"))
    for k in range(2, 15):
        yield gc.symmetric_matrix(gc.OperatorSpec(grid_graph(k), "none"))
    for k in (5, 9):
        for spec in list(_grid_specs(k))[1:]:
            yield gc.symmetric_matrix(spec)
    rng = gc.Lcg64(53)
    for n in (1, 2, 3, 5, 8, 13, 30, 60):
        B = np.array([[rng.normal() for _ in range(n)] for _ in range(n)])
        yield B + B.T
    yield SPLIT
    yield np.diag([3.0, -1.0, 2.0, -1.0, 0.5, 0.0])


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def test_eigh_matches_sequential_rotations_bit_for_bit(monkeypatch):
    """The rotations applied in waves give the vectors of applying them one
    at a time, bit for bit, and so does the sorted canonical eigh."""
    zeros = []

    def hypot(*args):
        r = math.hypot(*args)
        zeros.append(r == 0.0)
        return r

    with monkeypatch.context() as m:
        proxy = SimpleNamespace(hypot=hypot, copysign=math.copysign, sqrt=math.sqrt)
        m.setattr(linalg, "math", proxy)
        linalg.eigh_unsorted(SPLIT)
    assert any(zeros)
    rotations = []
    linalg._ql([3.0, -1.0, 2.0], [0.0, 0.0, 0.0], rotations)
    assert rotations == []

    mats = list(_reference_matrices())
    got = [(linalg.eigh_unsorted(M), gc.eigh(M), gc.eigvalsh(M)) for M in mats]
    monkeypatch.setattr(linalg, "eigh_unsorted", sequential_eigh_unsorted)
    for M, ((vals, vt), (svals, vecs), plain) in zip(mats, got):
        want_vals, want_vt = sequential_eigh_unsorted(M)
        assert _bits(vals) == _bits(want_vals) and _bits(vt) == _bits(want_vt), len(M)
        want_svals, want_vecs = gc.eigh(M)
        assert _bits(svals) == _bits(want_svals) and _bits(vecs) == _bits(want_vecs), len(M)
        assert _bits(plain) == _bits(want_svals), len(M)


def _planted_clusters(seed):
    """A seeded symmetric matrix whose spectrum holds eigenspaces of every
    dimension from 1 to 7, two of some, in an order drawn from the seed."""
    rng = gc.Lcg64(seed)
    sizes = [1, 2, 2, 3, 3, 4, 5, 6, 7, 7, 1]
    for i in range(len(sizes) - 1, 0, -1):  # Fisher-Yates
        j = int(rng.uniform() * (i + 1))
        sizes[i], sizes[j] = sizes[j], sizes[i]
    vals = np.repeat([rng.normal() + 3.0 * t for t in range(len(sizes))], sizes)
    n = len(vals)
    Q = np.array([[rng.normal() for _ in range(n)] for _ in range(n)])
    linalg.orthonormalize(Q[None])
    M = (Q.T * vals) @ Q
    return (M + M.T) / 2


def test_batched_kernels_match_per_cluster_and_per_wave_bit_for_bit():
    """Each wave's two gathers give the rotations' four products bit for
    bit, and canonicalizing all eigenspaces of one dimension in one stack
    gives each eigenspace's own basis bit for bit."""
    mats = list(_reference_matrices())
    for n in (5, 8, 12, 16):
        for g in (complete_graph(n), cycle_graph(n)):
            mats.append(gc.symmetric_matrix(gc.OperatorSpec(g, "none")))
    planted = [_planted_clusters(seed) for seed in (61, 67, 71)]
    dims = set()
    for M in mats + planted:
        d, e, _ = linalg._tridiagonalize(linalg._symmetric_copy(M))
        d, e, rotations = d.tolist(), e.tolist(), []
        linalg._ql(d, e, rotations)
        assert _bits(linalg._rotate(len(d), rotations)) == _bits(per_wave_rotate(len(d), rotations))
        vals, vecs = gc.eigh(M)
        want_vals, want_vecs = per_cluster_eigh(M)
        assert _bits(vals) == _bits(want_vals) and _bits(vecs) == _bits(want_vecs), len(M)
    for M in planted:
        vals = gc.eigvalsh(M)
        cuts = np.flatnonzero(np.diff(vals, prepend=-np.inf, append=np.inf) > 1e-6)
        dims.update(np.diff(cuts).tolist())
    assert dims == set(range(1, 8))


def test_eigh_records_its_rotations_as_doubles():
    # the 10 x 10 grid's QL makes 8,479 rotations; kept as Python objects
    # they took eigh's peak to 2.23 MB, and three doubles each to 1.64 MB
    M = gc.symmetric_matrix(gc.OperatorSpec(grid_graph(10), "none"))
    tracemalloc.start()
    try:
        gc.eigh(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.9 * 2**20, peak


def test_lost_rank_is_a_numerical_error():
    # the second block of the stack has rank 1, so its second pivot search
    # finds nothing; the per-cluster form fails with the same message
    stack = np.array([[[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]], [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]])
    for run in (lambda: linalg._canonical_bases(stack.copy()),
                lambda: per_cluster_canonical_basis(stack[1])):
        with pytest.raises(gc.NumericalError) as err:
            run()
        assert str(err.value) == "eigenspace basis lost rank in echelon reduction"


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


def test_eigenvalue_gap_past_the_float_range_is_a_cut():
    # the gap 1e308 - (-1e308) overflows to inf, still a cluster cut; the
    # subtraction used to print a numpy overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, vecs = gc.eigh(np.diag([1e308, -1e308]))
    assert vals.tolist() == [-1e308, 1e308]
    assert vecs.tolist() == [[0.0, 1.0], [1.0, 0.0]]


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


def test_orthonormalize_matches_lapack_qr():
    rng = gc.Lcg64(47)
    for n, j in ((1, 1), (5, 2), (36, 3), (36, 36)):
        B = np.array([[rng.normal() for _ in range(j)] for _ in range(n)])
        Q = B.T.copy()  # one row per column of B
        norms = linalg.orthonormalize(Q[None])[0]
        Q_ref, R_ref = np.linalg.qr(B)
        assert np.allclose(norms, np.abs(np.diag(R_ref)), rtol=0, atol=1e-12)
        assert np.max(np.abs(Q @ Q.T - np.eye(j))) <= 1e-12
        assert np.max(np.abs(Q.T @ Q - Q_ref @ Q_ref.T)) <= 1e-12  # the same span
    # a row in the span of the rows before it leaves a norm at roundoff,
    # which the Courant-Fischer sampler's 1e-8 rank test skips
    B = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [1.0, 2.0, 3.0], [2.0, 4.0, -1.0]])
    norms = linalg.orthonormalize(B.T.copy()[None])[0]
    assert norms[1] < 1e-8 < min(norms[0], norms[2])
    # rows that are exactly zero stay zero, with no numpy warning
    Z = np.zeros((2, 2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = linalg.orthonormalize(Z)
    assert not Z.any() and not norms.any()


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


def _matmul_sites(path):
    """(function, line) of every @ operator in a module."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


# numpy calls that can hand a product to BLAS
BLAS_CALLS = {"np.dot", "np.matmul", "np.einsum", "np.tensordot", "np.inner", "np.vdot"}
# numpy functions whose SIMD kernels numpy picks by CPU, some of which
# differ from libm in the last bit
CPU_DISPATCHED = {"np.exp", "np.log", "np.arccos", "np.arcsin", "np.arctan", "np.arctan2"}


def test_no_blas_in_linalg_and_no_lapack_solvers_elsewhere():
    # every module: no BLAS call, no np.linalg (linalg.py owns the
    # eigensolve, Cholesky and orthonormalization, and the tests hold
    # LAPACK as an oracle), no np.polyfit, and no numpy kernel picked by
    # CPU, so heat, harmonic and the library's sphere helpers and fit
    # give the same bits on every machine and BLAS thread count
    for path in sorted(SRC.glob("*.py")):
        uses = _numpy_uses(path)
        banned = {n for n in uses if n.startswith("np.linalg")}
        banned |= uses & (BLAS_CALLS | CPU_DISPATCHED | {"np.polyfit"})
        assert not banned, (path.name, sorted(banned))
    # the one dense product builds the heat kernel matrix
    sites = [(path.name, scope) for path in sorted(SRC.glob("*.py")) for scope, _ in _matmul_sites(path)]
    assert sites == [("spectral.py", "HeatKernel.matrix")]


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


def _isolated_raises(path):
    """Lines of every raise whose message says a vertex '... is isolated'."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and any(
            isinstance(c, ast.Constant) and isinstance(c.value, str) and "is isolated" in c.value
            for c in ast.walk(node.exc)
        )
    ]


def test_neighbor_sums_and_isolated_checks_only_in_graph():
    """Every array neighbor sum goes through RegionLayout.sums and every
    isolated-vertex error is raised in graph.py, so the summation order and
    the message are decided in one module."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "graph.py":
            assert "np.bincount" not in _numpy_uses(path), path.name
            assert not _isolated_raises(path), (path.name, _isolated_raises(path))
    assert "np.bincount" in _numpy_uses(SRC / "graph.py")
    assert _isolated_raises(SRC / "graph.py")
