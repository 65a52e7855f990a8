"""Dense symmetric linear algebra without BLAS.

Every dense eigensolve and the implicit-flow linear solve go through this
module.  It uses elementwise numpy products and add reductions only
(the .sum method, which skips np.sum's Python wrapper), never a BLAS call,
so its bits do not depend on the BLAS thread count.

* eigh / eigvalsh: Householder tridiagonalization, Wilkinson-shifted
  implicit QL (Golub & Van Loan, Matrix Computations, 8.3; the tqli
  recurrences of Numerical Recipes) and back-transformation by the stored
  reflectors.  eigh's QL records its Givens rotations and applies them to
  the vectors afterwards in waves (Van Zee, van de Geijn & Quintana-Orti,
  ACM TOMS 40(3), 2014): a wave holds rotations on disjoint row pairs, and
  each row meets its rotations in the order QL made them.  A wave is two
  gathers, x = [lo; hi] * [c; c] plus y = [hi; lo] * [-s; s], and one
  scatter of x + y; c lo + (-s) hi is c lo - s hi and the sum commutes,
  so every entry is what applying the rotations one at a time gives, bit
  for bit.  eigvalsh runs the same QL without recording, so its values
  equal eigh's bit for bit.
* canonical eigenvectors: eigenvalues within CLUSTER_TOL (relative) of
  their sorted neighbour form one eigenspace, whose basis is brought to
  reduced column-echelon form (pivot rows in row order), orthonormalized in
  pivot order and signed so each pivot is positive.  All eigenspaces of one
  dimension k go through these steps together, as one (eigenspaces, k, n)
  stack whose reductions run over the same axes as for a single basis, so
  each basis is the one it would be alone.  A simple eigenvector has its
  first entry above SIGN_TOL of its peak positive.  The basis then depends
  on the eigenspace, not on the solver.
* orthonormalize: Gram-Schmidt with every projection taken twice, which
  is orthogonal to working precision (Giraud, Langou & Rozloznik, Comput.
  Math. Appl. 50, 2005), on a stack of row blocks.  It is the package's one
  orthonormalization: the canonical eigenvectors, the Courant-Fischer
  subspaces and harmonic.random_rotation all call it.
* cholesky / cholesky_solve: the symmetric positive-definite solve.
"""

import math
from array import array

import numpy as np

from .errors import NumericalError, require_finite

EPS = 2.0**-52
MAX_QL_ITERATIONS = 30  # per eigenvalue
CLUSTER_TOL = 1e-9
PIVOT_TOL = 1e-6
SIGN_TOL = 1e-12


def _symmetric_copy(matrix) -> np.ndarray:
    A = np.array(matrix, dtype=float)
    n = A.shape[0] if A.ndim else 0
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    if n > 0 and float(np.max(np.abs(A - A.T))) > 1e-12 * max(1.0, float(np.max(np.abs(A)))):
        raise ValueError("matrix must be symmetric")
    if not np.all(np.isfinite(A)):
        raise NumericalError("matrix has non-finite entries")
    return A


def _tridiagonalize(A: np.ndarray):
    """Householder reduction of A in place: (diagonal, subdiagonal, reflectors).

    Reflector k is (beta, v) with H = I - beta v v^T acting on coordinates
    k+1..n-1, and H_{n-3} ... H_0 A H_0 ... H_{n-3} is tridiagonal.
    """
    n = A.shape[0]
    e = np.zeros(n)
    reflectors = []
    for k in range(n - 2):
        x = A[k, k + 1 :].copy()  # row k equals column k below the diagonal
        x0 = float(x[0])
        sigma = float((x[1:] * x[1:]).sum())
        if sigma == 0.0:  # the column is already reduced
            e[k] = x0
            continue
        mu = math.sqrt(x0 * x0 + sigma)
        v0 = x0 - mu if x0 <= 0.0 else -sigma / (x0 + mu)
        beta = 2.0 * v0 * v0 / (sigma + v0 * v0)
        v = x / v0
        v[0] = 1.0
        block = A[k + 1 :, k + 1 :]
        p = beta * (block * v).sum(axis=1)
        w = p - (0.5 * beta * float((p * v).sum())) * v
        block -= v[:, None] * w[None, :] + w[:, None] * v[None, :]
        e[k] = mu
        reflectors.append((k, beta, v))
    if n >= 2:
        e[n - 2] = A[n - 2, n - 1]
    return np.diag(A).copy(), e, reflectors


def _ql(d: list, e: list, rotations) -> None:
    """Implicit QL with Wilkinson shifts on the tridiagonal (d, e), in place.

    e[i] couples d[i] and d[i+1]; e[n-1] is 0.  On return d holds the
    eigenvalues.  When rotations is given, an array("d") or a list, each
    Givens rotation extends it by i, c, s in the order made; _rotate applies
    them.
    """
    n = len(d)
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > EPS * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if iterations == MAX_QL_ITERATIONS:
                raise NumericalError(
                    f"QL iteration did not converge for eigenvalue {l + 1} "
                    f"after {MAX_QL_ITERATIONS} iterations"
                )
            iterations += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            i = m - 1
            while i >= l:
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # underflow: the matrix splits at i + 1
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if rotations is not None:
                    rotations.extend((i, c, s))
                i -= 1
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0


def _rotate(n: int, rotations) -> np.ndarray:
    """The identity of order n with each rotation that _ql recorded, flat as
    i, c, s, applied to its rows i and i+1: lo = c lo - s hi and
    hi = c hi + s lo.

    A rotation's wave is one more than the last wave that touched either of
    its rows.  So the rotations of one wave touch disjoint row pairs, each
    row meets its rotations in recorded order, and one gathered update
    applies a whole wave: its rows (lo rows, then hi rows) times P = [c; c]
    plus its swapped rows (hi, then lo) times Q = [-s; s].
    """
    table = np.asarray(rotations, dtype=float).reshape(-1, 3)
    lo = table[:, 0].astype(np.intp)
    c, s = table[:, 1], table[:, 2]
    last = [0] * n
    waves = []
    for i in lo.tolist():
        w, u = last[i], last[i + 1]
        w = 1 + (w if w > u else u)  # a max() call would double the loop's time
        last[i] = last[i + 1] = w
        waves.append(w)
    waves = np.array(waves, dtype=np.intp)
    key = np.concatenate([2 * waves, 2 * waves + 1])
    order = np.argsort(key, kind="stable")
    rows = np.concatenate([lo, lo + 1])[order]
    swap = np.concatenate([lo + 1, lo])[order]
    P = np.concatenate([c, c])[order][:, None]
    Q = np.concatenate([-s, s])[order][:, None]
    cuts = np.flatnonzero(np.diff(key[order] // 2, prepend=0, append=0)).tolist()
    vt = np.eye(n)
    for a, b in zip(cuts, cuts[1:]):
        wave = rows[a:b]
        x = vt[wave]
        x *= P[a:b]
        y = vt[swap[a:b]]
        y *= Q[a:b]
        x += y
        vt[wave] = x
    return vt


def eigh_unsorted(matrix, vectors: bool = True):
    """Eigenvalues of a symmetric matrix in QL order, and the eigenvectors
    as the rows of an array (None when vectors is False).  A tridiagonal
    form outside the float range is a NumericalError."""
    A = _symmetric_copy(matrix)
    # a square past the float range makes mu infinite and v0 zero
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported below
        d, e, reflectors = _tridiagonalize(A)
    require_finite((d, e), "eigensolve", "the tridiagonal form")
    d, e = d.tolist(), e.tolist()
    if not vectors:
        _ql(d, e, None)
        return np.array(d), None
    rotations = array("d")  # three doubles a rotation, not three Python objects
    _ql(d, e, rotations)
    vt = _rotate(len(d), rotations)
    for k, beta, v in reversed(reflectors):
        tail = vt[:, k + 1 :]
        tail -= (beta * (tail * v).sum(axis=1))[:, None] * v[None, :]
    return np.array(d), vt


def eigvalsh(matrix) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix; equal to eigh(matrix)[0]."""
    vals, _ = eigh_unsorted(matrix, vectors=False)
    return np.sort(vals, kind="stable")


def eigh(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and canonical orthonormal eigenvectors (columns)."""
    vals, vt = eigh_unsorted(matrix)
    order = np.argsort(vals, kind="stable")
    vals, vt = vals[order], vt[order]
    n = len(vals)
    if n:
        mags = np.abs(vt)
        first = np.argmax(mags > SIGN_TOL * mags.max(axis=1, keepdims=True), axis=1)
        vt *= np.where(vt[np.arange(n), first] < 0.0, -1.0, 1.0)[:, None]
        tol = CLUSTER_TOL * max(1.0, float(np.max(np.abs(vals))))
        with np.errstate(over="ignore"):  # a gap past the float range is inf, still a cut
            cuts = np.flatnonzero(np.diff(vals, prepend=-np.inf, append=np.inf) > tol)
        starts, sizes = cuts[:-1], np.diff(cuts)
        for k in set(sizes.tolist()) - {1}:  # np.unique would add 1.4 MB to a process's peak
            rows = starts[sizes == k][:, None] + np.arange(k)
            vt[rows] = _canonical_bases(vt[rows])
    return vals, np.ascontiguousarray(vt.T)


def _canonical_bases(B: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the row spaces of a stack B of k-row blocks, in
    place: reduced row-echelon form with pivot columns in order, then
    orthonormalize in pivot order, block by block.  Each echelon row is 1 at
    its pivot and 0 at the others, so every pivot of the result comes out
    positive."""
    m, k, n = B.shape
    blocks = np.arange(m)
    col = np.zeros((m, 1), np.intp)
    for j in range(k):
        hits = (np.abs(B[:, j:]).max(axis=1) > PIVOT_TOL) & (np.arange(n) >= col)
        if not hits.any(axis=1).all():
            raise NumericalError("eigenspace basis lost rank in echelon reduction")
        c = hits.argmax(axis=1)
        i = j + np.abs(B[blocks, j:, c]).argmax(axis=1)
        pivot = B[blocks, i]
        B[blocks, i] = B[:, j]
        pivot /= pivot[blocks, c][:, None]
        B -= B[blocks, :, c][:, :, None] * pivot[:, None]
        B[:, j] = pivot
        col = c[:, None] + 1
    orthonormalize(B)
    return B


def orthonormalize(B: np.ndarray) -> np.ndarray:
    """Gram-Schmidt in place on the rows of each block of a stack B, each
    projection taken twice to restore the orthogonality lost to rounding.
    Returns each row's norm before scaling (a QR's |R[c, c]|); a row that
    comes out exactly zero stays zero."""
    norms = np.empty(B.shape[:2])
    for j in range(B.shape[1]):
        v, Q = B[:, j], B[:, :j]
        for _ in range(2):
            v = v - (Q * (Q * v[:, None]).sum(axis=2)[:, :, None]).sum(axis=1)
        norms[:, j] = np.sqrt((v * v).sum(axis=1))
        B[:, j] = v / np.where(norms[:, j] > 0.0, norms[:, j], 1.0)[:, None]
    return norms


def cholesky(matrix) -> np.ndarray:
    """Lower-triangular L with L L^T = matrix, from the lower triangle.

    A pivot that is not positive means the matrix is not positive definite
    and raises NumericalError.
    """
    A = np.asarray(matrix, dtype=float)
    n = A.shape[0]
    L = np.zeros((n, n))
    for j in range(n):
        col = A[j:, j] - (L[j:, :j] * L[j, :j]).sum(axis=1)
        pivot = float(col[0])
        if not pivot > 0.0:
            raise NumericalError(f"matrix is not positive definite: pivot {j + 1} is {pivot}")
        L[j:, j] = col / math.sqrt(pivot)
    return L


def cholesky_solve(L: np.ndarray, b) -> np.ndarray:
    """x with L L^T x = b, by forward then back substitution."""
    n = L.shape[0]
    y = np.array(b, dtype=float)
    for i in range(n):
        y[i] = (y[i] - float((L[i, :i] * y[:i]).sum())) / L[i, i]
    for i in range(n - 1, -1, -1):
        y[i] = (y[i] - float((L[i + 1 :, i] * y[i + 1 :]).sum())) / L[i, i]
    return y
