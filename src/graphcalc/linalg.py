"""Dense symmetric linear algebra without BLAS.

Every dense eigensolve and the implicit-flow linear solve go through this
module.  It uses elementwise numpy products and np.sum reductions only,
never a BLAS call, so its bits do not depend on the BLAS thread count.

* eigh / eigvalsh: Householder tridiagonalization, Wilkinson-shifted
  implicit QL (Golub & Van Loan, Matrix Computations, 8.3; the tqli
  recurrences of Numerical Recipes) and back-transformation by the stored
  reflectors.  eigvalsh runs the same QL without accumulating vectors, so
  its values equal eigh's bit for bit.
* canonical eigenvectors: eigenvalues within CLUSTER_TOL (relative) of
  their sorted neighbour form one eigenspace, whose basis is brought to
  reduced column-echelon form (pivot rows in row order), orthonormalized in
  pivot order and signed so each pivot is positive.  A simple eigenvector
  has its first entry above SIGN_TOL of its peak positive.  The basis then
  depends on the eigenspace, not on the solver.
* cholesky / cholesky_solve: the symmetric positive-definite solve.
"""

import math

import numpy as np

from .errors import NumericalError

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
        sigma = float(np.sum(x[1:] * x[1:]))
        if sigma == 0.0:  # the column is already reduced
            e[k] = x0
            continue
        mu = math.sqrt(x0 * x0 + sigma)
        v0 = x0 - mu if x0 <= 0.0 else -sigma / (x0 + mu)
        beta = 2.0 * v0 * v0 / (sigma + v0 * v0)
        v = x / v0
        v[0] = 1.0
        block = A[k + 1 :, k + 1 :]
        p = beta * np.sum(block * v, axis=1)
        w = p - (0.5 * beta * float(np.sum(p * v))) * v
        block -= v[:, None] * w[None, :] + w[:, None] * v[None, :]
        e[k] = mu
        reflectors.append((k, beta, v))
    if n >= 2:
        e[n - 2] = A[n - 2, n - 1]
    return np.diag(A).copy(), e, reflectors


def _ql(d: list, e: list, vt) -> None:
    """Implicit QL with Wilkinson shifts on the tridiagonal (d, e), in place.

    e[i] couples d[i] and d[i+1]; e[n-1] is 0.  On return d holds the
    eigenvalues.  When vt is given, each rotation is applied to its rows
    i, i+1, so its row k becomes the k-th eigenvector of the tridiagonal
    when vt starts as the identity.
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
                if vt is not None:
                    lo, hi = vt[i], vt[i + 1]
                    new_hi = s * lo + c * hi
                    lo *= c
                    lo -= s * hi
                    hi[:] = new_hi
                i -= 1
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0


def eigh_unsorted(matrix, vectors: bool = True):
    """Eigenvalues of a symmetric matrix in QL order, and the eigenvectors
    as the rows of an array (None when vectors is False)."""
    A = _symmetric_copy(matrix)
    n = A.shape[0]
    d, e, reflectors = _tridiagonalize(A)
    d, e = d.tolist(), e.tolist()
    vt = np.eye(n) if vectors else None
    _ql(d, e, vt)
    if vectors:
        for k, beta, v in reversed(reflectors):
            tail = vt[:, k + 1 :]
            tail -= (beta * np.sum(tail * v, axis=1))[:, None] * v[None, :]
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
        cuts = [0, *(np.flatnonzero(np.diff(vals) > tol) + 1).tolist(), n]
        for a, b in zip(cuts, cuts[1:]):
            if b - a > 1:
                vt[a:b] = _canonical_basis(vt[a:b])
    return vals, np.ascontiguousarray(vt.T)


def _canonical_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the row space: reduced row-echelon form with
    pivot columns in order, then Gram-Schmidt in pivot order.  Each echelon
    row is 1 at its pivot and 0 at the others, so every pivot of the result
    comes out positive."""
    B = rows.copy()
    k = len(B)
    col = 0
    for j in range(k):
        hits = np.flatnonzero(np.max(np.abs(B[j:, col:]), axis=0) > PIVOT_TOL)
        if hits.size == 0:
            raise NumericalError("eigenspace basis lost rank in echelon reduction")
        c = col + int(hits[0])
        i = j + int(np.argmax(np.abs(B[j:, c])))
        B[[j, i]] = B[[i, j]]
        B[j] /= B[j, c]
        others = np.arange(k) != j
        B[others] -= B[others, c : c + 1] * B[j]
        col = c + 1
    Q = np.empty_like(B)
    for j in range(k):
        v = B[j]
        for _ in range(2):  # a second pass restores orthogonality lost to rounding
            v = v - np.sum(Q[:j] * np.sum(Q[:j] * v, axis=1)[:, None], axis=0)
        Q[j] = v / math.sqrt(float(np.sum(v * v)))
    return Q


def cholesky(matrix) -> np.ndarray:
    """Lower-triangular L with L L^T = matrix, from the lower triangle.

    A pivot that is not positive means the matrix is not positive definite
    and raises NumericalError.
    """
    A = np.asarray(matrix, dtype=float)
    n = A.shape[0]
    L = np.zeros((n, n))
    for j in range(n):
        col = A[j:, j] - np.sum(L[j:, :j] * L[j, :j], axis=1)
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
        y[i] = (y[i] - float(np.sum(L[i, :i] * y[:i]))) / L[i, i]
    for i in range(n - 1, -1, -1):
        y[i] = (y[i] - float(np.sum(L[i + 1 :, i] * y[i + 1 :]))) / L[i, i]
    return y
