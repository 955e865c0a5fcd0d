"""Dense linear-algebra kernels used by the synthesis and simulation layers.

Everything here works on float64 numpy arrays. The solvers are written against
explicit residual tolerances (see `Tolerances`) so that downstream certificates
can state exactly what was checked. numpy is used for storage, matmul and the
symmetric eigendecomposition; the structured solvers (linear systems, Lyapunov,
Riccati) are implemented here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NotSymmetric(ValueError):
    """Matrix expected symmetric differs from its transpose beyond tolerance."""


class Singular(ValueError):
    """Linear system has no reliable solution (pivot collapsed or residual blew up)."""


class NotControllable(ValueError):
    """(a, b) fails the controllability rank test."""


class NoConvergence(RuntimeError):
    """Iteration hit its cap before meeting the residual tolerance."""


class NonFinite(ValueError):
    """A matrix or design quantity holds inf or nan, as an overflow leaves it."""


class BadTolerance(ValueError):
    """A tolerance spec (CONTAIN_TOL) names an unknown field or a bad value."""


@dataclass
class Tolerances:
    """Numeric thresholds shared by every kernel in this module.

    solve: relative residual bound for linear/Lyapunov/Riccati solves.
    eig:   positive-definiteness floor for eigenvalue sign tests.
    pivot: relative pivot floor below which elimination declares Singular.
    sym:   max absolute entry of s - s.T tolerated by symmetric routines.
    """

    solve: float = 1e-9
    eig: float = 1e-10
    pivot: float = 1e-12
    sym: float = 1e-9


TOL = Tolerances()


def apply_tolerance_overrides(text: str) -> None:
    """Override fields of TOL from a spec string.

    Accepts either a single float (sets `solve` and `sym`) or a comma list of
    name=value pairs, e.g. "solve=1e-8,pivot=1e-11". The whole spec is checked
    before any field changes: an unknown name, or a value that is not a finite
    number >= 0, raises BadTolerance and leaves TOL as it was.
    """
    text = text.strip()
    if not text:
        return
    if "=" not in text:
        pairs = [("solve", text), ("sym", text)]
    else:
        pairs = [item.partition("=")[::2] for item in text.split(",")]
    values = {}
    for name, raw in pairs:
        name = name.strip()
        if name not in ("solve", "eig", "pivot", "sym"):
            raise BadTolerance(f"unknown tolerance field {name!r}")
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not 0.0 <= value < math.inf:
            raise BadTolerance(f"{name} must be a finite number >= 0, got {raw.strip()!r}")
        values[name] = value
    for name, value in values.items():
        setattr(TOL, name, value)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array, raising ValueError otherwise."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.isfinite(arr).all():
        raise NonFinite(f"{name} contains non-finite entries")
    return arr


def _square(a, name: str) -> np.ndarray:
    arr = as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got {arr.shape}")
    return arr


@np.errstate(over="ignore")
def frobenius(a) -> float:
    """||a||_F as sqrt(sum(a * a)) whenever that sum is finite.

    The tolerances and the Riccati shift that read it keep those bits. Only a
    sum that overflows (entries above about 1e154) falls back to the
    max-scaled form, which is inf only when ||a||_F itself overflows.
    """
    arr = np.asarray(a, dtype=float)
    total = float(np.sum(arr * arr))
    if math.isfinite(total):
        return math.sqrt(total)
    scale = float(np.max(np.abs(arr)))
    if not math.isfinite(scale):
        return scale  # a holds inf (or nan, which max passes on)
    scaled = arr / scale
    return scale * math.sqrt(float(np.sum(scaled * scaled)))


def sym_eigs(s) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix.

    Raises NotSymmetric when s differs from its transpose by more than TOL.sym.
    Uses eigh rather than eigvalsh: the two differ in the last bit on some
    inputs (lambda_min(L1) of the default graph), and that value feeds the
    closed-loop dynamics. The skew check and eigh's input 0.5 (s + s.T) share
    one scratch matrix.
    """
    arr = _square(s, "s")
    work = np.subtract(arr, arr.T)
    skew = float(np.max(np.abs(work, out=work)))
    if skew > TOL.sym:
        raise NotSymmetric(f"matrix is not symmetric: max |s - s.T| = {skew:.3e}")
    np.add(arr, arr.T, out=work)
    work *= 0.5
    return np.linalg.eigh(work)[0]


def solve_linear(a, rhs) -> np.ndarray:
    """Solve a @ x = rhs by Gaussian elimination with partial pivoting.

    rhs may have multiple columns. Raises Singular when the pivot magnitude
    falls to TOL.pivot * ||a||_F or below.
    """
    a = _square(a, "a")
    rhs = as_matrix(rhs, "rhs")
    n = a.shape[0]
    if rhs.shape[0] != n:
        raise ValueError(f"rhs has {rhs.shape[0]} rows, expected {n}")
    scale = frobenius(a)
    aug = np.concatenate([a, rhs], axis=1).astype(float)
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        pivot = aug[pivot_row, col]
        if abs(pivot) <= TOL.pivot * scale:
            raise Singular(
                f"pivot {abs(pivot):.3e} at column {col} below floor "
                f"{TOL.pivot * scale:.3e}"
            )
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        factors = aug[col + 1:, col] / aug[col, col]
        aug[col + 1:, col:] -= np.outer(factors, aug[col, col:])
    x = np.zeros((n, rhs.shape[1]))
    for i in range(n - 1, -1, -1):
        x[i] = (aug[i, n:] - aug[i, i + 1:n] @ x[i + 1:]) / aug[i, i]
    return x


def lyap_solve(f, q) -> np.ndarray:
    """Solve f @ X + X @ f.T + q = 0 for symmetric q.

    Vectorizes to (I (x) f + f (x) I) vec(X) = -vec(q) in row-major layout and
    runs it through solve_linear. Raises Singular when f and -f share an
    eigenvalue (the vectorized operator degenerates) or the residual check
    fails.
    """
    f = _square(f, "f")
    q = _square(q, "q")
    n = f.shape[0]
    if q.shape[0] != n:
        raise ValueError(f"q is {q.shape}, expected {(n, n)}")
    skew = float(np.max(np.abs(q - q.T)))
    if skew > TOL.sym:
        raise NotSymmetric(f"q is not symmetric: max |q - q.T| = {skew:.3e}")
    eye = np.eye(n)
    op = np.kron(eye, f) + np.kron(f, eye)
    try:
        vec = solve_linear(op, (-q).reshape(n * n, 1))
    except Singular as exc:
        raise Singular(
            "Lyapunov operator is singular (f and -f share an eigenvalue): "
            f"{exc}"
        ) from exc
    x = vec.reshape(n, n)
    x = 0.5 * (x + x.T)
    residual = frobenius(f @ x + x @ f.T + q)
    if residual > TOL.solve * (1.0 + frobenius(q)):
        raise Singular(
            f"Lyapunov residual {residual:.3e} exceeds tolerance; "
            "operator is effectively singular"
        )
    return x


def is_hurwitz(f) -> bool:
    """Lyapunov stability test: f is Hurwitz iff f.T W + W f = -I has W > 0."""
    f = _square(f, "f")
    n = f.shape[0]
    try:
        w = lyap_solve(f.T, np.eye(n))
    except Singular:
        return False
    return float(sym_eigs(w)[0]) > TOL.eig


def controllability_matrix(a, b) -> np.ndarray:
    a = _square(a, "a")
    b = as_matrix(b, "b")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"b has {b.shape[0]} rows, expected {a.shape[0]}")
    blocks = [b]
    cur = b
    for _ in range(a.shape[0] - 1):
        cur = a @ cur
        blocks.append(cur)
    return np.concatenate(blocks, axis=1)


def is_controllable(a, b) -> bool:
    """Kalman rank test: the controllability matrix has full row rank.

    Singular values at or below TOL.solve * ||ctrb||_F count as zero.
    """
    ctrb = controllability_matrix(a, b)
    return np.linalg.matrix_rank(ctrb, tol=TOL.solve * frobenius(ctrb)) == ctrb.shape[0]


def care_solve(a, b, q, return_residuals: bool = False):
    """Stabilizing solution X of a.T X + X a - X b b.T X + q = 0.

    q must be symmetric positive definite and (a, b) controllable. The iteration
    is Newton-Kleinman seeded with the Bass stabilizing gain:

        beta = 1 + ||a||_F
        (a + beta I) Z + Z (a + beta I).T = 2 b b.T   ->   K0 = b.T Z^-1

    then K_{j+1} = b.T X_j where X_j solves the closed-loop Lyapunov equation
    (a - b K_j).T X + X (a - b K_j) = -(q + K_j.T K_j). Stops when the Riccati
    residual drops to TOL.solve * (1 + ||q||_F); raises NoConvergence after
    100 iterations.

    With return_residuals=True, returns (X, residual_history).
    """
    a = _square(a, "a")
    b = as_matrix(b, "b")
    q = _square(q, "q")
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"b has {b.shape[0]} rows, expected {n}")
    if q.shape[0] != n:
        raise ValueError(f"q is {q.shape}, expected {(n, n)}")
    skew = float(np.max(np.abs(q - q.T)))
    if skew > TOL.sym:
        raise NotSymmetric(f"q is not symmetric: max |q - q.T| = {skew:.3e}")
    if float(sym_eigs(q)[0]) <= TOL.eig:
        raise ValueError("q must be positive definite")
    if not is_controllable(a, b):
        raise NotControllable("(a, b) fails the controllability rank test")

    with np.errstate(over="ignore"):
        bbt = b @ b.T
    if not np.isfinite(bbt).all():
        raise NonFinite(
            "B B' overflows: the Riccati input matrix B (C' for the observer) is too large"
        )
    beta = 1.0 + frobenius(a)
    z = lyap_solve(a + beta * np.eye(n), -2.0 * bbt)
    k = solve_linear(z, b).T  # b.T Z^-1, Z symmetric
    bound = TOL.solve * (1.0 + frobenius(q))
    residuals: list[float] = []
    for _ in range(100):
        acl = a - b @ k
        x = lyap_solve(acl.T, q + k.T @ k)
        residual = frobenius(a.T @ x + x @ a - x @ (b @ (b.T @ x)) + q)
        residuals.append(residual)
        if residual <= bound:
            # one polishing step; quadratic convergence puts the final
            # residual far below the stopping bound
            k = b.T @ x
            xp = lyap_solve((a - b @ k).T, q + k.T @ k)
            rp = frobenius(a.T @ xp + xp @ a - xp @ (b @ (b.T @ xp)) + q)
            if rp < residual:
                x = xp
                residuals.append(rp)
            x = 0.5 * (x + x.T)
            return (x, residuals) if return_residuals else x
        k = b.T @ x
    raise NoConvergence(
        f"Riccati iteration stalled: residual {residuals[-1]:.3e} after "
        f"{len(residuals)} iterations (tolerance {bound:.3e})"
    )
