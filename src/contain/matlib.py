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
    """Linear system has no reliable solution (its backward error is too large)."""


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

    solve: backward-error bound of every linear solve and relative skew bound of
           sym_eigs; Riccati and rank tolerance.
    eig:   positive-definiteness floor of spd_eigs, its one reader.
    """

    solve: float = 1e-9
    eig: float = 1e-10


TOL = Tolerances()


def apply_tolerance_overrides(text: str) -> None:
    """Set TOL to the default tolerances with the fields a spec string names
    overridden, whatever earlier calls set.

    The spec is empty (the defaults), a single float (sets `solve`) or a
    comma list of name=value pairs, e.g. "solve=1e-8,eig=1e-11". The
    whole spec is checked before any field changes: an unknown name, or a
    value that is not a finite number >= 0, raises BadTolerance and leaves TOL
    as it was.
    """
    text = text.strip()
    if not text:
        pairs = []
    elif "=" not in text:
        pairs = [("solve", text)]
    else:
        pairs = [item.partition("=")[::2] for item in text.split(",")]
    values = {}
    for name, raw in pairs:
        name = name.strip()
        if name not in ("solve", "eig"):
            raise BadTolerance(f"unknown tolerance field {name!r}")
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not 0.0 <= value < math.inf:
            raise BadTolerance(f"{name} must be a finite number >= 0, got {raw.strip()!r}")
        values[name] = value
    vars(TOL).update(vars(Tolerances(**values)))


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


def as_square(a, name: str) -> np.ndarray:
    """Coerce to a finite square 2-D float64 array, raising ValueError otherwise."""
    arr = as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got {arr.shape}")
    return arr


def frobenius(a) -> float:
    """||a||_F as sqrt(sum(a * a)) whenever that sum is finite.

    The tolerances and the Riccati shift that read it keep those bits. Only a
    sum that overflows (entries above about 1e154) falls back to the
    max-scaled form, which is inf only when ||a||_F itself overflows.

    No overflow warns: the plain sum runs inside np.errstate(over="ignore"),
    entered as a with-block, which costs well under a microsecond a call where
    the decorator form cost about 4.5 us.
    """
    arr = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        # np.sum's own kernel, without its Python-level dispatch
        total = float(np.add.reduce(arr * arr, axis=None))
    if math.isfinite(total):
        return math.sqrt(total)
    scale = float(np.max(np.abs(arr)))
    if not math.isfinite(scale):
        return scale  # a holds inf (or nan, which max passes on)
    scaled = arr / scale
    return scale * math.sqrt(float(np.sum(scaled * scaled)))


def sym_eigs(s, name: str = "s") -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix.

    Raises NotSymmetric, naming s by name, when s's skew max |s - s.T| exceeds
    TOL.solve ||s||_F, the relative form every linear solve is judged by. An
    exactly symmetric s, found by a boolean comparison with s.T, goes to
    eigvalsh as it is. Only a skewed s pays for the float scratch matrix of
    the skew and for the norm, and only a skewed s is symmetrized, as 0.5 s
    (formed in that scratch matrix) plus its transpose: the bits of
    0.5 (s + s.T) above the subnormal range, without its overflow.
    """
    arr = as_square(s, name)
    # finite entries differ exactly when their difference is nonzero
    if not np.array_equal(arr, arr.T):
        work = np.subtract(arr, arr.T)
        skew = float(np.max(np.abs(work, out=work)))
        norm = frobenius(arr)
        if skew > TOL.solve * norm:
            raise NotSymmetric(f"{name} is not symmetric: its skew max|s - s'| {skew:.3e} exceeds "
                               f"the solve tolerance {TOL.solve:.1e} times |s|_F ({norm:.3e})")
        half = np.multiply(arr, 0.5, out=work)
        arr = half + half.T
    return np.linalg.eigvalsh(arr)


def spd_eigs(s, name: str) -> np.ndarray:
    """Ascending eigenvalues of a symmetric positive definite matrix: sym_eigs's,
    or Singular naming s unless lambda_min > TOL.eig (a nan lambda_min fails)."""
    values = sym_eigs(s, name)
    if not values[0] > TOL.eig:
        raise Singular(f"{name} must be positive definite: lambda_min {values[0]:.3e} is not "
                       f"above the eig tolerance {TOL.eig:.1e}")
    return values


def check_solve(a, x, rhs) -> None:
    """The one rule that trusts a linear solve: Singular unless x's normwise backward
    error ||a x - rhs||_F / (||a||_F ||x||_F + ||rhs||_F) is within TOL.solve (Higham,
    Accuracy and Stability, 7.1). A nan residual or an overflowing ||x||_F fails."""
    residual = frobenius(a @ x - rhs)
    scale = frobenius(a) * frobenius(x) + frobenius(rhs)
    if not residual <= TOL.solve * scale < math.inf:
        raise Singular(f"linear-solve residual {residual:.3e} exceeds the solve tolerance "
                       f"{TOL.solve:.1e} times |matrix|_F |solution|_F + |right-hand side|_F "
                       f"({scale:.3e})")


@np.errstate(all="ignore")
def solve_linear(a, rhs) -> np.ndarray:
    """Solve a @ x = rhs by Gaussian elimination with partial pivoting.

    rhs may have multiple columns. Raises Singular when x fails check_solve (an
    exactly zero pivot does), NonFinite when x overflows past nonzero pivots.
    """
    a = as_square(a, "a")
    rhs = as_matrix(rhs, "rhs")
    n = a.shape[0]
    if rhs.shape[0] != n:
        raise ValueError(f"rhs has {rhs.shape[0]} rows, expected {n}")
    aug = np.concatenate([a, rhs], axis=1).astype(float)
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        factors = aug[col + 1:, col] / aug[col, col]
        aug[col + 1:, col:] -= np.outer(factors, aug[col, col:])
    x = np.zeros((n, rhs.shape[1]))
    for i in range(n - 1, -1, -1):
        x[i] = (aug[i, n:] - aug[i, i + 1:n] @ x[i + 1:]) / aug[i, i]
    if not np.isfinite(x).all() and np.diagonal(aug).all():
        raise NonFinite("the solution overflows")
    check_solve(a, x, rhs)
    return x


def lyap_solve(f, q) -> np.ndarray:
    """Solve f @ X + X @ f.T + q = 0 for q that the caller keeps symmetric.

    Vectorizes to (I (x) f + f (x) I) vec(X) = -vec(q) in row-major layout and
    runs it through solve_linear, whose check_solve covers this equation (the
    symmetrized X has no larger residual). Raises Singular when that check
    fails, as when f and -f share an eigenvalue.
    """
    f = as_square(f, "f")
    q = as_square(q, "q")
    n = f.shape[0]
    if q.shape[0] != n:
        raise ValueError(f"q is {q.shape}, expected {(n, n)}")
    eye = np.eye(n)
    op = np.kron(eye, f) + np.kron(f, eye)
    try:
        x = solve_linear(op, (-q).reshape(n * n, 1)).reshape(n, n)
    except Singular as exc:
        raise Singular(f"Lyapunov solve fails the residual check: {exc}") from exc
    return 0.5 * (x + x.T)


def is_hurwitz(f) -> bool:
    """Every eigenvalue of f has a negative real part. The margin is 0: eigvals is
    backward stable, and callers only tell a stabilizing Riccati solution from
    a non-stabilizing one, so the test reads no tolerance and holds at any scale."""
    return bool(np.max(np.linalg.eigvals(as_square(f, "f")).real) < 0.0)


def controllability_matrix(a, b) -> np.ndarray:
    a = as_square(a, "a")
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


@np.errstate(all="ignore")
def care_solve(a, b, q, return_residuals: bool = False):
    """Stabilizing solution X of a.T X + X a - X b b.T X + q = 0.

    q must be symmetric positive definite and (a, b) controllable. The iteration
    is Newton-Kleinman seeded with the Bass stabilizing gain:

        beta = 1 + ||a||_F
        (a + beta I) Z + Z (a + beta I).T = 2 b b.T   ->   K0 = b.T Z^-1

    then K_{j+1} = b.T X_j where X_j solves the closed-loop Lyapunov equation
    (a - b K_j).T X + X (a - b K_j) = -(q + K_j.T K_j). Stops when the Riccati residual
    drops to TOL.solve * (1 + ||q||_F); raises NoConvergence after 100 iterations, and
    NonFinite naming what overflowed. Returns X only if a - b b.T X is Hurwitz, so that
    X > 0 by the Riccati equation; raises Singular otherwise, or if spd_eigs rejects q.

    With return_residuals=True, returns (X, residual_history).
    """
    a = as_square(a, "a")
    b = as_matrix(b, "b")
    q = as_square(q, "q")
    n = a.shape[0]
    if q.shape[0] != n:
        raise ValueError(f"q is {q.shape}, expected {(n, n)}")
    spd_eigs(q, "q")
    if not is_controllable(a, b):
        raise NotControllable("(a, b) fails the controllability rank test")

    bbt = as_matrix(b @ b.T, "B B' overflows: the Riccati input matrix")

    def newton_step(k):  # X of gain k, and X's Riccati residual
        closed = as_matrix(a - b @ k, "the Riccati iteration overflows: its closed loop A - B B' X")
        weight = as_matrix(q + k.T @ k, "the Riccati iteration overflows: its weight Q + X B B' X")
        try:
            x = lyap_solve(closed.T, weight)
        except NonFinite:
            raise NonFinite("the Riccati iteration overflows: its next X is not finite") from None
        return x, frobenius(a.T @ x + x @ a - x @ (b @ (b.T @ x)) + q)

    beta = 1.0 + frobenius(a)
    try:
        z = lyap_solve(a + beta * np.eye(n), -2.0 * bbt)
    except NonFinite:
        raise NonFinite("the Bass seed overflows: its Lyapunov operator of A + beta I "
                        "is not finite") from None
    k = solve_linear(z, b).T  # b.T Z^-1, Z symmetric
    bound = TOL.solve * (1.0 + frobenius(q))
    residuals: list[float] = []
    for _ in range(100):
        x, residual = newton_step(k)
        residuals.append(residual)
        k = b.T @ x
        if residual <= bound:
            # one polishing step; quadratic convergence puts the final
            # residual far below the stopping bound
            xp, rp = newton_step(k)
            if rp < residual:
                x = xp
                residuals.append(rp)
            if not is_hurwitz(a - b @ (b.T @ x)):
                raise Singular("Riccati solution is not stabilizing: a - b b' X is not Hurwitz")
            return (x, residuals) if return_residuals else x
    raise NoConvergence(
        f"Riccati iteration stalled: residual {residuals[-1]:.3e} after "
        f"{len(residuals)} iterations (tolerance {bound:.3e})"
    )
