"""Independent brute-force solvers used to validate every closed-form path.

Nothing here calls the spectral modules; the only shared code is numpy.  The
matrix exponential is scipy's scaling-and-squaring Pade implementation, the
Lyapunov solve is dense elimination on the Kronecker operator, and the
differential equation is integrated with classical RK4.

vec convention: column stacking, vec(P) = P.reshape(-1, order='F').  Then
vec(A X B) = (B^T kron A) vec(X), so A P -> (I kron A) and P A^T -> (A kron I).
Worked 2x2 identity: A = [[a, b], [c, d]], P = [[p, q], [q, r]],
vec(P) = (p, q, q, r); the first row of (I kron A) vec(P) is a p + b q, which
is indeed (A P)[0, 0].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolvabilityError

ORACLE_DIMENSION_CAP = 32


@dataclass(frozen=True)
class OracleResult:
    """Result of a brute-force solve with its method tag and residual."""

    matrix: np.ndarray
    method: str  # 'kron' | 'rk4' | 'quadrature' | 'pade-exp'
    residual: float
    steps: int


def residual_lyapunov(a, q, p) -> float:
    """Scaled Frobenius residual of A P + P A^T + Q = 0."""
    a = np.asarray(a, dtype=float)
    r = a @ p + p @ a.T + q
    return float(np.linalg.norm(r) / max(1.0, np.linalg.norm(p)))


def residual_riccati(a, b, p_inv) -> float:
    """Scaled Frobenius residual of P^{-1} A + A^T P^{-1} + P^{-1} b b^T P^{-1} = 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    r = p_inv @ a + a.T @ p_inv + p_inv @ (b @ b.T) @ p_inv
    scale = max(1.0, float(np.linalg.norm(p_inv)) ** 2 * max(1.0, float(np.linalg.norm(a))))
    return float(np.linalg.norm(r) / scale)


def _symmetry_defect(p) -> float:
    return float(np.linalg.norm(p - p.T) / max(1.0, np.linalg.norm(p)))


def solve_lyapunov_dense(a, q) -> OracleResult:
    """Solve A P + P A^T = -Q by dense elimination on the n^2 x n^2 operator.

    The result is symmetrized.  A numerically singular operator means the
    solvability condition lambda_i + lambda_j != 0 fails.
    """
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    n = a.shape[0]
    if n > ORACLE_DIMENSION_CAP:
        raise ValueError(f"oracle dimension cap is {ORACLE_DIMENSION_CAP}, got n = {n}")
    eye = np.eye(n)
    operator = np.kron(eye, a) + np.kron(a, eye)
    cond = np.linalg.cond(operator)
    if not np.isfinite(cond) or cond > 1e14:
        raise SolvabilityError(
            "Kronecker operator I kron A + A kron I is numerically singular; "
            "the Lyapunov equation has no unique solution"
        )
    vec_p = np.linalg.solve(operator, -q.reshape(-1, order="F"))
    p = vec_p.reshape(n, n, order="F")
    p = 0.5 * (p + p.T)
    return OracleResult(p, "kron", residual_lyapunov(a, q, p), steps=1)


def integrate_lyapunov(a, q, p0, t: float, steps: int = 10_000) -> OracleResult:
    """Classical RK4 on dP/dt = A P + P A^T + Q from P(0) = P_0."""
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    p = np.asarray(p0, dtype=float).copy()
    if t < 0 or steps < 1:
        raise ValueError("need t >= 0 and steps >= 1")
    h = t / steps

    def rhs(m):
        return a @ m + m @ a.T + q

    for _ in range(steps):
        k1 = rhs(p)
        k2 = rhs(p + 0.5 * h * k1)
        k3 = rhs(p + 0.5 * h * k2)
        k4 = rhs(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return OracleResult(p, "rk4", _symmetry_defect(p), steps=steps)


def matrix_exp_reference(m, t: float = 1.0) -> np.ndarray:
    """Reference matrix exponential e^{M t} (scaling-and-squaring Pade)."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix must have finite entries")
    from scipy.linalg import expm  # deferred: no CLI command needs scipy's import cost

    return expm(m * t)


def gramian_quadrature(a, b, t: float, intervals: int = 512) -> OracleResult:
    """Finite Gramian int_0^t e^{A tau} B B^T e^{A^T tau} d tau by composite
    Simpson quadrature with the reference exponential."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    if t < 0:
        raise ValueError("need t >= 0")
    n = a.shape[0]
    if t == 0:
        return OracleResult(np.zeros((n, n)), "quadrature", 0.0, steps=0)
    if intervals % 2:
        intervals += 1
    h = t / intervals
    step = matrix_exp_reference(a, h)
    bbt = b @ b.T
    e = np.eye(n)
    total = np.zeros((n, n))
    for k in range(intervals + 1):
        weight = 1.0 if k in (0, intervals) else (4.0 if k % 2 else 2.0)
        total += weight * (e @ bbt @ e.T)
        e = step @ e
    p = total * (h / 3.0)
    return OracleResult(p, "quadrature", _symmetry_defect(p), steps=intervals)
