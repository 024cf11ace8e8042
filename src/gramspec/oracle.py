"""Independent brute-force solvers used to validate every closed-form path.

Nothing here calls the spectral modules; the only shared code is numpy.  The
Lyapunov solve is dense elimination on the Kronecker operator, and the
differential equation is integrated with classical RK4.

The RK4 integration runs as its exact one-step map.  The equation
dP/dt = A P + P A^T + Q is linear, so with L = I kron A + A kron I,
Z = h L and S = I + Z/2 + Z^2/6 + Z^3/24, one RK4 step of size h sends
vec(P) to vec(P) + (D vec(P) + c), where D = Z S and c = h S vec(Q).  This is
the k1..k4 stage algebra in closed form, not an approximation of it.  The map
is applied `steps` times by binary powering: O(log steps) products of
n^2 x n^2 matrices, O(n^6 log steps) flops.  Both the Kronecker solve and RK4
take the operator from `kron_operator`, so ORACLE_DIMENSION_CAP covers both; a
caller that runs both on one A builds it once and passes it to each.
With one BLAS thread, 10,000 steps take about 1 ms at n = 10, 25 ms at n = 16
and 1 s at the cap.

vec convention: column stacking, vec(P) = P.reshape(-1, order='F').  Then
vec(A X B) = (B^T kron A) vec(X), so A P -> (I kron A) and P A^T -> (A kron I).
Worked 2x2 identity: A = [[a, b], [c, d]], P = [[p, q], [q, r]],
vec(P) = (p, q, q, r); the first row of (I kron A) vec(P) is a p + b q, which
is indeed (A P)[0, 0].
"""

from __future__ import annotations

import numpy as np

from .errors import SolvabilityError

ORACLE_DIMENSION_CAP = 32


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


def residual_product(p_inv, p) -> float:
    """Largest entry of P^{-1} P - I, the product identity of an inverse and its Gramian."""
    return float(np.max(np.abs(p_inv @ p - np.eye(p.shape[0]))))


def require_dimension(n: int):
    """Refuse (ValueError) a state dimension above ORACLE_DIMENSION_CAP."""
    if n > ORACLE_DIMENSION_CAP:
        raise ValueError(f"oracle dimension is capped at {ORACLE_DIMENSION_CAP}, got n = {n}")


def kron_operator(a) -> np.ndarray:
    """The n^2 x n^2 operator I kron A + A kron I of P -> A P + P A^T on vec(P)."""
    n = a.shape[0]
    require_dimension(n)
    eye = np.eye(n)
    return np.kron(eye, a) + np.kron(a, eye)


def solve_lyapunov_dense(a, q, operator=None) -> np.ndarray:
    """Solve A P + P A^T = -Q by dense elimination on the n^2 x n^2 operator.

    The result is symmetrized.  A numerically singular operator means the
    solvability condition lambda_i + lambda_j != 0 fails.  ``operator`` is
    ``kron_operator(a)``, built here when not given.
    """
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    n = a.shape[0]
    if operator is None:
        operator = kron_operator(a)
    cond = np.linalg.cond(operator)
    if not np.isfinite(cond) or cond > 1e14:
        raise SolvabilityError(
            "Kronecker operator I kron A + A kron I is numerically singular; "
            "the Lyapunov equation has no unique solution"
        )
    vec_p = np.linalg.solve(operator, -q.reshape(-1, order="F"))
    p = vec_p.reshape(n, n, order="F")
    return 0.5 * (p + p.T)


def integrate_lyapunov(a, q, p0, t: float, steps: int = 10_000, operator=None) -> np.ndarray:
    """Classical RK4 on dP/dt = A P + P A^T + Q from P(0) = P_0.

    Takes `steps` RK4 steps of size h = t / steps, each as the exact affine
    map y -> y + (D y + c) on y = vec(P) described in the module docstring,
    applied by binary powering.  The map stays in increment form: squaring
    gives (2 D + D^2, 2 c + D c).  Forming I + D would round away the low
    digits of D, whose norm is about h ||L|| when that is small.  The cost is
    O(n^6 log steps), and n is capped at ORACLE_DIMENSION_CAP.

    Rounding differs from a stage-by-stage loop.  With many steps the two
    agree to about 1e-11 relative on companion matrices up to n = 10.  With
    few steps on a strongly non-normal A (h ||L|| >> 1), the squarings lose
    digits that the loop keeps (up to about 1e-6 relative at 7 steps for
    n = 5..10); RK4's truncation error there is of order one.  ``operator``
    is ``kron_operator(a)``, built here when not given.
    """
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    if not np.isfinite(t) or t < 0 or steps < 1:
        raise ValueError("need finite t >= 0 and steps >= 1")
    n = a.shape[0]
    h = t / steps
    z = h * (kron_operator(a) if operator is None else operator)
    eye = np.eye(n * n)
    s = eye / 6.0 + z / 24.0
    s = eye / 2.0 + z @ s
    s = eye + z @ s
    d = z @ s
    c = h * (s @ q.reshape(-1, order="F"))
    y = np.asarray(p0, dtype=float).reshape(-1, order="F")
    remaining = steps
    while True:
        if remaining & 1:
            y = y + (d @ y + c)
        remaining >>= 1
        if not remaining:
            break
        c = 2.0 * c + d @ c
        d = 2.0 * d + d @ d
    return y.reshape(n, n, order="F")
