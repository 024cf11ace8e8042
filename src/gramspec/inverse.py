"""Spectral decompositions of the inverse Gramian: algebraic Riccati
solutions, the differential Riccati solution with its normalization matrix,
and the multiple-eigenvalue generalization.

Inverse components are built directly from left eigenvectors; for simple
spectra every builder takes one companion.EigenStructure, which fixes the
working precision (and with it the normalization condition cap of the finite
inverse).  Nothing in this module numerically inverts a Gramian sum (the
numerical inverse exists only in the oracle module, as an independent check).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .companion import (
    CompanionRealization,
    EigenStructure,
    JordanChainSet,
    SimilarityTransform,
    alternating_signs,
)
from .errors import ConditioningError
from .gramians import InitialCondition, SpectralComponentSet, _expm_transpose_simple
from .spectrum import Polynomial

ORTHOGONALITY_TOL = 1e-8  # violation of P_i P_j^-C = delta_ij R_i, relative to the residue scale
PIVOT_TOL = 1e-12  # final entry of the last left-chain vector, relative to the chain scale
CONDITION_CAPS = {False: 1e12, True: 1e17}  # normalization condition cap, by extended precision


@dataclass(frozen=True)
class NormalizationState:
    """Normalization matrix data of the finite inverse at one time point."""

    t: float
    g_inverse: np.ndarray
    condition: float


def inverse_eigenpart_counted(p: Polynomial, lam: complex):
    """One raw inverse eigenpart N(-lam)/(-N'(lam)) J y y^T with an operation
    count.

    The left eigenvector components are accumulated recursively (tail sums of
    a_k lam^k), so the whole construction touches O(n^2) scalars; the count
    is returned for the cost-growth property checks.  The builders take y
    from the eigen structure instead (y = H_l x / lam^n); this construction
    is kept as an independent reference for them.
    """
    n = p.degree
    a = p.coeffs
    dtype = np.result_type(np.asarray(lam).dtype, np.complex128)
    ops = 0
    # powers lam^1..lam^n
    powers = np.empty(n + 1, dtype=dtype)
    powers[0] = 1.0
    for k in range(1, n + 1):
        powers[k] = powers[k - 1] * lam
        ops += 1
    # tail sums S_k = sum_{j=k}^{n} a_j lam^j (a_n = 1), then y_k = -S_k / lam^k
    y = np.empty(n, dtype=dtype)
    s = powers[n]
    y[n - 1] = -s / powers[n]
    for k in range(n - 1, 0, -1):
        s = s + a[k] * powers[k]
        y[k - 1] = -s / powers[k]
        ops += 3
    # N(-lam) and N'(lam) by Horner
    at_mirror = dtype.type(0.0)
    deriv = dtype.type(0.0)
    value = dtype.type(0.0)
    for c in a[::-1]:
        at_mirror = at_mirror * (-lam) + c
        deriv = deriv * lam + value
        value = value * lam + c
        ops += 6
    coefficient = at_mirror / (-deriv)
    signs = alternating_signs(n)
    part = coefficient * (signs[:, None] * np.outer(y, y))
    ops += 2 * n * n + n
    return part, ops


def _inverse_eigenparts(es: EigenStructure) -> dict:
    """Raw inverse eigen components N(-lambda_i)/(-N'(lambda_i)) J y_i y_i^T."""
    signs = alternating_signs(es.poly.degree)
    return {
        i: mirror / (-deriv) * (signs[:, None] * np.outer(y, y))
        for i, (y, deriv, mirror) in enumerate(zip(es.left, es.derivs, es.mirrors))
    }


def inverse_eigenparts(es: EigenStructure) -> SpectralComponentSet:
    """Eigen-indexed decomposition of the algebraic Riccati solution.

    The raw components sum to the exact inverse of the Lyapunov solution;
    each is rank one.  An extended structure gives 80-bit components and a
    40-digit ``accurate_total`` (see the Gramian counterpart).  Reads y_i,
    N'(lambda_i) and N(-lambda_i) and no residues, so a near-multiple simple
    spectrum is still decomposed.
    """
    return SpectralComponentSet(
        _inverse_eigenparts(es), "eigen", "raw", "companion", es.poly, es.spectrum,
        es.accurate_total(_inverse_eigenparts),
    )


def inverse_pair_parts(es: EigenStructure) -> SpectralComponentSet:
    """Pair-indexed decomposition; column sums reproduce the eigen components.

    Component (i, j) equals conj(R_i) P_hat_j, worked out through left
    eigenvectors only: the first factor is taken at conj(lambda_i), where
    real coefficients make y, N' and N(-.) the conjugates of those at
    lambda_i.
    """
    lams, left, derivs, mirrors = es.eigenvalues, es.left, es.derivs, es.mirrors
    k = lams.size
    parts = {
        (i, j): (np.conj(mirrors[i]) * mirrors[j])
        / (-(np.conj(derivs[i]) * derivs[j]) * (np.conj(lams[i]) + lams[j]))
        * np.outer(np.conj(left[i]), left[j])
        for i in range(k)
        for j in range(k)
    }
    return SpectralComponentSet(parts, "pair", "raw", "companion", es.poly, es.spectrum)


@dataclass(frozen=True)
class OrthogonalityReport:
    """Element-wise check of P_hat_i^C P_hat_j^{-C} = delta_ij R_i."""

    max_violation: float
    pairs_checked: int
    ok: bool


def orthogonality_certificate(
    es: EigenStructure, gram: SpectralComponentSet, inv: SpectralComponentSet
) -> OrthogonalityReport:
    """Verify the raw eigenparts of the Gramian and its inverse are
    mutually orthogonal with products delta_ij R_i, the residues of ``es``."""
    if gram.flavor != "raw" or inv.flavor != "raw":
        raise ValueError("orthogonality holds for the raw (unsymmetrized) components")
    residues = es.residues
    scale = max(1.0, max(float(np.max(np.abs(r))) for r in residues))
    worst = 0.0
    count = 0
    for i, g_part in gram.components.items():
        for j, inv_part in inv.components.items():
            product = g_part @ inv_part
            expected = residues[i] if i == j else 0.0
            worst = max(worst, float(np.max(np.abs(product - expected))))
            count += 1
    return OrthogonalityReport(worst / scale, count, worst / scale <= ORTHOGONALITY_TOL)


def riccati_general(
    transform: SimilarityTransform, inv: SpectralComponentSet
) -> SpectralComponentSet:
    """Closed-form decomposition of P^{-1} A + A^T P^{-1} = -P^{-1} b b^T P^{-1}
    for a controllable single-input system, in its original coordinates.

    Components are (C^T)^{-1} H_u^{-1} X H_u^{-1} C^{-1} of the companion
    eigen components X of ``inv``, the inverse_eigenparts set of the
    transform's polynomial.
    """
    if transform.t is None:
        raise ValueError("the closed-form Riccati solution applies to single-input systems")
    if inv.kind != "eigen" or inv.coordinate != "companion":
        raise ValueError("the Riccati lift expects the companion inverse eigen set")
    transform.require_polynomial(inv.poly)
    ctrb, h_u = transform.controllability, transform.hankel
    lifted = {}
    for key, x in inv.components.items():
        inner = np.linalg.solve(h_u, np.linalg.solve(h_u, x).conj().T).conj().T
        half = np.linalg.solve(ctrb.T, inner)
        lifted[key] = np.linalg.solve(ctrb.T, half.conj().T).conj().T
    return replace(inv, components=lifted, coordinate="original")


def _solve_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear solve that also handles the extended-precision dtype.

    LAPACK only covers single/double, so clongdouble systems go through a
    plain Gaussian elimination with partial pivoting (n is companion-sized).
    """
    if a.dtype != np.clongdouble and b.dtype != np.clongdouble:
        return np.linalg.solve(a, b)
    a = a.astype(np.clongdouble).copy()
    x = b.astype(np.clongdouble).copy()
    n = a.shape[0]
    for k in range(n):
        pivot = k + int(np.argmax(np.abs(a[k:, k])))
        if a[pivot, k] == 0.0:
            raise np.linalg.LinAlgError("singular matrix")
        if pivot != k:
            a[[k, pivot]] = a[[pivot, k]]
            x[[k, pivot]] = x[[pivot, k]]
        for i in range(k + 1, n):
            f = a[i, k] / a[k, k]
            a[i, k:] -= f * a[k, k:]
            x[i] -= f * x[k]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - a[i, i + 1 :] @ x[i + 1 :]) / a[i, i]
    return x


def finite_inverse(es: EigenStructure, p0: InitialCondition, t: float):
    """Inverse of the finite Gramian with boundary value P(0) = P_0.

    P^{-1}(t) = G(t) sum_j P_hat_j^{-C} with the normalization matrix defined
    through G^{-1}(t) = I - sum_i J R_i^T J e^{(lambda_i I + A^T) t}
    + sum_i P_hat_i^{-C} P_0 e^{(lambda_i I + A^T) t}.  Returns the
    normalization state and the component set scaled by G(t); the product
    with the matching finite Gramian is the identity.

    An extended structure evaluates in 80-bit precision; unstable systems at
    stiff horizons need it for the product identity to survive in floating
    point (pair it with the finite Gramian of the same structure).  G(t) is
    refused (ConditioningError) when its condition exceeds the cap of the
    structure's precision: 1e12 in double, 1e17 extended.
    """
    inv_components = _inverse_eigenparts(es)
    lams, residues = es.eigenvalues, es.residues
    n = es.poly.degree
    signs = alternating_signs(n)
    expm_t = _expm_transpose_simple(lams, residues)(t)
    g_inv = np.eye(n, dtype=expm_t.dtype)
    term_scale = 1.0
    for i, lam in enumerate(lams):
        scaled_exp = np.exp(lam * t) * expm_t
        decay = (signs[:, None] * residues[i].T * signs[None, :]) @ scaled_exp
        boundary = inv_components[i] @ p0.matrix @ scaled_exp
        g_inv += boundary - decay
        term_scale = max(
            term_scale,
            float(np.max(np.abs(decay))),
            float(np.max(np.abs(boundary))),
        )
    # condition against the size of the cancelled terms: G^{-1} built from
    # exponentials of scale term_scale can be singular while formally
    # well-scaled (e.g. t = 0 with P_0 = 0 gives the zero matrix)
    svals = np.linalg.svd(g_inv.astype(complex), compute_uv=False)
    condition = float(term_scale / max(svals[-1], 1e-300))
    if not np.isfinite(condition) or condition > CONDITION_CAPS[es.extended]:
        raise ConditioningError(
            f"normalization matrix G(t) is numerically singular at t = {t}",
            condition=condition,
        )
    scaled = {j: _solve_dense(g_inv, part) for j, part in inv_components.items()}
    state = NormalizationState(float(t), g_inv, condition)
    return state, SpectralComponentSet(
        scaled, "eigen", "raw", "companion", es.poly, es.spectrum
    )


def _solve_upper_hankel(hvals: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve H X = rhs for the upper anti-triangular Hankel H[i, j] = h_{i+j}.

    Back-substitution from the last row up; O(m^2) per column.
    """
    m = hvals.size
    pivot = hvals[m - 1]
    x = np.zeros_like(rhs, dtype=complex)
    for r in range(m - 1, -1, -1):
        idx = m - 1 - r
        acc = rhs[r].astype(complex)
        for j in range(idx):
            acc = acc - hvals[r + j] * x[j]
        x[idx] = acc / pivot
    return x


def inverse_multiple_eig(cr: CompanionRealization, chains: JordanChainSet) -> SpectralComponentSet:
    """Eigen-indexed inverse decomposition for multiple eigenvalues.

    Component j is J (M_j^{(-1)})^T T_j H_j^{-1} M_j^{(-1)}; the chain Hankel
    H_j is anti-triangular and inverted by back-substitution.  A vanishing
    anti-diagonal (last left-chain vector with zero final entry) makes the
    chain degenerate.
    """
    if chains.c_row is None:
        raise ValueError("inverse decomposition needs companion Jordan chains")
    n = cr.n
    signs = alternating_signs(n)
    parts = {}
    for j, block in enumerate(chains.blocks):
        hvals = block.left[:, n - 1]
        scale = max(1.0, float(np.max(np.abs(block.left))))
        if abs(hvals[-1]) <= PIVOT_TOL * scale:
            raise ConditioningError(
                f"chain Hankel for eigenvalue {block.eigenvalue} is singular "
                "(last left-chain vector has zero final entry)"
            )
        x = _solve_upper_hankel(hvals, block.left)
        parts[j] = signs[:, None] * (block.left.T @ (block.toeplitz @ x))
    spec = chains.spectrum
    return SpectralComponentSet(parts, "eigen", "raw", "companion", cr.poly, spec)
