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

import functools

import numpy as np

from .companion import (EigenStructure, JordanChainSet, SimilarityTransform, _solve_dense,
                        alternating_signs)
from .errors import ConditioningError
from .gramians import Horizon, InitialCondition, SpectralComponentSet, _outer_stack, hermitian_part

PIVOT_TOL = 1e-12  # final entry of the last left-chain vector, relative to the chain scale
CONDITION_CAPS = {53: 1e12, 64: 1e17}  # normalization condition cap, by significand bits


def inverse_eigenparts(es: EigenStructure, columns=None) -> SpectralComponentSet:
    """Eigen-indexed decomposition of the algebraic Riccati solution.

    The raw components c_i (J y_i) y_i^T, with c_i = N(-lambda_i)/(-N'(lambda_i)),
    sum to the exact inverse of the Lyapunov solution.  An extended structure
    gives 80-bit components.  Reads y_i, N'(lambda_i) and N(-lambda_i) and no
    residues, so a near-multiple simple spectrum is still decomposed.  Row i
    of ``columns``, when given, takes the place of J y_i (finite_inverse).
    """
    if columns is None:
        columns = alternating_signs(es.poly.degree) * es.left
    coeffs = np.array([mirror / (-deriv) for deriv, mirror in zip(es.derivs, es.mirrors)])
    return SpectralComponentSet.rank_one(es, "eigen", coeffs, columns, es.left)


def inverse_pair_parts(es: EigenStructure) -> SpectralComponentSet:
    """Pair-indexed decomposition; column sums reproduce the eigen components.

    Component (i, j) equals conj(R_i) P_hat_j, worked out through left
    eigenvectors only: the first factor is taken at conj(lambda_i), where
    real coefficients make y, N' and N(-.) the conjugates of those at
    lambda_i.  It is c_ij conj(y_i) y_j^T with a k x k table of scalars c_ij.
    """
    lams, left, derivs, mirrors = es.eigenvalues, es.left, es.derivs, es.mirrors
    k = lams.size
    coeffs = np.array([(np.conj(mirrors[i]) * mirrors[j])
                       / (-(np.conj(derivs[i]) * derivs[j]) * (np.conj(lams[i]) + lams[j]))
                       for i in range(k) for j in range(k)])
    return SpectralComponentSet.rank_one(es, "pair", coeffs, np.conj(left), left)


def orthogonality_certificate(
    es: EigenStructure, gram: SpectralComponentSet, inv: SpectralComponentSet
) -> float:
    """The largest entry of P_hat_i^C P_hat_j^{-C} - delta_ij R_i over all
    pairs (i, j) of raw eigenparts of the Gramian and its inverse, with R_i
    the residues of ``es``, relative to max(1, max |R_i|)."""
    if gram.flavor != "raw" or inv.flavor != "raw":
        raise ValueError("orthogonality holds for the raw (unsymmetrized) components")
    residues = es.residues
    scale = max(1.0, float(np.max(np.abs(residues))))
    products = gram.stack[:, None] @ inv.stack[None]  # (i, j) -> P_hat_i P_hat_j^{-C}
    diagonal = np.arange(len(residues))
    products[diagonal, diagonal] -= residues
    return float(np.max(np.abs(products))) / scale


def riccati_general(transform: SimilarityTransform, inv: SpectralComponentSet) -> np.ndarray:
    """Closed-form solution of P^{-1} A + A^T P^{-1} = -P^{-1} b b^T P^{-1}
    for a controllable single-input system, in its original coordinates.

    It is the Hermitian part of (C^T)^{-1} H_u^{-1} X H_u^{-1} C^{-1}, with X
    the symmetrized sum of ``inv``, an inverse eigen set of the transform's
    polynomial (inverse_eigenparts, or inverse_multiple_eig for a multiple
    spectrum), lifted once as in lift_to_original.  An extended set is
    lifted in its own precision.
    """
    if transform.t is None:
        raise ValueError("the closed-form Riccati solution applies to single-input systems")
    if inv.kind != "eigen":
        raise ValueError("the Riccati lift expects the companion inverse eigen set")
    transform.require_polynomial(inv.poly)
    ctrb, h_u = transform.controllability, transform.hankel

    def solve(a, x):  # (a^{-1} X)^H
        return _solve_dense(a, x).conj().T

    total = inv.symmetrized().total()
    return hermitian_part(solve(ctrb.T, solve(ctrb.T, solve(h_u, solve(h_u, total)))))


def finite_inverse(h: Horizon, p0: InitialCondition):
    """Inverse of the finite Gramian at the horizon's t with boundary value
    P(0) = P_0.

    P^{-1}(t) = G(t) sum_j P_hat_j^{-C} with the normalization matrix defined
    through G^{-1}(t) = I - sum_i J R_i^T J e^{(lambda_i I + A^T) t}
    + sum_i P_hat_i^{-C} P_0 e^{(lambda_i I + A^T) t}: rank-one terms -w_i
    (J y_i) r_i^T and N(-lambda_i) w_i (J y_i) (y_i^T P_0 e^{A^T t}), with
    the horizon's weights w and rows r.  Returns the condition of G(t) and
    the inverse eigen set scaled by G(t), its columns G(t) J y_i solved for
    all k at once, whose product with the finite Gramian of the same horizon
    is the identity.  An extended horizon evaluates in 80-bit precision,
    which unstable systems at stiff horizons need.  G(t) is refused
    (ConditioningError) when its condition exceeds the CONDITION_CAPS cap of
    the significand bits of the horizon's format: 1e12 for 53 (double), 1e17
    for 64 or more.  A G^{-1}(t) with an entry outside the double range is
    refused as such, with condition inf.
    """
    es, t = h.structure, h.t
    cap = CONDITION_CAPS[min(np.finfo(h.expm_transpose.dtype).nmant + 1, 64)]
    n = es.poly.degree
    columns = alternating_signs(n) * es.left  # row i is J y_i
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        # per eigenvalue, the boundary term plus the decay term; the largest
        # entry of each is its scale, rounded to double as the condition is
        terms = _outer_stack(-h.weights, columns, h.rows)
        scales = [1.0, *np.abs(terms).max(axis=(1, 2)).astype(float).tolist()]
        if np.any(p0.matrix):  # with P_0 = 0 the boundary terms vanish
            scaled = np.array([m * w for m, w in zip(es.mirrors, h.weights)])
            boundary = _outer_stack(scaled, columns, es.left @ (p0.matrix @ h.expm_transpose))
            terms = boundary + terms
            scales += np.abs(boundary).max(axis=(1, 2)).astype(float).tolist()
        # added one term at a time, in eigenvalue order
        g_inv = functools.reduce(np.add, terms, np.eye(n, dtype=h.expm_transpose.dtype))
        g_double = g_inv.astype(complex)
    if not np.all(np.isfinite(g_double)):
        raise ConditioningError(
            f"normalization matrix inverse G^-1(t) leaves the double range at t = {t}",
            condition=np.inf,
        )
    # condition against the size of the cancelled terms: G^{-1} built from
    # exponentials of scale term_scale can be singular while formally
    # well-scaled (e.g. t = 0 with P_0 = 0 gives the zero matrix)
    term_scale = max(scales)
    svals = np.linalg.svd(g_double, compute_uv=False)
    condition = float(term_scale / max(svals[-1], 1e-300))
    if not np.isfinite(condition) or condition > cap:
        raise ConditioningError(
            f"normalization matrix G(t) is numerically singular at t = {t}",
            condition=condition,
        )
    return condition, inverse_eigenparts(es, _solve_dense(g_inv, columns.T).T)


def inverse_multiple_eig(chains: JordanChainSet) -> SpectralComponentSet:
    """Eigen-indexed inverse decomposition for multiple eigenvalues, from
    the companion chains of jordan_chains_companion.

    Component j is J (M_j^{(-1)})^T T_j H_j^{-1} M_j^{(-1)}, with the chain
    Hankel H_j (``block.hankel``) solved against M_j^{(-1)} in one LAPACK
    call.  H_j is upper anti-triangular with a constant anti-diagonal, the
    final entry of the last left-chain vector; a vanishing one makes the
    chain degenerate and is refused first, and any other makes H_j
    nonsingular.
    """
    n = chains.poly.degree
    signs = alternating_signs(n)
    parts = {}
    for j, block in enumerate(chains.blocks):
        scale = max(1.0, float(np.max(np.abs(block.left))))
        if abs(block.left[-1, n - 1]) <= PIVOT_TOL * scale:
            raise ConditioningError(
                f"chain Hankel for eigenvalue {block.eigenvalue} is singular "
                "(last left-chain vector has zero final entry)"
            )
        x = np.linalg.solve(block.hankel, block.left)
        parts[j] = signs[:, None] * (block.left.T @ (block.toeplitz @ x))
    spec = chains.spectrum
    return SpectralComponentSet.from_parts(parts, "eigen", "raw", chains.poly, spec)
