"""Companion realization, similarity transform, eigenvectors, Jordan chains.

All closed-form spectral machinery lives in the controllability canonical
basis: the dynamics matrix carries the characteristic coefficients in its
last row and the input is the last unit vector.  Right eigenvectors are
Vandermonde columns, left eigenvectors come from a Hankel matrix of the
coefficients, and Jordan chains for multiple eigenvalues follow a Pascal-type
recursion in closed form.  For a simple spectrum, eigen_structure is the one
place that decides whether, and at what working precision, a closed form
runs: it refuses multiple and unsolvable spectra, and its EigenStructure holds
the per-eigenvalue data every closed form is built from; jordan_chains_companion
is that place for spectra with multiplicities.  similarity_transform is the one
place that maps companion coordinates to a system's own.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import (
    ConditioningError,
    ControllabilityError,
    MultipleEigenvalueError,
    Record,
)
from .spectrum import (
    DEFAULT_TOLERANCES,
    Polynomial,
    SolvabilityReport,
    Spectrum,
    _newton_polish,
    _round_longdouble,
    check_solvability,
    dyadic_coefficients,
    eval_with_derivative,
)

CONDITION_CAP = 1e12
POLY_TOL = 1e-8  # relative defect allowed in the similarity and polynomial-match checks
ROOT_TOL = 1e-8  # relative |N(lambda)| and origin distance allowed for a Jordan-chain entry
ORIGIN_TOL = 1e-12  # |lambda| at or below this times (1 + max|a_k|) has no left eigenvector
DERIV_FLOOR = 1e-8  # |N'(lambda)| at or below this times max|a_k| counts as a multiple eigenvalue


class LtiSystem(Record):
    """Continuous LTI pair (A, B); the object under analysis."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.asarray(b, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got shape {a.shape}")
        if b.shape[0] != a.shape[0]:
            raise ValueError(f"B must have {a.shape[0]} rows, got shape {b.shape}")
        if not b.shape[1]:
            raise ValueError(f"B must have at least one column, got shape {b.shape}")
        for name, m in (("A", a), ("B", b)):
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} must have finite entries")
        self.__dict__.update(a=a, b=b)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]


class CompanionRealization(Record):
    """Companion pair (A_C, b_C) of a monic characteristic polynomial."""

    def __init__(self, poly: Polynomial, a_c: np.ndarray, b_c: np.ndarray):
        self.__dict__.update(poly=poly, a_c=a_c, b_c=b_c)

    @property
    def n(self) -> int:
        return self.poly.degree

    def system(self) -> LtiSystem:
        return LtiSystem(self.a_c, self.b_c)


class SimilarityTransform(Record):
    """Change of basis T = C * H_u from the companion coordinates of ``poly``
    to a system's own; ``t`` is None for a multi-input system."""

    def __init__(self, t: np.ndarray | None, hankel: np.ndarray, controllability: np.ndarray,
                 poly: Polynomial):
        self.__dict__.update(t=t, hankel=hankel, controllability=controllability, poly=poly)

    def require_polynomial(self, poly: Polynomial | None):
        """Refuse (ValueError) a decomposition built for another polynomial."""
        if poly is None:
            return
        scale = np.max(np.abs(poly.coeffs))
        if np.max(np.abs(self.poly.coeffs - poly.coeffs)) > POLY_TOL * scale:
            raise ValueError(
                "characteristic polynomial of the system does not match the decomposition"
            )


def alternating_signs(n: int) -> np.ndarray:
    """Diagonal of the sign matrix diag(-1, +1, ..., (-1)^n)."""
    return np.array([(-1.0) ** (k + 1) for k in range(n)])


def build_companion(p: Polynomial) -> CompanionRealization:
    """Companion matrix with -a_0..-a_{n-1} in the last row, b = e_n."""
    n = p.degree
    a_c = np.zeros((n, n))
    if n > 1:
        a_c[: n - 1, 1:] = np.eye(n - 1)
    a_c[n - 1, :] = -p.coeffs[:n]
    b_c = np.zeros(n)
    b_c[n - 1] = 1.0
    return CompanionRealization(p, a_c, b_c)


def _hankel(entries: np.ndarray) -> np.ndarray:
    """The n x n Hankel matrix H_ij = entries[i + j] of 2n - 1 entries."""
    n = (entries.size + 1) // 2
    return entries[np.add.outer(np.arange(n), np.arange(n))]


def hankel_upper(p: Polynomial) -> np.ndarray:
    """Upper anti-triangular Hankel of coefficients, first row (a_1 ... a_{n-1} 1)."""
    return _hankel(np.concatenate([p.coeffs[1:], np.zeros(p.degree - 1)]))


def hankel_lower(p: Polynomial) -> np.ndarray:
    """Lower anti-triangular Hankel, last row (a_0 ... a_{n-1})."""
    return _hankel(np.concatenate([np.zeros(p.degree - 1), p.coeffs[:-1]]))


def controllability_matrix(sys: LtiSystem) -> np.ndarray:
    """C = [B, AB, ..., A^{n-1}B], shape n x (n m)."""
    blocks = []
    current = sys.b
    for _ in range(sys.n):
        blocks.append(current)
        current = sys.a @ current
    return np.hstack(blocks)


def require_controllable(sys: LtiSystem) -> np.ndarray:
    """Controllability matrix of a system, checked to have condition at most
    CONDITION_CAP; raises ControllabilityError carrying the condition (inf
    when rank deficient) otherwise."""
    ctrb = controllability_matrix(sys)
    svals = np.linalg.svd(ctrb, compute_uv=False)
    if svals[-1] == 0.0 or svals[0] / svals[-1] > CONDITION_CAP:
        cond = np.inf if svals[-1] == 0.0 else float(svals[0] / svals[-1])
        raise ControllabilityError("system is uncontrollable or nearly so", condition=cond)
    return ctrb


def similarity_transform(sys: LtiSystem, poly: Polynomial) -> SimilarityTransform:
    """The map from the companion coordinates of ``poly``, the system's
    characteristic polynomial, to the system's own: refuses a system that is
    not controllable (see require_controllable) and, for a single input, forms
    T = C * H_u and verifies A T = T A_C and b = T b_C."""
    ctrb = require_controllable(sys)
    h_u = hankel_upper(poly)
    if sys.m != 1:
        return SimilarityTransform(None, h_u, ctrb, poly)
    cr = build_companion(poly)
    t = ctrb @ h_u
    scale = np.linalg.norm(sys.a) * np.linalg.norm(t) + 1.0
    if np.linalg.norm(sys.a @ t - t @ cr.a_c) > POLY_TOL * scale:
        raise ControllabilityError("similarity verification A T = T A_C failed")
    if np.linalg.norm(sys.b[:, 0] - t @ cr.b_c) > POLY_TOL * (1.0 + np.linalg.norm(sys.b)):
        raise ControllabilityError("similarity verification b = T b_C failed")
    return SimilarityTransform(t, h_u, ctrb, poly)


class EigenStructure(Record):
    """Per-eigenvalue data of a simple companion spectrum, evaluated once.

    Made by eigen_structure, which admits only a simple, solvable
    ``spectrum``; ``solvability`` is the report it passed.  Every
    simple-spectrum closed form is built from it.  Row i of ``right`` is the
    Vandermonde vector x_i; ``derivs[i]`` is N'(lambda_i) by Horner.  Three
    more entries are formed on first use, so work no builder reads is never
    done: ``mirrors[i]`` is N(-lambda_i) by Horner; ``left`` (row i is y_i =
    H_l x_i / lambda_i^n, whose last entry is -1) raises ConditioningError
    for an eigenvalue within ORIGIN_TOL (1 + max|a_k|) of the origin; and
    ``residues`` stacks the rank-one R_i = x_i y_i^T / (-N'(lambda_i)), whose
    factors the finite-horizon builders read instead.  require_simple, which
    they run first, refuses |N'(lambda_i)| <= DERIV_FLOOR max|a_k|.

    The working precision is the dtype of ``eigenvalues``: complex128, or
    clongdouble for the ``extended`` structure of ``to_extended``, whose
    eigenvalues are the roots polished by the Newton steps of find_roots run
    in 80-bit, on the exact residual rounded once to 80 bits; an extended
    structure also carries ``exact_totals``.  An extended structure forms
    ``derivs``, ``mirrors`` and ``left`` in one array form each: clongdouble
    arithmetic has no SIMD kernels, so its array operations round as its
    scalar ones do, while the vectorized complex128 multiply does not, and
    builders form their scalar coefficients one eigenvalue at a time.
    """

    def __init__(self, poly: Polynomial, spectrum: Spectrum, eigenvalues: np.ndarray,
                 right: np.ndarray, derivs: np.ndarray, solvability: SolvabilityReport):
        self.__dict__.update(poly=poly, spectrum=spectrum, eigenvalues=eigenvalues, right=right,
                             derivs=derivs, solvability=solvability)

    @property
    def extended(self) -> bool:
        return self.eigenvalues.dtype == np.clongdouble

    def to_extended(self) -> EigenStructure:
        """The extended structure of the same spectrum, at its roots polished
        in 80-bit (spectrum._newton_polish), for stiff problems: component
        magnitudes can exceed their sum by many orders (near-degenerate
        spectra) and finite Gramians of unstable systems at large t span
        ranges double precision cannot resolve.  It is admitted by this
        structure's solvability report: admission reads the spectrum only,
        so it is not checked again."""
        values = _newton_polish(self.poly, self.spectrum.values.astype(np.clongdouble))
        return _evaluate(self.poly, self.spectrum, values, self.solvability)

    @cached_property
    def mirrors(self) -> np.ndarray:
        return _each(self.eigenvalues, lambda lam: eval_with_derivative(self.poly, -lam)[0])

    @cached_property
    def left(self) -> np.ndarray:
        scale = ORIGIN_TOL * (1.0 + np.max(np.abs(self.poly.coeffs)))
        for lam in self.eigenvalues:
            if abs(lam) <= scale:
                raise ConditioningError(
                    f"left eigenvector undefined for eigenvalue {complex(lam)} at the origin: "
                    f"|lambda| = {float(abs(lam)):.3e} is at or below {scale:.3e}"
                )
        h_l = hankel_lower(self.poly)
        n = self.poly.degree
        if self.extended:
            return self.right @ h_l.T / self.eigenvalues[:, None] ** n
        return np.stack([(h_l @ x) / lam**n for lam, x in zip(self.eigenvalues, self.right)])

    def require_simple(self):
        """Refuse (MultipleEigenvalueError) a numerically multiple eigenvalue."""
        scale = float(np.max(np.abs(self.poly.coeffs)))
        for lam, deriv in zip(self.eigenvalues, self.derivs):
            if abs(deriv) <= DERIV_FLOOR * scale:
                raise MultipleEigenvalueError(
                    f"|N'({lam})| = {float(abs(deriv)):.3e} is below tolerance; eigenvalue "
                    "is numerically multiple, use the Jordan-chain decomposition"
                )

    @cached_property
    def residues(self) -> np.ndarray:
        self.require_simple()
        return np.stack(
            [np.outer(x, y) / (-d) for x, y, d in zip(self.right, self.left, self.derivs)]
        )

    @cached_property
    def exact_totals(self) -> tuple:
        """The sums (P, P^-1) of the Gramian and inverse eigen components of
        an extended structure, from the coefficients; (None, None) in double.

        Near-degenerate spectra make components exceed their sum by many
        orders, which a sum of stored components cannot resolve.  Here P^-1 =
        diag((-1)^i) Bez(N(s), N(-s)) (Hermite-Fujiwara), with g_k = (-1)^k a_k
        and Bez_ij = sum_{k=0}^{min(n-1-i, j)} (a_{i+k+1} g_{j-k} - g_{i+k+1}
        a_{j-k}), is formed exactly on the integers of dyadic_coefficients and
        rounded once per entry to 80 bits; P is one 80-bit solve with it.
        """
        if not self.extended:
            return None, None
        coeffs, t = dyadic_coefficients(self.poly)
        n = self.poly.degree
        mirror = [(-1) ** k * c for k, c in enumerate(coeffs)]
        entries = [(-1) ** i * sum(coeffs[i + k + 1] * mirror[j - k]
                                   - mirror[i + k + 1] * coeffs[j - k]
                                   for k in range(min(n - 1 - i, j) + 1))
                   for i in range(n) for j in range(n)]
        inverse = _round_longdouble(entries, -2 * t).reshape(n, n).astype(np.clongdouble)
        return _solve_dense(inverse, np.eye(n, dtype=np.clongdouble)), inverse


def _each(values: np.ndarray, form) -> np.ndarray:
    """``form`` at every eigenvalue: one call on the whole array in
    clongdouble, one call per eigenvalue in complex128 (see EigenStructure)."""
    if values.dtype == np.clongdouble:
        return form(values)
    return np.array([form(lam) for lam in values])


def _evaluate(
    p: Polynomial, spec: Spectrum, values: np.ndarray, solvability: SolvabilityReport
) -> EigenStructure:
    return EigenStructure(
        p,
        spec,
        values,
        values[:, None] ** np.arange(p.degree, dtype=float),
        _each(values, lambda lam: eval_with_derivative(p, lam)[1]),
        solvability,
    )


def _solve_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The n x m solution X of a X = b, also in the extended-precision dtype.

    In double this is one LAPACK solve.  LAPACK only covers single/double,
    so clongdouble systems go through a plain Gaussian elimination with
    partial pivoting (n is companion-sized), for all m columns side by side:
    each pivot updates the trailing rows with one array operation.
    """
    if a.dtype != np.clongdouble and b.dtype != np.clongdouble:
        return np.linalg.solve(a, b)
    a, x = a.astype(np.clongdouble), b.astype(np.clongdouble)
    n = a.shape[0]
    for k in range(n):
        pivot = k + int(np.argmax(np.abs(a[k:, k])))
        if a[pivot, k] == 0.0:
            raise np.linalg.LinAlgError("singular matrix")
        if pivot != k:
            a[[k, pivot]] = a[[pivot, k]]
            x[[k, pivot]] = x[[pivot, k]]
        f = (a[k + 1 :, k] / a[k, k])[:, None]
        a[k + 1 :, k:] -= f * a[k, k:]
        x[k + 1 :] -= f * x[k]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - a[i, i + 1 :] @ x[i + 1 :]) / a[i, i]
    return x


def eigen_structure(
    p: Polynomial,
    spec: Spectrum,
    solvability_tol: float = DEFAULT_TOLERANCES.solvability,
) -> EigenStructure:
    """The double-precision EigenStructure of a simple, solvable spectrum.

    Raises SolvabilityError when some |lambda_i + lambda_j| is at or below
    ``solvability_tol`` (1 + radius), then MultipleEigenvalueError for a
    spectrum with multiplicities.  A structure that turns out too coarse
    gives its 80-bit one by EigenStructure.to_extended, without a second
    admission.
    """
    report = check_solvability(spec, solvability_tol).require()
    if not spec.is_simple:
        raise MultipleEigenvalueError(
            "spectrum has multiple eigenvalues; use the multiple-eigenvalue "
            "decomposition (multiple_eig_gramian / inverse_multiple_eig)"
        )
    return _evaluate(p, spec, spec.values, report)


class JordanBlockChain(Record):
    """Companion chain data for one clustered eigenvalue.

    ``right`` holds the chain columns x_1..x_{n_i} (n x n_i), ``left`` the
    matching rows of the inverse modal matrix (n_i x n), and ``toeplitz``
    and ``hankel`` the factor matrices of the inverse components.
    """

    def __init__(self, eigenvalue: complex, multiplicity: int, right: np.ndarray,
                 left: np.ndarray, toeplitz: np.ndarray, hankel: np.ndarray):
        self.__dict__.update(eigenvalue=eigenvalue, multiplicity=multiplicity, right=right,
                             left=left, toeplitz=toeplitz, hankel=hankel)


class JordanChainSet(Record):
    """Jordan chains of all clustered eigenvalues of the companion ``system``
    of ``poly`` plus the full modal pair and the row ``c_row`` of the
    Toeplitz factors; made by jordan_chains_companion."""

    def __init__(self, system: LtiSystem, spectrum: Spectrum, blocks: list, modal: np.ndarray,
                 modal_inverse: np.ndarray, poly: Polynomial, c_row: np.ndarray):
        self.__dict__.update(system=system, spectrum=spectrum, blocks=blocks, modal=modal,
                             modal_inverse=modal_inverse, poly=poly, c_row=c_row)


def _chain_columns(lam: complex, mult: int, n: int) -> np.ndarray:
    """Closed-form companion Jordan chain for one eigenvalue.

    Column m has entries c_{m,k} lam^{k-m} where c_{1,k} = 1, c_{m,1} = 1 and
    c_{m+1,k+1} = c_{m+1,k} + c_{m,k}; this is the Vandermonde vector and its
    normalized derivative chain, satisfying (A_C - lam I) x_{m+1} = x_m.
    """
    cols = np.zeros((n, mult), dtype=complex)
    c_prev = np.ones(n)
    for m in range(mult):
        if m == 0:
            c = np.ones(n)
        else:
            c = np.ones(n)
            for k in range(1, n):
                c[k] = c[k - 1] + c_prev[k - 1]
        powers = np.arange(n) - m
        cols[:, m] = c * lam ** powers.astype(float)
        c_prev = c
    return cols


def jordan_chains_companion(spec: Spectrum, p: Polynomial) -> JordanChainSet:
    """Jordan chains, Toeplitz and Hankel factors of the companion system of
    ``p``; the one admission of the multiple-eigenvalue closed forms.

    The left chains come from inverting the full modal matrix once.  Refuses
    a spectrum entry that is not a root (ValueError) or lies within ROOT_TOL
    (1 + radius) of the origin (ConditioningError), then an ill-conditioned
    modal matrix (condition above 1e12, typically from
    under-clustered nearly-multiple eigenvalues), then an unsolvable spectrum.
    """
    n = p.degree
    if spec.n != n:
        raise ValueError("total spectrum multiplicity does not match the polynomial degree")
    scale = np.max(np.abs(p.coeffs))
    origin = ROOT_TOL * (1.0 + spec.radius)
    for lam in spec.values:
        value, _ = eval_with_derivative(p, lam)
        if abs(value) > ROOT_TOL * scale * max(1.0, abs(lam)) ** n:
            raise ValueError(
                f"spectrum entry {lam} is not a root of the polynomial "
                f"(|N| = {abs(value):.3e})"
            )
        if abs(lam) <= origin:
            raise ConditioningError(
                f"Jordan chains undefined for eigenvalue {complex(lam)} at the origin: "
                f"|lambda| = {abs(lam):.3e} is at or below {origin:.3e}"
            )

    modal = np.hstack(
        [
            _chain_columns(lam, int(mult), n)
            for lam, mult in zip(spec.values, spec.multiplicities)
        ]
    )
    cond = np.linalg.cond(modal)
    if not np.isfinite(cond) or cond > CONDITION_CAP:
        raise ConditioningError(
            "modal matrix of Jordan chains is numerically singular", condition=float(cond)
        )
    check_solvability(spec).require()
    modal_inverse = np.linalg.inv(modal)

    signs = alternating_signs(n)
    c_row = p.coeffs[:n] * ((-1.0) ** n + signs)

    blocks = []
    start = 0
    for lam, mult in zip(spec.values, spec.multiplicities):
        mult = int(mult)
        right = modal[:, start : start + mult]
        left = modal_inverse[start : start + mult, :]
        pad = np.zeros(mult - 1)
        # the lower triangular Toeplitz (c_row @ right)[i - j]: a Hankel with its columns
        # reversed, copied contiguous so that products with it take the BLAS path
        toeplitz = _hankel(np.concatenate([pad, c_row @ right]))[:, ::-1].copy()
        hankel = _hankel(np.concatenate([left[:, n - 1], pad]))  # upper anti-triangular
        blocks.append(JordanBlockChain(lam, mult, right, left, toeplitz, hankel))
        start += mult
    return JordanChainSet(build_companion(p).system(), spec, blocks, modal, modal_inverse, p, c_row)
