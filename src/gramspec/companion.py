"""Companion realization, similarity transform, eigenvectors, Jordan chains.

All closed-form spectral machinery lives in the controllability canonical
basis: the dynamics matrix carries the characteristic coefficients in its
last row and the input is the last unit vector.  Right eigenvectors are
Vandermonde columns, left eigenvectors come from a Hankel matrix of the
coefficients, and Jordan chains for multiple eigenvalues follow a Pascal-type
recursion in closed form.  For a simple spectrum, eigen_structure is the one
place that decides whether, and at what working precision, a closed form
runs: it refuses multiple and unsolvable spectra, and its EigenStructure holds
the per-eigenvalue data every closed form is built from.  similarity_transform
is the one place that maps companion coordinates to a system's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    ConditioningError,
    ControllabilityError,
    MultipleEigenvalueError,
    SolvabilityError,
)
from .spectrum import (
    DEFAULT_TOLERANCES,
    Polynomial,
    SolvabilityReport,
    Spectrum,
    check_solvability,
    eval_with_derivative,
)

CONDITION_CAP = 1e12
POLY_TOL = 1e-8  # relative defect allowed in the similarity and polynomial-match checks
ROOT_TOL = 1e-8  # relative |N(lambda)| and origin distance allowed for a Jordan-chain entry
SEPARATION_TOL = 1e-8  # eigenvalue separation, relative to 1 + radius, for Lagrange residues
ORIGIN_TOL = 1e-12  # |lambda| at or below this times (1 + max|a_k|) has no left eigenvector
DERIV_FLOOR = 1e-8  # |N'(lambda)| at or below this times max|a_k| counts as a multiple eigenvalue
_MP_DPS = 40  # digits of the extended root polish and of accurate_total


@dataclass(frozen=True)
class LtiSystem:
    """Continuous LTI pair (A, B); the object under analysis."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.asarray(self.b, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got shape {a.shape}")
        if b.shape[0] != a.shape[0]:
            raise ValueError(f"B must have {a.shape[0]} rows, got shape {b.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("system matrices must have finite entries")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]


@dataclass(frozen=True)
class CompanionRealization:
    """Companion pair (A_C, b_C) of a monic characteristic polynomial."""

    poly: Polynomial
    a_c: np.ndarray
    b_c: np.ndarray

    @property
    def n(self) -> int:
        return self.poly.degree

    def system(self) -> LtiSystem:
        return LtiSystem(self.a_c, self.b_c)


@dataclass(frozen=True)
class SimilarityTransform:
    """Change of basis T = C * H_u from the companion coordinates of ``poly``
    to a system's own; ``t`` is None for a multi-input system."""

    t: np.ndarray | None
    hankel: np.ndarray
    controllability: np.ndarray
    poly: Polynomial

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


def hankel_upper(p: Polynomial) -> np.ndarray:
    """Upper anti-triangular Hankel of coefficients, first row (a_1 ... a_{n-1} 1)."""
    n = p.degree
    h = np.zeros((n, n))
    for i in range(n):
        for j in range(n - i):
            h[i, j] = p.coeffs[i + j + 1]
    return h


def hankel_lower(p: Polynomial) -> np.ndarray:
    """Lower anti-triangular Hankel, last row (a_0 ... a_{n-1})."""
    n = p.degree
    h = np.zeros((n, n))
    for i in range(n):
        for j in range(n - 1 - i, n):
            h[i, j] = p.coeffs[i + j + 1 - n]
    return h


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


def right_eigenvector(lam: complex, n: int) -> np.ndarray:
    """Vandermonde eigenvector (1, lam, lam^2, ..., lam^{n-1})."""
    return lam ** np.arange(n, dtype=float)


def left_eigenvector(lam: complex, p: Polynomial) -> np.ndarray:
    """Left eigenvector y = H_l x / lam^n, normalized so the last entry is -1.

    lam = 0 (excluded by the solvability condition with i = j) is rejected.
    """
    return _evaluate(p, Spectrum.simple([lam]), np.asarray([lam])).left[0]


def residue_companion(lam: complex, p: Polynomial) -> np.ndarray:
    """Resolvent residue R = x y^T / (-N'(lam)) for a simple eigenvalue."""
    return _evaluate(p, Spectrum.simple([lam]), np.asarray([lam])).residues[0]


@dataclass(frozen=True)
class EigenStructure:
    """Per-eigenvalue data of a simple companion spectrum, evaluated once.

    Made by eigen_structure, which admits only a simple, solvable
    ``spectrum``; ``solvability`` is the report it passed (None for the
    one-eigenvalue structures of left_eigenvector and residue_companion).
    Every simple-spectrum closed form (Gramian eigen and pair parts, inverse
    parts, residues, finite-horizon and homogeneous terms) is built from it.
    Row i of ``right`` is the Vandermonde vector x_i; ``derivs[i]`` is
    N'(lambda_i) and ``mirrors[i]`` is N(-lambda_i), both by Horner.  Two
    more entries are formed on first use, each behind the check that guards
    it: ``left`` (row i is y_i = H_l x_i / lambda_i^n) raises ValueError for
    an eigenvalue at the origin, and ``residues`` (R_i = x_i y_i^T /
    (-N'(lambda_i))) raises MultipleEigenvalueError when |N'(lambda_i)| is at
    or below DERIV_FLOOR max|a_k|.

    The working precision is the dtype of ``eigenvalues``: complex128, or
    clongdouble for an ``extended`` structure, whose eigenvalues are the
    roots polished at 40 digits (kept as ``polished``) and rounded to 80
    bits.  Builders combine the entries one eigenvalue at a time, in scalar
    arithmetic.
    """

    poly: Polynomial
    spectrum: Spectrum
    eigenvalues: np.ndarray
    right: np.ndarray
    derivs: np.ndarray
    mirrors: np.ndarray
    solvability: SolvabilityReport | None = None
    polished: np.ndarray | None = None

    @property
    def extended(self) -> bool:
        return self.polished is not None

    @cached_property
    def left(self) -> np.ndarray:
        scale = ORIGIN_TOL * (1.0 + np.max(np.abs(self.poly.coeffs)))
        if any(abs(lam) <= scale for lam in self.eigenvalues):
            raise ValueError("left eigenvector undefined for eigenvalue at the origin")
        h_l = hankel_lower(self.poly)
        n = self.poly.degree
        return np.stack([(h_l @ x) / lam**n for lam, x in zip(self.eigenvalues, self.right)])

    @cached_property
    def residues(self) -> np.ndarray:
        scale = float(np.max(np.abs(self.poly.coeffs)))
        for lam, deriv in zip(self.eigenvalues, self.derivs):
            if abs(deriv) <= DERIV_FLOOR * scale:
                raise MultipleEigenvalueError(
                    f"|N'({lam})| = {float(abs(deriv)):.3e} is below tolerance; eigenvalue "
                    "is numerically multiple, use the Jordan-chain decomposition"
                )
        return np.stack(
            [np.outer(x, y) / (-d) for x, y, d in zip(self.right, self.left, self.derivs)]
        )

    def accurate_total(self, parts: Callable[["EigenStructure"], dict]) -> np.ndarray | None:
        """Sum of a builder's raw components accumulated at 40 digits, or
        None for a double-precision structure.

        Near-degenerate spectra make individual components exceed their sum by
        many orders of magnitude; a sum of components stored at any fixed
        precision then loses the cancellation, so the components are formed
        from the polished eigenvalues in mpmath and summed before rounding.
        """
        if self.polished is None:
            return None
        from mpmath import mp

        with mp.workdps(_MP_DPS):
            total = sum(parts(_evaluate(self.poly, self.spectrum, self.polished)).values())
            return np.array(
                [[_mp_to_clongdouble(z) for z in row] for row in total], dtype=np.clongdouble
            )


def _evaluate(
    p: Polynomial,
    spec: Spectrum,
    values: np.ndarray,
    solvability: SolvabilityReport | None = None,
    polished: np.ndarray | None = None,
) -> EigenStructure:
    n = p.degree
    return EigenStructure(
        p,
        spec,
        values,
        np.stack([right_eigenvector(lam, n) for lam in values]),
        np.array([eval_with_derivative(p, lam)[1] for lam in values]),
        np.array([eval_with_derivative(p, -lam)[0] for lam in values]),
        solvability,
        polished,
    )


def _mp_polished_roots(poly: Polynomial, values: np.ndarray) -> np.ndarray:
    """Newton-polish simple roots in arbitrary precision (object array of
    mpmath numbers).

    Horner evaluation noise at any fixed precision caps the achievable root
    accuracy on ill-conditioned coefficient sets; polishing past it keeps the
    eigenvector identities exact to the working precision downstream.
    """
    from mpmath import mp, mpc, mpf

    coefficients = [mpf(float(c)) for c in poly.coeffs]
    polished = np.empty(values.size, dtype=object)
    with mp.workdps(_MP_DPS):
        for k, lam in enumerate(values):
            z = mpc(lam.real, lam.imag)
            for _ in range(5):
                value = deriv = mpc(0)
                for c in coefficients[::-1]:
                    deriv = deriv * z + value
                    value = value * z + c
                if deriv == 0:
                    break
                z = z - value / deriv
            polished[k] = z
    return polished


def _mp_to_clongdouble(z) -> np.clongdouble:
    # string round-trip: casting through complex128 would lose the digits
    # the polish recovered
    from mpmath import nstr

    return np.clongdouble(np.longdouble(nstr(z.real, 25))) + 1j * np.clongdouble(
        np.longdouble(nstr(z.imag, 25))
    )


def require_solvable(
    spec: Spectrum, tol: float = DEFAULT_TOLERANCES.solvability
) -> SolvabilityReport:
    """The solvability report of a spectrum; raises SolvabilityError unless ok."""
    report = check_solvability(spec, tol)
    if not report.ok:
        raise SolvabilityError(report)
    return report


def eigen_structure(
    p: Polynomial,
    spec: Spectrum,
    solvability_tol: float = DEFAULT_TOLERANCES.solvability,
    extended: bool = False,
) -> EigenStructure:
    """The EigenStructure of a simple, solvable spectrum.

    Raises SolvabilityError when some |lambda_i + lambda_j| is at or below
    ``solvability_tol`` (1 + radius), then MultipleEigenvalueError for a
    spectrum with multiplicities.  ``extended`` polishes the roots once at 40
    digits and evaluates in 80-bit precision, for stiff problems: component
    magnitudes can exceed their sum by many orders (near-degenerate spectra)
    and finite Gramians of unstable systems at large t span ranges double
    precision cannot resolve.
    """
    report = require_solvable(spec, solvability_tol)
    if not spec.is_simple:
        raise MultipleEigenvalueError(
            "spectrum has multiple eigenvalues; use the multiple-eigenvalue "
            "decomposition (multiple_eig_gramian / inverse_multiple_eig)"
        )
    if not extended:
        return _evaluate(p, spec, spec.values, report)
    polished = _mp_polished_roots(p, spec.values)
    values = np.array([_mp_to_clongdouble(z) for z in polished], dtype=np.clongdouble)
    return _evaluate(p, spec, values, report, polished)


def residues_general(a, spec: Spectrum) -> np.ndarray:
    """Resolvent residues of an arbitrary matrix with a simple spectrum.

    Lagrange form R_i = prod_{j != i} (A - lambda_j I) / (lambda_i - lambda_j);
    avoids a general eigensolver.
    """
    a = np.asarray(a, dtype=float)
    if not spec.is_simple:
        raise MultipleEigenvalueError("Lagrange residues require a simple spectrum")
    lams = spec.values
    n = a.shape[0]
    if lams.size != n:
        raise ValueError("spectrum size does not match the matrix dimension")
    if lams.size > 1:
        sep = min(
            abs(lams[i] - lams[j]) for i in range(n) for j in range(i + 1, n)
        )
        if sep <= SEPARATION_TOL * (1.0 + spec.radius):
            raise MultipleEigenvalueError(
                f"eigenvalue separation {sep:.3e} is below the cluster tolerance"
            )
    residues = []
    for i, lam_i in enumerate(lams):
        r = np.eye(n, dtype=complex)
        for j, lam_j in enumerate(lams):
            if j != i:
                r = r @ (a - lam_j * np.eye(n)) / (lam_i - lam_j)
        residues.append(r)
    return np.stack(residues)


@dataclass(frozen=True)
class JordanBlockChain:
    """Chain data for one clustered eigenvalue.

    ``right`` holds the chain columns x_1..x_{n_i} (n x n_i), ``left`` the
    matching rows of the inverse modal matrix (n_i x n).  ``toeplitz`` and
    ``hankel`` are the companion-only factor matrices (None when the chains
    came from a non-companion system).
    """

    eigenvalue: complex
    multiplicity: int
    right: np.ndarray
    left: np.ndarray
    toeplitz: np.ndarray | None = None
    hankel: np.ndarray | None = None


@dataclass(frozen=True)
class JordanChainSet:
    """Jordan chains of all clustered eigenvalues plus the full modal pair."""

    spectrum: Spectrum
    blocks: list
    modal: np.ndarray
    modal_inverse: np.ndarray
    c_row: np.ndarray | None = None

    @classmethod
    def from_modal_matrices(cls, spec: Spectrum, modal, modal_inverse) -> "JordanChainSet":
        """Wrap externally supplied chains (general, non-companion systems)."""
        modal = np.asarray(modal, dtype=complex)
        modal_inverse = np.asarray(modal_inverse, dtype=complex)
        blocks = []
        start = 0
        for lam, mult in zip(spec.values, spec.multiplicities):
            blocks.append(
                JordanBlockChain(
                    lam, int(mult), modal[:, start : start + mult],
                    modal_inverse[start : start + mult, :],
                )
            )
            start += mult
        return cls(spec, blocks, modal, modal_inverse)


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
    """Jordan chains, Toeplitz and Hankel factors for a companion system.

    The left chains come from inverting the full modal matrix once; an
    ill-conditioned modal matrix (condition above 1e12, typically from
    under-clustered nearly-multiple eigenvalues) is rejected.
    """
    n = p.degree
    if spec.n != n:
        raise ValueError("total spectrum multiplicity does not match the polynomial degree")
    scale = np.max(np.abs(p.coeffs))
    for lam in spec.values:
        value, _ = eval_with_derivative(p, lam)
        if abs(value) > ROOT_TOL * scale * max(1.0, abs(lam)) ** n:
            raise ValueError(
                f"spectrum entry {lam} is not a root of the polynomial "
                f"(|N| = {abs(value):.3e})"
            )
        if abs(lam) <= ROOT_TOL * (1.0 + spec.radius):
            raise ValueError("Jordan chains undefined for an eigenvalue at the origin")

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
    modal_inverse = np.linalg.inv(modal)

    signs = alternating_signs(n)
    c_row = p.coeffs[:n] * ((-1.0) ** n + signs)

    blocks = []
    start = 0
    for lam, mult in zip(spec.values, spec.multiplicities):
        mult = int(mult)
        right = modal[:, start : start + mult]
        left = modal_inverse[start : start + mult, :]
        tvals = c_row @ right
        toeplitz = np.zeros((mult, mult), dtype=complex)
        for i in range(mult):
            for j in range(i + 1):
                toeplitz[i, j] = tvals[i - j]
        hvals = left[:, n - 1]
        hankel = np.zeros((mult, mult), dtype=complex)
        for i in range(mult):
            for j in range(mult - i):
                hankel[i, j] = hvals[i + j]
        blocks.append(JordanBlockChain(lam, mult, right, left, toeplitz, hankel))
        start += mult
    return JordanChainSet(spec, blocks, modal, modal_inverse, c_row)
