"""Spectral decompositions of the controllability Gramian over the system
eigenvalues: infinite and finite horizon, simple and multiple spectra,
companion and original coordinates, arbitrary initial conditions.

Sign convention.  The raw eigen-indexed component of the algebraic solution is

    P_hat_i = x_i x_i^T J / (-N'(lambda_i) N(-lambda_i)),

with J = diag(-1, +1, ..., (-1)^n).  The minus sign in the denominator is
pinned by the scalar system xdot = -x + u, whose Gramian is P = 1/2, and is
enforced globally by the Lyapunov-residual checks in the test suite.

Every simple-spectrum builder takes one companion.EigenStructure, made by
eigen_structure, which has already refused multiple and unsolvable spectra
and fixed the working precision; the builders only combine its entries.

Matrix exponentials inside these formulas are evaluated spectrally (residue
expansion for simple spectra, resolvent coefficients for multiple ones); the
independent scaling-and-squaring path lives in the oracle module and shares
no code with this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .companion import (
    EigenStructure,
    JordanChainSet,
    SimilarityTransform,
    alternating_signs,
    jordan_chains_companion,
    require_solvable,
)
from .spectrum import DEFAULT_TOLERANCES, Polynomial, Spectrum

ORBIT_IMAG_TOL = 1e-9  # imaginary part of a conjugate-orbit sum, relative to its entry scale


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def merge_conjugate_components(components: dict, spectrum, kind: str) -> dict:
    """Sum components over conjugate index orbits, returning real matrices.

    Keys are the orbit representatives (smallest member).  Raises if an orbit
    sum keeps a non-negligible imaginary part, which means the spectrum was
    not conjugate closed.
    """
    if spectrum is None:
        raise ValueError("conjugate merging needs the source spectrum")
    partner = spectrum.conjugate_partner()

    def orbit(key):
        if kind == "eigen":
            mate = int(partner[key])
            return [key] if mate == key else sorted({key, mate})
        i, j = key
        mate = (int(partner[i]), int(partner[j]))
        return [key] if mate == key else sorted({key, mate})

    merged = {}
    seen = set()
    for key in components:
        members = orbit(key)
        canon = members[0]
        if canon in seen:
            continue
        seen.add(canon)
        total = sum(components[k] for k in members)
        scale = max(1e-300, float(np.max(np.abs(total))))
        if np.max(np.abs(total.imag)) > ORBIT_IMAG_TOL * scale:
            raise ValueError(
                "conjugate-orbit sum has a non-negligible imaginary part; "
                "spectrum is not conjugate closed"
            )
        merged[canon] = total.real
    return merged


def _require_horizon(t: float):
    if not (np.isfinite(t) and t >= 0.0):
        raise ValueError(f"horizon must be finite and nonnegative, got {t}")


@dataclass(frozen=True)
class SpectralComponentSet:
    """Eigen- or pair-indexed spectral components of a Gramian or of its
    inverse.

    ``components`` maps an eigen index i (or an index pair (i, j)) to a
    complex n x n matrix.  Raw components preserve orthogonality relations
    (raw inverse eigen components are rank one and orthogonal against the
    Gramian eigenparts); symmetrized components are the Hermitian parts and
    carry the physical (energy) interpretation.  ``accurate_total`` (set when
    the set is built from an extended EigenStructure) is the component sum
    accumulated at 40 digits from the structure's polished eigenvalues,
    before rounding; near degeneracy makes resummation of the stored
    components lossier.
    """

    components: dict
    kind: str  # 'eigen' | 'pair'
    flavor: str = "raw"  # 'raw' | 'symmetrized'
    coordinate: str = "companion"  # 'companion' | 'original'
    poly: Polynomial | None = None
    spectrum: Spectrum | None = None
    accurate_total: np.ndarray | None = None

    def symmetrized(self) -> "SpectralComponentSet":
        if self.flavor == "symmetrized":
            return self
        parts = {k: hermitian_part(v) for k, v in self.components.items()}
        total = None if self.accurate_total is None else hermitian_part(self.accurate_total)
        return replace(self, components=parts, flavor="symmetrized", accurate_total=total)

    def total(self) -> np.ndarray:
        if self.accurate_total is not None:
            return self.accurate_total
        return sum(self.components.values())

    def merged_real(self) -> "SpectralComponentSet":
        """Aggregate conjugate index pairs into real matrices.

        For a real system with a conjugate-closed spectrum the sum over each
        conjugate orbit is real; the residual imaginary part must stay below
        ORBIT_IMAG_TOL relative to the entry scale.  The zero-plaid structure
        of complex-eigenvalue parts only shows on these merged components.
        """
        merged = merge_conjugate_components(self.components, self.spectrum, self.kind)
        total = None if self.accurate_total is None else self.accurate_total.real
        return replace(self, components=merged, accurate_total=total)


@dataclass(frozen=True)
class InitialCondition:
    """Symmetric initial value P(0) of the differential Lyapunov equation."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"initial condition must be square, got {m.shape}")
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m - m.T)) > 1e-12 * scale:
            raise ValueError("initial condition must be symmetric")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ExpTerm:
    """One exponential term: coeff * e^{rate t} * t^power / power! applied to
    e^{A^T t} on the right when matrix_exp is set."""

    coeff: np.ndarray
    rate: complex
    power: int = 0
    matrix_exp: bool = False

    def value(self, t: float, expm_t: np.ndarray | None) -> np.ndarray:
        factor = np.exp(self.rate * t) * t**self.power / math.factorial(self.power)
        out = self.coeff * factor
        if self.matrix_exp:
            out = out @ expm_t
        return out


@dataclass(frozen=True)
class FiniteGramianDecomposition:
    """Finite-horizon decomposition: static parts plus exponential terms.

    Evaluating at the stored horizon (or any other time) yields the per-index
    matrices of the finite Gramian; everything vanishes at t = 0 for a zero
    initial condition.
    """

    static: SpectralComponentSet
    terms: dict
    t: float
    expm_transpose: Callable[[float], np.ndarray]

    def components(self, t: float | None = None) -> dict:
        t = self.t if t is None else t
        expm_t = self.expm_transpose(t) if self.terms else None
        return {
            key: static_part + sum(term.value(t, expm_t) for term in self.terms.get(key, []))
            for key, static_part in self.static.components.items()
        }

    def total(self, t: float | None = None) -> np.ndarray:
        return sum(self.components(t).values())

    def component_set(self, t: float | None = None) -> SpectralComponentSet:
        """The raw components at t as a set; its total() is total(t)."""
        return replace(self.static, components=self.components(t), accurate_total=None)


def _eigenparts(es: EigenStructure) -> dict:
    """Raw eigen components x_i x_i^T J / (-N'(lambda_i) N(-lambda_i))."""
    signs = alternating_signs(es.poly.degree)
    return {
        i: np.outer(x, x) * signs[None, :] / (-deriv * mirror)
        for i, (x, deriv, mirror) in enumerate(zip(es.right, es.derivs, es.mirrors))
    }


def _expm_transpose_simple(lams: np.ndarray, residues) -> Callable:
    """e^{A_C^T t} by residue expansion, sum_j R_j^T e^{lambda_j t}."""

    def evaluate(t: float) -> np.ndarray:
        return sum(np.exp(lam * t) * r.T for lam, r in zip(lams, residues))

    return evaluate


def infinite_subgramians(es: EigenStructure) -> SpectralComponentSet:
    """Eigen-indexed decomposition of the algebraic Lyapunov solution.

    Returns the raw components P_hat_i; their Hermitian parts (via
    ``symmetrized()``) sum to the same solution.  From an extended structure
    the components are 80-bit and their 40-digit sum is kept as
    ``accurate_total``, which keeps the cancellation in the sum resolvable
    when the spectrum is nearly degenerate.  Reads x_i, N'(lambda_i) and
    N(-lambda_i) only, so a near-multiple simple spectrum is still decomposed.
    """
    return SpectralComponentSet(
        _eigenparts(es), "eigen", "raw", "companion", es.poly, es.spectrum,
        es.accurate_total(_eigenparts),
    )


def infinite_pair_subgramians(es: EigenStructure) -> SpectralComponentSet:
    """Pair-indexed decomposition; row sums reproduce the eigen components.

    Component (i, j) is -x_i x_j^* / ((lambda_i + conj(lambda_j)) N'(lambda_i)
    conj(N'(lambda_j))).
    """
    # N'(conj(lambda)) = conj(N'(lambda)) for real coefficients; adding 0
    # turns a negative zero imaginary part positive, as Horner returns it
    conj_derivs = np.conj(es.derivs) + 0
    lams, right, derivs = es.eigenvalues, es.right, es.derivs
    k = lams.size
    parts = {
        (i, j): -np.outer(right[i], np.conj(right[j]))
        / ((lams[i] + np.conj(lams[j])) * derivs[i] * conj_derivs[j])
        for i in range(k)
        for j in range(k)
    }
    return SpectralComponentSet(parts, "pair", "raw", "companion", es.poly, es.spectrum)


def finite_subgramians(es: EigenStructure, t: float) -> FiniteGramianDecomposition:
    """Eigen-indexed decomposition of the finite Gramian with P(0) = 0.

    Component i evaluates to P_hat_i (I - e^{(lambda_i I + A_C^T) t}).
    From an extended structure everything is built and evaluated in 80-bit
    precision, which the product identity with the finite inverse needs at
    stiff horizons.  The exponential needs the residues, so a near-multiple
    eigenvalue raises MultipleEigenvalueError.
    """
    _require_horizon(t)
    parts = _eigenparts(es)
    static = SpectralComponentSet(parts, "eigen", "raw", "companion", es.poly, es.spectrum)
    terms = {
        i: [ExpTerm(-parts[i], lam, matrix_exp=True)] for i, lam in enumerate(es.eigenvalues)
    }
    return FiniteGramianDecomposition(
        static, terms, t, _expm_transpose_simple(es.eigenvalues, es.residues)
    )


def finite_pair_subgramians(pairs: SpectralComponentSet, t: float) -> FiniteGramianDecomposition:
    """Pair-indexed finite decomposition of the raw infinite pair set: component
    (i, j) evaluates to (e^{(lambda_i + conj(lambda_j)) t} - 1)/(lambda_i +
    conj(lambda_j)) times the pair numerator, i.e. P_hat_ij (1 - e^{st})."""
    _require_horizon(t)
    if pairs.kind != "pair" or pairs.flavor != "raw":
        raise ValueError("finite pair components expect the raw pair-indexed Gramian set")
    values = pairs.spectrum.values
    terms = {
        (i, j): [ExpTerm(-part, values[i] + np.conj(values[j]))]
        for (i, j), part in pairs.components.items()
    }
    return FiniteGramianDecomposition(pairs, terms, t, lambda t: None)


def _require_initial(es: EigenStructure, p0: InitialCondition):
    if p0.n != es.poly.degree:
        raise ValueError("initial condition dimension does not match the system")


def homogeneous_subgramians(
    es: EigenStructure, p0: InitialCondition, t: float
) -> SpectralComponentSet:
    """Eigen-indexed decomposition of the homogeneous solution with P(0) = P_0,
    evaluated at t: components R_i P_0 e^{(lambda_i I + A_C^T) t}, whose sum
    reproduces P_0 at t = 0."""
    _require_initial(es, p0)
    lams = es.eigenvalues
    expm_t = _expm_transpose_simple(lams, es.residues)(t)
    parts = {
        i: es.residues[i] @ p0.matrix @ expm_t * np.exp(lams[i] * t) for i in range(lams.size)
    }
    return SpectralComponentSet(parts, "eigen", "raw", "companion", es.poly, es.spectrum)


def homogeneous_pair_subgramians(
    es: EigenStructure, p0: InitialCondition, t: float
) -> SpectralComponentSet:
    """Pair-indexed decomposition of the homogeneous solution with P(0) = P_0,
    evaluated at t: components R_i P_0 R_j^* e^{(lambda_i + conj(lambda_j)) t},
    whose sum reproduces P_0 at t = 0."""
    _require_initial(es, p0)
    residues, lams = es.residues, es.eigenvalues
    parts = {
        (i, j): residues[i]
        @ p0.matrix
        @ residues[j].conj().T
        * np.exp((lams[i] + np.conj(lams[j])) * t)
        for i in range(lams.size)
        for j in range(lams.size)
    }
    return SpectralComponentSet(parts, "pair", "raw", "companion", es.poly, es.spectrum)


def lift_to_original(
    decomp: SpectralComponentSet, transform: SimilarityTransform
) -> SpectralComponentSet:
    """Map companion-coordinate components to the original basis of
    ``transform``, which must be built for the decomposition's polynomial.

    Each component X becomes C (H_u X H_u (x) I_m) C^T with C the
    controllability matrix; for single-input systems this equals T X T^T.
    """
    if decomp.coordinate != "companion":
        raise ValueError("decomposition is not in companion coordinates")
    transform.require_polynomial(decomp.poly)
    ctrb, h_u = transform.controllability, transform.hankel
    eye_m = np.eye(ctrb.shape[1] // ctrb.shape[0])  # C is n x (n m)

    def sandwich(x):
        return ctrb @ np.kron(h_u @ x @ h_u, eye_m) @ ctrb.T

    lifted = {key: sandwich(x) for key, x in decomp.components.items()}
    total = None if decomp.accurate_total is None else sandwich(decomp.accurate_total)
    return replace(decomp, components=lifted, coordinate="original", accurate_total=total)


def resolvent_coefficients(chains: JordanChainSet) -> list:
    """Partial-fraction coefficients of the resolvent from Jordan chains.

    For block i, coefficient k (1-based) is sum_l x_l (y_{k-1+l})^T over the
    chain vectors; for a simple eigenvalue this is the residue R_i.
    """
    out = []
    for block in chains.blocks:
        ni = block.multiplicity
        coeffs = []
        for k in range(1, ni + 1):
            a_k = np.zeros((chains.modal.shape[0],) * 2, dtype=complex)
            for l in range(ni + 1 - k):
                a_k += np.outer(block.right[:, l], block.left[k - 1 + l, :])
            coeffs.append(a_k)
        out.append(coeffs)
    return out


def _expm_transpose_chains(chains: JordanChainSet, coeffs: list) -> Callable:
    """e^{A^T t} from the resolvent coefficients:
    e^{A t} = sum_i sum_k A_hat_k^{(i)} e^{lambda_i t} t^{k-1}/(k-1)!."""

    def evaluate(t: float) -> np.ndarray:
        n = chains.modal.shape[0]
        out = np.zeros((n, n), dtype=complex)
        for block, block_coeffs in zip(chains.blocks, coeffs):
            for k, a_k in enumerate(block_coeffs, start=1):
                out += a_k * (np.exp(block.eigenvalue * t) * t ** (k - 1) / math.factorial(k - 1))
        return out.T

    return evaluate


def _is_companion(a: np.ndarray) -> bool:
    n = a.shape[0]
    if n == 1:
        return True
    expected = np.zeros((n - 1, n))
    expected[:, 1:] = np.eye(n - 1)
    return bool(np.array_equal(a[: n - 1, :], expected))


def multiple_eig_gramian(
    a,
    b,
    spec: Spectrum,
    t: float | None = None,
    chains: JordanChainSet | None = None,
    solvability_tol: float = DEFAULT_TOLERANCES.solvability,
) -> FiniteGramianDecomposition:
    """Eigen-indexed Gramian decomposition for spectra with multiplicities.

    Component i of the algebraic solution is
    sum_k A_hat_k^{(i)} B B^T (-lambda_i I - A^T)^{-k}; the finite-horizon
    terms subtract the polynomial-in-t exponentials.  When ``chains`` is not
    supplied the matrix must be in companion form so the closed-form chains
    apply; otherwise pass chains built for the given system.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    require_solvable(spec, solvability_tol)
    n = a.shape[0]
    companion = _is_companion(a)
    # a companion matrix carries its polynomial exactly in the last row
    poly = Polynomial(np.append(-a[-1], 1.0)) if companion else None
    if chains is None:
        if not companion:
            raise ValueError("matrix is not in companion form; supply Jordan chains explicitly")
        chains = jordan_chains_companion(spec, poly)
    coeffs = resolvent_coefficients(chains)

    bbt = b @ b.T
    statics = {}
    terms = {}
    for i, (block, block_coeffs) in enumerate(zip(chains.blocks, coeffs)):
        lam = block.eigenvalue
        inv = np.linalg.inv(-lam * np.eye(n) - a.T.astype(complex))
        rights = []  # B B^T (-lambda I - A^T)^{-k}, k = 1..n_i
        g = bbt.astype(complex)
        for _ in range(block.multiplicity):
            g = g @ inv
            rights.append(g)
        statics[i] = sum(
            a_k @ rights[k] for k, a_k in enumerate(block_coeffs)
        )
        term_list = []
        for k, a_k in enumerate(block_coeffs, start=1):
            for l in range(1, k + 1):
                term_list.append(
                    ExpTerm(-(a_k @ rights[l - 1]), lam, power=k - l, matrix_exp=True)
                )
        terms[i] = term_list

    coordinate = "companion" if companion else "original"
    static_set = SpectralComponentSet(statics, "eigen", "raw", coordinate, poly, spec)
    if t is not None:
        _require_horizon(t)
    return FiniteGramianDecomposition(
        static_set, terms if t is not None else {}, 0.0 if t is None else float(t),
        _expm_transpose_chains(chains, coeffs),
    )


def exponent_collisions(spec: Spectrum, tol: float = 1e-10) -> list:
    """Pairs of index pairs whose exponents lambda_i + conj(lambda_j) collide.

    Pair components are unique only when all these sums are distinct; the
    decomposition is still valid, so collisions are reported, not rejected.
    Two sums collide when |s_a - s_b| <= tol (1 + radius).  The n^2 sums are
    sorted by real part and each is compared only with the sums whose real
    part lies within that window, since |s_a - s_b| >= |Re s_a - Re s_b|.
    The result lists ((i, j), (k, l)) with (i, j) < (k, l), in lexicographic
    order.
    """
    lams = spec.values
    n = lams.size
    scale = tol * (1.0 + spec.radius)
    flat = (lams[:, None] + np.conj(lams)[None, :]).ravel()  # index i * n + j
    order = np.argsort(flat.real).tolist()
    sums = flat.tolist()
    hits = []
    for p, a in enumerate(order):
        for q in range(p + 1, len(order)):
            b = order[q]
            if sums[b].real - sums[a].real > scale:
                break
            if abs(sums[a] - sums[b]) <= scale:
                hits.append((min(a, b), max(a, b)))
    hits.sort()
    return [(divmod(a, n), divmod(b, n)) for a, b in hits]


def zero_plaid_defect(m: np.ndarray, alternation: bool = True):
    """Deviation of a matrix from the zero-plaid Hankel alternating pattern.

    Returns (odd_defect, alternation_defect), both relative to the largest
    entry: zeros at positions with odd 1-based index sum, and on even
    anti-diagonals mu + nu = 2k the entry equals (-1)^(nu-k) times the k-th
    diagonal entry.  The alternation part applies to the Gramian components
    only; the inverse components satisfy just the odd-position zeros.
    """
    m = np.asarray(m)
    n = m.shape[0]
    scale = max(1e-300, float(np.max(np.abs(m))))
    odd = 0.0
    alt = 0.0
    for mu in range(1, n + 1):
        for nu in range(1, n + 1):
            if (mu + nu) % 2 == 1:
                odd = max(odd, abs(m[mu - 1, nu - 1]))
            elif alternation:
                k = (mu + nu) // 2
                expected = (-1.0) ** (nu - k) * m[k - 1, k - 1]
                alt = max(alt, abs(m[mu - 1, nu - 1] - expected))
    return odd / scale, alt / scale
