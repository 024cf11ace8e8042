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
and fixed the working precision; the builders only combine its entries.  The
multiple-eigenvalue builder likewise takes one companion.JordanChainSet.

Matrix exponentials inside these formulas are evaluated spectrally (residue
expansion for simple spectra, resolvent coefficients for multiple ones); the
independent scaling-and-squaring path lives in the oracle module and shares
no code with this one.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType

import numpy as np

from .companion import EigenStructure, JordanChainSet, SimilarityTransform, alternating_signs
from .errors import ConditioningError, Record
from .spectrum import Polynomial, Spectrum

ORBIT_IMAG_TOL = 1e-9  # imaginary part of a conjugate-orbit sum, relative to its entry scale


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """The Hermitian part of a matrix, or of each matrix of a (k, n, n) stack."""
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


def modulus(z: np.ndarray) -> np.ndarray:
    """|z| of each entry, rounded as Python's abs rounds a complex scalar
    (numpy's complex abs may differ in the last bit)."""
    return np.hypot(z.real, z.imag)


def _require_horizon(t: float):
    if not (np.isfinite(t) and t >= 0.0):
        raise ValueError(f"horizon must be finite and nonnegative, got {t}")


def _outer_stack(coeffs: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The stack of the rank-one coeffs[i] left[i] right[i]^T, one broadcast."""
    return coeffs[:, None, None] * (left[:, :, None] * right[:, None, :])


class SpectralComponentSet(Record):
    """Eigen- or pair-indexed spectral components of a Gramian or of its
    inverse.

    ``keys`` lists the eigen indices i (or index pairs (i, j)) and ``stack``
    holds their complex n x n matrices as one read-only (k, n, n) array, in
    the order of the keys; ``components`` is the read-only mapping from key
    to matrix.  Raw components preserve orthogonality relations (raw inverse
    eigen components are rank one and orthogonal against the Gramian
    eigenparts); symmetrized components are the Hermitian parts and carry the
    physical (energy) interpretation.  A simple spectrum's sets are made by
    rank_one, from the factors of the EigenStructure.  Every set is in the
    companion coordinates of ``poly``; lift_to_original and riccati_general
    map its sum to a system's own.
    """

    def __init__(self, keys: tuple, stack: np.ndarray, kind: str, flavor: str = "raw",
                 poly: Polynomial | None = None, spectrum: Spectrum | None = None):
        # kind 'eigen' | 'pair', flavor 'raw' | 'symmetrized'
        keys, stack = tuple(keys), np.asarray(stack).view()
        if stack.ndim != 3 or stack.shape[0] != len(keys) or stack.shape[1] != stack.shape[2]:
            raise ValueError(f"{len(keys)} keys need a ({len(keys)}, n, n) stack, "
                             f"got shape {stack.shape}")
        stack.flags.writeable = False
        self.__dict__.update(keys=keys, stack=stack, kind=kind, flavor=flavor, poly=poly,
                             spectrum=spectrum)

    @classmethod
    def rank_one(cls, es: EigenStructure, kind: str, coeffs: np.ndarray, left: np.ndarray,
                 right: np.ndarray) -> "SpectralComponentSet":
        """The raw companion set of ``es`` of rank-one components, one
        broadcast for all: with kind 'eigen', component i is coeffs[i] left[i]
        right[i]^T; with 'pair', component (i, j), keyed row by row, is
        coeffs[i k + j] left[i] right[j]^T.  Callers form ``coeffs`` one
        scalar at a time, as numpy's array complex multiply rounds some
        products differently."""
        k = es.eigenvalues.size
        if kind == "eigen":
            keys = range(k)
        else:
            keys = ((i, j) for i in range(k) for j in range(k))
            left, right = np.repeat(left, k, axis=0), np.tile(right, (k, 1))
        return cls(keys, _outer_stack(coeffs, left, right), kind, "raw", es.poly, es.spectrum)

    @functools.cached_property
    def components(self) -> MappingProxyType:
        return MappingProxyType(dict(zip(self.keys, self.stack)))

    def symmetrized(self) -> "SpectralComponentSet":
        return self if self.flavor == "symmetrized" else self._hermitian

    @functools.cached_property  # one symmetrization per set, however many callers
    def _hermitian(self) -> "SpectralComponentSet":
        return self._replace(stack=hermitian_part(self.stack), flavor="symmetrized")

    def total(self) -> np.ndarray:
        """The components added in key order from 0 (numpy's own reduction
        may add in another order)."""
        return functools.reduce(np.add, self.stack, 0)

    def merged_real(self) -> "SpectralComponentSet":
        """Aggregate conjugate index pairs into real matrices.

        For a real system with a conjugate-closed spectrum the sum over each
        conjugate orbit is real; the residual imaginary part must stay below
        ORBIT_IMAG_TOL relative to the entry scale.  The zero-plaid structure
        of complex-eigenvalue parts only shows on these merged components.
        Keys become the orbit representatives (smallest member), in key order.
        """
        if self.spectrum is None:
            raise ValueError("conjugate merging needs the source spectrum")
        partner = self.spectrum.conjugate_partner()
        index = {key: k for k, key in enumerate(self.keys)}
        if self.kind == "eigen":
            mates = [int(partner[key]) for key in self.keys]
        else:
            mates = [(int(partner[i]), int(partner[j])) for i, j in self.keys]
        canon = [k for k, key in enumerate(self.keys) if key <= mates[k]]
        totals = 0 + self.stack[canon]
        for m, k in enumerate(canon):
            if mates[k] != self.keys[k]:
                totals[m] += self.stack[index[mates[k]]]
        scale = np.fmax(1e-300, np.abs(totals).max(axis=(1, 2)))
        if np.any(np.abs(totals.imag).max(axis=(1, 2)) > ORBIT_IMAG_TOL * scale):
            raise ValueError(
                "conjugate-orbit sum has a non-negligible imaginary part; "
                "spectrum is not conjugate closed"
            )
        return self._replace(keys=tuple(self.keys[k] for k in canon), stack=totals.real)


class InitialCondition(Record):
    """Symmetric initial value P(0) of the differential Lyapunov equation."""

    def __init__(self, matrix: np.ndarray):
        m = np.atleast_2d(np.asarray(matrix, dtype=float))
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"initial condition must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("initial condition must have finite entries")
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m - m.T)) > 1e-12 * scale:
            raise ValueError("initial condition must be symmetric")
        self.__dict__["matrix"] = m

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


class Horizon(Record):
    """A simple-spectrum EigenStructure evaluated at one time t, once.

    ``weights[i]`` is e^{lambda_i t} / (-N'(lambda_i)), ``expm_transpose``
    is e^{A_C^T t} = sum_i e^{lambda_i t} R_i^T and row i of ``rows`` is (J
    x_i)^T e^{A_C^T t}, in the structure's precision; every finite-horizon
    builder at t reads them from here, and since the value carries its
    structure, no builder can pair a structure with another's exponential.
    Made by horizon.
    """

    def __init__(self, structure: EigenStructure, t: float, weights: np.ndarray,
                 expm_transpose: np.ndarray):
        self.__dict__.update(structure=structure, t=t, weights=weights,
                             expm_transpose=expm_transpose)

    @functools.cached_property
    def rows(self) -> np.ndarray:
        signs = alternating_signs(self.structure.poly.degree)
        return (self.structure.right * signs) @ self.expm_transpose


def horizon(es: EigenStructure, t: float) -> Horizon:
    """Evaluate ``es`` at the horizon t >= 0.  The exponential is the
    residue expansion as one product Y^T diag(weights) X of the eigenvector
    rows, so a near-multiple eigenvalue raises MultipleEigenvalueError."""
    _require_horizon(t)
    es.require_simple()
    weights = np.array([np.exp(lam * t) / -deriv for lam, deriv in zip(es.eigenvalues, es.derivs)])
    return Horizon(es, t, weights, es.left.T @ (weights[:, None] * es.right))


class FiniteGramianDecomposition(Record):
    """A Gramian decomposition evaluated at one horizon t.

    ``static`` holds the components of the algebraic solution and ``at_t``
    the components of the finite Gramian with P(0) = 0 at t (they vanish at
    t = 0), evaluated with ``expm_transpose`` = e^{A^T t}.  A decomposition
    made without a horizon carries ``static`` only.
    """

    def __init__(self, static: SpectralComponentSet, at_t: SpectralComponentSet | None = None,
                 t: float | None = None, expm_transpose: np.ndarray | None = None):
        self.__dict__.update(static=static, at_t=at_t, t=t, expm_transpose=expm_transpose)


def _plus_terms(static: SpectralComponentSet, terms: np.ndarray) -> SpectralComponentSet:
    """Each static component plus its exponential terms at t: ``terms`` is
    the stack of their sums, each started from 0, which turns a -0.0 entry
    into 0.0 (reports write the sign of a zero, and they keep their bytes
    with this order)."""
    return static._replace(stack=static.stack + terms)


def infinite_subgramians(es: EigenStructure) -> SpectralComponentSet:
    """Eigen-indexed decomposition of the algebraic Lyapunov solution.

    Returns the raw components P_hat_i = c_i x_i (J x_i)^T with c_i =
    1/(-N'(lambda_i) N(-lambda_i)); their Hermitian parts (via
    ``symmetrized()``) sum to the same solution.  From an extended structure
    the components are 80-bit.  Reads x_i, N'(lambda_i) and N(-lambda_i)
    only, so a near-multiple simple spectrum is still decomposed.
    """
    signs = alternating_signs(es.poly.degree)
    coeffs = np.array([1 / (-deriv * mirror) for deriv, mirror in zip(es.derivs, es.mirrors)])
    return SpectralComponentSet.rank_one(es, "eigen", coeffs, es.right, es.right * signs)


def infinite_pair_subgramians(es: EigenStructure) -> SpectralComponentSet:
    """Pair-indexed decomposition; row sums reproduce the eigen components.

    Component (i, j) is c_ij x_i x_j^* with c_ij = -1/((lambda_i +
    conj(lambda_j)) N'(lambda_i) conj(N'(lambda_j))), a k x k table of
    scalars.
    """
    # N'(conj(lambda)) = conj(N'(lambda)) for real coefficients; adding 0
    # turns a negative zero imaginary part positive, as Horner returns it
    conj_derivs = np.conj(es.derivs) + 0
    lams, right, derivs = es.eigenvalues, es.right, es.derivs
    k = lams.size
    coeffs = np.array([-1 / ((lams[i] + np.conj(lams[j])) * derivs[i] * conj_derivs[j])
                       for i in range(k) for j in range(k)])
    return SpectralComponentSet.rank_one(es, "pair", coeffs, right, np.conj(right))


def finite_subgramians(
    h: Horizon, static: SpectralComponentSet | None = None
) -> FiniteGramianDecomposition:
    """Eigen-indexed decomposition of the finite Gramian with P(0) = 0 at the
    horizon's t.

    Component i is P_hat_i (I - e^{(lambda_i I + A_C^T) t}), the raw
    infinite_subgramians component ``static`` (built here when the caller
    passes none) plus the rank-one -(w_i / N(-lambda_i)) x_i r_i^T, w and r
    the horizon's weights and rows.  From an extended structure everything is
    in 80-bit precision, which the product identity with the finite inverse
    needs at stiff horizons.
    """
    es = h.structure
    if static is None:
        static = infinite_subgramians(es)
    elif static.kind != "eigen" or static.flavor != "raw":
        raise ValueError("finite components expect the raw eigen-indexed Gramian set")
    coeffs = np.array([-(w / mirror) for w, mirror in zip(h.weights, es.mirrors)])
    terms = 0 + _outer_stack(coeffs, es.right, h.rows)
    return FiniteGramianDecomposition(static, _plus_terms(static, terms), h.t, h.expm_transpose)


def finite_pair_subgramians(pairs: SpectralComponentSet, t: float) -> SpectralComponentSet:
    """Pair-indexed finite components at t of the raw infinite pair set:
    component (i, j) is (e^{(lambda_i + conj(lambda_j)) t} - 1)/(lambda_i +
    conj(lambda_j)) times the pair numerator, i.e. P_hat_ij (1 - e^{st})."""
    _require_horizon(t)
    if pairs.kind != "pair" or pairs.flavor != "raw":
        raise ValueError("finite pair components expect the raw pair-indexed Gramian set")
    values = pairs.spectrum.values
    # scalar exponentials, as numpy's array loops may round differently
    growth = np.array([np.exp((values[i] + np.conj(values[j])) * t) for i, j in pairs.keys])
    return _plus_terms(pairs, 0 + -pairs.stack * growth[:, None, None])


def homogeneous_subgramians(h: Horizon, p0: InitialCondition) -> SpectralComponentSet:
    """Eigen-indexed decomposition of the homogeneous solution with P(0) = P_0,
    evaluated at the horizon's t: components R_i P_0 e^{(lambda_i I + A_C^T) t},
    whose sum reproduces P_0 at t = 0: the rank-one w_i x_i (y_i^T P_0
    e^{A_C^T t}) with the horizon's weights, all rows in one product."""
    es = h.structure
    if p0.n != es.poly.degree:
        raise ValueError("initial condition dimension does not match the system")
    rows = es.left @ (p0.matrix @ h.expm_transpose)
    return SpectralComponentSet.rank_one(es, "eigen", h.weights, es.right, rows)


def lift_to_original(decomp: SpectralComponentSet, transform: SimilarityTransform) -> np.ndarray:
    """The Gramian of ``decomp`` in the original basis of ``transform``,
    which must be built for the decomposition's polynomial.

    It is the Hermitian part of C (H_u X H_u (x) I_m) C^T, with X the
    symmetrized sum of the components and C the controllability matrix (for
    single-input systems T X T^T).  The map is linear, so it lifts the sum
    once: lifted components would cancel in their sum.
    """
    transform.require_polynomial(decomp.poly)
    ctrb, h_u = transform.controllability, transform.hankel
    eye_m = np.eye(ctrb.shape[1] // ctrb.shape[0])  # C is n x (n m)
    x = decomp.symmetrized().total()
    return hermitian_part(ctrb @ np.kron(h_u @ x @ h_u, eye_m) @ ctrb.T)


def resolvent_coefficients(chains: JordanChainSet) -> list:
    """Partial-fraction coefficients of the resolvent from Jordan chains.

    For block i, coefficient k (1-based) is sum_l x_l (y_{k-1+l})^T over the
    chain vectors, one product X_i[:, :n_i-k+1] Y_i[k-1:, :] of the block's
    chain matrices; for a simple eigenvalue this is the residue R_i.
    """
    return [
        [block.right[:, : block.multiplicity - k] @ block.left[k:, :]
         for k in range(block.multiplicity)]
        for block in chains.blocks
    ]


def _poly_exp(lam: complex, power: int, t: float):
    """e^{lam t} t^power / power!; 0 where the exponential vanishes, and inf,
    not an OverflowError, where t^power leaves the double range."""
    growth = np.exp(lam * t)
    return growth * np.float64(t)**power / math.factorial(power) if growth else growth


def multiple_eig_gramian(
    chains: JordanChainSet, t: float | None = None
) -> FiniteGramianDecomposition:
    """Eigen-indexed Gramian decomposition of the companion system of
    ``chains``, for spectra with multiplicities, in companion coordinates.

    Component i of the algebraic solution is
    sum_k A_hat_k^{(i)} B B^T (-lambda_i I - A^T)^{-k}, accumulated power by
    power.  At ``t`` the finite component is P_i - e^{A t} P_i e^{A^T t}.
    The left factor e^{A t} P_i is accumulated with the same powers, as
    sum_k S_k^{(i)} B B^T (-lambda_i I - A^T)^{-k} with S_k^{(i)} = e^{A t}
    A_hat_k^{(i)} = sum_m A_hat_{k+m}^{(i)} e^{lambda_i t} t^m/m!: it holds
    only block i's modes and multiplies no two chain coefficients, so a
    component keeps its relative accuracy when other blocks grow faster or
    the chains are ill-conditioned.  e^{A t} = sum_i S_1^{(i)} is summed once
    (without ``t`` only the algebraic components are built).  An invalid
    horizon raises ValueError, then a singular resolvent ConditioningError;
    an e^{A t} past the double range is left inf or nan, for the caller.
    """
    a, b, poly, spec = chains.system.a, chains.system.b, chains.poly, chains.spectrum
    n = a.shape[0]
    coeffs = resolvent_coefficients(chains)
    if t is not None:
        _require_horizon(t)
        t = float(t)

    bbt = b @ b.T
    statics, lefts = [], []
    expm = np.zeros((n, n), dtype=complex)
    for block, block_coeffs in zip(chains.blocks, coeffs):
        try:
            inv = np.linalg.inv(-block.eigenvalue * np.eye(n) - a.T.astype(complex))
        except np.linalg.LinAlgError:
            msg = f"resolvent (-lambda_i I - A^T) is singular at lambda_i = {block.eigenvalue}"
            raise ConditioningError(msg, condition=np.inf) from None
        if t is not None:  # shifted[k] = S_{k+1}^{(i)}
            weights = [_poly_exp(block.eigenvalue, m, t) for m in range(block.multiplicity)]
            shifted = [sum(w * a_m for w, a_m in zip(weights, block_coeffs[k:]))
                       for k in range(block.multiplicity)]
            expm += shifted[0]
        g, static, left = bbt.astype(complex), 0, 0
        for k, a_k in enumerate(block_coeffs):  # g = B B^T (-lambda I - A^T)^{-k}
            g = g @ inv
            static += a_k @ g
            if t is not None:
                left += shifted[k] @ g
        statics.append(static)
        lefts.append(left)

    static = SpectralComponentSet(range(len(coeffs)), np.array(statics), "eigen", "raw", poly, spec)
    if t is None:
        return FiniteGramianDecomposition(static)
    expm_transpose = expm.T
    terms = 0 + -(np.array(lefts) @ expm_transpose)
    return FiniteGramianDecomposition(static, _plus_terms(static, terms), t, expm_transpose)


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
    sums, reals = flat.tolist(), flat.real.tolist()
    hits = []
    for p, a in enumerate(order):
        for q in range(p + 1, len(order)):
            b = order[q]
            if reals[b] - reals[a] > scale:
                break
            if abs(sums[a] - sums[b]) <= scale:
                hits.append((min(a, b), max(a, b)))
    hits.sort()
    return [(divmod(a, n), divmod(b, n)) for a, b in hits]


def pair_collisions(spec: Spectrum) -> list:
    """The exponent_collisions, at their default tolerance, that make pair
    components non-unique.

    In a real system (i, j) and its mirror (p(j), p(i)), p the conjugate
    partner, always share their exponent, since the two components are
    transposes of each other; those collisions are left out.
    """
    partner = spec.conjugate_partner()
    return [
        (a, b) for a, b in exponent_collisions(spec)
        if b != (int(partner[a[1]]), int(partner[a[0]]))
    ]


def zero_plaid_defect(stack: np.ndarray):
    """Deviation of a matrix, or of each matrix of a (k, n, n) stack, from
    the zero-plaid Hankel alternating pattern.

    Returns (odd_defect, alternation_defect), each the worst over the stack
    relative to its matrix's largest entry: zeros at positions with odd
    1-based index sum, and on even anti-diagonals mu + nu = 2k the entry
    equals (-1)^(nu-k) times the k-th diagonal entry.  The alternation part
    applies to the Gramian components only; the inverse components satisfy
    just the odd-position zeros, so their callers read the first value.
    """
    m = np.asarray(stack)
    m = m.reshape((-1,) + m.shape[-2:])
    mu, nu = np.indices(m.shape[1:])  # 0-based, so k - 1 = (mu + nu) / 2 on even ones
    odd = (mu + nu) % 2 == 1
    diag = ((mu + nu) // 2)[~odd]
    expected = (-1.0) ** (nu[~odd] - diag) * m[:, diag, diag]
    scale = np.fmax(1e-300, np.abs(m).max(axis=(1, 2)))
    odd_defect = modulus(m[:, odd]).max(axis=1, initial=0.0) / scale
    alt_defect = modulus(m[:, ~odd] - expected).max(axis=1) / scale
    return float(odd_defect.max()), float(alt_defect.max())
