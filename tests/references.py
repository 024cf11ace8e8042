"""Independent reference constructions that the tests compare the package
against; nothing in the package calls them."""

from json.encoder import encode_basestring_ascii

import numpy as np

from gramspec.companion import _solve_dense, alternating_signs
from gramspec.document import MatrixBlock, MatrixEntry
from gramspec.errors import MultipleEigenvalueError
from gramspec.gramians import _poly_exp
from gramspec.spectrum import (_LONGDOUBLE_BITS, CONJUGATE_TOL, Polynomial, Spectrum,
                                _round_longdouble, dyadic_point, exact_horner)

SEPARATION_TOL = 1e-8  # eigenvalue separation, relative to 1 + radius, for Lagrange residues


def inverse_eigenpart_counted(p: Polynomial, lam: complex):
    """One raw inverse eigenpart N(-lam)/(-N'(lam)) J y y^T with an operation
    count.

    The left eigenvector components are accumulated recursively (tail sums of
    a_k lam^k), so the whole construction touches O(n^2) scalars; the count
    is returned for the cost-growth property checks.  The builders take y
    from the eigen structure instead (y = H_l x / lam^n), so this
    construction is an independent reference for them.
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


def mp_polished_roots(poly: Polynomial, values: np.ndarray, dps: int = 40) -> np.ndarray:
    """Five Newton steps on simple roots at ``dps`` mpmath digits, from the
    given starts (object array of mpmath numbers); a vanishing derivative
    stops them.  At 40 digits, the reference for the package's exact-integer
    polish."""
    from mpmath import mp, mpc, mpf

    coefficients = [mpf(float(c)) for c in poly.coeffs]
    polished = np.empty(values.size, dtype=object)
    with mp.workdps(dps):
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


def mp_to_clongdouble(z) -> np.clongdouble:
    """An mpmath complex rounded to 80 bits through 25-digit decimal strings
    (a complex128 cast would lose the digits of the polish)."""
    from mpmath import nstr

    return np.clongdouble(np.longdouble(nstr(z.real, 25))) + 1j * np.clongdouble(
        np.longdouble(nstr(z.imag, 25))
    )


def solve_dense_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting in 80-bit precision for one
    right-hand side b (a vector or a matrix), updating one row at a time."""
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


def dyadic_coefficients(p: Polynomial) -> tuple:
    """The coefficients as integers on one power-of-two scale: (C, t) with
    a_k = C_k / 2^t exactly; formed once per polynomial."""
    return p._dyadic


def exact_totals(p: Polynomial) -> tuple:
    """The sums (P, P^-1) of the Gramian and inverse eigen components of the
    companion system of ``p``, in 80-bit, from the coefficients.

    Near-degenerate spectra make components exceed their sum by many
    orders, which a sum of stored components cannot resolve.  Here P^-1 =
    diag((-1)^i) Bez(N(s), N(-s)) (Hermite-Fujiwara), with g_k = (-1)^k a_k
    and Bez_ij = sum_{k=0}^{min(n-1-i, j)} (a_{i+k+1} g_{j-k} - g_{i+k+1}
    a_{j-k}), is formed exactly on the integers of dyadic_coefficients and
    rounded once per entry to 80 bits; P is one 80-bit solve with it.
    """
    coeffs, t = dyadic_coefficients(p)
    n = p.degree
    mirror = [(-1) ** k * c for k, c in enumerate(coeffs)]
    entries = [(-1) ** i * sum(coeffs[i + k + 1] * mirror[j - k]
                               - mirror[i + k + 1] * coeffs[j - k]
                               for k in range(min(n - 1 - i, j) + 1))
               for i in range(n) for j in range(n)]
    inverse = _round_longdouble(entries, -2 * t).reshape(n, n).astype(np.clongdouble)
    return _solve_dense(inverse, np.eye(n, dtype=np.clongdouble)), inverse


def components(component_set) -> dict:
    """Each component of a SpectralComponentSet by its key, over its stack."""
    return dict(zip(component_set.keys, component_set.stack))


def matrix_exp_reference(m, t: float = 1.0) -> np.ndarray:
    """Reference matrix exponential e^{M t} (scipy's scaling-and-squaring Pade)."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix must have finite entries")
    from scipy.linalg import expm

    return expm(m * t)


def symmetry_defect(p) -> float:
    """||P - P^T||_F / max(1, ||P||_F)."""
    return float(np.linalg.norm(p - p.T) / max(1.0, np.linalg.norm(p)))


def gramian_quadrature(a, b, t: float, intervals: int = 512) -> np.ndarray:
    """Finite Gramian int_0^t e^{A tau} B B^T e^{A^T tau} d tau by composite
    Simpson quadrature with the reference exponential."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    if not np.isfinite(t) or t < 0:
        raise ValueError("need finite t >= 0")
    n = a.shape[0]
    if t == 0:
        return np.zeros((n, n))
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
    return total * (h / 3.0)


# ---------------------------------------------------------------------------
# One component at a time.  The package builds, symmetrizes, sums and checks
# each component set as one (k, n, n) stack; these are the per-component
# loops it replaced, which the stacked forms must match bit for bit.


def hermitian_part_each(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def inverse_eigenparts_each(es) -> dict:
    """Raw inverse eigen components c_i (J y_i) y_i^T, c_i =
    N(-lambda_i)/(-N'(lambda_i)), keyed i."""
    signs = alternating_signs(es.poly.degree)
    return {i: mirror / (-deriv) * np.outer(signs * y, y)
            for i, (y, deriv, mirror) in enumerate(zip(es.left, es.derivs, es.mirrors))}


def pair_subgramians_each(es) -> dict:
    """Raw Gramian pair components c_ij x_i x_j^*, c_ij = -1/((lambda_i +
    conj(lambda_j)) N'(lambda_i) conj(N'(lambda_j))), keyed (i, j)."""
    conj_derivs = np.conj(es.derivs) + 0
    lams, right, derivs = es.eigenvalues, es.right, es.derivs
    k = lams.size
    return {
        (i, j): -1 / ((lams[i] + np.conj(lams[j])) * derivs[i] * conj_derivs[j])
        * np.outer(right[i], np.conj(right[j]))
        for i in range(k)
        for j in range(k)
    }


def inverse_pair_parts_each(es) -> dict:
    """Raw inverse pair components conj(R_i) P_hat_j, keyed (i, j)."""
    lams, left, derivs, mirrors = es.eigenvalues, es.left, es.derivs, es.mirrors
    k = lams.size
    return {
        (i, j): (np.conj(mirrors[i]) * mirrors[j])
        / (-(np.conj(derivs[i]) * derivs[j]) * (np.conj(lams[i]) + lams[j]))
        * np.outer(np.conj(left[i]), left[j])
        for i in range(k)
        for j in range(k)
    }


def finite_pair_subgramians_each(pairs: dict, values: np.ndarray, t: float) -> dict:
    """Finite pair components at t of the raw pair components ``pairs``."""
    return {
        (i, j): part + sum([-part * np.exp((values[i] + np.conj(values[j])) * t)])
        for (i, j), part in pairs.items()
    }


def growth_each(h) -> np.ndarray:
    """e^{lambda_i t} at the horizon ``h``, one eigenvalue at a time."""
    return np.array([np.exp(lam * h.t) for lam in h.structure.eigenvalues])


def finite_subgramians_each(parts: dict, h) -> dict:
    """Finite eigen components at the horizon ``h`` of the raw eigen parts."""
    growth = growth_each(h)
    return {i: part + sum([(-part * growth[i]) @ h.expm_transpose])
            for i, part in parts.items()}


def homogeneous_subgramians_each(h, p0) -> dict:
    residues = h.structure.residues
    return {i: residues[i] @ p0.matrix @ h.expm_transpose * g
            for i, g in enumerate(growth_each(h))}


def horizon_each(es, t: float) -> tuple:
    """(weights, e^{A_C^T t}) of the horizon: e^{lambda_i t}/(-N'(lambda_i))
    and sum_i y_i (weights[i] x_i)^T, added one eigenvalue at a time from 0."""
    weights = np.array([np.exp(lam * t) / -deriv for lam, deriv in zip(es.eigenvalues, es.derivs)])
    expm_transpose = 0
    for y, w, x in zip(es.left, weights, es.right):
        expm_transpose = expm_transpose + np.outer(y, w * x)
    return weights, expm_transpose


def rows_each(vectors: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Row i is vectors[i]^T matrix, one vector product at a time."""
    return np.array([v @ matrix for v in vectors])


# The finite-horizon terms as rank-one c_i u_i v_i^T, one eigenvalue at a
# time.  Each reads its rows v_i as the package forms them, one matrix
# product for all i (Horizon.rows, and initial_rows below): a BLAS matrix product
# rounds its rows differently from a vector product, so the rows are
# compared with rows_each on their own.


def initial_rows(h, p0) -> np.ndarray:
    """Row i is y_i^T P_0 e^{A_C^T t}, all in one product."""
    return h.structure.left @ (p0.matrix @ h.expm_transpose)


def finite_subgramians_rank_one_each(parts: dict, h) -> dict:
    """Finite eigen components P_hat_i - w_i / N(-lambda_i) x_i r_i^T of the
    raw eigen parts, with w_i = e^{lambda_i t}/(-N'(lambda_i)) and r_i = (J
    x_i)^T e^{A_C^T t}."""
    es = h.structure
    out = {}
    for (i, part), x, deriv, mirror, g, row in zip(parts.items(), es.right, es.derivs,
                                                   es.mirrors, growth_each(h), h.rows):
        out[i] = part + sum([-(g / -deriv / mirror) * np.outer(x, row)])
    return out


def homogeneous_subgramians_rank_one_each(h, p0) -> dict:
    """Homogeneous components e^{lambda_i t}/(-N'(lambda_i)) x_i s_i^T with
    s_i = y_i^T P_0 e^{A_C^T t}."""
    es = h.structure
    rows = initial_rows(h, p0)
    return {i: g / -deriv * np.outer(x, row)
            for i, (x, deriv, g, row) in enumerate(zip(es.right, es.derivs, growth_each(h), rows))}


def normalization_rank_one_each(h, p0) -> tuple:
    """(G^{-1}(t), term scale) of the finite inverse from its rank-one terms
    (J y_i) (-w_i r_i + N(-lambda_i) w_i s_i)^T, w_i = e^{lambda_i
    t}/(-N'(lambda_i)), added one eigenvalue at a time."""
    es = h.structure
    signs = alternating_signs(es.poly.degree)
    boundary_rows = initial_rows(h, p0) if np.any(p0.matrix) else None
    g_inv = np.eye(es.poly.degree, dtype=h.expm_transpose.dtype)
    term_scale = 1.0
    for i, (y, deriv, mirror, g) in enumerate(zip(es.left, es.derivs, es.mirrors,
                                                  growth_each(h))):
        term = -(g / -deriv) * np.outer(signs * y, h.rows[i])
        term_scale = max(term_scale, float(np.max(np.abs(term))))
        if boundary_rows is not None:
            boundary = mirror * (g / -deriv) * np.outer(signs * y, boundary_rows[i])
            term_scale = max(term_scale, float(np.max(np.abs(boundary))))
            term = boundary + term
        g_inv = g_inv + term
    return g_inv, term_scale


def finite_inverse_rank_one_each(es, g_inv) -> dict:
    """Finite inverse components c_i z_i y_i^T with G^{-1}(t) z_i = J y_i,
    the k columns solved together by the package's elimination."""
    signs = alternating_signs(es.poly.degree)
    solved = _solve_dense(g_inv, (signs * es.left).T).T
    return {i: mirror / (-deriv) * np.outer(z, y)
            for i, (z, y, deriv, mirror) in enumerate(zip(solved, es.left, es.derivs,
                                                            es.mirrors))}


def merge_conjugate_each(components: dict, spectrum, kind: str) -> dict:
    """Components summed over conjugate index orbits, keyed by the orbit's
    smallest member, as real matrices."""
    partner = spectrum.conjugate_partner()

    def orbit(key):
        if kind == "eigen":
            mate = int(partner[key])
            return [key] if mate == key else sorted({key, mate})
        i, j = key
        mate = (int(partner[i]), int(partner[j]))
        return [key] if mate == key else sorted({key, mate})

    merged = {}
    for key in components:
        members = orbit(key)
        if members[0] not in merged:
            merged[members[0]] = sum(components[k] for k in members).real
    return merged


def normalization_each(h, p0) -> tuple:
    """(G^{-1}(t), term scale) of the finite inverse, one eigenvalue at a time."""
    es = h.structure
    inv_components = inverse_eigenparts_each(es)
    residues = es.residues
    n = es.poly.degree
    signs = alternating_signs(n)
    g_inv = np.eye(n, dtype=h.expm_transpose.dtype)
    term_scale = 1.0
    for i, growth in enumerate(growth_each(h)):
        scaled_exp = growth * h.expm_transpose
        decay = (signs[:, None] * residues[i].T * signs[None, :]) @ scaled_exp
        boundary = inv_components[i] @ p0.matrix @ scaled_exp
        g_inv += boundary - decay
        term_scale = max(
            term_scale,
            float(np.max(np.abs(decay))),
            float(np.max(np.abs(boundary))),
        )
    return g_inv, term_scale


# ---------------------------------------------------------------------------
# The simple-spectrum components as divisions by their scalar denominators,
# the forms the rank-one sets c u v^T replaced.  They round differently, so
# they are accuracy references: the sets agree with them to a few ulps.


def eigenparts_division(es) -> dict:
    """Raw Gramian eigen components x_i x_i^T J / (-N'(lambda_i) N(-lambda_i))."""
    signs = alternating_signs(es.poly.degree)
    return {i: np.outer(x, x) * signs[None, :] / (-deriv * mirror)
            for i, (x, deriv, mirror) in enumerate(zip(es.right, es.derivs, es.mirrors))}


def inverse_eigenparts_division(es) -> dict:
    """Raw inverse eigen components N(-lambda_i)/(-N'(lambda_i)) J y_i y_i^T."""
    signs = alternating_signs(es.poly.degree)
    return {i: mirror / (-deriv) * (signs[:, None] * np.outer(y, y))
            for i, (y, deriv, mirror) in enumerate(zip(es.left, es.derivs, es.mirrors))}


def pair_subgramians_division(es) -> dict:
    """Raw Gramian pair components -x_i x_j^* / ((lambda_i + conj(lambda_j))
    N'(lambda_i) conj(N'(lambda_j)))."""
    conj_derivs = np.conj(es.derivs) + 0
    lams, right, derivs = es.eigenvalues, es.right, es.derivs
    k = lams.size
    return {(i, j): -np.outer(right[i], np.conj(right[j]))
            / ((lams[i] + np.conj(lams[j])) * derivs[i] * conj_derivs[j])
            for i in range(k) for j in range(k)}


def inverse_pair_parts_division(es) -> dict:
    """Raw inverse pair components N(-conj(lambda_i)) N(-lambda_j) conj(y_i)
    y_j^T / (-N'(conj(lambda_i)) N'(lambda_j) (conj(lambda_i) + lambda_j)),
    divided entry by entry."""
    lams, left, derivs, mirrors = es.eigenvalues, es.left, es.derivs, es.mirrors
    k = lams.size
    return {(i, j): np.conj(mirrors[i]) * mirrors[j] * np.outer(np.conj(left[i]), left[j])
            / (-(np.conj(derivs[i]) * derivs[j]) * (np.conj(lams[i]) + lams[j]))
            for i in range(k) for j in range(k)}


def eigen_component_residual(a_c, lam, multiplicity, raw, side: str) -> float:
    """Defect of (A - lambda I)^m X = 0 (side "left") or X (A - lambda I)^m =
    0, relative to (1 + |lambda|)^m |X|."""
    n = a_c.shape[0]
    shifted = np.linalg.matrix_power(a_c - lam * np.eye(n), int(multiplicity))
    defect = shifted @ raw if side == "left" else raw @ shifted
    scale = (1.0 + abs(lam)) ** multiplicity * max(1e-300, float(np.linalg.norm(raw)))
    return float(np.linalg.norm(defect) / scale)


def pair_component_residual(a_c, rate, raw, side: str) -> float:
    """Defect of A X + X A^T = rate X (side "left") or A^T X + X A = rate X,
    relative to (1 + |rate|) |X|."""
    if side == "left":
        defect = a_c @ raw + raw @ a_c.T - rate * raw
    else:
        defect = a_c.T @ raw + raw @ a_c - rate * raw
    scale = (1.0 + abs(rate)) * max(1e-300, float(np.linalg.norm(raw)))
    return float(np.linalg.norm(defect) / scale)


def zero_plaid_defect_each(m: np.ndarray, alternation: bool = True) -> tuple:
    """(odd_defect, alternation_defect) of one matrix, entry by entry."""
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


def orthogonality_each(es, gram, inv) -> float:
    """The max violation of P_hat_i P_hat_j^{-C} = delta_ij R_i, relative to
    the residue scale, one product at a time."""
    residues = es.residues
    scale = max(1.0, max(float(np.max(np.abs(r))) for r in residues))
    worst = 0.0
    inv_parts = components(inv)
    for i, g_part in components(gram).items():
        for j, inv_part in inv_parts.items():
            product = g_part @ inv_part
            expected = residues[i] if i == j else 0.0
            worst = max(worst, float(np.max(np.abs(product - expected))))
    return worst / scale


def real_quadratic_form_each(x0: np.ndarray, matrix: np.ndarray, tol: float = 1e-9) -> float:
    """x_0^T M x_0 of one matrix, refused (ValueError) when not real."""
    value = complex(x0 @ matrix @ x0)
    scale = max(1.0, abs(value))
    if abs(value.imag) > tol * scale:
        raise ValueError(f"quadratic form has non-negligible imaginary part {value.imag:.3e}")
    return value.real


def pair_partition_each(pairs, eigen) -> float:
    """Worst relative gap between the row sums of the symmetrized pair set,
    added in j order from 0, and the symmetrized eigen components."""
    k = len(eigen.keys)
    pairs, eigen = components(pairs), components(eigen)
    partition = 0.0
    for i in range(k):
        row = sum(pairs[(i, j)] for j in range(k))
        partition = max(
            partition,
            float(np.max(np.abs(row - eigen[i]))) / max(1.0, float(np.max(np.abs(eigen[i])))),
        )
    return partition


# ---------------------------------------------------------------------------
# Jordan chains, one vector and one power at a time: the loops that the
# multiple-eigenvalue builders replaced with products of a block's chain
# matrices, with the finite components taken from the stored powers of the
# resolvent and the chain Hankel inverted by back-substitution.


def resolvent_coefficients_each(chains) -> list:
    """Per block, the coefficients A_k = sum_l x_l y_{k-1+l}^T, k = 1..n_i,
    as sums of outer products of the chain vectors."""
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


def multiple_eig_finite_each(chains, t: float) -> tuple:
    """(static, finite) dicts of the raw Gramian components of a Jordan chain
    set: static component i is sum_k A_k B B^T (-lambda_i I - A^T)^{-k} from
    the stored resolvent powers, and its finite component at t subtracts
    sum_{k, l <= k} A_k B B^T (-lambda_i I - A^T)^{-l} e^{lambda_i t}
    t^(k-l)/(k-l)! e^{A^T t}, one term at a time."""
    a, b = chains.system.a, chains.system.b
    n = a.shape[0]
    coeffs = resolvent_coefficients_each(chains)
    expm = np.zeros((n, n), dtype=complex)
    for block, block_coeffs in zip(chains.blocks, coeffs):
        for k, a_k in enumerate(block_coeffs, start=1):
            expm += a_k * _poly_exp(block.eigenvalue, k - 1, t)
    static, finite = {}, {}
    for i, (block, block_coeffs) in enumerate(zip(chains.blocks, coeffs)):
        inv = np.linalg.inv(-block.eigenvalue * np.eye(n) - a.T.astype(complex))
        g = (b @ b.T).astype(complex)
        rights = []
        for _ in range(block.multiplicity):
            g = g @ inv
            rights.append(g)
        static[i] = sum(a_k @ rights[k] for k, a_k in enumerate(block_coeffs))
        finite[i] = static[i] + sum(
            -(a_k @ rights[l - 1]) * _poly_exp(block.eigenvalue, k - l, t) @ expm.T
            for k, a_k in enumerate(block_coeffs, start=1)
            for l in range(1, k + 1)
        )
    return static, finite


def solve_upper_hankel_each(hvals: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve H X = rhs for the upper anti-triangular Hankel H[i, j] = h_{i+j}
    by back-substitution from the last row up."""
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


def exact_values_each(p: Polynomial, roots: np.ndarray) -> np.ndarray:
    """N(z) at each root, exact on the integers and rounded once to the
    roots' dtype, every root evaluated on its own (no reuse between
    conjugates)."""
    coeffs, t = dyadic_coefficients(p)
    out = np.empty(roots.size, dtype=roots.dtype)
    for i, z in enumerate(roots.tolist()):
        x, y, s = dyadic_point(z)
        re, im = exact_horner(coeffs, x, y, s)
        exp = t + s * p.degree
        if roots.dtype == np.clongdouble:
            out[i] = to_longdouble_each(re, -exp) + 1j * to_longdouble_each(im, -exp)
        else:
            out[i] = complex(re / (1 << exp), im / (1 << exp))
    return out


def to_longdouble_each(man: int, exp: int) -> np.longdouble:
    """man * 2^exp correctly rounded (to nearest, ties to even) to the 80-bit
    format, one integer at a time: the significand is rounded on the
    integers, then scaled by a power of two."""
    magnitude = abs(man)
    shift = max(0, magnitude.bit_length() - _LONGDOUBLE_BITS)
    if shift:
        magnitude, rest = divmod(magnitude, 1 << shift)
        half = 1 << (shift - 1)
        if rest > half or (rest == half and magnitude & 1):
            magnitude += 1
    value = np.ldexp(np.longdouble(magnitude), exp + shift)
    return -value if man < 0 else value


def jordan_factors_loop(chains) -> list:
    """Each block's (toeplitz, hankel) factor pair, entry by entry: T_ij =
    c_row x_{i-j} for i >= j and H_ij = (last left-chain column)[i + j] for
    i + j < m, zero elsewhere."""
    n = chains.poly.degree
    factors = []
    for block in chains.blocks:
        m = block.multiplicity
        tvals, hvals = chains.c_row @ block.right, block.left[:, n - 1]
        toeplitz = np.zeros((m, m), dtype=complex)
        hankel = np.zeros((m, m), dtype=complex)
        for i in range(m):
            for j in range(i + 1):
                toeplitz[i, j] = tvals[i - j]
            for j in range(m - i):
                hankel[i, j] = hvals[i + j]
        factors.append((toeplitz, hankel))
    return factors


def hankel_upper_loop(p: Polynomial) -> np.ndarray:
    """Upper anti-triangular Hankel of coefficients, entry by entry."""
    n = p.degree
    h = np.zeros((n, n))
    for i in range(n):
        for j in range(n - i):
            h[i, j] = p.coeffs[i + j + 1]
    return h


def hankel_lower_loop(p: Polynomial) -> np.ndarray:
    """Lower anti-triangular Hankel of coefficients, entry by entry."""
    n = p.degree
    h = np.zeros((n, n))
    for i in range(n):
        for j in range(n - 1 - i, n):
            h[i, j] = p.coeffs[i + j + 1 - n]
    return h


def conjugate_partner_each(spectrum: Spectrum) -> np.ndarray:
    """Index of the conjugate eigenvalue for each entry (itself if real), one
    eigenvalue at a time: the first nearest to the conjugate, unless that is
    farther than CONJUGATE_TOL relative to 1 + radius."""
    scale = 1.0 + spectrum.radius
    partner = np.empty(spectrum.values.size, dtype=int)
    for i, lam in enumerate(spectrum.values):
        partner[i] = int(np.argmin(np.abs(spectrum.values - np.conj(lam))))
        if abs(spectrum.values[partner[i]] - np.conj(lam)) > CONJUGATE_TOL * scale:
            partner[i] = i
    return partner


_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _SPECIAL_FLOATS.get(text, text)


class _FloatTexts(dict):
    """Float -> JSON text, filled on first use.  Zeros are never stored:
    -0.0 == 0.0 with equal hashes, so they would share one entry."""

    def __missing__(self, value: float) -> str:
        if not value:
            return float.__repr__(value)
        text = self[value] = _float_text(value)
        return text


def json_text_each(value) -> str:
    """``json_text`` as it was written before every report matrix was
    array-backed: a ``MatrixEntry`` goes through the nested lists of its
    dict, one row and one float at a time, with one table of float texts for
    the scalars and entries, and each ``MatrixBlock`` has a table of its own.
    """
    chunks: list = []
    _encode_each(value, "\n", _FloatTexts(), chunks.append)
    return "".join(chunks)


def _encode_each(value, indent: str, floats: _FloatTexts, out) -> None:
    if type(value) is float:
        out(floats[value])
    elif isinstance(value, (list, tuple)):
        inner = indent + "  "
        if not value:
            out("[]")
        elif set(map(type, value)) == {float}:
            out("[" + inner + ("," + inner).join(map(floats.__getitem__, value)) + indent + "]")
        else:
            separator = "["
            for item in value:
                out(separator + inner)
                _encode_each(item, inner, floats, out)
                separator = ","
            out(indent + "]")
    elif isinstance(value, MatrixEntry):
        _encode_each({"matrix": value["matrix"], "residual": value["residual"]},
                     indent, floats, out)
    elif isinstance(value, dict):
        inner = indent + "  "
        if not value:
            out("{}")
        else:
            separator = "{"
            for key, item in sorted(value.items()):
                out(separator + inner + encode_basestring_ascii(key) + ": ")
                _encode_each(item, inner, floats, out)
                separator = ","
            out(indent + "}")
    elif type(value) is MatrixBlock:
        out(_block_text_each(value, indent))
    elif isinstance(value, str):
        out(encode_basestring_ascii(value))
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, float):
        out(_float_text(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_SIGN_BIT = np.uint64(1 << 63)
_INFINITY_BITS = np.float64(np.inf).view(np.uint64)


def _block_text_each(block: MatrixBlock, indent: str) -> str:
    """The text of ``block`` at ``indent``, from a float table of its own."""
    if not block:
        return "{}"
    k, n = len(block), block._stack.shape[1]
    bits = np.stack((block._stack.imag, block._stack.real), axis=1).view(np.uint64).ravel()
    distinct, which = np.unique(bits & ~_SIGN_BIT, return_inverse=True)
    texts = list(map(float.__repr__, distinct.view(np.float64).tolist()))
    signed = list(map("-".__add__, texts))
    for i in range(int(np.searchsorted(distinct, _INFINITY_BITS)), len(texts)):
        texts[i] = _SPECIAL_FLOATS[texts[i]]
        signed[i] = "NaN" if texts[i] == "NaN" else "-" + texts[i]
    table = np.array(texts + signed, dtype=object)
    floats = table[which + len(texts) * (bits >> 63).astype(np.intp)]

    i1 = indent + "  "
    i2, i3, i4, i5 = i1 + "  ", i1 + "    ", i1 + "      ", i1 + "        "
    part = (["," + i5] * (n - 1) + [i4 + "]," + i4 + "[" + i5]) * n
    gaps = part[:-1] + [i4 + "]" + i3 + "]," + i3 + '"re": [' + i4 + "[" + i5] + part[:-1]
    opening = ": {" + i2 + '"matrix": {' + i3 + '"im": [' + i4 + "[" + i5
    closing = i4 + "]" + i3 + "]" + i2 + "}," + i2 + '"residual": '
    pieces = np.empty((k, 4 * n * n + 1), dtype=object)
    pieces[:, 0] = [("," if j else "{") + i1 + encode_basestring_ascii(key) + opening
                    for j, key in enumerate(block._keys)]
    pieces[:, 1::2] = floats.reshape(k, 2 * n * n)
    pieces[:, 2:-1:2] = gaps
    pieces[:, -1] = [closing + ("null" if r is None else _float_text(r)) + i1 + "}"
                     for r in block._residuals]
    return "".join(pieces.ravel().tolist()) + indent + "}"
