"""Independent high-precision references for gramspec reports.

Everything here runs in mpmath at ``DPS`` decimal digits, starts from the
document's own floating-point numbers (converted exactly), and imports
nothing from gramspec.  Each reference carries a certificate: the scaled
residual of its own defining equation (Lyapunov, Riccati, finite-horizon
Lyapunov, product identity, root or eigenpair residual).  A reference whose
certificate exceeds ``CERT_TOL`` is not used to judge anything.

Companion conventions match the ones gramspec documents: the dynamics matrix
has ones on the superdiagonal and -a_0 .. -a_{n-1} in its last row, the input
is the last unit vector, and the companion basis of a matrix document is the
one built from the characteristic polynomial of its A.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

from mpmath import mp, mpc, mpf

DPS = 60
CERT_TOL = mpf(10) ** -25
SMITH_MAX_STEPS = 80


class ReferenceError(Exception):
    """A reference failed its own certificate."""


@dataclass
class Reference:
    """Reference quantities of one document; matrices are mpmath matrices.

    ``spectrum`` is a list of (eigenvalue, multiplicity); for char_poly and
    matrices documents these are the roots, each of multiplicity 1.  Keys of
    ``matrices`` follow the report entries they judge, e.g.
    ``"gramian.sum"`` or ``"finite_inverse.sum"``.  ``certificate`` is the
    worst scaled residual met while building the reference.
    """

    spectrum: list
    matrices: dict = field(default_factory=dict)
    energy: mpf | None = None
    certificate: mpf = mpf(0)


def dumps(ref: Reference) -> bytes:
    """Serialize a reference (mpmath matrices do not pickle themselves)."""
    matrices = {name: [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]
                for name, m in ref.matrices.items()}
    return pickle.dumps((ref.spectrum, matrices, ref.energy, ref.certificate))


def loads(data: bytes) -> Reference:
    spectrum, matrices, energy, certificate = pickle.loads(data)
    with mp.workdps(DPS):
        return Reference(spectrum, {name: mp.matrix(rows) for name, rows in matrices.items()},
                         energy, certificate)


def _mpf(x) -> mpf:
    return mpf(float(x))


def _norm(m) -> mpf:
    return mp.mnorm(m, "f")


def _certify(ref: Reference, name: str, residual) -> None:
    if not residual <= CERT_TOL:
        raise ReferenceError(f"{name} certificate {mp.nstr(residual, 5)} above {CERT_TOL}")
    ref.certificate = max(ref.certificate, residual)


def poly_from_roots(roots: list) -> list:
    """Ascending monic coefficients of prod (s - r), real parts kept."""
    coeffs = [mpc(1)]
    for r in roots:
        nxt = [mpc(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= r * c
        coeffs = nxt
    return [mp.re(c) for c in coeffs]


def companion(coeffs: list):
    """(A_C, b_C) of ascending monic coefficients."""
    n = len(coeffs) - 1
    a = mp.zeros(n, n)
    for k in range(n - 1):
        a[k, k + 1] = 1
    for k in range(n):
        a[n - 1, k] = -coeffs[k]
    b = mp.zeros(n, 1)
    b[n - 1] = 1
    return a, b


def poly_roots(coeffs: list) -> list:
    """All roots of an ascending monic polynomial, each certified by its
    scaled residual |N(r)| / sum |a_k| |r|^k."""
    n = len(coeffs) - 1
    if n == 1:
        return [mpc(-coeffs[0])]
    roots = mp.polyroots(coeffs[::-1], maxsteps=200, extraprec=4 * n + 60)
    return [mpc(r) for r in roots]


def root_residual(coeffs: list, r) -> mpf:
    value = mpc(0)
    scale = mpf(0)
    for c in reversed(coeffs):
        value = value * r + c
    for k, c in enumerate(coeffs):
        scale += abs(c) * abs(r) ** k
    return abs(value) / scale


def _separation(values: list) -> mpf:
    best = mpf("inf")
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            best = min(best, abs(values[i] - values[j]))
    return best


def lyapunov_closed_form(roots: list, t=None):
    """Companion Gramian over distinct roots, and its value at horizon t.

    With V the Vandermonde matrix of the roots and c_i = 1 / prod_{j != i}
    (l_i - l_j) the expansion of b_C = e_n, P = V W V^H where
    W_ij = -c_i conj(c_j) / (l_i + conj(l_j)); the finite Gramian multiplies
    W_ij by 1 - exp((l_i + conj(l_j)) t).  Returns (P, P(t) or None, e^{A t}
    or None).
    """
    n = len(roots)
    c = []
    for i in range(n):
        d = mpc(1)
        for j in range(n):
            if j != i:
                d *= roots[i] - roots[j]
        c.append(1 / d)
    v = mp.matrix(n, n)
    for i, lam in enumerate(roots):
        power = mpc(1)
        for k in range(n):
            v[k, i] = power
            power *= lam
    w = mp.matrix(n, n)
    wt = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            rate = roots[i] + mp.conj(roots[j])
            w[i, j] = -c[i] * mp.conj(c[j]) / rate
            if t is not None:
                wt[i, j] = w[i, j] * (1 - mp.exp(rate * t))
    vh = v.H
    p = (v * w * vh).apply(mp.re)
    if t is None:
        return p, None, None
    p_t = (v * wt * vh).apply(mp.re)
    e = v * mp.diag([mp.exp(lam * t) for lam in roots]) * mp.inverse(v)
    return p, p_t, e.apply(mp.re)


def lyapunov_smith(a, q):
    """Solve A P + P A^T + Q = 0 for a spectrum in one open half plane.

    Cayley transform S = (A - hI)^{-1}(A + hI) turns the equation into
    P = S P S^T + 2h M Q M^T with M = (A - hI)^{-1}; squared Smith iteration
    sums the series.  Works for defective A (repeated eigenvalues).
    """
    n = a.rows
    eye = mp.eye(n)
    shift = mpf(2) if sum(mp.re(a[k, k]) for k in range(n)) <= 0 else mpf(-2)
    m = mp.inverse(a - shift * eye)
    s = m * (a + shift * eye)
    p = 2 * shift * m * q * m.T
    stop = mpf(10) ** -(mp.dps + 5)
    for _ in range(SMITH_MAX_STEPS):
        p = p + s * p * s.T
        s = s * s
        if mp.mnorm(s, 1) < stop:
            return p
    raise ReferenceError("Smith iteration did not converge")


def lyapunov_residual(a, q, p) -> mpf:
    r = a * p + p * a.T + q
    return _norm(r) / (2 * _norm(a) * _norm(p) + _norm(q))


def riccati_residual(a, q, p_inv) -> mpf:
    r = p_inv * a + a.T * p_inv + p_inv * q * p_inv
    return _norm(r) / (2 * _norm(a) * _norm(p_inv) + _norm(p_inv) ** 2 * _norm(q))


def finite_residual(a, q, p_t, e) -> mpf:
    """Scaled residual of A P(t) + P(t) A^T + Q - e^{At} Q e^{A^T t} = 0."""
    eqe = e * q * e.T
    r = a * p_t + p_t * a.T + q - eqe
    return _norm(r) / (2 * _norm(a) * _norm(p_t) + _norm(q) + _norm(eqe))


def product_residual(p, p_inv) -> mpf:
    n = p.rows
    return _norm(p_inv * p - mp.eye(n)) / (_norm(p_inv) * _norm(p))


def _eigenvalues_of(a, ref: Reference) -> list:
    """Eigenvalues of a real matrix, certified by their eigenpair residuals."""
    values, vectors = mp.eig(a)
    scale = _norm(a)
    for k, lam in enumerate(values):
        x = vectors[:, k]
        _certify(ref, "eigenpair", _norm(a * x - lam * x) / (scale * _norm(x)))
    return [mpc(v) for v in values]


def build_reference(doc: dict, horizon=None, x0=None, full: bool = True) -> Reference:
    """Reference for one system document.

    ``horizon`` adds the finite Gramian, its inverse (including the
    homogeneous part of an initial condition) and ``homogeneous_sum``;
    ``x0`` adds the minimum-energy quadratic form in companion coordinates;
    ``full`` = False stops after the spectrum.
    """
    with mp.workdps(DPS):
        return _build(doc, horizon, x0, full)


def _build(doc: dict, horizon, x0, full: bool) -> Reference:
    ref = Reference(spectrum=[])
    system = None
    if "char_poly" in doc:
        coeffs = [_mpf(c) for c in doc["char_poly"]]
        roots = poly_roots(coeffs)
        for r in roots:
            _certify(ref, "root", root_residual(coeffs, r))
        ref.spectrum = [(r, 1) for r in roots]
        expanded = roots
    elif "eigenvalues" in doc:
        ref.spectrum = [(mpc(_mpf(re), _mpf(im)), int(m)) for re, im, m in doc["eigenvalues"]]
        expanded = [lam for lam, m in ref.spectrum for _ in range(m)]
        coeffs = poly_from_roots(expanded)
    else:
        a = mp.matrix([[_mpf(x) for x in row] for row in doc["matrices"]["A"]])
        b = mp.matrix([[_mpf(x) for x in row] for row in doc["matrices"]["B"]])
        system = (a, b)
        roots = _eigenvalues_of(a, ref)
        coeffs = poly_from_roots(roots)
        ref.spectrum = [(r, 1) for r in roots]
        expanded = roots
    if not full:
        return ref

    a_c, b_c = companion(coeffs)
    q_c = b_c * b_c.T
    t = None if horizon is None else _mpf(horizon)
    distinct = _separation(expanded) > mpf(10) ** -20
    if distinct:
        p_c, p_t, e = lyapunov_closed_form(expanded, t)
    else:
        p_c = lyapunov_smith(a_c, q_c)
        e = None if t is None else mp.expm(a_c * t)
        p_t = None if t is None else p_c - e * p_c * e.T
    _certify(ref, "lyapunov", lyapunov_residual(a_c, q_c, p_c))
    q_inv = mp.inverse(p_c)
    _certify(ref, "riccati", riccati_residual(a_c, q_c, q_inv))
    ref.matrices["gramian.sum"] = p_c
    ref.matrices["inverse.sum"] = q_inv

    if t is not None:
        _certify(ref, "finite lyapunov", finite_residual(a_c, q_c, p_t, e))
        ref.matrices["finite.sum"] = p_t
        total = p_t
        if doc.get("initial_condition") is not None:
            p0 = mp.matrix([[_mpf(x) for x in row] for row in doc["initial_condition"]])
            homogeneous = e * p0 * e.T
            ref.matrices["finite.homogeneous_sum"] = homogeneous
            total = p_t + homogeneous
        finite_inv = mp.inverse(total)
        _certify(ref, "finite product", product_residual(total, finite_inv))
        ref.matrices["finite_inverse.sum"] = finite_inv

    if x0 is not None:
        x = mp.matrix([_mpf(v) for v in x0])
        ref.energy = (x.T * q_inv * x)[0, 0]

    if system is not None:
        a, b = system
        q = b * b.T
        p = lyapunov_smith(a, q)
        _certify(ref, "lyapunov (original)", lyapunov_residual(a, q, p))
        p_inv = mp.inverse(p)
        _certify(ref, "riccati (original)", riccati_residual(a, q, p_inv))
        ref.matrices["gramian_original.sum"] = p
        ref.matrices["inverse_original.sum"] = p_inv
    return ref
