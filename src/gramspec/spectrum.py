"""Characteristic polynomials, root finding, spectrum clustering, solvability.

Everything downstream works with a monic characteristic polynomial and a
clustered spectrum.  Roots start as LAPACK companion-matrix eigenvalues and
are polished by Newton steps on the exact residual, which stop at the
correctly rounded root of every simple zero.  The same steps polish the
80-bit roots of an extended eigen structure: this module alone knows the
dyadic format of coefficients and roots (integers over a power of two) and
how to round an exact value to each working precision.  A Polynomial keeps
every exact value it has evaluated, so each dyadic point (or its conjugate)
is evaluated once per polynomial, and the first 80-bit step reuses the
values of the last double step; the 80-bit rounding of a whole array of
exact values is one array of significands and one np.ldexp.  Measured envelope
on the benchmark's stable, conjugate-closed spectra (separation 0.3):
``analyze --pairs --inverse --finite 1`` passes every document at degree 3
and 5, misses an accuracy bound on 3 of 8 at degree 8 and exits 3 on every
document at degree 12 and 16; ``verify`` fails every document at degree 8
and 10.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConvergenceError, Record, SolvabilityError, ValueRecord


class Tolerances(ValueRecord):
    """Relative tolerances used by the spectrum pipeline.

    All three scale with the problem (coefficient magnitude or spectral
    radius); see the operations that consume them.
    """

    def __init__(self, root: float = 1e-12, cluster: float = 1e-8, solvability: float = 1e-10):
        # each field once, named with the command-line flag that sets it
        for value, name, flag in ((root, "root", "--tol-root"),
                                  (cluster, "cluster", "--tol-cluster"),
                                  (solvability, "solvability", "--tol-solve")):
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{flag}: {name} tolerance must be finite and > 0, got {value!r}")
        self.__dict__.update(root=root, cluster=cluster, solvability=solvability)


DEFAULT_TOLERANCES = Tolerances()
CONJUGATE_TOL = 1e-9  # distance, relative to 1 + radius, of a conjugate partner


class Polynomial(Record):
    """Monic real polynomial, coefficients ascending: a_0 + a_1 s + ... + s^n."""

    def __init__(self, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size < 2:
            raise ValueError("polynomial needs degree >= 1, a flat list of at least two "
                             f"coefficients, got shape {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("polynomial coefficients must be finite")
        if coeffs[-1] != 1.0:
            raise ValueError("polynomial must be monic, got leading coefficient "
                             f"{float(coeffs[-1])!r}")
        self.__dict__["coeffs"] = coeffs

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @functools.cached_property
    def _dyadic(self) -> tuple:
        """The coefficients as integers on one power-of-two scale: (C, t) with
        a_k = C_k / 2^t exactly (every float is a dyadic rational)."""
        ratios = [c.as_integer_ratio() for c in self.coeffs.tolist()]
        t = max(den.bit_length() for _, den in ratios) - 1
        return tuple(num << (t - den.bit_length() + 1) for num, den in ratios), t

    @functools.cached_property
    def _evaluated(self) -> dict:
        """exact_horner's (re, im) at every dyadic point (x, y, s) evaluated
        so far, with the conjugate point (x, -y, s) beside it at (re, -im)."""
        return {}


class Spectrum(Record):
    """Clustered eigenvalues with multiplicities; total multiplicity is n."""

    def __init__(self, values: np.ndarray, multiplicities: np.ndarray):
        values = np.asarray(values, dtype=complex)
        mults = np.asarray(multiplicities, dtype=int)
        if values.ndim != 1 or values.shape != mults.shape:
            raise ValueError("values and multiplicities must be 1-d and equally long")
        if np.any(mults < 1):
            raise ValueError("multiplicities must be positive")
        self.__dict__.update(values=values, multiplicities=mults)

    @property
    def n(self) -> int:
        return int(self.multiplicities.sum())

    @property
    def is_simple(self) -> bool:
        return bool(np.all(self.multiplicities == 1))

    @property
    def radius(self) -> float:
        return float(np.max(np.abs(self.values)))

    @property
    def is_stable(self) -> bool:
        return bool(np.all(self.values.real < 0.0))

    def expanded(self) -> np.ndarray:
        """All eigenvalues with repeats, e.g. for rebuilding the polynomial."""
        return np.repeat(self.values, self.multiplicities)

    def conjugate_partner(self) -> np.ndarray:
        """Index of the conjugate eigenvalue for each entry (itself if real).

        The partner of lambda_i is the first value nearest to conj(lambda_i),
        unless it is farther than CONJUGATE_TOL relative to 1 + radius.  The
        read-only index array is computed on the first call only.
        """
        return self._conjugate_partner

    @functools.cached_property
    def _conjugate_partner(self) -> np.ndarray:
        values, index = self.values, np.arange(self.values.size)
        distance = values - np.conj(values)[:, None]  # row i: values - conj(lambda_i)
        partner = np.argmin(np.abs(distance), axis=1)
        nearest = distance[index, partner]
        # |.| rounded as Python's abs rounds a complex scalar
        far = np.hypot(nearest.real, nearest.imag) > CONJUGATE_TOL * (1.0 + self.radius)
        partner = np.where(far, index, partner)
        partner.flags.writeable = False
        return partner


class SolvabilityReport(ValueRecord):
    """Outcome of the pairwise check |lambda_i + lambda_j| > 0."""

    def __init__(self, ok: bool, violating_pairs: list | None = None,
                 min_pair_magnitude: float = np.inf):
        pairs = [] if violating_pairs is None else violating_pairs
        self.__dict__.update(ok=ok, violating_pairs=pairs, min_pair_magnitude=min_pair_magnitude)

    def require(self) -> SolvabilityReport:
        """This report; raises SolvabilityError unless ok."""
        if not self.ok:
            raise SolvabilityError(self)
        return self


def _kahan_trace(m: np.ndarray):
    """Compensated summation of the diagonal (dtype-preserving)."""
    zero = m.dtype.type(0.0)
    total = zero
    comp = zero
    for x in np.diagonal(m):
        y = x - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def char_poly(a) -> Polynomial:
    """Monic characteristic polynomial of a square matrix.

    Uses the Faddeev-Leverrier recursion with compensated trace summation;
    returns ascending coefficients (a_0, ..., a_{n-1}, 1).  Intermediate
    matrix powers grow like norm(A)^k, so the recursion runs in 80-bit
    floats; a non-normal A still loses digits.  On document 4 of the
    benchmark's cli_cold catalogue (n = 6, cond(A) 5.0e4) the coefficients
    are off by 1.73e-9 relative in the max norm against a 60-digit run of
    the same recursion (worst coefficient 1.99e-9), and the spectrum misses
    its 1e-8 bound (1.71e-7) while analyze exits 0.  ROADMAP item 6 plans
    the replacement.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"dynamics matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("dynamics matrix must have finite entries")
    n = a.shape[0]
    work = a.astype(np.longdouble)
    coeffs = np.zeros(n + 1, dtype=np.longdouble)
    coeffs[n] = 1.0
    m = np.eye(n, dtype=np.longdouble)
    for k in range(1, n + 1):
        m = work @ m
        c = -_kahan_trace(m) / k
        coeffs[n - k] = c
        m += c * np.eye(n, dtype=np.longdouble)
    return Polynomial(coeffs.astype(float))


def poly_from_roots(roots) -> Polynomial:
    """Monic polynomial with the given roots (ascending coefficients).

    Imaginary residue from conjugate-paired root sets is discarded.
    """
    coeffs = np.array([1.0 + 0.0j])
    for r in np.asarray(roots, dtype=complex):
        coeffs = np.convolve(coeffs, np.array([-r, 1.0]))
    return Polynomial(coeffs.real)


def eval_with_derivative(p: Polynomial, s):
    """Horner evaluation of N(s) and N'(s)."""
    value = 0.0 + 0.0j
    deriv = 0.0 + 0.0j
    for c in p.coeffs[::-1]:
        deriv = deriv * s + value
        value = value * s + c
    return value, deriv


_NEWTON_STEPS = 8  # cap for multiple-root clouds, where Newton never settles
_LONGDOUBLE_BITS = np.finfo(np.longdouble).nmant + 1  # significand bits of the 80-bit format


def _round_longdouble(mans, exps) -> np.ndarray:
    """Each mans[i] * 2^exps[i] correctly rounded (to nearest, ties to even)
    to the 80-bit format, as one array: the integer division happens on the
    significands, which the format holds exactly, so the one float
    operation, one np.ldexp scaling by powers of two, is exact.  ``exps`` is
    a sequence or one int for all."""
    magnitudes, shifts, negative = [], [], []
    for man in mans:
        magnitude = abs(man)
        shift = max(0, magnitude.bit_length() - _LONGDOUBLE_BITS)
        if shift:
            magnitude, rest = divmod(magnitude, 1 << shift)
            half = 1 << (shift - 1)
            if rest > half or (rest == half and magnitude & 1):
                magnitude += 1
        magnitudes.append(magnitude)
        shifts.append(shift)
        negative.append(man < 0)
    values = np.ldexp(np.array(magnitudes, dtype=np.longdouble), np.add(exps, shifts))
    return np.negative(values, out=values, where=np.array(negative, dtype=bool))


def dyadic_point(z) -> tuple:
    """(x, y, s) with z = (x + i y) / 2^s exactly, x and y integers; z is a
    complex or an 80-bit complex scalar."""
    (xn, xd), (yn, yd) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    s = max(xd, yd).bit_length() - 1
    return xn << (s - xd.bit_length() + 1), yn << (s - yd.bit_length() + 1), s


def exact_horner(coeffs: list, x: int, y: int, s: int) -> tuple:
    """N(z) at z = (x + i y) / 2^s, exactly: Horner on Gaussian integers for
    the integer coefficients C of Polynomial._dyadic (scale 2^t).  Returns
    (re, im) with N(z) = (re + i im) / 2^(t + s n)."""
    n = len(coeffs) - 1
    re, im = coeffs[n], 0
    for k in range(n - 1, -1, -1):
        re, im = re * x - im * y + (coeffs[k] << (s * (n - k))), re * y + im * x
    return re, im


def _exact_values(p: Polynomial, roots: np.ndarray) -> np.ndarray:
    """N(z) at each root, exact and rounded once to the roots' dtype:
    coefficients and roots are dyadic rationals, so on a power-of-two scale
    Horner runs on Python ints, and one int/int true division (complex128)
    or _round_longdouble (clongdouble) rounds each part correctly.

    The exact integers depend on the point alone, not on the dtype it came
    in, so the polynomial keeps them (Polynomial._evaluated) and evaluates
    each point once.  The coefficients are real, so on the integers
    N(conj z) = conj N(z) exactly: the conjugate point is kept too, the
    imaginary integer negated.  Negating the integer, not the rounded part,
    keeps the sign of a zero."""
    coeffs, t = p._dyadic
    evaluated = p._evaluated
    points = [dyadic_point(z) for z in roots.tolist()]
    for x, y, s in points:
        if (x, y, s) not in evaluated:
            re, im = exact_horner(coeffs, x, y, s)
            evaluated[x, -y, s] = re, -im
            evaluated[x, y, s] = re, im
    values = [evaluated[point] for point in points]
    exps = [t + s * p.degree for _, _, s in points]
    if roots.dtype == np.clongdouble:
        scale = [-exp for exp in exps]
        return (_round_longdouble([re for re, _ in values], scale)
                + 1j * _round_longdouble([im for _, im in values], scale))
    return np.array([complex(re / (1 << exp), im / (1 << exp))
                     for (re, im), exp in zip(values, exps)], dtype=roots.dtype)


def _newton_polish(p: Polynomial, roots: np.ndarray) -> np.ndarray:
    """Newton steps z - N(z)/N'(z) with N(z) exact, in the roots' own dtype
    (complex128 or clongdouble), until no root moves.  The step is then
    accurate to a few ulps of itself, so every simple root stops at its
    correctly rounded value; N'(z) needs only Horner in that dtype."""
    for _ in range(_NEWTON_STEPS):
        values = _exact_values(p, roots)
        derivs = eval_with_derivative(p, roots)[1]
        step = np.divide(values, derivs, out=np.zeros_like(values), where=derivs != 0)
        moved = roots - step
        if np.array_equal(moved, roots):
            break
        roots = moved
    return roots


def _pair_conjugates(roots: np.ndarray) -> np.ndarray:
    """Enforce exact conjugate symmetry on an (approximately symmetric) root set.

    Nearest-conjugate matching (the optimal assignment whenever it is a
    permutation): each root goes to the root nearest its conjugate; mutual
    matches become exact conjugate pairs, fixed points are made real.
    """
    n = roots.size
    cost = np.abs(roots[:, None] - np.conj(roots)[None, :])
    col = np.argmin(cost, axis=1)
    out = roots.copy()
    visited = np.zeros(n, dtype=bool)
    for i in range(n):
        if visited[i]:
            continue
        j = col[i]
        if j == i:
            out[i] = roots[i].real
            visited[i] = True
        elif col[j] == i:
            z = 0.5 * (roots[i] + np.conj(roots[j]))
            out[i] = z
            out[j] = np.conj(z)
            visited[i] = visited[j] = True
        else:
            visited[i] = True
    return out


def _sort_roots(roots: np.ndarray) -> np.ndarray:
    order = np.lexsort((roots.imag, np.abs(roots.imag), roots.real))
    return roots[order]


def find_roots(p: Polynomial, tol: float = DEFAULT_TOLERANCES.root) -> np.ndarray:
    """All roots of a monic polynomial, each simple one correctly rounded.

    The start is np.roots (companion-matrix eigenvalues from LAPACK, backward
    stable); Newton steps on the exact residual move every simple root to its
    correctly rounded complex128 value, whatever the start, step count or
    platform.  Clouds around multiple roots stop after 8 steps; cluster()
    recovers multiplicities from them.  Every returned root satisfies
    |N(r)| <= tol * max|a_i| * max(1, |r|)^n; otherwise ConvergenceError
    carries the worst residual relative to that bound.
    """
    roots = np.roots(p.coeffs[::-1]).astype(complex)
    if not np.all(np.isfinite(roots)):
        raise ConvergenceError("companion eigenvalues are not finite", worst_residual=np.inf)
    try:
        roots = _newton_polish(p, roots)
    except OverflowError:  # an exact |N(z)| or a Newton iterate beyond the float range
        raise ConvergenceError("root residuals overflow", worst_residual=np.inf) from None
    # compared in logarithms: max(1, |r|)^n overflows for roots near the
    # float range; an exact zero residual has logarithm -inf
    values = np.abs(eval_with_derivative(p, roots)[0])
    excess = (
        np.log(values, out=np.full(values.shape, -np.inf), where=values != 0.0)
        - np.log(tol) - np.log(np.max(np.abs(p.coeffs)))
        - p.degree * np.log(np.maximum(1.0, np.abs(roots)))
    )
    if not np.all(excess <= 0.0):
        worst = math.exp(excess.max()) if excess.max() < 709.0 else math.inf
        raise ConvergenceError("roots miss the residual bound", worst_residual=worst)
    return _sort_roots(_pair_conjugates(roots))


def cluster(roots, tol: float = DEFAULT_TOLERANCES.cluster) -> Spectrum:
    """Greedy union of roots within tol * (1 + spectral radius).

    Multiplicity is the cluster size and the representative the cluster
    centroid; centroids of conjugate clusters are symmetrized.  Root clouds
    from a multiplicity-m root have radius ~eps^(1/m), so recovering
    multiplicities from floating-point roots needs tol of that order.
    """
    roots = np.asarray(roots, dtype=complex)
    n = roots.size
    radius = tol * (1.0 + float(np.max(np.abs(roots))))
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) <= radius:
                parent[find(i)] = find(j)

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    values = np.array([np.mean(roots[idx]) for idx in groups.values()])
    mults = np.array([len(idx) for idx in groups.values()])

    values = _pair_conjugates(values)
    order = np.lexsort((values.imag, np.abs(values.imag), values.real))
    return Spectrum(values[order], mults[order])


def check_solvability(
    spec: Spectrum, tol: float = DEFAULT_TOLERANCES.solvability
) -> SolvabilityReport:
    """Check |lambda_i + lambda_j| > tol * (1 + spectral radius) for all i <= j.

    Callers must refuse any Gramian decomposition when the report is not ok
    (SolvabilityReport.require).
    """
    scale = tol * (1.0 + spec.radius)
    pairs = []
    min_mag = np.inf
    values = spec.values
    for i in range(values.size):
        for j in range(i, values.size):
            mag = abs(values[i] + values[j])
            min_mag = min(min_mag, mag)
            if mag <= scale:
                pairs.append((i, j))
    return SolvabilityReport(ok=not pairs, violating_pairs=pairs, min_pair_magnitude=float(min_mag))
