import json

import numpy as np
import pytest

import gramspec as gs
from gramspec.spectrum import _exact_values, _pair_conjugates, _sort_roots, eval_with_derivative

from conftest import random_companion, random_stable_eigenvalues
from references import conjugate_partner_each, exact_values_each


class TestCharPoly:
    def test_example_system(self, example1):
        _, cr, _ = example1
        p = gs.char_poly(cr.a_c)
        assert np.allclose(p.coeffs, [-6.0, 11.0, -6.0, 1.0], atol=1e-12)

    def test_scalar(self):
        p = gs.char_poly(np.array([[-1.0]]))
        assert np.allclose(p.coeffs, [1.0, 1.0])

    def test_round_trip_through_roots(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        p = gs.char_poly(a)
        roots = gs.find_roots(p)
        rebuilt = gs.poly_from_roots(roots)
        assert np.max(np.abs(rebuilt.coeffs - p.coeffs)) <= 1e-10 * np.max(np.abs(p.coeffs))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            gs.char_poly(np.ones((2, 3)))

    def test_companion_round_trip_random(self):
        # char_poly(companion(p)) = p to 1e-12 relative, |a_i| <= 10, n <= 10
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            coeffs = np.append(rng.uniform(-10, 10, n), 1.0)
            p = gs.Polynomial(coeffs)
            back = gs.char_poly(gs.build_companion(p).a_c)
            assert np.max(np.abs(back.coeffs - coeffs)) <= 1e-12 * max(1.0, np.max(np.abs(coeffs)))


class TestFindRoots:
    def test_example_polynomial(self, example1):
        poly, _, _ = example1
        roots = gs.find_roots(poly)
        assert np.allclose(sorted(roots.real), [1.0, 2.0, 3.0], atol=1e-10)
        assert np.allclose(roots.imag, 0.0, atol=1e-10)

    def test_linear_factor(self):
        roots = gs.find_roots(gs.Polynomial([1.0, 1.0]))
        assert np.allclose(roots, [-1.0])

    def test_multiple_root_cloud_clusters(self, example5):
        poly, _, _ = example5
        spec = gs.cluster(gs.find_roots(poly), tol=1e-3)
        assert sorted(spec.multiplicities.tolist()) == [2, 3]
        assert np.allclose(sorted(spec.values.real), [1.0, 2.0], atol=1e-3)

    def test_residual_bound_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            coeffs = np.append(rng.uniform(-10, 10, n), 1.0)
            p = gs.Polynomial(coeffs)
            roots = gs.find_roots(p)
            values = np.abs([eval_with_derivative(p, z)[0] for z in roots])
            bound = 1e-12 * np.max(np.abs(coeffs)) * np.maximum(1.0, np.abs(roots)) ** n
            assert np.all(values <= bound)

    def test_conjugate_closure(self):
        p = gs.poly_from_roots([-1 + 2j, -1 - 2j, -3.0, -0.5 + 0.7j, -0.5 - 0.7j])
        roots = gs.find_roots(p)
        for z in roots:
            assert np.min(np.abs(roots - np.conj(z))) < 1e-12


def _rounded_reference_roots(p: gs.Polynomial) -> np.ndarray:
    """Roots by 60-digit mpmath Newton from the LAPACK start, rounded once to
    complex128, then paired and sorted as find_roots does."""
    from mpmath import mp, mpc, mpf

    coeffs = [mpf(c) for c in p.coeffs.tolist()]
    out = []
    with mp.workdps(60):
        for start in np.roots(p.coeffs[::-1]).astype(complex):
            z = mpc(start)
            for _ in range(100):
                value, deriv = mpc(0), mpc(0)
                for c in reversed(coeffs):
                    value, deriv = value * z + c, deriv * z + value
                step = value / deriv
                z -= step
                if abs(step) <= mpf(10) ** -55 * (1 + abs(z)):
                    break
            out.append(complex(z))
    return _sort_roots(_pair_conjugates(np.array(out)))


def _random_polynomials(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 17))
        yield gs.Polynomial(np.append(rng.uniform(-10, 10, n), 1.0))


class TestCorrectRounding:
    def test_roots_equal_rounded_60_digit_roots(self):
        for p in _random_polynomials(61, 60):
            got = gs.find_roots(p)
            ref = _rounded_reference_roots(p)
            assert np.array_equal(got.real, ref.real) and np.array_equal(got.imag, ref.imag), p

    def test_start_moved_by_ulps_gives_same_roots(self, monkeypatch):
        lapack = np.roots
        rng = np.random.default_rng(62)
        for p in _random_polynomials(63, 30):
            expected = gs.find_roots(p)
            start = lapack(p.coeffs[::-1]).astype(complex)
            ulps = rng.integers(-4, 5, size=(2, start.size)) * np.spacing(np.abs(start))
            moved = start + ulps[0] + 1j * ulps[1] * (start.imag != 0)
            monkeypatch.setattr(np, "roots", lambda coeffs, moved=moved: moved.copy())
            got = gs.find_roots(p)
            monkeypatch.setattr(np, "roots", lapack)
            assert np.array_equal(got, expected), p

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_lapack_output_raises(self, monkeypatch, bad):
        monkeypatch.setattr(np, "roots", lambda coeffs: np.array([bad, -1.0]))
        with pytest.raises(gs.ConvergenceError) as excinfo:
            gs.find_roots(gs.Polynomial([1.0, 3.0, 1.0]))
        assert excinfo.value.worst_residual == np.inf

    def test_residual_beyond_float_range_raises(self):
        # a root near 1e308 whose exact residual does not fit in a float
        with pytest.raises(gs.ConvergenceError) as excinfo:
            gs.find_roots(gs.Polynomial([1e300, -1e308, 1e308, 1.0]))
        assert excinfo.value.worst_residual == np.inf

    def test_residual_bound_near_float_range(self):
        # max(1, |r|)^n is beyond the float range here; the certificate is
        # formed without an overflow warning
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = gs.find_roots(gs.Polynomial([1e308, 1e308, 1.0]))
        assert np.array_equal(roots, [-1e308, -1.0])


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal values and equal signs, zeros included, in both parts."""
    return a.dtype == b.dtype and all(
        np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))
        for x, y in ((a.real, b.real), (a.imag, b.imag))
    )


class TestExactValues:
    """_exact_values reuses the exact integers of a root for its exact
    conjugate; every value is bitwise that of evaluating each root alone."""

    @staticmethod
    def conjugate_closed(rng, dtype) -> np.ndarray:
        """Shuffled conjugate pairs (so most are neither adjacent nor
        sorted), real roots, a repeated real root and a repeated pair; in
        80-bit the parts carry bits beyond the double significand."""
        k = int(rng.integers(1, 6))
        pairs = (rng.uniform(-5, 5, k) + 1j * rng.uniform(0.1, 5, k)).astype(dtype)
        real = rng.uniform(-5, 5, int(rng.integers(1, 4))).astype(dtype)
        if dtype == np.clongdouble:
            fine = np.longdouble(2.0) ** -60 * rng.standard_normal((3, 5))
            pairs = pairs.real * (1 + fine[0, :k]) + 1j * (pairs.imag * (1 + fine[1, :k]))
            real = real * (1 + fine[2, : real.size])
        roots = np.concatenate([pairs, np.conj(pairs), real, real[:1], pairs[:1],
                                np.conj(pairs[:1])])
        return roots[rng.permutation(roots.size)]

    @pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
    def test_conjugate_reuse_is_bitwise(self, dtype):
        rng = np.random.default_rng(2201)
        for p in _random_polynomials(2202, 40):
            roots = self.conjugate_closed(rng, dtype)
            assert _same_bits(_exact_values(p, roots), exact_values_each(p, roots)), p

    @pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
    def test_zero_imaginary_part_keeps_its_sign(self, dtype):
        # N(s) = s^2 + 1 is real on the imaginary axis: N(+-2i) = -3 with an
        # exact zero imaginary part, which stays +0.0 for the reused conjugate
        p = gs.Polynomial([1.0, 0.0, 1.0])
        roots = np.array([2j, -1.0, -2j, 2j], dtype=dtype)
        got = _exact_values(p, roots)
        assert _same_bits(got, exact_values_each(p, roots))
        assert np.array_equal(got, [-3.0, 2.0, -3.0, -3.0])
        assert not np.any(np.signbit(got.imag))

    @pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
    def test_each_conjugate_pair_evaluated_once(self, dtype, monkeypatch):
        import gramspec.spectrum as spectrum

        p = gs.poly_from_roots([-1.0, -2.0 + 1j, -2.0 - 1j, -0.5 + 3j, -0.5 - 3j])
        # found on a copy: the values find_roots evaluates stay with that copy
        roots = gs.find_roots(gs.Polynomial(p.coeffs)).astype(dtype)
        calls = []
        horner = spectrum.exact_horner
        monkeypatch.setattr(spectrum, "exact_horner",
                            lambda *args: calls.append(args[1:]) or horner(*args))
        spectrum._exact_values(p, roots)
        assert len(calls) == 3 and len(set(calls)) == 3

    def test_each_point_evaluated_once_per_polynomial(self, monkeypatch):
        # the double polish, the structure and its 80-bit polish evaluate
        # each dyadic point, or its conjugate, once; the first 80-bit step is
        # at the correctly rounded double roots, which the last double step
        # evaluated
        import gramspec.spectrum as spectrum
        from gramspec.document import parse_system

        roots = [-0.3, -2.1, -0.7 + 1.1j, -0.7 - 1.1j, -1.3 + 2.9j, -1.3 - 2.9j, -3.1 + 0.6j,
                 -3.1 - 0.6j]
        coeffs = gs.poly_from_roots(roots).coeffs.tolist()
        p = parse_system(json.dumps({"schema": 1, "char_poly": coeffs})).poly
        assert p.degree == 8
        calls, points, steps = [], set(), []
        horner, values = spectrum.exact_horner, spectrum._exact_values

        def counted(coeffs, x, y, s):
            calls.append((x, y, s))
            return horner(coeffs, x, y, s)

        def seen(p, roots):
            before = len(calls)
            points.update((x, abs(y), s) for x, y, s in map(spectrum.dyadic_point, roots.tolist()))
            out = values(p, roots)
            steps.append((roots.dtype, len(calls) - before))
            return out

        monkeypatch.setattr(spectrum, "exact_horner", counted)
        monkeypatch.setattr(spectrum, "_exact_values", seen)
        spec = gs.cluster(gs.find_roots(p))
        double = len(steps)
        gs.eigen_structure(p, spec).to_extended()
        assert len(calls) == len({(x, abs(y), s) for x, y, s in calls}) == len(points)
        assert steps[double] == (np.clongdouble, 0) and len(steps) > double + 1


def _assignment_pairing(roots):
    """Reference: conjugate pairing on the minimum-cost assignment of each
    root to a conjugate, followed by the same averaging as _pair_conjugates."""
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(roots[:, None] - np.conj(roots)[None, :])
    _, col = linear_sum_assignment(cost)
    out = roots.copy()
    visited = np.zeros(roots.size, dtype=bool)
    for i in range(roots.size):
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


def _root_finder_like_set(rng):
    """A conjugate-closed stable root set as a root finder returns it: some
    eigenvalues (real ones and conjugate pairs) replaced by 2- or 3-root
    clouds, every root perturbed by ~1e-12, real roots given +-1e-17
    imaginary noise, and the order shuffled."""
    centers = random_stable_eigenvalues(rng, int(rng.integers(2, 10)), separation=0.3,
                                        re_range=(-5.0, -0.5))
    roots = []
    for lam in centers[centers.imag >= 0]:
        m = int(rng.choice([1, 1, 2, 3]))
        if lam.imag == 0:
            # symmetric about the real axis: +-r or +-ir for m = 2, a triangle for m = 3
            angles = 0.5 * np.pi * rng.integers(2) * (m == 2) + 2 * np.pi * np.arange(m) / m
        else:
            angles = rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.arange(m) / m
        cloud = lam + (10.0 ** rng.uniform(-8, -5)) * np.exp(1j * angles) * (m > 1)
        roots += list(cloud) + (list(np.conj(cloud)) if lam.imag != 0 else [])
    roots = np.array(roots)
    real = np.abs(roots.imag) < 1e-300
    roots = roots + 1e-12 * (rng.standard_normal(roots.size) + 1j * rng.standard_normal(roots.size))
    roots[real] = roots[real].real + 1j * rng.choice([-1e-17, 1e-17], size=int(real.sum()))
    return roots[rng.permutation(roots.size)]


class TestPairConjugates:
    def test_matches_optimal_assignment(self):
        rng = np.random.default_rng(2024)
        compared = 0
        for _ in range(240):
            roots = _root_finder_like_set(rng)
            cost = np.abs(roots[:, None] - np.conj(roots)[None, :])
            nearest = np.argmin(cost, axis=1)
            out = _pair_conjugates(roots)
            assert out.shape == roots.shape
            if np.unique(nearest).size == roots.size:
                assert np.array_equal(out, _assignment_pairing(roots))
                compared += 1
        assert compared >= 200


class TestCluster:
    def test_well_separated(self):
        spec = gs.cluster(np.array([1.0, 2.0, 3.0]))
        assert spec.multiplicities.tolist() == [1, 1, 1]

    def test_example_cloud(self, example5):
        poly, _, _ = example5
        spec = gs.cluster(gs.find_roots(poly), tol=1e-3)
        assert spec.values.size == 2
        assert spec.n == 5

    def test_near_coincident_values(self):
        spec = gs.cluster(np.array([1.0, 1.0 + 1e-12, 5.0]), tol=1e-8)
        assert spec.multiplicities.tolist() == [2, 1]
        assert abs(spec.values[0] - 1.0) < 1e-9
        assert spec.values[1] == 5.0

    def test_multiplicity_sum_always_degree(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            roots = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            spec = gs.cluster(roots, tol=rng.choice([1e-8, 1e-3, 0.5]))
            assert spec.n == n


class TestSolvability:
    def test_ok(self, example1):
        _, _, spec = example1
        assert gs.check_solvability(spec).ok

    def test_imaginary_pair(self):
        report = gs.check_solvability(gs.Spectrum.simple([1j, -1j]))
        assert not report.ok
        assert (0, 1) in report.violating_pairs

    def test_origin(self):
        report = gs.check_solvability(gs.Spectrum.simple([0.0]))
        assert not report.ok
        assert (0, 0) in report.violating_pairs
        assert report.min_pair_magnitude == 0.0


class TestEvalWithDerivative:
    def test_example_at_eigenvalue(self, example1):
        poly, _, _ = example1
        value, deriv = eval_with_derivative(poly, 1.0)
        assert abs(value) < 1e-14
        assert abs(deriv - 2.0) < 1e-14

    def test_example_at_mirror(self, example1):
        poly, _, _ = example1
        value, _ = eval_with_derivative(poly, -1.0)
        assert abs(value - (-24.0)) < 1e-14

    def test_linear(self):
        value, deriv = eval_with_derivative(gs.Polynomial([1.0, 1.0]), 0.0)
        assert value == 1.0 and deriv == 1.0


class TestTolerances:
    @pytest.mark.parametrize("field", ["root", "cluster", "solvability"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_non_positive_or_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} tolerance"):
            gs.Tolerances(**{field: value})


class TestPolynomialType:
    def test_monic_required(self):
        with pytest.raises(ValueError, match="monic"):
            gs.Polynomial([1.0, 2.0, 3.0])

    def test_degree_required(self):
        with pytest.raises(ValueError, match="degree"):
            gs.Polynomial([1.0])


def test_spectrum_conjugate_partner():
    spec = gs.Spectrum.simple([-1 + 2j, -1 - 2j, -3.0])
    partner = spec.conjugate_partner()
    assert partner[0] == 1 and partner[1] == 0 and partner[2] == 2


def _partner_spectra():
    """Spectra with real values, conjugate pairs, ties between two candidate
    partners, and partners on either side of the CONJUGATE_TOL threshold."""
    rng = np.random.default_rng(17)
    for n in range(1, 13):
        yield random_stable_eigenvalues(rng, n)
        yield rng.standard_normal(n) + 1j * rng.standard_normal(n) * rng.integers(0, 2, n)
    for delta in (1e-12, 1e-10):
        # conj(2j) = -2j is exactly as near to delta - 2j as to -delta - 2j:
        # the first of the two is the partner
        yield np.array([2j, delta - 2j, -delta - 2j, 3.0, 3.0 + 1e-13])
        yield np.array([-delta - 2j, delta - 2j, 2j])
    for factor in (0.5, 0.999, 1.001, 2.0):
        values = np.array([-1 + 2j, -3.0, -0.5 + 0.25j])
        scale = 1.0 + np.max(np.abs(values))
        mates = np.conj(values) + factor * gs.spectrum.CONJUGATE_TOL * scale * np.exp(0.3j)
        yield np.concatenate([values, mates])


@pytest.mark.parametrize("values", list(_partner_spectra()))
def test_conjugate_partner_matches_loop(values):
    spec = gs.Spectrum.simple(values)
    partner = spec.conjugate_partner()
    assert partner.dtype == conjugate_partner_each(spec).dtype
    assert partner.tolist() == conjugate_partner_each(spec).tolist()
    assert spec.conjugate_partner() is partner and not partner.flags.writeable


def test_nonconvergence_diagnostic():
    # an unreachable residual bound must surface as a diagnostic carrying
    # the worst residual, not as silent bad roots
    rng = np.random.default_rng(3)
    coeffs = np.append(rng.uniform(-10, 10, 10), 1.0)
    p = gs.Polynomial(coeffs)
    with pytest.raises(gs.ConvergenceError) as excinfo:
        gs.find_roots(p, tol=1e-30)
    assert excinfo.value.worst_residual is not None
    assert excinfo.value.worst_residual > 1.0


def test_random_companion_helper():
    rng = np.random.default_rng(0)
    poly, cr, spec = random_companion(rng, 6)
    assert spec.is_simple and spec.n == 6
    assert gs.check_solvability(spec).ok
    assert np.allclose(gs.char_poly(cr.a_c).coeffs, poly.coeffs, atol=1e-9)
