import numpy as np
import pytest

import gramspec as gs
from gramspec.cli import cmd_verify

from conftest import random_companion
from references import gramian_quadrature, matrix_exp_reference, symmetry_defect

EX1_SUM = (-1.0 / 120.0) * np.array([[1, 0, -1], [0, 1, 0], [-1, 0, 11]], dtype=float)
EX5_SUM = np.array(
    [
        [-41, 0, 12, 0, -16],
        [0, -12, 0, 16, 0],
        [12, 0, -16, 0, 64],
        [0, 16, 0, -64, 0],
        [-16, 0, 64, 0, -1152],
    ],
    dtype=float,
) / 13824.0


class TestKroneckerSolve:
    def test_example_fixture(self, example1):
        _, cr, _ = example1
        q = np.outer(cr.b_c, cr.b_c)
        result = gs.solve_lyapunov_dense(cr.a_c, q)
        assert np.max(np.abs(result - EX1_SUM)) < 1e-10
        assert gs.residual_lyapunov(cr.a_c, q, result) < 1e-10

    def test_scalar(self):
        result = gs.solve_lyapunov_dense(np.array([[-1.0]]), np.array([[1.0]]))
        assert abs(result[0, 0] - 0.5) < 1e-14

    def test_quintic_fixture(self, example5):
        _, cr, _ = example5
        result = gs.solve_lyapunov_dense(cr.a_c, np.outer(cr.b_c, cr.b_c))
        assert np.max(np.abs(result - EX5_SUM)) < 1e-10

    def test_inverse_fixture(self, example1):
        # the numerical inverse of the oracle solution reproduces the
        # closed-form rational inverse
        _, cr, _ = example1
        result = gs.solve_lyapunov_dense(cr.a_c, np.outer(cr.b_c, cr.b_c))
        expected = -12.0 * np.array([[11, 0, 1], [0, 10, 0], [1, 0, 1]], dtype=float)
        inverse = np.linalg.inv(result)
        assert np.max(np.abs(inverse - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_singular_operator_rejected(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +-i
        with pytest.raises(gs.SolvabilityError):
            gs.solve_lyapunov_dense(a, np.eye(2))

    def test_dimension_cap(self):
        a = -np.eye(40)
        with pytest.raises(ValueError, match="cap"):
            gs.solve_lyapunov_dense(a, np.eye(40))

    def test_residual_recomputable(self):
        rng = np.random.default_rng(401)
        _, cr, _ = random_companion(rng, 4)
        q = np.outer(cr.b_c, cr.b_c)
        # the solve returns the matrix alone; its residual is the caller's to form
        result = gs.solve_lyapunov_dense(cr.a_c, q)
        assert gs.residual_lyapunov(cr.a_c, q, result) < 1e-12


class TestSharedOperator:
    def test_passed_operator_gives_the_same_bits(self):
        rng = np.random.default_rng(12)
        _, cr, _ = random_companion(rng, 6)
        q = np.outer(cr.b_c, cr.b_c)
        operator = gs.oracle.kron_operator(cr.a_c)
        for result, shared in (
            (gs.solve_lyapunov_dense(cr.a_c, q),
             gs.solve_lyapunov_dense(cr.a_c, q, operator=operator)),
            (gs.integrate_lyapunov(cr.a_c, q, np.eye(6), 0.5, steps=300),
             gs.integrate_lyapunov(cr.a_c, q, np.eye(6), 0.5, steps=300, operator=operator)),
        ):
            assert result.tobytes() == shared.tobytes()

    def test_verify_builds_it_once(self, monkeypatch):
        built = []
        kron_operator = gs.oracle.kron_operator
        monkeypatch.setattr(gs.oracle, "kron_operator",
                            lambda a: built.append(a.shape) or kron_operator(a))
        report = cmd_verify(gs.parse_system({"char_poly": [6.0, 11.0, 6.0, 1.0]}))
        names = [check["name"] for check in report["checks"]]
        assert "gramian_oracle_agreement" in names and "finite_rk4_agreement" in names
        assert built == [(3, 3)]


class TestRk4:
    def test_scalar_homogeneous(self):
        result = gs.integrate_lyapunov(
            np.array([[-1.0]]), np.array([[0.0]]), np.array([[1.0]]), 1.0, steps=10_000
        )
        assert abs(result[0, 0] - np.exp(-2.0)) < 1e-10

    def test_zero_horizon(self):
        p0 = np.array([[2.0, 1.0], [1.0, 3.0]])
        result = gs.integrate_lyapunov(-np.eye(2), np.zeros((2, 2)), p0, 0.0, steps=1)
        assert np.array_equal(result, p0)

    def test_example_cross_path(self, example1):
        _, cr, spec = example1
        q = np.outer(cr.b_c, cr.b_c)
        rk4 = gs.integrate_lyapunov(cr.a_c, q, np.zeros((3, 3)), 1.0, steps=10_000)
        h = gs.horizon(gs.eigen_structure(cr.poly, spec), 1.0)
        closed = gs.finite_subgramians(h).at_t.total().real
        assert np.linalg.norm(rk4 - closed) <= 1e-6 * np.linalg.norm(closed)

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(403)
        _, cr, _ = random_companion(rng, 5)
        q = np.outer(cr.b_c, cr.b_c)
        result = gs.integrate_lyapunov(cr.a_c, q, np.eye(5), 2.0, steps=2_000)
        assert np.max(np.abs(result - result.T)) < 1e-10

    def test_fourth_order_convergence(self):
        # halving the step size cuts the error by about 16x
        a = np.array([[-1.0]])
        q = np.array([[0.0]])
        p0 = np.array([[1.0]])
        exact = np.exp(-2.0)
        errors = [
            abs(gs.integrate_lyapunov(a, q, p0, 1.0, steps=steps)[0, 0] - exact)
            for steps in (8, 16, 32)
        ]
        assert 12.0 < errors[0] / errors[1] < 20.0
        assert 12.0 < errors[1] / errors[2] < 20.0


def _rk4_stage_loop(a, q, p0, t, steps):
    """Classical RK4 stage by stage: the loop that integrate_lyapunov replaced."""
    p = np.array(p0, dtype=float)
    h = t / steps

    def rhs(m):
        return a @ m + m @ a.T + q

    for _ in range(steps):
        k1 = rhs(p)
        k2 = rhs(p + 0.5 * h * k1)
        k3 = rhs(p + 0.5 * h * k2)
        k4 = rhs(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return p


def _exact_flow(a, q, p0, t):
    """P(t) of dP/dt = A P + P A^T + Q, from the exponential of the augmented
    generator [[I kron A + A kron I, vec Q], [0, 0]] acting on (vec P_0, 1)."""
    n = a.shape[0]
    eye = np.eye(n)
    generator = np.zeros((n * n + 1, n * n + 1))
    generator[:-1, :-1] = np.kron(eye, a) + np.kron(a, eye)
    generator[:-1, -1] = q.reshape(-1, order="F")
    v = matrix_exp_reference(generator, t) @ np.append(p0.reshape(-1, order="F"), 1.0)
    return v[:-1].reshape(n, n, order="F")


class TestPoweredRk4:
    # The powered one-step map and the stage loop evaluate the same RK4
    # recursion with different rounding.  With many steps they differ by up
    # to about 1e-11 at n = 9 and 10, where the float64 stage loop itself is
    # about 1e-12 from an 80-bit one, so the floor is 1e-10.  With 7
    # steps on a companion operator the squarings of the one-step map lose
    # digits the loop keeps (up to about 1e-6), but RK4's truncation error is
    # then of order one, so the bound also allows 1e-3 of it.
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_stage_loop(self, n):
        rng = np.random.default_rng(410 + n)
        _, cr, _ = random_companion(rng, n)
        q = np.outer(cr.b_c, cr.b_c)
        m = rng.standard_normal((n, n))
        p0 = 0.5 * (m + m.T)
        for steps in (1, 7, 300, 1200, 10_000):
            t = float(rng.uniform(0.1, 2.0))
            powered = gs.integrate_lyapunov(cr.a_c, q, p0, t, steps=steps)
            loop = _rk4_stage_loop(cr.a_c, q, p0, t, steps)
            scale = np.linalg.norm(loop)
            truncation = np.linalg.norm(loop - _exact_flow(cr.a_c, q, p0, t)) / scale
            assert np.linalg.norm(powered - loop) / scale <= 1e-10 + 1e-3 * truncation

    def test_convergence_ratios_match_stage_loop(self, mirrored_stable):
        _, cr, _ = mirrored_stable
        q = np.outer(cr.b_c, cr.b_c)
        p0 = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.3], [0.0, -0.3, 1.5]])
        exact = _exact_flow(cr.a_c, q, p0, 1.0)

        def ratios(integrate):
            errors = [np.linalg.norm(integrate(steps) - exact) for steps in (8, 16, 32)]
            return np.array([errors[0] / errors[1], errors[1] / errors[2]])

        powered = ratios(lambda s: gs.integrate_lyapunov(cr.a_c, q, p0, 1.0, steps=s))
        loop = ratios(lambda s: _rk4_stage_loop(cr.a_c, q, p0, 1.0, s))
        assert np.all(np.abs(powered - loop) <= 1e-9 * loop)

    def test_zero_horizon_many_steps(self):
        p0 = np.array([[2.0, 1.0], [1.0, 3.0]])
        a = np.array([[0.0, 1.0], [-2.0, -3.0]])
        result = gs.integrate_lyapunov(a, np.eye(2), p0, 0.0, steps=10_000)
        assert np.array_equal(result, p0)

    def test_steps_method_and_residual(self):
        rng = np.random.default_rng(421)
        _, cr, _ = random_companion(rng, 4)
        q = np.outer(cr.b_c, cr.b_c)
        # the integration returns the matrix alone: the step count is the
        # caller's, and the symmetry defect it used to report is formed here
        p = gs.integrate_lyapunov(cr.a_c, q, np.zeros((4, 4)), 1.0, steps=1_200)
        assert p.shape == (4, 4) and p.dtype == np.float64
        assert symmetry_defect(p) <= 1e-12

    def test_dimension_cap(self):
        n = 33  # one above the cap of 32
        with pytest.raises(ValueError, match="cap"):
            gs.integrate_lyapunov(-np.eye(n), np.eye(n), np.zeros((n, n)), 1.0, steps=10)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, -1.0])
    def test_bad_horizon_rejected(self, t):
        with pytest.raises(ValueError, match="finite t >= 0"):
            gs.integrate_lyapunov(-np.eye(2), np.eye(2), np.zeros((2, 2)), t, steps=10)

    def test_bad_steps_rejected(self):
        with pytest.raises(ValueError, match="steps >= 1"):
            gs.integrate_lyapunov(-np.eye(2), np.eye(2), np.zeros((2, 2)), 1.0, steps=0)


class TestQuadrature:
    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, -1.0])
    def test_bad_horizon_rejected(self, t):
        with pytest.raises(ValueError, match="finite t >= 0"):
            gramian_quadrature(-np.eye(2), np.eye(2), t)

    def test_zero_horizon(self):
        result = gramian_quadrature(-np.eye(2), np.eye(2), 0.0)
        assert np.array_equal(result, np.zeros((2, 2)))

    def test_stable_asymptotic(self, mirrored_stable):
        _, cr, _ = mirrored_stable
        quad = gramian_quadrature(cr.a_c, cr.b_c, 30.0, intervals=3_000)
        dense = gs.solve_lyapunov_dense(cr.a_c, np.outer(cr.b_c, cr.b_c))
        assert np.max(np.abs(quad - dense)) < 1e-6

    def test_against_rk4(self, example1):
        _, cr, _ = example1
        q = np.outer(cr.b_c, cr.b_c)
        quad = gramian_quadrature(cr.a_c, cr.b_c, 0.5, intervals=2_000)
        rk4 = gs.integrate_lyapunov(cr.a_c, q, np.zeros((3, 3)), 0.5, steps=10_000)
        assert np.max(np.abs(quad - rk4)) <= 1e-6 * max(1, np.max(np.abs(rk4)))

    def test_two_oracle_agreement_random(self):
        rng = np.random.default_rng(405)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            _, cr, _ = random_companion(rng, n)
            q = np.outer(cr.b_c, cr.b_c)
            t = float(rng.uniform(0.2, 2.0))
            quad = gramian_quadrature(cr.a_c, cr.b_c, t, intervals=2_000)
            rk4 = gs.integrate_lyapunov(cr.a_c, q, np.zeros((n, n)), t, steps=10_000)
            scale = max(1.0, np.max(np.abs(rk4)))
            assert np.max(np.abs(quad - rk4)) <= 1e-6 * scale
            assert symmetry_defect(quad) <= 1e-12


class TestMatrixExp:
    def test_zero_matrix(self):
        assert np.array_equal(matrix_exp_reference(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = matrix_exp_reference(np.diag([-1.0, -2.0]), 1.0)
        assert np.max(np.abs(out - np.diag([np.exp(-1.0), np.exp(-2.0)]))) < 1e-14

    def test_residue_expansion_agreement(self, example1):
        poly, cr, spec = example1
        t = 0.3
        residues = gs.eigen_structure(poly, spec).residues
        spectral = sum(residues[i] * np.exp(spec.values[i] * t) for i in range(3)).real
        reference = matrix_exp_reference(cr.a_c, t)
        assert np.max(np.abs(spectral - reference)) < 1e-9


class TestResiduals:
    def test_exact_solution_residuals(self, example1):
        _, cr, _ = example1
        q = np.outer(cr.b_c, cr.b_c)
        assert gs.residual_lyapunov(cr.a_c, q, EX1_SUM) < 1e-12
        inverse = -12.0 * np.array([[11, 0, 1], [0, 10, 0], [1, 0, 1]], dtype=float)
        assert gs.residual_riccati(cr.a_c, cr.b_c, inverse) < 1e-9

    def test_perturbation_scaling(self, example1):
        _, cr, _ = example1
        q = np.outer(cr.b_c, cr.b_c)
        residual = gs.residual_lyapunov(cr.a_c, q, EX1_SUM + 1e-3 * np.eye(3))
        # perturbing P by eps I adds eps (A + A^T) to the equation
        expected = 1e-3 * np.linalg.norm(cr.a_c + cr.a_c.T)
        assert 0.3 * expected < residual < 3.0 * expected
