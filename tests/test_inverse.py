import numpy as np
import pytest

import gramspec as gs
from gramspec.cli import VERIFY_BOUNDS
from gramspec.companion import alternating_signs

from conftest import random_companion
from references import (components, inverse_eigenpart_counted, normalization_each,
                        solve_dense_columns)

EX3_EIGEN = {
    0: 12.0 * np.array([[-36, 0, -6], [0, 25, 0], [-6, 0, -1]], dtype=float),
    1: 60.0 * np.array([[9, 0, 3], [0, -16, 0], [3, 0, 1]], dtype=float),
    2: 60.0 * np.array([[-4, 0, -2], [0, 9, 0], [-2, 0, -1]], dtype=float),
}
EX3_SUM = -12.0 * np.array([[11, 0, 1], [0, 10, 0], [1, 0, 1]], dtype=float)
EX3_PAIRS = {
    (0, 0): -72.0 * np.array([[36, -30, 6], [-30, 25, -5], [6, -5, 1]], dtype=float),
    (0, 1): 120.0 * np.array([[36, -39, 9], [-39, 40, -9], [9, -9, 2]], dtype=float),
    (0, 2): -180.0 * np.array([[12, -14, 4], [-14, 15, -4], [4, -4, 1]], dtype=float),
    (1, 1): -900.0 * np.array([[9, -12, 3], [-12, 16, -4], [3, -4, 1]], dtype=float),
    (1, 2): 360.0 * np.array([[12, -17, 5], [-17, 24, -7], [5, -7, 2]], dtype=float),
    (2, 2): -600.0 * np.array([[4, -6, 2], [-6, 9, -3], [2, -3, 1]], dtype=float),
}


def rel_err(got, expected):
    return np.max(np.abs(got - expected)) / max(1.0, np.max(np.abs(expected)))


class TestInverseEigenparts:
    def test_example_values(self, example1):
        _, cr, spec = example1
        sym = gs.inverse_eigenparts(gs.eigen_structure(cr.poly, spec)).symmetrized()
        for i, expected in EX3_EIGEN.items():
            assert rel_err(components(sym)[i], expected) < 1e-12
        assert rel_err(sym.total(), EX3_SUM) < 1e-12

    def test_scalar(self):
        cr = gs.build_companion(gs.Polynomial([1.0, 1.0]))
        inv = gs.inverse_eigenparts(gs.eigen_structure(cr.poly, gs.Spectrum([-1.0], [1])))
        assert abs(inv.total()[0, 0] - 2.0) < 1e-14

    def test_random_matches_numerical_inverse(self):
        rng = np.random.default_rng(201)
        _, cr, spec = random_companion(rng, 5)
        total = gs.inverse_eigenparts(gs.eigen_structure(cr.poly, spec)).symmetrized().total().real
        reference = np.linalg.inv(
            gs.solve_lyapunov_dense(cr.a_c, np.outer(cr.b_c, cr.b_c))
        )
        assert np.linalg.norm(total - reference) <= 1e-7 * np.linalg.norm(reference)

    def test_product_with_gramian(self, example1):
        _, cr, spec = example1
        es = gs.eigen_structure(cr.poly, spec)
        gram = gs.infinite_subgramians(es)
        inv = gs.inverse_eigenparts(es)
        assert np.max(np.abs(inv.total() @ gram.total() - np.eye(3))) < 1e-8

    def test_rank_one_raw_parts(self):
        rng = np.random.default_rng(203)
        _, cr, spec = random_companion(rng, 6)
        inv = gs.inverse_eigenparts(gs.eigen_structure(cr.poly, spec))
        for part in components(inv).values():
            svals = np.linalg.svd(part.astype(complex), compute_uv=False)
            assert svals[1] <= 1e-9 * svals[0]

    def test_multiple_redirected(self, example5):
        _, cr, spec = example5
        with pytest.raises(gs.MultipleEigenvalueError):
            gs.inverse_eigenparts(gs.eigen_structure(cr.poly, spec))


class TestInversePairParts:
    def test_example_values(self, example1):
        _, cr, spec = example1
        sym = gs.inverse_pair_parts(gs.eigen_structure(cr.poly, spec)).symmetrized()
        for key, expected in EX3_PAIRS.items():
            assert rel_err(components(sym)[key], expected) < 1e-12, key
            assert rel_err(components(sym)[(key[1], key[0])], expected) < 1e-12

    def test_scalar(self):
        cr = gs.build_companion(gs.Polynomial([1.0, 1.0]))
        parts = gs.inverse_pair_parts(gs.eigen_structure(cr.poly, gs.Spectrum([-1.0], [1])))
        assert abs(components(parts)[(0, 0)][0, 0] - 2.0) < 1e-14

    def test_column_sums_give_eigen_parts(self, example1):
        _, cr, spec = example1
        es = gs.eigen_structure(cr.poly, spec)
        eigen = gs.inverse_eigenparts(es).symmetrized()
        pairs = gs.inverse_pair_parts(es).symmetrized()
        for j in range(3):
            col = sum(components(pairs)[(i, j)] for i in range(3))
            assert rel_err(col, components(eigen)[j]) < 1e-10

    def test_raw_relation_to_residues(self):
        # raw pair part (i, j) equals R_i^* P_hat_j (conjugate transpose)
        rng = np.random.default_rng(205)
        poly, cr, spec = random_companion(rng, 4)
        es = gs.eigen_structure(cr.poly, spec)
        eigen = gs.inverse_eigenparts(es)
        pairs = gs.inverse_pair_parts(es)
        residues = gs.eigen_structure(poly, spec).residues
        for i in range(4):
            for j in range(4):
                expected = residues[i].conj().T @ components(eigen)[j]
                scale = max(1.0, np.max(np.abs(expected)))
                assert np.max(np.abs(components(pairs)[(i, j)] - expected)) < 1e-8 * scale

    def test_partition_consistency_random(self):
        rng = np.random.default_rng(207)
        _, cr, spec = random_companion(rng, 5)
        es = gs.eigen_structure(cr.poly, spec)
        eigen = gs.inverse_eigenparts(es)
        pairs = gs.inverse_pair_parts(es)
        scale = max(1.0, np.max(np.abs(eigen.total())))
        for j in range(5):
            col = sum(components(pairs)[(i, j)] for i in range(5))
            assert np.max(np.abs(col - components(eigen)[j])) < 1e-8 * scale
        sym_total = pairs.symmetrized().total()
        assert np.max(np.abs(sym_total - eigen.symmetrized().total())) < 1e-8 * scale


class TestOrthogonality:
    def test_example(self, example1):
        _, cr, spec = example1
        es = gs.eigen_structure(cr.poly, spec)
        gram = gs.infinite_subgramians(es)
        inv = gs.inverse_eigenparts(es)
        worst = gs.orthogonality_certificate(es, gram, inv)
        assert worst < 1e-10

    def test_scalar(self):
        cr = gs.build_companion(gs.Polynomial([1.0, 1.0]))
        spec = gs.Spectrum([-1.0], [1])
        es = gs.eigen_structure(cr.poly, spec)
        worst = gs.orthogonality_certificate(
            es, gs.infinite_subgramians(es), gs.inverse_eigenparts(es)
        )
        assert worst <= VERIFY_BOUNDS["orthogonality"]

    def test_random(self):
        rng = np.random.default_rng(209)
        _, cr, spec = random_companion(rng, 4)
        es = gs.eigen_structure(cr.poly, spec)
        worst = gs.orthogonality_certificate(
            es, gs.infinite_subgramians(es), gs.inverse_eigenparts(es)
        )
        assert worst < 1e-8

    def test_symmetrized_rejected(self, example1):
        _, cr, spec = example1
        es = gs.eigen_structure(cr.poly, spec)
        gram = gs.infinite_subgramians(es).symmetrized()
        inv = gs.inverse_eigenparts(es)
        with pytest.raises(ValueError, match="raw"):
            gs.orthogonality_certificate(es, gram, inv)


class TestRiccatiGeneral:
    def test_companion_input_reduces(self, mirrored_stable):
        _, cr, spec = mirrored_stable
        direct = gs.inverse_eigenparts(gs.eigen_structure(cr.poly, spec))
        general = gs.riccati_general(gs.similarity_transform(cr.system(), cr.poly), direct)
        assert np.max(np.abs(general - direct.total())) < 1e-10 * max(
            1.0, np.max(np.abs(direct.total()))
        )

    def test_random_residual_and_inverse(self):
        rng = np.random.default_rng(211)
        _, cr, spec = random_companion(rng, 4)
        t = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
        sys = gs.LtiSystem(t @ cr.a_c @ np.linalg.inv(t), t @ cr.b_c)
        p = gs.char_poly(sys.a)
        inv = gs.inverse_eigenparts(gs.eigen_structure(p, gs.cluster(gs.find_roots(p))))
        ricc = gs.riccati_general(gs.similarity_transform(sys, p), inv)
        assert ricc.shape == (4, 4) and np.array_equal(ricc, ricc.conj().T)
        total = ricc.real
        assert gs.residual_riccati(sys.a, sys.b, total) < 1e-7
        reference = np.linalg.inv(gs.solve_lyapunov_dense(sys.a, sys.b @ sys.b.T))
        assert np.linalg.norm(total - reference) <= 1e-7 * np.linalg.norm(reference)

    def test_extended_set_lifted(self):
        # an 80-bit inverse set is lifted in its own precision, and names the
        # same P^{-1} as the double one
        rng = np.random.default_rng(211)
        _, cr, spec = random_companion(rng, 4)
        t = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
        sys = gs.LtiSystem(t @ cr.a_c @ np.linalg.inv(t), t @ cr.b_c)
        p = gs.char_poly(sys.a)
        spec = gs.cluster(gs.find_roots(p))
        transform = gs.similarity_transform(sys, p)
        double = gs.riccati_general(transform, gs.inverse_eigenparts(gs.eigen_structure(p, spec)))
        extended = gs.riccati_general(
            transform, gs.inverse_eigenparts(gs.eigen_structure(p, spec).to_extended()))
        assert extended.dtype == np.clongdouble and extended.shape == double.shape == (4, 4)
        assert np.max(np.abs(extended - double)) <= 1e-10 * np.max(np.abs(double))

    def test_other_sets_rejected(self, mirrored_stable):
        # the lift expects the companion inverse eigen set, not a pair set
        _, cr, spec = mirrored_stable
        es = gs.eigen_structure(cr.poly, spec)
        transform = gs.similarity_transform(cr.system(), cr.poly)
        with pytest.raises(ValueError, match="companion inverse eigen set"):
            gs.riccati_general(transform, gs.inverse_pair_parts(es))

    def test_uncontrollable_rejected(self):
        sys = gs.LtiSystem(np.diag([-1.0, -2.0]), np.array([1.0, 0.0]))
        p = gs.char_poly(sys.a)
        inv = gs.inverse_eigenparts(gs.eigen_structure(p, gs.cluster(gs.find_roots(p))))
        with pytest.raises(gs.ControllabilityError):
            gs.riccati_general(gs.similarity_transform(sys, p), inv)

    def test_polynomial_mismatch_rejected(self):
        # the companion system of (s+1)(s^2+4s+5), given the inverse set of
        # (s+1)(s+2)(s+3), is refused, not lifted with a Riccati residual of 7e-4
        sys = gs.build_companion(gs.Polynomial([5.0, 9.0, 5.0, 1.0])).system()
        other = gs.Polynomial([6.0, 11.0, 6.0, 1.0])
        inv = gs.inverse_eigenparts(gs.eigen_structure(other, gs.cluster(gs.find_roots(other))))
        with pytest.raises(ValueError, match="polynomial"):
            gs.riccati_general(gs.similarity_transform(sys, gs.char_poly(sys.a)), inv)


class TestFiniteInverse:
    def test_stable_asymptotic_limit(self, mirrored_stable):
        _, cr, spec = mirrored_stable
        es = gs.eigen_structure(cr.poly, spec)
        p0 = gs.InitialCondition(np.zeros((3, 3)))
        _, inv_t = gs.finite_inverse(gs.horizon(es, 30.0), p0)
        algebraic = gs.inverse_eigenparts(es)
        assert rel_err(inv_t.total(), algebraic.total()) < 1e-6

    def test_identity_initial_condition(self, example1):
        _, cr, spec = example1
        es = gs.eigen_structure(cr.poly, spec)
        _, inv_0 = gs.finite_inverse(gs.horizon(es, 0.0), gs.InitialCondition(np.eye(3)))
        assert np.max(np.abs(inv_0.total() - np.eye(3))) < 1e-7

    def test_initial_inverse_consistency(self, example1):
        # P^{-1}(0) P_0 = I for any invertible initial value
        _, cr, spec = example1
        rng = np.random.default_rng(223)
        s = rng.standard_normal((3, 3))
        p0 = gs.InitialCondition(0.5 * (s + s.T) + 4.0 * np.eye(3))
        condition, inv_0 = gs.finite_inverse(
            gs.horizon(gs.eigen_structure(cr.poly, spec), 0.0), p0)
        assert np.max(np.abs(inv_0.total() @ p0.matrix - np.eye(3))) < 1e-7
        assert np.isfinite(condition)

    def test_product_with_finite_gramian(self, example1):
        _, cr, spec = example1
        es = gs.eigen_structure(cr.poly, spec)
        p0 = gs.InitialCondition(np.zeros((3, 3)))
        h = gs.horizon(es, 0.5)
        _, inv_t = gs.finite_inverse(h, p0)
        gram_t = gs.finite_subgramians(h).at_t.total()
        assert np.max(np.abs(inv_t.total() @ gram_t - np.eye(3))) < 1e-6

    def test_product_with_nonzero_initial_condition(self, example1):
        _, cr, spec = example1
        es = gs.eigen_structure(cr.poly, spec)
        rng = np.random.default_rng(213)
        s = rng.standard_normal((3, 3))
        p0 = gs.InitialCondition(0.5 * (s + s.T) + 3.0 * np.eye(3))
        t = 0.4
        h = gs.horizon(es, t)
        _, inv_t = gs.finite_inverse(h, p0)
        eigen_h = gs.homogeneous_subgramians(h, p0)
        gram_t = gs.finite_subgramians(h).at_t.total() + sum(components(eigen_h).values())
        assert np.max(np.abs(inv_t.total() @ gram_t - np.eye(3))) < 1e-6

    def test_singular_normalization_rejected(self, example1):
        # P(0) = 0 is not invertible, so G^{-1}(0) is exactly singular
        _, cr, spec = example1
        p0 = gs.InitialCondition(np.zeros((3, 3)))
        with pytest.raises(gs.ConditioningError):
            gs.finite_inverse(gs.horizon(gs.eigen_structure(cr.poly, spec), 0.0), p0)

    def test_extended_precision_at_stiff_horizon(self, example1):
        _, cr, spec = example1
        p0 = gs.InitialCondition(np.zeros((3, 3)))
        es = gs.eigen_structure(cr.poly, spec).to_extended()
        h = gs.horizon(es, 5.0)
        _, inv_t = gs.finite_inverse(h, p0)
        gram_t = gs.finite_subgramians(h).at_t.total()
        n = np.eye(3, dtype=np.clongdouble)
        assert float(np.max(np.abs(inv_t.total() @ gram_t - n))) < 1e-6

    def test_one_elimination_matches_per_column_reference(self, example1):
        # the 80-bit normalization solve eliminates once for all columns of
        # its right-hand side, n x n or the n x k of the finite inverse's
        # columns J y_i; it is bitwise the row-by-row elimination
        from gramspec.inverse import _solve_dense

        _, cr, spec = example1
        es = gs.eigen_structure(cr.poly, spec).to_extended()
        g_inv, _ = normalization_each(gs.horizon(es, 5.0), gs.InitialCondition(np.eye(3)))
        columns = alternating_signs(3) * es.left
        systems = [(g_inv, columns.T), *((g_inv, m) for m in gs.inverse_eigenparts(es).stack)]
        rng = np.random.default_rng(31)
        for n in (1, 2, 5, 8, 16):
            a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))).astype(
                np.clongdouble)
            systems += [(a, rng.standard_normal((n, m)).astype(np.clongdouble)) for m in (n, 3)]
        for a, b in systems:
            got = _solve_dense(a, b)
            assert got.dtype == np.clongdouble
            assert np.array_equal(got, solve_dense_columns(a, b)), a.shape

    def test_one_elimination_refuses_singular_matrix(self):
        from gramspec.inverse import _solve_dense

        a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=np.clongdouble)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            _solve_dense(a, np.ones((2, 3), dtype=np.clongdouble))


class TestInverseMultiple:
    def test_example_values(self, example5):
        poly, _, spec = example5
        chains = gs.jordan_chains_companion(spec, poly)
        sym = gs.inverse_multiple_eig(chains).symmetrized()
        p1 = 108.0 * np.array(
            [
                [192, 0, 528, 0, 32],
                [0, -1520, 0, -596, 0],
                [528, 0, 1404, 0, 84],
                [0, -596, 0, -231, 0],
                [32, 0, 84, 0, 5],
            ],
            dtype=float,
        )
        p2 = 4.0 * np.array(
            [
                [-5296, 0, -14356, 0, -868],
                [0, 40608, 0, 15984, 0],
                [-14356, 0, -38275, 0, -2287],
                [0, 15984, 0, 6156, 0],
                [-868, 0, -2287, 0, -139],
            ],
            dtype=float,
        )
        assert rel_err(components(sym)[0], p1) < 1e-10
        assert rel_err(components(sym)[1], p2) < 1e-10

    def test_example_product_identity(self, example5):
        poly, _, spec = example5
        chains = gs.jordan_chains_companion(spec, poly)
        inv = gs.inverse_multiple_eig(chains)
        gram = gs.multiple_eig_gramian(chains)
        product = inv.total().real @ gram.static.total().real
        assert np.max(np.abs(product - np.eye(5))) < 1e-8

    def test_simple_reduction(self, mirrored_stable):
        poly, cr, spec = mirrored_stable
        chains = gs.jordan_chains_companion(spec, poly)
        inv_chain = gs.inverse_multiple_eig(chains)
        inv_simple = gs.inverse_eigenparts(gs.eigen_structure(cr.poly, spec))
        assert rel_err(inv_chain.total(), inv_simple.total()) < 1e-8

    def test_normalization_condition(self, example5):
        poly, _, spec = example5
        chains = gs.jordan_chains_companion(spec, poly)
        inv = gs.inverse_multiple_eig(chains)
        gram = gs.multiple_eig_gramian(chains).static
        for i, block_i in enumerate(chains.blocks):
            for j in range(len(chains.blocks)):
                product = components(gram)[i] @ components(inv)[j]
                expected = block_i.right @ block_i.left if i == j else 0.0
                scale = max(1.0, np.max(np.abs(block_i.right @ block_i.left)))
                assert np.max(np.abs(product - expected)) < 1e-7 * scale

    def test_riccati_residual(self, example5):
        poly, cr, spec = example5
        chains = gs.jordan_chains_companion(spec, poly)
        total = gs.inverse_multiple_eig(chains).symmetrized().total().real
        assert gs.residual_riccati(cr.a_c, cr.b_c, total) < 1e-6


class TestStructuralProperties:
    def test_inverse_zero_plaid(self):
        rng = np.random.default_rng(215)
        for n in (3, 5, 7):
            _, cr, spec = random_companion(rng, n)
            es = gs.eigen_structure(cr.poly, spec)
            merged = gs.inverse_eigenparts(es).symmetrized().merged_real()
            for part in components(merged).values():
                odd, _ = gs.zero_plaid_defect(part)
                assert odd < 1e-10
            total_odd, _ = gs.zero_plaid_defect(sum(components(merged).values()))
            assert total_odd < 1e-10

    def test_diagonal_pairs_positive_semidefinite(self):
        rng = np.random.default_rng(217)
        _, cr, spec = random_companion(rng, 6)
        pairs = gs.inverse_pair_parts(gs.eigen_structure(cr.poly, spec)).symmetrized()
        for i in range(6):
            part = components(pairs)[(i, i)]
            eigvals = np.linalg.eigvalsh(part)
            assert eigvals.min() >= -1e-10 * max(1.0, np.max(np.abs(part)))

    def test_riccati_residual_random(self):
        rng = np.random.default_rng(219)
        for _ in range(5):
            n = int(rng.integers(2, 9))
            _, cr, spec = random_companion(rng, n)
            es = gs.eigen_structure(cr.poly, spec)
            total = gs.inverse_eigenparts(es).symmetrized().total().real
            assert gs.residual_riccati(cr.a_c, cr.b_c, total) < 1e-7

    def test_operation_count_quadratic_growth(self):
        # constructing one eigenpart touches O(n^2) scalars
        counts = {}
        for n in (4, 8, 16, 32):
            poly = gs.poly_from_roots(np.linspace(-1.0, -4.0, n))
            _, ops = inverse_eigenpart_counted(poly, -1.0)
            counts[n] = ops
            assert ops <= 4 * n * n + 20 * n + 20
        assert counts[32] <= 4.6 * counts[16]
        assert counts[16] <= 4.6 * counts[8]

    def test_counted_path_matches_left_eigenvector_formula(self):
        rng = np.random.default_rng(221)
        poly, _, spec = random_companion(rng, 5)
        signs = np.array([(-1.0) ** (k + 1) for k in range(5)])
        for lam, y in zip(spec.values, gs.eigen_structure(poly, spec).left):
            part, _ = inverse_eigenpart_counted(poly, lam)
            value, deriv = gs.eval_with_derivative(poly, lam)
            mirror, _ = gs.eval_with_derivative(poly, -lam)
            expected = mirror / (-deriv) * (signs[:, None] * np.outer(y, y))
            assert np.max(np.abs(part - expected)) < 1e-12 * max(1.0, np.max(np.abs(expected)))
