import numpy as np
import pytest

import gramspec as gs

from conftest import random_companion


class TestBuildCompanion:
    def test_example_last_row(self, example1):
        _, cr, _ = example1
        assert np.array_equal(cr.a_c[-1], [6.0, -11.0, 6.0])
        assert np.array_equal(cr.a_c[:2, 1:], np.eye(2))
        assert np.array_equal(cr.b_c, [0.0, 0.0, 1.0])

    def test_scalar(self):
        cr = gs.build_companion(gs.Polynomial([1.0, 1.0]))
        assert cr.a_c.shape == (1, 1) and cr.a_c[0, 0] == -1.0
        assert cr.b_c[0] == 1.0

    def test_quintic_last_row(self, example5):
        _, cr, _ = example5
        assert np.array_equal(cr.a_c[-1], [8.0, -28.0, 38.0, -25.0, 8.0])


class TestHankelMatrices:
    def test_upper_example(self, example1):
        poly, _, _ = example1
        expected = np.array([[11.0, -6.0, 1.0], [-6.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        assert np.array_equal(gs.hankel_upper(poly), expected)

    def test_lower_example(self, example1):
        poly, _, _ = example1
        expected = np.array([[0.0, 0.0, -6.0], [0.0, -6.0, 11.0], [-6.0, 11.0, -6.0]])
        assert np.array_equal(gs.hankel_lower(poly), expected)

    def test_degree_one(self):
        p = gs.Polynomial([1.0, 1.0])
        assert np.array_equal(gs.hankel_upper(p), [[1.0]])
        assert np.array_equal(gs.hankel_lower(p), [[1.0]])


class TestToCompanion:
    def test_companion_input_gives_identity(self, mirrored_stable):
        _, cr, _ = mirrored_stable
        transform = gs.similarity_transform(cr.system(), cr.poly)
        assert np.max(np.abs(transform.t - np.eye(3))) < 1e-10

    def test_random_similarity(self):
        rng = np.random.default_rng(21)
        poly, cr, _ = random_companion(rng, 3)
        t = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
        sys = gs.LtiSystem(t @ cr.a_c @ np.linalg.inv(t), t @ cr.b_c)
        transform = gs.similarity_transform(sys, gs.char_poly(sys.a))
        back = gs.build_companion(transform.poly)
        scale = np.linalg.norm(sys.a) * np.linalg.norm(transform.t)
        assert np.linalg.norm(sys.a @ transform.t - transform.t @ back.a_c) < 1e-8 * scale
        assert np.linalg.norm(sys.b[:, 0] - transform.t @ back.b_c) < 1e-8

    def test_uncontrollable_rejected(self):
        sys = gs.LtiSystem(np.diag([-1.0, -2.0]), np.array([1.0, 0.0]))
        with pytest.raises(gs.ControllabilityError):
            gs.similarity_transform(sys, gs.char_poly(sys.a))

    def test_nearly_uncontrollable_rejected_alike(self):
        # condition about 9e12: finite, above the cap; every path that needs
        # the controllability matrix must refuse with the same condition
        sys = gs.LtiSystem(np.diag([-1.0, -2.0, -3.0]), np.array([1.0, 1.0, 1e-12]))
        p = gs.char_poly(sys.a)
        spec = gs.cluster(gs.find_roots(p))
        es = gs.eigen_structure(p, spec)
        gram = gs.infinite_subgramians(es)
        conditions = []
        for call in (
            lambda: gs.similarity_transform(sys, p),
            lambda: gs.lift_to_original(gram, gs.similarity_transform(sys, p)),
            lambda: gs.riccati_general(gs.similarity_transform(sys, p), gs.inverse_eigenparts(es)),
            lambda: gs.require_controllable(sys),
        ):
            with pytest.raises(gs.ControllabilityError) as excinfo:
                call()
            conditions.append(excinfo.value.condition)
        assert 1e12 < conditions[0] < np.inf
        assert conditions == [conditions[0]] * 4

    def test_multi_input_rejected(self):
        sys = gs.LtiSystem(np.diag([-1.0, -2.0]), np.eye(2))
        p = gs.char_poly(sys.a)
        inv = gs.inverse_eigenparts(gs.eigen_structure(p, gs.cluster(gs.find_roots(p))))
        with pytest.raises(ValueError, match="single-input"):
            gs.riccati_general(gs.similarity_transform(sys, p), inv)


class TestEigenvectors:
    def test_right_eigenvector_values(self):
        assert np.array_equal(gs.right_eigenvector(2.0, 3), [1.0, 2.0, 4.0])
        assert np.array_equal(gs.right_eigenvector(1.0, 5), np.ones(5))

    def test_right_eigenvector_residual(self):
        lam = -1.0 + 2.0j
        p = gs.poly_from_roots([lam, np.conj(lam), -2.0, -3.0])
        cr = gs.build_companion(p)
        x = gs.right_eigenvector(lam, 4)
        assert np.max(np.abs(cr.a_c @ x - lam * x)) < 1e-10

    def test_left_eigenvector_example(self, example1):
        poly, _, _ = example1
        assert np.allclose(gs.left_eigenvector(1.0, poly), [-6.0, 5.0, -1.0])

    def test_left_eigenvector_normalization(self):
        p = gs.Polynomial([1.0, 1.0])
        assert np.allclose(gs.left_eigenvector(-1.0, p), [-1.0])

    def test_left_eigenvector_origin_rejected(self, example1):
        poly, _, _ = example1
        with pytest.raises(ValueError, match="origin"):
            gs.left_eigenvector(0.0, poly)

    def test_inner_product_identity(self):
        rng = np.random.default_rng(31)
        poly, _, spec = random_companion(rng, 6)
        for lam in spec.values:
            x = gs.right_eigenvector(lam, 6)
            y = gs.left_eigenvector(lam, poly)
            _, deriv = gs.eval_with_derivative(poly, lam)
            assert abs(x @ y + deriv) <= 1e-9 * max(1.0, abs(deriv))

    def test_left_eigen_residual(self):
        rng = np.random.default_rng(33)
        poly, cr, spec = random_companion(rng, 5)
        for lam in spec.values:
            y = gs.left_eigenvector(lam, poly)
            resid = np.max(np.abs(y @ cr.a_c - lam * y))
            assert resid <= 1e-9 * (1.0 + abs(lam)) * np.max(np.abs(y))

    def test_orthogonality_cross_terms(self):
        rng = np.random.default_rng(35)
        poly, _, spec = random_companion(rng, 6)
        n = 6
        for i, li in enumerate(spec.values):
            for j, lj in enumerate(spec.values):
                if i != j:
                    x = gs.right_eigenvector(li, n)
                    y = gs.left_eigenvector(lj, poly)
                    assert abs(x @ y) <= 1e-9 * np.max(np.abs(x)) * np.max(np.abs(y))


class TestResidues:
    def test_example_residue(self, example1):
        poly, _, _ = example1
        expected = 0.5 * np.array([[6.0, -5.0, 1.0]] * 3)
        assert np.max(np.abs(gs.residue_companion(1.0, poly) - expected)) < 1e-12

    def test_scalar(self):
        assert np.allclose(gs.residue_companion(-1.0, gs.Polynomial([1.0, 1.0])), [[1.0]])

    def test_residues_sum_to_identity(self, example1):
        poly, _, spec = example1
        total = sum(gs.residue_companion(lam, poly) for lam in spec.values)
        assert np.max(np.abs(total - np.eye(3))) < 1e-9

    def test_near_multiple_rejected(self, example5):
        poly, _, _ = example5
        with pytest.raises(gs.MultipleEigenvalueError, match="Jordan"):
            gs.residue_companion(1.0 + 1e-12, poly)

    def test_residue_algebra(self):
        rng = np.random.default_rng(41)
        poly, _, spec = random_companion(rng, 5)
        residues = gs.eigen_structure(poly, spec).residues
        assert np.max(np.abs(residues.sum(axis=0) - np.eye(5))) < 1e-8
        for i in range(5):
            for j in range(5):
                expected = residues[i] if i == j else 0.0
                assert np.max(np.abs(residues[i] @ residues[j] - expected)) < 1e-8


class TestResiduesGeneral:
    def test_matches_companion_path(self, example1):
        poly, cr, spec = example1
        lagrange = gs.residues_general(cr.a_c, spec)
        for i, lam in enumerate(spec.values):
            direct = gs.residue_companion(lam, poly)
            assert np.max(np.abs(lagrange[i] - direct)) < 1e-10

    def test_scalar(self):
        out = gs.residues_general(np.array([[-1.0]]), gs.Spectrum.simple([-1.0]))
        assert np.allclose(out[0], [[1.0]])

    def test_diagonal_projectors(self):
        out = gs.residues_general(np.diag([-1.0, -2.0]), gs.Spectrum.simple([-1.0, -2.0]))
        assert np.allclose(out[0], np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(out[1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_properties(self):
        rng = np.random.default_rng(43)
        _, cr, spec = random_companion(rng, 4)
        out = gs.residues_general(cr.a_c, spec)
        assert np.max(np.abs(out.sum(axis=0) - np.eye(4))) < 1e-8
        for i, lam in enumerate(spec.values):
            assert np.max(np.abs(cr.a_c @ out[i] - lam * out[i])) < 1e-8 * (1 + abs(lam))

    def test_close_eigenvalues_rejected(self):
        a = np.diag([-1.0, -1.0 - 1e-12])
        with pytest.raises(gs.MultipleEigenvalueError):
            gs.residues_general(a, gs.Spectrum.simple([-1.0, -1.0 - 1e-12]))


class TestJordanChains:
    def test_example_modal_matrices(self, example5):
        poly, _, spec = example5
        chains = gs.jordan_chains_companion(spec, poly)
        m_expected = np.array(
            [
                [1, 1, 1, 0.5, 0.25],
                [1, 2, 2, 2, 1],
                [1, 3, 4, 6, 4],
                [1, 4, 8, 16, 14],
                [1, 5, 16, 40, 44],
            ],
            dtype=float,
        )
        assert np.max(np.abs(chains.modal - m_expected)) < 1e-12
        assert np.max(np.abs(chains.modal_inverse[0] - [-8, 28, -30, 13, -2])) < 1e-10

    def test_example_factor_matrices(self, example5):
        poly, _, spec = example5
        chains = gs.jordan_chains_companion(spec, poly)
        assert np.max(np.abs(chains.c_row - [16, 0, 76, 0, 16])) < 1e-12
        t1 = chains.blocks[0].toeplitz
        h1 = chains.blocks[0].hankel
        assert np.max(np.abs(t1 - [[108, 0], [324, 108]])) < 1e-10
        assert np.max(np.abs(h1 - [[-2, -1], [-1, 0]])) < 1e-10
        t2 = chains.blocks[1].toeplitz
        assert np.max(np.abs(t2 - [[576, 0, 0], [1104, 576, 0], [1012, 1104, 576]])) < 1e-9

    def test_chain_recursion(self, example5):
        poly, cr, spec = example5
        chains = gs.jordan_chains_companion(spec, poly)
        for block in chains.blocks:
            shifted = cr.a_c - block.eigenvalue * np.eye(5)
            assert np.max(np.abs(shifted @ block.right[:, 0])) < 1e-8
            for k in range(1, block.multiplicity):
                defect = shifted @ block.right[:, k] - block.right[:, k - 1]
                assert np.max(np.abs(defect)) < 1e-8

    def test_chain_recursion_random_patterns(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            mults = []
            total = 0
            while total < 5:
                m = int(rng.integers(1, 4))
                m = min(m, 6 - total)
                mults.append(m)
                total += m
            values = -rng.uniform(0.5, 4.0, len(mults))
            while np.min(np.abs(np.subtract.outer(values, values)[~np.eye(len(values), dtype=bool)] if len(values) > 1 else [1.0])) < 0.4:
                values = -rng.uniform(0.5, 4.0, len(mults))
            spec = gs.Spectrum(values, mults)
            poly = gs.poly_from_roots(spec.expanded())
            cr = gs.build_companion(poly)
            chains = gs.jordan_chains_companion(spec, poly)
            n = poly.degree
            for block in chains.blocks:
                shifted = cr.a_c - block.eigenvalue * np.eye(n)
                scale = max(1.0, float(np.max(np.abs(block.right))))
                assert np.max(np.abs(shifted @ block.right[:, 0])) < 1e-8 * scale
                for k in range(1, block.multiplicity):
                    defect = shifted @ block.right[:, k] - block.right[:, k - 1]
                    assert np.max(np.abs(defect)) < 1e-8 * scale

    def test_block_orthonormality(self, example5):
        poly, _, spec = example5
        chains = gs.jordan_chains_companion(spec, poly)
        for i, bi in enumerate(chains.blocks):
            for j, bj in enumerate(chains.blocks):
                product = bi.left @ bj.right
                expected = np.eye(bi.multiplicity) if i == j else 0.0
                assert np.max(np.abs(product - expected)) < 1e-8

    def test_simple_reduction(self, mirrored_stable):
        poly, _, spec = mirrored_stable
        chains = gs.jordan_chains_companion(spec, poly)
        for block, lam in zip(chains.blocks, spec.values):
            x = gs.right_eigenvector(lam, 3)
            assert np.max(np.abs(block.right[:, 0] - x)) < 1e-10

    def test_inconsistent_spectrum_rejected(self, example5):
        poly, _, _ = example5
        with pytest.raises(ValueError, match="not a root"):
            gs.jordan_chains_companion(gs.Spectrum([1.0, 2.5], [2, 3]), poly)

    def test_ill_conditioned_chains_rejected(self):
        # nearly coincident clusters make the modal matrix numerically singular
        spec = gs.Spectrum([1.0, 1.0 + 1e-13], [1, 1])
        poly = gs.poly_from_roots([1.0, 1.0 + 1e-13])
        with pytest.raises(gs.ConditioningError):
            gs.jordan_chains_companion(spec, poly)


def _as_complex(m) -> np.ndarray:
    m = np.asarray(m)
    return np.array([complex(z) for z in m.ravel()]).reshape(m.shape)


def _structure_entries(es) -> dict:
    return {
        name: _as_complex(getattr(es, name))
        for name in ("right", "derivs", "mirrors", "left", "residues")
    }


class TestEigenStructure:
    def test_inverse_eigenparts_match_tail_sum_reference(self):
        # the builders use y_i = H_l x_i / lambda_i^n; the counted construction
        # keeps the coefficient tail sums, so the two are independent
        from gramspec.inverse import inverse_eigenpart_counted

        rng = np.random.default_rng(515)
        for n in range(2, 11):
            for _ in range(4):
                poly, cr, spec = random_companion(rng, n)
                parts = gs.inverse_eigenparts(gs.eigen_structure(cr.poly, spec)).components
                for i, lam in enumerate(spec.values):
                    reference, _ = inverse_eigenpart_counted(poly, lam)
                    scale = np.max(np.abs(reference))
                    assert np.max(np.abs(parts[i] - reference)) <= 1e-8 * scale, (n, i)

    def test_working_precisions_agree(self):
        # the same core at complex128, at 80-bit and at 40 mpmath digits
        from mpmath import mp

        from gramspec.companion import _evaluate, _mp_polished_roots

        rng = np.random.default_rng(616)
        for n in range(2, 9):
            poly, _, spec = random_companion(rng, n)
            double = _structure_entries(gs.eigen_structure(poly, spec))
            extended = _structure_entries(gs.eigen_structure(poly, spec, extended=True))
            with mp.workdps(40):
                exact = _structure_entries(
                    _evaluate(poly, spec, _mp_polished_roots(poly, spec.values))
                )
            for name, reference in exact.items():
                scale = np.max(np.abs(reference))
                assert np.max(np.abs(extended[name] - reference)) <= 1e-13 * scale, (n, name)
                assert np.max(np.abs(double[name] - reference)) <= 1e-8 * scale, (n, name)

    def test_lazy_checks_keep_their_reach(self):
        # |N'(-1)| is about 1e-9, below the floor 1e-8 max|a_k|: builders
        # that need no residue still decompose, the others refuse
        values = [-1.0, -1.0 - 1e-9, -2.0]
        poly = gs.poly_from_roots(values)
        cr = gs.build_companion(poly)
        spec = gs.Spectrum.simple(values)
        assert len(gs.infinite_subgramians(gs.eigen_structure(cr.poly, spec)).components) == 3
        assert len(gs.inverse_eigenparts(gs.eigen_structure(cr.poly, spec)).components) == 3
        with pytest.raises(gs.MultipleEigenvalueError, match=r"\|N'"):
            gs.finite_subgramians(gs.eigen_structure(cr.poly, spec), 1.0)
        with pytest.raises(gs.MultipleEigenvalueError, match=r"\|N'"):
            gs.eigen_structure(poly, spec).residues

    def test_multiple_spectrum_rejected(self, example5):
        poly, _, spec = example5
        with pytest.raises(gs.MultipleEigenvalueError, match="multiple"):
            gs.eigen_structure(poly, spec)
