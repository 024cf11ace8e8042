import numpy as np
import pytest

import gramspec as gs

from conftest import assert_bitwise, random_companion, random_stable_eigenvalues
from references import (components, eigenparts_division, exact_totals, hankel_lower_loop,
                        hankel_upper_loop, inverse_eigenpart_counted,
                        inverse_eigenparts_division, jordan_factors_loop, mp_polished_roots,
                        residues_general, to_longdouble_each)


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

    def test_index_forms_are_the_loop_forms(self):
        # entries are copies, so the one index expression is bitwise the loop,
        # a -0.0 coefficient included
        rng = np.random.default_rng(3301)
        for n in range(1, 17):
            coeffs = np.append(rng.standard_normal(n), 1.0)
            coeffs[rng.integers(n)] = -0.0
            p = gs.Polynomial(coeffs)
            assert_bitwise(gs.hankel_upper(p), hankel_upper_loop(p), f"upper n={n}")
            assert_bitwise(gs.hankel_lower(p), hankel_lower_loop(p), f"lower n={n}")


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
    def test_right_eigenvector_values(self, example1):
        poly, _, spec = example1
        right = gs.eigen_structure(poly, spec).right
        assert np.array_equal(right, [[1.0, 1.0, 1.0], [1.0, 2.0, 4.0], [1.0, 3.0, 9.0]])

    def test_right_eigenvector_residual(self):
        lam = -1.0 + 2.0j
        values = [lam, np.conj(lam), -2.0, -3.0]
        p = gs.poly_from_roots(values)
        cr = gs.build_companion(p)
        x = gs.eigen_structure(p, gs.Spectrum(values, np.ones(4, dtype=int))).right[0]
        assert np.max(np.abs(cr.a_c @ x - lam * x)) < 1e-10

    def test_left_eigenvector_example(self, example1):
        poly, _, spec = example1
        assert np.allclose(gs.eigen_structure(poly, spec).left[0], [-6.0, 5.0, -1.0])

    def test_left_eigenvector_normalization(self):
        p = gs.Polynomial([1.0, 1.0])
        assert np.allclose(gs.eigen_structure(p, gs.Spectrum([-1.0], [1])).left, [[-1.0]])

    def test_left_eigenvector_origin_rejected(self):
        # solvable (|2 lambda| = 2e-7 is above 1e-10 (1 + 300)), yet within
        # 1e-12 (1 + max|a_k|) of the origin
        values = [-1e-7, -100.0, -200.0, -300.0]
        spec = gs.Spectrum(values, np.ones(4, dtype=int))
        es = gs.eigen_structure(gs.poly_from_roots(values), spec)
        with pytest.raises(gs.ConditioningError, match=r"\(-1e-07\+0j\) at the origin"):
            es.left

    def test_inner_product_identity(self):
        rng = np.random.default_rng(31)
        poly, _, spec = random_companion(rng, 6)
        es = gs.eigen_structure(poly, spec)
        for x, y, deriv in zip(es.right, es.left, es.derivs):
            assert abs(x @ y + deriv) <= 1e-9 * max(1.0, abs(deriv))

    def test_left_eigen_residual(self):
        rng = np.random.default_rng(33)
        poly, cr, spec = random_companion(rng, 5)
        for lam, y in zip(spec.values, gs.eigen_structure(poly, spec).left):
            resid = np.max(np.abs(y @ cr.a_c - lam * y))
            assert resid <= 1e-9 * (1.0 + abs(lam)) * np.max(np.abs(y))

    def test_orthogonality_cross_terms(self):
        rng = np.random.default_rng(35)
        poly, _, spec = random_companion(rng, 6)
        es = gs.eigen_structure(poly, spec)
        for i, x in enumerate(es.right):
            for j, y in enumerate(es.left):
                if i != j:
                    assert abs(x @ y) <= 1e-9 * np.max(np.abs(x)) * np.max(np.abs(y))


class TestResidues:
    def test_example_residue(self, example1):
        poly, _, spec = example1
        expected = 0.5 * np.array([[6.0, -5.0, 1.0]] * 3)
        assert np.max(np.abs(gs.eigen_structure(poly, spec).residues[0] - expected)) < 1e-12

    def test_scalar(self):
        es = gs.eigen_structure(gs.Polynomial([1.0, 1.0]), gs.Spectrum([-1.0], [1]))
        assert np.allclose(es.residues, [[[1.0]]])

    def test_residues_sum_to_identity(self, example1):
        poly, _, spec = example1
        total = gs.eigen_structure(poly, spec).residues.sum(axis=0)
        assert np.max(np.abs(total - np.eye(3))) < 1e-9

    def test_near_multiple_rejected(self):
        values = [1.0, 1.0 + 1e-9, 2.0]
        spec = gs.Spectrum(values, np.ones(3, dtype=int))
        es = gs.eigen_structure(gs.poly_from_roots(values), spec)
        with pytest.raises(gs.MultipleEigenvalueError, match="Jordan"):
            es.residues

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
        lagrange = residues_general(cr.a_c, spec)
        for i, direct in enumerate(gs.eigen_structure(poly, spec).residues):
            assert np.max(np.abs(lagrange[i] - direct)) < 1e-10

    def test_scalar(self):
        out = residues_general(np.array([[-1.0]]), gs.Spectrum([-1.0], [1]))
        assert np.allclose(out[0], [[1.0]])

    def test_diagonal_projectors(self):
        out = residues_general(np.diag([-1.0, -2.0]), gs.Spectrum([-1.0, -2.0], [1, 1]))
        assert np.allclose(out[0], np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(out[1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_properties(self):
        rng = np.random.default_rng(43)
        _, cr, spec = random_companion(rng, 4)
        out = residues_general(cr.a_c, spec)
        assert np.max(np.abs(out.sum(axis=0) - np.eye(4))) < 1e-8
        for i, lam in enumerate(spec.values):
            assert np.max(np.abs(cr.a_c @ out[i] - lam * out[i])) < 1e-8 * (1 + abs(lam))

    def test_close_eigenvalues_rejected(self):
        a = np.diag([-1.0, -1.0 - 1e-12])
        with pytest.raises(gs.MultipleEigenvalueError):
            residues_general(a, gs.Spectrum([-1.0, -1.0 - 1e-12], [1, 1]))


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

    @pytest.mark.parametrize("values, mults", [
        ([-1.0], [3]),
        ([-1.0, -2.0], [2, 3]),
        ([-0.7 + 1.3j, -0.7 - 1.3j, -2.1], [2, 2, 1]),
        ([-1.5, -0.4, -3.2], [1, 4, 2]),
    ])
    def test_factor_index_forms_are_the_loop_forms(self, values, mults):
        # entries are copies, so the Hankel index expressions are bitwise the
        # loop, and the Toeplitz factor is contiguous like the loop's
        spec = gs.Spectrum(values, mults)
        chains = gs.jordan_chains_companion(spec, gs.poly_from_roots(spec.expanded()))
        for block, (toeplitz, hankel) in zip(chains.blocks, jordan_factors_loop(chains)):
            assert_bitwise(block.toeplitz, toeplitz, f"toeplitz {block.eigenvalue}")
            assert_bitwise(block.hankel, hankel, f"hankel {block.eigenvalue}")
            assert block.toeplitz.flags.c_contiguous

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
            x = lam ** np.arange(3)
            assert np.max(np.abs(block.right[:, 0] - x)) < 1e-10

    def test_inconsistent_spectrum_rejected(self, example5):
        poly, _, _ = example5
        with pytest.raises(ValueError, match="not a root"):
            gs.jordan_chains_companion(gs.Spectrum([1.0, 2.5], [2, 3]), poly)

    def test_unsolvable_spectrum_rejected(self):
        # -1 + 1 = 0: the chains exist, the Lyapunov equation has no unique solution
        spec = gs.Spectrum([-1.0, 1.0], [2, 1])
        poly = gs.poly_from_roots(spec.expanded())
        with pytest.raises(gs.SolvabilityError):
            gs.jordan_chains_companion(spec, poly)

    def test_chain_checks_come_before_solvability(self):
        # an eigenvalue at the origin is unsolvable too, but refused as such first
        spec = gs.Spectrum([0.0, -1.0], [2, 1])
        with pytest.raises(gs.ConditioningError, match="origin"):
            gs.jordan_chains_companion(spec, gs.poly_from_roots(spec.expanded()))

    def test_chains_carry_their_system(self, example5):
        poly, cr, spec = example5
        chains = gs.jordan_chains_companion(spec, poly)
        assert chains.poly is poly
        assert np.array_equal(chains.system.a, cr.a_c)
        assert np.array_equal(chains.system.b, cr.b_c[:, None])

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
        rng = np.random.default_rng(515)
        for n in range(2, 11):
            for _ in range(4):
                poly, cr, spec = random_companion(rng, n)
                parts = components(gs.inverse_eigenparts(gs.eigen_structure(cr.poly, spec)))
                for i, lam in enumerate(spec.values):
                    reference, _ = inverse_eigenpart_counted(poly, lam)
                    scale = np.max(np.abs(reference))
                    assert np.max(np.abs(parts[i] - reference)) <= 1e-8 * scale, (n, i)

    def test_working_precisions_agree(self):
        # the same core at complex128, at 80-bit and at 40 mpmath digits
        from mpmath import mp

        from gramspec.companion import _evaluate

        rng = np.random.default_rng(616)
        for n in range(2, 9):
            poly, _, spec = random_companion(rng, n)
            es = gs.eigen_structure(poly, spec)
            double = _structure_entries(es)
            extended = _structure_entries(es.to_extended())
            with mp.workdps(40):
                exact = _structure_entries(
                    _evaluate(poly, spec, mp_polished_roots(poly, spec.values), es.solvability)
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
        spec = gs.Spectrum(values, np.ones(3, dtype=int))
        assert len(components(gs.infinite_subgramians(gs.eigen_structure(cr.poly, spec)))) == 3
        assert len(components(gs.inverse_eigenparts(gs.eigen_structure(cr.poly, spec)))) == 3
        with pytest.raises(gs.MultipleEigenvalueError, match=r"\|N'"):
            gs.finite_subgramians(gs.horizon(gs.eigen_structure(cr.poly, spec), 1.0))
        with pytest.raises(gs.MultipleEigenvalueError, match=r"\|N'"):
            gs.eigen_structure(poly, spec).residues

    def test_multiple_spectrum_rejected(self, example5):
        poly, _, spec = example5
        with pytest.raises(gs.MultipleEigenvalueError, match="multiple"):
            gs.eigen_structure(poly, spec)

    @pytest.mark.parametrize("extended", [False, True])
    def test_entries_are_the_per_eigenvalue_forms(self, extended):
        # the Vandermonde rows are one array power, bitwise the power of each
        # eigenvalue alone; the extended structure's N'(lambda), N(-lambda),
        # y and R are array forms, bitwise the scalar form of each eigenvalue
        # alone; N(-lambda), y and R are formed on first use
        rng = np.random.default_rng(2203)
        for n in range(1, 13):
            poly, _, spec = random_companion(rng, n)
            es = gs.eigen_structure(poly, spec)
            if extended:
                es = es.to_extended()
            assert not {"mirrors", "left", "residues"} & set(es.__dict__)
            lams = es.eigenvalues
            h_l = gs.hankel_lower(poly)
            right = np.stack([lam ** np.arange(n, dtype=float) for lam in lams])
            left = np.stack([(h_l @ x) / lam**n for lam, x in zip(lams, right)])
            derivs = np.array([gs.eval_with_derivative(poly, lam)[1] for lam in lams])
            expected = {
                "right": right,
                "derivs": derivs,
                "mirrors": np.array([gs.eval_with_derivative(poly, -lam)[0] for lam in lams]),
                "left": left,
                "residues": np.stack([np.outer(x, y) / (-d)
                                      for x, y, d in zip(right, left, derivs)]),
            }
            for name, want in expected.items():
                assert_bitwise(getattr(es, name), want, f"{name} n={n}")
            assert {"mirrors", "left", "residues"} <= set(es.__dict__)

    def test_to_extended_reuses_the_admission(self, monkeypatch):
        # the entries at the roots polished in 80-bit, without a second scan
        import gramspec.companion as companion
        from gramspec.spectrum import _newton_polish

        rng = np.random.default_rng(2204)
        for n in range(2, 9):
            poly, _, spec = random_companion(rng, n)
            double = gs.eigen_structure(poly, spec)
            monkeypatch.setattr(companion, "check_solvability", None)
            extended = double.to_extended()
            monkeypatch.undo()
            assert extended.extended and extended.solvability is double.solvability
            assert extended.spectrum is spec
            lams = _newton_polish(poly, spec.values.astype(np.clongdouble))
            expected = {
                "eigenvalues": lams,
                "right": lams[:, None] ** np.arange(n, dtype=float),
                "derivs": [gs.eval_with_derivative(poly, lam)[1] for lam in lams],
                "mirrors": [gs.eval_with_derivative(poly, -lam)[0] for lam in lams],
            }
            for name, want in expected.items():
                assert np.array_equal(getattr(extended, name), want), name


def _ladder_polynomials(sizes) -> list:
    """The analyze_ladder catalogue polynomials of the given degrees, from the
    benchmark's document generator."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "bench" / "generate.py"
    spec = importlib.util.spec_from_file_location("bench_generate", path)
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    return [gs.Polynomial(item["doc"]["char_poly"])
            for round_ in generate.catalogue("analyze_ladder") for item in round_
            if item["n"] in sizes]


class TestExactPolish:
    """The extended structure's roots come from the Newton steps of
    find_roots run in 80-bit, on the exact residual rounded to 80 bits; they
    are bitwise the 40-digit mpmath polish's, rounded to 80 bits."""

    @staticmethod
    def assert_polishes_agree(poly, starts):
        from references import mp_to_clongdouble

        from gramspec.spectrum import _newton_polish

        exact = _newton_polish(poly, starts.astype(np.clongdouble))
        assert exact.dtype == np.clongdouble
        reference = [mp_to_clongdouble(z) for z in mp_polished_roots(poly, starts)]
        for got, want in zip(exact, reference):
            assert got.real == want.real and got.imag == want.imag, (poly.degree, got, want)

    def test_ladder_spectra(self):
        polys = _ladder_polynomials((8, 12, 16))
        assert len(polys) == 24
        for poly in polys:
            self.assert_polishes_agree(poly, gs.find_roots(poly))

    def test_random_spectra_from_rounded_and_perturbed_starts(self):
        rng = np.random.default_rng(2024)
        for n in range(2, 17):
            for _ in range(3):
                poly, _, _ = random_companion(rng, n)
                roots = gs.find_roots(poly)
                self.assert_polishes_agree(poly, roots)
                self.assert_polishes_agree(poly, roots * (1.0 + 1e-8 * rng.standard_normal(n)))

    def test_near_degenerate_pairs(self):
        rng = np.random.default_rng(77)
        for separation in (1e-3, 1e-4, 1e-5):
            for n in (6, 8, 12):
                # two conjugate pairs at the given separation among n - 4 spread values
                lam = complex(rng.uniform(-3.0, -0.5), rng.uniform(0.5, 2.0))
                close = lam + separation
                poly = gs.poly_from_roots(np.concatenate([
                    random_stable_eigenvalues(rng, n - 4, separation=0.3),
                    [lam, close, np.conj(lam), np.conj(close)],
                ]))
                roots = gs.find_roots(poly)
                self.assert_polishes_agree(poly, roots)
                self.assert_polishes_agree(poly, roots * (1.0 + 1e-8 * rng.standard_normal(n)))

    @pytest.mark.parametrize("sizes", [(), (8,), (12,), (16,)], ids=["random", "n8", "n12", "n16"])
    def test_exact_totals_match_the_component_sums(self, sizes):
        # the reference sums the raw components of a polish at 80 mpmath
        # digits and rounds each entry through a 40-digit string.  P^-1,
        # rounded once from the exact Bezoutian, agrees to one 80-bit ulp,
        # apart from the rounding noise of entries that vanish exactly; P,
        # one 80-bit solve with it, to 1e-16 of its largest entry.  (At
        # n >= 12 a 40-digit sum is itself off by up to 1e-22 of the largest
        # entry, more than an 80-bit ulp of the smaller entries.)
        from mpmath import mp, nstr

        from gramspec.companion import _evaluate

        if sizes:
            cases = [(poly, gs.cluster(gs.find_roots(poly))) for poly in _ladder_polynomials(sizes)]
        else:
            rng = np.random.default_rng(818)
            cases = [random_companion(rng, n)[::2] for n in range(2, 9)]

        def rounded(x):  # through a 40-digit string
            return np.longdouble(nstr(x, 40))

        eps = np.finfo(np.longdouble).eps
        for poly, spec in cases:
            es = gs.eigen_structure(poly, spec)
            gramian, inverse = exact_totals(poly)
            with mp.workdps(80):
                mp_values = mp_polished_roots(poly, spec.values, dps=80)
                mp_es = _evaluate(poly, spec, mp_values, es.solvability)
                gramian_want, inverse_want = (
                    np.array([[rounded(z.real) + 1j * rounded(z.imag) for z in row]
                              for row in sum(parts(mp_es).values())], dtype=np.clongdouble)
                    for parts in (eigenparts_division, inverse_eigenparts_division)
                )
            scale = np.max(np.abs(inverse_want))
            bound = eps * np.abs(inverse_want) + 1e-30 * scale
            assert np.all(np.abs(inverse - inverse_want) <= bound), poly.degree
            scale = np.max(np.abs(gramian_want))
            assert np.max(np.abs(gramian - gramian_want)) <= 1e-16 * scale, poly.degree

    def test_array_rounding_is_the_scalar_rounding(self):
        # one _round_longdouble call on an array equals its call on one
        # integer and the one-integer reference entry by entry: ties to even
        # (up to 2^64), negative values, shift 0 and integers of several
        # hundred bits
        from gramspec.spectrum import _round_longdouble

        rng = np.random.default_rng(3302)
        mans = [0, 1, -1, 2**64 - 1, 2**64 + 1, 2**64 + 3, 2**65 - 1, -(2**65 - 1),
                (2**64 - 1) << 3 | 4, 3 * 2**100 + 1]
        for bits in (10, 63, 64, 65, 66, 100, 300, 700):
            for _ in range(25):
                man = int(rng.integers(0, 2**62)) | 1 << 62
                while man.bit_length() < bits:
                    man = man << 62 | int(rng.integers(0, 2**62))
                man >>= man.bit_length() - bits
                shift = max(0, bits - 64)  # a tie: the dropped bits are exactly one half
                tie = (man >> shift << shift) | 1 << (shift - 1) if shift else man
                mans += [man, -man, tie, -tie]
        exps = [int(e) for e in rng.integers(-1200, 200, len(mans))]
        got = _round_longdouble(mans, exps)
        assert got.dtype == np.longdouble and got.shape == (len(mans),)
        for value, man, exp in zip(got, mans, exps):
            for want in (_round_longdouble([man], exp)[0], to_longdouble_each(man, exp)):
                assert value == want and np.signbit(value) == np.signbit(want), (man, exp)
        assert_bitwise(_round_longdouble(mans, -5), np.array(
            [to_longdouble_each(man, -5) for man in mans], dtype=np.longdouble))

    def test_rounding_is_correct_to_nearest_even(self):
        from gramspec.spectrum import _round_longdouble

        def _to_longdouble(man, exp):
            return _round_longdouble([man], exp)[0]

        # 2^64 + 1 and 2^64 + 3 are ties between 80-bit neighbours
        for man, exp in [(2**64 + 1, 0), (2**64 + 3, 0), (-(2**64 + 3), -70), (0, 5),
                         (3 * 2**100 + 1, -200), (12345, -10)]:
            expected = np.longdouble(str(man)) * np.longdouble(2.0) ** exp
            assert _to_longdouble(man, exp) == expected, (man, exp)
        rng = np.random.default_rng(9)
        for _ in range(200):
            man = int(rng.integers(1, 2**62)) << 70 | int(rng.integers(0, 2**62))
            assert _to_longdouble(man, -132) == np.longdouble(str(man)) / np.longdouble(2.0) ** 132
