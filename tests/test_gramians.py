import numpy as np
import pytest

import gramspec as gs

from conftest import random_companion
from references import components

EX1_P1 = (-1.0 / 48.0) * np.array([[1, 0, 1], [0, -1, 0], [1, 0, 1]], dtype=float)
EX1_SUM = (-1.0 / 120.0) * np.array([[1, 0, -1], [0, 1, 0], [-1, 0, 11]], dtype=float)
EX1_PAIRS = {
    (0, 0): (-1.0 / 8.0) * np.ones((3, 3)),
    (0, 1): (1.0 / 12.0) * np.array([[2, 3, 5], [3, 4, 6], [5, 6, 8]], dtype=float),
    (0, 2): (-1.0 / 16.0) * np.array([[1, 2, 5], [2, 3, 6], [5, 6, 9]], dtype=float),
    (1, 1): (-1.0 / 4.0) * np.array([[1, 2, 4], [2, 4, 8], [4, 8, 16]], dtype=float),
    (1, 2): (1.0 / 20.0) * np.array([[2, 5, 13], [5, 12, 30], [13, 30, 72]], dtype=float),
    (2, 2): (-1.0 / 24.0) * np.array([[1, 3, 9], [3, 9, 27], [9, 27, 81]], dtype=float),
}


def bbt(cr):
    return np.outer(cr.b_c, cr.b_c)


class TestInfiniteSubgramians:
    def test_example_values(self, example1):
        _, cr, spec = example1
        sym = gs.infinite_subgramians(gs.eigen_structure(cr.poly, spec)).symmetrized()
        assert np.max(np.abs(components(sym)[0] - EX1_P1)) < 1e-12
        assert np.max(np.abs(sym.total() - EX1_SUM)) < 1e-12

    def test_scalar_system(self):
        cr = gs.build_companion(gs.Polynomial([1.0, 1.0]))
        spec = gs.Spectrum([-1.0], [1])
        sym = gs.infinite_subgramians(gs.eigen_structure(cr.poly, spec)).symmetrized()
        assert abs(sym.total()[0, 0] - 0.5) < 1e-14

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(101)
        _, cr, spec = random_companion(rng, 5)
        es = gs.eigen_structure(cr.poly, spec)
        total = gs.infinite_subgramians(es).symmetrized().total().real
        reference = gs.solve_lyapunov_dense(cr.a_c, bbt(cr))
        assert np.linalg.norm(total - reference) <= 1e-8 * np.linalg.norm(reference)

    def test_solvability_enforced(self):
        cr = gs.build_companion(gs.poly_from_roots([1j, -1j]))
        with pytest.raises(gs.SolvabilityError):
            gs.infinite_subgramians(gs.eigen_structure(cr.poly, gs.Spectrum([1j, -1j], [1, 1])))

    def test_multiple_redirected(self, example5):
        _, cr, spec = example5
        with pytest.raises(gs.MultipleEigenvalueError, match="multiple"):
            gs.infinite_subgramians(gs.eigen_structure(cr.poly, spec))


class TestPairSubgramians:
    def test_example_values(self, example1):
        _, cr, spec = example1
        sym = gs.infinite_pair_subgramians(gs.eigen_structure(cr.poly, spec)).symmetrized()
        for key, expected in EX1_PAIRS.items():
            assert np.max(np.abs(components(sym)[key] - expected)) < 1e-12, key
            mirror = (key[1], key[0])
            assert np.max(np.abs(components(sym)[mirror] - expected)) < 1e-12

    def test_scalar(self):
        cr = gs.build_companion(gs.Polynomial([1.0, 1.0]))
        es = gs.eigen_structure(cr.poly, gs.Spectrum([-1.0], [1]))
        sym = gs.infinite_pair_subgramians(es).symmetrized()
        assert abs(components(sym)[(0, 0)][0, 0] - 0.5) < 1e-14

    def test_row_sums_give_eigen_components(self, example1):
        _, cr, spec = example1
        es = gs.eigen_structure(cr.poly, spec)
        eigen = gs.infinite_subgramians(es).symmetrized()
        pairs = gs.infinite_pair_subgramians(es).symmetrized()
        for i in range(3):
            row = sum(components(pairs)[(i, j)] for j in range(3))
            assert np.max(np.abs(row - components(eigen)[i])) < 1e-9

    def test_partition_consistency_random(self):
        rng = np.random.default_rng(103)
        _, cr, spec = random_companion(rng, 6)
        es = gs.eigen_structure(cr.poly, spec)
        eigen = gs.infinite_subgramians(es)
        pairs = gs.infinite_pair_subgramians(es)
        for flavor in ("raw", "symmetrized"):
            e = eigen if flavor == "raw" else eigen.symmetrized()
            q = pairs if flavor == "raw" else pairs.symmetrized()
            scale = max(1.0, float(np.max(np.abs(e.total()))))
            for i in range(6):
                row = sum(components(q)[(i, j)] for j in range(6))
                assert np.max(np.abs(row - components(e)[i])) < 1e-9 * max(
                    1.0, np.max(np.abs(components(e)[i]))
                )
            assert np.max(np.abs(q.total() - e.total())) < 1e-9 * scale


class TestFiniteSubgramians:
    def test_zero_horizon(self, example1):
        _, cr, spec = example1
        dec = gs.finite_subgramians(gs.horizon(gs.eigen_structure(cr.poly, spec), 0.0))
        assert np.max(np.abs(dec.at_t.total())) < 1e-10

    def test_example_against_rk4(self, example1):
        _, cr, spec = example1
        dec = gs.finite_subgramians(gs.horizon(gs.eigen_structure(cr.poly, spec), 1.0))
        rk4 = gs.integrate_lyapunov(cr.a_c, bbt(cr), np.zeros((3, 3)), 1.0, steps=10_000)
        rel = np.linalg.norm(dec.at_t.total().real - rk4) / np.linalg.norm(rk4)
        assert rel < 1e-6

    def test_stable_limit(self, mirrored_stable):
        _, cr, spec = mirrored_stable
        es = gs.eigen_structure(cr.poly, spec)
        finite = gs.finite_subgramians(gs.horizon(es, 20.0)).at_t.total().real
        infinite = gs.infinite_subgramians(es).total().real
        assert np.max(np.abs(finite - infinite)) < 1e-8

    def test_differential_residual(self, example1):
        _, cr, spec = example1
        h = 1e-5
        q = bbt(cr)
        es = gs.eigen_structure(cr.poly, spec)

        def total(t):
            return gs.finite_subgramians(gs.horizon(es, t)).at_t.total().real

        for t in (0.1, 0.5, 1.0):
            p = total(t)
            dpdt = (total(t + h) - total(t - h)) / (2 * h)
            defect = -dpdt + cr.a_c @ p + p @ cr.a_c.T + q
            assert np.max(np.abs(defect)) < 1e-5 * max(1.0, np.max(np.abs(p)))

    def test_reuses_the_infinite_set(self, example1):
        # the raw infinite set of the horizon's structure stands in for the
        # static parts, which are then not built again; the result is the same
        _, cr, spec = example1
        es = gs.eigen_structure(cr.poly, spec)
        h = gs.horizon(es, 1.0)
        gram = gs.infinite_subgramians(es)
        reused, built = gs.finite_subgramians(h, gram), gs.finite_subgramians(h)
        assert reused.static is gram
        for key, part in components(built.at_t).items():
            assert np.array_equal(components(reused.at_t)[key], part)
        for wrong in (gram.symmetrized(), gs.infinite_pair_subgramians(es)):
            with pytest.raises(ValueError, match="raw eigen-indexed"):
                gs.finite_subgramians(h, wrong)


class TestFinitePairSubgramians:
    def test_zero_horizon(self, example1):
        _, cr, spec = example1
        es = gs.eigen_structure(cr.poly, spec)
        at_t = gs.finite_pair_subgramians(gs.infinite_pair_subgramians(es), 0.0)
        assert np.max(np.abs(at_t.total())) < 1e-12

    def test_only_the_raw_pair_set(self, example1):
        # the finite terms are formed from the raw components
        _, cr, spec = example1
        es = gs.eigen_structure(cr.poly, spec)
        for other in (gs.infinite_pair_subgramians(es).symmetrized(), gs.infinite_subgramians(es)):
            with pytest.raises(ValueError, match="raw pair-indexed"):
                gs.finite_pair_subgramians(other, 1.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -1.0])
    def test_refuses_a_bad_horizon(self, example1, t):
        # as every horizon builder does: no NaN, zero or backward components
        _, cr, spec = example1
        pairs = gs.infinite_pair_subgramians(gs.eigen_structure(cr.poly, spec))
        with pytest.raises(ValueError, match="horizon must be finite and nonnegative"):
            gs.finite_pair_subgramians(pairs, t)

    def test_pair_grouping_matches_infinite_components(self, example1):
        # grouping by exponent lambda_i + lambda_j reproduces the infinite
        # pair components as the coefficients of (1 - e^{st})
        _, cr, spec = example1
        es = gs.eigen_structure(cr.poly, spec)
        at_t = gs.finite_pair_subgramians(gs.infinite_pair_subgramians(es), 0.7)
        sym_inf = gs.infinite_pair_subgramians(es).symmetrized()
        groups = {}
        for (i, j), part in components(at_t.symmetrized()).items():
            s = float((spec.values[i] + np.conj(spec.values[j])).real)  # real spectrum
            static = part / (1.0 - np.exp(s * 0.7))  # the coefficient of (1 - e^{st})
            rate = round(s)
            groups[rate] = groups.get(rate, 0.0) + static
        expected_3 = components(sym_inf)[(0, 1)] + components(sym_inf)[(1, 0)]
        assert np.max(np.abs(groups[3] - expected_3)) < 1e-10

    def test_consistency_with_eigen_sum(self, example1):
        _, cr, spec = example1
        es = gs.eigen_structure(cr.poly, spec)
        t = 0.5
        pair_total = gs.finite_pair_subgramians(gs.infinite_pair_subgramians(es), t).total()
        eigen_total = gs.finite_subgramians(gs.horizon(es, t)).at_t.total()
        assert np.max(np.abs(pair_total - eigen_total)) < 1e-9


class TestHomogeneous:
    def test_reproduces_initial_condition(self, example1):
        _, cr, spec = example1
        rng = np.random.default_rng(107)
        s = rng.standard_normal((3, 3))
        p0 = gs.InitialCondition(0.5 * (s + s.T))
        es = gs.eigen_structure(cr.poly, spec)
        eigen = gs.homogeneous_subgramians(gs.horizon(es, 0.0), p0)
        assert np.max(np.abs(sum(components(eigen).values()) - p0.matrix)) < 1e-9

    def test_against_rk4(self, example1):
        _, cr, spec = example1
        p0 = gs.InitialCondition(np.eye(3))
        eigen = gs.homogeneous_subgramians(gs.horizon(gs.eigen_structure(cr.poly, spec), 0.1), p0)
        rk4 = gs.integrate_lyapunov(cr.a_c, np.zeros((3, 3)), np.eye(3), 0.1, steps=10_000)
        total = sum(components(eigen).values()).real
        assert np.linalg.norm(total - rk4) <= 1e-6 * np.linalg.norm(rk4)

    def test_zero_initial_condition(self, example1):
        _, cr, spec = example1
        p0 = gs.InitialCondition(np.zeros((3, 3)))
        es = gs.eigen_structure(cr.poly, spec)
        eigen = gs.homogeneous_subgramians(gs.horizon(es, 0.3), p0)
        assert np.max(np.abs(sum(components(eigen).values()))) == 0.0


class TestLifting:
    def test_companion_input_is_identity_lift(self, mirrored_stable):
        _, cr, spec = mirrored_stable
        gram = gs.infinite_subgramians(gs.eigen_structure(cr.poly, spec))
        lifted = gs.lift_to_original(gram, gs.similarity_transform(cr.system(), cr.poly))
        assert lifted.shape == (3, 3) and np.array_equal(lifted, lifted.conj().T)
        assert np.max(np.abs(lifted - gram.total())) < 1e-10

    def test_single_input_two_paths_agree(self):
        rng = np.random.default_rng(109)
        _, cr, spec = random_companion(rng, 4)
        t = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
        sys = gs.LtiSystem(t @ cr.a_c @ np.linalg.inv(t), t @ cr.b_c)
        transform = gs.similarity_transform(sys, gs.char_poly(sys.a))
        gram = gs.infinite_subgramians(gs.eigen_structure(cr.poly, spec))
        lifted = gs.lift_to_original(gram, transform).real
        direct = transform.t @ gram.total().real @ transform.t.T
        assert np.max(np.abs(lifted - direct)) <= 1e-9 * max(1.0, np.max(np.abs(direct)))

    def test_multi_input_matches_oracle(self):
        rng = np.random.default_rng(111)
        for _ in range(5):
            _, cr, spec = random_companion(rng, 4, separation=0.15)
            t = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
            a = t @ cr.a_c @ np.linalg.inv(t)
            b = rng.standard_normal((4, 2))
            sys = gs.LtiSystem(a, b)
            gram = gs.infinite_subgramians(gs.eigen_structure(cr.poly, spec))
            transform = gs.similarity_transform(sys, gs.char_poly(sys.a))
            lifted = gs.lift_to_original(gram, transform).real
            reference = gs.solve_lyapunov_dense(a, b @ b.T)
            rel = np.linalg.norm(lifted - reference) / max(1.0, np.linalg.norm(reference))
            assert rel < 1e-7

    def test_polynomial_mismatch_rejected(self, example1, mirrored_stable):
        _, cr1, spec1 = example1
        _, cr2, _ = mirrored_stable
        gram = gs.infinite_subgramians(gs.eigen_structure(cr1.poly, spec1))
        with pytest.raises(ValueError, match="polynomial"):
            gs.lift_to_original(gram, gs.similarity_transform(cr2.system(), cr2.poly))

    def test_rank_deficient_rejected(self, example1):
        _, cr, spec = example1
        gram = gs.infinite_subgramians(gs.eigen_structure(cr.poly, spec))
        bad = gs.LtiSystem(cr.a_c, np.zeros(3))
        with pytest.raises(gs.ControllabilityError):
            gs.lift_to_original(gram, gs.similarity_transform(bad, cr.poly))


class TestMultipleEigenvalues:
    def test_simple_reduction(self, mirrored_stable):
        _, cr, spec = mirrored_stable
        dec = gs.multiple_eig_gramian(gs.jordan_chains_companion(spec, cr.poly))
        simple = gs.infinite_subgramians(gs.eigen_structure(cr.poly, spec))
        assert np.max(np.abs(dec.static.total() - simple.total())) < 1e-8

    def test_example_exact_solution(self, example5):
        _, cr, spec = example5
        dec = gs.multiple_eig_gramian(gs.jordan_chains_companion(spec, cr.poly))
        expected = np.array(
            [
                [-41, 0, 12, 0, -16],
                [0, -12, 0, 16, 0],
                [12, 0, -16, 0, 64],
                [0, 16, 0, -64, 0],
                [-16, 0, 64, 0, -1152],
            ],
            dtype=float,
        ) / 13824.0
        assert np.max(np.abs(dec.static.total().real - expected)) < 1e-10

    def test_example_symmetrized_components(self, example5):
        _, cr, spec = example5
        chains = gs.jordan_chains_companion(spec, cr.poly)
        sym = gs.multiple_eig_gramian(chains).static.symmetrized()
        p1 = (1.0 / 108.0) * np.array(
            [[1, 0, 3, 0, 5], [0, -3, 0, -5, 0], [3, 0, 5, 0, 7], [0, -5, 0, -7, 0], [5, 0, 7, 0, 9]],
            dtype=float,
        )
        p2 = (1.0 / 13824.0) * np.array(
            [
                [-169, 0, -372, 0, -656],
                [0, 372, 0, 656, 0],
                [-372, 0, -656, 0, -832],
                [0, 656, 0, 832, 0],
                [-656, 0, -832, 0, -2304],
            ],
            dtype=float,
        )
        assert np.max(np.abs(components(sym)[0] - p1)) < 1e-12
        assert np.max(np.abs(components(sym)[1] - p2)) < 1e-12

    def test_singular_resolvent_refused(self):
        # margin 3e-10 passes the solvability bound, but -lambda_2 I - A^T is singular
        spec = gs.Spectrum([-1.0, 0.9999999997], [2, 1])
        chains = gs.jordan_chains_companion(spec, gs.poly_from_roots(spec.expanded()))
        with pytest.raises(gs.ConditioningError, match="lambda_i = ") as exc:
            gs.multiple_eig_gramian(chains)
        assert exc.value.condition == np.inf

    def test_finite_multiple_against_rk4(self, example5):
        _, cr, spec = example5
        chains = gs.jordan_chains_companion(spec, cr.poly)
        dec = gs.multiple_eig_gramian(chains, t=0.5)
        rk4 = gs.integrate_lyapunov(cr.a_c, bbt(cr), np.zeros((5, 5)), 0.5, steps=20_000)
        rel = np.linalg.norm(dec.at_t.total().real - rk4) / max(1.0, np.linalg.norm(rk4))
        assert rel < 1e-7
        at_0 = gs.multiple_eig_gramian(chains, t=0.0).at_t
        assert np.max(np.abs(at_0.total())) < 1e-10


class TestStructuralProperties:
    def test_zero_plaid_simple(self):
        # complex-eigenvalue components show the plaid on conjugate-merged
        # (real) matrices; real-eigenvalue components carry it individually
        rng = np.random.default_rng(113)
        for n in (3, 5, 7):
            _, cr, spec = random_companion(rng, n)
            es = gs.eigen_structure(cr.poly, spec)
            merged = gs.infinite_subgramians(es).symmetrized().merged_real()
            for part in components(merged).values():
                odd, alt = gs.zero_plaid_defect(part)
                assert odd < 1e-10
                assert alt < 1e-10

    def test_zero_plaid_example(self, example1):
        _, cr, spec = example1
        es = gs.eigen_structure(cr.poly, spec)
        odd, alt = gs.zero_plaid_defect(gs.infinite_subgramians(es).symmetrized().total())
        assert odd == 0.0 and alt < 1e-14

    def test_diagonal_pairs_positive_semidefinite(self):
        rng = np.random.default_rng(115)
        _, cr, spec = random_companion(rng, 6)
        pairs = gs.infinite_pair_subgramians(gs.eigen_structure(cr.poly, spec)).symmetrized()
        for i in range(6):
            part = components(pairs)[(i, i)]
            eigvals = np.linalg.eigvalsh(part)
            assert eigvals.min() >= -1e-10 * max(1.0, np.max(np.abs(part)))

    def test_conjugate_realness_and_merging(self):
        rng = np.random.default_rng(117)
        _, cr, spec = random_companion(rng, 5)
        eigen = gs.infinite_subgramians(gs.eigen_structure(cr.poly, spec))
        partner = spec.conjugate_partner()
        for i in range(5):
            j = int(partner[i])
            total = components(eigen)[i] + (components(eigen)[j] if j != i else 0.0)
            scale = max(1.0, np.max(np.abs(total)))
            assert np.max(np.abs(total.imag)) < 1e-9 * scale
        merged = eigen.merged_real()
        assert np.max(np.abs(sum(components(merged).values()) - eigen.total().real)) < 1e-9

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(119)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            _, cr, spec = random_companion(rng, n)
            es = gs.eigen_structure(cr.poly, spec)
            total = gs.infinite_subgramians(es).symmetrized().total().real
            reference = gs.solve_lyapunov_dense(cr.a_c, bbt(cr))
            assert np.linalg.norm(total - reference) <= 1e-8 * np.linalg.norm(reference)


def test_exponent_collisions_flagged(example1):
    _, _, spec = example1
    collisions = gs.exponent_collisions(spec)
    # lambda_1 + lambda_3 = 4 = lambda_2 + lambda_2
    assert (((0, 2), (1, 1)) in collisions) or (((1, 1), (0, 2)) in collisions)


def _collisions_brute_force(spec, tol=1e-10):
    # the all-pairs scan that exponent_collisions replaced, kept as its reference
    lams = spec.values
    scale = tol * (1.0 + spec.radius)
    sums = {}
    for i in range(lams.size):
        for j in range(lams.size):
            sums[(i, j)] = lams[i] + np.conj(lams[j])
    keys = sorted(sums)
    collisions = []
    for a_idx in range(len(keys)):
        for b_idx in range(a_idx + 1, len(keys)):
            ka, kb = keys[a_idx], keys[b_idx]
            if abs(sums[ka] - sums[kb]) <= scale:
                collisions.append((ka, kb))
    return collisions


class TestExponentCollisions:
    def test_random_spectra_match_scan(self):
        rng = np.random.default_rng(131)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            _, _, spec = random_companion(rng, n)
            assert gs.exponent_collisions(spec) == _collisions_brute_force(spec)

    def test_colliding_spectrum_matches_scan(self):
        # equal real parts and equally spaced imaginary parts: many sums coincide
        spec = gs.Spectrum([-1.0, -1 + 1j, -1 - 1j, -1 + 2j, -1 - 2j], [1, 1, 1, 1, 1])
        collisions = gs.exponent_collisions(spec)
        assert collisions == _collisions_brute_force(spec)
        assert ((0, 1), (2, 0)) in collisions  # -2 + 1j both ways
        for tol in (0.0, 1e-3, 0.5):
            assert gs.exponent_collisions(spec, tol) == _collisions_brute_force(spec, tol)

    def test_pair_at_exact_tolerance(self):
        # lambda = -0.75, -1: the sums -1.5 (from (0, 0)) and -1.75 (from
        # (0, 1) and (1, 0)) differ by exactly 0.25, and tol = 0.125 with
        # radius 1 makes the window exactly 0.25, so the pair is on the
        # boundary, which counts as a collision
        spec = gs.Spectrum([-0.75, -1.0], [1, 1])
        tol = 0.125
        below = np.nextafter(tol, 0.0)
        for t in (tol, below):
            assert gs.exponent_collisions(spec, t) == _collisions_brute_force(spec, t)
        assert ((0, 0), (0, 1)) in gs.exponent_collisions(spec, tol)
        assert gs.exponent_collisions(spec, below) == [((0, 1), (1, 0))]

    def test_pair_collisions_leave_out_mirror_pairs(self):
        # (i, j) and (p(j), p(i)), p the conjugate partner, always collide;
        # pair_collisions drops exactly those from the raw scan
        spec = gs.Spectrum([-1.0, -1 + 1j, -1 - 1j, -1 + 2j, -1 - 2j], [1, 1, 1, 1, 1])
        partner = spec.conjugate_partner()
        raw = gs.exponent_collisions(spec)
        mirrors = [(a, b) for a, b in raw if b == (partner[a[1]], partner[a[0]])]
        assert mirrors and gs.pair_collisions(spec) == [c for c in raw if c not in mirrors]
        # -1 + conj(-1 + 1j) = -2 - 1j = (-1 - 1j) + conj(-1) mirrors; -2 twice does not
        assert ((0, 1), (2, 0)) in mirrors and ((0, 0), (1, 1)) in gs.pair_collisions(spec)
        # a real spectrum: every (i, j) ~ (j, i) is a mirror pair
        real = gs.Spectrum([-1.0, -2.0, -4.0], [1, 1, 1])
        assert len(gs.exponent_collisions(real)) == 3 and gs.pair_collisions(real) == []
        # 1 + 3 = 2 + 2 is a collision of two different exponent pairs
        assert gs.pair_collisions(gs.Spectrum([1.0, 2.0, 3.0], [1, 1, 1])) == [
            ((0, 2), (1, 1)), ((1, 1), (2, 0))]


def test_initial_condition_validation():
    with pytest.raises(ValueError, match="symmetric"):
        gs.InitialCondition(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        gs.InitialCondition(np.ones((2, 3)))
    # NaN fails the symmetry comparison quietly, so finiteness is checked first
    with pytest.raises(ValueError, match="finite"):
        gs.InitialCondition(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        gs.InitialCondition(np.array([[1.0, np.inf], [np.inf, 1.0]]))
