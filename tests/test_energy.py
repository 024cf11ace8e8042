import numpy as np
import pytest

import gramspec as gs

from conftest import assert_bitwise, random_companion


@pytest.fixture(scope="module")
def scalar_system():
    poly = gs.Polynomial([1.0, 1.0])
    cr = gs.build_companion(poly)
    spec = gs.Spectrum([-1.0], [1])
    return poly, cr, spec


class TestMinEnergy:
    def test_scalar(self, scalar_system):
        _, cr, spec = scalar_system
        inv = gs.inverse_eigenparts(gs.eigen_structure(cr.poly, spec))
        assert abs(gs.min_energy([1.0], inv) - 2.0) < 1e-12

    def test_example_quadratic_form(self, example1):
        # unstable system: the value is the quadratic form, not an energy
        _, cr, spec = example1
        inv = gs.inverse_eigenparts(gs.eigen_structure(cr.poly, spec))
        assert abs(gs.min_energy([0.0, 0.0, 1.0], inv) - (-12.0)) < 1e-9

    def test_stable_matches_quadrature(self, mirrored_stable):
        _, cr, spec = mirrored_stable
        es = gs.eigen_structure(cr.poly, spec)
        inv = gs.inverse_eigenparts(es)
        x0 = np.array([1.0, 0.0, 0.0])
        e_min = gs.min_energy(x0, inv)
        signal = gs.optimal_control(x0, es, inv)
        quad = gs.control_energy_quadrature(signal)
        assert abs(e_min - quad) <= 1e-5 * max(1.0, abs(e_min))


class TestOptimalControl:
    def test_scalar_closed_form(self, scalar_system):
        _, cr, spec = scalar_system
        es = gs.eigen_structure(cr.poly, spec)
        signal = gs.optimal_control([1.0], es, gs.inverse_eigenparts(es))
        ts = np.array([-2.0, -1.0, -0.1])
        assert np.max(np.abs(signal.control(ts) - 2.0 * np.exp(ts))) < 1e-12

    def test_scalar_energy_integral(self, scalar_system):
        _, cr, spec = scalar_system
        es = gs.eigen_structure(cr.poly, spec)
        signal = gs.optimal_control([1.0], es, gs.inverse_eigenparts(es))
        assert abs(gs.control_energy_quadrature(signal) - 2.0) < 1e-5

    def test_stable_quadrature_matches(self, mirrored_stable):
        _, cr, spec = mirrored_stable
        es = gs.eigen_structure(cr.poly, spec)
        x0 = np.array([1.0, 0.0, 0.0])
        inv = gs.inverse_eigenparts(es)
        signal = gs.optimal_control(x0, es, inv)
        assert abs(gs.control_energy_quadrature(signal) - gs.min_energy(x0, inv)) < 1e-4 * 132

    def test_unstable_rejected(self, example1):
        _, cr, spec = example1
        with pytest.raises(gs.StabilityError):
            es = gs.eigen_structure(cr.poly, spec)
            gs.optimal_control([1.0, 0.0, 0.0], es, gs.inverse_eigenparts(es))

    def test_modal_completeness(self):
        rng = np.random.default_rng(301)
        _, cr, spec = random_companion(rng, 5)
        x0 = rng.standard_normal(5)
        es = gs.eigen_structure(cr.poly, spec)
        signal = gs.optimal_control(x0, es, gs.inverse_eigenparts(es))
        ts = np.linspace(-signal.horizon, 0.0, 100)
        total = np.sum(signal.modal(ts), axis=0)
        control = signal.control(ts)
        scale = max(1.0, np.max(np.abs(control)))
        assert np.max(np.abs(total - control)) <= 1e-9 * scale
        assert np.max(np.abs(total.imag)) <= 1e-9 * scale


    @pytest.mark.parametrize("n", range(1, 17))
    def test_modal_weights_read_the_residue_column(self, n):
        # kappa_i is conj(R_i[:, n - 1]) @ P^-1 x_0 with the residue's column
        # formed from the factors, x_i y_i[n - 1] / (-N'(lambda_i)): bit for
        # bit the column of the residue stack, which energy no longer builds
        rng = np.random.default_rng(400 + n)
        _, cr, spec = random_companion(rng, n)
        x0 = rng.standard_normal(n)
        es = gs.eigen_structure(cr.poly, spec)
        inv = gs.inverse_eigenparts(es)
        signal = gs.optimal_control(x0, es, inv)
        assert "residues" not in es.__dict__
        w = inv.total() @ x0
        want = np.array([np.conj(r[:, n - 1]) @ w for r in es.residues])
        assert_bitwise(signal.kappa, want)


class TestEnergyPartition:
    def test_example_partition(self, example1):
        _, cr, spec = example1
        es = gs.eigen_structure(cr.poly, spec)
        inv = gs.inverse_eigenparts(es)
        part = gs.energy_partition(np.array([0.0, 0.0, 1.0]), inv, gs.inverse_pair_parts(es))
        assert np.allclose(part.linear, [-12.0, 60.0, -60.0], atol=1e-8)
        assert abs(part.total - (-12.0)) < 1e-8
        assert not part.interpretation_valid

    def test_scalar(self, scalar_system):
        _, cr, spec = scalar_system
        es = gs.eigen_structure(cr.poly, spec)
        inv = gs.inverse_eigenparts(es)
        part = gs.energy_partition([1.0], inv, gs.inverse_pair_parts(es))
        assert abs(part.linear[0] - part.total) < 1e-14
        assert part.interpretation_valid

    def test_partition_closure_random(self):
        rng = np.random.default_rng(303)
        for _ in range(5):
            n = int(rng.integers(2, 8))
            _, cr, spec = random_companion(rng, n)
            es = gs.eigen_structure(cr.poly, spec)
            inv = gs.inverse_eigenparts(es)
            x0 = rng.standard_normal(n)
            part = gs.energy_partition(x0, inv, gs.inverse_pair_parts(es))
            scale = max(1.0, abs(part.total))
            assert abs(np.sum(part.linear) - part.total) <= 1e-9 * scale
            assert abs(np.sum(part.quadratic) - part.total) <= 1e-9 * scale

    def test_linear_parts_match_interaction_quadrature(self, mirrored_stable):
        # E_i equals (1/2) int (u_i* u + u* u_i) dt for stable systems
        _, cr, spec = mirrored_stable
        es = gs.eigen_structure(cr.poly, spec)
        rng = np.random.default_rng(305)
        x0 = rng.standard_normal(3)
        inv = gs.inverse_eigenparts(es)
        part = gs.energy_partition(x0, inv, gs.inverse_pair_parts(es))
        signal = gs.optimal_control(x0, es, inv)
        ts = np.linspace(-signal.horizon, 0.0, 40_000)
        modes = signal.modal(ts)
        control = np.sum(modes, axis=0)
        scale = max(1.0, np.max(np.abs(part.linear)))
        for i in range(3):
            integrand = 0.5 * (np.conj(modes[i]) * control + np.conj(control) * modes[i])
            quad = np.trapezoid(integrand.real, ts)
            assert abs(part.linear[i] - quad) <= 1e-4 * scale

    def test_realness_with_complex_spectrum(self):
        rng = np.random.default_rng(307)
        _, cr, spec = random_companion(rng, 6)
        es = gs.eigen_structure(cr.poly, spec)
        inv = gs.inverse_eigenparts(es)
        x0 = rng.standard_normal(6)
        part = gs.energy_partition(x0, inv, gs.inverse_pair_parts(es))
        assert np.all(np.isreal(part.linear))
        assert np.all(np.isreal(part.quadratic))


def modal_overlaps(x0, es):
    """The modal overlap integrals of the minimum-energy control to x0: the
    closed forms x_0^T P^{-1} P_ij P^{-1} x_0 from the pair Gramian set, and
    (1/2) int (conj(u_i) u_j + conj(u_j) u_i) dt by trapezoid quadrature
    over the control's window, each as a (k, k) array."""
    x0 = np.asarray(x0, dtype=float)
    inv = gs.inverse_eigenparts(es)
    w = (inv.total() @ x0).real
    k = es.eigenvalues.size
    pairs = gs.infinite_pair_subgramians(es).symmetrized().stack
    closed = np.einsum("i,kij,j->k", w, pairs, w).real.reshape(k, k)
    signal = gs.optimal_control(x0, es, inv)
    ts = np.linspace(-signal.horizon, 0.0, 40_000)
    modes = signal.modal(ts)
    cross = np.conj(modes)[:, None] * modes[None, :]
    quad = np.trapezoid((0.5 * (cross + cross.swapaxes(0, 1))).real, ts)
    return closed, quad


def overlap_error(closed, quad) -> float:
    """Worst disagreement relative to the largest overlap: single overlaps
    can be orders of magnitude larger than their sum, the minimum energy."""
    return float(np.max(np.abs(closed - quad))) / max(1.0, float(np.max(np.abs(closed))))


class TestModalOverlap:
    def test_scalar_single_entry(self, scalar_system):
        _, cr, spec = scalar_system
        closed, quad = modal_overlaps([1.0], gs.eigen_structure(cr.poly, spec))
        assert abs(closed[0, 0] - 2.0) < 1e-10
        assert overlap_error(closed, quad) < 1e-4

    def test_stable_closed_vs_quadrature(self, mirrored_stable):
        # x_0^T P^{-1} P_ij P^{-1} x_0 = (1/2) int (conj(u_i) u_j + conj(u_j) u_i) dt
        _, cr, spec = mirrored_stable
        closed, quad = modal_overlaps([1.0, 0.0, 0.0], gs.eigen_structure(cr.poly, spec))
        assert overlap_error(closed, quad) < 1e-4

    def test_sum_equals_min_energy(self, mirrored_stable):
        _, cr, spec = mirrored_stable
        es = gs.eigen_structure(cr.poly, spec)
        x0 = np.array([1.0, 0.0, 0.0])
        closed, _ = modal_overlaps(x0, es)
        e_min = gs.min_energy(x0, gs.inverse_eigenparts(es))
        assert abs(np.sum(closed) - e_min) <= 1e-6 * max(1.0, abs(e_min))
