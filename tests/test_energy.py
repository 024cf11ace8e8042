import numpy as np
import pytest

import gramspec as gs

from conftest import random_companion


@pytest.fixture(scope="module")
def scalar_system():
    poly = gs.Polynomial([1.0, 1.0])
    cr = gs.build_companion(poly)
    spec = gs.Spectrum.simple([-1.0])
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


class TestModalOverlap:
    def test_scalar_single_entry(self, scalar_system):
        _, cr, spec = scalar_system
        es = gs.eigen_structure(cr.poly, spec)
        pairs = gs.infinite_pair_subgramians(es)
        report = gs.modal_overlap_integrals([1.0], pairs, es, gs.inverse_eigenparts(es))
        assert abs(report.closed_form[0, 0] - 2.0) < 1e-10
        assert report.max_error < 1e-4

    def test_stable_closed_vs_quadrature(self, mirrored_stable):
        _, cr, spec = mirrored_stable
        es = gs.eigen_structure(cr.poly, spec)
        pairs = gs.infinite_pair_subgramians(es)
        report = gs.modal_overlap_integrals(
            np.array([1.0, 0.0, 0.0]), pairs, es, gs.inverse_eigenparts(es)
        )
        assert report.max_error < 1e-4

    def test_sum_equals_min_energy(self, mirrored_stable):
        _, cr, spec = mirrored_stable
        es = gs.eigen_structure(cr.poly, spec)
        x0 = np.array([1.0, 0.0, 0.0])
        pairs = gs.infinite_pair_subgramians(es)
        inv = gs.inverse_eigenparts(es)
        report = gs.modal_overlap_integrals(x0, pairs, es, inv)
        e_min = gs.min_energy(x0, inv)
        assert abs(np.sum(report.closed_form) - e_min) <= 1e-6 * max(1.0, abs(e_min))

    def test_unstable_rejected(self, example1):
        _, cr, spec = example1
        es = gs.eigen_structure(cr.poly, spec)
        pairs = gs.infinite_pair_subgramians(es)
        with pytest.raises(gs.StabilityError):
            gs.modal_overlap_integrals([1.0, 0.0, 0.0], pairs, es, gs.inverse_eigenparts(es))
