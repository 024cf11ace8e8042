"""The Jordan-chain builders against the loops they replaced: the resolvent
coefficients as sums of outer products of chain vectors, the finite Gramian
components as k/l sums over the stored powers of the resolvent, and the
chain Hankel solved by back-substitution.

The builders form products of whole chain matrices and expand e^{At} once,
so they agree with the loops to rounding, not bit for bit.  Each component
is compared relative to its own largest entry: within 1e-13 for the static
and inverse components and the resolvent coefficients, within 1e-9 for the
finite ones, which vanish at t = 0 and are then compared with the scale of
their static components.  Each finite sum also matches RK4.

The spectra are seeded, of degree 3..8: simple roots with a real root of
multiplicity 2, one of multiplicity 3 or a conjugate pair of multiplicity 2,
the worked example 5 (eigenvalues 1 and 2, multiplicities 2 and 3) and a
clustered spectrum whose components cancel in their sum, so the sum of the
finite components is checked too, within 1e-11.
"""

import numpy as np
import pytest

import gramspec as gs
from gramspec.companion import alternating_signs
from gramspec.gramians import resolvent_coefficients

from conftest import random_stable_eigenvalues
from references import (multiple_eig_finite_each, resolvent_coefficients_each,
                        solve_upper_hankel_each)

KINDS = {"real2": 2, "real3": 3, "pair2": 4}  # kind of repeat -> its total multiplicity
SEEDED = [(degree, kind) for degree in range(3, 9) for kind, size in KINDS.items()
          if size <= degree]
CASES = [f"degree{d}-{kind}" for d, kind in SEEDED] + ["example5", "clustered"]
# a triple root amid close simple roots, from the benchmark's catalogue: its
# chain coefficients are large and cancel, in sums over blocks and in products
CLUSTERED = gs.Spectrum([-2.7193360971182083, -3.0346157323753844, -2.3358426094625724,
                         -4.769163075886009 + 1.9569492876070436j,
                         -4.769163075886009 - 1.9569492876070436j], [3, 1, 1, 1, 1])
HORIZONS = (0.0, 0.25, 1.0)


def seeded_spectrum(degree: int, kind: str) -> gs.Spectrum:
    """The repeat of ``kind`` plus stable simple roots, all 0.3 apart."""
    rng = np.random.default_rng(9000 + 10 * degree + list(KINDS).index(kind))
    while True:
        lam = complex(rng.uniform(-3.0, -0.3), rng.uniform(0.3, 2.0) if kind == "pair2" else 0.0)
        entries = [(lam, 2), (lam.conjugate(), 2)] if kind == "pair2" else [(lam, KINDS[kind])]
        if degree > KINDS[kind]:
            entries += [(v, 1) for v in random_stable_eigenvalues(
                rng, degree - KINDS[kind], separation=0.3, re_range=(-3.0, -0.3), im_max=2.0)]
        values = np.array([v for v, _ in entries])
        gaps = np.abs(values[:, None] - values[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() >= 0.3:
            return gs.Spectrum(values, [m for _, m in entries])


_CHAINS: dict = {}


def chains_of(case: str) -> gs.JordanChainSet:
    if case not in _CHAINS:
        if case == "example5":
            spec = gs.Spectrum([1.0, 2.0], [2, 3])
        elif case == "clustered":
            spec = CLUSTERED
        else:
            spec = seeded_spectrum(*SEEDED[CASES.index(case)])
        _CHAINS[case] = gs.jordan_chains_companion(spec, gs.poly_from_roots(spec.expanded()))
    return _CHAINS[case]


def relative_gap(got: np.ndarray, want: np.ndarray, scale: np.ndarray | None = None) -> float:
    scale = want if scale is None else scale
    return float(np.max(np.abs(got - want)) / max(1e-300, np.max(np.abs(scale))))


@pytest.mark.parametrize("case", CASES)
def test_resolvent_coefficients(case):
    chains = chains_of(case)
    for got, want in zip(resolvent_coefficients(chains), resolvent_coefficients_each(chains)):
        assert len(got) == len(want)
        for a_k, ref in zip(got, want):
            assert relative_gap(a_k, ref) <= 1e-13


@pytest.mark.parametrize("t", HORIZONS)
@pytest.mark.parametrize("case", CASES)
def test_gramian_components(case, t):
    chains = chains_of(case)
    decomp = gs.multiple_eig_gramian(chains, t)
    static, finite = multiple_eig_finite_each(chains, t)
    assert decomp.static.keys == decomp.at_t.keys == tuple(static)
    for i, part in enumerate(decomp.static.stack):
        assert relative_gap(part, static[i]) <= 1e-13
        scale = static[i] if t == 0.0 else finite[i]  # finite parts vanish at t = 0
        assert relative_gap(decomp.at_t.stack[i], finite[i], scale) <= 1e-9
    want = sum(finite.values())
    scale = sum(static.values()) if t == 0.0 else want
    assert relative_gap(decomp.at_t.total(), want, scale) <= 1e-11
    a, b = chains.system.a, chains.system.b
    rk4 = gs.integrate_lyapunov(a, b @ b.T, np.zeros(a.shape), t, steps=20_000)
    total = decomp.at_t.total()
    assert np.max(np.abs(total.imag)) <= 1e-9 * max(1.0, np.max(np.abs(total.real)))
    assert np.linalg.norm(total.real - rk4) / max(1.0, np.linalg.norm(rk4)) < 1e-7


@pytest.mark.parametrize("case", CASES)
def test_inverse_components(case):
    chains = chains_of(case)
    inv = gs.inverse_multiple_eig(chains)
    signs = alternating_signs(chains.poly.degree)
    for j, block in enumerate(chains.blocks):
        x = solve_upper_hankel_each(block.left[:, -1], block.left)
        want = signs[:, None] * (block.left.T @ (block.toeplitz @ x))
        assert relative_gap(inv.stack[j], want) <= 1e-13


def test_upper_hankel_reference_solves_the_stored_hankel():
    for case in CASES:
        for block in chains_of(case).blocks:
            x = solve_upper_hankel_each(block.left[:, -1], block.left)
            assert relative_gap(block.hankel @ x, block.left) <= 1e-13


@pytest.mark.parametrize("values, multiplicities", [([-1.0, 2.0], [2, 1]),
                                                    ([1.0, 2.0], [2, 3])])
def test_gramian_components_with_mixed_growth(values, multiplicities):
    """Blocks that grow at different rates, at a horizon where e^{At} P_i
    e^{A^T t} dominates P_i: each component keeps its relative accuracy only
    if the left exponential holds the modes of its own block alone."""
    spec = gs.Spectrum(values, multiplicities)
    chains = gs.jordan_chains_companion(spec, gs.poly_from_roots(spec.expanded()))
    decomp = gs.multiple_eig_gramian(chains, 10.0)
    _, finite = multiple_eig_finite_each(chains, 10.0)
    for i, part in enumerate(decomp.at_t.stack):
        assert relative_gap(part, finite[i]) <= 1e-9
