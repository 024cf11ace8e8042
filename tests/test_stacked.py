"""The stacked component sets against the per-component loops they replaced,
bit for bit: the pair builders, the finite and homogeneous terms, the
symmetrized stacks, the totals, the conjugate merges, the normalization
matrix of the finite inverse and the residuals of the report blocks.  The
rank-one sets are also held, within a few ulps, to the divisions they replaced.

The spectra are the 24 analyze_ladder documents at n = 8, 12 and 16 of the
benchmark catalogue, and random spectra at n = 1..16, stable and not, with
real eigenvalues among them (their zero imaginary parts carry signs).
"""

import os
import sys

import numpy as np
import pytest

import gramspec as gs
from gramspec.cli import _component_residuals
from gramspec.inverse import CONDITION_CAPS, _solve_dense

from conftest import assert_bitwise, random_companion
from references import (
    eigen_component_residual,
    eigenparts_division,
    finite_pair_subgramians_each,
    finite_subgramians_each,
    hermitian_part_each,
    homogeneous_subgramians_each,
    inverse_eigenparts_division,
    inverse_eigenparts_each,
    inverse_pair_parts_division,
    inverse_pair_parts_each,
    merge_conjugate_each,
    normalization_each,
    pair_component_residual,
    pair_subgramians_division,
    pair_subgramians_each,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import generate  # noqa: E402

LADDER_SIZES = (8, 12, 16)
LADDER = [item["doc"]["char_poly"]
          for round_ in generate.catalogue("analyze_ladder") for item in round_
          if item["n"] in LADDER_SIZES]
RANDOM = [(n, stable) for n in range(1, 17) for stable in (True, False)]
CASES = [f"ladder{k}" for k in range(len(LADDER))] + [
    f"random-n{n}-{'stable' if stable else 'mixed'}" for n, stable in RANDOM
]
_STRUCTURES: dict = {}


def structure(case: str):
    """(companion realization, spectrum, double-precision structure)."""
    if case not in _STRUCTURES:
        if case.startswith("ladder"):
            poly = gs.Polynomial(LADDER[int(case[6:])])
            spec = gs.cluster(gs.find_roots(poly))
        else:
            n, stable = RANDOM[CASES.index(case) - len(LADDER)]
            rng = np.random.default_rng(7000 + 2 * n + stable)
            while True:  # redraw the rare spectrum with lambda_i + conj(lambda_j) ~ 0
                poly, _, spec = random_companion(
                    rng, n, re_range=(-5.0, -0.1) if stable else (-3.0, 3.0))
                if gs.check_solvability(spec).ok:
                    break
        _STRUCTURES[case] = (gs.build_companion(poly), spec, gs.eigen_structure(poly, spec))
    return _STRUCTURES[case]


def assert_set_equals(component_set, parts: dict, what: str):
    """The set's keys, its stack, its symmetrized stack and both totals."""
    assert component_set.keys == tuple(parts), what
    assert set(component_set.components) == set(parts), what
    symmetrized = component_set.symmetrized()
    for m, key in enumerate(parts):
        assert_bitwise(component_set.stack[m], parts[key], f"{what} {key}")
        assert_bitwise(component_set.components[key], parts[key], f"{what} {key}")
        assert_bitwise(symmetrized.stack[m], hermitian_part_each(parts[key]),
                       f"{what} symmetrized {key}")
    assert_bitwise(component_set.total(), sum(parts.values()), f"{what} total")
    assert_bitwise(symmetrized.total(), sum(hermitian_part_each(m) for m in parts.values()),
                   f"{what} symmetrized total")


@pytest.mark.parametrize("case", CASES)
def test_pair_builders(case):
    _, spec, es = structure(case)
    pairs = pair_subgramians_each(es)
    built = gs.infinite_pair_subgramians(es)
    assert_set_equals(built, pairs, "gramian pairs")
    assert_set_equals(gs.inverse_pair_parts(es), inverse_pair_parts_each(es), "inverse pairs")
    for t in (1.0, 2.5):
        assert_set_equals(gs.finite_pair_subgramians(built, t),
                          finite_pair_subgramians_each(pairs, spec.values, t),
                          f"finite pairs at {t}")


@pytest.mark.parametrize("case", CASES)
def test_rank_one_sets_match_the_divisions(case):
    # each set is one broadcast c u v^T over a table of scalar coefficients;
    # the divisions by the scalar denominators that it replaced round
    # differently, and each component stays within a few ulps of them,
    # relative to the component's Frobenius norm
    _, _, es = structure(case)
    eps = np.finfo(float).eps
    for built, reference in ((gs.infinite_subgramians(es), eigenparts_division(es)),
                             (gs.inverse_eigenparts(es), inverse_eigenparts_division(es)),
                             (gs.infinite_pair_subgramians(es), pair_subgramians_division(es)),
                             (gs.inverse_pair_parts(es), inverse_pair_parts_division(es))):
        assert built.keys == tuple(reference)
        want = np.array(list(reference.values()))
        gap = np.linalg.norm(built.stack - want, axis=(1, 2))
        assert np.all(gap <= 4 * eps * np.linalg.norm(want, axis=(1, 2))), built.kind


@pytest.mark.parametrize("case", CASES)
def test_eigen_sets(case):
    cr, spec, es = structure(case)
    gram = gs.infinite_subgramians(es)
    inv = gs.inverse_eigenparts(es)
    n = cr.n
    m = np.random.default_rng(n).standard_normal((n, n))
    p0 = gs.InitialCondition(0.5 * (m + m.T))
    for t in (0.0, 1.0):
        h = gs.horizon(es, t)
        parts = dict(zip(gram.keys, gram.stack))
        assert_set_equals(gs.finite_subgramians(h, gram).at_t, finite_subgramians_each(parts, h),
                          f"finite eigen at {t}")
        assert_set_equals(gs.homogeneous_subgramians(h, p0),
                          homogeneous_subgramians_each(h, p0), f"homogeneous at {t}")
    for component_set in (gram, inv, gs.infinite_pair_subgramians(es)):
        symmetrized = component_set.symmetrized()
        merged = symmetrized.merged_real()
        want = merge_conjugate_each(dict(zip(symmetrized.keys, symmetrized.stack)), spec,
                                    component_set.kind)
        assert merged.keys == tuple(want)
        for got, key in zip(merged.stack, want):
            assert_bitwise(got, want[key], f"merged {component_set.kind} {key}")


@pytest.mark.parametrize("case", CASES)
def test_block_residuals(case):
    cr, spec, es = structure(case)
    a_c = cr.a_c
    values = spec.values
    for component_set, side in ((gs.infinite_subgramians(es), "left"),
                                (gs.inverse_eigenparts(es), "right")):
        want = [eigen_component_residual(a_c, values[i], spec.multiplicities[i], raw, side)
                for i, raw in component_set.components.items()]
        assert_bitwise(_component_residuals(component_set, a_c, spec, side), np.array(want))
    pairs = gs.infinite_pair_subgramians(es)
    want = [pair_component_residual(a_c, values[i] + np.conj(values[j]), raw, "left")
            for (i, j), raw in pairs.components.items()]
    assert_bitwise(_component_residuals(pairs, a_c, spec, "left"), np.array(want))
    inverse_pairs = gs.inverse_pair_parts(es)
    want = [pair_component_residual(a_c, np.conj(values[i]) + values[j], raw, "right")
            for (i, j), raw in inverse_pairs.components.items()]
    assert_bitwise(_component_residuals(inverse_pairs, a_c, spec, "right"), np.array(want))


@pytest.mark.parametrize("case", CASES)
def test_finite_inverse(case):
    # the decay terms in one batched product, and no boundary product when
    # P_0 = 0: the condition and the components, solved against the
    # normalization matrix, keep their bits, and so does a refusal's condition
    cr, spec, es = structure(case)
    n = cr.n
    m = np.random.default_rng(100 + n).standard_normal((n, n))
    initial = (np.zeros((n, n)), 0.5 * (m + m.T))
    extended = gs.eigen_structure(cr.poly, spec).to_extended()
    for h in (gs.horizon(es, 1.0), gs.horizon(extended, 1.0), gs.horizon(es, 0.25)):
        for p0 in map(gs.InitialCondition, initial):
            g_inv, term_scale = normalization_each(h, p0)
            svals = np.linalg.svd(g_inv.astype(complex), compute_uv=False)
            condition = float(term_scale / max(svals[-1], 1e-300))
            if not condition <= CONDITION_CAPS[np.finfo(h.expm_transpose.dtype).nmant + 1]:
                with pytest.raises(gs.ConditioningError) as refusal:
                    gs.finite_inverse(h, p0)
                assert refusal.value.condition == condition
                continue
            got_condition, inv_t = gs.finite_inverse(h, p0)
            assert got_condition == condition
            parts = inverse_eigenparts_each(h.structure)
            want = _solve_dense(g_inv, np.array(list(parts.values())))
            assert inv_t.keys == tuple(range(len(want)))
            for got, component in zip(inv_t.stack, want):
                assert_bitwise(got, component)


def test_multiple_eigenvalue_residuals(example5):
    # the Jordan path: (A - lambda I)^m with m > 1 in the eigen residuals
    _, cr, spec = example5
    chains = gs.jordan_chains_companion(spec, cr.poly)
    gram = gs.multiple_eig_gramian(chains).static
    inv = gs.inverse_multiple_eig(chains)
    for component_set, side in ((gram, "left"), (inv, "right")):
        want = [eigen_component_residual(cr.a_c, spec.values[i], spec.multiplicities[i], raw,
                                         side)
                for i, raw in component_set.components.items()]
        assert_bitwise(_component_residuals(component_set, cr.a_c, spec, side), np.array(want))
