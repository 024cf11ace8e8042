"""The stacked component sets against the per-component loops they replaced,
bit for bit: the pair builders, the finite and homogeneous terms, the
symmetrized stacks, the totals, the conjugate merges, the normalization
matrix of the finite inverse and the residuals of the report blocks.  The
rank-one sets are also held, within a few ulps, to the divisions they replaced,
and the rank-one finite-horizon terms, within k u times their scale, to the
n x n products they replaced.

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
from gramspec.companion import alternating_signs
from gramspec.inverse import CONDITION_CAPS

from conftest import assert_bitwise, random_companion
from references import (
    components,
    eigen_component_residual,
    eigenparts_division,
    finite_inverse_rank_one_each,
    finite_pair_subgramians_each,
    finite_subgramians_each,
    finite_subgramians_rank_one_each,
    hermitian_part_each,
    homogeneous_subgramians_each,
    homogeneous_subgramians_rank_one_each,
    horizon_each,
    initial_rows,
    inverse_eigenparts_division,
    inverse_pair_parts_division,
    inverse_pair_parts_each,
    merge_conjugate_each,
    normalization_each,
    normalization_rank_one_each,
    pair_component_residual,
    pair_subgramians_division,
    pair_subgramians_each,
    rows_each,
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
    symmetrized = component_set.symmetrized()
    for m, key in enumerate(parts):
        assert_bitwise(component_set.stack[m], parts[key], f"{what} {key}")
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


# Bounds of the rank-one forms against the products they replaced, fixed
# before measuring: an entry computed as an inner product of length n (or two
# in a row, or a sum of k terms) is off by at most about (2n + 2) u times the
# same product of absolute values, its scale; with k = n eigenvalues, 8 k u
# times that scale covers both forms' errors.
MULTIPLE = 8


def unit_roundoff(dtype) -> float:
    return float(np.finfo(dtype).eps) / 2


def assert_within(got, want, scale, what: str):
    """|got - want| <= MULTIPLE k u scale, entry by entry, in got's format;
    k is the dimension of the last axis."""
    bound = MULTIPLE * got.shape[-1] * unit_roundoff(got.dtype) * np.asarray(scale)
    assert np.all(np.abs(got - want) <= bound), what


def assert_rows(h, p0, what: str):
    """The horizon's exponential and rows against one-eigenvalue-at-a-time
    loops: in 80-bit, where numpy forms every product in its own loop, bit
    for bit; in double, where BLAS rounds matrix and vector products
    differently, within the bound."""
    es = h.structure
    signs = alternating_signs(es.poly.degree)
    weights, expm_transpose = horizon_each(es, h.t)
    assert_bitwise(h.weights, weights, f"{what} weights")
    jx, right = es.right * signs, p0.matrix @ h.expm_transpose
    loops = ((h.expm_transpose, expm_transpose, np.abs(es.left.T) @ np.abs(weights[:, None]
                                                                          * es.right)),
             (h.rows, rows_each(jx, h.expm_transpose), np.abs(jx) @ np.abs(h.expm_transpose)),
             (initial_rows(h, p0), rows_each(es.left, right), np.abs(es.left) @ np.abs(right)))
    for name, (got, want, scale) in zip(("expm_transpose", "rows", "initial_rows"), loops):
        if es.extended:
            assert_bitwise(got, want, f"{what} {name}")
        else:
            assert_within(got, want, scale, f"{what} {name}")


@pytest.mark.parametrize("case", CASES)
def test_eigen_sets(case):
    # the finite and homogeneous terms are the rank-one loops bit for bit, in
    # both formats, and the n x n products they replaced within the bound
    cr, spec, es = structure(case)
    gram = gs.infinite_subgramians(es)
    inv = gs.inverse_eigenparts(es)
    n = cr.n
    m = np.random.default_rng(n).standard_normal((n, n))
    p0 = gs.InitialCondition(0.5 * (m + m.T))
    for structure_ in (es, es.to_extended()):
        static = gs.infinite_subgramians(structure_)
        parts = dict(zip(static.keys, static.stack))
        for t in (0.0, 1.0):
            h = gs.horizon(structure_, t)
            what = f"{structure_.eigenvalues.dtype} at {t}"
            assert_rows(h, p0, what)
            finite = gs.finite_subgramians(h, static).at_t
            assert_set_equals(finite, finite_subgramians_rank_one_each(parts, h),
                              f"finite eigen {what}")
            homogeneous = gs.homogeneous_subgramians(h, p0)
            assert_set_equals(homogeneous, homogeneous_subgramians_rank_one_each(h, p0),
                              f"homogeneous {what}")
            abs_exp = np.abs(h.expm_transpose)
            coeffs = np.abs(h.weights / structure_.mirrors)
            for i, want in finite_subgramians_each(parts, h).items():
                x = np.abs(structure_.right[i])
                scale = max(np.abs(parts[i]).max(), coeffs[i] * np.outer(x, x @ abs_exp).max())
                assert_within(finite.stack[i], want, scale, f"finite eigen {what} {i}")
            abs_initial = np.abs(p0.matrix) @ abs_exp
            for i, want in homogeneous_subgramians_each(h, p0).items():
                scale = np.abs(h.weights[i]) * np.outer(np.abs(structure_.right[i]),
                                                        np.abs(structure_.left[i]) @ abs_initial)
                assert_within(homogeneous.stack[i], want, scale.max(), f"homogeneous {what} {i}")
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
                for i, raw in components(component_set).items()]
        assert_bitwise(_component_residuals(component_set, a_c, spec, side), np.array(want))
    pairs = gs.infinite_pair_subgramians(es)
    want = [pair_component_residual(a_c, values[i] + np.conj(values[j]), raw, "left")
            for (i, j), raw in components(pairs).items()]
    assert_bitwise(_component_residuals(pairs, a_c, spec, "left"), np.array(want))
    inverse_pairs = gs.inverse_pair_parts(es)
    want = [pair_component_residual(a_c, np.conj(values[i]) + values[j], raw, "right")
            for (i, j), raw in components(inverse_pairs).items()]
    assert_bitwise(_component_residuals(inverse_pairs, a_c, spec, "right"), np.array(want))


def normalization_condition(g_inv, term_scale) -> float:
    svals = np.linalg.svd(g_inv.astype(complex), compute_uv=False)
    return float(term_scale / max(svals[-1], 1e-300))


@pytest.mark.parametrize("case", CASES)
def test_finite_inverse(case):
    # the rank-one decay terms, and no boundary terms when P_0 = 0: the
    # condition and the components, c_i z_i y_i^T with z_i solved against the
    # normalization matrix, are the one-eigenvalue-at-a-time loops bit for
    # bit, and so is a refusal's condition.  G^{-1}(t) is the sum of n x n
    # products it replaced within the bound, with the same admission
    cr, spec, es = structure(case)
    n = cr.n
    m = np.random.default_rng(100 + n).standard_normal((n, n))
    initial = (np.zeros((n, n)), 0.5 * (m + m.T))
    extended = gs.eigen_structure(cr.poly, spec).to_extended()
    for h in (gs.horizon(es, 1.0), gs.horizon(extended, 1.0), gs.horizon(es, 0.25)):
        cap = CONDITION_CAPS[np.finfo(h.expm_transpose.dtype).nmant + 1]
        s = h.structure
        abs_exp = np.abs(h.expm_transpose)
        for p0 in map(gs.InitialCondition, initial):
            g_inv, term_scale = normalization_rank_one_each(h, p0)
            condition = normalization_condition(g_inv, term_scale)
            g_product, product_scale = normalization_each(h, p0)
            scale = sum(np.abs(h.weights[i]) * np.abs(s.left[i]).max()
                        * (np.abs(s.right[i]) @ abs_exp).max() for i in range(n))
            if np.any(p0.matrix):
                abs_initial = np.abs(p0.matrix) @ abs_exp
                scale += sum(np.abs(s.mirrors[i] * h.weights[i])
                             * np.abs(s.left[i]).max() * (np.abs(s.left[i]) @ abs_initial).max()
                             for i in range(n))
            assert_within(g_inv, g_product, scale, f"normalization at {h.t}")
            admitted = condition <= cap
            assert admitted == (normalization_condition(g_product, product_scale) <= cap)
            if not admitted:
                with pytest.raises(gs.ConditioningError) as refusal:
                    gs.finite_inverse(h, p0)
                assert refusal.value.condition == condition
                continue
            got_condition, inv_t = gs.finite_inverse(h, p0)
            assert got_condition == condition
            want = finite_inverse_rank_one_each(s, g_inv)
            assert inv_t.keys == tuple(want)
            for got, component in zip(inv_t.stack, want.values()):
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
                for i, raw in components(component_set).items()]
        assert_bitwise(_component_residuals(component_set, cr.a_c, spec, side), np.array(want))
