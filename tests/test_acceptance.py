"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Fixture matrices are the exact rationals of the worked examples; randomized
criteria use fixed seeds.  Tolerances are stated inline and are relative
unless a criterion is a pure identity check.
"""

import time

import numpy as np

import gramspec as gs
from gramspec.gramians import hermitian_part

from conftest import random_companion, random_stable_eigenvalues
from references import inverse_eigenpart_counted


def report(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def rel(got, expected):
    got = np.asarray(got)
    expected = np.asarray(expected, dtype=complex)
    scale = max(np.max(np.abs(expected)), 1e-300)
    return float(np.max(np.abs(got - expected)) / scale)


EX1_EIGEN = {
    0: (-1 / 48) * np.array([[1, 0, 1], [0, -1, 0], [1, 0, 1]], dtype=float),
    1: (1 / 60) * np.array([[1, 0, 4], [0, -4, 0], [4, 0, 16]], dtype=float),
    2: (-1 / 240) * np.array([[1, 0, 9], [0, -9, 0], [9, 0, 81]], dtype=float),
}
EX1_SUM = (-1 / 120) * np.array([[1, 0, -1], [0, 1, 0], [-1, 0, 11]], dtype=float)
EX1_PAIRS = {
    (0, 0): (-1 / 8) * np.ones((3, 3)),
    (0, 1): (1 / 12) * np.array([[2, 3, 5], [3, 4, 6], [5, 6, 8]], dtype=float),
    (0, 2): (-1 / 16) * np.array([[1, 2, 5], [2, 3, 6], [5, 6, 9]], dtype=float),
    (1, 1): (-1 / 4) * np.array([[1, 2, 4], [2, 4, 8], [4, 8, 16]], dtype=float),
    (1, 2): (1 / 20) * np.array([[2, 5, 13], [5, 12, 30], [13, 30, 72]], dtype=float),
    (2, 2): (-1 / 24) * np.array([[1, 3, 9], [3, 9, 27], [9, 27, 81]], dtype=float),
}
EX2_RESIDUES = [
    0.5 * np.array([[6, -5, 1], [6, -5, 1], [6, -5, 1]], dtype=float),
    np.array([[-3, 4, -1], [-6, 8, -2], [-12, 16, -4]], dtype=float),
    0.5 * np.array([[2, -3, 1], [6, -9, 3], [18, -27, 9]], dtype=float),
]
EX3_EIGEN = {
    0: 12 * np.array([[-36, 0, -6], [0, 25, 0], [-6, 0, -1]], dtype=float),
    1: 60 * np.array([[9, 0, 3], [0, -16, 0], [3, 0, 1]], dtype=float),
    2: 60 * np.array([[-4, 0, -2], [0, 9, 0], [-2, 0, -1]], dtype=float),
}
EX3_SUM = -12 * np.array([[11, 0, 1], [0, 10, 0], [1, 0, 1]], dtype=float)
EX3_PAIRS = {
    (0, 0): -72 * np.array([[36, -30, 6], [-30, 25, -5], [6, -5, 1]], dtype=float),
    (0, 1): 120 * np.array([[36, -39, 9], [-39, 40, -9], [9, -9, 2]], dtype=float),
    (0, 2): -180 * np.array([[12, -14, 4], [-14, 15, -4], [4, -4, 1]], dtype=float),
    (1, 1): -900 * np.array([[9, -12, 3], [-12, 16, -4], [3, -4, 1]], dtype=float),
    (1, 2): 360 * np.array([[12, -17, 5], [-17, 24, -7], [5, -7, 2]], dtype=float),
    (2, 2): -600 * np.array([[4, -6, 2], [-6, 9, -3], [2, -3, 1]], dtype=float),
}
EX4_RAW_GRAM = [
    (1 / 48) * np.array([[-1, 1, -1], [-1, 1, -1], [-1, 1, -1]], dtype=float),
    (1 / 60) * np.array([[1, -2, 4], [2, -4, 8], [4, -8, 16]], dtype=float),
    (1 / 240) * np.array([[-1, 3, -9], [-3, 9, -27], [-9, 27, -81]], dtype=float),
]
EX4_RAW_INV = [
    12 * np.array([[-36, 30, -6], [-30, 25, -5], [-6, 5, -1]], dtype=float),
    60 * np.array([[9, -12, 3], [12, -16, 4], [3, -4, 1]], dtype=float),
    60 * np.array([[-4, 6, -2], [-6, 9, -3], [-2, 3, -1]], dtype=float),
]
EX5_MODAL = np.array(
    [
        [1, 1, 1, 0.5, 0.25],
        [1, 2, 2, 2, 1],
        [1, 3, 4, 6, 4],
        [1, 4, 8, 16, 14],
        [1, 5, 16, 40, 44],
    ],
    dtype=float,
)
EX5_MODAL_INV = np.array(
    [
        [-8, 28, -30, 13, -2],
        [-8, 20, -18, 7, -1],
        [22, -62.5, 63, -26.5, 4],
        [-12, 35, -36.5, 16, -2.5],
        [4, -12, 13, -6, 1],
    ],
    dtype=float,
)
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
EX5_INV_1 = 108 * np.array(
    [
        [192, 0, 528, 0, 32],
        [0, -1520, 0, -596, 0],
        [528, 0, 1404, 0, 84],
        [0, -596, 0, -231, 0],
        [32, 0, 84, 0, 5],
    ],
    dtype=float,
)


def test_criterion_1_example1_subgramians(example1):
    start = time.perf_counter()
    _, cr, spec = example1
    es = gs.eigen_structure(cr.poly, spec)
    eigen = gs.infinite_subgramians(es).symmetrized()
    pairs = gs.infinite_pair_subgramians(es).symmetrized()
    errors = [rel(eigen.components[i], EX1_EIGEN[i]) for i in range(3)]
    errors.append(rel(eigen.total(), EX1_SUM))
    for (i, j), expected in EX1_PAIRS.items():
        errors.append(rel(pairs.components[(i, j)], expected))
        errors.append(rel(pairs.components[(j, i)], expected))
    errors.append(rel(pairs.total(), EX1_SUM))
    elapsed = time.perf_counter() - start
    worst = max(errors)
    report(
        1,
        worst <= 1e-10 and elapsed < 1.0,
        f"eigen + 9 pair sub-Gramians and sums match rationals "
        f"(worst {worst:.2e} <= 1e-10, {elapsed:.3f} s < 1 s)",
    )


def test_criterion_2_example2_finite_expansion(example1):
    poly, cr, spec = example1
    es = gs.eigen_structure(cr.poly, spec)
    at_t = gs.finite_pair_subgramians(gs.infinite_pair_subgramians(es), 0.5)
    groups = {}
    for (i, j), part in at_t.symmetrized().components.items():
        s = float((spec.values[i] + np.conj(spec.values[j])).real)  # real spectrum
        static = part / (1.0 - np.exp(s * 0.5))  # the coefficient of (1 - e^{st})
        rate = int(round(s))
        groups[rate] = groups.get(rate, 0.0) + static
    expected_groups = {
        2: EX1_PAIRS[(0, 0)],
        3: 2 * EX1_PAIRS[(0, 1)],
        4: EX1_PAIRS[(1, 1)] + 2 * EX1_PAIRS[(0, 2)],
        5: 2 * EX1_PAIRS[(1, 2)],
        6: EX1_PAIRS[(2, 2)],
    }
    errors = [rel(groups[k], expected_groups[k]) for k in expected_groups]
    residues = gs.eigen_structure(poly, spec).residues
    errors += [rel(residues[i], EX2_RESIDUES[i]) for i in range(3)]
    worst = max(errors)
    report(
        2,
        worst <= 1e-10,
        f"pair-spectrum groupings at e^2t..e^6t and residues match (worst {worst:.2e} <= 1e-10)",
    )


def test_criterion_3_example3_inverse(example1):
    _, cr, spec = example1
    es = gs.eigen_structure(cr.poly, spec)
    gram = gs.infinite_subgramians(es)
    inv = gs.inverse_eigenparts(es)
    pairs = gs.inverse_pair_parts(es)
    inv_sym, pairs_sym = inv.symmetrized(), pairs.symmetrized()
    errors = [rel(inv_sym.total(), EX3_SUM)]
    errors += [rel(inv_sym.components[i], EX3_EIGEN[i]) for i in range(3)]
    for (i, j), expected in EX3_PAIRS.items():
        errors.append(rel(pairs_sym.components[(i, j)], expected))
        errors.append(rel(pairs_sym.components[(j, i)], expected))
    residues = gs.eigen_structure(cr.poly, spec).residues
    ortho = 0.0
    scale = max(np.max(np.abs(r)) for r in residues)
    for i in range(3):
        for j in range(3):
            product = gram.components[i] @ inv.components[j]
            expected = residues[i] if i == j else 0.0
            ortho = max(ortho, np.max(np.abs(product - expected)) / scale)
    worst = max(errors)
    report(
        3,
        worst <= 1e-10 and ortho <= 1e-10,
        f"inverse eigen/pair parts match rationals (worst {worst:.2e} <= 1e-10), "
        f"orthogonality products delta_ij R_i (defect {ortho:.2e} <= 1e-10)",
    )


def test_criterion_4_example4_product_identity(example1):
    _, cr, spec = example1
    es = gs.eigen_structure(cr.poly, spec)
    gram = gs.infinite_subgramians(es)
    inv = gs.inverse_eigenparts(es)
    errors = [rel(gram.components[i], EX4_RAW_GRAM[i]) for i in range(3)]
    errors += [rel(inv.components[i], EX4_RAW_INV[i]) for i in range(3)]
    worst = max(errors)
    # the n=3 unstable system at t=5 spans e^10..e^30; the closed forms are
    # evaluated in extended precision so the product identity is resolvable
    p0 = gs.InitialCondition(np.zeros((3, 3)))
    product_defect = 0.0
    es_extended = gs.eigen_structure(cr.poly, spec).to_extended()
    for t in (0.1, 1.0, 5.0):
        h = gs.horizon(es_extended, t)
        _, inv_t = gs.finite_inverse(h, p0)
        gram_t = gs.finite_subgramians(h).at_t.total()
        eye = np.eye(3, dtype=np.clongdouble)
        product_defect = max(
            product_defect, float(np.max(np.abs(inv_t.total() @ gram_t - eye)))
        )
    report(
        4,
        worst <= 1e-10 and product_defect <= 1e-6,
        f"raw components match (worst {worst:.2e}), P^-1(t) P(t) = I at t in "
        f"{{0.1, 1, 5}} (defect {product_defect:.2e} <= 1e-6)",
    )


def test_criterion_5_example5_multiple_eigenvalues(example5):
    poly, _, spec = example5
    chains = gs.jordan_chains_companion(spec, poly)
    errors = [
        rel(chains.modal, EX5_MODAL),
        rel(chains.modal_inverse, EX5_MODAL_INV),
        rel(chains.blocks[0].toeplitz, [[108, 0], [324, 108]]),
        rel(chains.blocks[0].hankel, [[-2, -1], [-1, 0]]),
        rel(chains.c_row, [16, 0, 76, 0, 16]),
    ]
    gram = gs.multiple_eig_gramian(chains)
    errors.append(rel(gram.static.total(), EX5_SUM))
    inv = gs.inverse_multiple_eig(chains)
    errors.append(rel(inv.symmetrized().components[0], EX5_INV_1))
    product = inv.total().real @ gram.static.total().real
    errors.append(float(np.max(np.abs(product - np.eye(5)))))
    worst = max(errors)
    report(
        5,
        worst <= 1e-8,
        f"M, M^-1, T_1, H_1, P_C, inverse eigenpart and product identity "
        f"(worst {worst:.2e} <= 1e-8, c_3 = 76)",
    )


def test_criterion_6_randomized_oracle_equivalence():
    # eigenvalues in [-5,-0.1] x [-3,3]i with pairwise separation >= 0.1;
    # the companion spectrum is re-derived from the rounded coefficients.
    # Nearly degenerate draws make the spectral components exceed their sum
    # by ~1e12, so the infinite-horizon sums are the extended structure's
    # exact totals, taken from the coefficients
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_static = worst_inverse = worst_finite = 0.0
    for trial in range(200):
        n = 2 + trial % 7
        values = random_stable_eigenvalues(rng, n, separation=0.1)
        poly = gs.poly_from_roots(values)
        cr = gs.build_companion(poly)
        spec = gs.cluster(gs.find_roots(poly))
        bbt = np.outer(cr.b_c, cr.b_c)
        reference = gs.solve_lyapunov_dense(cr.a_c, bbt)
        es = gs.eigen_structure(poly, spec).to_extended()
        static, inv_total = (hermitian_part(total).real.astype(float)
                             for total in es.exact_totals)
        worst_static = max(
            worst_static, np.linalg.norm(static - reference) / np.linalg.norm(reference)
        )
        inv_reference = np.linalg.inv(reference)
        worst_inverse = max(
            worst_inverse,
            np.linalg.norm(inv_total - inv_reference) / np.linalg.norm(inv_reference),
        )
        for t, steps in ((0.1, 300), (1.0, 1200)):
            closed = gs.finite_subgramians(gs.horizon(es, t)).at_t.total().real.astype(float)
            rk4 = gs.integrate_lyapunov(cr.a_c, bbt, np.zeros((n, n)), t, steps=steps)
            worst_finite = max(
                worst_finite,
                np.linalg.norm(closed - rk4) / max(1.0, np.linalg.norm(rk4)),
            )
    elapsed = time.perf_counter() - start
    report(
        6,
        worst_static <= 1e-8
        and worst_inverse <= 1e-7
        and worst_finite <= 1e-6
        and elapsed < 60.0,
        f"200 random systems n=2..8: static {worst_static:.2e} <= 1e-8, inverse "
        f"{worst_inverse:.2e} <= 1e-7, finite {worst_finite:.2e} <= 1e-6, "
        f"{elapsed:.1f} s < 60 s",
    )


def test_criterion_7_multi_input_lifting():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(50):
        _, cr, spec = random_companion(rng, 4, separation=0.15)
        basis = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
        a = basis @ cr.a_c @ np.linalg.inv(basis)
        b = rng.standard_normal((4, 2))
        sys = gs.LtiSystem(a, b)
        gram = gs.infinite_subgramians(gs.eigen_structure(cr.poly, spec))
        transform = gs.similarity_transform(sys, gs.char_poly(sys.a))
        lifted = gs.lift_to_original(gram, transform).real
        reference = gs.solve_lyapunov_dense(a, b @ b.T)
        worst = max(
            worst, np.linalg.norm(lifted - reference) / max(1.0, np.linalg.norm(reference))
        )
    report(
        7,
        worst <= 1e-7,
        f"50 random n=4 m=2 systems: lifted sum vs Kronecker oracle "
        f"(worst {worst:.2e} <= 1e-7)",
    )


def test_criterion_8_energy_consistency():
    # the fixed 4e4-point trapezoid grid resolves decay rates up to a few
    # per unit time; the stable band is drawn accordingly
    rng = np.random.default_rng(888)
    worst_quad = worst_closure = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        _, cr, spec = random_companion(
            rng, n, separation=0.2, re_range=(-1.5, -0.25), im_max=1.5
        )
        es = gs.eigen_structure(cr.poly, spec)
        inv = gs.inverse_eigenparts(es)
        x0 = rng.standard_normal(n)
        e_min = gs.min_energy(x0, inv)
        signal = gs.optimal_control(x0, es, inv)
        quadrature = gs.control_energy_quadrature(signal)
        worst_quad = max(worst_quad, abs(e_min - quadrature) / max(1.0, abs(e_min)))
        part = gs.energy_partition(x0, inv, gs.inverse_pair_parts(es))
        closure = max(
            abs(np.sum(part.linear) - part.total), abs(np.sum(part.quadratic) - part.total)
        ) / max(1.0, abs(part.total))
        worst_closure = max(worst_closure, closure)
    report(
        8,
        worst_quad <= 1e-4 and worst_closure <= 1e-9,
        f"20 random stable systems: E_min vs quadrature {worst_quad:.2e} <= 1e-4, "
        f"partition closure {worst_closure:.2e} <= 1e-9",
    )


def _random_jordan_spectrum(rng):
    """Stable spectrum with n <= 6, at least one multiplicity >= 2 (max 3)."""
    while True:
        mults = []
        total = 0
        while total < 6:
            m = int(rng.integers(1, 4))
            if total + m > 6:
                m = 6 - total
            mults.append(m)
            total += m
            if rng.random() < 0.4 and total >= 3:
                break
        if max(mults) < 2:
            continue
        k = len(mults)
        values = -rng.uniform(0.3, 3.0, k)
        diffs = np.abs(np.subtract.outer(values, values))
        np.fill_diagonal(diffs, np.inf)
        if k == 1 or diffs.min() >= 0.5:
            return gs.Spectrum(np.sort(values), mults)


def test_criterion_9_multiple_eigenvalue_path():
    rng = np.random.default_rng(999)
    worst_gram = worst_inv = 0.0
    for _ in range(20):
        spec = _random_jordan_spectrum(rng)
        poly = gs.poly_from_roots(spec.expanded())
        cr = gs.build_companion(poly)
        bbt = np.outer(cr.b_c, cr.b_c)
        reference = gs.solve_lyapunov_dense(cr.a_c, bbt)
        chains = gs.jordan_chains_companion(spec, poly)
        gram = gs.multiple_eig_gramian(chains).static.total().real
        worst_gram = max(
            worst_gram, np.linalg.norm(gram - reference) / np.linalg.norm(reference)
        )
        inv_total = gs.inverse_multiple_eig(chains).symmetrized().total().real
        inv_reference = np.linalg.inv(reference)
        worst_inv = max(
            worst_inv,
            np.linalg.norm(inv_total - inv_reference) / np.linalg.norm(inv_reference),
        )
    # reduction: simple spectra through the multiple-eigenvalue path
    worst_reduction = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        _, cr, spec = random_companion(rng, n)
        chains = gs.jordan_chains_companion(spec, cr.poly)
        via_multiple = gs.multiple_eig_gramian(chains).static.total()
        via_simple = gs.infinite_subgramians(gs.eigen_structure(cr.poly, spec)).total()
        worst_reduction = max(
            worst_reduction,
            np.max(np.abs(via_multiple - via_simple))
            / max(1.0, np.max(np.abs(via_simple))),
        )
    report(
        9,
        worst_gram <= 1e-7 and worst_inv <= 1e-7 and worst_reduction <= 1e-8,
        f"20 Jordan systems vs oracle: gramian {worst_gram:.2e}, inverse "
        f"{worst_inv:.2e} (<= 1e-7); simple-spectrum reduction "
        f"{worst_reduction:.2e} <= 1e-8",
    )


def test_criterion_10_structural_properties():
    rng = np.random.default_rng(1010)
    worst_plaid = worst_inv_plaid = worst_alt = 0.0
    worst_psd = worst_inv_psd = 0.0
    for n in (3, 4, 5, 6, 7, 8):
        _, cr, spec = random_companion(rng, n)
        es = gs.eigen_structure(cr.poly, spec)
        merged = gs.infinite_subgramians(es).symmetrized().merged_real()
        for part in merged.components.values():
            odd, alt = gs.zero_plaid_defect(part)
            worst_plaid = max(worst_plaid, odd)
            worst_alt = max(worst_alt, alt)
        inv_merged = gs.inverse_eigenparts(es).symmetrized().merged_real()
        for part in inv_merged.components.values():
            odd, _ = gs.zero_plaid_defect(part)
            worst_inv_plaid = max(worst_inv_plaid, odd)
        pairs = gs.infinite_pair_subgramians(es).symmetrized()
        inv_pairs = gs.inverse_pair_parts(es).symmetrized()
        for i in range(n):
            part = pairs.components[(i, i)]
            worst_psd = max(
                worst_psd,
                -np.linalg.eigvalsh(part).min() / max(1.0, np.max(np.abs(part))),
            )
            inv_part = inv_pairs.components[(i, i)]
            worst_inv_psd = max(
                worst_inv_psd,
                -np.linalg.eigvalsh(inv_part).min() / max(1.0, np.max(np.abs(inv_part))),
            )
    counts = {}
    for n in (4, 8, 16, 32):
        poly = gs.poly_from_roots(np.linspace(-1.0, -4.0, n))
        _, counts[n] = inverse_eigenpart_counted(poly, -1.0)
    growth_ok = all(counts[n] <= 4 * n * n + 20 * n + 20 for n in counts) and (
        counts[32] <= 4.6 * counts[16]
    )
    report(
        10,
        worst_plaid <= 1e-10
        and worst_alt <= 1e-10
        and worst_inv_plaid <= 1e-10
        and worst_psd <= 1e-10
        and worst_inv_psd <= 1e-10
        and growth_ok,
        f"zero-plaid (gramian {worst_plaid:.2e}, alternation {worst_alt:.2e}, "
        f"inverse {worst_inv_plaid:.2e} <= 1e-10), diagonal-pair PSD "
        f"(gramian {worst_psd:.2e}, inverse {worst_inv_psd:.2e}), "
        f"op counts {counts} grow as O(n^2)",
    )
