"""The stacked checks of ``verify`` against the per-component loops they
replaced, bit for bit: the zero-plaid defects, the orthogonality
certificate, the energy quadratic forms and the pair-partition row sums,
each on its own and as the values of the verify report.

The documents are the 40 analyze_ladder documents (n = 3..16) of the
benchmark catalogue and random char_poly documents at n = 1..16, stable and
not; every set is built from the structure that verify resolves.
"""

import os
import sys

import numpy as np
import pytest

import gramspec as gs
from gramspec.cli import cmd_verify, resolve_document
from gramspec.energy import _real_quadratic_forms

from conftest import assert_bitwise, random_companion
from references import (
    components,
    orthogonality_each,
    pair_partition_each,
    real_quadratic_form_each,
    zero_plaid_defect_each,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import generate  # noqa: E402

LADDER = [item["doc"] for round_ in generate.catalogue("analyze_ladder") for item in round_]
RANDOM = [(n, stable) for n in range(1, 17) for stable in (True, False)]
CASES = [f"ladder{k}-n{len(doc['char_poly']) - 1}" for k, doc in enumerate(LADDER)] + [
    f"random-n{n}-{'stable' if stable else 'mixed'}" for n, stable in RANDOM
]
_RESOLVED: dict = {}


def resolved(case: str):
    """(document, resolved system) of a case, resolved as verify does."""
    if case not in _RESOLVED:
        if case.startswith("ladder"):
            doc = gs.parse_system(LADDER[CASES.index(case)])
            system = resolve_document(doc, gs.Tolerances())
        else:
            n, stable = RANDOM[CASES.index(case) - len(LADDER)]
            rng = np.random.default_rng(9000 + 2 * n + stable)
            while True:  # redraw the rare spectrum that resolves multiple or unsolvable
                poly, _, _ = random_companion(
                    rng, n, re_range=(-5.0, -0.1) if stable else (-3.0, 3.0))
                doc = gs.parse_system({"schema": 1, "char_poly": poly.coeffs.tolist()})
                system = resolve_document(doc, gs.Tolerances())
                if system.structure is not None:
                    break
        _RESOLVED[case] = (doc, system)
    return _RESOLVED[case]


def outcome(f, *args):
    """f(*args), or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def forms_each(x0, stack):
    return outcome(lambda: np.array([real_quadratic_form_each(x0, m) for m in stack]))


def assert_same_outcome(got, want, what: str = ""):
    if isinstance(want, str):
        assert got == want, what
    else:
        assert_bitwise(got, want, what)


@pytest.mark.parametrize("case", CASES)
def test_zero_plaid_defect(case):
    es = resolved(case)[1].structure
    for component_set in (gs.infinite_subgramians(es), gs.inverse_eigenparts(es)):
        symmetrized = component_set.symmetrized()
        for stack in (symmetrized.merged_real().stack, symmetrized.stack, component_set.stack):
            each = np.array([zero_plaid_defect_each(m) for m in stack])
            assert_bitwise(np.array(gs.zero_plaid_defect(stack)), each.max(axis=0))
            assert_bitwise(np.array(gs.zero_plaid_defect(stack[-1])), each[-1])


@pytest.mark.parametrize("case", CASES)
def test_orthogonality_certificate(case):
    system = resolved(case)[1]
    extended = gs.eigen_structure(system.poly, system.spectrum).to_extended()
    for es in (system.structure, extended):
        gram, inv = gs.infinite_subgramians(es), gs.inverse_eigenparts(es)
        assert_bitwise(np.float64(gs.orthogonality_certificate(es, gram, inv)),
                       np.float64(orthogonality_each(es, gram, inv)))


@pytest.mark.parametrize("case", CASES)
def test_quadratic_forms(case):
    doc, system = resolved(case)
    es, n = system.structure, doc.n
    x0 = np.random.default_rng(n).standard_normal(n)
    inv = gs.inverse_eigenparts(es).symmetrized()
    inv_pairs = gs.inverse_pair_parts(es).symmetrized()
    extended = gs.inverse_eigenparts(
        gs.eigen_structure(system.poly, system.spectrum).to_extended()).symmetrized()
    stacks = [inv.stack, inv_pairs.stack, inv.total()[None], extended.stack, extended.total()[None]]
    for stack in stacks:
        assert_same_outcome(outcome(_real_quadratic_forms, x0, stack), forms_each(x0, stack))
    linear = forms_each(x0, inv.stack)
    quadratic = forms_each(x0, inv_pairs.stack)
    total = forms_each(x0, inv.total()[None])
    partition = outcome(gs.energy_partition, x0, inv, inv_pairs)
    if isinstance(partition, str):
        assert partition == next(x for x in (linear, quadratic, total) if isinstance(x, str))
    else:
        k = len(inv.keys)
        assert_bitwise(partition.linear, linear)
        assert_bitwise(partition.quadratic, quadratic.reshape(k, k))
        assert_bitwise(np.float64(partition.total), total[0])
        assert_bitwise(np.float64(gs.min_energy(x0, inv)), total[0])


@pytest.mark.parametrize("case", [c for c in CASES if "mixed" not in c])
def test_overlap_closed_forms(case):
    # the closed forms x_0^T P^{-1} P_ij P^{-1} x_0 of the modal overlap
    # integrals, as one stacked form over the pair Gramian set
    doc, system = resolved(case)
    es, n = system.structure, doc.n
    x0 = np.random.default_rng(n).standard_normal(n)
    w = (gs.inverse_eigenparts(es).total() @ x0).real
    stack = gs.infinite_pair_subgramians(es).symmetrized().stack
    assert_same_outcome(outcome(_real_quadratic_forms, w, stack), forms_each(w, stack))


@pytest.mark.parametrize("case", CASES)
def test_verify_check_values(case, monkeypatch):
    # the report's values of the rewritten checks, recomputed by the loops;
    # none reads the Kronecker oracle, which refuses the n >= 12 documents,
    # so an identity stands in for its solution
    monkeypatch.setattr(gs.oracle, "solve_lyapunov_dense",
                        lambda a, q, operator=None: np.eye(len(a)))
    doc, system = resolved(case)
    es, n = system.structure, doc.n
    gram, inv = gs.infinite_subgramians(es), gs.inverse_eigenparts(es)
    gram_merged = gram.symmetrized().merged_real().stack
    plaid = np.array([zero_plaid_defect_each(m) for m in gram_merged]).max(axis=0)
    inv_plaid = max(zero_plaid_defect_each(m, alternation=False)[0]
                    for m in inv.symmetrized().merged_real().stack)
    rng = np.random.default_rng(0)
    rng.standard_normal((n, n))  # the probe initial condition comes first
    x0 = rng.standard_normal(n)
    inv_sym, inv_pairs = inv.symmetrized(), gs.inverse_pair_parts(es).symmetrized()
    linear = np.array([real_quadratic_form_each(x0, components(inv_sym)[i]) for i in range(n)])
    quadratic = np.array([[real_quadratic_form_each(x0, components(inv_pairs)[(i, j)])
                           for j in range(n)] for i in range(n)])
    total = real_quadratic_form_each(x0, inv_sym.total())
    closure = max(abs(np.sum(linear) - total), abs(np.sum(quadratic) - total)) / max(1.0, abs(total))
    want = {
        "zero_plaid_zeros": plaid[0],
        "zero_plaid_alternation": plaid[1],
        "inverse_zero_plaid_zeros": inv_plaid,
        "pair_partition": pair_partition_each(gs.infinite_pair_subgramians(es).symmetrized(),
                                              gram.symmetrized()),
        "orthogonality": orthogonality_each(es, gram, inv),
        "energy_partition_closure": closure,
    }
    got = {check["name"]: check["value"] for check in cmd_verify(doc)["checks"]}
    for name, value in want.items():
        assert_bitwise(np.float64(got[name]), np.float64(value), name)


def test_quadratic_form_refusals_in_order():
    # the first form that is not real refuses, in the order linear, pair, total
    x0 = np.array([1.0, 2.0])
    real = np.eye(2, dtype=complex)
    upper, lower = np.array([[0, 1j], [0, 0]]), np.array([[0, 0], [3j, 0]])
    stack = np.array([real, real + upper, real + lower])
    assert outcome(_real_quadratic_forms, x0, stack) == forms_each(x0, stack)
    assert "2.000e+00" in forms_each(x0, stack)

    # the last eigen components cancel: each form is real within its own
    # scale, and the total's, 5 + 2i, is not
    cancelling = [1e10 * real + upper, (1 - 1e10) * real]
    for eigen, pairs in (([real, real + lower], [real, real + upper, real, real]),
                         ([real, real], [real, real + upper, real + lower, real]),
                         (cancelling, [real] * 4)):
        inv = gs.SpectralComponentSet((0, 1), np.array(eigen), "eigen", "symmetrized")
        inv_pairs = gs.SpectralComponentSet(((0, 0), (0, 1), (1, 0), (1, 1)), np.array(pairs),
                                            "pair", "symmetrized")
        want = next(x for x in (forms_each(x0, inv.stack), forms_each(x0, inv_pairs.stack),
                                forms_each(x0, inv.total()[None])) if isinstance(x, str))
        assert outcome(gs.energy_partition, x0, inv, inv_pairs) == want
