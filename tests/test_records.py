"""Records with array fields compare and hash by identity.

A generated ``__eq__`` would compare their ndarray fields and raise
(ambiguous truth value), and the generated ``__hash__`` of a frozen record
would hash them and raise too; ``eq=False`` keeps ``object``'s methods.
The scalar records keep their value equality.
"""

import copy
import dataclasses
import sys

import numpy as np
import pytest

import gramspec as gs
from gramspec.cli import resolve_document

SCALAR_RECORDS = {gs.Tolerances, gs.SolvabilityReport, gs.OrthogonalityReport}


def _records() -> dict:
    """One instance of every record type with array fields, by type."""
    poly = gs.Polynomial([6.0, 11.0, 6.0, 1.0])
    spec = gs.cluster(gs.find_roots(poly))
    cr = gs.build_companion(poly)
    es = gs.eigen_structure(poly, spec)
    h = gs.horizon(es, 1.0)
    inv = gs.inverse_eigenparts(es)
    state, _ = gs.finite_inverse(h, gs.InitialCondition(np.zeros((3, 3))))
    chains = gs.jordan_chains_companion(gs.Spectrum([-1.0, -2.0], [2, 1]),
                                        gs.poly_from_roots([-1.0, -1.0, -2.0]))
    x0 = [1.0, 0.0, 0.0]
    doc = gs.parse_system({"char_poly": poly.coeffs.tolist()})
    records = [
        poly, spec, cr.system(), cr, gs.similarity_transform(cr.system(), poly), es,
        chains.blocks[0], chains, inv, gs.InitialCondition(np.eye(3)), h,
        gs.finite_subgramians(h), gs.energy_partition(x0, inv, gs.inverse_pair_parts(es)),
        gs.optimal_control(x0, es, inv),
        gs.modal_overlap_integrals(x0, gs.infinite_pair_subgramians(es), es, inv),
        doc, state, gs.solve_lyapunov_dense(cr.a_c, np.outer(cr.b_c, cr.b_c)),
        resolve_document(doc, gs.Tolerances()),
    ]
    return {type(x): x for x in records}


def _package_records() -> set:
    return {
        value
        for name, module in sys.modules.items() if name.startswith("gramspec")
        for value in vars(module).values()
        if isinstance(value, type) and dataclasses.is_dataclass(value)
        and value.__module__ == module.__name__
    }


RECORDS = _records()


def test_every_array_record_is_covered():
    identity = {t for t in _package_records() if not t.__dataclass_params__.eq}
    assert identity == set(RECORDS)
    assert _package_records() - identity == SCALAR_RECORDS


@pytest.mark.parametrize("kind", sorted(RECORDS, key=lambda t: t.__name__),
                         ids=lambda t: t.__name__)
def test_identity_equality_and_hash(kind):
    x = RECORDS[kind]
    assert x == x
    assert x != copy.copy(x)
    assert hash(x) == hash(x)
    assert repr(x).startswith(kind.__name__ + "(")


def test_scalar_records_keep_value_equality():
    assert gs.Tolerances() == gs.Tolerances() and hash(gs.Tolerances()) == hash(gs.Tolerances())
    assert gs.OrthogonalityReport(0.0, 3, True) == gs.OrthogonalityReport(0.0, 3, True)
