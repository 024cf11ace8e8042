"""Records are read-only, and those with array fields compare and hash by
identity.

Value equality would compare their ndarray fields and raise (ambiguous truth
value), and a value hash would hash them and raise too; ``Record`` keeps
``object``'s methods.  The scalar records (``ValueRecord``) keep their value
equality.  Every record rejects assignment and deletion once built, rebuilds
through its own checks in ``_replace``, and still copies and caches.
"""

import copy

import numpy as np
import pytest

import gramspec as gs
from gramspec.cli import resolve_document
from gramspec.errors import Record, ValueRecord

SCALAR_RECORDS = {gs.Tolerances, gs.SolvabilityReport}


def _records() -> dict:
    """One instance of every record type with array fields, by type."""
    poly = gs.Polynomial([6.0, 11.0, 6.0, 1.0])
    spec = gs.cluster(gs.find_roots(poly))
    cr = gs.build_companion(poly)
    es = gs.eigen_structure(poly, spec)
    h = gs.horizon(es, 1.0)
    inv = gs.inverse_eigenparts(es)
    chains = gs.jordan_chains_companion(gs.Spectrum([-1.0, -2.0], [2, 1]),
                                        gs.poly_from_roots([-1.0, -1.0, -2.0]))
    x0 = [1.0, 0.0, 0.0]
    doc = gs.parse_system({"char_poly": poly.coeffs.tolist()})
    records = [
        poly, spec, cr.system(), cr, gs.similarity_transform(cr.system(), poly), es,
        chains.blocks[0], chains, inv, gs.InitialCondition(np.eye(3)), h,
        gs.finite_subgramians(h), gs.energy_partition(x0, inv, gs.inverse_pair_parts(es)),
        gs.optimal_control(x0, es, inv),
        doc, resolve_document(doc, gs.Tolerances()),
    ]
    return {type(x): x for x in records}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _package_records() -> set:
    """Every record type of the package (building RECORDS loads every module)."""
    package = {t for t in _subclasses(Record) if t.__module__.startswith("gramspec.")}
    return package - {ValueRecord}


RECORDS = _records()
_es = RECORDS[gs.EigenStructure]
ALL_RECORDS = {
    **RECORDS,
    gs.Tolerances: gs.Tolerances(),
    gs.SolvabilityReport: _es.solvability,
}


def _same(a, b) -> bool:
    return a is b or np.array_equal(a, b)


def test_every_array_record_is_covered():
    identity = {t for t in _package_records() if not issubclass(t, ValueRecord)}
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
    assert gs.SolvabilityReport(False, [(0, 1)], 0.5) == gs.SolvabilityReport(False, [(0, 1)], 0.5)
    assert gs.Tolerances() != gs.Tolerances(root=1e-10)
    assert repr(gs.Tolerances()) == "Tolerances(root=1e-12, cluster=1e-08, solvability=1e-10)"


@pytest.mark.parametrize("kind", sorted(ALL_RECORDS, key=lambda t: t.__name__),
                         ids=lambda t: t.__name__)
def test_read_only(kind):
    x = ALL_RECORDS[kind]
    field = kind._fields[0]
    value = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, None)
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert getattr(x, field) is value and not hasattr(x, "extra")


@pytest.mark.parametrize("kind", sorted(ALL_RECORDS, key=lambda t: t.__name__),
                         ids=lambda t: t.__name__)
def test_replace_and_copy_keep_the_fields(kind):
    x = ALL_RECORDS[kind]
    for other in (x._replace(), copy.copy(x)):
        assert type(other) is kind and other is not x
        assert all(_same(getattr(other, f), getattr(x, f)) for f in kind._fields)
        with pytest.raises(AttributeError):
            setattr(other, kind._fields[0], None)


INVALID_CHANGES = {
    gs.Polynomial: {"coeffs": [6.0, 11.0, 6.0, 2.0]},  # not monic
    gs.Spectrum: {"multiplicities": [1, 0, 1]},
    gs.LtiSystem: {"a": np.ones((3, 2))},
    gs.InitialCondition: {"matrix": np.triu(np.ones((3, 3)))},
    gs.SpectralComponentSet: {"keys": (0,)},
    gs.Tolerances: {"root": -1.0},
}


@pytest.mark.parametrize("kind", INVALID_CHANGES, ids=lambda t: t.__name__)
def test_replace_reruns_the_checks(kind):
    with pytest.raises(ValueError):
        ALL_RECORDS[kind]._replace(**INVALID_CHANGES[kind])


def test_replace_changes_only_the_given_fields():
    inv = RECORDS[gs.SpectralComponentSet]
    sym = inv._replace(stack=inv.stack.real, flavor="symmetrized")
    assert sym.flavor == "symmetrized" and inv.flavor == "raw"
    assert sym.keys == inv.keys and sym.poly is inv.poly and not sym.stack.flags.writeable
    assert gs.Tolerances()._replace(cluster=1e-6) == gs.Tolerances(cluster=1e-6)
    with pytest.raises(TypeError):
        gs.Tolerances()._replace(tolerance=1.0)


def test_cached_properties():
    poly = gs.Polynomial([6.0, 11.0, 6.0, 1.0])
    es = gs.eigen_structure(poly, gs.cluster(gs.find_roots(poly)))
    assert es.residues is es.residues and es.left is es.left
    assert {"left", "residues"} <= set(vars(es))
    partner = es.spectrum.conjugate_partner()
    assert partner is es.spectrum.conjugate_partner() and not partner.flags.writeable
    inv = gs.inverse_eigenparts(es)
    assert inv.symmetrized() is inv.symmetrized()
    assert copy.copy(es).residues is es.residues  # the copy carries the computed values
    with pytest.raises(AttributeError):
        es.residues = None
