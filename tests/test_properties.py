"""Property tests over random spectra inside the stated accuracy envelope:
stable, conjugate-closed, simple, degree 2..6, pairwise separation at least
0.3, real parts in [-5, -0.5] and imaginary parts up to 3 (the spectra of
the benchmark catalogue, bench/generate.py).

Each drawn spectrum is turned into its monic polynomial, whose roots are
found and clustered as the command line does; every identity below is then
checked on components built from that one eigen structure.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, assume, given, settings
from hypothesis import strategies as st

import gramspec as gs

from references import components

SEPARATION = 0.3
PROPERTY_SETTINGS = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    database=None,
    phases=(Phase.generate, Phase.shrink),
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@st.composite
def envelope_spectra(draw):
    """A stable, conjugate-closed simple spectrum of degree 2..6 with
    pairwise separation >= SEPARATION."""
    n = draw(st.integers(2, 6))
    values = []
    while len(values) < n:
        re = draw(st.floats(-5.0, -0.5))
        if n - len(values) >= 2 and draw(st.booleans()):
            im = draw(st.floats(SEPARATION / 2, 3.0))
            values += [complex(re, im), complex(re, -im)]
        else:
            values.append(complex(re, 0.0))
    values = np.array(values)
    gaps = np.abs(values[:, None] - values[None, :]) + np.diag(np.full(n, np.inf))
    assume(gaps.min() >= SEPARATION)
    return values


def structure_of(values):
    poly = gs.poly_from_roots(values)
    spec = gs.cluster(gs.find_roots(poly))
    assume(spec.is_simple and spec.n == values.size)
    return gs.eigen_structure(poly, spec)


@pytest.mark.xfail(
    strict=True,
    reason="pair components cancel in their row sums: on {-2+-0.5i, -3+-0.3i, -3} the "
    "closure is 5.9e-9, and verify's pair_partition check fails alike; compensated "
    "pair components (ROADMAP item 1, step 2) are the fix",
)
@PROPERTY_SETTINGS
@given(envelope_spectra())
def test_pair_rows_sum_to_eigen_components(values):
    es = structure_of(values)
    eigen = gs.infinite_subgramians(es).symmetrized()
    pairs = gs.infinite_pair_subgramians(es).symmetrized()
    k = values.size
    for i in range(k):
        row = sum(components(pairs)[(i, j)] for j in range(k))
        scale = max(1.0, float(np.max(np.abs(components(eigen)[i]))))
        assert np.max(np.abs(row - components(eigen)[i])) <= 1e-9 * scale


@PROPERTY_SETTINGS
@given(envelope_spectra())
def test_residues_sum_to_identity(values):
    residues = structure_of(values).residues
    scale = max(1.0, float(np.max(np.abs(residues))))
    assert np.max(np.abs(sum(residues) - np.eye(values.size))) <= 1e-9 * scale


@PROPERTY_SETTINGS
@given(envelope_spectra())
def test_gramian_and_inverse_eigenparts_orthogonal(values):
    es = structure_of(values)
    worst = gs.orthogonality_certificate(
        es, gs.infinite_subgramians(es), gs.inverse_eigenparts(es)
    )
    assert worst <= 1e-8


@PROPERTY_SETTINGS
@given(envelope_spectra())
def test_conjugate_orbits_merge_to_real_components(values):
    es = structure_of(values)
    builders = (gs.infinite_subgramians, gs.infinite_pair_subgramians,
                gs.inverse_eigenparts, gs.inverse_pair_parts)
    for build in builders:
        merged = build(es).symmetrized().merged_real()
        for part in components(merged).values():
            assert np.isrealobj(part) and np.all(np.isfinite(part))
