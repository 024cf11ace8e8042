"""Shared fixtures: the worked 3x3 and 5x5 systems, random generators and
the bitwise comparison of the stacked-versus-loop tests."""

import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

import gramspec as gs

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def child_env(**overrides) -> dict:
    """The environment of a child interpreter that imports this checkout's gramspec."""
    src = str(Path(gs.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), **overrides)


def pytest_configure(config):
    """Hypothesis files go to a temporary directory, not the working one.

    Its pytest plugin caches source constants while collecting and, after
    the session, saves a patch for the failing examples of the strict-xfail
    property; both writes read the home directory set here.
    """
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="gramspec-hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture(scope="session")
def example1():
    """Companion system with eigenvalues 1, 2, 3 (unstable)."""
    poly = gs.Polynomial([-6.0, 11.0, -6.0, 1.0])
    cr = gs.build_companion(poly)
    spec = gs.cluster(gs.find_roots(poly))
    return poly, cr, spec


@pytest.fixture(scope="session")
def example5():
    """Companion system with eigenvalue 1 (multiplicity 2) and 2 (multiplicity 3)."""
    poly = gs.Polynomial([-8.0, 28.0, -38.0, 25.0, -8.0, 1.0])
    cr = gs.build_companion(poly)
    spec = gs.Spectrum([1.0, 2.0], [2, 3])
    return poly, cr, spec


@pytest.fixture(scope="session")
def mirrored_stable():
    """Stable companion system with eigenvalues -1, -2, -3."""
    poly = gs.poly_from_roots([-1.0, -2.0, -3.0])
    cr = gs.build_companion(poly)
    spec = gs.cluster(gs.find_roots(poly))
    return poly, cr, spec


def random_stable_eigenvalues(rng, n, separation=0.1, re_range=(-5.0, -0.1), im_max=3.0):
    """Conjugate-closed stable eigenvalue set with pairwise separation."""
    while True:
        values = []
        remaining = n
        while remaining > 0:
            if remaining >= 2 and rng.random() < 0.5:
                lam = complex(rng.uniform(*re_range), rng.uniform(0.1, im_max))
                values += [lam, np.conj(lam)]
                remaining -= 2
            else:
                values.append(complex(rng.uniform(*re_range), 0.0))
                remaining -= 1
        values = np.array(values)
        diffs = np.abs(values[:, None] - values[None, :])
        np.fill_diagonal(diffs, np.inf)
        if diffs.min() >= separation:
            return values


def random_companion(rng, n, **kwargs):
    values = random_stable_eigenvalues(rng, n, **kwargs)
    poly = gs.poly_from_roots(values)
    cr = gs.build_companion(poly)
    order = np.lexsort((values.imag, np.abs(values.imag), values.real))
    spec = gs.Spectrum(values[order], np.ones(n, dtype=int))
    return poly, cr, spec


def assert_bitwise(got: np.ndarray, want: np.ndarray, what: str = ""):
    """Equal bits; of an 80-bit value, whose padding bytes are arbitrary,
    equal real and imaginary values with equal signs."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    if got.dtype in (np.complex128, np.float64):
        got, want = (np.ascontiguousarray(x).view(np.uint64) for x in (got, want))
        assert np.array_equal(got, want), what
    else:
        for part in (np.real, np.imag):
            assert np.array_equal(part(got), part(want)), what
            assert np.array_equal(np.signbit(part(got)), np.signbit(part(want))), what
