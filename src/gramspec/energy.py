"""Minimum-energy control, its modal splitting, and the energy meaning of the
spectral components.

The quadratic forms are computed for any solvable spectrum; only for a
strictly stable system do they measure control energy, which the
``interpretation_valid`` flag records.  Quadrature checks use a composite
trapezoid rule on (-T, 0) with T = 40 / min |Re lambda|.
"""

from __future__ import annotations

import numpy as np

from .companion import EigenStructure
from .errors import Record, StabilityError
from .gramians import SpectralComponentSet, modulus

QUADRATURE_POINTS = 40_000


def _real_quadratic_forms(x0: np.ndarray, stack: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """x_0^T M x_0 of each matrix M of a (k, n, n) stack, as reals; the
    first form, in stack order, whose imaginary part is not negligible
    raises ValueError."""
    values = np.vecdot(x0, x0 @ stack).astype(complex)
    bad = np.abs(values.imag) > tol * np.fmax(1.0, modulus(values))
    if np.any(bad):
        imag = values[np.argmax(bad)].imag
        raise ValueError(f"quadratic form has non-negligible imaginary part {imag:.3e}")
    return values.real.copy()


def min_energy(x0, inv: SpectralComponentSet) -> float:
    """Quadratic form x_0^T P^{-1} x_0 from the summed inverse eigenparts.

    Equals the minimum control energy to reach x_0 from rest when the system
    is stable; for unstable systems it is returned as a plain quadratic form.
    """
    x0 = np.asarray(x0, dtype=float)
    return float(_real_quadratic_forms(x0, inv.symmetrized().total()[None])[0])


class EnergyPartition(Record):
    """Linear and quadratic splits of the minimum-energy quadratic form."""

    def __init__(self, total: float, linear: np.ndarray, quadratic: np.ndarray,
                 interpretation_valid: bool):
        self.__dict__.update(total=total, linear=linear, quadratic=quadratic,
                             interpretation_valid=interpretation_valid)


def energy_partition(
    x0, inv: SpectralComponentSet, inv_pairs: SpectralComponentSet
) -> EnergyPartition:
    """E_i = x_0^T P~_i^{-C} x_0 and E_ij = x_0^T P_ij^{-C} x_0, from the
    eigen- and pair-indexed inverse sets.

    Both partitions sum to the total quadratic form.
    """
    x0 = np.asarray(x0, dtype=float)
    if inv.kind != "eigen" or inv_pairs.kind != "pair":
        raise ValueError("energy partition expects the eigen- and pair-indexed inverse sets")
    sym = inv.symmetrized()
    k = len(sym.keys)
    linear = _real_quadratic_forms(x0, sym.stack)
    quadratic = _real_quadratic_forms(x0, inv_pairs.symmetrized().stack).reshape(k, k)
    total = min_energy(x0, inv)
    stable = bool(inv.spectrum.is_stable) if inv.spectrum is not None else False
    return EnergyPartition(total, linear, quadratic, stable)


class OptimalControlSignal(Record):
    """Minimum-energy control u(t) on t <= 0 and its modal components.

    u_i(t) = kappa_i e^{-conj(lambda_i) t}; the modal components sum to the
    (real) control exactly for conjugate-closed spectra.  ``horizon`` is the
    quadrature window 40 / min |Re lambda|.
    """

    def __init__(self, kappa: np.ndarray, rates: np.ndarray, horizon: float):
        self.__dict__.update(kappa=kappa, rates=rates, horizon=horizon)

    def modal(self, t) -> np.ndarray:
        """Modal components, shape (n_modes,) + shape(t)."""
        t = np.asarray(t, dtype=float)
        return self.kappa[(...,) + (None,) * t.ndim] * np.exp(
            np.multiply.outer(self.rates, t)
        )

    def control(self, t):
        """The control signal itself (real)."""
        total = np.sum(self.modal(t), axis=0)
        return total.real


def optimal_control(
    x0, es: EigenStructure, inv: SpectralComponentSet
) -> OptimalControlSignal:
    """Spectral form of the minimum-energy control for a stable companion
    system: u(t) = e_n^T e^{-A_C^T t} P^{-1} x_0 with modal components
    e_n^T R_i^* e^{-conj(lambda_i) t} P^{-1} x_0, where P^{-1} is the sum of
    ``inv``, the inverse eigen set of ``es``."""
    spec = es.spectrum
    if not spec.is_stable:
        raise StabilityError("optimal control requires a strictly stable spectrum")
    x0 = np.asarray(x0, dtype=float)
    w = inv.total() @ x0
    es.require_simple()
    # column n of R_i from its factors, rounded as ``residues`` rounds it
    kappa = np.array([np.conj(x * y[-1] / -deriv) @ w
                      for x, y, deriv in zip(es.right, es.left, es.derivs)])
    rates = -np.conj(spec.values)
    horizon = 40.0 / float(np.min(np.abs(spec.values.real)))
    return OptimalControlSignal(kappa, rates, horizon)


def control_energy_quadrature(signal: OptimalControlSignal) -> float:
    """Trapezoid quadrature of the control energy over (-horizon, 0)."""
    t = np.linspace(-signal.horizon, 0.0, QUADRATURE_POINTS)
    u = signal.control(t)
    return float(np.trapezoid(u * u, t))
