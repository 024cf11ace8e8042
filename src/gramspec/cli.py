"""Command-line interface: system ingestion, command orchestration and report
emission.

Commands
--------
``gramspec analyze``  spectral decompositions (eigen, pair, finite, inverse)
``gramspec verify``   closed-form results against the brute-force oracles
``gramspec energy``   minimum-energy partitions and optional control series
``gramspec roots``    spectrum pipeline only

Reports are JSON with sorted keys (byte-identical for fixed inputs,
tolerances and, for ``verify``, seed); complex matrices are emitted as
separate re/im row-major arrays, and every matrix carries a verification
residual (null for finite-horizon components, which satisfy no identity of
their own).  Time series are CSV.

Exit codes: 0 success, 1 usage or schema error, 2 solvability violation,
3 conditioning failure (uncontrollable system, ill-conditioned chains,
singular normalization, near-multiple eigenvalues), 4 failed verification
checks.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import oracle
from .companion import (
    EigenStructure,
    LtiSystem,
    SimilarityTransform,
    build_companion,
    eigen_structure,
    jordan_chains_companion,
    similarity_transform,
)
from .document import SystemDocument, parse_initial_condition, parse_system
from .energy import control_energy_quadrature, energy_partition, optimal_control
from .errors import (
    ConditioningError,
    ControllabilityError,
    ConvergenceError,
    GramspecError,
    MultipleEigenvalueError,
    SchemaError,
    SolvabilityError,
)
from .gramians import (
    InitialCondition,
    exponent_collisions,
    finite_pair_subgramians,
    finite_subgramians,
    homogeneous_subgramians,
    infinite_pair_subgramians,
    infinite_subgramians,
    lift_to_original,
    multiple_eig_gramian,
    zero_plaid_defect,
)
from .inverse import (
    finite_inverse,
    inverse_eigenparts,
    inverse_multiple_eig,
    inverse_pair_parts,
    orthogonality_certificate,
    riccati_general,
)
from .spectrum import (
    Polynomial,
    Tolerances,
    char_poly,
    check_solvability,
    cluster,
    eval_with_derivative,
    find_roots,
    poly_from_roots,
)

SIGN_CONVENTION_NOTE = (
    "sign convention: raw eigen components are x x^T J / (-N'(lambda) N(-lambda)); "
    "the overall sign is pinned by the scalar system dx/dt = -x + u (Gramian 1/2) "
    "and enforced by the Lyapunov residual checks"
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVABILITY = 2
EXIT_CONDITIONING = 3
EXIT_VERIFY_FAILED = 4


# ---------------------------------------------------------------------------
# serialization helpers


def _matrix_json(m) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _entry(matrix, residual: float | None) -> dict:
    """A matrix with its residual; None where no identity is checked."""
    residual = None if residual is None else float(residual)
    return {"matrix": _matrix_json(matrix), "residual": residual}


def _eigen_key(i: int) -> str:
    return str(i + 1)


def _pair_key(key) -> str:
    i, j = key
    return f"{i + 1},{j + 1}"


def _spectrum_json(spec) -> list:
    return [
        {"re": float(lam.real), "im": float(lam.imag), "multiplicity": int(mult)}
        for lam, mult in zip(spec.values, spec.multiplicities)
    ]


def _solvability_json(report) -> dict:
    return {
        "ok": bool(report.ok),
        "violating_pairs": [[int(i) + 1, int(j) + 1] for i, j in report.violating_pairs],
        "min_pair_magnitude": float(report.min_pair_magnitude),
    }


# ---------------------------------------------------------------------------
# per-component verification residuals


def _eigen_component_residual(a_c, lam, multiplicity, raw, side: str) -> float:
    """Defect of the raw component's spectral identity.

    Gramian components live in the (generalized) right eigenspace,
    (A - lambda I)^m X = 0; inverse components in the left one,
    X (A - lambda I)^m = 0.
    """
    n = a_c.shape[0]
    shifted = np.linalg.matrix_power(a_c - lam * np.eye(n), int(multiplicity))
    defect = shifted @ raw if side == "left" else raw @ shifted
    scale = (1.0 + abs(lam)) ** multiplicity * max(1e-300, float(np.linalg.norm(raw)))
    return float(np.linalg.norm(defect) / scale)


def _pair_component_residual(a_c, rate, raw, side: str) -> float:
    """Defect of A X + X A^T = rate X (gramian pairs) or its transposed
    counterpart A^T X + X A = rate X (inverse pairs)."""
    if side == "left":
        defect = a_c @ raw + raw @ a_c.T - rate * raw
    else:
        defect = a_c.T @ raw + raw @ a_c - rate * raw
    scale = (1.0 + abs(rate)) * max(1e-300, float(np.linalg.norm(raw)))
    return float(np.linalg.norm(defect) / scale)


def _component_block(component_set, a_c, spec, flavor: str, side: str = "left") -> dict:
    """Serialize one component set with per-component identity residuals."""
    emitted = component_set.symmetrized() if flavor == "symmetrized" else component_set
    out = {}
    for key, raw in component_set.components.items():
        if component_set.kind == "eigen":
            residual = _eigen_component_residual(
                a_c, spec.values[key], spec.multiplicities[key], raw, side
            )
            out[_eigen_key(key)] = _entry(emitted.components[key], residual)
        else:
            i, j = key
            if side == "left":
                rate = spec.values[i] + np.conj(spec.values[j])
            else:
                rate = np.conj(spec.values[i]) + spec.values[j]
            residual = _pair_component_residual(a_c, rate, raw, side)
            out[_pair_key(key)] = _entry(emitted.components[key], residual)
    return out


# ---------------------------------------------------------------------------
# resolution pipeline


@dataclass
class ResolvedSystem:
    doc: SystemDocument
    poly: Polynomial
    spectrum: object
    solvability: object
    cr: object
    sys: LtiSystem | None
    warnings: list
    roots: np.ndarray | None  # unclustered roots; None for eigenvalue documents
    structure: EigenStructure | None  # None for a multiple or unsolvable spectrum


def resolve_document(doc: SystemDocument, tols: Tolerances) -> ResolvedSystem:
    """Run the spectrum pipeline on a parsed document.

    A simple spectrum gets its eigen structure here, once; every builder of
    the command reads it, and its admission check is the solvability report.
    """
    warnings = [SIGN_CONVENTION_NOTE]
    system = None
    roots = None
    if doc.source == "eigenvalues":
        spec = doc.spectrum()
        poly = poly_from_roots(spec.expanded())
    else:
        if doc.source == "char_poly":
            poly = Polynomial(doc.char_poly)
        else:
            system = LtiSystem(*doc.matrices)
            poly = char_poly(system.a)
        roots = find_roots(poly, tols.root)
        spec = cluster(roots, tols.cluster)
    structure = None
    if not spec.is_simple:
        solvability = check_solvability(spec, tols.solvability)
    else:
        try:
            structure = eigen_structure(poly, spec, tols.solvability)
            solvability = structure.solvability
        except SolvabilityError as exc:
            solvability = exc.report
    cr = build_companion(poly)
    if spec.is_simple and spec.n > 1:
        derivs = np.abs(
            eval_with_derivative(poly, spec.values)[1] if structure is None else structure.derivs
        )
        scale = float(np.max(np.abs(poly.coeffs)))
        if np.min(derivs) <= 1e-6 * scale:
            warnings.append(
                "spectrum is numerically close to a multiple eigenvalue; "
                "consider a looser --tol-cluster to trigger the Jordan-chain path"
            )
    collisions = exponent_collisions(spec)
    if collisions:
        pairs = "; ".join(f"{_pair_key(a)} ~ {_pair_key(b)}" for a, b in collisions)
        warnings.append(
            f"pair-component exponents collide ({pairs}); pair components are "
            "not unique, their sums are"
        )
    return ResolvedSystem(doc, poly, spec, solvability, cr, system, warnings, roots, structure)


def _require_solvable_or_raise(resolved: ResolvedSystem):
    if not resolved.solvability.ok:
        raise SolvabilityError(resolved.solvability)


def _similarity(resolved: ResolvedSystem) -> SimilarityTransform | None:
    """The similarity of a matrices document's system; None for other sources."""
    return None if resolved.sys is None else similarity_transform(resolved.sys, resolved.poly)


def _companion_initial(p0: np.ndarray, transform: SimilarityTransform | None) -> InitialCondition:
    """Initial condition in companion coordinates.

    Matrix documents state P_0 in their own coordinates; it is pulled back
    through the similarity transform (single-input systems only).
    """
    if transform is None:
        return InitialCondition(p0)
    if transform.t is None:
        raise ControllabilityError(
            "initial conditions for multi-input matrix documents are not supported"
        )
    t_inv = np.linalg.inv(transform.t)
    return InitialCondition(t_inv @ p0 @ t_inv.T)


def _report(command: str, resolved: ResolvedSystem, warnings: list, solvability: bool = True,
            **fields) -> dict:
    """Render a report: the fields every command shares, then the command's
    own.  Energy reports carry no solvability block."""
    report = {
        "schema": 1,
        "command": command,
        "label": resolved.doc.label,
        "spectrum": _spectrum_json(resolved.spectrum),
        "warnings": warnings,
        **fields,
    }
    if solvability:
        report["solvability"] = _solvability_json(resolved.solvability)
    return report


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(
    doc: SystemDocument,
    tols: Tolerances = Tolerances(),
    pairs: bool = False,
    finite: float | None = None,
    inverse: bool = False,
    initial: np.ndarray | None = None,
    raw: bool = False,
) -> dict:
    """Full spectral analysis of a system document.

    Selects the simple or multiple-eigenvalue path automatically and attaches
    oracle residuals to every emitted matrix.  Each set is built by one
    builder call, in the order of the report's blocks, so the first builder
    that refuses the document decides the error; the report is rendered once
    the last builder has returned.
    """
    resolved = resolve_document(doc, tols)
    _require_solvable_or_raise(resolved)
    spec, cr, poly, es = resolved.spectrum, resolved.cr, resolved.poly, resolved.structure
    flavor = "raw" if raw else "symmetrized"
    p0 = doc.initial_condition if initial is None else initial
    multiple = not spec.is_simple
    warnings = list(resolved.warnings)
    built = {}  # the sets of the report's blocks; a block the report leaves out has no key
    if multiple:
        chains = jordan_chains_companion(spec, poly)
        gram_decomp = multiple_eig_gramian(cr.a_c, cr.b_c, spec, t=finite, chains=chains)
        built["gram"] = gram_decomp.static
        if pairs:
            warnings.append("pair components are only defined for simple spectra; skipped")
    else:
        built["gram"] = infinite_subgramians(es)
        if pairs:
            built["pair"] = infinite_pair_subgramians(es)
    transform = _similarity(resolved)
    if transform is not None:
        built["lifted"] = lift_to_original(built["gram"], transform)
        if inverse and transform.t is None:
            warnings.append("inverse in original coordinates is only evaluated for "
                            "single-input systems; skipped")
    if inverse and multiple:
        built["inverse"] = inverse_multiple_eig(cr, chains)
    elif inverse:
        built["inverse"] = inverse_eigenparts(es)
        if pairs:
            built["inverse_pair"] = inverse_pair_parts(es)
        if transform is not None and transform.t is not None:
            built["inverse_original"] = riccati_general(transform, built["inverse"])

    if finite is not None:
        t = float(finite)
        decomp = gram_decomp if multiple else finite_subgramians(es, t)
        raw_set = decomp.component_set()  # evaluated once: summed, then symmetrized
        finite_sum = raw_set.total()
        finite_set = raw_set if raw else raw_set.symmetrized()
        built["finite"] = (t, finite_set, finite_sum, decomp.expm_transpose(t))
        if pairs and not multiple:
            pair_set = finite_pair_subgramians(built["pair"], t).component_set()
            built["finite_pair"] = pair_set if raw else pair_set.symmetrized()
        if p0 is not None and multiple:
            warnings.append("initial condition is only evaluated for simple spectra; skipped")
        elif p0 is not None:
            p0c = _companion_initial(p0, transform)
            hom_t = homogeneous_subgramians(es, p0c, t)
            built["homogeneous"] = (p0c, hom_t, homogeneous_subgramians(es, p0c, 0.0))
        if inverse and multiple:
            warnings.append("finite inverse is only evaluated for simple spectra; skipped")
        elif inverse:
            if p0 is None:
                p0c = InitialCondition(np.zeros((poly.degree, poly.degree)))
            try:
                state, inv_finite = finite_inverse(es, p0c, t)
                gram_t = finite_sum
            except ConditioningError:
                es_extended = eigen_structure(poly, spec, tols.solvability, extended=True)
                state, inv_finite = finite_inverse(es_extended, p0c, t)
                gram_t = finite_subgramians(es_extended, t).total()
                warnings.append(
                    "finite inverse evaluated in extended precision "
                    "(normalization matrix ill-conditioned at this horizon)"
                )
            if p0 is not None:
                gram_t = gram_t + sum(hom_t.components.values())
            built["finite_inverse"] = (state, inv_finite, gram_t)
    return _render_analysis(resolved, tols, flavor, warnings, built)


def _render_analysis(
    resolved: ResolvedSystem, tols: Tolerances, flavor: str, warnings: list, built: dict
) -> dict:
    """The analyze report of the built sets, with every residual."""
    spec, poly, system = resolved.spectrum, resolved.poly, resolved.sys
    a_c, b_c = resolved.cr.a_c, resolved.cr.b_c
    bbt = np.outer(b_c, b_c)
    eye = np.eye(poly.degree)
    gram_set = built["gram"]
    gram_sum = gram_set.symmetrized().total()
    report = _report(
        "analyze",
        resolved,
        warnings,
        tolerances={"root": tols.root, "cluster": tols.cluster, "solvability": tols.solvability},
        system={"n": poly.degree, "m": 1 if system is None else system.m,
                "source": resolved.doc.source},
        polynomial=poly.coeffs.tolist(),
        flavor=flavor,
        gramian={
            "coordinate": "companion",
            "eigen": _component_block(gram_set, a_c, spec, flavor),
            "sum": _entry(gram_sum, oracle.residual_lyapunov(a_c, bbt, gram_sum)),
        },
    )
    if "pair" in built:
        report["gramian"]["pair"] = _component_block(built["pair"], a_c, spec, flavor)
    if "lifted" in built:
        lifted_sum = built["lifted"].symmetrized().total()
        residual = oracle.residual_lyapunov(system.a, system.b @ system.b.T, lifted_sum)
        report["gramian_original"] = {"coordinate": "original", "sum": _entry(lifted_sum, residual)}

    if "inverse" in built:
        inv_set = built["inverse"]
        inv_sum = inv_set.symmetrized().total()
        report["inverse"] = {
            "coordinate": "companion",
            "eigen": _component_block(inv_set, a_c, spec, flavor, side="right"),
            "sum": _entry(inv_sum, oracle.residual_riccati(a_c, b_c, inv_sum)),
            "product_residual": float(np.max(np.abs(inv_set.total() @ gram_set.total() - eye))),
        }
    if "inverse_pair" in built:
        report["inverse"]["pair"] = _component_block(
            built["inverse_pair"], a_c, spec, flavor, side="right"
        )
    if "inverse_original" in built:
        osum = built["inverse_original"].symmetrized().total()
        residual = oracle.residual_riccati(system.a, system.b, osum)
        report["inverse_original"] = {"coordinate": "original", "sum": _entry(osum, residual)}

    if "finite" in built:
        t, finite_set, finite_sum, expm_transpose = built["finite"]
        # exact derivative dP/dt = e^{A t} b b^T e^{A^T t}, from the same expansion
        expm = expm_transpose.T
        defect = -(expm @ bbt @ expm.T) + a_c @ finite_sum + finite_sum @ a_c.T + bbt
        diff_residual = float(np.linalg.norm(defect) / max(1.0, np.linalg.norm(finite_sum)))
        report["finite"] = {
            "t": t,
            "eigen": {_eigen_key(k): _entry(m, None) for k, m in finite_set.components.items()},
            "sum": _entry(finite_sum, diff_residual),
        }
    if "finite_pair" in built:
        report["finite"]["pair"] = {
            _pair_key(k): _entry(m, None) for k, m in built["finite_pair"].components.items()
        }
    if "homogeneous" in built:
        p0c, hom_t, hom_0 = built["homogeneous"]
        residual = float(np.max(np.abs(sum(hom_0.components.values()) - p0c.matrix)))
        report["finite"]["homogeneous_sum"] = _entry(hom_t.symmetrized().total(), residual)
    if "finite_inverse" in built:
        state, inv_finite, gram_t = built["finite_inverse"]
        inv_total = inv_finite.total()
        report["finite_inverse"] = {
            "t": state.t,
            "normalization_condition": state.condition,
            "sum": _entry(inv_total, float(np.max(np.abs(inv_total @ gram_t - eye)))),
        }
    return report


# ---------------------------------------------------------------------------
# verify


def _check(name: str, value: float, tolerance: float) -> dict:
    return {
        "name": name,
        "value": float(value),
        "tolerance": float(tolerance),
        "pass": bool(value <= tolerance),
    }


def cmd_verify(doc: SystemDocument, tols: Tolerances = Tolerances(), seed: int | None = None) -> dict:
    """Closed-form results against the independent oracles, one line per check.

    The seed fixes the random probe vectors (initial condition and energy
    target) so reports are reproducible byte for byte.  The closed forms run
    in companion coordinates, which describe a matrices document's system
    only when it is controllable, so an uncontrollable one is refused.
    """
    resolved = resolve_document(doc, tols)
    _require_solvable_or_raise(resolved)
    transform = _similarity(resolved)
    spec, cr, poly, es = resolved.spectrum, resolved.cr, resolved.poly, resolved.structure
    n = poly.degree
    a_c, b_c = cr.a_c, cr.b_c
    bbt = np.outer(b_c, b_c)
    rng = np.random.default_rng(0 if seed is None else seed)
    checks = []

    checks.append(
        _check(
            "solvability_margin",
            tols.solvability * (1.0 + spec.radius) / max(resolved.solvability.min_pair_magnitude, 1e-300),
            1.0,
        )
    )

    reference = oracle.solve_lyapunov_dense(a_c, bbt)
    ref_norm = max(1e-300, float(np.linalg.norm(reference.matrix)))

    multiple = not spec.is_simple
    if multiple:
        chains = jordan_chains_companion(spec, poly)
        gram_set = multiple_eig_gramian(a_c, b_c, spec, chains=chains).component_set(t=0.0)
        inv_set = inverse_multiple_eig(cr, chains)
        recursion_defect = 0.0
        for block in chains.blocks:
            shifted = a_c - block.eigenvalue * np.eye(n)
            defect = np.linalg.norm(shifted @ block.right[:, 0])
            for k in range(1, block.multiplicity):
                defect = max(
                    defect,
                    float(
                        np.linalg.norm(
                            shifted @ block.right[:, k] - block.right[:, k - 1]
                        )
                    ),
                )
            recursion_defect = max(
                recursion_defect, defect / max(1.0, float(np.linalg.norm(block.right)))
            )
        checks.append(_check("jordan_chain_recursion", recursion_defect, 1e-8))
    else:
        gram_set = infinite_subgramians(es)
        inv_set = inverse_eigenparts(es)

    gram_sum = gram_set.symmetrized().total().real
    checks.append(
        _check(
            "gramian_oracle_agreement",
            float(np.linalg.norm(gram_sum - reference.matrix)) / ref_norm,
            1e-8,
        )
    )
    checks.append(
        _check("lyapunov_residual", oracle.residual_lyapunov(a_c, bbt, gram_sum), 1e-8)
    )

    inv_sum = inv_set.symmetrized().total().real
    inv_reference = np.linalg.inv(reference.matrix)
    checks.append(
        _check(
            "inverse_oracle_agreement",
            float(np.linalg.norm(inv_sum - inv_reference))
            / max(1e-300, float(np.linalg.norm(inv_reference))),
            1e-7,
        )
    )
    checks.append(
        _check("riccati_residual", oracle.residual_riccati(a_c, b_c, inv_sum), 1e-7)
    )
    checks.append(
        _check(
            "inverse_product_identity",
            float(np.max(np.abs(inv_set.total() @ gram_set.total() - np.eye(n)))),
            1e-7,
        )
    )

    gram_merged = gram_set.symmetrized().merged_real().components.values()
    plaid_odd = max(zero_plaid_defect(m, alternation=True)[0] for m in gram_merged)
    plaid_alt = max(zero_plaid_defect(m, alternation=True)[1] for m in gram_merged)
    checks.append(_check("zero_plaid_zeros", plaid_odd, 1e-10))
    checks.append(_check("zero_plaid_alternation", plaid_alt, 1e-10))
    inv_plaid = max(
        zero_plaid_defect(m, alternation=False)[0]
        for m in inv_set.symmetrized().merged_real().components.values()
    )
    checks.append(_check("inverse_zero_plaid_zeros", inv_plaid, 1e-10))

    if not multiple:
        pair_set = infinite_pair_subgramians(es).symmetrized()
        eigen_sym = gram_set.symmetrized()
        partition = 0.0
        for i in range(spec.values.size):
            row = sum(pair_set.components[(i, j)] for j in range(spec.values.size))
            partition = max(
                partition,
                float(np.max(np.abs(row - eigen_sym.components[i])))
                / max(1.0, float(np.max(np.abs(eigen_sym.components[i])))),
            )
        checks.append(_check("pair_partition", partition, 1e-9))

        certificate = orthogonality_certificate(es, gram_set, inv_set)
        checks.append(_check("orthogonality", certificate.max_violation, 1e-8))

        t_probe = 1.0
        closed_t = finite_subgramians(es, t_probe).total().real
        rk4 = oracle.integrate_lyapunov(a_c, bbt, np.zeros((n, n)), t_probe, steps=10_000)
        checks.append(
            _check(
                "finite_rk4_agreement",
                float(np.linalg.norm(closed_t - rk4.matrix))
                / max(1.0, float(np.linalg.norm(rk4.matrix))),
                1e-6,
            )
        )

        # the document's P_0 is pulled back to companion coordinates; the
        # random probe is drawn in them
        if doc.initial_condition is not None:
            p0c = _companion_initial(doc.initial_condition, transform)
        else:
            probe = rng.standard_normal((n, n))
            p0c = InitialCondition(0.5 * (probe + probe.T))
        hom0 = homogeneous_subgramians(es, p0c, 0.0)
        checks.append(
            _check(
                "homogeneous_initial_value",
                float(np.max(np.abs(sum(hom0.components.values()) - p0c.matrix)))
                / max(1.0, float(np.max(np.abs(p0c.matrix)))),
                1e-9,
            )
        )

        x0 = rng.standard_normal(n)
        partition_report = energy_partition(x0, inv_set, inverse_pair_parts(es))
        closure = max(
            abs(np.sum(partition_report.linear) - partition_report.total),
            abs(np.sum(partition_report.quadratic) - partition_report.total),
        ) / max(1.0, abs(partition_report.total))
        checks.append(_check("energy_partition_closure", closure, 1e-9))

    return _report("verify", resolved, resolved.warnings, seed=seed,
                   system={"n": n, "source": doc.source}, checks=checks,
                   all_passed=all(c["pass"] for c in checks))


# ---------------------------------------------------------------------------
# energy


def cmd_energy(
    doc: SystemDocument,
    x0,
    tols: Tolerances = Tolerances(),
    time_series: tuple | None = None,
) -> tuple:
    """Minimum-energy partition for target state x0, given in companion
    coordinates on every document; those describe a matrices document's
    system only when it is controllable, so an uncontrollable one is refused.

    Returns (report, csv_text_or_None); the CSV holds the optimal control and
    its modal components when a stable time series was requested.
    """
    if time_series is not None:
        t0, t1, steps = time_series
        if not (np.isfinite(t0) and np.isfinite(t1)) or steps < 1:
            raise ValueError(f"time series needs finite T0, T1 and STEPS >= 1, got {time_series}")
    resolved = resolve_document(doc, tols)
    _require_solvable_or_raise(resolved)
    _similarity(resolved)  # refuses an uncontrollable matrices document
    spec, cr, es = resolved.spectrum, resolved.cr, resolved.structure
    if not spec.is_simple:
        raise MultipleEigenvalueError(
            "energy partitions are defined for simple spectra"
        )
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (cr.n,):
        raise ValueError(f"x0 must have length {cr.n}, got shape {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be finite, got {x0.tolist()}")
    inv_set = inverse_eigenparts(es)
    partition = energy_partition(x0, inv_set, inverse_pair_parts(es))
    warnings = list(resolved.warnings)
    if not partition.interpretation_valid:
        warnings.append(
            "spectrum is not strictly stable: the quadratic forms are reported "
            "but do not measure control energy"
        )
    signal = None
    if time_series is not None:
        if not spec.is_stable:
            warnings.append(
                "time series skipped: optimal control requires a strictly stable spectrum"
            )
        else:
            signal = optimal_control(x0, es, inv_set)
            times = np.linspace(float(t0), float(t1), int(steps))
            modes = signal.modal(times)
            control = signal.control(times)
            quadrature = control_energy_quadrature(signal)

    energy = {
        "total": partition.total,
        "linear": partition.linear.tolist(),
        "quadratic": partition.quadratic.tolist(),
        "interpretation_valid": partition.interpretation_valid,
    }
    csv_text = None
    if signal is not None:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        header = ["t", "u"]
        for i in range(spec.values.size):
            header += [f"re_u{i + 1}", f"im_u{i + 1}"]
        writer.writerow(header)
        for k, t in enumerate(times):
            row = [f"{t:.12g}", f"{control[k]:.12g}"]
            for i in range(spec.values.size):
                row += [f"{modes[i, k].real:.12g}", f"{modes[i, k].imag:.12g}"]
            writer.writerow(row)
        csv_text = buffer.getvalue()
        energy["quadrature"] = quadrature
    report = _report("energy", resolved, warnings, solvability=False,
                     system={"n": cr.n, "source": doc.source}, x0=x0.tolist(), energy=energy)
    return report, csv_text


# ---------------------------------------------------------------------------
# roots


def cmd_roots(doc: SystemDocument, tols: Tolerances = Tolerances()) -> dict:
    """Spectrum pipeline only: polynomial, roots, clusters, solvability."""
    resolved = resolve_document(doc, tols)
    report = _report(
        "roots", resolved, resolved.warnings, polynomial=resolved.poly.coeffs.tolist()
    )
    if resolved.roots is not None:
        report["roots"] = [{"re": float(r.real), "im": float(r.imag)} for r in resolved.roots]
    return report


# ---------------------------------------------------------------------------
# argument parsing and entry point


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors, which is reserved for
    solvability violations here; remap to the usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(
        prog="gramspec",
        description="Eigenvalue-indexed spectral decompositions of controllability "
        "Gramians and their inverses.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("system", help="system document (JSON)")
        p.add_argument("--tol-root", type=float, default=Tolerances().root)
        p.add_argument("--tol-cluster", type=float, default=Tolerances().cluster)
        p.add_argument("--tol-solve", type=float, default=Tolerances().solvability)
        p.add_argument("--output", default=None, help="write the report here instead of stdout")

    analyze = sub.add_parser("analyze", help="spectral decompositions")
    add_common(analyze)
    analyze.add_argument("--pairs", action="store_true", help="emit pair-indexed components")
    analyze.add_argument("--finite", type=float, default=None, metavar="T",
                         help="also decompose the finite Gramian at horizon T")
    analyze.add_argument("--inverse", action="store_true",
                         help="also decompose the inverse Gramian")
    analyze.add_argument("--initial", default=None, metavar="P0_FILE",
                         help="initial condition (JSON array of rows); needs --finite")
    analyze.add_argument("--raw", action="store_true",
                         help="emit raw components instead of symmetrized ones")

    verify = sub.add_parser("verify", help="check closed forms against oracles")
    add_common(verify)
    verify.add_argument("--seed", type=int, default=None,
                        help="seed of the random initial condition and energy target")

    energy = sub.add_parser("energy", help="minimum-energy partitions")
    add_common(energy)
    energy.add_argument("--x0", required=True,
                        help="target state in companion coordinates, comma-separated floats")
    energy.add_argument("--time-series", nargs=3, metavar=("T0", "T1", "STEPS"),
                        default=None, help="emit the optimal control as CSV")
    energy.add_argument("--format", choices=("json", "csv"), default="json",
                        help="csv writes the --time-series table as the output")

    roots = sub.add_parser("roots", help="spectrum pipeline only")
    add_common(roots)
    return parser


def _load_document(path: str) -> SystemDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SchemaError("$", f"cannot read {path}: {exc}") from None
    return parse_system(text)


def _load_initial(path: str | None, n: int) -> np.ndarray | None:
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError("initial_condition", f"cannot read {path}: {exc}") from None
    return parse_initial_condition(data, n)


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        tols = Tolerances(root=args.tol_root, cluster=args.tol_cluster, solvability=args.tol_solve)
        doc = _load_document(args.system)
        if args.command == "analyze":
            if args.initial is not None and args.finite is None:
                raise ValueError("--initial sets P_0 of the finite Gramian and needs --finite")
            report = cmd_analyze(
                doc,
                tols,
                pairs=args.pairs,
                finite=args.finite,
                inverse=args.inverse,
                initial=_load_initial(args.initial, doc.n),
                raw=args.raw,
            )
            _emit(_dump_report(report), args.output)
            return EXIT_OK
        if args.command == "verify":
            report = cmd_verify(doc, tols, seed=args.seed)
            _emit(_dump_report(report), args.output)
            for check in report["checks"]:
                status = "PASS" if check["pass"] else "FAIL"
                sys.stderr.write(
                    f"{status} {check['name']}: {check['value']:.3e} "
                    f"(tolerance {check['tolerance']:.1e})\n"
                )
            return EXIT_OK if report["all_passed"] else EXIT_VERIFY_FAILED
        if args.command == "energy":
            if args.format == "csv" and args.time_series is None:
                raise ValueError("--format csv writes the --time-series table and needs it")
            x0 = [float(v) for v in args.x0.split(",")]
            series = None
            if args.time_series is not None:
                series = (float(args.time_series[0]), float(args.time_series[1]),
                          int(args.time_series[2]))
                if args.format == "csv" and args.output is None:
                    raise ValueError("--time-series with csv format requires --output")
            report, csv_text = cmd_energy(doc, x0, tols, time_series=series)
            if csv_text is not None and args.format == "csv":
                _emit(csv_text, args.output)
                sys.stderr.write(_dump_report(report))
            else:
                _emit(_dump_report(report), args.output)
            return EXIT_OK
        if args.command == "roots":
            report = cmd_roots(doc, tols)
            _emit(_dump_report(report), args.output)
            return EXIT_OK
        parser.error(f"unknown command {args.command}")
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return EXIT_USAGE
    except SolvabilityError as exc:
        sys.stderr.write(f"solvability error: {exc}\n")
        return EXIT_SOLVABILITY
    except (ControllabilityError, ConditioningError, ConvergenceError,
            MultipleEigenvalueError) as exc:
        sys.stderr.write(f"conditioning error: {exc}\n")
        return EXIT_CONDITIONING
    except (ValueError, GramspecError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
