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

Exit codes: 0 success, 1 usage or schema error (also an unwritable
``--output`` or a closed stdout), 2 solvability violation, 3 conditioning
failure (uncontrollable system, ill-conditioned chains, singular
normalization, near-multiple eigenvalues, an eigenvalue at the origin), 4
failed verification checks.

Each command imports only the modules it runs: ``inverse`` is loaded for
``analyze``, ``verify`` and ``energy``, ``oracle`` for ``analyze`` and
``verify``, and ``energy`` for ``energy`` and ``verify``; a ``roots`` process
loads none of them.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys

import numpy as np

from .companion import (
    EigenStructure,
    LtiSystem,
    SimilarityTransform,
    build_companion,
    eigen_structure,
    jordan_chains_companion,
    similarity_transform,
)
from .document import (
    MatrixBlock,
    MatrixEntry,
    SystemDocument,
    json_text,
    parse_initial_condition,
    parse_system,
)
from .errors import (
    ConditioningError,
    ControllabilityError,
    GramspecError,
    MultipleEigenvalueError,
    Record,
    SchemaError,
    SolvabilityError,
)
from .gramians import (
    InitialCondition,
    _require_horizon,
    finite_pair_subgramians,
    finite_subgramians,
    homogeneous_subgramians,
    horizon,
    infinite_pair_subgramians,
    infinite_subgramians,
    lift_to_original,
    multiple_eig_gramian,
    pair_collisions,
    zero_plaid_defect,
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


def _norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, bitwise np.linalg.norm of
    each (which sums the squares of the real and imaginary parts apart)."""
    flat = stack.reshape(stack.shape[0], -1)
    re, im = flat.real, flat.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _component_residuals(component_set, a_c, spec, side: str) -> np.ndarray:
    """Defect of each raw component's spectral identity, relative to the
    component's norm.

    Eigen components of a Gramian live in the (generalized) right eigenspace,
    (A - lambda I)^m X = 0, those of an inverse in the left one,
    X (A - lambda I)^m = 0.  Pair components satisfy A X + X A^T = rate X
    (Gramian, rate lambda_i + conj(lambda_j)) or A^T X + X A = rate X
    (inverse, rate conj(lambda_i) + lambda_j).  The scales 1 + |rate| are
    scalar: numpy's array abs rounds some complex moduli differently.
    """
    raw, keys = component_set.stack, component_set.keys
    n = a_c.shape[0]
    if component_set.kind == "eigen":
        lams, mults = spec.values[list(keys)], spec.multiplicities[list(keys)]
        shifted = np.array([np.linalg.matrix_power(a_c - lam * np.eye(n), int(m))
                            for lam, m in zip(lams, mults)])
        defect = shifted @ raw if side == "left" else raw @ shifted
        scale = [(1.0 + abs(lam)) ** m for lam, m in zip(lams, mults)]
    else:
        i, j = np.array(keys).T
        values = spec.values
        if side == "left":
            rates = values[i] + np.conj(values[j])
            defect = a_c @ raw + raw @ a_c.T - rates[:, None, None] * raw
        else:
            rates = np.conj(values[i]) + values[j]
            defect = a_c.T @ raw + raw @ a_c - rates[:, None, None] * raw
        scale = [1.0 + abs(rate) for rate in rates]
    return _norms(defect) / (np.array(scale) * np.fmax(1e-300, _norms(raw)))


def _component_block(component_set, a_c, spec, flavor: str, side: str = "left") -> MatrixBlock:
    """The report block of one component set, with per-component identity residuals."""
    emitted = component_set.symmetrized() if flavor == "symmetrized" else component_set
    key = _eigen_key if component_set.kind == "eigen" else _pair_key
    residuals = _component_residuals(component_set, a_c, spec, side)
    return MatrixBlock(map(key, component_set.keys), emitted.stack, residuals.tolist())


def _finite_block(component_set, key) -> MatrixBlock:
    """Finite-horizon components, which satisfy no identity of their own."""
    keys = component_set.keys
    return MatrixBlock(map(key, keys), component_set.stack, [None] * len(keys))


# ---------------------------------------------------------------------------
# resolution pipeline


class ResolvedSystem(Record):
    """A document after the spectrum pipeline: ``roots`` are the unclustered
    roots (None for an eigenvalues document) and ``structure`` the eigen
    structure (None for a multiple or unsolvable spectrum).  ``warnings`` are
    the pipeline's ``notes``, then the pair-exponent collisions, scanned on
    first read: when a report is rendered."""

    def __init__(self, doc: SystemDocument, poly: Polynomial, spectrum, solvability, cr,
                 sys: LtiSystem | None, notes: list, roots: np.ndarray | None,
                 structure: EigenStructure | None):
        self.__dict__.update(doc=doc, poly=poly, spectrum=spectrum, solvability=solvability,
                             cr=cr, sys=sys, notes=notes, roots=roots, structure=structure)

    @functools.cached_property
    def warnings(self) -> list:
        warnings = list(self.notes)
        collisions = pair_collisions(self.spectrum)
        if collisions:
            pairs = "; ".join(f"{_pair_key(a)} ~ {_pair_key(b)}" for a, b in collisions)
            warnings.append(
                f"pair-component exponents collide ({pairs}); pair components are "
                "not unique, their sums are"
            )
        return warnings


def resolve_document(doc: SystemDocument, tols: Tolerances) -> ResolvedSystem:
    """Run the spectrum pipeline on a parsed document.

    A simple spectrum gets its eigen structure here, once; every builder of
    the command reads it, and its admission check is the solvability report.
    """
    notes = [SIGN_CONVENTION_NOTE]
    system, roots = doc.system, None
    if doc.spectrum is not None:
        spec = doc.spectrum
        poly = poly_from_roots(spec.expanded())
    else:
        poly = doc.poly if system is None else char_poly(system.a)
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
            notes.append(
                "spectrum is numerically close to a multiple eigenvalue; "
                "consider a looser --tol-cluster to trigger the Jordan-chain path"
            )
    return ResolvedSystem(doc, poly, spec, solvability, cr, system, notes, roots, structure)


def _similarity(resolved: ResolvedSystem) -> SimilarityTransform | None:
    """The similarity of a matrices document's system; None for other sources."""
    return None if resolved.sys is None else similarity_transform(resolved.sys, resolved.poly)


def _companion_initial(p0: InitialCondition,
                       transform: SimilarityTransform | None) -> InitialCondition:
    """Initial condition in companion coordinates.

    Matrix documents state P_0 in their own coordinates; it is pulled back
    through the similarity transform (single-input systems only).
    """
    if transform is None:
        return p0
    if transform.t is None:
        raise ControllabilityError(
            "initial conditions for multi-input matrix documents are not supported"
        )
    t_inv = np.linalg.inv(transform.t)
    return InitialCondition(t_inv @ p0.matrix @ t_inv.T)


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
    raw: bool = False,
) -> dict:
    """Full spectral analysis of a system document.

    Selects the simple or multiple-eigenvalue path automatically and attaches
    oracle residuals to every emitted matrix.  The document is admitted
    first: every step that can refuse it runs, with the sets those steps
    need, so the first that refuses decides the error and a refused document
    renders nothing.  The report is then written block by block, and each
    block builds the sets that only it reads.  The pair blocks come last:
    their builders refuse nothing, and they are the O(n^4) work.

    A bad horizon is refused (ValueError) before any spectral work.  On a
    simple spectrum every finite block reads one 80-bit to_extended()
    horizon, and the report writes its values rounded once to double.
    """
    from .inverse import (finite_inverse, inverse_eigenparts, inverse_multiple_eig,
                          inverse_pair_parts, riccati_general)
    from .oracle import residual_lyapunov, residual_product, residual_riccati

    resolved = resolve_document(doc, tols)
    resolved.solvability.require()
    spec, poly, es, system = resolved.spectrum, resolved.poly, resolved.structure, resolved.sys
    p0 = doc.initial_condition
    multiple = not spec.is_simple
    t = None if finite is None else float(finite)
    if t is not None:
        _require_horizon(t)
    warnings = []  # the command's own, after the document's
    decomp = inv_set = None  # the Gramian decomposition and inverse eigen set, once built

    # admission: every step that can refuse the document, in order
    if multiple:
        chains = jordan_chains_companion(spec, poly)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow: refused below
            decomp = multiple_eig_gramian(chains, finite)
        if pairs:
            warnings.append("pair components are only defined for simple spectra; skipped")
    transform = _similarity(resolved)
    if inverse and transform is not None and transform.t is None:
        warnings.append("inverse in original coordinates is only evaluated for "
                        "single-input systems; skipped")
    if inverse and multiple:
        inv_set = inverse_multiple_eig(chains)
    elif inverse:  # the inverse eigen set refuses an eigenvalue at the origin first
        es.left
    if t is not None:
        # values past the double range come out inf or nan, without a
        # warning: _require_exp_range and _require_double_range refuse them
        with np.errstate(over="ignore", invalid="ignore"):
            if multiple:
                _require_exp_range(decomp.expm_transpose, t)
            else:
                es.require_simple()  # a near-multiple eigenvalue, on the double structure
                if p0 is not None:
                    p0c = _companion_initial(p0, transform)
                elif inverse:
                    p0c = InitialCondition(np.zeros((poly.degree, poly.degree)))
                # one 80-bit horizon for every finite block, once e^(A t) is in double range:
                # its scalar factors before any 80-bit work, then its entries rounded
                _require_exp_range(np.exp(es.eigenvalues * t), t)
                h = horizon(es.to_extended(), t)
                _require_exp_range(h.expm_transpose, t)
                if inverse:
                    condition, inv_finite = finite_inverse(h, p0c)
                decomp = finite_subgramians(h)
            gram_t = decomp.at_t.total()  # in the horizon's format
            finite_sum = gram_t.astype(complex)
            if p0 is not None and multiple:
                warnings.append("initial condition is only evaluated for simple spectra; skipped")
            elif p0 is not None:
                hom_t = homogeneous_subgramians(h, p0c)
                hom_defect = _initial_value_defect(h.structure, p0c)
                gram_t = gram_t + hom_t.total()  # the product residual's P(t), unrounded
            if inverse and multiple:
                warnings.append("finite inverse is only evaluated for simple spectra; skipped")
        _require_double_range(finite_sum, t)

    # the report, block by block
    flavor = "raw" if raw else "symmetrized"
    a_c, b_c = resolved.cr.a_c, resolved.cr.b_c
    bbt = np.outer(b_c, b_c)
    gram_set = decomp.static if multiple else infinite_subgramians(es)
    gram_sum = gram_set.symmetrized().total()
    report = _report(
        "analyze",
        resolved,
        resolved.warnings + warnings,
        tolerances={"root": tols.root, "cluster": tols.cluster, "solvability": tols.solvability},
        system={"n": poly.degree, "m": 1 if system is None else system.m,
                "source": doc.source},
        polynomial=poly.coeffs.tolist(),
        flavor=flavor,
        gramian={
            "coordinate": "companion",
            "eigen": _component_block(gram_set, a_c, spec, flavor),
            "sum": MatrixEntry(gram_sum, residual_lyapunov(a_c, bbt, gram_sum)),
        },
    )
    if transform is not None:
        lifted = lift_to_original(gram_set, transform)
        residual = residual_lyapunov(system.a, system.b @ system.b.T, lifted)
        report["gramian_original"] = {"coordinate": "original",
                                      "sum": MatrixEntry(lifted, residual)}

    if inverse:
        inv_set = inverse_eigenparts(es) if inv_set is None else inv_set
        inv_sum = inv_set.symmetrized().total()
        report["inverse"] = {
            "coordinate": "companion",
            "eigen": _component_block(inv_set, a_c, spec, flavor, side="right"),
            "sum": MatrixEntry(inv_sum, residual_riccati(a_c, b_c, inv_sum)),
            "product_residual": residual_product(inv_set.total(), gram_set.total()),
        }
        if transform is not None and transform.t is not None:
            osum = riccati_general(transform, inv_set)
            residual = residual_riccati(system.a, system.b, osum)
            report["inverse_original"] = {"coordinate": "original",
                                          "sum": MatrixEntry(osum, residual)}

    if t is not None:
        norm = np.linalg.norm(finite_sum)  # in range: _require_double_range
        finite_set = decomp.at_t if raw else decomp.at_t.symmetrized()
        # exact derivative dP/dt = e^{A t} b b^T e^{A^T t}, from the same expansion
        expm = decomp.expm_transpose.T.astype(complex)
        defect = -(expm @ bbt @ expm.T) + a_c @ finite_sum + finite_sum @ a_c.T + bbt
        diff_residual = float(np.linalg.norm(defect) / max(1.0, norm))
        report["finite"] = {
            "t": decomp.t,
            "eigen": _finite_block(finite_set, _eigen_key),
            "sum": MatrixEntry(finite_sum, diff_residual),
        }
        if p0 is not None and not multiple:
            report["finite"]["homogeneous_sum"] = MatrixEntry(hom_t.symmetrized().total(),
                                                              hom_defect)
        if inverse and not multiple:
            inv_total = inv_finite.total()
            report["finite_inverse"] = {
                "t": t,
                "normalization_condition": condition,
                "sum": MatrixEntry(inv_total, residual_product(inv_total, gram_t)),
            }

    if pairs and not multiple:
        pair_set = infinite_pair_subgramians(es)
        report["gramian"]["pair"] = _component_block(pair_set, a_c, spec, flavor)
        if inverse:
            report["inverse"]["pair"] = _component_block(inverse_pair_parts(es), a_c, spec,
                                                         flavor, side="right")
        if t is not None:
            finite_pairs = finite_pair_subgramians(pair_set, t)
            report["finite"]["pair"] = _finite_block(
                finite_pairs if raw else finite_pairs.symmetrized(), _pair_key)
    return report


def _initial_value_defect(es: EigenStructure, p0: InitialCondition) -> float:
    """Largest entry of the homogeneous sum at t = 0 minus P_0, its initial value."""
    hom_0 = homogeneous_subgramians(horizon(es, 0.0), p0)
    return float(np.max(np.abs(hom_0.total() - p0.matrix)))


def _require_exp_range(values: np.ndarray, t: float):
    """Refuse (ConditioningError) a horizon at which e^(A t), its entries or
    its scalar factors e^(lambda_i t), leaves the double range; 80-bit values
    are judged rounded to double."""
    if not np.all(np.isfinite(values.astype(complex))):
        raise ConditioningError(f"e^(A t) leaves the double range at t = {t}")


def _require_double_range(finite_sum: np.ndarray, t: float):
    """Refuse (ConditioningError) a horizon at which the Frobenius norm of
    P(t), the scale of its residual, leaves the double range, naming what
    left it first: an entry of P(t), or only the norm."""
    with np.errstate(over="ignore", invalid="ignore"):  # squares past 1e154 overflow
        if np.isfinite(np.linalg.norm(finite_sum)):
            return
        largest = np.max(np.abs(finite_sum))
    if np.isfinite(largest):
        raise ConditioningError(f"the Frobenius norm of P(t) leaves the double range at "
                                f"t = {t} (largest entry {largest:.3e})")
    raise ConditioningError(f"P(t) leaves the double range at t = {t}")


# ---------------------------------------------------------------------------
# verify


# the bound of each verify check, in report order: a check passes when its
# value is at or below its bound
VERIFY_BOUNDS = {
    "solvability_margin": 1.0,
    "jordan_chain_recursion": 1e-8,
    "gramian_oracle_agreement": 1e-8,
    "lyapunov_residual": 1e-8,
    "inverse_oracle_agreement": 1e-7,
    "riccati_residual": 1e-7,
    "inverse_product_identity": 1e-7,
    "zero_plaid_zeros": 1e-10,
    "zero_plaid_alternation": 1e-10,
    "inverse_zero_plaid_zeros": 1e-10,
    "pair_partition": 1e-9,
    "orthogonality": 1e-8,
    "finite_rk4_agreement": 1e-6,
    "homogeneous_initial_value": 1e-9,
    "energy_partition_closure": 1e-9,
}


def _check(name: str, value: float) -> dict:
    tolerance = VERIFY_BOUNDS[name]
    return {
        "name": name,
        "value": float(value),
        "tolerance": tolerance,
        "pass": bool(value <= tolerance),
    }


def _relative_distance(x: np.ndarray, reference: np.ndarray, floor: float) -> float:
    """||x - reference||_F / max(floor, ||reference||_F)."""
    return float(np.linalg.norm(x - reference)) / max(floor, float(np.linalg.norm(reference)))


def cmd_verify(doc: SystemDocument, tols: Tolerances = Tolerances(), seed: int | None = None) -> dict:
    """Closed-form results against the independent oracles, one line per check.

    The seed fixes the random probe vectors (initial condition and energy
    target) so reports are reproducible byte for byte.  The closed forms run
    in companion coordinates, which describe a matrices document's system
    only when it is controllable, so an uncontrollable one is refused.  The
    Jordan closed forms are built before the Kronecker oracle solves, so a
    document they refuse exits as under analyze; a simple spectrum's, which
    refuse only an eigenvalue at the origin (checked first), after it, once
    the initial condition of a multi-input document has been refused.  The
    finite-horizon checks read the double horizon, not analyze's 80-bit one.
    """
    from .energy import energy_partition
    from .inverse import (inverse_eigenparts, inverse_multiple_eig, inverse_pair_parts,
                          orthogonality_certificate)
    from .oracle import (integrate_lyapunov, kron_operator, require_dimension,
                         residual_lyapunov, residual_product, residual_riccati,
                         solve_lyapunov_dense)

    resolved = resolve_document(doc, tols)
    resolved.solvability.require()
    transform = _similarity(resolved)
    spec, cr, poly, es = resolved.spectrum, resolved.cr, resolved.poly, resolved.structure
    n = poly.degree
    require_dimension(n)
    a_c, b_c = cr.a_c, cr.b_c
    bbt = np.outer(b_c, b_c)
    rng = np.random.default_rng(0 if seed is None else seed)
    values = {  # each check's value, by name, in report order
        "solvability_margin": tols.solvability * (1.0 + spec.radius)
        / max(resolved.solvability.min_pair_magnitude, 1e-300),
    }

    multiple = not spec.is_simple
    if multiple:
        chains = jordan_chains_companion(spec, poly)
        gram_set = multiple_eig_gramian(chains).static
        inv_set = inverse_multiple_eig(chains)
        recursion_defect = 0.0
        for block in chains.blocks:  # (A_C - lambda I) X = X shifted right by one column
            x = block.right
            residual = (a_c - block.eigenvalue * np.eye(n)) @ x
            residual[:, 1:] -= x[:, :-1]
            recursion_defect = max(recursion_defect, float(np.linalg.norm(residual))
                                   / max(1.0, float(np.linalg.norm(x))))
        values["jordan_chain_recursion"] = recursion_defect
    else:  # the inverse eigen set refuses an eigenvalue at the origin first
        es.left

    # one Kronecker operator for both oracles; its solve can refuse the
    # document, so a simple spectrum's closed forms are built after it
    operator = kron_operator(a_c)
    reference = solve_lyapunov_dense(a_c, bbt, operator=operator)
    if not multiple:
        # the document's P_0 is pulled back to companion coordinates, which
        # refuses a multi-input document before any closed form is built;
        # the random probe is drawn in them
        if doc.initial_condition is not None:
            p0c = _companion_initial(doc.initial_condition, transform)
        else:
            probe = rng.standard_normal((n, n))
            p0c = InitialCondition(0.5 * (probe + probe.T))
        gram_set = infinite_subgramians(es)
        inv_set = inverse_eigenparts(es)
    gram_sym, inv_sym = gram_set.symmetrized(), inv_set.symmetrized()
    gram_sum = gram_sym.total().real
    values["gramian_oracle_agreement"] = _relative_distance(gram_sum, reference, 1e-300)
    values["lyapunov_residual"] = residual_lyapunov(a_c, bbt, gram_sum)
    inv_sum = inv_sym.total().real
    values["inverse_oracle_agreement"] = _relative_distance(inv_sum, np.linalg.inv(reference),
                                                            1e-300)
    values["riccati_residual"] = residual_riccati(a_c, b_c, inv_sum)
    values["inverse_product_identity"] = residual_product(inv_set.total(), gram_set.total())

    values["zero_plaid_zeros"], values["zero_plaid_alternation"] = zero_plaid_defect(
        gram_sym.merged_real().stack)
    values["inverse_zero_plaid_zeros"] = zero_plaid_defect(inv_sym.merged_real().stack)[0]

    if not multiple:
        k = spec.values.size
        pairs = infinite_pair_subgramians(es).symmetrized().stack.reshape(k, k, n, n)
        rows = functools.reduce(np.add, pairs.swapaxes(0, 1), 0)  # row i adds (i, j) in j order
        scale = np.fmax(1.0, np.abs(gram_sym.stack).max(axis=(1, 2)))
        values["pair_partition"] = float(
            (np.abs(rows - gram_sym.stack).max(axis=(1, 2)) / scale).max())
        values["orthogonality"] = orthogonality_certificate(es, gram_set, inv_set)

        t_probe = 1.0
        closed_t = finite_subgramians(horizon(es, t_probe), gram_set).at_t.total().real
        rk4 = integrate_lyapunov(a_c, bbt, np.zeros((n, n)), t_probe, steps=10_000,
                                 operator=operator)
        values["finite_rk4_agreement"] = _relative_distance(closed_t, rk4, 1.0)
        values["homogeneous_initial_value"] = (
            _initial_value_defect(es, p0c) / max(1.0, float(np.max(np.abs(p0c.matrix)))))

        x0 = rng.standard_normal(n)
        partition = energy_partition(x0, inv_sym, inverse_pair_parts(es))
        values["energy_partition_closure"] = max(
            abs(np.sum(partition.linear) - partition.total),
            abs(np.sum(partition.quadratic) - partition.total),
        ) / max(1.0, abs(partition.total))

    checks = [_check(name, value) for name, value in values.items()]
    return _report("verify", resolved, resolved.warnings, seed=seed,
                   system={"n": n, "source": doc.source}, checks=checks,
                   all_passed=all(c["pass"] for c in checks))


# ---------------------------------------------------------------------------
# energy

# the most rows a time-series table may have: the table is formed in memory
TIME_SERIES_MAX_STEPS = 10**6


def cmd_energy(
    doc: SystemDocument,
    x0,
    tols: Tolerances = Tolerances(),
    time_series: tuple | None = None,
) -> tuple:
    """Minimum-energy partition for target state x0, given in companion
    coordinates on every document; those describe a matrices document's
    system only when it is controllable, so an uncontrollable one is refused.

    Returns (report, series); when a stable time series was requested,
    ``series`` holds the times, the modal components of the optimal control
    and the control (``_series_csv`` writes them as CSV), and otherwise it is
    None.  The minimum-energy control exists on t <= 0 only, so the window
    (T0, T1, STEPS) needs T0, T1 <= 0 and 1 <= STEPS <= TIME_SERIES_MAX_STEPS.
    """
    from .energy import control_energy_quadrature, energy_partition, optimal_control
    from .inverse import inverse_eigenparts, inverse_pair_parts

    if time_series is not None:
        t0, t1, steps = time_series
        if not (-np.inf < t0 <= 0.0 and -np.inf < t1 <= 0.0
                and 1 <= steps <= TIME_SERIES_MAX_STEPS):
            raise ValueError("time series needs finite T0, T1 <= 0 (the control exists on "
                             f"t <= 0) and 1 <= STEPS <= {TIME_SERIES_MAX_STEPS}, "
                             f"got {time_series}")
    resolved = resolve_document(doc, tols)
    resolved.solvability.require()
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
    energy = {
        "total": partition.total,
        "linear": partition.linear.tolist(),
        "quadratic": partition.quadratic.tolist(),
        "interpretation_valid": partition.interpretation_valid,
    }
    series = None
    if time_series is not None:
        if not spec.is_stable:
            warnings.append(
                "time series skipped: optimal control requires a strictly stable spectrum"
            )
        else:
            signal = optimal_control(x0, es, inv_set)
            times = np.linspace(float(t0), float(t1), int(steps))
            series = (times, signal.modal(times), signal.control(times))
            energy["quadrature"] = control_energy_quadrature(signal)
    report = _report("energy", resolved, warnings, solvability=False,
                     system={"n": cr.n, "source": doc.source}, x0=x0.tolist(), energy=energy)
    return report, series


def _series_csv(times: np.ndarray, modes: np.ndarray, control: np.ndarray) -> str:
    """The time-series table: t, u, then the real and imaginary part of each
    modal component.  Numbers and fixed names only: no field needs quoting."""
    header = ["t", "u"]
    for i in range(modes.shape[0]):
        header += [f"re_u{i + 1}", f"im_u{i + 1}"]
    rows = [header]
    for k, t in enumerate(times):
        row = [f"{t:.12g}", f"{control[k]:.12g}"]
        for i in range(modes.shape[0]):
            row += [f"{modes[i, k].real:.12g}", f"{modes[i, k].imag:.12g}"]
        rows.append(row)
    return "".join(",".join(row) + "\n" for row in rows)


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
    solvability violations here; remap to the usage code.  Any number, or a
    comma list that starts with one (-1e1, -inf, -0.001,0,0), is a value."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string.partition(",")[0])  # no option name reads as a number
        except ValueError:
            return super()._parse_optional(arg_string)
        return None

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
    except (OSError, ValueError) as exc:  # also a file that is not UTF-8
        raise SchemaError("$", f"cannot read {path}: {exc}") from None
    return parse_system(text)


def _load_initial(path: str, n: int) -> InitialCondition:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:  # also an integer past the int() digit limit
        raise SchemaError("initial_condition", f"cannot read {path}: {exc}") from None
    return parse_initial_condition(data, n)


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise GramspecError(f"cannot write {output}: {exc}") from None


def _dump_report(report: dict) -> str:
    return json_text(report) + "\n"


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
            if args.initial is not None:
                if args.finite is None:
                    raise ValueError("--initial sets P_0 of the finite Gramian and needs --finite")
                doc = doc._replace(initial_condition=_load_initial(args.initial, doc.n))
            report = cmd_analyze(doc, tols, pairs=args.pairs, finite=args.finite,
                                 inverse=args.inverse, raw=args.raw)
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
            window = None
            if args.time_series is not None:
                window = (float(args.time_series[0]), float(args.time_series[1]),
                          int(args.time_series[2]))
                if args.format == "csv" and args.output is None:
                    raise ValueError("--time-series with csv format requires --output")
            report, series = cmd_energy(doc, x0, tols, time_series=window)
            if series is not None and args.format == "csv":
                _emit(_series_csv(*series), args.output)
                sys.stderr.write(_dump_report(report))
            else:
                _emit(_dump_report(report), args.output)
            return EXIT_OK
        report = cmd_roots(doc, tols)  # the subparsers allow no other command
        _emit(_dump_report(report), args.output)
        return EXIT_OK
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return EXIT_USAGE
    except SolvabilityError as exc:
        sys.stderr.write(f"solvability error: {exc}\n")
        return EXIT_SOLVABILITY
    except ConditioningError as exc:  # every exit-3 refusal
        sys.stderr.write(f"conditioning error: {exc}\n")
        return EXIT_CONDITIONING
    except (ValueError, GramspecError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def console_main() -> int:
    """The ``gramspec`` process: main() on the command line, for a process
    that exits with the status returned.  In-process callers call main()."""
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush at
        # shutdown does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_USAGE
    # Interpreter shutdown would run collections over every module's cyclic
    # garbage, numpy's included, only to free memory the OS reclaims at exit;
    # frozen objects are never collected.  The process still flushes its
    # streams and runs atexit handlers, which os._exit would skip.  Not in
    # main(): a freeze there would pin every later document's garbage.
    gc.freeze()
    return status


if __name__ == "__main__":
    raise SystemExit(console_main())
