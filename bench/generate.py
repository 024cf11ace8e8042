"""Seeded system documents and the per-workload plans that use them.

Spectra are stable and conjugate-closed with pairwise separation 0.3, real
parts in [-5, -0.5] and imaginary parts of complex pairs in [0.1, 3].  Each
workload has a fixed catalogue of documents; the run seed sets the order in
which they are visited, and the same seed always gives the same order.  The
program under test only ever sees the JSON files written from the documents.
"""

from __future__ import annotations

import numpy as np

SEPARATION = 0.3
RE_RANGE = (-5.0, -0.5)
IM_RANGE = (0.1, 3.0)

ANALYZE_FULL = ["analyze", "--pairs", "--inverse", "--finite", "1"]
ANALYZE_STRUCTURED = ["analyze", "--inverse", "--finite", "1"]

LADDER_SIZES = (3, 5, 8, 12, 16)
VERIFY_SIZES = (3, 5, 8, 10)
COLD_COMMANDS = ("analyze", "roots", "energy", "verify")
SOURCES = ("char_poly", "matrices", "eigenvalues")


def stable_eigenvalues(rng, n: int) -> np.ndarray:
    """Conjugate-closed stable eigenvalues with pairwise separation."""
    while True:
        values = []
        while len(values) < n:
            if n - len(values) >= 2 and rng.random() < 0.5:
                lam = complex(rng.uniform(*RE_RANGE), rng.uniform(*IM_RANGE))
                values += [lam, lam.conjugate()]
            else:
                values.append(complex(rng.uniform(*RE_RANGE), 0.0))
        values = np.array(values)
        gaps = np.abs(values[:, None] - values[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() >= SEPARATION:
            return values


def _coefficients(values) -> list:
    """Ascending monic coefficients in float64, as a user would write them."""
    coeffs = np.poly(values)[::-1].real.copy()
    coeffs[-1] = 1.0
    return coeffs.tolist()


def char_poly_doc(rng, n: int) -> dict:
    return {"schema": 1, "char_poly": _coefficients(stable_eigenvalues(rng, n))}


def eigenvalues_doc(values) -> dict:
    return {"schema": 1, "eigenvalues": [[v.real, v.imag, 1] for v in values]}


def matrices_doc(rng, n: int, inputs: int) -> dict:
    """A random well-conditioned similarity T (cond <= 4) of a companion pair.

    A second input column, when asked for, is T times a Gaussian vector.
    """
    coeffs = np.array(_coefficients(stable_eigenvalues(rng, n)))
    a_c = np.zeros((n, n))
    a_c[: n - 1, 1:] = np.eye(n - 1)
    a_c[n - 1, :] = -coeffs[:n]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = q * rng.uniform(0.5, 2.0, size=n)
    b = np.zeros((n, inputs))
    b[n - 1, 0] = 1.0
    if inputs > 1:
        b[:, 1:] = rng.standard_normal((n, inputs - 1))
    a = t @ a_c @ np.linalg.inv(t)
    return {"schema": 1, "matrices": {"A": a.tolist(), "B": (t @ b).tolist()}}


def repeated_eigenvalues_doc(rng, degree: int, pair: bool) -> dict:
    """Degree 3..8 spectrum with a repeated real root (multiplicity 2 or 3)
    or, when ``pair`` and degree >= 4, a repeated conjugate pair; the rest is
    simple.  Distinct values keep the 0.3 separation."""
    while True:
        entries = []
        if pair and degree >= 4:
            lam = complex(rng.uniform(*RE_RANGE), rng.uniform(*IM_RANGE))
            entries += [(lam, 2), (lam.conjugate(), 2)]
        else:
            entries.append((complex(rng.uniform(*RE_RANGE), 0.0), int(rng.integers(2, 4))))
        rest = degree - sum(m for _, m in entries)
        if rest < 0:
            continue
        if rest:
            entries += [(v, 1) for v in stable_eigenvalues(rng, rest)]
        values = np.array([v for v, _ in entries])
        gaps = np.abs(values[:, None] - values[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() >= SEPARATION:
            return {
                "schema": 1,
                "eigenvalues": [[v.real, v.imag, m] for v, m in entries],
            }


def _x0_arg(rng, n: int) -> str:
    return ",".join(repr(float(v)) for v in rng.standard_normal(n))


def _item(doc: dict, argv: list, kind: str) -> dict:
    n = (
        len(doc["char_poly"]) - 1 if "char_poly" in doc
        else len(doc["matrices"]["A"]) if "matrices" in doc
        else sum(m for _, _, m in doc["eigenvalues"])
    )
    return {"doc": doc, "argv": argv, "n": n, "kind": kind}


def cli_cold(rng, r: int) -> list:
    """One round: one document per command (analyze, roots, energy, verify);
    sources (char_poly, matrices, eigenvalues; single input, simple spectra)
    cycle across the commands and rounds, so two rounds give every command
    two of the three sources.  n is drawn from 3..6.  char_poly documents
    carry a random symmetric initial condition."""
    items = []
    for c, command in enumerate(COLD_COMMANDS):
        source = SOURCES[(r * len(COLD_COMMANDS) + c) % len(SOURCES)]
        n = int(rng.integers(3, 7))
        if source == "char_poly":
            doc = char_poly_doc(rng, n)
            p0 = rng.standard_normal((n, n))
            doc["initial_condition"] = (0.5 * (p0 + p0.T)).tolist()
        elif source == "matrices":
            doc = matrices_doc(rng, n, 1)
        else:
            doc = eigenvalues_doc(stable_eigenvalues(rng, n))
        argv = {
            "analyze": ANALYZE_FULL,
            "roots": ["roots"],
            "energy": ["energy", f"--x0={_x0_arg(rng, n)}"],
            "verify": ["verify"],
        }[command]
        items.append(_item(doc, list(argv), f"{command}/{source}"))
    return items


def analyze_ladder(rng, r: int) -> list:
    """One round: a char_poly document at each ladder size."""
    return [_item(char_poly_doc(rng, n), list(ANALYZE_FULL), "char_poly") for n in LADDER_SIZES]


def analyze_structured(rng, r: int) -> list:
    """One round: matrices documents at n = 3..7 and repeated-eigenvalue
    documents of degree 3..8.  The number of inputs (one or two) and the kind
    of repeat (a real root of multiplicity 2-3, or a conjugate pair of
    multiplicity 2) alternate with n and between rounds."""
    matrices = [
        _item(matrices_doc(rng, n, 1 + (n + r) % 2), list(ANALYZE_STRUCTURED), "matrices")
        for n in range(3, 8)
    ]
    repeated = [
        _item(repeated_eigenvalues_doc(rng, d, pair=(d + r) % 2 == 0),
              list(ANALYZE_STRUCTURED), "eigenvalues")
        for d in range(3, 9)
    ]
    return matrices + repeated


def verify_oracle(rng, r: int) -> list:
    """One round: a char_poly document at each verify size."""
    return [_item(char_poly_doc(rng, n), ["verify"], "char_poly") for n in VERIFY_SIZES]


# workload -> (one round of documents, rounds in the catalogue)
WORKLOADS = {
    "cli_cold": (cli_cold, 2),
    "analyze_ladder": (analyze_ladder, 8),
    "analyze_structured": (analyze_structured, 4),
    "verify_oracle": (verify_oracle, 6),
}
CATALOGUE_SEED = 20251210


def catalogue(workload: str) -> list:
    """The workload's documents as rounds of equal composition.

    The catalogue does not depend on the run seed: which documents fail, and
    by how many digits, differs between random document sets by more than
    the benchmark's bounds allow, so every run judges the same documents.
    """
    build, rounds = WORKLOADS[workload]
    rng = np.random.default_rng([CATALOGUE_SEED, sorted(WORKLOADS).index(workload)])
    return [build(rng, r) for r in range(rounds)]


def plan(workload: str, seed: int) -> list:
    """The workload's documents in the order one run visits them: the
    catalogue shuffled by the seed.  A run cycles through this order."""
    documents = [item for round_ in catalogue(workload) for item in round_]
    return [documents[k] for k in np.random.default_rng(seed).permutation(len(documents))]
