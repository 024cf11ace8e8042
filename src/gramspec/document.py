"""System document schema and parsing, and the JSON text of reports.

A document describes the system under analysis in exactly one of three ways:
state-space matrices, monic characteristic-polynomial coefficients, or an
explicit eigenvalue list with multiplicities.  An optional symmetric initial
condition and a label may ride along.  Complex numbers never appear in a
document (eigenvalues are (re, im, multiplicity) triples).  ``parse_system``
builds the records the document describes, and each record's constructor
checks its own values: the parser checks only what JSON leaves open, and a
record's refusal becomes a SchemaError at its field.  ``json_text``
writes a report as plain JSON with sorted keys; its keyed component blocks
are ``MatrixBlock`` mappings and its single matrices ``MatrixEntry``
mappings, which it writes from their arrays with one table of float texts
per report.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii

import numpy as np

from .companion import LtiSystem
from .errors import Record, SchemaError
from .gramians import InitialCondition
from .spectrum import Polynomial, Spectrum

SCHEMA_VERSION = 1
_SOURCES = ("matrices", "char_poly", "eigenvalues")


class SystemDocument(Record):
    """A parsed system document: the records the pipeline runs on.

    Exactly one source is set: ``system`` (the LtiSystem of a ``matrices``
    document), ``poly`` (the Polynomial of a ``char_poly`` one) or
    ``spectrum`` (the Spectrum of an ``eigenvalues`` one).
    ``initial_condition`` is an InitialCondition or None.
    """

    def __init__(self, system: LtiSystem | None = None, poly: Polynomial | None = None,
                 spectrum: Spectrum | None = None,
                 initial_condition: InitialCondition | None = None, label: str | None = None):
        self.__dict__.update(system=system, poly=poly, spectrum=spectrum,
                             initial_condition=initial_condition, label=label)

    @property
    def source(self) -> str:
        if self.system is not None:
            return "matrices"
        return "char_poly" if self.poly is not None else "eigenvalues"

    @property
    def n(self) -> int:
        if self.system is not None:
            return self.system.n
        return self.poly.degree if self.poly is not None else self.spectrum.n


class MatrixBlock(Mapping):
    """A read-only block of keyed complex n x n matrices, each with a residual.

    ``block[key]`` is ``{"matrix": {"re": rows, "im": rows}, "residual": r}``
    (r a float or None), built on access.  The matrices are held as one
    (k, n, n) stack, in the order of the keys sorted as strings, which is
    the order ``json_text`` writes them in.  ``matrices`` is a (k, n, n)
    array or a list of matrices in the order of ``keys``; a read-only
    complex array already in that order is held as it is, anything else is
    copied.
    """

    __slots__ = ("_keys", "_index", "_stack", "_residuals")

    def __init__(self, keys, matrices, residuals):
        keys, residuals = list(keys), list(residuals)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self._keys = tuple(keys[i] for i in order)
        self._index = {key: k for k, key in enumerate(self._keys)}
        if len(self._index) != len(keys) or len(residuals) != len(keys):
            raise ValueError("a matrix block needs distinct keys and one residual per key")
        if not keys:
            stack = np.zeros((0, 0, 0), dtype=complex)
        else:
            stack = np.asarray(matrices, dtype=complex)
            if (stack.ndim != 3 or stack.shape[1] != stack.shape[2] or not stack.shape[1]
                    or len(stack) != len(keys)):
                raise ValueError(f"matrix block needs {len(keys)} square matrices, "
                                 f"got shape {stack.shape}")
            if stack.flags.writeable or order != list(range(len(keys))):
                stack = stack[order]
        stack.flags.writeable = False
        self._stack = stack
        self._residuals = tuple(None if residuals[i] is None else float(residuals[i])
                                for i in order)

    def __getitem__(self, key) -> dict:
        k = self._index[key]
        m = self._stack[k]
        return {"matrix": {"re": m.real.tolist(), "im": m.imag.tolist()},
                "residual": self._residuals[k]}

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class MatrixEntry(Mapping):
    """A read-only complex n x n matrix with its residual: the one-matrix
    counterpart of ``MatrixBlock``, which ``json_text`` writes the same way.

    ``entry["matrix"]`` is ``{"re": rows, "im": rows}``, built on access, and
    ``entry["residual"]`` is a float or None.  The matrix is copied.
    """

    __slots__ = ("_stack", "_residuals")

    def __init__(self, matrix, residual):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise ValueError(f"a matrix entry needs a square matrix, got shape {m.shape}")
        m.flags.writeable = False
        self._stack = m[None]
        self._residuals = (None if residual is None else float(residual),)

    def __getitem__(self, key):
        if key == "matrix":
            m = self._stack[0]
            return {"re": m.real.tolist(), "im": m.imag.tolist()}
        if key == "residual":
            return self._residuals[0]
        raise KeyError(key)

    def __iter__(self):
        return iter(("matrix", "residual"))

    def __len__(self) -> int:
        return 2


def json_text(value) -> str:
    """The text of ``json.dumps(value, sort_keys=True, indent=2)``, where a
    ``MatrixBlock`` or ``MatrixEntry`` stands for the dict of its entries.

    Dict keys must be strings.  The floats of every block and entry form one
    table: each distinct magnitude is formatted once per call, since a
    report's symmetrized matrices repeat their mirrored entries and their
    zeros, and their sums repeat the components' values.  Each matrix is
    then written by interleaving its float texts with separators that depend
    only on n and the indent.  Other floats are formatted where they stand.
    """
    chunks: list = []
    matrices: list = []  # (position in chunks, block or entry, indent)
    _encode(value, "\n", chunks, matrices)
    if matrices:
        # per matrix, the "im" rows and then the "re" rows: the sorted key order
        values = np.concatenate([np.concatenate((holder._stack.imag, holder._stack.real), axis=1)
                                 for _, holder, _ in matrices], axis=None)
        floats = _float_texts(values.view(np.uint64))
        start = 0
        for position, holder, indent in matrices:
            end = start + 2 * holder._stack.size
            chunks[position] = _matrices_text(holder, floats[start:end], indent)
            start = end
    return "".join(chunks)


_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _SPECIAL_FLOATS.get(text, text)


_ONLY_FLOATS = {float}


def _encode(value, indent: str, chunks: list, matrices: list) -> None:
    """Append the text of ``value`` to ``chunks``; ``indent`` is the line
    break and indent of the nesting ``value`` sits at.  A block or entry
    leaves a None in ``chunks`` and is listed in ``matrices``."""
    if type(value) is float:
        chunks.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        inner = indent + "  "
        if not value:
            chunks.append("[]")
        elif set(map(type, value)) == _ONLY_FLOATS:
            chunks.append("[" + inner + ("," + inner).join(map(_float_text, value))
                          + indent + "]")
        else:
            separator = "["
            for item in value:
                chunks.append(separator + inner)
                _encode(item, inner, chunks, matrices)
                separator = ","
            chunks.append(indent + "]")
    elif isinstance(value, dict):
        inner = indent + "  "
        if not value:
            chunks.append("{}")
        else:
            separator = "{"
            for key, item in sorted(value.items()):
                chunks.append(separator + inner + encode_basestring_ascii(key) + ": ")
                _encode(item, inner, chunks, matrices)
                separator = ","
            chunks.append(indent + "}")
    elif type(value) in (MatrixBlock, MatrixEntry):
        if value:
            matrices.append((len(chunks), value, indent))
            chunks.append(None)
        else:
            chunks.append("{}")
    elif isinstance(value, str):
        chunks.append(encode_basestring_ascii(value))
    elif value is None:
        chunks.append("null")
    elif value is True:
        chunks.append("true")
    elif value is False:
        chunks.append("false")
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    elif isinstance(value, float):  # a subclass such as np.float64
        chunks.append(_float_text(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_SIGN_BIT = np.uint64(1 << 63)
_INFINITY_BITS = np.float64(np.inf).view(np.uint64)


def _float_texts(bits: np.ndarray) -> list:
    """The JSON text of each float whose bits are ``bits``.

    Each distinct magnitude is formatted once; a set sign bit prefixes "-",
    except on NaN, which JSON writes unsigned.
    """
    distinct, which = np.unique(bits & ~_SIGN_BIT, return_inverse=True)
    texts = list(map(float.__repr__, distinct.view(np.float64).tolist()))
    signed = list(map("-".__add__, texts))
    # magnitudes sort as their bits, so infinity and NaN come last
    for i in range(int(np.searchsorted(distinct, _INFINITY_BITS)), len(texts)):
        texts[i] = _SPECIAL_FLOATS[texts[i]]
        signed[i] = "NaN" if texts[i] == "NaN" else "-" + texts[i]
    table = np.array(texts + signed, dtype=object)
    return table[which + len(texts) * (bits >> 63).astype(np.intp)].tolist()


@functools.cache
def _template(n: int, i1: str) -> tuple:
    """(opening, gaps, closing) of one n x n matrix entry whose key sits at
    the indent ``i1``: its text up to its first float, the text after each of
    its 2 n^2 floats but the last (a None in the last place), and its text
    after its last float up to the residual's value."""
    i2, i3, i4, i5 = i1 + "  ", i1 + "    ", i1 + "      ", i1 + "        "
    part = (["," + i5] * (n - 1) + [i4 + "]," + i4 + "[" + i5]) * n
    gaps = part[:-1] + [i4 + "]" + i3 + "]," + i3 + '"re": [' + i4 + "[" + i5] + part[:-1]
    opening = "{" + i2 + '"matrix": {' + i3 + '"im": [' + i4 + "[" + i5
    closing = i4 + "]" + i3 + "]" + i2 + "}," + i2 + '"residual": '
    return opening, tuple(gaps) + (None,), closing


def _matrices_text(holder, floats: list, indent: str) -> str:
    """The text of a non-empty block or an entry at ``indent``, from the
    texts of its floats in write order."""
    block = type(holder) is MatrixBlock
    i1 = indent + "  " if block else indent
    opening, gaps, closing = _template(holder._stack.shape[1], i1)
    tails = [closing + ("null" if r is None else _float_text(r)) + i1 + "}"
             for r in holder._residuals]
    if block:
        heads = [("," if j else "{") + i1 + encode_basestring_ascii(key) + ": " + opening
                 for j, key in enumerate(holder._keys)]
        tails[-1] += indent + "}"
    else:
        heads = [opening]
    # after the last float of each matrix: its tail, then the next one's head
    joints = [tail + head for tail, head in zip(tails, heads[1:])] + tails[-1:]
    after = list(gaps) * len(tails)
    after[len(gaps) - 1::len(gaps)] = joints
    pieces = [None] * (2 * len(floats) + 1)
    pieces[0] = heads[0]
    pieces[1::2] = floats
    pieces[2::2] = after
    return "".join(pieces)


_NUMBERS = (int, float, np.integer, np.floating)
_FLOAT_MAX = float(np.finfo(float).max)
# the other sources write each coefficient or entry, but a multiplicity can
# describe a degree far past its text; 1000 is well past the degree-16
# envelope and keeps every n x n matrix a command forms small
_MAX_DEGREE = 1000


def _require_numbers(raw, path: str) -> None:
    """Refuse (SchemaError at its path) a str, bool, null or any other
    non-number in ``raw``, a number or nested lists of numbers, and an
    integer past the float range; a numeric numpy array passes as it is.
    numpy would convert "-1" and true, and float() overflows on the integer."""
    pending = [(raw, path)]
    while pending:
        item, where = pending.pop()
        if isinstance(item, np.ndarray):
            if item.dtype.kind not in "iuf":
                pending.append((item.tolist(), where))
        elif isinstance(item, (list, tuple)):
            pending += [(sub, f"{where}[{k}]") for k, sub in reversed(list(enumerate(item)))]
        elif isinstance(item, bool) or not isinstance(item, _NUMBERS):
            raise SchemaError(where, f"must be a number, got {item!r}")
        elif isinstance(item, int) and not -_FLOAT_MAX <= item <= _FLOAT_MAX:
            raise SchemaError(where, f"must be a number in the float range, got an integer "
                                     f"of {item.bit_length()} bits")


def _record(path: str, cls, *args):
    """``cls(*args)``: a record, whose constructor checks its values; its
    ValueError becomes a SchemaError at ``path``."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


def _as_float_matrix(raw, path: str) -> np.ndarray:
    """A JSON list of rows of numbers as a float array."""
    _require_numbers(raw, path)
    try:
        m = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(path, f"not a numeric matrix: {exc}") from None
    if m.ndim != 2:
        raise SchemaError(path, f"expected a matrix (list of rows), got ndim={m.ndim}")
    return m


def _parse_matrices(raw, path: str) -> LtiSystem:
    if not isinstance(raw, dict) or set(raw) != {"A", "B"}:
        raise SchemaError(path, "must be an object with exactly the keys 'A' and 'B'")
    a = _as_float_matrix(raw["A"], f"{path}.A")
    b = _as_float_matrix(raw["B"], f"{path}.B")
    return _record(path, LtiSystem, a, b)


def _shown(value) -> str:
    """repr(value), but an integer past 64 bits by its size alone."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"an integer of {value.bit_length()} bits"
    return repr(value)


def _parse_eigenvalues(raw, path: str) -> Spectrum:
    if not isinstance(raw, list) or not raw:
        raise SchemaError(path, "must be a non-empty list of [re, im, multiplicity] triples")
    entries = []
    degree = 0
    for k, item in enumerate(raw):
        p = f"{path}[{k}]"
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise SchemaError(p, "must be a [re, im, multiplicity] triple")
        re, im, mult = item
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise SchemaError(f"{p}[2]",
                              f"multiplicity must be a positive integer, got {_shown(mult)}")
        if mult > _MAX_DEGREE - degree:
            raise SchemaError(f"{p}[2]", f"multiplicity takes the degree past {_MAX_DEGREE}, "
                                         f"got {_shown(mult)}")
        degree += mult
        _require_numbers(re, f"{p}[0]")
        _require_numbers(im, f"{p}[1]")
        try:
            lam = complex(float(re), float(im))
        except (TypeError, ValueError):
            raise SchemaError(p, "re and im must be numbers") from None
        if not np.isfinite(lam):
            raise SchemaError(p, f"re and im must be finite, got {lam}")
        entries.append((lam, mult))
    # conjugate closure keeps the implied system matrices real
    for lam, mult in entries:
        if lam.imag != 0.0 and (np.conj(lam), mult) not in entries:
            raise SchemaError(
                path,
                f"complex eigenvalue {lam} needs its conjugate with the same multiplicity",
            )
    values, mults = zip(*entries)
    return _record(path, Spectrum, np.array(values), np.array(mults))


def parse_initial_condition(raw, n: int) -> InitialCondition:
    """The initial condition P_0 of an n-state system, an n x n list of rows."""
    initial = _as_float_matrix(raw, "initial_condition")
    if initial.shape != (n, n):
        raise SchemaError(
            "initial_condition", f"must be {n}x{n} to match the system, got {initial.shape}"
        )
    return _record("initial_condition", InitialCondition, initial)


def parse_system(text_or_mapping) -> SystemDocument:
    """Parse a system document from JSON text or a mapping into its records.

    Raises SchemaError with the offending field path.
    """
    if isinstance(text_or_mapping, (str, bytes)):
        try:
            data = json.loads(text_or_mapping)
        except ValueError as exc:  # also an integer past the int() digit limit
            raise SchemaError("$", f"invalid JSON: {exc}") from None
    else:
        data = text_or_mapping
    if not isinstance(data, dict):
        raise SchemaError("$", "document must be a JSON object")

    schema = data.get("schema", SCHEMA_VERSION)
    if (isinstance(schema, bool) or not isinstance(schema, (int, np.integer))
            or schema != SCHEMA_VERSION):
        raise SchemaError("schema", f"unsupported schema version {schema!r}")

    known = set(_SOURCES) | {"schema", "label", "initial_condition"}
    for key in data:
        if key not in known:
            raise SchemaError(key, "unknown field")

    present = [key for key in _SOURCES if key in data]
    if len(present) != 1:
        raise SchemaError(
            "$", f"exactly one of {_SOURCES} must be present, got {present or 'none'}"
        )

    if present[0] == "matrices":
        doc = SystemDocument(system=_parse_matrices(data["matrices"], "matrices"))
    elif present[0] == "char_poly":
        _require_numbers(data["char_poly"], "char_poly")
        doc = SystemDocument(poly=_record("char_poly", Polynomial, data["char_poly"]))
    else:
        doc = SystemDocument(spectrum=_parse_eigenvalues(data["eigenvalues"], "eigenvalues"))

    initial = None
    if "initial_condition" in data:
        initial = parse_initial_condition(data["initial_condition"], doc.n)

    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise SchemaError("label", "must be a string")
    return doc._replace(initial_condition=initial, label=label)
