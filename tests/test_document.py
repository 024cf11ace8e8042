import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gramspec as gs
from gramspec.cli import EXIT_USAGE, cmd_analyze, main
from gramspec.document import (MatrixBlock, MatrixEntry, json_text, parse_initial_condition,
                               parse_system)

from references import json_text_each

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import generate  # noqa: E402


EXAMPLE1_DOC = {"schema": 1, "label": "example-1", "char_poly": [-6, 11, -6, 1]}


class TestParsing:
    def test_char_poly_document(self):
        doc = parse_system(json.dumps(EXAMPLE1_DOC))
        assert doc.source == "char_poly"
        assert doc.n == 3
        assert isinstance(doc.poly, gs.Polynomial) and doc.system is doc.spectrum is None
        assert np.allclose(doc.poly.coeffs, [-6, 11, -6, 1])

    def test_matrices_document(self):
        doc = parse_system({"matrices": {"A": [[-1.0]], "B": [[1.0]]}})
        assert doc.source == "matrices"
        assert doc.n == 1
        assert isinstance(doc.system, gs.LtiSystem) and doc.poly is doc.spectrum is None
        assert doc.system.a.shape == (1, 1) and doc.system.b.shape == (1, 1)

    def test_eigenvalue_document(self):
        doc = parse_system({"eigenvalues": [[1, 0, 2], [2, 0, 3]]})
        spec = doc.spectrum
        assert isinstance(spec, gs.Spectrum) and doc.system is doc.poly is None
        assert spec.n == 5
        assert spec.multiplicities.tolist() == [2, 3]

    def test_exclusivity(self):
        with pytest.raises(gs.SchemaError, match="exactly one"):
            parse_system({"char_poly": [1, 2], "eigenvalues": [[1, 0, 1]]})
        with pytest.raises(gs.SchemaError, match="exactly one"):
            parse_system({"label": "empty"})

    def test_non_monic_rejected(self):
        with pytest.raises(gs.SchemaError, match="char_poly"):
            parse_system({"char_poly": [1, 2, 2]})

    def test_dimension_mismatch_path(self):
        with pytest.raises(gs.SchemaError, match=r"^matrices: B must have 2 rows"):
            parse_system({"matrices": {"A": [[0, 1], [-1, -2]], "B": [[1]]}})

    def test_non_square_a(self):
        with pytest.raises(gs.SchemaError,
                           match=r"^matrices: A must be square, got shape \(2, 3\)$"):
            parse_system({"matrices": {"A": [[0, 1, 2], [1, 2, 3]], "B": [[1], [1]]}})

    def test_conjugate_closure_required(self):
        with pytest.raises(gs.SchemaError, match="conjugate"):
            parse_system({"eigenvalues": [[-1, 2, 1], [-3, 0, 1]]})

    def test_non_finite_eigenvalue(self):
        # json.loads accepts NaN and Infinity; the schema names the entry
        with pytest.raises(gs.SchemaError, match=r"^eigenvalues\[0\]: .*finite"):
            parse_system('{"schema": 1, "eigenvalues": [[NaN, 0, 1], [-2, 0, 1]]}')
        with pytest.raises(gs.SchemaError, match=r"^eigenvalues\[1\]: .*finite"):
            parse_system({"eigenvalues": [[-1, 0, 1], [-2, math.inf, 1], [-2, -math.inf, 1]]})

    def test_bad_multiplicity(self):
        with pytest.raises(gs.SchemaError, match="multiplicity"):
            parse_system({"eigenvalues": [[-1, 0, 0]]})

    def test_asymmetric_initial_condition(self):
        doc = {"char_poly": [-6, 11, -6, 1], "initial_condition": [[1, 2, 0], [0, 1, 0], [0, 0, 1]]}
        with pytest.raises(gs.SchemaError, match="symmetric"):
            parse_system(doc)

    def test_initial_condition_size(self):
        doc = {"char_poly": [-6, 11, -6, 1], "initial_condition": [[1, 0], [0, 1]]}
        with pytest.raises(gs.SchemaError, match="3x3"):
            parse_system(doc)

    def test_unknown_field(self):
        with pytest.raises(gs.SchemaError, match="unknown"):
            parse_system({"char_poly": [1, 1], "extra": 1})

    def test_invalid_json(self):
        with pytest.raises(gs.SchemaError, match="invalid JSON"):
            parse_system("{not json")

    def test_schema_version(self):
        with pytest.raises(gs.SchemaError, match="schema"):
            parse_system({"schema": 2, "char_poly": [1, 1]})


class TestNumbersOnly:
    """Where the schema expects a number, a string, a bool or null is refused
    with the path of the entry; json.loads gives them, numpy would convert
    them."""

    @pytest.mark.parametrize("schema", [True, 1.0, "1", None])
    def test_schema_is_the_integer_one(self, schema):
        with pytest.raises(gs.SchemaError, match=r"^schema: unsupported"):
            parse_system({"schema": schema, "char_poly": [6, 11, 6, 1]})

    @pytest.mark.parametrize("entry, value", [(2, True), (0, "6"), (1, "-1"), (2, None)])
    def test_char_poly(self, entry, value):
        coeffs = [6, 11, 6, 1]
        coeffs[entry] = value
        with pytest.raises(gs.SchemaError, match=rf"^char_poly\[{entry}\]: must be a number"):
            parse_system({"char_poly": coeffs})

    @pytest.mark.parametrize("part, value", [(0, "-1"), (0, True), (1, "0"), (1, None)])
    def test_eigenvalue_parts(self, part, value):
        eigenvalues = [[-1.0, 0.0, 1], [-2.0, 0.0, 1]]
        eigenvalues[1][part] = value
        with pytest.raises(gs.SchemaError, match=rf"^eigenvalues\[1\]\[{part}\]: must be"):
            parse_system({"eigenvalues": eigenvalues})

    @pytest.mark.parametrize("field, value", [("A", "-1"), ("A", False), ("B", "1"),
                                              ("B", None)])
    def test_matrices(self, field, value):
        matrices = {"A": [[0.0, 1.0], [-2.0, -3.0]], "B": [[0.0], [1.0]]}
        matrices[field][1][0] = value
        with pytest.raises(gs.SchemaError, match=rf"^matrices\.{field}\[1\]\[0\]: must be"):
            parse_system({"matrices": matrices})

    @pytest.mark.parametrize("value", ["0", True, None])
    def test_initial_condition(self, value):
        initial = [[1.0, 0.0], [0.0, 1.0]]
        initial[0][1] = value
        with pytest.raises(gs.SchemaError, match=r"^initial_condition\[0\]\[1\]: must be"):
            parse_system({"char_poly": [2, 3, 1], "initial_condition": initial})

    def test_numeric_arrays_in_process(self):
        doc = parse_system({
            "schema": 1,
            "matrices": {"A": np.array([[0, 1], [-2, -3]]), "B": np.array([[0.0], [1.0]])},
            "initial_condition": np.eye(2, dtype=np.float32),
        })
        assert doc.system.a.dtype == float and doc.initial_condition.matrix[1, 1] == 1.0
        assert parse_system({"char_poly": np.array([2, 3, 1])}).n == 2
        assert parse_system({"eigenvalues": [[np.float64(-1.0), np.int64(0), 1]]}).n == 1
        with pytest.raises(gs.SchemaError, match=r"^char_poly\[1\]: must be a number"):
            parse_system({"char_poly": np.array([2, True, 1], dtype=object)})
        with pytest.raises(gs.SchemaError, match=r"^char_poly\[0\]: must be a number"):
            parse_system({"char_poly": np.array([True, False])})

    def test_cli_exit_code(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text('{"char_poly": [6, 11, true, 1]}')
        assert main(["roots", str(path)]) == EXIT_USAGE
        assert "char_poly[2]: must be a number, got True" in capsys.readouterr().err


BIG = 10 ** 400  # a JSON integer past the float range
P0_DOC = {"char_poly": [2, 3, 1]}

# each field's record, built from the field's value as the document writes it
RECORD_OF = {
    "char_poly": gs.Polynomial,
    "matrices": lambda m: gs.LtiSystem(m["A"], m["B"]),
    "eigenvalues": lambda e: gs.Spectrum([complex(re, im) for re, im, _ in e],
                                         [mult for *_, mult in e]),
    "initial_condition": gs.InitialCondition,
}

# the parser's message for an integer the record cannot convert, by the path
# of its entry
BIG_BITS = f"an integer of {BIG.bit_length()} bits"
OVERSIZED = {"eigenvalues[0][2]": f"multiplicity takes the degree past 1000, got {BIG_BITS}"}

# name: (document, --initial value or None, path of the refusal); a path that
# names a field is a check of its record, a path that names an entry an
# integer the record cannot convert
BOUNDARY_CASES = {
    "char_poly ragged": ({"char_poly": [6, [11, 6], 1]}, None, "char_poly"),
    "char_poly degree 0": ({"char_poly": [1]}, None, "char_poly"),
    "char_poly non-finite": ({"char_poly": [6, math.inf, 6, 1]}, None, "char_poly"),
    "char_poly not monic": ({"char_poly": [6, 11, 6, 2]}, None, "char_poly"),
    "A not square": ({"matrices": {"A": [[0, 1, 2], [1, 2, 3]], "B": [[1], [1]]}}, None,
                     "matrices"),
    "B rows": ({"matrices": {"A": [[0, 1], [-2, -3]], "B": [[1]]}}, None, "matrices"),
    "B no columns": ({"matrices": {"A": [[-1.0]], "B": [[]]}}, None, "matrices"),
    "B non-finite": ({"matrices": {"A": [[0, 1], [-2, -3]], "B": [[0], [math.nan]]}}, None,
                     "matrices"),
    "P0 non-finite": (dict(P0_DOC, initial_condition=[[1, 0], [0, math.inf]]), None,
                      "initial_condition"),
    "P0 asymmetric": (dict(P0_DOC, initial_condition=[[1, 2], [0, 1]]), None,
                      "initial_condition"),
    "--initial non-finite": (P0_DOC, [[1, 0], [0, math.inf]], "initial_condition"),
    "--initial asymmetric": (P0_DOC, [[1, 2], [0, 1]], "initial_condition"),
    "char_poly oversized": ({"char_poly": [BIG, 1]}, None, "char_poly[0]"),
    "eigenvalues oversized": ({"eigenvalues": [[-1, 0, 1], [-BIG, 0, 1]]}, None,
                              "eigenvalues[1][0]"),
    "multiplicity oversized": ({"eigenvalues": [[-1, 0, BIG]]}, None, "eigenvalues[0][2]"),
    "matrices oversized": ({"matrices": {"A": [[-1.0]], "B": [[BIG]]}}, None,
                           "matrices.B[0][0]"),
    "P0 oversized": (dict(P0_DOC, initial_condition=[[1, 0], [0, BIG]]), None,
                     "initial_condition[1][1]"),
    "--initial oversized": (P0_DOC, [[1, 0], [0, BIG]], "initial_condition[1][1]"),
}


@pytest.mark.parametrize("name", BOUNDARY_CASES)
def test_one_check_two_boundaries(name, tmp_path, capsys):
    """Each check runs in one place.  A record's check refuses the value with
    a ValueError, which the parser reports at the field with the record's
    message; an integer past the float range, on which the record's float
    conversion overflows, the parser refuses at the entry.  Every command
    exits 1 with that one stderr line."""
    doc, initial, path = BOUNDARY_CASES[name]
    field = path.split("[")[0].split(".")[0]
    with pytest.raises((ValueError, OverflowError)) as refusal:
        RECORD_OF[field](doc[field] if initial is None else initial)
    if path == field:
        assert type(refusal.value) is ValueError
        message = str(refusal.value)
    else:
        assert type(refusal.value) is OverflowError
        message = OVERSIZED.get(path, f"must be a number in the float range, got {BIG_BITS}")

    text = json.dumps(doc)
    with pytest.raises(gs.SchemaError) as schema_error:
        if initial is None:
            parse_system(text)
        else:
            parse_initial_condition(json.loads(json.dumps(initial)), parse_system(text).n)
    assert (schema_error.value.path, str(schema_error.value)) == (path, f"{path}: {message}")

    doc_path = tmp_path / "doc.json"
    doc_path.write_text(text)
    if initial is None:
        runs = [["roots"], ["analyze"], ["verify"], ["energy", "--x0", "1"]]
    else:
        p0_path = tmp_path / "p0.json"
        p0_path.write_text(json.dumps(initial))
        runs = [["analyze", "--finite", "1", "--initial", str(p0_path)]]
    for argv in runs:
        assert main(argv + [str(doc_path)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"schema error: {path}: {message}\n")


# a JSON integer of more digits than int() converts, which json.loads refuses,
# in a document's char_poly and initial_condition
HUGE = "1" + "0" * 5000
HUGE_DOCS = ['{"schema": 1, "char_poly": [%s, 1]}' % HUGE,
             '{"char_poly": [2, 3, 1], "initial_condition": [[1, 0], [0, %s]]}' % HUGE]


def test_integer_past_digit_limit(tmp_path, capsys):
    """json.loads refuses an integer past sys.get_int_max_str_digits() with
    the plain ValueError of int(), which counts the digits without echoing
    them.  The document parser and --initial's reader report it as a schema
    error, and every command exits 1 with that one stderr line."""
    with pytest.raises(ValueError) as refusal:
        int(HUGE)
    limit = str(refusal.value)
    assert "5001 digits" in limit and HUGE[:100] not in limit

    doc_path = tmp_path / "doc.json"
    for text in HUGE_DOCS:
        with pytest.raises(gs.SchemaError) as refusal:
            parse_system(text)
        assert (refusal.value.path, str(refusal.value)) == ("$", f"$: invalid JSON: {limit}")
        doc_path.write_text(text)
        for argv in (["roots"], ["analyze"], ["verify"], ["energy", "--x0", "1"]):
            assert main(argv + [str(doc_path)]) == EXIT_USAGE
            assert capsys.readouterr() == ("", f"schema error: $: invalid JSON: {limit}\n")

    p0_path = tmp_path / "p0.json"
    p0_path.write_text("[[1, 0], [0, %s]]" % HUGE)
    doc_path.write_text(json.dumps(P0_DOC))
    argv = ["analyze", "--finite", "1", "--initial", str(p0_path), str(doc_path)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", f"schema error: initial_condition: cannot read {p0_path}: {limit}\n")


def test_document_not_utf8(tmp_path, capsys):
    """A document file that does not decode as UTF-8 is a schema error at
    ``$``, as an unreadable file is: every command exits 1 with one stderr
    line and writes no report."""
    doc_path = tmp_path / "doc.json"
    doc_path.write_bytes(b'{"schema": 1, "label": "\xff", "char_poly": [6, 11, 6, 1]}')
    for argv in (["roots"], ["analyze"], ["verify"], ["energy", "--x0", "1,0,0"]):
        assert main(argv + [str(doc_path)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, (argv, err)
        assert err.startswith(f"schema error: $: cannot read {doc_path}: 'utf-8' codec"), err


def test_eigenvalues_degree_cap():
    """A multiplicity is an integer the Spectrum record holds as it is, so the
    parser bounds the degree it describes; an integer past 64 bits is named by
    its size, not echoed."""
    assert parse_system({"eigenvalues": [[-1, 0, 600], [-2, 0, 400]]}).n == 1000
    refused = {
        "eigenvalues[0][2]: multiplicity takes the degree past 1000, got 4611686018427387904":
            [[-1, 0, 2 ** 62]],
        "eigenvalues[1][2]: multiplicity takes the degree past 1000, got 401":
            [[-1, 0, 600], [-2, 0, 401]],
        f"eigenvalues[0][2]: multiplicity must be a positive integer, got {BIG_BITS}":
            [[-1, 0, -BIG]],
    }
    for message, entries in refused.items():
        with pytest.raises(gs.SchemaError) as refusal:
            parse_system({"eigenvalues": entries})
        assert str(refusal.value) == message


# floats whose text or table entry the emitter could get wrong: equal zeros of
# either sign, the non-finite values, exponent forms, and values equal to ints
EDGE_FLOATS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e16, 1e-5, 1.0, -1.0])
FLOATS = st.one_of(EDGE_FLOATS, st.floats())
# ASCII, escapes, control characters, non-ASCII and an astral character
TEXT = st.text(st.sampled_from('az "\\/\n\t\x00\x7f\u00e9\u03bb\u2014\U0001d400'), max_size=8)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, TEXT,
    st.sampled_from([0, 1, -1, True, False]),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.lists(FLOATS, min_size=1, max_size=6),
        st.dictionaries(TEXT, children, max_size=6),
    )


JSON_VALUES = st.recursive(SCALARS, _containers, max_leaves=20)


class TestJsonText:
    """json_text writes the text of json.dumps(value, sort_keys=True, indent=2)."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(JSON_VALUES)
    @example([0.0, -0.0, 0.0, -0.0])
    @example([-0.0, [0.0, -0.0], {"a": 0.0, "b": -0.0}])
    @example([1.0, 1, True, [True, 1.0, 1], [0, 0.0, False, -0.0]])
    @example([math.nan, math.inf, -math.inf, [math.nan, math.inf, -math.inf]])
    @example((1.0, (2.0, ()), {"t": (0.5, 0.5)}, []))
    @example({"\u00e9t\u00e9": "\u03bb \u2014 \U0001d400", "": {}, "a\nb": [[], {}]})
    @example([np.float64(-0.0), 0.0, np.float64(2.5), 2.5, np.float64("nan")])
    def test_equals_json_dumps(self, value):
        assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_unserializable_value_refused(self):
        for value in ([np.int64(1)], {"a": object()}):
            with pytest.raises(TypeError):
                json.dumps(value, sort_keys=True, indent=2)
            with pytest.raises(TypeError):
                json_text(value)


def _expanded(value):
    """``value`` with every MatrixBlock and MatrixEntry replaced by its dict."""
    if isinstance(value, (MatrixBlock, MatrixEntry)):
        return {key: value[key] for key in value}
    if isinstance(value, dict):
        return {key: _expanded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_expanded(item) for item in value]
    return value


def _block(keys, re, im, residuals) -> MatrixBlock:
    """A block from separate real and imaginary parts, so that signed zeros,
    infinities and NaNs reach the stack unchanged (1j * inf is not 0 + inf j)."""
    matrices = np.empty(np.shape(re), dtype=complex)
    matrices.real, matrices.imag = re, im
    return MatrixBlock(keys, matrices, residuals)


def _entry(re, im, residual) -> MatrixEntry:
    """An entry from separate real and imaginary parts, as ``_block``."""
    matrix = np.empty(np.shape(re), dtype=complex)
    matrix.real, matrix.imag = re, im
    return MatrixEntry(matrix, residual)


KEYS = st.one_of(
    st.integers(1, 12).map(str),
    st.tuples(st.integers(1, 12), st.integers(1, 12)).map(lambda ij: f"{ij[0]},{ij[1]}"),
)


@st.composite
def matrix_blocks(draw):
    n = draw(st.integers(1, 4))
    keys = draw(st.lists(KEYS, unique=True, max_size=5))
    shape = (len(keys), n, n)
    size = int(np.prod(shape))
    re, im = (np.array(draw(st.lists(FLOATS, min_size=size, max_size=size)), dtype=float)
              .reshape(shape) for _ in range(2))
    residuals = draw(st.lists(st.one_of(st.none(), FLOATS), min_size=len(keys),
                              max_size=len(keys)))
    return _block(keys, re, im, residuals)


@st.composite
def matrix_entries(draw):
    n = draw(st.integers(1, 4))
    re, im = (np.array(draw(st.lists(FLOATS, min_size=n * n, max_size=n * n)), dtype=float)
              .reshape(n, n) for _ in range(2))
    return _entry(re, im, draw(st.one_of(st.none(), FLOATS)))


# report-shaped values: blocks and entries next to scalars, lists and dicts
REPORTS = st.recursive(
    st.one_of(SCALARS, matrix_blocks(), matrix_entries()),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=8,
)


NEGATIVE_NAN = math.copysign(math.nan, -1.0)
TINY = 5e-324  # the smallest subnormal


def assert_text_matches(value):
    """json_text writes ``value`` as json.dumps writes its expansion, and as
    the writer it replaced wrote it."""
    text = json_text(value)
    assert text == json.dumps(_expanded(value), sort_keys=True, indent=2)
    assert text == json_text_each(value)


class TestMatrixBlock:
    """json_text writes a block as json.dumps writes the dict of its entries."""

    @staticmethod
    def assert_text_matches(block):
        assert_text_matches(block)
        nested = {"sum": 1.5, "block": block, "more": {"block": block, "t": -0.0}}
        assert_text_matches(nested)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(matrix_blocks())
    def test_equals_json_dumps(self, block):
        self.assert_text_matches(block)

    @pytest.mark.parametrize("keys, re, im, residuals", [
        # signed zeros in both parts
        (["1"], [[[0.0, -0.0], [-0.0, 0.0]]], [[[-0.0, 0.0], [0.0, -0.0]]], [0.0]),
        # infinities, a NaN with its sign bit set, subnormals
        (["1", "2"],
         [[[math.inf, -math.inf], [NEGATIVE_NAN, TINY]], [[-TINY, math.nan], [1e-310, -1.0]]],
         [[[-math.inf, NEGATIVE_NAN], [-TINY, 2.2250738585072014e-308]],
          [[math.nan, math.inf], [-1e-310, 1e16]]],
         [math.inf, NEGATIVE_NAN]),
        # n = 1
        (["1"], [[[2.5]]], [[[-2.5]]], [None]),
        # an empty block
        ([], np.zeros((0, 1, 1)), np.zeros((0, 1, 1)), []),
        # None and float residuals, equal magnitudes of either sign
        (["3", "1", "2"], [[[1.0]], [[-1.0]], [[0.1]]], [[[-0.1]], [[0.1]], [[1.0]]],
         [None, 1e-17, -0.0]),
    ])
    def test_pinned_examples(self, keys, re, im, residuals):
        self.assert_text_matches(_block(keys, np.array(re), np.array(im), residuals))

    def test_keys_sort_as_strings(self):
        keys = ["1,2", "2", "1,10", "10"]
        values = np.arange(4.0).reshape(4, 1, 1)
        block = _block(keys, values, -values, [None, 1.0, 2.0, 3.0])
        assert list(block) == ["1,10", "1,2", "10", "2"]
        assert block["10"] == {"matrix": {"re": [[3.0]], "im": [[-3.0]]}, "residual": 3.0}
        assert block["2"]["residual"] == 1.0
        self.assert_text_matches(block)
        text = json_text(block)
        assert text.index('"1,10"') < text.index('"1,2"') < text.index('"10"') < text.index('"2"')

    def test_read_only(self):
        block = _block(["1"], np.ones((1, 2, 2)), np.zeros((1, 2, 2)), [None])
        entry = block["1"]
        entry["matrix"]["re"][0][0] = 5.0
        assert block["1"]["matrix"]["re"] == [[1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(TypeError):
            block["2"] = entry
        with pytest.raises(ValueError):
            block._stack[0, 0, 0] = 5.0

    @pytest.mark.parametrize("keys, matrices, residuals", [
        (["1", "1"], np.zeros((2, 2, 2)), [None, None]),  # a repeated key
        (["1", "2"], np.zeros((2, 2, 2)), [None]),  # a missing residual
        (["1"], np.zeros((1, 2, 3)), [None]),  # not square
    ])
    def test_malformed_block_refused(self, keys, matrices, residuals):
        with pytest.raises(ValueError):
            MatrixBlock(keys, matrices, residuals)


class TestMatrixEntry:
    """json_text writes an entry as json.dumps writes its dict."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(matrix_entries())
    def test_equals_json_dumps(self, entry):
        assert_text_matches(entry)
        assert_text_matches({"sum": entry, "eigen": {"1": entry}, "t": 1.0})

    @pytest.mark.parametrize("re, im, residual", [
        ([[0.0, -0.0], [-0.0, 0.0]], [[-0.0, 0.0], [0.0, -0.0]], -0.0),
        ([[math.inf, NEGATIVE_NAN], [TINY, -1e16]], [[math.nan, -math.inf], [-TINY, 0.1]],
         NEGATIVE_NAN),
        ([[2.5]], [[-2.5]], None),
    ])
    def test_pinned_examples(self, re, im, residual):
        assert_text_matches(_entry(np.array(re), np.array(im), residual))

    def test_mapping(self):
        entry = MatrixEntry(np.array([[1.0, 2.0], [3.0, 4.0]]), np.float64(0.5))
        assert list(entry) == ["matrix", "residual"] and len(entry) == 2
        assert entry == {"matrix": {"re": [[1.0, 2.0], [3.0, 4.0]],
                                    "im": [[0.0, 0.0], [0.0, 0.0]]},
                         "residual": 0.5}
        assert type(entry["residual"]) is float
        with pytest.raises(KeyError):
            entry["sum"]

    def test_read_only_copy(self):
        matrix = np.ones((2, 2), dtype=complex)
        entry = MatrixEntry(matrix, None)
        matrix[0, 0] = 5.0
        entry["matrix"]["re"][0][0] = 5.0
        assert entry["matrix"]["re"] == [[1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(TypeError):
            entry["residual"] = 1.0
        with pytest.raises(ValueError):
            entry._stack[0, 0, 0] = 5.0

    @pytest.mark.parametrize("matrix", [np.zeros((2, 3)), np.zeros(3), np.zeros((0, 0)),
                                        np.zeros((1, 2, 2))])
    def test_malformed_entry_refused(self, matrix):
        with pytest.raises(ValueError):
            MatrixEntry(matrix, None)


class TestReportValues:
    """Blocks and entries in one value share one float table; the text is
    json.dumps's and the replaced writer's."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(REPORTS)
    def test_equals_json_dumps(self, value):
        assert_text_matches(value)

    def test_shared_values_and_keys_past_nine(self):
        # the same magnitudes, with either sign, in a block, an entry and a
        # scalar; keys "10".."12" sort before "2"
        values = np.array([[0.0, -0.0], [math.nan, -math.inf]])
        stack = np.stack([values * (-1.0) ** k + 1j * k for k in range(12)])
        block = MatrixBlock(map(str, range(1, 13)), stack, [None] * 12)
        value = {"eigen": block, "sum": MatrixEntry(-stack[4], -0.0),
                 "empty": MatrixBlock([], [], []), "t": -1.0,
                 "pair": {"1,10": MatrixEntry(stack[9], 1.0), "1,2": MatrixEntry(stack[1], 2.0)}}
        assert_text_matches(value)
        assert list(block)[:4] == ["1", "10", "11", "12"]


def _catalogue_reports(workload: str, raw: bool = False):
    """(name, report) of every rendered analyze report of the workload's
    catalogue documents; documents that exit with an error render none."""
    items = [item for round_ in generate.catalogue(workload) for item in round_]
    for k, item in enumerate(items):
        argv = item["argv"]
        try:
            report = cmd_analyze(parse_system(item["doc"]), pairs="--pairs" in argv,
                                 inverse="--inverse" in argv, finite=1.0, raw=raw)
        except gs.GramspecError:
            continue
        yield f"{workload}/{k}", report


class TestCatalogueReports:
    """json_text writes every report of the analyze catalogues byte for byte
    as the writer it replaced."""

    @pytest.mark.parametrize("workload, raw", [
        ("analyze_ladder", False), ("analyze_structured", False), ("analyze_structured", True),
    ])
    def test_same_bytes_as_replaced_writer(self, workload, raw):
        names = []
        for name, report in _catalogue_reports(workload, raw):
            assert json_text(report) == json_text_each(report), name
            names.append(name)
        assert len(names) >= (24 if workload == "analyze_ladder" else 44)
