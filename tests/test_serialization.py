import copy
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_quadrature_data
from qmor import cases, serialization, systems
from qmor.analysis import FrequencyResponse
from qmor.errors import SchemaError
from qmor.reduction import reduce_left, reduce_passive, reduce_right


def test_quadrature_round_trip_bit_exact(tmp_path):
    sys_q = systems.random_realizable_quadrature(3, 2, 1, 77)
    path = tmp_path / "sys.json"
    serialization.save_system(sys_q, path)
    loaded = serialization.load_system(path)
    assert np.array_equal(loaded.A, sys_q.A)
    assert np.array_equal(loaded.B, sys_q.B)
    assert np.array_equal(loaded.C, sys_q.C)
    assert np.array_equal(loaded.D, sys_q.D)


def test_annihilation_round_trip_bit_exact(tmp_path):
    sys_a = systems.random_realizable_annihilation(4, 2, 1, 78)
    path = tmp_path / "sys.json"
    serialization.save_system(sys_a, path)
    loaded = serialization.load_system(path)
    for name in "FGHK":
        assert np.array_equal(getattr(loaded, name), getattr(sys_a, name))


def test_double_round_trip_stable(tmp_path):
    sys_q = cases.optomechanical_system()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    serialization.save_system(sys_q, p1)
    serialization.save_system(serialization.load_system(p1), p2)
    assert p1.read_text() == p2.read_text()


def _per_entry_real(m):
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def _per_entry_complex(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def _per_entry_points(points):
    return [[float(p.real), float(p.imag)] for p in np.asarray(points, dtype=complex)]


def _example_matrices():
    ex1 = cases.optomechanical_system()
    ex2 = cases.control_case_fixture()["quantum_controller"]
    ex3 = cases.cascaded_cavity_system()
    results = [
        reduce_right(ex1, cases.ex1_interpolation_data()),
        reduce_right(ex2, cases.ex2_interpolation_data()),
        reduce_passive(ex3, cases.ex3_interpolation_data()),
    ]
    real, complex_ = [], [result.w for result in results] + [result.v for result in results]
    for system in [ex1, ex2, ex3] + [result.reduced for result in results]:
        target = complex_ if np.iscomplexobj(system.state_space()[0]) else real
        target.extend(system.state_space())
    return real, complex_, results


def test_matrix_encoding_matches_per_entry_text():
    # The encoders emit the same JSON text as the per-entry float() encoding.
    edge = np.array(
        [[-0.0, 0.0, 5e-324, -5e-324, 1e-310], [1e308, -1e308, 1.7976931348623157e308, 0.1, -2.5]]
    )
    real, complex_, results = _example_matrices()
    real.append(edge)
    complex_ += [edge + 1j * edge[::-1], edge * (-1j), np.array([[complex(-0.0, -0.0)]])]
    for m in real:
        expected = json.dumps(_per_entry_real(m))
        assert json.dumps(serialization.real_matrix_to_json(m)) == expected
    for m in complex_ + real:
        expected = json.dumps(_per_entry_complex(m))
        assert json.dumps(serialization.complex_matrix_to_json(m)) == expected
    # Interpolation data and reduced poles: 1-D and 2-D complex arrays.
    data = [(result.data.points, result.data.directions) for result in results]
    data.append(((edge + 1j * edge[::-1]).ravel(), edge * (-1j)))
    for points, directions in data:
        expected = {"points": _per_entry_points(points), "directions": _per_entry_complex(directions)}
        got = serialization.points_to_dict(points, directions)
        assert json.dumps(got) == json.dumps(expected)
    for result, method in zip(results, ["right", "right", "passive"]):
        poles = serialization.reduction_to_dict(result, method)["diagnostics"]["poles"]
        assert json.dumps(poles) == json.dumps(_per_entry_points(result.diagnostics.poles))


@pytest.mark.parametrize(
    "obj",
    [
        [[-0.0, 0.0, 5e-324], [1e308, -2.5, 3]],
        [[[-0.0, -0.0], [1, 2.5]], [[0.0, -1e-310], [7, -0.0]]],
        [[True, 1], [False, 2.5]],
        [[[True, 1]]],
        [[2**62 + 1, 2**63], [2**64, -(2**63)]],
        [[1, [2, 3]]],
        [[]],
    ],
    ids=["real", "pairs", "bools", "bool-pair", "large-ints", "mixed", "empty-row"],
)
def test_matrix_decoding_matches_per_entry_reading(obj):
    # One np.array call decodes numbers and [re, im] pairs; the entry-by-entry
    # reading is the reference, bit for bit (signed zeros included).
    expected = np.array(
        [[serialization._entry_to_complex(x, "M") for x in row] for row in obj], dtype=complex
    )
    got = serialization.complex_matrix_from_json(obj, "M")
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "obj, message",
    [
        ([[1.5, 10**400]], "M: an integer entry is too large for a float"),
        ([[[1, 2], [3]]], "M: entries must be numbers or [re, im] pairs, got [3]"),
        ([[1, "2"]], "M: entries must be numbers or [re, im] pairs, got '2'"),
        ([[[1, 2, 3]]], "M: entries must be numbers or [re, im] pairs, got [1, 2, 3]"),
        ([[[[1, 2]]]], "M: entries must be numbers or [re, im] pairs, got [[1, 2]]"),
        ([[None, 1.0]], "M: entries must be numbers or [re, im] pairs, got None"),
        ([[[1.0, math.inf]]], "M contains non-finite entries"),
    ],
)
def test_matrix_decoding_names_the_bad_entry(obj, message):
    with pytest.raises(SchemaError) as raised:
        serialization.complex_matrix_from_json(obj, "M")
    assert str(raised.value) == message


def test_schema_rejects_unknown_form():
    with pytest.raises(SchemaError, match="form"):
        serialization.system_from_dict({"form": "modal", "A": [[1.0]]})


def test_schema_rejects_missing_matrix():
    doc = serialization.system_to_dict(cases.optomechanical_system())
    doc.pop("B")
    with pytest.raises(SchemaError, match="missing"):
        serialization.system_from_dict(doc)


@pytest.mark.parametrize(
    "declared, message",
    [
        (7, "n=7"),
        ("x", "n must be an integer, got 'x'"),
        ([3], r"n must be an integer, got \[3\]"),
        (3.5, "n must be an integer, got 3.5"),
        (True, "n must be an integer, got True"),
    ],
    ids=["mismatch", "string", "list", "float", "bool"],
)
def test_schema_rejects_declared_dimension_mismatch(declared, message):
    doc = serialization.system_to_dict(cases.optomechanical_system())
    doc["n"] = declared
    with pytest.raises(SchemaError, match=message):
        serialization.system_from_dict(doc)


def test_schema_rejects_ragged_matrix():
    with pytest.raises(SchemaError, match="ragged"):
        serialization.real_matrix_from_json([[1.0, 2.0], [3.0]], "A")


def test_schema_rejects_bad_entries():
    with pytest.raises(SchemaError):
        serialization.complex_matrix_from_json([[{"re": 1}]], "F")


def test_points_round_trip():
    points = np.array([1.5j, -1.5j, 0.25 + 0j])
    directions = np.array([[1.0, 1j], [1.0, -1j], [0.5, 0.0]])
    doc = serialization.points_to_dict(points, directions)
    parsed_points, parsed_dirs = serialization.points_from_dict(
        json.loads(json.dumps(doc))
    )
    assert np.array_equal(parsed_points, points)
    assert np.array_equal(parsed_dirs, directions)


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_points_reject_non_finite(value):
    data = cases.ex1_interpolation_data()
    text = json.dumps(serialization.points_to_dict(data.points, data.directions))
    doc = json.loads(text.replace("[0.0, 10500.0]", f"[{value}, 1.0]", 1))
    with pytest.raises(SchemaError, match="points contains non-finite entries"):
        serialization.points_from_dict(doc)


def test_reduction_bundle_round_trip_quadrature(tmp_path):
    sys_q = cases.optomechanical_system()
    result = reduce_right(sys_q, cases.ex1_interpolation_data())
    path = tmp_path / "reduction.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialization.reduction_to_dict(result, "right"), fh)
    method, loaded = serialization.load_reduction(path)
    assert method == "right"
    assert np.array_equal(loaded.w, result.w)
    assert np.array_equal(loaded.v, result.v)
    assert np.array_equal(loaded.reduced.A, result.reduced.A)
    assert loaded.data.side == "right"


def test_reduction_bundle_round_trip_passive(tmp_path):
    sys_a = cases.cascaded_cavity_system()
    result = reduce_passive(sys_a, cases.ex3_interpolation_data(), pr_tol=1e-8)
    path = tmp_path / "reduction.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialization.reduction_to_dict(result, "passive"), fh)
    method, loaded = serialization.load_reduction(path)
    assert method == "passive"
    assert np.array_equal(loaded.v, result.v)
    assert np.iscomplexobj(loaded.v)


def _reductions():
    """A reduction of every method: ex1 right, a random left, ex3 passive."""
    quad = systems.random_realizable_quadrature(3, 2, 1, 41)
    return {
        "left": reduce_left(quad, make_quadrature_data(quad, "left", 1)),
        "right": reduce_right(cases.optomechanical_system(), cases.ex1_interpolation_data()),
        "passive": reduce_passive(cases.cascaded_cavity_system(), cases.ex3_interpolation_data()),
    }


def test_reduction_projections_encode_by_dtype():
    # Real left/right projections are plain numbers, complex passive ones pairs.
    for method, result in _reductions().items():
        doc = serialization.reduction_to_dict(result, method)
        for name in "WV":
            entries = [x for row in doc[name] for x in row]
            if method == "passive":
                assert all(isinstance(x, list) and len(x) == 2 for x in entries)
            else:
                assert all(type(x) is float for x in entries)


@pytest.mark.parametrize("layout", ["numbers", "pairs"])
def test_reduction_projections_load_bit_for_bit(layout):
    # Documents written with [re, im] pairs for a real W and V still load,
    # to the same bits as the plain-number layout (signed zeros included).
    for method, result in _reductions().items():
        doc = serialization.reduction_to_dict(result, method)
        if layout == "pairs":
            doc["W"] = serialization.complex_matrix_to_json(result.w)
            doc["V"] = serialization.complex_matrix_to_json(result.v)
        loaded = serialization.reduction_from_dict(json.loads(json.dumps(doc)))
        for got, expected in ((loaded.w, result.w), (loaded.v, result.v)):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "obj",
    [
        [[-0.0, 0.0, 5e-324], [1e308, -2.5, 3]],
        [[1, 2], [-3, 0]],
        [[[-0.0, 0.0], [1, -0.0]], [[0.0, -0.0], [7, 0]]],
        [[True, 1], [False, 2.5]],
        [[2**62 + 1, 2**63], [2**64, -(2**63)]],
        [[]],
    ],
    ids=["real", "ints", "zero-pairs", "bools", "large-ints", "empty-row"],
)
def test_real_matrix_decoding_matches_the_complex_reading(obj):
    expected = np.ascontiguousarray(serialization.complex_matrix_from_json(obj, "M").real)
    got = serialization.real_matrix_from_json(obj, "M")
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "obj, message",
    [
        ([[1.5, math.inf]], "M contains non-finite entries"),
        ([[1.5, math.nan], [2.0, 1.0]], "M contains non-finite entries"),
        ([[1.5, 0.5], [2.0]], "M has ragged rows"),
        ([[1.5, "2"]], "M: entries must be numbers or [re, im] pairs, got '2'"),
        ([[1.5, [2.0, 0.5]]], "M must be real"),
        (np.eye(2), "M must be a non-empty nested array"),
        ([(1.5, 2.0)], "M must be a non-empty nested array"),
        ([], "M must be a non-empty nested array"),
    ],
)
def test_real_matrix_decoding_keeps_its_messages(obj, message):
    with pytest.raises(SchemaError) as raised:
        serialization.real_matrix_from_json(obj, "M")
    assert str(raised.value) == message


@pytest.mark.parametrize("matrix", ["W", "V"])
def test_reduction_rejects_projection_of_wrong_order(matrix):
    result = reduce_right(cases.optomechanical_system(), cases.ex1_interpolation_data())
    doc = serialization.reduction_to_dict(result, "right")
    doc[matrix] = [row[:-1] for row in doc[matrix]]
    with pytest.raises(SchemaError, match=f"{matrix} has 3 columns, the reduced order is 4"):
        serialization.reduction_from_dict(doc)


@pytest.mark.parametrize("document", [[], [{"method": "left"}], {"reduced": {}}])
def test_load_reduction_rejects_malformed_documents(tmp_path, document):
    path = tmp_path / "reduction.json"
    path.write_text(json.dumps(document))
    with pytest.raises(SchemaError):
        serialization.load_reduction(path)


@pytest.mark.parametrize("matrix", ["W", "V"])
def test_reduction_rejects_complex_projection_of_real_method(matrix):
    result = reduce_right(cases.optomechanical_system(), cases.ex1_interpolation_data())
    doc = serialization.reduction_to_dict(result, "right")
    doc[matrix][0][0] = [doc[matrix][0][0], 0.5]
    with pytest.raises(SchemaError, match=f"{matrix} must be real"):
        serialization.reduction_from_dict(doc)


def test_reduction_rejects_zero_direction():
    result = reduce_right(cases.optomechanical_system(), cases.ex1_interpolation_data())
    doc = serialization.reduction_to_dict(result, "right")
    doc["data"]["directions"][1] = [[0.0, 0.0] for _ in doc["data"]["directions"][1]]
    with pytest.raises(SchemaError, match="direction 1 is the zero vector"):
        serialization.reduction_from_dict(doc)


@functools.lru_cache(maxsize=None)
def _fuzz_documents():
    """The system, points and reduction documents of ex1 (right) and ex3 (passive)."""
    docs = {"system": [], "points": [], "reduction": []}
    for system, data, reduce, method in [
        (cases.optomechanical_system(), cases.ex1_interpolation_data(), reduce_right, "right"),
        (cases.cascaded_cavity_system(), cases.ex3_interpolation_data(), reduce_passive, "passive"),
    ]:
        doc = serialization.reduction_to_dict(reduce(system, data), method)
        docs["system"].append(serialization.system_to_dict(system))
        docs["points"].append(doc["data"])
        docs["reduction"].append(doc)
    return docs


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**1100), 2**1100)
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["left", "right", "passive", "quadrature", "annihilation"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(list("ABCDFGHKWV") + ["n", "m", "ell"]), children, max_size=4),
    max_leaves=12,
)


def _zeroed(node):
    """``node`` with every number set to 0.0."""
    if isinstance(node, list):
        return [_zeroed(x) for x in node]
    if isinstance(node, dict):
        return {k: _zeroed(v) for k, v in node.items()}
    return 0.0 if isinstance(node, (int, float)) and not isinstance(node, bool) else node


def _paths(node, depth=3):
    """Key paths to every node of ``node`` down to ``depth`` levels, the root's ``()`` first."""
    out = [()]
    if depth and isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            out += [(key,) + path for path in _paths(child, depth - 1)]
    return out


def _mutate(data, doc):
    """``doc`` with one node replaced, deleted, emptied, zeroed or duplicated."""
    root = {"doc": copy.deepcopy(doc)}
    path = ("doc",) + data.draw(st.sampled_from(_paths(doc)), label="path")
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    actions = ["replace", "delete", "empty", "zero", "duplicate"]
    action = data.draw(st.sampled_from(actions), label="action")
    if action == "delete" and parent is not root:
        del parent[key]
    elif action == "empty":
        parent[key] = type(parent[key])() if isinstance(parent[key], (dict, list)) else None
    elif action == "zero":
        parent[key] = _zeroed(parent[key])
    elif action == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = data.draw(_JSON_VALUES, label="value")
    return root["doc"]


@pytest.mark.parametrize("kind", ["system", "points", "reduction"])
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_loaders_reject_mutated_documents_with_schema_error(kind, data):
    # Every mutation is either still a valid document or a SchemaError (exit 2).
    loader = {
        "system": serialization.system_from_dict,
        "points": serialization.points_from_dict,
        "reduction": serialization.reduction_from_dict,
    }[kind]
    doc = data.draw(st.sampled_from(_fuzz_documents()[kind]), label="document")
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        doc = _mutate(data, doc)
    try:
        loader(json.loads(json.dumps(doc)))
    except SchemaError:
        pass


def test_error_curve_csv_full_precision(tmp_path):
    path = tmp_path / "curve.csv"
    value = math.pi * 1e-3
    serialization.write_error_curve_csv(path, [(1.0 / 3.0, value)])
    lines = path.read_text().splitlines()
    assert lines[0] == "omega,error"
    omega, err = lines[1].split(",")
    assert float(omega) == 1.0 / 3.0
    assert float(err) == value


def test_error_curve_csv_bytes_match_per_row_formatting(tmp_path):
    # Signed zeros, infinities and NaN, as numpy scalars formatted row by row.
    curve = np.array([
        [0.0, -0.0],
        [-0.0, 0.0],
        [1.0 / 3.0, math.inf],
        [-2.5e-300, -math.inf],
        [803422.5816510525, math.nan],
        [1e308, 2.0000000000000004],
    ])
    path = tmp_path / "curve.csv"
    serialization.write_error_curve_csv(path, curve)
    expected = "omega,error\n" + "".join(f"{o:.17g},{e:.17g}\n" for o, e in curve)
    assert path.read_bytes() == expected.encode("utf-8")
    assert b"-0,0\n" in path.read_bytes() and b"inf" in path.read_bytes()


def test_error_curve_csv_bytes_match_f_string_formatting(tmp_path):
    # Every pair of these values, in both columns: the one-format-call file
    # is byte for byte the row-by-row f-string form.
    edge = [0.0, -0.0, 5e-324, 1.0 / 3.0, 1e308, math.inf, -math.inf, math.nan]
    curve = np.array([(o, e) for o in edge for e in edge])
    path = tmp_path / "curve.csv"
    serialization.write_error_curve_csv(path, curve)
    expected = "omega,error\n" + "".join(f"{o:.17g},{e:.17g}\n" for o, e in curve.tolist())
    assert path.read_bytes() == expected.encode("utf-8")


def test_error_surface_csv_writes_singular_points_as_nan(tmp_path):
    # error_surface marks a singular point NaN, of either sign.
    values = np.array([[0.25, math.nan], [-math.nan, 1.0 / 3.0]])
    path = tmp_path / "surface.csv"
    serialization.write_error_surface_csv(path, [-1.0, 0.0], [2.0, 3.0], values)
    assert path.read_text().splitlines() == [
        "re,im,error",
        "-1,2,0.25",
        "0,2,nan",
        "-1,3,nan",
        "0,3,0.33333333333333331",
    ]


def test_frequency_response_csv_layout(tmp_path):
    response = FrequencyResponse(
        omegas=np.array([2.0]),
        values=[np.array([[1.0 + 1.0j, 0.5], [0.25j, -1.0]])],
        skipped=[(1.0, "resolvent singular")],
    )
    path = tmp_path / "freq.csv"
    serialization.write_frequency_response_csv(path, response)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "omega"
    assert "entry_11_re" in header and "entry_22_im" in header
    assert "entry_21_db" in header and "entry_12_deg" in header
    assert lines[1].startswith("# warning: omega 1 skipped")
    row = lines[2].split(",")
    assert float(row[0]) == 2.0
    assert len(row) == 1 + 2 * 4 + 2 * 4
