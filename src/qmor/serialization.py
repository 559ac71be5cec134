"""JSON and CSV input/output.

System documents carry a ``form`` tag (``quadrature`` or ``annihilation``),
the mode/field counts, and the four matrices.  Real matrices are plain nested
number arrays; complex entries are two-element ``[re, im]`` arrays.  A
reduction document's projection matrices ``W`` and ``V`` follow their dtype:
the real ones of a left or right reduction are plain numbers, the complex
ones of a passive reduction pairs; a left or right document with pairs whose
imaginary parts are zero (the older layout) still loads.  A real matrix of
plain numbers decodes in one ``np.array`` call.  Floats round-trip
bit-for-bit through ``json`` (shortest-repr encoding).

CSV files use full double precision (17 significant digits) so downstream
plots are reproducible; rows the evaluator skipped are emitted as ``#``
comment lines.
"""

import json
import math

import numpy as np

from .errors import QmorError, SchemaError
from .reduction import InterpolationData, ReductionResult, data_side
from .systems import AnnihilationSystem, QuadratureSystem


def real_matrix_to_json(m):
    return np.asarray(m, dtype=float).tolist()


def complex_matrix_to_json(m):
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def _entry_to_complex(entry, name):
    try:
        if isinstance(entry, (int, float)):
            return complex(entry)
        if (
            isinstance(entry, (list, tuple))
            and len(entry) == 2
            and all(isinstance(x, (int, float)) for x in entry)
        ):
            return complex(entry[0], entry[1])
    except OverflowError as exc:
        raise SchemaError(f"{name}: an integer entry is too large for a float") from exc
    raise SchemaError(f"{name}: entries must be numbers or [re, im] pairs, got {entry!r}")


def _matrix_to_json(m):
    """A real matrix as plain numbers, a complex one as ``[re, im]`` pairs: chosen by dtype."""
    return real_matrix_to_json(m) if np.isrealobj(m) else complex_matrix_to_json(m)


def _numbers(obj, name):
    """``obj`` read by one ``np.array`` call, or ``None`` when numpy cannot read it.

    Raises unless ``obj`` is a non-empty list of rows of equal length.
    """
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SchemaError(f"{name} must be a non-empty nested array")
    width = len(obj[0])
    if any(len(r) != width for r in obj):
        raise SchemaError(f"{name} has ragged rows")
    try:
        return np.array(obj)
    except (ValueError, OverflowError):  # pairs mixed with numbers, ragged pairs, huge integers
        return None


def _complex_matrix(obj, numbers, name):
    """The complex matrix of ``obj``, whose :func:`_numbers` reading is ``numbers``."""
    if (
        numbers is not None
        and numbers.dtype.kind in "fi"
        and numbers.shape[2:] in ((), (2,))
    ):
        # Assign the parts: re + 1j * im would turn an entry's -0.0 into +0.0.
        m = np.zeros(numbers.shape[:2], dtype=complex)
        if numbers.ndim == 2:
            m.real = numbers
        else:
            m.real, m.imag = numbers[..., 0], numbers[..., 1]
    else:
        # Booleans, strings, oversized integers and malformed entries: the
        # entry-by-entry reading names the first bad one.
        m = np.array([[_entry_to_complex(x, name) for x in r] for r in obj], dtype=complex)
    if not np.all(np.isfinite(m)):
        raise SchemaError(f"{name} contains non-finite entries")
    return m


def real_matrix_from_json(obj, name):
    numbers = _numbers(obj, name)
    if numbers is not None and numbers.ndim == 2 and numbers.dtype.kind in "fi":
        if not np.isfinite(numbers).all():
            raise SchemaError(f"{name} contains non-finite entries")
        return numbers.astype(float, copy=False)
    # Pairs, and entries numpy cannot read as numbers, take the complex reading.
    m = _complex_matrix(obj, numbers, name)
    if np.abs(m.imag).max(initial=0.0) != 0.0:
        raise SchemaError(f"{name} must be real")
    return np.ascontiguousarray(m.real)


def complex_matrix_from_json(obj, name):
    return _complex_matrix(obj, _numbers(obj, name), name)


#: Per form tag: the system class, its matrix names, and the matrix encoder and decoder.
_FORMS = {
    "quadrature": (QuadratureSystem, "ABCD", real_matrix_to_json, real_matrix_from_json),
    "annihilation": (AnnihilationSystem, "FGHK", complex_matrix_to_json, complex_matrix_from_json),
}


def system_to_dict(system):
    for form, (cls, names, encode, _) in _FORMS.items():
        if isinstance(system, cls):
            doc = {"form": form, "n": system.n_modes, "m": system.n_inputs, "ell": system.n_outputs}
            doc.update(zip(names, map(encode, system.state_space())))
            return doc
    raise SchemaError(f"cannot serialize {type(system).__name__}")


def system_from_dict(data):
    if not isinstance(data, dict):
        raise SchemaError("system document must be a JSON object")
    form = data.get("form")
    if not isinstance(form, str) or form not in _FORMS:
        raise SchemaError(f"unknown or missing form {form!r}")
    cls, names, _, decode = _FORMS[form]
    missing = [k for k in names if k not in data]
    if missing:
        raise SchemaError(f"missing matrices {missing}")
    mats = [decode(data[k], k) for k in names]
    try:
        system = cls(*mats)
    except Exception as exc:
        raise SchemaError(f"inconsistent system matrices: {exc}") from exc
    for field_name, actual in (
        ("n", system.n_modes),
        ("m", system.n_inputs),
        ("ell", system.n_outputs),
    ):
        if field_name not in data:
            continue
        declared = data[field_name]
        if not isinstance(declared, int) or isinstance(declared, bool):
            raise SchemaError(f"{field_name} must be an integer, got {declared!r}")
        if declared != actual:
            raise SchemaError(
                f"declared {field_name}={declared} but matrices imply {actual}"
            )
    return system


def read_json(path):
    """Parse the JSON file at ``path``; a read or parse failure is a :class:`SchemaError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


def load_system(path):
    return system_from_dict(read_json(path))


def write_json(path, doc):
    """Write ``doc`` as indented JSON with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def save_system(system, path):
    write_json(path, system_to_dict(system))


def points_to_dict(points, directions):
    return {
        "points": complex_matrix_to_json(points),
        "directions": complex_matrix_to_json(np.atleast_2d(directions)),
    }


def points_from_dict(data):
    if not isinstance(data, dict) or "points" not in data or "directions" not in data:
        raise SchemaError("expected an object with 'points' and 'directions'")
    raw_points = data["points"]
    if not isinstance(raw_points, list) or not raw_points:
        raise SchemaError("'points' must be a non-empty array")
    points = complex_matrix_from_json([raw_points], "points")[0]
    directions = complex_matrix_from_json(data["directions"], "directions")
    if directions.shape[0] != points.shape[0]:
        raise SchemaError(
            f"{points.shape[0]} points but {directions.shape[0]} directions"
        )
    return points, directions


def reduction_to_dict(result, method):
    diag = result.diagnostics
    doc = {
        "method": method,
        "reduced": system_to_dict(result.reduced),
        "data": points_to_dict(result.data.points, result.data.directions),
        "W": _matrix_to_json(result.w),
        "V": _matrix_to_json(result.v),
    }
    if diag is not None:
        doc["diagnostics"] = {
            "interpolation_residuals": list(map(float, diag.interpolation_residuals)),
            "interpolation_references": list(map(float, diag.interpolation_references)),
            "realizability_residuals": list(map(float, diag.realizability.residuals)),
            "realizability_tol": diag.realizability.tol,
            "realizability_passes": diag.realizability.passes,
            "biorthogonality": diag.biorthogonality,
            "poles": complex_matrix_to_json(diag.poles),
        }
    return doc


def reduction_from_dict(data):
    if not isinstance(data, dict):
        raise SchemaError("reduction document must be a JSON object")
    for key in ("method", "reduced", "data", "W", "V"):
        if key not in data:
            raise SchemaError(f"reduction document is missing {key!r}")
    method = data["method"]
    if method not in ("left", "right", "passive"):
        raise SchemaError(f"unknown reduction method {method!r}")
    reduced = system_from_dict(data["reduced"])
    points, directions = points_from_dict(data["data"])
    # Left and right projections are real; only a passive one may be complex.
    # Either may be written as plain numbers or as [re, im] pairs.
    decode = complex_matrix_from_json if method == "passive" else real_matrix_from_json
    w, v = decode(data["W"], "W"), decode(data["V"], "V")
    order = reduced.state_space()[0].shape[0]
    for name, m in (("W", w), ("V", v)):
        if m.shape[1] != order:
            raise SchemaError(f"{name} has {m.shape[1]} columns, the reduced order is {order}")
    try:
        interpolation = InterpolationData(data_side(method), points, directions)
    except QmorError as exc:
        raise SchemaError(f"invalid interpolation data: {exc}") from exc
    return ReductionResult(w=w, v=v, reduced=reduced, data=interpolation, diagnostics=None)


def load_reduction(path):
    data = read_json(path)
    result = reduction_from_dict(data)
    return data["method"], result


def _fmt(x):
    return f"{x:.17g}"


def write_error_curve_csv(path, pointwise):
    """The ``(k, 2)`` curve as ``omega,error`` rows, ``.17g`` each, in one write."""
    values = np.asarray(pointwise)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("omega,error\n" + "%.17g,%.17g\n" * len(values) % tuple(values.ravel().tolist()))


def write_frequency_response_csv(path, response):
    """Transfer samples: re/im of every entry in row-major order, then dB/deg."""
    if response.values:
        rows, cols = response.values[0].shape
    else:
        rows = cols = 0
    header = ["omega"]
    for i in range(rows):
        for j in range(cols):
            header += [f"entry_{i + 1}{j + 1}_re", f"entry_{i + 1}{j + 1}_im"]
    for i in range(rows):
        for j in range(cols):
            header += [f"entry_{i + 1}{j + 1}_db", f"entry_{i + 1}{j + 1}_deg"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for omega, reason in response.skipped:
            fh.write(f"# warning: omega {_fmt(omega)} skipped ({reason})\n")
        for omega, value in zip(response.omegas, response.values):
            cells = [_fmt(omega)]
            flat = value.reshape(-1)
            for x in flat:
                cells += [_fmt(x.real), _fmt(x.imag)]
            for x in flat:
                mag = abs(x)
                db = 20.0 * math.log10(mag) if mag > 0 else -math.inf
                cells += [_fmt(db), _fmt(math.degrees(np.angle(x)))]
            fh.write(",".join(cells) + "\n")


def write_error_surface_csv(path, real_points, imag_points, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re,im,error\n")
        for i, im in enumerate(imag_points):
            for j, re in enumerate(real_points):
                fh.write(f"{_fmt(re)},{_fmt(im)},{_fmt(values[i, j])}\n")


def write_scan_trace_csv(path, trace):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("phase,omegas,cost,feasible,reason\n")
        for entry in trace:
            omegas = ";".join(_fmt(w) for w in entry["omegas"])
            reason = entry.get("reason", "").replace(",", ";").replace("\n", " ")
            fh.write(
                f"{entry['phase']},{omegas},{_fmt(entry['cost'])},"
                f"{int(entry['feasible'])},{reason}\n"
            )


def write_selection(out, chosen, cost_kind):
    """Write a frequency search's ``selected_points.json`` and ``scan_trace.csv`` into ``out``."""
    doc = {
        "omegas": real_matrix_to_json(chosen.omegas),
        "cost": chosen.cost,
        "cost_kind": cost_kind,
        "points": complex_matrix_to_json(chosen.points),
    }
    write_json(out / "selected_points.json", doc)
    write_scan_trace_csv(out / "scan_trace.csv", chosen.trace)
