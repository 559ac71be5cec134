import json
import math
import re

import numpy as np
import pytest

from qmor import analysis, cases, cli, linalg, serialization, systems
from qmor.cli import main
from qmor.reduction import reduce_passive, reduce_right
from qmor.selection import tangent_directions

from conftest import make_quadrature_data, stable_reduction_cases


@pytest.fixture()
def ex1_system_path(tmp_path):
    path = tmp_path / "sys1.json"
    serialization.save_system(cases.optomechanical_system(), path)
    return path


@pytest.fixture()
def ex1_points_path(tmp_path):
    data = cases.ex1_interpolation_data()
    path = tmp_path / "pts1.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialization.points_to_dict(data.points, data.directions), fh)
    return path


def test_check_pr_passes(ex1_system_path, capsys):
    assert main(["check-pr", str(ex1_system_path)]) == 0
    assert "pass" in capsys.readouterr().out


def test_check_pr_detects_corrupted_feedthrough(tmp_path, capsys):
    sys_q = cases.optomechanical_system()
    d = sys_q.D.copy()
    d[0, 0] = -d[0, 0]
    broken = systems.QuadratureSystem(A=sys_q.A, B=sys_q.B, C=sys_q.C, D=d)
    path = tmp_path / "broken.json"
    serialization.save_system(broken, path)
    assert main(["check-pr", str(path)]) == 1
    out = capsys.readouterr().out
    residual_3 = float(out.splitlines()[3].split(":")[1])
    assert residual_3 > 0.1


def test_check_pr_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check-pr", str(path)]) == 2


@pytest.mark.parametrize("declared", ['"x"', "[3]"])
def test_check_pr_non_integer_dimension_exits_2(tmp_path, declared, capsys):
    doc = serialization.system_to_dict(cases.optomechanical_system())
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc).replace('"n": 3', f'"n": {declared}'))
    assert main(["check-pr", str(path)]) == 2
    assert capsys.readouterr().err == f"error: n must be an integer, got {json.loads(declared)!r}\n"


HUGE = "9" * 400  # a JSON integer beyond the float range


def test_check_pr_huge_integer_exits_2(tmp_path, capsys):
    doc = serialization.system_to_dict(cases.optomechanical_system())
    doc["A"][0][0] = "HUGE"
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc).replace('"HUGE"', HUGE))
    assert main(["check-pr", str(path)]) == 2
    assert capsys.readouterr().err == "error: A: an integer entry is too large for a float\n"


@pytest.mark.parametrize("point", [HUGE, f"[0, {HUGE}]"])
def test_reduce_huge_integer_point_exits_2(
    tmp_path, ex1_system_path, ex1_points_path, point, capsys
):
    doc = json.loads(ex1_points_path.read_text())
    text = json.dumps({**doc, "points": ["HUGE"] + doc["points"][1:]})
    path = tmp_path / "pts.json"
    path.write_text(text.replace('"HUGE"', point))
    argv = ["reduce", str(ex1_system_path), "--method", "right", "--points", str(path)]
    assert main(argv + ["--out", str(tmp_path / "red")]) == 2
    assert capsys.readouterr().err == "error: points: an integer entry is too large for a float\n"
    assert not (tmp_path / "red").exists()


def test_reduce_non_finite_point_exits_2(tmp_path, ex1_system_path, ex1_points_path, capsys):
    text = ex1_points_path.read_text().replace("[0.0, 10500.0]", "[NaN, 1.0]", 1)
    path = tmp_path / "pts.json"
    path.write_text(text)
    argv = ["reduce", str(ex1_system_path), "--method", "right", "--points", str(path)]
    assert main(argv + ["--out", str(tmp_path / "red")]) == 2
    assert capsys.readouterr().err == "error: points contains non-finite entries\n"


@pytest.mark.parametrize(
    "points, code, message",
    [
        ("[1,", 2, "inline points is not valid JSON: Expecting value: line 1 column 4 (char 3)"),
        (
            "[[0,1],[0,2]]",
            1,
            "data item 0 (point 1j) has no conjugate partner; "
            "quadrature-form reductions need conjugation-closed data",
        ),
    ],
    ids=["unparsable", "unpaired"],
)
def test_reduce_rejected_points_write_nothing(
    tmp_path, ex1_system_path, points, code, message, capsys
):
    # A parse error is a usage error; right data that are not closed under
    # conjugation are infeasible.  Either way: one line, and no output directory.
    argv = ["reduce", str(ex1_system_path), "--method", "right", "--points", points]
    argv += ["--dirs", json.dumps([[0, 0, 0, 0, 1, 0]] * 2), "--out", str(tmp_path / "red")]
    assert main(argv) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "red").exists()


def test_reduce_and_analyze_chain(tmp_path, ex1_system_path, ex1_points_path, capsys):
    out_dir = tmp_path / "red"
    code = main(
        [
            "reduce",
            str(ex1_system_path),
            "--method",
            "right",
            "--points",
            str(ex1_points_path),
            "--r",
            "2",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    assert (out_dir / "reduced.json").exists()
    bundle = json.loads((out_dir / "reduction.json").read_text())
    assert bundle["method"] == "right"
    poles = [complex(re, im) for re, im in bundle["diagnostics"]["poles"]]
    for target in (-50 + 1e4j, -50 - 1e4j):
        assert min(abs(p - target) for p in poles) <= 0.01 * abs(target)

    ana_dir = tmp_path / "ana"
    code = main(
        [
            "analyze",
            str(ex1_system_path),
            str(out_dir / "reduction.json"),
            "--out",
            str(ana_dir),
        ]
    )
    assert code == 0
    report = json.loads((ana_dir / "error_report.json").read_text())
    assert report["stable"]
    assert report["hinf_error_estimate"] == pytest.approx(2.00, rel=0.02)
    assert report["hinf_bound_left"] == pytest.approx(2.45, rel=0.05)
    assert report["hinf_bound_right"] == pytest.approx(3.96e3, rel=0.10)
    curve = (ana_dir / "error_curve.csv").read_text().splitlines()
    assert curve[0] == "omega,error"
    assert len(curve) > 1000


def test_reduce_deterministic_outputs(tmp_path, ex1_system_path, ex1_points_path):
    args = [
        "reduce",
        str(ex1_system_path),
        "--method",
        "right",
        "--points",
        str(ex1_points_path),
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("reduced.json", "reduction.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_reduce_bare_array_points(tmp_path, ex1_system_path, ex1_points_path, capsys):
    # The bare-array form of --points takes its directions from --dirs and
    # gives the same reduction as the combined document.
    points = json.dumps([[0, 10500], [0, -10500], [0, 10500], [0, -10500]])
    e5, e6 = np.eye(6)[4:].tolist()
    dirs = json.dumps([e5, e5, e6, e6])
    args = ["reduce", str(ex1_system_path), "--method", "right"]
    bare = args + ["--points", points, "--dirs", dirs, "--out", str(tmp_path / "bare")]
    assert main(bare) == 0
    assert main(args + ["--points", str(ex1_points_path), "--out", str(tmp_path / "doc")]) == 0
    for name in ("reduced.json", "reduction.json"):
        assert (tmp_path / "bare" / name).read_bytes() == (tmp_path / "doc" / name).read_bytes()
    capsys.readouterr()
    assert main(args + ["--points", points, "--out", str(tmp_path / "no-dirs")]) == 2
    assert capsys.readouterr().err == "error: --dirs is required when --points is a bare array\n"
    assert main(bare + ["--r", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: --r 1 needs 2 data items for method right, got 4\n"
    )


def test_reduce_dirs_replace_the_directions_of_a_points_document(
    tmp_path, ex1_system_path, ex1_points_path, capsys
):
    # --dirs overrides the directions of a combined {"points", "directions"}
    # document: the reduction is that of the bare points with those --dirs,
    # not that of the document's own directions.
    points = json.dumps([[0, 10500], [0, -10500], [0, 10500], [0, -10500]])
    e3, e5 = np.eye(6)[[2, 4]].tolist()
    dirs = [e3, e3, e5, e5]
    args = ["reduce", str(ex1_system_path), "--method", "right"]
    doc = ["--points", str(ex1_points_path), "--out", str(tmp_path / "doc")]
    assert main(args + doc + ["--dirs", json.dumps(dirs)]) == 0
    bare = ["--points", points, "--dirs", json.dumps(dirs), "--out", str(tmp_path / "bare")]
    assert main(args + bare) == 0
    assert main(args + ["--points", str(ex1_points_path), "--out", str(tmp_path / "own")]) == 0
    capsys.readouterr()
    written = json.loads((tmp_path / "doc" / "reduction.json").read_text())
    assert written["data"]["directions"] == [[[x, 0.0] for x in row] for row in dirs]
    for name in ("reduced.json", "reduction.json"):
        assert (tmp_path / "doc" / name).read_bytes() == (tmp_path / "bare" / name).read_bytes()
        assert (tmp_path / "doc" / name).read_bytes() != (tmp_path / "own" / name).read_bytes()


def test_reduce_full_order_identity(tmp_path, capsys):
    sys_q = systems.annihilation_to_quadrature(
        systems.random_realizable_annihilation(2, 2, 2, 3)
    )
    sys_path = tmp_path / "sys.json"
    serialization.save_system(sys_q, sys_path)
    doc = serialization.points_to_dict(
        [1j, -1j, 2j, -2j],
        [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0]],
    )
    code = main(
        [
            "reduce",
            str(sys_path),
            "--method",
            "right",
            "--points",
            json.dumps(doc),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 0
    reduced = serialization.load_system(tmp_path / "out" / "reduced.json")
    for s in (0.5j, 2.0, 1 + 1j):
        gap = np.linalg.norm(systems.transfer(sys_q, s) - systems.transfer(reduced, s))
        assert gap <= 1e-9


def test_analyze_identical_systems_zero_curve(tmp_path):
    sys_q = systems.annihilation_to_quadrature(
        systems.random_realizable_annihilation(2, 2, 2, 3)
    )
    sys_path = tmp_path / "sys.json"
    serialization.save_system(sys_q, sys_path)
    doc = serialization.points_to_dict(
        [1j, -1j, 2j, -2j],
        [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0]],
    )
    assert (
        main(
            [
                "reduce",
                str(sys_path),
                "--method",
                "right",
                "--points",
                json.dumps(doc),
                "--out",
                str(tmp_path / "red"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "analyze",
                str(sys_path),
                str(tmp_path / "red" / "reduction.json"),
                "--wpts",
                "200",
                "--out",
                str(tmp_path / "ana"),
            ]
        )
        == 0
    )
    rows = (tmp_path / "ana" / "error_curve.csv").read_text().splitlines()[1:]
    assert max(float(r.split(",")[1]) for r in rows) <= 1e-9


def test_select_points_cascade(tmp_path):
    sys_path = tmp_path / "sys3.json"
    serialization.save_system(cases.cascaded_cavity_system(), sys_path)
    code = main(
        [
            "select-points",
            str(sys_path),
            "--method",
            "passive",
            "--r",
            "3",
            "--cost",
            "h2",
            "--template",
            "symmetric_with_dc",
            "--tie-omega",
            "--wmin",
            "1e5",
            "--wmax",
            "1e9",
            "--out",
            str(tmp_path / "sel"),
        ]
    )
    assert code == 0
    doc = json.loads((tmp_path / "sel" / "selected_points.json").read_text())
    assert len(doc["points"]) == 3
    assert doc["cost"] > 0
    trace = (tmp_path / "sel" / "scan_trace.csv").read_text().splitlines()
    assert trace[0] == "phase,omegas,cost,feasible,reason"
    assert len(trace) > 64


def test_freqresp_output(tmp_path, ex1_system_path):
    code = main(
        [
            "freqresp",
            str(ex1_system_path),
            "--wpts",
            "20",
            "--out",
            str(tmp_path / "fr"),
        ]
    )
    assert code == 0
    lines = (tmp_path / "fr" / "freqresp.csv").read_text().splitlines()
    assert lines[0].startswith("omega,entry_11_re")
    assert len(lines) == 22  # header + 20 grid points + omega = 0


def test_example_ex2_all_pass(tmp_path, capsys):
    assert main(["example", "ex2", "--out", str(tmp_path / "ex2")]) == 0
    summary = json.loads((tmp_path / "ex2" / "summary.json").read_text())
    assert summary["all_passed"]
    assert (tmp_path / "ex2" / "system.json").exists()
    assert (tmp_path / "ex2" / "reduction.json").exists()


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["check-pr", str(tmp_path / "missing.json")]) == 2
    sys_path = tmp_path / "sys.json"
    serialization.save_system(cases.optomechanical_system(), sys_path)
    # passive method on a quadrature-form system is a usage inconsistency
    code = main(
        [
            "reduce",
            str(sys_path),
            "--method",
            "passive",
            "--points",
            json.dumps(
                serialization.points_to_dict([1j, 0, -1j], [[1, 0]] * 3)
            ),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 2


def test_domain_errors_exit_1(tmp_path):
    sys_path = tmp_path / "sys.json"
    serialization.save_system(cases.optomechanical_system(), sys_path)
    # duplicated data collapses the subspace: a domain failure, not usage
    doc = serialization.points_to_dict(
        [1.05e4j, -1.05e4j, 1.05e4j, -1.05e4j],
        [[0, 0, 0, 0, 1, 0]] * 4,
    )
    code = main(
        [
            "reduce",
            str(sys_path),
            "--method",
            "right",
            "--points",
            json.dumps(doc),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 1


def test_reduce_passive_via_cli(tmp_path):
    sys_path = tmp_path / "sys3.json"
    serialization.save_system(cases.cascaded_cavity_system(), sys_path)
    data = cases.ex3_interpolation_data()
    doc = serialization.points_to_dict(data.points, data.directions)
    code = main(
        [
            "reduce",
            str(sys_path),
            "--method",
            "passive",
            "--points",
            json.dumps(doc),
            "--r",
            "3",
            "--tol",
            "1e-8",
            "--out",
            str(tmp_path / "red"),
        ]
    )
    assert code == 0
    bundle = json.loads((tmp_path / "red" / "reduction.json").read_text())
    assert bundle["method"] == "passive"
    assert len(bundle["diagnostics"]["poles"]) == 3
    assert bundle["diagnostics"]["realizability_passes"]
    assert main(["check-pr", str(tmp_path / "red" / "reduced.json"), "--tol", "1e-8"]) == 0


def test_example_ex3_reports_known_failure(tmp_path, capsys):
    # Every row, the derived reduced-pole reference included, passes and
    # all artifacts are written.
    assert main(["example", "ex3", "--out", str(tmp_path / "ex3")]) == 0
    summary = json.loads((tmp_path / "ex3" / "summary.json").read_text())
    assert summary["all_passed"]
    assert "reduced poles" in [row["name"] for row in summary["checks"]]
    for name in (
        "system.json",
        "reduced.json",
        "reduction.json",
        "error_curve.csv",
        "selected_points.json",
        "scan_trace.csv",
        "summary.json",
    ):
        assert (tmp_path / "ex3" / name).exists()


def test_example_and_select_points_write_the_same_selection_keys(tmp_path):
    assert main(["example", "ex1", "--out", str(tmp_path / "ex1")]) == 0
    directions = json.dumps(cases.ex1_interpolation_data().directions.real.tolist())
    args = ["select-points", str(tmp_path / "ex1" / "system.json"), "--method", "right"]
    args += ["--r", "2", "--dirs", directions]
    args += ["--wmin", "1e3", "--wmax", "1e6", "--tie-omega", "--out", str(tmp_path / "sel")]
    assert main(args) == 0
    keys = [
        list(json.loads((tmp_path / d / "selected_points.json").read_text()))
        for d in ("ex1", "sel")
    ]
    assert keys[0] == keys[1] == ["omegas", "cost", "cost_kind", "points"]


def test_analyze_surface_export(tmp_path, ex1_system_path, ex1_points_path):
    assert (
        main(
            [
                "reduce",
                str(ex1_system_path),
                "--method",
                "right",
                "--points",
                str(ex1_points_path),
                "--out",
                str(tmp_path / "red"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "analyze",
                str(ex1_system_path),
                str(tmp_path / "red" / "reduction.json"),
                "--wpts",
                "200",
                "--surface",
                "--out",
                str(tmp_path / "ana"),
            ]
        )
        == 0
    )
    lines = (tmp_path / "ana" / "error_surface.csv").read_text().splitlines()
    assert lines[0] == "re,im,error"
    assert len(lines) == 1 + 41 * 41


@pytest.mark.parametrize(
    "document",
    [[{"method": "right"}], {"reduced": {}, "data": {}, "W": [], "V": []}],
    ids=["list", "no-method"],
)
def test_analyze_malformed_reduction_exits_2(tmp_path, ex1_system_path, document, capsys):
    path = tmp_path / "reduction.json"
    path.write_text(json.dumps(document))
    code = main(["analyze", str(ex1_system_path), str(path), "--out", str(tmp_path / "ana")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "ana").exists()


def _complex_w(doc):
    doc["W"][0][0] = [doc["W"][0][0], 0.5]


def _zero_direction(doc):
    doc["data"]["directions"][0] = [[0.0, 0.0] for _ in doc["data"]["directions"][0]]


@pytest.mark.parametrize(
    "corrupt, message",
    [(_complex_w, "W must be real"), (_zero_direction, "direction 0 is the zero vector")],
    ids=["complex-W", "zero-direction"],
)
def test_analyze_invalid_reduction_entries_exit_2(
    tmp_path, ex1_system_path, corrupt, message, capsys
):
    result = reduce_right(cases.optomechanical_system(), cases.ex1_interpolation_data())
    doc = serialization.reduction_to_dict(result, "right")
    corrupt(doc)
    path = tmp_path / "reduction.json"
    path.write_text(json.dumps(doc))
    argv = ["analyze", str(ex1_system_path), str(path), "--wpts", "20"]
    assert main(argv + ["--out", str(tmp_path / "ana")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "ana").exists()


@pytest.mark.parametrize("wpts", ["0", "-3"])
def test_wpts_below_two_exits_2(tmp_path, ex1_system_path, ex1_points_path, wpts, capsys):
    red = tmp_path / "red"
    assert (
        main(
            [
                "reduce",
                str(ex1_system_path),
                "--method",
                "right",
                "--points",
                str(ex1_points_path),
                "--out",
                str(red),
            ]
        )
        == 0
    )
    capsys.readouterr()
    commands = [
        ["analyze", str(ex1_system_path), str(red / "reduction.json")],
        ["freqresp", str(ex1_system_path)],
    ]
    for k, command in enumerate(commands):
        out = tmp_path / f"out{k}"
        assert main(command + ["--wpts", wpts, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --wpts must be at least 2, got {wpts}\n"
        assert not out.exists()


def test_wpts_above_the_ceiling_exits_2(tmp_path, ex1_system_path, monkeypatch, capsys):
    # Rejected before the grid is built: a grid of this count would need 745 GiB.
    def no_grid(spec):
        raise AssertionError("grid built")

    monkeypatch.setattr(analysis.GridSpec, "frequencies", no_grid)
    result = reduce_right(cases.optomechanical_system(), cases.ex1_interpolation_data())
    path = tmp_path / "reduction.json"
    path.write_text(json.dumps(serialization.reduction_to_dict(result, "right")))
    wpts = "100000000000"
    commands = [["analyze", str(ex1_system_path), str(path)], ["freqresp", str(ex1_system_path)]]
    for k, command in enumerate(commands):
        out = tmp_path / f"out{k}"
        assert main(command + ["--wpts", wpts, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --wpts must be at most {cli.MAX_GRID_COUNT}, got {wpts}\n"
        assert not out.exists()


def test_analyze_pole_on_grid_writes_report(tmp_path, capsys):
    # The full model's poles +/- i sit on the grid frequency omega = 1.
    from qmor.reduction import InterpolationData, ReductionResult

    full = systems.QuadratureSystem(
        A=systems.symplectic_form(1), B=np.eye(2), C=np.eye(2), D=np.eye(2)
    )
    reduced = systems.QuadratureSystem(A=-np.eye(2), B=np.eye(2), C=np.eye(2), D=np.eye(2))
    data = InterpolationData(side="right", points=[2.0, 3.0], directions=np.eye(2))
    result = ReductionResult(w=np.eye(2), v=np.eye(2), reduced=reduced, data=data, diagnostics=None)
    sys_path = tmp_path / "sys.json"
    serialization.save_system(full, sys_path)
    red_path = tmp_path / "reduction.json"
    red_path.write_text(json.dumps(serialization.reduction_to_dict(result, "right")))
    ana = tmp_path / "ana"
    argv = ["analyze", str(sys_path), str(red_path), "--wmin", "0.1", "--wmax", "10"]
    code = main(argv + ["--wpts", "3", "--out", str(ana)])
    assert code == 0
    report = json.loads((ana / "error_report.json").read_text())
    assert not report["stable"]
    assert report["hinf_error_estimate"] == float("inf")
    assert report["peak_frequency"] == 1.0
    rows = (ana / "error_curve.csv").read_text().splitlines()
    assert rows[3] == "1,inf"
    out = capsys.readouterr()
    assert "worst-case error estimate: inf at omega = 1" in out.out
    assert out.err == ""


@pytest.mark.parametrize(
    "method, r, template",
    [
        ("passive", "0", "conjugate_pairs"),
        ("passive", "-2", "conjugate_pairs"),
        ("right", "3", "symmetric_with_dc"),
        ("left", "3", "symmetric_with_dc"),
    ],
)
def test_select_points_rejects_bad_problem(tmp_path, method, r, template, capsys):
    system = cases.cascaded_cavity_system()
    if method != "passive":
        system = systems.annihilation_to_quadrature(system)
    sys_path = tmp_path / "sys.json"
    serialization.save_system(system, sys_path)
    args = ["select-points", str(sys_path), "--method", method, "--r", r]
    args += ["--template", template, "--out", str(tmp_path / "sel")]
    # An r below 1 is a usage error.
    assert main(args) == (2 if int(r) < 1 else 1)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "sel").exists()


@pytest.mark.parametrize("r", ["0", "-1"])
def test_select_points_r_below_one_exits_2(tmp_path, ex1_system_path, r, capsys):
    args = ["select-points", str(ex1_system_path), "--method", "right", "--r", r]
    assert main(args + ["--out", str(tmp_path / "sel")]) == 2
    assert capsys.readouterr().err == f"error: --r {r}: need r >= 1\n"
    assert not (tmp_path / "sel").exists()


def test_select_points_rejects_r_above_system_order(tmp_path, capsys):
    # Checked before the scan: no candidate is scored and no trace is written.
    sys_path = tmp_path / "sys.json"
    serialization.save_system(cases.cascaded_cavity_system(), sys_path)
    args = ["select-points", str(sys_path), "--method", "passive", "--r", "7"]
    args += ["--template", "symmetric_with_dc", "--cost", "h2", "--out", str(tmp_path / "sel")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: r = 7 exceeds the 5 modes") and err.count("\n") == 1
    assert not (tmp_path / "sel" / "scan_trace.csv").exists()


def test_select_points_passive_conjugate_pairs(tmp_path, capsys):
    sys_path = tmp_path / "sys.json"
    serialization.save_system(cases.cascaded_cavity_system(), sys_path)
    args = ["select-points", str(sys_path), "--method", "passive", "--cost", "h2"]
    assert main(args + ["--r", "2", "--out", str(tmp_path / "sel")]) == 0
    chosen = json.loads((tmp_path / "sel" / "selected_points.json").read_text())
    assert len(chosen["points"]) == 2 and math.isfinite(chosen["cost"])
    capsys.readouterr()
    assert main(args + ["--r", "3", "--out", str(tmp_path / "odd")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "odd").exists()


def test_analyze_reads_reduction_with_scaling_keys(
    tmp_path, ex1_system_path, ex1_points_path, capsys
):
    # Files written before the single completion recipe carry two extra
    # diagnostics keys; they are still valid input.
    args = ["reduce", str(ex1_system_path), "--method", "right"]
    args += ["--points", str(ex1_points_path), "--out", str(tmp_path / "red")]
    assert main(args) == 0
    path = tmp_path / "red" / "reduction.json"
    doc = json.loads(path.read_text())
    doc["diagnostics"]["scaling_convention"] = "direct-pairing"
    doc["diagnostics"]["scaling_residuals"] = {"inverse-pairing": 413.0, "direct-pairing": 5e-12}
    path.write_text(json.dumps(doc))
    args = ["analyze", str(ex1_system_path), str(path), "--wpts", "50"]
    assert main(args + ["--out", str(tmp_path / "ana")]) == 0
    assert (tmp_path / "ana" / "error_report.json").exists()


def test_select_points_rejects_direction_width(tmp_path, ex1_system_path, capsys):
    dirs = json.dumps([[1, 0, 0, 0, 0, 0, 0]] * 4)
    args = ["select-points", str(ex1_system_path), "--method", "right", "--r", "2"]
    assert main(args + ["--dirs", dirs, "--out", str(tmp_path / "sel")]) == 1
    assert capsys.readouterr().err == "error: directions live in C^7, the right side needs C^6\n"


def test_select_points_zero_direction_fails_before_the_scan(tmp_path, capsys):
    # Rejected when the problem is built: exit 1, one line, and no trace.
    sys_path = tmp_path / "sys.json"
    serialization.save_system(cases.cascaded_cavity_system(), sys_path)
    args = ["select-points", str(sys_path), "--method", "passive", "--r", "3", "--cost", "h2"]
    args += ["--template", "symmetric_with_dc", "--dirs", json.dumps([[1, 0], [0, 0], [1, 0]])]
    assert main(args + ["--out", str(tmp_path / "sel")]) == 1
    assert capsys.readouterr().err == "error: direction 1 is the zero vector\n"
    assert not (tmp_path / "sel").exists()


@pytest.mark.parametrize(
    "method, dirs",
    [(method, dirs) for method in ("passive", "left", "right") for dirs in (False, True)],
    ids=["passive", "passive-dirs", "left", "left-dirs", "right", "right-dirs"],
)
def test_select_points_non_hurwitz_system_fails_before_the_scan(tmp_path, capsys, method, dirs):
    # No candidate has a finite error norm: exit 1, one line that names the
    # full model, and no trace, whether the directions are given or ranked.
    f, g, h, k = cases.cascaded_cavity_system().state_space()
    sys_path = tmp_path / "sys.json"
    system = systems.AnnihilationSystem(F=f + 1.5e6 * np.eye(f.shape[0]), G=g, H=h, K=k)
    r, template = "3", "symmetric_with_dc"
    if method != "passive":
        system, r, template = systems.annihilation_to_quadrature(system), "2", "conjugate_pairs"
    serialization.save_system(system, sys_path)
    args = ["select-points", str(sys_path), "--method", method, "--r", r, "--cost", "h2"]
    args += ["--template", template, "--out", str(tmp_path / "sel")]
    if dirs:
        pairs = system.n_inputs if method == "right" else system.n_outputs
        rows = np.eye(pairs)[[0, 0, 1]] if method == "passive" else tangent_directions(2, pairs)
        args += ["--dirs", json.dumps(rows.tolist())]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: full model: state matrix is not Hurwitz: a pole has a nonnegative real part\n"
    )
    assert not (tmp_path / "sel" / "scan_trace.csv").exists()


def test_select_points_half_window_exits_2(tmp_path, ex1_system_path, capsys):
    # One end of the search window without the other: exit 2, one line, no output.
    args = ["select-points", str(ex1_system_path), "--method", "right", "--r", "2"]
    for half in (["--wmin", "1e3"], ["--wmax", "1e6"]):
        assert main(args + half + ["--out", str(tmp_path / "sel")]) == 2
        assert capsys.readouterr().err == "error: provide both --wmin and --wmax, or neither\n"
    assert not (tmp_path / "sel").exists()


@pytest.mark.parametrize(
    "method, system, form",
    [
        ("passive", cases.optomechanical_system, "an annihilation"),
        ("right", cases.cascaded_cavity_system, "a quadrature"),
    ],
    ids=["passive-on-quadrature", "right-on-annihilation"],
)
def test_select_points_form_mismatch_exits_2(tmp_path, capsys, method, system, form):
    # The wrong form for the method is a usage error, as for reduce: exit 2,
    # one line, before any work, with default or explicit directions.
    path = tmp_path / "sys.json"
    serialization.save_system(system(), path)
    args = ["select-points", str(path), "--method", method, "--r", "2"]
    dirs = json.dumps([[1, 0]] * 4)
    for extra in ([], ["--dirs", dirs]):
        assert main(args + extra + ["--out", str(tmp_path / "sel")]) == 2
        assert capsys.readouterr().err == f"error: --method {method} requires {form}-form system\n"
    assert not (tmp_path / "sel").exists()


@pytest.mark.parametrize("method", ["left", "right"])
def test_select_points_default_ranking_prepares_the_search_model(
    tmp_path, monkeypatch, capsys, method
):
    # Without --dirs, the Gramian ranking's prepared model is the search's
    # own on either side: one Schur form of the full state matrix, or of its
    # transpose, per command.
    quad = stable_reduction_cases(1)[0][0]
    path = tmp_path / "system.json"
    serialization.save_system(quad, path)
    schurs, schur = [], linalg.schur
    monkeypatch.setattr(linalg, "schur", lambda m: schurs.append(m) or schur(m))
    args = ["select-points", str(path), "--method", method, "--r", "1", "--tie-omega"]
    assert main(args + ["--cost", "h2", "--out", str(tmp_path / "sel")]) == 0
    full = [m for m in schurs if np.array_equal(m, quad.A) or np.array_equal(m, quad.A.T)]
    assert [m.shape for m in full] == [quad.A.shape]
    assert "error" not in capsys.readouterr().err


def test_select_points_default_directions_scan_feasibly(tmp_path, ex1_system_path, capsys):
    # The default directions rank the port pairs, so the tied ex1 search
    # scans no infeasible candidate and reaches the paper's error level.
    args = ["select-points", str(ex1_system_path), "--method", "right", "--r", "2"]
    assert main(args + ["--tie-omega", "--out", str(tmp_path / "sel")]) == 0
    lines = (tmp_path / "sel" / "scan_trace.csv").read_text().splitlines()[1:]
    scan = [line.split(",") for line in lines if line.startswith("scan,")]
    assert len(scan) == 64 and all(row[3] == "1" for row in scan)
    chosen = json.loads((tmp_path / "sel" / "selected_points.json").read_text())
    assert chosen["cost"] == pytest.approx(2.0, rel=1e-3)
    assert "error" not in capsys.readouterr().err


def test_select_points_all_infeasible_one_line(tmp_path, ex1_system_path, capsys):
    dirs = json.dumps([[0, 0, 0, 0, 1, 0]] * 4)
    args = ["select-points", str(ex1_system_path), "--method", "right", "--r", "2"]
    assert main(args + ["--dirs", dirs, "--out", str(tmp_path / "sel")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: all 256 scanned candidates were infeasible")
    assert err.count("\n") == 1 and len(err.encode()) < 1024
    # The trace of the failed scan is kept, with every candidate's reason.
    assert sorted(p.name for p in (tmp_path / "sel").iterdir()) == ["scan_trace.csv"]
    lines = (tmp_path / "sel" / "scan_trace.csv").read_text().splitlines()
    assert lines[0] == "phase,omegas,cost,feasible,reason" and len(lines) == 257
    for line in lines[1:]:
        phase, _, cost, feasible, reason = line.split(",")
        assert (phase, cost, feasible) == ("scan", "nan", "0") and reason


@pytest.mark.parametrize("wmin, wmax", [("1", "1e400"), ("nan", "10"), ("1", "inf")])
def test_non_finite_window_exits_2(tmp_path, ex1_system_path, ex1_points_path, wmin, wmax, capsys):
    red = tmp_path / "red"
    argv = ["reduce", str(ex1_system_path), "--method", "right", "--points", str(ex1_points_path)]
    assert main(argv + ["--out", str(red)]) == 0
    capsys.readouterr()
    commands = [
        ["analyze", str(ex1_system_path), str(red / "reduction.json")],
        ["freqresp", str(ex1_system_path)],
        ["select-points", str(ex1_system_path), "--method", "right", "--r", "2"],
    ]
    for k, command in enumerate(commands):
        out = tmp_path / f"out{k}"
        assert main(command + ["--wmin", wmin, "--wmax", wmax, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: need 0 < wmin < wmax < inf") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_bad_tol_exits_2(tmp_path, ex1_system_path, ex1_points_path, tol, capsys):
    argv = ["reduce", str(ex1_system_path), "--method", "right", "--points", str(ex1_points_path)]
    assert main(argv + ["--tol", tol, "--out", str(tmp_path / "red")]) == 2
    assert capsys.readouterr().err == f"error: need 0 <= tol < inf, got tol={float(tol):g}\n"
    assert not (tmp_path / "red" / "reduction.json").exists()
    assert main(["check-pr", str(ex1_system_path), "--tol", tol]) == 2
    assert capsys.readouterr().err == f"error: need 0 <= tol < inf, got tol={float(tol):g}\n"


def test_select_points_negative_window_exits_2(tmp_path, ex1_system_path, capsys):
    argv = ["select-points", str(ex1_system_path), "--method", "right", "--r", "2"]
    code = main(argv + ["--wmin", "-5", "--wmax", "10", "--out", str(tmp_path / "sel")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: need 0 < wmin < wmax < inf, got wmin=-5, wmax=10\n"
    assert not (tmp_path / "sel").exists()


def test_analyze_feedthrough_mismatch_exits_1(tmp_path, ex1_system_path, capsys):
    from qmor.reduction import reduce_right

    system = cases.optomechanical_system()
    result = reduce_right(system, cases.ex1_interpolation_data())
    doc = serialization.reduction_to_dict(result, "right")
    doc["reduced"] = serialization.system_to_dict(
        systems.QuadratureSystem(
            A=result.reduced.A, B=result.reduced.B, C=result.reduced.C, D=2 * result.reduced.D
        )
    )
    red_path = tmp_path / "reduction.json"
    red_path.write_text(json.dumps(doc))
    argv = ["analyze", str(ex1_system_path), str(red_path), "--wpts", "50"]
    assert main(argv + ["--out", str(tmp_path / "ana")]) == 1
    err = capsys.readouterr().err
    assert err == "error: feedthrough terms differ; the error system is not strictly proper\n"


def _write_example_pair(tmp_path, name):
    """The example's ``system.json`` and ``reduction.json``, as ``qmor example`` writes them."""
    system, data, method = {
        "ex1": (cases.optomechanical_system(), cases.ex1_interpolation_data(), "right"),
        "ex2": (
            cases.control_case_fixture()["quantum_controller"],
            cases.ex2_interpolation_data(),
            "right",
        ),
        "ex3": (cases.cascaded_cavity_system(), cases.ex3_interpolation_data(), "passive"),
    }[name]
    result = (reduce_passive if method == "passive" else reduce_right)(system, data)
    system_path = tmp_path / f"{name}-system.json"
    reduction_path = tmp_path / f"{name}-reduction.json"
    serialization.save_system(system, system_path)
    reduction_path.write_text(json.dumps(serialization.reduction_to_dict(result, method)))
    return system_path, reduction_path


@pytest.mark.parametrize(
    "original, reduction, message",
    [
        ("ex3", "ex1", "the reduction is QuadratureSystem, the original AnnihilationSystem"),
        ("ex1", "ex3", "the reduction is AnnihilationSystem, the original QuadratureSystem"),
        ("ex1", "ex2", r"the reduction has \(m, ell\) = \(8, 1\), the original \(3, 1\)"),
        ("ex2", "ex1", r"the reduction has \(m, ell\) = \(3, 1\), the original \(8, 1\)"),
    ],
    ids=["ex3-ex1", "ex1-ex3", "ex1-ex2", "ex2-ex1"],
)
def test_analyze_reduction_of_another_system_exits_2(
    tmp_path, original, reduction, message, capsys
):
    system_path, _ = _write_example_pair(tmp_path, original)
    _, reduction_path = _write_example_pair(tmp_path, reduction)
    argv = ["analyze", str(system_path), str(reduction_path), "--wpts", "20"]
    assert main(argv + ["--out", str(tmp_path / "ana")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(message, err)
    assert not (tmp_path / "ana").exists()


def test_analyze_reduction_of_larger_system_exits_2(tmp_path, ex1_system_path, capsys):
    # The ports of ex1 (three input pairs, one output pair), but four modes, not three.
    other = systems.random_realizable_quadrature(4, 3, 1, 5)
    reduced = reduce_right(other, make_quadrature_data(other, "right", 0))
    path = tmp_path / "reduction.json"
    path.write_text(json.dumps(serialization.reduction_to_dict(reduced, "right")))
    argv = ["analyze", str(ex1_system_path), str(path), "--wpts", "20"]
    assert main(argv + ["--out", str(tmp_path / "ana")]) == 2
    err = capsys.readouterr().err
    assert err == "error: W has shape (8, 4); this original needs (6, 4)\n"
