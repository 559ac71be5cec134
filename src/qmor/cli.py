"""Command-line front end.

Subcommands: ``check-pr``, ``reduce``, ``analyze``, ``select-points``,
``freqresp``, ``example``.  Exit codes: 0 on success (and on passing
checks), 1 on domain failures (constraint violations, infeasible data,
instability, failed reference checks), 2 on usage or parse errors.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, cases, selection, serialization
from .errors import InfeasiblePointError, QmorError, SchemaError
from .reduction import InterpolationData, data_side, reduce_left, reduce_passive, reduce_right
from .systems import AnnihilationSystem, QuadratureSystem, check_realizability


def _load_json_arg(value, what):
    """Accept either a path or an inline JSON document."""
    text = value.strip()
    if text.startswith("{") or text.startswith("["):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"inline {what} is not valid JSON: {exc}") from exc
    return serialization.read_json(value)


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_window(wmin, wmax):
    # Comparisons with NaN are false, so this also rejects --wmin nan.
    if not (0 < wmin < wmax < math.inf):
        raise SchemaError(f"need 0 < wmin < wmax < inf, got wmin={wmin:g}, wmax={wmax:g}")


def _check_tol(tol):
    if tol is not None and not 0 <= tol < math.inf:  # false for nan too
        raise SchemaError(f"need 0 <= tol < inf, got tol={tol:g}")


#: Largest ``--wpts``: 50 times the default grid count.
MAX_GRID_COUNT = 100_000


def _grid_override(args, *state_matrices):
    spec = analysis.default_grid(*state_matrices)
    wmin = args.wmin if args.wmin is not None else spec.wmin
    wmax = args.wmax if args.wmax is not None else spec.wmax
    count = args.wpts if args.wpts is not None else spec.count
    _check_window(wmin, wmax)
    if count < 2:
        raise SchemaError(f"--wpts must be at least 2, got {count}")
    if count > MAX_GRID_COUNT:
        raise SchemaError(f"--wpts must be at most {MAX_GRID_COUNT}, got {count}")
    return analysis.GridSpec(
        wmin=wmin, wmax=wmax, count=count, two_sided=spec.two_sided
    )


def cmd_check_pr(args):
    _check_tol(args.tol)
    system = serialization.load_system(args.input)
    report = check_realizability(system, tol=args.tol)
    form = "quadrature" if isinstance(system, QuadratureSystem) else "annihilation"
    print(f"form: {form}  (n={system.n_modes}, m={system.n_inputs}, ell={system.n_outputs})")
    for k, value in enumerate(report.residuals, start=1):
        print(f"constraint {k} residual: {value:.6e}")
    print(f"tolerance: {report.tol:.1e}  ->  {'pass' if report.passes else 'FAIL'}")
    return 0 if report.passes else 1


def _interpolation_data_from_args(args):
    points_doc = _load_json_arg(args.points, "points")
    if isinstance(points_doc, dict):
        # Combined {"points": ..., "directions": ...} document.
        if args.dirs is not None:
            points_doc = dict(points_doc)
            points_doc["directions"] = _load_json_arg(args.dirs, "directions")
    else:
        if args.dirs is None:
            raise SchemaError("--dirs is required when --points is a bare array")
        points_doc = {
            "points": points_doc,
            "directions": _load_json_arg(args.dirs, "directions"),
        }
    points, directions = serialization.points_from_dict(points_doc)
    data = InterpolationData(side=data_side(args.method), points=points, directions=directions)
    if args.r is not None:
        expected = args.r if args.method == "passive" else 2 * args.r
        if len(data) != expected:
            raise SchemaError(
                f"--r {args.r} needs {expected} data items for method "
                f"{args.method}, got {len(data)}"
            )
    return data


_REDUCERS = {"left": reduce_left, "right": reduce_right, "passive": reduce_passive}


def _check_form(system, method):
    """A usage error unless ``system`` has the form that ``--method`` reduces."""
    passive = method == "passive"
    if not isinstance(system, AnnihilationSystem if passive else QuadratureSystem):
        form = "an annihilation" if passive else "a quadrature"
        raise SchemaError(f"--method {method} requires {form}-form system")


def _write_reduction(out, result, method):
    serialization.save_system(result.reduced, out / "reduced.json")
    doc = serialization.reduction_to_dict(result, method)
    serialization.write_json(out / "reduction.json", doc)


def cmd_reduce(args):
    _check_tol(args.tol)
    system = serialization.load_system(args.input)
    _check_form(system, args.method)
    data = _interpolation_data_from_args(args)
    tol = {} if args.tol is None else {"pr_tol": args.tol}
    result = _REDUCERS[args.method](system, data, **tol)
    out = _out_dir(args)
    _write_reduction(out, result, args.method)
    diag = result.diagnostics
    print(f"wrote {out / 'reduced.json'} and {out / 'reduction.json'}")
    print(f"reduced poles: {np.array2string(diag.poles, precision=6)}")
    print(f"realizability residuals: {[f'{r:.3e}' for r in diag.realizability.residuals]}")
    print(f"biorthogonality residual: {diag.biorthogonality:.3e}")
    worst = max(
        (
            r / ref if ref > 1e-6 else r
            for r, ref in zip(diag.interpolation_residuals, diag.interpolation_references)
        ),
        default=0.0,
    )
    print(f"worst interpolation residual: {worst:.3e}")
    return 0


def _check_reduction_of(system, result):
    """Raise unless ``result`` can be a reduction of ``system``: form, ``W``/``V`` shapes, ports."""
    reduced = result.reduced
    if type(reduced) is not type(system):
        raise SchemaError(
            f"the reduction is {type(reduced).__name__}, the original {type(system).__name__}"
        )
    shape = (system.state_space()[0].shape[0], reduced.state_space()[0].shape[0])
    for name, m in (("W", result.w), ("V", result.v)):
        if m.shape != shape:
            raise SchemaError(f"{name} has shape {m.shape}; this original needs {shape}")
    ports = (reduced.n_inputs, reduced.n_outputs)
    if ports != (system.n_inputs, system.n_outputs):
        raise SchemaError(
            f"the reduction has (m, ell) = {ports}, the original "
            f"{(system.n_inputs, system.n_outputs)}"
        )


def cmd_analyze(args):
    system = serialization.load_system(args.original)
    _, result = serialization.load_reduction(args.reduction)
    _check_reduction_of(system, result)
    grid = _grid_override(args, system.state_space()[0], result.reduced.state_space()[0])
    report = analysis.error_report(system, result, grid=grid)
    out = _out_dir(args)
    serialization.write_error_curve_csv(out / "error_curve.csv", report.pointwise)
    doc = {
        "hinf_error_estimate": report.hinf_error_estimate,
        "hinf_error_upper": report.hinf_error_upper,
        "hinf_iterations": report.hinf_iterations,
        "hinf_bound_left": report.hinf_bound_left,
        "hinf_bound_right": report.hinf_bound_right,
        "peak_frequency": report.peak_frequency,
        "stable": report.stable,
        "grid": {
            "wmin": report.grid.wmin,
            "wmax": report.grid.wmax,
            "count": report.grid.count,
            "spacing": "log",
            "two_sided": report.grid.two_sided,
        },
        "notes": list(report.notes),
    }
    if not report.stable:
        doc["bounds_omitted_reason"] = "state matrices are not Hurwitz"
    serialization.write_json(out / "error_report.json", doc)
    if args.surface:
        re_pts, im_pts, values = analysis.error_surface(system, result)
        serialization.write_error_surface_csv(
            out / "error_surface.csv", re_pts, im_pts, values
        )
        print(f"wrote {out / 'error_surface.csv'}")
    print(f"wrote {out / 'error_report.json'} and {out / 'error_curve.csv'}")
    print(f"worst-case error estimate: {report.hinf_error_estimate:.6g} "
          f"at omega = {report.peak_frequency:.6g}")
    if report.stable:
        print(f"certified upper value: {report.hinf_error_upper:.6g} "
              f"({report.hinf_iterations} level-set steps)")
        print(f"bounds: left {report.hinf_bound_left:.6g}, right {report.hinf_bound_right:.6g}")
    else:
        print("bounds omitted: " + "; ".join(report.notes))
    return 0


def cmd_select_points(args):
    if args.r < 1:
        raise SchemaError(f"--r {args.r}: need r >= 1")
    if args.method == "passive" and args.template == "conjugate_pairs" and args.r % 2:
        # A usage error: r passive points are r / 2 conjugate pairs.
        raise SchemaError(f"--r {args.r}: passive conjugate-pair selection needs an even r")
    system = serialization.load_system(args.input)
    _check_form(system, args.method)
    model = None
    if args.dirs is not None:
        directions = serialization.complex_matrix_from_json(
            _load_json_arg(args.dirs, "directions"), "directions"
        )
    elif args.method == "passive":
        directions = selection.default_directions(system, args.method, args.r)
    else:  # the ranking's prepared model is the problem's own
        model = selection.prepare_full_model(system, args.cost)
        directions = selection.ranked_directions(system, args.method, args.r, model)
    bounds = None
    if args.wmin is not None or args.wmax is not None:
        if args.wmin is None or args.wmax is None:
            raise SchemaError("provide both --wmin and --wmax, or neither")
        _check_window(args.wmin, args.wmax)
        bounds = (args.wmin, args.wmax)
    problem = selection.SelectionProblem(
        system=system,
        side=args.method,
        r=args.r,
        directions=directions,
        omega_bounds=bounds,
        cost=args.cost,
        tie_omegas=args.tie_omega,
        template=args.template,
    )
    if model is not None:
        object.__setattr__(problem, "full_model", model)  # seeds the cached property
    try:
        chosen = selection.optimize_points(problem)
    except InfeasiblePointError as exc:
        path = _out_dir(args) / "scan_trace.csv"
        serialization.write_scan_trace_csv(path, exc.trace)
        print(f"wrote {path}")
        raise
    out = _out_dir(args)
    serialization.write_selection(out, chosen, args.cost)
    print(f"wrote {out / 'selected_points.json'} and {out / 'scan_trace.csv'}")
    print(f"selected omegas: {np.array2string(chosen.omegas, precision=6)}")
    print(f"cost ({args.cost}): {chosen.cost:.6g}")
    return 0


def cmd_freqresp(args):
    system = serialization.load_system(args.input)
    grid = _grid_override(args, system.state_space()[0])
    response = analysis.frequency_response(system, grid.frequencies())
    out = _out_dir(args)
    serialization.write_frequency_response_csv(out / "freqresp.csv", response)
    print(f"wrote {out / 'freqresp.csv'} ({len(response.omegas)} rows, "
          f"{len(response.skipped)} skipped)")
    return 0


def _write_example_artifacts(outcome, out):
    artifacts = outcome.artifacts
    serialization.save_system(artifacts["system"], out / "system.json")
    _write_reduction(out, artifacts["result"], artifacts["method"])
    if "error_report" in artifacts:
        report = artifacts["error_report"]
        serialization.write_error_curve_csv(out / "error_curve.csv", report.pointwise)
    if "selection" in artifacts:
        serialization.write_selection(out, artifacts["selection"], artifacts["cost_kind"])
    serialization.write_json(out / "summary.json", outcome.to_dict())


def cmd_example(args):
    outcome = cases.run_example(args.name)
    out = _out_dir(args)
    _write_example_artifacts(outcome, out)
    print(outcome.table())
    print(f"artifacts in {out}")
    return 0 if outcome.all_passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qmor",
        description=(
            "Structure-preserving interpolatory model reduction for linear "
            "quantum stochastic systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-pr", help="check the physical-realizability constraints")
    p.add_argument("input", help="system JSON file")
    p.add_argument("--tol", type=float, default=1e-8, help="residual tolerance")
    p.set_defaults(func=cmd_check_pr)

    p = sub.add_parser("reduce", help="build a reduced-order model")
    p.add_argument("input", help="system JSON file")
    p.add_argument("--method", required=True, choices=("left", "right", "passive"))
    p.add_argument(
        "--points",
        required=True,
        help="points JSON (file or inline): bare [[re,im],...] array or a "
        "combined {'points':..., 'directions':...} document",
    )
    p.add_argument(
        "--dirs",
        default=None,
        help="directions JSON (file or inline); optional when --points "
        "carries a combined document",
    )
    p.add_argument("--r", type=int, default=None, help="expected reduced mode count")
    p.add_argument("--tol", type=float, default=None, help="realizability tolerance")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("analyze", help="error curve, estimate, and bounds")
    p.add_argument("original", help="original system JSON")
    p.add_argument("reduction", help="reduction bundle JSON written by 'reduce'")
    p.add_argument("--wmin", type=float, default=None)
    p.add_argument("--wmax", type=float, default=None)
    p.add_argument("--wpts", type=int, default=None)
    p.add_argument(
        "--surface",
        action="store_true",
        help="also export the error norm over a complex-plane rectangle",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("select-points", help="search for interpolation frequencies")
    p.add_argument("input", help="system JSON file")
    p.add_argument("--method", required=True, choices=("left", "right", "passive"))
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--cost", choices=("hinf", "h2"), default="hinf")
    p.add_argument("--dirs", default=None, help="directions JSON (file or inline)")
    p.add_argument("--wmin", type=float, default=None, help="search interval lower edge")
    p.add_argument("--wmax", type=float, default=None, help="search interval upper edge")
    p.add_argument("--tie-omega", action="store_true", help="force all frequencies equal")
    p.add_argument(
        "--template",
        choices=("conjugate_pairs", "symmetric_with_dc"),
        default="conjugate_pairs",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select_points)

    p = sub.add_parser("freqresp", help="frequency-response CSV export")
    p.add_argument("input", help="system JSON file")
    p.add_argument("--wmin", type=float, default=None)
    p.add_argument("--wmax", type=float, default=None)
    p.add_argument("--wpts", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_freqresp)

    p = sub.add_parser("example", help="run a bundled demonstration case")
    p.add_argument("name", choices=cases.EXAMPLE_NAMES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QmorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
