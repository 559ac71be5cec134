"""Benchmark of the qmor pipeline: one workload per process.

Usage, from the root of a qmor checkout::

    python3 bench/run.py --workload certify_small --seed 0 --seconds 10 --trace 0

The inputs come only from ``--seed`` and the bundled fixtures.  The op
phase runs whole cycles of the workload's ops, one after another (a closed
loop with one client and no extra threads), until ``--seconds`` have passed.
Every op's output is checked.  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it runs the same ops untraced and then
traced, probes single layer calls on the ops' own inputs and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
record (environment, every op, every span) goes to ``.bench_out/``.

The BLAS thread count is fixed before numpy is imported.  qmor is imported
from the checkout's ``src``; without it the run exits with code 2.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_ROUNDS = 3
MIN_CYCLES = 2
CHILD_TIMEOUT_S = 60
IMPORT_PROBE = "import time; t = time.perf_counter(); import qmor; print(time.perf_counter() - t)"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="shrunken inputs, for the benchmark's self-test"
    )
    return parser.parse_args(argv)


def child_import_seconds():
    """Time of ``import qmor`` (numpy and scipy included) in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.split()[-1])


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None, None

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        ).stdout.strip()

    return git("rev-parse", "HEAD") or None, bool(git("status", "--porcelain", "--untracked-files=no"))


def environment(args):
    import numpy
    import scipy

    sha, dirty = git_state()
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def run_op(workload, index, tracer, workdir):
    """One op and its output check; returns (record, output or None)."""
    import workloads

    case = workload.cases[index % len(workload.cases)]
    output, error = None, None
    with tracer.op(index, case.label):
        start = time.perf_counter()
        try:
            output = workload.op(case, tracer, workdir)
        except Exception:  # an op that raises is a failed op; the run goes on
            error = traceback.format_exc(limit=3)
        latency = time.perf_counter() - start
    if error is None:
        verdict = workload.check(case, output)
    else:
        verdict = workloads.Verdict(failures=[error])
    record = {
        "op": index,
        "case": case.label,
        "latency_s": latency,
        "passed": verdict.passed,
        "failures": verdict.failures,
        "unreachable": verdict.unreachable,
    }
    if output is not None:
        record.update(workload.facts(case, output))
    return record, output


def run_phase(workload, tracer, workdir, seconds=None, count=None, reference=None):
    """Exactly ``count`` ops, or whole cycles until ``seconds`` have passed.

    Without ``count`` at least ``MIN_CYCLES`` cycles run, so every case has
    that many latency samples.  With a ``reference`` the reference kernel is
    timed before the first op and after every stretch of ops.  Returns the op
    records, the first cycle's outputs (the probes' inputs) and the phase's
    wall time.
    """
    records, outputs = [], []
    cycle = len(workload.cases)
    start = time.perf_counter()
    if reference is not None:
        reference.sample()
    stretch_start = time.perf_counter()
    while True:
        record, output = run_op(workload, len(records), tracer, workdir)
        records.append(record)
        if len(outputs) < cycle:
            outputs.append(output)
        if count is not None:
            done = len(records) >= count
        else:
            done = (
                len(records) % cycle == 0
                and len(records) >= MIN_CYCLES * cycle
                and time.perf_counter() - start >= seconds
            )
        if reference is not None and (
            done or time.perf_counter() - stretch_start >= hostspeed.STRETCH_S
        ):
            reference.sample()
            stretch_start = time.perf_counter()
        if done:
            break
    return records, outputs, time.perf_counter() - start


def set_up(args, workdir, reference):
    """Median of several (import + input generation) rounds plus one warm-up op.

    The reference kernel is timed before every round and after the warm-up.
    """
    import tracing
    import workloads

    rounds = []
    for _ in range(SETUP_ROUNDS):
        reference.sample()
        import_s = child_import_seconds()
        start = time.perf_counter()
        workload = workloads.build(args.workload, args.seed, smoke=args.smoke)
        rounds.append(import_s + time.perf_counter() - start)
    start = time.perf_counter()
    warmup, _ = run_op(workload, workload.warmup, tracing.NullTracer(), workdir)
    warmup_s = time.perf_counter() - start
    reference.sample()
    detail = {
        "rounds_s": rounds,
        "warmup_s": warmup_s,
        "warmup_case": warmup["case"],
        "warmup_passed": warmup["passed"],
        "draws": workload.draws.draws,
        "discarded_draws": workload.draws.discarded,
    }
    return workload, statistics.median(rounds) + warmup_s, detail


def summarize(records, untraced, phase_wall):
    """Failure counts over all ops; wall-clock figures of the untraced phase."""
    import metrics

    latencies = [r["latency_s"] for r in untraced]
    failed = sum(1 for r in records if not r["passed"])
    tail = metrics.tail(latencies)
    return {
        "op_samples": len(records),
        "wall_ops_per_s": sum(1 for r in untraced if r["passed"]) / phase_wall,
        "wall_op_p50_s": statistics.median(latencies),
        "op_tail_s": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "fail_ratio": failed / len(records),
        "known_unreachable_rows": sum(len(r["unreachable"]) for r in records),
        "failed_cases": sorted({r["case"] for r in records if not r["passed"]}),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qmor" / "__init__.py").is_file():
        print(f"error: no qmor package under {SRC}; run from a qmor checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import metrics
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_speed, phase_speed = hostspeed.Reference(), hostspeed.Reference()
        workload, setup_s, setup_detail = set_up(args, str(workdir), setup_speed)
        untraced, _, phase_wall = run_phase(
            workload, tracing.NullTracer(), str(workdir), seconds=args.seconds, reference=phase_speed
        )
        records, spans, examples = untraced, [], {}
        if args.trace:
            tracer = tracing.Tracer()
            traced, outputs, _ = run_phase(workload, tracer, str(workdir), count=len(untraced))
            for index, case in enumerate(workload.cases):
                if outputs[index] is not None:
                    workload.probes(tracer, index, case, outputs[index])
            if workload.run_examples:
                examples = workloads.example_probes(tracer)
            records, spans = untraced + traced, tracer.spans
            layer = metrics.per_layer(spans, traced, untraced, workload.draws)
            reported = layer
        else:
            e2e = metrics.end_to_end(
                untraced, setup_s, setup_speed.factor(), phase_speed.factor()
            )
            reported = {name: (value, metrics.END_TO_END_UNITS[name]) for name, value in e2e.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in records if not r["passed"]) + (not setup_detail["warmup_passed"])
    summary = summarize(records, untraced, phase_wall)
    summary.update(
        raw_setup_s=setup_s,
        reference_kernel_s=hostspeed.REFERENCE_S,
        setup_factor=setup_speed.factor(),
        setup_kernel_s=setup_speed.samples,
        op_factor=phase_speed.factor(),
        op_kernel_s=phase_speed.samples,
    )
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    record = {
        "environment": environment(args),
        "setup": setup_detail,
        "summary": summary,
        "result": result,
        "examples_failed_rows": examples,
        "ops": records,
        "spans": spans,
    }
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str))

    env = record["environment"]
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} git={env['git_sha']} "
        f"dirty={env['git_dirty']} python={env['python']} numpy={env['numpy']} "
        f"scipy={env['scipy']} blas={env['blas']} blas_threads={BLAS_THREADS} nproc={env['nproc']}"
    )
    print(
        f"# setup: {setup_detail['draws']} random draws, {setup_detail['discarded_draws']} "
        f"discarded; ops {summary['op_samples']}, fail_ratio {summary['fail_ratio']:.6g}, "
        f"known-unreachable reference rows {summary['known_unreachable_rows']}"
    )
    print(
        f"# wall clock: {summary['wall_ops_per_s']:.6g} validated ops/s, "
        f"median op {summary['wall_op_p50_s']:.6g} s, set-up {setup_s:.6g} s; "
        f"host-speed factors {summary['setup_factor']:.6g} (set-up, "
        f"{len(setup_speed.samples)} kernel timings) and {summary['op_factor']:.6g} "
        f"(ops, {len(phase_speed.samples)} kernel timings)"
    )
    if summary["op_tail_s"] is not None:
        print(f"# op_tail_s p{summary['op_tail_s']['percentile']:g} = {summary['op_tail_s']['value']:.6g} s")
    for name, (value, unit) in reported.items():
        print(f"{name} {value!r} {unit}")
    print(f"# record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
