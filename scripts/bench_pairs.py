"""Paired benchmark runs of a git revision against the working tree.

Usage, from the root of a qmor checkout::

    python3 scripts/bench_pairs.py --base HEAD~1 --workload select --pairs 10 --seconds 25 --seed 7

or ``make bench-pairs BASE=HEAD~1 WORKLOAD=select`` (``PAIRS``,
``BENCH_SECONDS`` and ``SEED`` set the rest).  The working tree's
``bench/run.py`` runs on two checkouts: a ``git archive`` of the base
revision's ``src`` with a copy of the working tree's ``bench/``, and the
working tree itself.  Each pair runs both sides once, one after the other,
and the side that runs first alternates from pair to pair so that a drift of
the host's speed does not favour one side.  For every end-to-end metric of
``BENCHMARK.json`` the script prints each side's median and quartiles, the
number of pairs the working tree won, and whether the medians differ by
more than the base's interquartile range.  It exits 1 when a run fails.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args(argv)


def base_checkout(rev, directory):
    """``rev``'s ``src`` with a copy of the working tree's ``bench/``, in ``directory``."""
    archive = subprocess.run(
        ["git", "archive", rev, "src"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)
    shutil.copytree(
        ROOT / "bench", directory / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    return directory


def run(checkout, args):
    """The end-to-end metrics of one ``bench/run.py`` run on ``checkout``."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if done.returncode or result is None or not result["correct"]:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"bench-pairs: the run on {checkout} failed (exit {done.returncode})")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values):
    """``(q1, median, q3)`` of ``values``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None):
    args = parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"base": [], "work": []}
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {"base": base_checkout(args.base, Path(tmp)), "work": ROOT}
        for pair in range(args.pairs):
            order = ("base", "work") if pair % 2 == 0 else ("work", "base")
            for side in order:
                sides[side].append(run(checkouts[side], args))
            print(
                f"pair {pair + 1}/{args.pairs} ({order[0]} first): "
                + ", ".join(
                    f"{m['name']} {sides['base'][-1][m['name']]:.6g} -> "
                    f"{sides['work'][-1][m['name']]:.6g}"
                    for m in end_to_end
                ),
                flush=True,
            )
    print(
        f"{args.workload}: {args.base} (base) against the working tree (work), "
        f"{args.pairs} pairs of {args.seconds:g} s, seed {args.seed}"
    )
    print(
        "metric better | base median [q1, q3] | work median [q1, q3] | work won | "
        "beyond base IQR"
    )
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [values[name] for values in sides["base"]]
        work = [values[name] for values in sides["work"]]
        won = sum((w > b) if higher else (w < b) for b, w in zip(base, work))
        (b1, bm, b3), (w1, wm, w3) = quartiles(base), quartiles(work)
        print(
            f"{name} {metric['better']} | {bm:.6g} [{b1:.6g}, {b3:.6g}] | "
            f"{wm:.6g} [{w1:.6g}, {w3:.6g}] | {won}/{args.pairs} | "
            f"{'yes' if abs(wm - bm) > b3 - b1 else 'no'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
