"""Record the benchmark's end-to-end metrics of one or more checkouts in one JSON file.

Runs ``perfbench/run.py`` as it is, one process per workload and seed, in
each checkout, for ``BENCHMARK.json``'s ``run_seconds``. Writes the median
and quartiles of ``op_norm_ms``, ``peak_mb``, ``setup_s`` and
``failed_frac`` per checkout and workload, and of the plain CPU and wall
time behind ``op_norm_ms`` and the calibration kernel's time that scaled
it, with every run's values, its ``env`` lines and the page faults and CPU
time of its timed operations.
The runs alternate between the checkouts seed by seed, and the order flips
at each seed, so drift on a shared host falls on all of them alike. With
two checkouts the file also counts, per workload and metric, the seeds on
which the second reads lower than the first. The file is rewritten after
every run, so an interrupted recording keeps the runs it finished.

    python scripts/bench_record.py --out BENCH_28.json \\
        --workload evaluate:1-10 --workload train:1-5 --workload forecast:1-5 \\
        parent=../tsmamba-parent change=.

Each checkout is a directory that holds ``perfbench/run.py`` and ``src/``;
the file names it by its label and by the commit and source digest that
``run.py`` prints, never by its path.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("op_norm_ms", "peak_mb", "setup_s", "failed_frac")
# the plain CPU and wall time behind op_norm_ms, and the calibration kernel's
# median time that scaled it, summarized beside the metrics
DETAILS = ("op_cpu_ms", "op_wall_ms", "calibration_ms")
_VALUE = re.compile(r"^(op_norm_ms|peak_mb|setup_s|failed_frac) (\S+)")
_CLOCKS = re.compile(r"^op_norm_ms .*CPU time (\S+) ms, wall clock (\S+) ms")
_CALIBRATION = re.compile(r"^calibration kernel: .* median (\S+) ms")
_TIMED = re.compile(r"^timed operations: user (\S+) s, system (\S+) s, (\d+) minor page faults")


def seed_list(text: str) -> list[int]:
    """'1-5' or '1,3,7' as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` process; its metrics, timed-operation usage and env lines."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout.name}: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    run = {"seed": seed, "correct": json.loads(lines[-1])["correct"], "env": [line for line in lines if line.startswith("env ")]}
    for line in lines:
        if m := _VALUE.match(line):
            run[m.group(1)] = float(m.group(2))
        if m := _CLOCKS.match(line):
            run.update(op_cpu_ms=float(m.group(1)), op_wall_ms=float(m.group(2)))
        elif m := _CALIBRATION.match(line):
            run["calibration_ms"] = float(m.group(1))
        elif m := _TIMED.match(line):
            run.update(timed_user_s=float(m.group(1)), timed_system_s=float(m.group(2)), timed_minor_faults=int(m.group(3)))
    missing = [name for name in METRICS + DETAILS if name not in run]
    if missing:
        raise SystemExit(f"{checkout.name}: {workload} seed {seed} printed no {missing}")
    return run


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one metric's runs."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def write_record(path: str, runs: dict, seconds: int) -> None:
    record = {"command": "python3 perfbench/run.py --workload W --seed S --seconds N --trace 0", "seconds": seconds, "trees": {}}
    for label, by_workload in runs.items():
        record["trees"][label] = {
            w: {**{m: summary([r[m] for r in rs]) for m in METRICS + DETAILS}, "runs": sorted(rs, key=lambda r: r["seed"])}
            for w, rs in by_workload.items()
            if rs
        }
    if len(runs) == 2:
        (first_label, first), (second_label, second) = record["trees"].items()
        record["pairs"] = {"lower": second_label, "than": first_label, "workloads": {}}
        for w in [w for w in second if w in first]:
            pairs = list(zip(first[w]["runs"], second[w]["runs"]))
            record["pairs"]["workloads"][w] = {
                m: {
                    "lower_in": sum(b[m] < a[m] for a, b in pairs),
                    "of": len(pairs),
                    "median_change": second[w][m]["median"] - first[w][m]["median"],
                    "first_iqr": first[w][m]["q3"] - first[w][m]["q1"],
                }
                for m in METRICS + DETAILS
            }
    Path(path).write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", metavar="LABEL=DIR", help="a label and the checkout it names")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", action="append", metavar="WORKLOAD:SEEDS", help="repeatable; every workload on seeds 1-5 by default")
    args = parser.parse_args(argv)

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    trees = {}
    for item in args.checkouts:
        label, _, path = item.partition("=")
        trees[label] = Path(path).resolve()
    workloads = args.workload or ["train:1-5", "evaluate:1-5", "forecast:1-5"]
    seeds = {w: seed_list(s) for w, _, s in (item.partition(":") for item in workloads)}
    runs: dict[str, dict[str, list[dict]]] = {label: {w: [] for w in seeds} for label in trees}
    for i in range(max(len(s) for s in seeds.values())):
        order = list(trees) if i % 2 == 0 else list(reversed(trees))
        for workload, workload_seeds in seeds.items():
            if i >= len(workload_seeds):
                continue
            for label in order:
                run = run_once(trees[label], workload, workload_seeds[i], seconds)
                runs[label][workload].append(run)
                print(f"{label} {workload} seed {run['seed']}: " + ", ".join(f"{m} {run[m]:.6g}" for m in METRICS), flush=True)
                write_record(args.out, runs, seconds)

    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
