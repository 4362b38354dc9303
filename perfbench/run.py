"""tsmamba benchmark: one workload per process.

    python3 perfbench/run.py --workload train|evaluate|forecast --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the last stdout line is a JSON object holding
the end-to-end metrics; with ``--trace 1`` the workload runs once untraced
and once with every layer wrapped from outside (see ``tracer.py``), and the
JSON holds the per-layer metrics. Human-readable lines, each with its unit
and sample count, come before it. Times in the metrics are process CPU times
at reference speed (see ``calibrate.py``); wall-clock and plain CPU times are
on the human lines. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

MB = float(1 << 20)


def pin_blas_threads() -> int:
    """Run BLAS/OpenMP on one thread; must run before numpy is first imported.

    The program's elementwise numpy work is single-threaded anyway, and on a
    shared host of few CPUs a second BLAS thread (which spins while it waits)
    makes the process CPU time, the benchmark's clock, depend on scheduling."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return 1


def source_revision() -> str:
    """The git commit when the checkout is a repository, else 'none'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none"


def source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tsmamba").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def loadavg() -> str:
    try:
        return "/".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unavailable"


def cpu_jiffies() -> tuple[int, int]:
    """(steal, total) CPU time of the machine from /proc/stat, in jiffies."""
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def environment(args, threads: int) -> list[str]:
    import numpy as np

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown")
    except (AttributeError, KeyError, TypeError):
        pass
    return [
        f"env nproc={len(os.sched_getaffinity(0))} blas_threads={threads} python={platform.python_version()} "
        f"numpy={np.__version__} openblas={blas}",
        f"env commit={source_revision()} src_sha256={source_digest()} workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
    ]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB  # ru_maxrss is KiB on Linux


def timed_setups(wl, outcome, repeats: int) -> list:
    import workloads

    times = []
    for _ in range(repeats):
        workloads.CALIBRATION.sample()  # a calibration sample next to each short set-up
        t0 = workloads.start_clocks()
        wl.setup(outcome)
        times.append(workloads.since(t0))
    return times


def traced_pass(wl, args, outcome, untraced_op_s: float, spec: dict):
    """Set up once and run the operations again with every layer wrapped;
    returns (per-layer metrics named in ``spec``, layer table, notes).
    ``trace.overhead_frac`` compares process CPU times; the calibration is
    off in this pass."""
    import tracemalloc

    import workloads

    from tracer import Tracer

    tracer = Tracer()
    wl.tracer = tracer
    tracer.install()
    try:
        tracer.phase = "setup"
        wl.setup(outcome)
        tracer.phase = "ops"
        samples = wl.run_ops(args.seconds, outcome)
    finally:
        tracer.uninstall()
        wl.tracer = None
    # tracemalloc slows every Python allocation, so the buffer peak comes
    # from one more operation with the span wrappers off
    tracemalloc.start()
    try:
        wl.one_op(outcome)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    units = {"setup": 1, "ops": wl.units(samples)}
    by_stage: dict[str, list[tuple[int, int]]] = {}
    for tag, nodes, nbytes in tracer.tapes:
        by_stage.setdefault(tag, []).append((nodes, nbytes))
    materialized = tracer.per_unit(tracer.counts, "data.windows_materialized", units)
    computed = {
        "tensor.tape_nodes": sum(counts[0][0] for counts in by_stage.values()),
        "tensor.tape_mb": sum(counts[0][1] for counts in by_stage.values()) / MB,
        "data.windows_used_frac": wl.windows_used_per_unit() / materialized if materialized else 0.0,
        "data.windows_mb": tracer.per_unit(tracer.counts, "data.windows_bytes", units) / MB,
        "trace.overhead_frac": wl.op_seconds(samples, workloads.cpu_median) / untraced_op_s - 1.0,
        "tracemalloc.peak_mb": peak / MB,
    }

    def value(name: str) -> float:
        """Computed values first; else by suffix from the span tables
        (``X.fwd_ms``/``X.ms``: inclusive time of X, ``X.bwd_ms``: its
        backward time); else a counter."""
        if name in computed:
            return computed[name]
        for suffix, table in ((".fwd_ms", tracer.incl), (".bwd_ms", tracer.bwd), (".ms", tracer.incl)):
            if name.endswith(suffix):
                return tracer.per_unit(table, name[: -len(suffix)], units) * 1e3
        return tracer.per_unit(tracer.counts, name, units)

    values = {m["name"]: {"value": value(m["name"]), "unit": m["unit"]} for m in spec["per_layer"]}
    repeats = all(len(set(counts)) == 1 for counts in by_stage.values())
    notes = [f"trace units: {units['ops']} operations, 1 set-up; tape counts repeat exactly per stage: {repeats}"]
    if by_stage:
        notes.append("tape per stage (nodes, MB): " + ", ".join(
            f"{tag}=({c[0][0]}, {c[0][1] / MB:.1f})" for tag, c in by_stage.items()))
    return values, tracer.layer_table(units), notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tsmamba benchmark")
    parser.add_argument("--workload", required=True, choices=("train", "evaluate", "forecast"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    if not (ROOT / "src" / "tsmamba" / "__init__.py").is_file():
        print(f"perfbench: no tsmamba sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import tsmamba

    if Path(tsmamba.__file__).resolve().parent != ROOT / "src" / "tsmamba":
        print(f"perfbench: imported tsmamba from {tsmamba.__file__}, not from this checkout", file=sys.stderr)
        return 2

    import workloads
    from calibrate import Calibrator

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())  # metric names and units
    lines = environment(args, threads)
    lines.append(f"env loadavg_start={loadavg()}")
    steal0, total0 = cpu_jiffies()
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds, workdir)
        outcome = workloads.Outcome()
        wl.prepare()
        calibration = workloads.CALIBRATION = Calibrator(wl.calibration_mix)
        calibration.start()
        try:
            setups = timed_setups(wl, outcome, workloads.SETUP_REPEATS)
            usage0 = resource.getrusage(resource.RUSAGE_SELF)
            samples = wl.run_ops(args.seconds, outcome)
            usage1 = resource.getrusage(resource.RUSAGE_SELF)
        finally:
            calibration.stop()
            workloads.CALIBRATION = None
        peak_mb = peak_rss_mb()
        detail = wl.detail(samples)
        if args.trace:
            untraced = wl.op_seconds(samples, workloads.cpu_median)
            per_layer, table, notes = traced_pass(wl, args, outcome, untraced, spec)
        wl.check(outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is using it

    setup_wall = ", ".join(f"{s.wall:.3f}" for s in setups)
    e2e = {
        "op_norm_ms": (
            wl.op_seconds(samples) * 1e3,
            f"median operation (train: one step of each stage), process CPU time at reference speed; "
            f"CPU time {wl.op_seconds(samples, workloads.cpu_median) * 1e3:.6g} ms, "
            f"wall clock {wl.op_seconds(samples, workloads.wall_median) * 1e3:.6g} ms",
        ),
        "peak_mb": (peak_mb, "ru_maxrss after the timed operations, n=1"),
        "setup_s": (
            workloads.norm_median(setups),
            f"median of {len(setups)} set-ups, process CPU time at reference speed; "
            f"CPU time {workloads.cpu_median(setups):.4f} s, wall clock of each: {setup_wall} s",
        ),
    }
    metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}
    lines += [f"{name} {m['value']:.6g} {m['unit']} ({e2e[name][1]})" for name, m in metrics.items()]
    lines += detail
    lines.append(f"failed_frac {outcome.failed / max(1, outcome.attempted):.4f} ({outcome.failed} of {outcome.attempted} operations)")
    lines += [f"failure: {r}" for r in outcome.reasons]
    lines.append(f"calibration kernel: {calibration.summary()}")
    lines.append(
        f"timed operations: user {usage1.ru_utime - usage0.ru_utime:.2f} s, system {usage1.ru_stime - usage0.ru_stime:.2f} s, "
        f"{usage1.ru_minflt - usage0.ru_minflt} minor page faults (calibration and warm-up steps included)"
    )
    if args.trace:
        lines += notes
        lines.append("layer                                     calls   incl_ms   self_ms    bwd_ms  (per operation)")
        lines += [f"{n:40s} {c:6.1f} {i:9.2f} {s:9.2f} {b:9.2f}" for n, c, i, s, b in table]
        lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in per_layer.items()]
        metrics = per_layer
    steal1, total1 = cpu_jiffies()
    steal = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
    lines.append(f"env loadavg_end={loadavg()} cpu_steal_frac={steal:.4f} (CPU time the host gave elsewhere)")
    for line in lines:
        print(line)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    # a terminated run still removes its scratch inputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
