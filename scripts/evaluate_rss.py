"""Peak memory of a fresh-process ``tsmamba evaluate`` at two test-split sizes.

Writes a seeded 7-channel series and a d_model 32, 2-layer checkpoint
(lookback 512, patch 16, horizon 96, float32: the benchmark's inference
model), then runs ``tsmamba evaluate`` on the test split in a fresh process,
once with 400 and once with 3200 test windows. For each run it prints the
process's peak RSS (``ru_maxrss``), its minor page faults and its user and
system CPU time. BLAS runs on one thread.

    PYTHONPATH=src python scripts/evaluate_rss.py --max-growth-mb 20

With ``--max-growth-mb`` the script exits 1 when the peak RSS of the larger
split exceeds that of the smaller one by more than the bound. Stacking the
3200-window split's inputs in float64 alone would take 92 MB.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tsmamba import data as D  # noqa: E402
from tsmamba import model as M  # noqa: E402
from tsmamba.checkpoint import checkpoint_from_model, save_checkpoint  # noqa: E402

CHANNELS, LOOKBACK, PATCH, HORIZON = 7, 512, 16, 96
TRAIN_END, VAL_END = 1000, 1200
SPLITS = (400, 3200)
SEED = 1


def write_inputs(seed: int, workdir: str, n_test: int) -> str:
    """A seeded series whose test split holds ``n_test`` windows at stride 1."""
    rows = VAL_END + HORIZON + n_test - 1
    comps = [D.Sinusoid(freq=1 / 24, amp=1.0), D.Sinusoid(freq=1 / 168, amp=0.5), D.Trend(slope=1e-4), D.Noise(sigma=0.3)]
    path = os.path.join(workdir, f"series{n_test}.csv")
    D.write_csv(D.synth_generate(seed, CHANNELS, rows, comps), path)
    return path


def measure(ckpt: str, data: str) -> dict:
    """Run ``tsmamba evaluate`` in a fresh process; its rusage as a dict."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, "-m", "tsmamba.cli", "evaluate", "--model", ckpt, "--data", data, "--split", "test"]
    argv += ["--horizons", str(HORIZON), "--train-end", str(TRAIN_END), "--val-end", str(VAL_END)]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"evaluate exited with code {proc.returncode}")
    return {"maxrss_mb": usage.ru_maxrss / 1024, "minflt": usage.ru_minflt, "user_s": usage.ru_utime, "sys_s": usage.ru_stime}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-growth-mb", type=float, default=None)
    args = parser.parse_args(argv)

    cfg = M.ModelConfig(horizon=HORIZON, n_channels=CHANNELS, lookback=LOOKBACK, patch_len=PATCH, d_model=32, n_layers=2, d_state=16)
    results = {}
    with tempfile.TemporaryDirectory(prefix="evaluate-rss-") as workdir:
        ckpt = os.path.join(workdir, "model.ckpt")
        save_checkpoint(checkpoint_from_model(M.build_model(cfg, seed=SEED, dtype=np.float32), "stage2"), ckpt)
        for n_test in SPLITS:
            results[n_test] = r = measure(ckpt, write_inputs(SEED, workdir, n_test))
            print(
                f"windows {n_test}: maxrss {r['maxrss_mb']:.1f} MB, minor faults {r['minflt']}, "
                f"user {r['user_s']:.2f} s, system {r['sys_s']:.2f} s"
            )
    growth = results[SPLITS[1]]["maxrss_mb"] - results[SPLITS[0]]["maxrss_mb"]
    print(f"growth {growth:.1f} MB from {SPLITS[0]} to {SPLITS[1]} test windows")
    if args.max_growth_mb is not None and growth > args.max_growth_mb:
        print(f"FAIL: peak RSS grew {growth:.1f} MB > {args.max_growth_mb:.1f} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
