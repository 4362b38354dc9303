"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs each workload on a tiny configuration twice: once as is, where no
operation may fail, and once with the program's output perturbed from
outside, where the perturbed operations must be counted as failed. Exits 0
when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import shutil
import sys
import tempfile

from run import BENCH_DIR, ROOT, pin_blas_threads

TINY = {
    "LOOKBACK": 64,
    "PATCH": 8,
    "HORIZON": 8,
    "TRAIN_MODEL": dict(d_model=16, n_layers=1, d_state=4),
    "INFER_MODEL": dict(d_model=16, n_layers=1, d_state=4),
    "TRAIN_ROWS": 400,
    "EVAL_ROWS": 600,
    "EVAL_TRAIN_END": 300,
    "EVAL_TEST_WINDOWS": 20,
    "WARM_ROWS": 200,
    "WARM_TRAIN_END": 100,
    "WARM_TEST_WINDOWS": 4,
    "FORECAST_INPUTS": 2,
}


@contextlib.contextmanager
def patched(obj, name, make):
    original = getattr(obj, name)
    setattr(obj, name, make(original))
    try:
        yield
    finally:
        setattr(obj, name, original)


def perturbations():
    """Per workload, a context that corrupts one program output from outside.

    The references inside ``checks`` call ``tsmamba.forecast`` through the
    package namespace, so patching ``tsmamba.model.forecast`` (what the CLI
    calls) perturbs the program but not the reference."""
    import numpy as np

    from tsmamba import cli
    from tsmamba import model as M
    from tsmamba import train as TR
    from tsmamba.tensor import Tensor

    def shifted_forecast(fn):
        return lambda x, model, *a, **k: Tensor(fn(x, model, *a, **k).array + np.float32(1e-3))

    def shifted_batch(fn):
        return lambda *a, **k: fn(*a, **k) + 0.05

    def nan_loss(fn):
        return lambda *a, **k: TR.T.scale(fn(*a, **k), float("nan"))

    return {
        "forecast": lambda: patched(M, "forecast", shifted_forecast),
        "evaluate": lambda: patched(cli, "_batched_forecast", shifted_batch),
        "train": lambda: patched(TR, "stage2_loss", nan_loss),
    }


def run_once(workloads, name: str, workdir: str):
    wl = workloads.WORKLOADS[name](seed=0, seconds=1, workdir=workdir)
    outcome = workloads.Outcome()
    wl.prepare()
    wl.setup(outcome)
    wl.run_ops(1, outcome)
    wl.check(outcome)
    return outcome


def main() -> int:
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    for key, value in TINY.items():
        setattr(workloads, key, value)
    ok = True
    for name, perturb in perturbations().items():
        work = tempfile.mkdtemp(prefix="selftest-", dir=BENCH_DIR)
        try:
            clean = run_once(workloads, name, work)
            with perturb():
                bad = run_once(workloads, name, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        clean_ok = clean.attempted > 0 and clean.failed == 0
        bad_ok = bad.failed > 0
        ok = ok and clean_ok and bad_ok
        print(f"{name}: clean {clean.failed}/{clean.attempted} failed ({'ok' if clean_ok else 'WRONG'}), "
              f"perturbed {bad.failed}/{bad.attempted} failed ({'ok' if bad_ok else 'WRONG'})")
        for reason in clean.reasons + bad.reasons[:1]:
            print(f"  {reason.splitlines()[0]}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
