"""The three workloads: seeded inputs, set-up, timed operations and checks.

Every workload is closed-loop with one caller: the next operation starts
when the previous one has returned. Each operation is timed on the wall
clock and on the CPU time of the process (``time.process_time``) without the
calibration kernel's own time, and that CPU time is also reported at
reference speed (see ``calibrate.py``), which is what the metrics use.
Inputs are synthetic 7-channel series
from ``data.synth_generate`` written to CSV, plus checkpoint files; the
program sees only those files (``train`` reads its CSV through
``data.load_csv``, the others go through ``cli.main``).
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import time
import traceback
from typing import NamedTuple

import numpy as np

import checks

CHANNELS = 7
LOOKBACK = 512
PATCH = 16
HORIZON = 96

# train: the mid config (d_model 128, 2 layers, d_state 16, L 512, P 16, H 96)
TRAIN_MODEL = dict(d_model=128, n_layers=2, d_state=16)
TRAIN_ROWS = 4000
STAGE_BATCH = 32  # channel-windows per stage-1 / stage-2 step
FINETUNE_BATCH = 4  # multichannel windows per fine-tune step (4 x 7 channels)
SECONDS_PER_TIMED_STEP = 6  # timed steps per stage = seconds // this (>= 2)

# evaluate / forecast: the inference checkpoint (d_model 32, 2 layers)
INFER_MODEL = dict(d_model=32, n_layers=2, d_state=16)
EVAL_ROWS = 12_000
EVAL_TRAIN_END = 8_000
EVAL_TEST_WINDOWS = 400
WARM_ROWS = 800  # warm-up evaluate: 193 windows, 8 of them in the test split
WARM_TRAIN_END = 600
WARM_TEST_WINDOWS = 8
FORECAST_INPUTS = 16  # rotating 512-row inputs

SETUP_REPEATS = 9


def make_series(seed: int, n_rows: int):
    """Seeded 7-channel series: shared daily and weekly cycles with seeded
    phases, one extra cycle per channel, a lagged copy, trend and noise."""
    from tsmamba import data as D

    rng = np.random.default_rng(seed)
    comps = [
        D.Sinusoid(freq=1 / 24, amp=1.0, phase=float(rng.uniform(0, 2 * math.pi))),
        D.Sinusoid(freq=1 / 168, amp=0.5, phase=float(rng.uniform(0, 2 * math.pi))),
    ]
    for ch in range(CHANNELS):
        period = int(rng.integers(12, 96))
        comps.append(D.Sinusoid(freq=1 / period, amp=0.4, phase=float(rng.uniform(0, 2 * math.pi)), channel=ch))
    comps += [D.Trend(slope=float(rng.uniform(-1e-4, 1e-4))), D.Noise(sigma=0.3), D.CrossLag(src=0, dst=CHANNELS - 1, lag=7, gain=0.8)]
    return D.synth_generate(seed, CHANNELS, n_rows, comps)


def write_inference_checkpoint(seed: int, path: str) -> None:
    from tsmamba import model as M
    from tsmamba.checkpoint import checkpoint_from_model, save_checkpoint

    cfg = M.ModelConfig(horizon=HORIZON, n_channels=CHANNELS, lookback=LOOKBACK, patch_len=PATCH, **INFER_MODEL)
    save_checkpoint(checkpoint_from_model(M.build_model(cfg, seed=seed, dtype=np.float32), "stage2"), path)


def median(xs):
    return statistics.median(xs)


CALIBRATION = None  # the running calibrate.Calibrator, if any


class Sample(NamedTuple):
    """One timed span: CPU seconds of the process without calibration, wall
    seconds, and the CPU seconds at reference speed."""

    cpu: float
    wall: float
    norm: float


class Mark(NamedTuple):
    cpu: float
    wall: float
    calibrating: float


def start_clocks() -> Mark:
    spent = CALIBRATION.spent if CALIBRATION is not None else 0.0
    return Mark(time.process_time(), time.perf_counter(), spent)


def since(t0: Mark) -> Sample:
    t1 = start_clocks()
    cpu = t1.cpu - t0.cpu - (t1.calibrating - t0.calibrating)
    factor = CALIBRATION.factor(t0.cpu, t1.cpu) if CALIBRATION is not None else 1.0
    return Sample(cpu, t1.wall - t0.wall, cpu * factor)


def norm_median(samples) -> float:
    return median(s.norm for s in samples)


def cpu_median(samples) -> float:
    return median(s.cpu for s in samples)


def wall_median(samples) -> float:
    return median(s.wall for s in samples)


class Outcome:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: str | None = None, count: int = 1) -> None:
        """Count ``count`` attempted operations, failed when ``reason`` is given."""
        self.attempted += count
        if reason is not None:
            self.fail(reason, count)

    def fail(self, reason: str, count: int = 1) -> None:
        """Mark already counted operations as failed, e.g. by a later check."""
        self.failed += count
        if len(self.reasons) < 5:
            self.reasons.append(reason)


def _call_cli(argv: list[str]) -> tuple[int | None, Sample, str | None]:
    """Run ``cli.main`` in-process; (exit code, its times, exception text)."""
    from tsmamba import cli

    sink = io.StringIO()
    t0 = start_clocks()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except Exception:  # a crash is a failed operation, not a benchmark error
        return None, since(t0), traceback.format_exc(limit=3)
    return code, since(t0), None


class Workload:
    """One workload: ``prepare`` writes the seeded inputs, ``setup`` is the
    program's work before the first timed operation, ``run_ops`` runs the
    timed operations and returns their samples, ``one_op`` runs a single
    operation, and ``check`` compares recorded outputs with references."""

    name = ""
    calibration_mix = "mixed"  # the calibrate.MIXES kernel that does this workload's kind of work

    def __init__(self, seed: int, seconds: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None  # set while a traced pass runs

    def op_seconds(self, samples, clock=norm_median) -> float:
        """The end-to-end operation time: the median sample, by default in
        CPU time at reference speed."""
        return clock(samples)

    def units(self, samples) -> int:
        """Operations a pass ran, for per-operation layer metrics."""
        return len(samples)

    def windows_used_per_unit(self) -> int:
        """Windows per operation that reach the model."""
        return 0

    def check(self, outcome: Outcome) -> None:
        pass


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


class StepClock:
    """Times training steps from outside: a step starts when the stage loss
    is called and ends when ``optimizer_step`` returns."""

    def __init__(self):
        self.stage = ""
        self.samples: dict[str, list[Sample]] = {}
        self._t0 = Mark(0.0, 0.0, 0.0)
        self._saved: list[tuple[str, object]] = []

    def install(self) -> None:
        import functools

        from tsmamba import train as TR

        def starts(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self._t0 = start_clocks()
                return fn(*args, **kwargs)

            return wrapper

        def ends(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.samples.setdefault(self.stage, []).append(since(self._t0))
                return out

            return wrapper

        for name, make in (("stage1_loss", starts), ("stage2_loss", starts), ("optimizer_step", ends)):
            original = getattr(TR, name)
            self._saved.append((name, original))
            setattr(TR, name, make(original))

    def uninstall(self) -> None:
        from tsmamba import train as TR

        for name, original in self._saved:
            setattr(TR, name, original)
        self._saved.clear()


class TrainWorkload(Workload):
    """Stage 1 -> stage 2 -> fine-tune (xchannel forced on), a fixed number
    of steps each, through ``train.run_stage1/run_stage2/run_finetune`` with
    checkpoints saved and reloaded between stages as the CLI pipeline does."""

    name = "train"
    calibration_mix = "arrays"
    stages = ("stage1", "stage2", "finetune")
    windows_per_step = {"stage1": STAGE_BATCH, "stage2": STAGE_BATCH, "finetune": FINETUNE_BATCH * CHANNELS}

    def __init__(self, seed: int, seconds: int, workdir: str):
        super().__init__(seed, seconds, workdir)
        self.steps = max(2, seconds // SECONDS_PER_TIMED_STEP) + 1  # the first step of each stage is warm-up
        self.csv = os.path.join(workdir, "train.csv")
        self.final_loss = float("nan")

    def prepare(self) -> None:
        from tsmamba import data as D

        D.write_csv(make_series(self.seed, TRAIN_ROWS), self.csv)

    def setup(self, outcome: Outcome) -> None:
        """Load the CSV, standardize, window, pick the step batches, build the model."""
        from tsmamba import data as D
        from tsmamba import model as M

        ds = D.load_csv(self.csv, has_date_column=False)
        spec = D.SplitSpec()
        n1, _ = D.train_boundaries(ds.n_total, spec)
        std = D.standardize(ds, D.compute_train_stats(ds, n1))
        train, _, _ = D.split_windows(std, spec, LOOKBACK, HORIZON, stride=1)
        x, y = D.flatten_channel_windows(train)
        rng = np.random.default_rng(self.seed)
        n_rows = self.steps * STAGE_BATCH
        rows1 = np.sort(rng.choice(x.shape[0], n_rows, replace=False))
        rows2 = np.sort(rng.choice(x.shape[0], n_rows, replace=False))
        wins = np.sort(rng.choice(len(train), self.steps * FINETUNE_BATCH, replace=False))
        self.x1 = x[rows1].astype(np.float32)
        self.x2, self.y2 = x[rows2].astype(np.float32), y[rows2].astype(np.float32)
        self.xf = D.stack_inputs([train[i] for i in wins]).astype(np.float32)
        self.yf = D.stack_targets([train[i] for i in wins]).astype(np.float32)
        self.windows_used = len(set((rows1 // CHANNELS).tolist()) | set((rows2 // CHANNELS).tolist()) | set(wins.tolist()))
        cfg = M.ModelConfig(horizon=HORIZON, n_channels=CHANNELS, lookback=LOOKBACK, patch_len=PATCH, **TRAIN_MODEL)
        self.model = M.build_model(cfg, seed=self.seed, dtype=np.float32)

    def _save_load(self, ckpt, name: str):
        from tsmamba.checkpoint import load_checkpoint, save_checkpoint

        path = os.path.join(self.workdir, name)
        save_checkpoint(ckpt, path)
        return load_checkpoint(path)

    def run_ops(self, seconds: int, outcome: Outcome, steps: int | None = None) -> dict:
        """One pipeline of ``steps`` steps per stage (default: the set-up's
        batches); returns per-stage step times with warm-up removed."""
        from tsmamba import train as TR

        steps = steps or self.steps
        x1, x2, y2 = self.x1[: steps * STAGE_BATCH], self.x2[: steps * STAGE_BATCH], self.y2[: steps * STAGE_BATCH]
        xf, yf = self.xf[: steps * FINETUNE_BATCH], self.yf[: steps * FINETUNE_BATCH]
        clock = StepClock()
        clock.install()
        ckpt = None
        try:
            for stage in self.stages:
                clock.stage = stage
                if self.tracer is not None:
                    self.tracer.tag = stage
                try:
                    if stage == "stage1":
                        res = TR.run_stage1(x1, TR.stage1_config(epochs=1, batch_size=STAGE_BATCH), self.model, seed=self.seed)
                    elif stage == "stage2":
                        cfg = TR.stage2_config(epochs=1, batch_size=STAGE_BATCH)
                        res = TR.run_stage2(x2, y2, cfg, ckpt, seed=self.seed)
                    else:
                        cfg = TR.finetune_config(
                            epochs=1, batch_size=FINETUNE_BATCH, enable_xchannel=True, min_samples_for_xchannel=1
                        )
                        res = TR.run_finetune(xf, yf, cfg, ckpt, seed=self.seed)
                    ckpt = self._save_load(res.checkpoint, f"{stage}.ckpt")
                except Exception:  # the stage and every later one count as failed
                    left = (len(self.stages) - self.stages.index(stage)) * steps
                    outcome.record(f"{stage} raised:\n{traceback.format_exc(limit=3)}", left)
                    break
                if len(res.step_losses) != steps:
                    outcome.record(f"{stage}: {len(res.step_losses)} steps, expected {steps}", steps)
                    continue
                for loss in res.step_losses:
                    outcome.record(checks.check_loss(loss))
                self.final_loss = res.step_losses[-1]
        finally:
            clock.uninstall()
        return {stage: clock.samples.get(stage, [])[1:] for stage in self.stages}

    def one_op(self, outcome: Outcome) -> None:
        """A fresh set-up and one step of each stage."""
        self.setup(outcome)
        self.run_ops(0, outcome, steps=1)

    def op_seconds(self, samples: dict, clock=norm_median) -> float:
        """One step of each stage: the sum of the per-stage median step times."""
        return sum(clock(samples[s]) for s in self.stages if samples[s])

    def units(self, samples: dict) -> int:
        """Operations a traced pass ran: rounds of one step per stage, warm-up included."""
        return self.steps

    def windows_used_per_unit(self) -> int:
        """Distinct windows of one set-up that reach a training step."""
        return self.windows_used

    def detail(self, samples: dict) -> list[str]:
        """Per-stage step times, throughput and final loss, each with its unit and sample count."""
        timed = sum(x.wall for s in self.stages for x in samples[s])
        windows = sum(len(samples[s]) * self.windows_per_step[s] for s in self.stages)
        lines = [
            f"{s}_step_ms {wall_median(samples[s]) * 1e3:.1f} ms wall, {cpu_median(samples[s]) * 1e3:.1f} ms CPU, "
            f"{norm_median(samples[s]) * 1e3:.1f} ms at reference speed (median, n={len(samples[s])})"
            for s in self.stages
            if samples[s]
        ]
        lines.append(f"train_windows_per_s {windows / timed:.2f} 1/s (channel-windows over {timed:.1f} s of timed steps, wall)")
        lines.append(f"train_final_loss {self.final_loss:.6f} (last fine-tune step, n=1)")
        return lines


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


class EvaluateWorkload(Workload):
    """``tsmamba evaluate`` in-process at stride 1 over a 12k-row CSV,
    with ``--train-end/--val-end`` leaving 400 test windows."""

    name = "evaluate"
    calibration_mix = "arrays"  # the no-tape scan runs on arrays of tens of MB

    def __init__(self, seed: int, seconds: int, workdir: str):
        super().__init__(seed, seconds, workdir)
        self.ckpt = os.path.join(workdir, "model.ckpt")
        self.report = os.path.join(workdir, "report.csv")
        self.data = {
            "eval": (os.path.join(workdir, "eval.csv"), EVAL_ROWS, EVAL_TRAIN_END, EVAL_TEST_WINDOWS),
            "warm": (os.path.join(workdir, "warm.csv"), WARM_ROWS, WARM_TRAIN_END, WARM_TEST_WINDOWS),
        }
        self.results: list[tuple[str, float, int]] = []  # (dataset, mse, n_windows) per successful call
        self.series = {}

    def prepare(self) -> None:
        from tsmamba import data as D

        write_inference_checkpoint(self.seed, self.ckpt)
        for key, (path, rows, _, _) in self.data.items():
            ds = make_series(self.seed + (0 if key == "eval" else 10_000), rows)
            self.series[key] = ds.values
            D.write_csv(ds, path)

    def _val_end(self, key: str) -> int:
        _, rows, _, n_test = self.data[key]
        return rows - HORIZON - n_test + 1

    def _evaluate(self, key: str, outcome: Outcome) -> Sample:
        path, _, train_end, _ = self.data[key]
        argv = ["evaluate", "--model", self.ckpt, "--data", path, "--split", "test", "--horizons", str(HORIZON)]
        argv += ["--train-end", str(train_end), "--val-end", str(self._val_end(key)), "--out", self.report]
        code, spent, crash = _call_cli(argv)
        if crash is not None or code != 0:
            outcome.record(crash or f"evaluate exited with code {code}")
            return spent
        try:
            mse, n_windows = checks.read_report_mse(self.report, HORIZON)
        except (OSError, ValueError, KeyError) as exc:
            outcome.record(f"unreadable evaluate report: {exc}")
            return spent
        outcome.record()
        self.results.append((key, mse, n_windows))
        return spent

    def setup(self, outcome: Outcome) -> None:
        self._evaluate("warm", outcome)

    def run_ops(self, seconds: int, outcome: Outcome) -> list[Sample]:
        times: list[Sample] = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start + wall_median(times) <= seconds:
            times.append(self._evaluate("eval", outcome))
        return times

    def one_op(self, outcome: Outcome) -> None:
        self._evaluate("eval", outcome)

    def windows_used_per_unit(self) -> int:
        return EVAL_TEST_WINDOWS

    def detail(self, samples) -> list[str]:
        per_s = EVAL_TEST_WINDOWS * len(samples) / sum(s.wall for s in samples)
        return [f"eval_windows_per_s {per_s:.2f} 1/s (wall, {EVAL_TEST_WINDOWS} test windows per call, n={len(samples)})"]

    def check(self, outcome: Outcome) -> None:
        """Every successful call's MSE against the per-window library forecast."""
        from tsmamba.checkpoint import load_checkpoint, model_from_checkpoint

        model = model_from_checkpoint(load_checkpoint(self.ckpt))
        refs = {}
        for key, mse, n_windows in self.results:
            if key not in refs:
                _, _, train_end, _ = self.data[key]
                inputs, targets = checks.reference_windows(self.series[key], train_end, self._val_end(key), LOOKBACK, HORIZON)
                refs[key] = (checks.reference_mse(model, inputs, targets), inputs.shape[0])
            reason = checks.check_report(mse, n_windows, *refs[key])
            if reason is not None:
                outcome.fail(f"evaluate on {key}: {reason}")


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------


class ForecastWorkload(Workload):
    """Back-to-back ``tsmamba forecast`` calls in-process on rotating
    512-row inputs, one 7-channel window per call."""

    name = "forecast"

    def __init__(self, seed: int, seconds: int, workdir: str):
        super().__init__(seed, seconds, workdir)
        self.ckpt = os.path.join(workdir, "model.ckpt")
        self.out = os.path.join(workdir, "pred.csv")
        self.inputs: list[tuple[str, np.ndarray]] = []
        self.results: list[tuple[int, np.ndarray]] = []  # (input index, forecast) per successful call

    def prepare(self) -> None:
        from tsmamba import data as D

        write_inference_checkpoint(self.seed, self.ckpt)
        values = make_series(self.seed, LOOKBACK * (FORECAST_INPUTS + 1)).values
        for i in range(FORECAST_INPUTS + 1):
            block = values[i * LOOKBACK : (i + 1) * LOOKBACK]
            path = os.path.join(self.workdir, f"input{i}.csv")
            D.write_csv(D.TimeSeriesDataset(name=f"input{i}", values=block), path)
            self.inputs.append((path, block))

    def _forecast(self, index: int, outcome: Outcome) -> Sample:
        path, _ = self.inputs[index]
        argv = ["forecast", "--model", self.ckpt, "--input", path, "--horizon", str(HORIZON), "--out", self.out]
        code, spent, crash = _call_cli(argv)
        if crash is not None or code != 0:
            outcome.record(crash or f"forecast exited with code {code}")
            return spent
        try:
            pred = checks.read_forecast_csv(self.out)
        except (OSError, ValueError) as exc:
            outcome.record(f"unreadable forecast CSV: {exc}")
            return spent
        outcome.record()
        self.results.append((index, pred))
        return spent

    def setup(self, outcome: Outcome) -> None:
        self._forecast(FORECAST_INPUTS, outcome)  # the warm-up input is never timed

    def run_ops(self, seconds: int, outcome: Outcome) -> list[Sample]:
        times: list[Sample] = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            times.append(self._forecast(len(times) % FORECAST_INPUTS, outcome))
        return times

    def one_op(self, outcome: Outcome) -> None:
        self._forecast(0, outcome)

    def detail(self, samples) -> list[str]:
        n = len(samples)
        wall = [s.wall for s in samples]
        lines = [
            f"forecast_p50_ms {median(wall) * 1e3:.2f} ms wall, {cpu_median(samples) * 1e3:.2f} ms CPU, "
            f"{norm_median(samples) * 1e3:.2f} ms at reference speed (n={n})"
        ]
        if n * 0.05 >= 10:
            lines.append(f"forecast_p95_ms {np.quantile(wall, 0.95) * 1e3:.2f} ms wall (n={n}, {int(n * 0.05)} beyond)")
        else:
            lines.append(f"forecast_p95_ms not reported: n={n} leaves fewer than 10 samples beyond it")
        lines.append(f"forecast_calls_per_s {n / sum(wall):.2f} 1/s (wall, n={n})")
        return lines

    def check(self, outcome: Outcome) -> None:
        """Every successful call's CSV against a library forecast of the same window."""
        from tsmamba.checkpoint import load_checkpoint, model_from_checkpoint

        model = model_from_checkpoint(load_checkpoint(self.ckpt))
        refs = {}
        for index, pred in self.results:
            if index not in refs:
                refs[index] = checks.reference_forecast(model, self.inputs[index][1])
            reason = checks.check_forecast(pred, refs[index])
            if reason is not None:
                outcome.fail(f"forecast on input {index}: {reason}")


WORKLOADS = {w.name: w for w in (TrainWorkload, EvaluateWorkload, ForecastWorkload)}
