"""Machine-speed calibration for a shared host.

On a shared host the CPU time of the same work drifts by 20-40% from one
second to the next and from run to run, because other tenants compete for
caches, memory bandwidth and clock speed. The benchmark therefore runs a
fixed calibration kernel every ``INTERVAL_S`` seconds of process CPU time,
from a ``SIGPROF`` interval timer, in the middle of whatever the program is
doing. The kernel does the kinds of work the workload does, because they
do not slow down alike: a host state that slows small-array numpy calls by
80% slows streaming over large arrays by 15%. Every kernel streams
elementwise work over arrays larger than a core's cache and runs a small
matmul. The ``mixed`` kernel adds many small-array numpy calls, for a
workload that dispatches many small ops; the ``arrays`` kernel adds passes
over arrays larger than the L3 cache instead, for workloads dominated by
arrays of many MB. An operation's time is then reported at reference speed:
its CPU time, without the calibration's own, times the kernel's reference
time over the kernel time measured while (or nearest to when) the
operation ran.
The streamed arrays fit the shared L3 cache and are brought back into it
before each timed run, so that part is slowed by other tenants and not by
what the program itself left in the cache.

The kernel is the benchmark's own code and never changes with the program,
so a change of the program moves the normalized time and a change of the
host's speed does not.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25  # process CPU seconds between calibration samples

STREAM_FLOATS = 1 << 20  # 4 MB float32 arrays: past a core's L2, within L3
STREAM_PASSES = 2
MATMULS = 8

# per kernel: small-array numpy calls, float32 elements of the two arrays
# streamed from memory (past L3), and the kernel's CPU time on a quiet
# 2-vCPU Xeon (Sapphire Rapids) VM
MIXES = {
    "mixed": dict(small_calls=2400, dram_floats=0, reference_s=0.020),
    "arrays": dict(small_calls=0, dram_floats=8 << 20, reference_s=0.028),
}


class Calibrator:
    """Runs the calibration kernel on a CPU-time timer and keeps its samples."""

    def __init__(self, mix: str):
        self.mix = mix
        self.small_calls = MIXES[mix]["small_calls"]
        self.reference_s = MIXES[mix]["reference_s"]
        # filled in place: a freed temporary this large would raise glibc's
        # dynamic mmap threshold and change how the program allocates
        rng = np.random.default_rng(0)
        self._a = np.empty(STREAM_FLOATS, np.float32)
        rng.standard_normal(dtype=np.float32, out=self._a)
        self._a *= np.float32(0.01)
        self._b = np.empty_like(self._a)
        self._c = np.empty_like(self._a)
        self._small = rng.standard_normal((7, 32), dtype=np.float32)
        self._mat = rng.standard_normal((128, 128), dtype=np.float32) * np.float32(0.1)
        self._dram = np.full((2, MIXES[mix]["dram_floats"]), 0.5, np.float32)
        self.starts: list[float] = []  # process CPU time when each sample started
        self.seconds: list[float] = []  # CPU seconds each sample took
        self.spent = 0.0  # CPU seconds spent calibrating, to subtract from timed spans
        self._running = False
        self._busy = False  # a sample is being taken; the timer must not nest another
        self._previous = None

    def kernel(self) -> float:
        """The fixed calibration work; returns a checksum so none of it is skipped."""
        a, b, c, small = self._a, self._b, self._c, self._small
        for _ in range(STREAM_PASSES):
            np.exp(a, out=b)
            np.multiply(b, a, out=c)
            np.add(c, b, out=c)
            np.cumsum(c, out=b)
        acc = float(b[-1])
        for _ in range(self.small_calls):
            acc += float((small * np.float32(1.5) + small).sum())
        m = self._mat
        for _ in range(MATMULS):
            m = np.tanh(m @ self._mat)
        src, dst = self._dram
        np.multiply(src, np.float32(1.0), out=dst)
        np.add(dst, src, out=src)
        np.multiply(src, np.float32(0.5), out=src)
        return acc + float(m.sum()) + float(src[-1:].sum())

    def sample(self) -> None:
        """One timed kernel run, after its arrays are brought back into the
        cache, so the time does not depend on what the program left there."""
        self._busy = True
        t0 = time.process_time()
        np.copyto(self._b, self._a)
        np.copyto(self._c, self._a)
        t1 = time.process_time()
        self.kernel()
        t2 = time.process_time()
        self.starts.append(t0)
        self.seconds.append(t2 - t1)
        self.spent += t2 - t0
        self._busy = False

    def _on_timer(self, signum, frame) -> None:
        if not self._running:
            return
        if not self._busy:
            self.sample()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S)  # one-shot, re-armed after the kernel

    def start(self, warmup: int = 3) -> None:
        for _ in range(warmup):
            self.kernel()
        self.sample()
        self._running = True
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S)

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """The mix's reference time over the kernel time of the process CPU
        span [t0, t1]: the mean of the samples taken in it (a long operation
        integrates the host's speed over its span, and the host flips between
        a fast and a slow state), else the sample nearest to its middle."""
        if not self.seconds:
            return 1.0
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)
        if hi > lo:
            return self.reference_s / statistics.fmean(self.seconds[lo:hi])
        mid = (t0 + t1) / 2
        i = bisect.bisect_left(self.starts, mid)
        near = min((j for j in (i - 1, i) if 0 <= j < len(self.starts)), key=lambda j: abs(self.starts[j] - mid))
        return self.reference_s / self.seconds[near]

    def summary(self) -> str:
        if not self.seconds:
            return "no calibration samples"
        q = statistics.quantiles(self.seconds, n=4) if len(self.seconds) > 1 else [self.seconds[0]] * 3
        return (
            f"{self.mix} kernel, {len(self.seconds)} samples, median {statistics.median(self.seconds) * 1e3:.2f} ms "
            f"(quartiles {q[0] * 1e3:.2f}-{q[2] * 1e3:.2f} ms, reference {self.reference_s * 1e3:.2f} ms), "
            f"{self.spent:.2f} CPU s in all"
        )
