"""Selective state-space scans: discretization, two evaluation orders, scaling.

Walks through the core recurrence h_t = A_bar_t h_{t-1} + B_bar_t x_t with
input-dependent (B, C, dt): Mamba's discretization, the strictly
sequential kernel, the work-efficient associative scan, and their agreement.
"""

import time

import numpy as np

from tsmamba import ssm
from tsmamba import tensor as T
from tsmamba.tensor import Tensor

rng = np.random.default_rng(0)

print("== discretization: A_bar = exp(dt A), B_bar = dt B ==")
# The kernel computes its coefficients in _StepCoeffs: the selective maps for
# the whole sequence, the step terms a block of steps at a time for each group
# of rows. Scalar system
# A=-1, B=1, x=1, dt=softplus(dt_bias)=0.5: A_bar = exp(-0.5), B_bar = dt*B = 0.5.
scalar = ssm.init_ssm_params(rng, d_inner=1, n_state=1, dtype=np.float64, prefix="scalar")
scalar.a_log.assign(np.zeros((1, 1)))
scalar.x_to_b.assign(np.ones((1, 1)))
scalar.x_to_dt.assign(np.zeros(1))
scalar.dt_bias.assign(np.log(np.expm1([0.5])))
co = ssm._StepCoeffs(np.ones((1, 1, 1)), ssm._scan_weights(scalar, np.float64))
for _ in co.groups():  # the one row, whose one step is one block
    co.fill(0, 1)
print(f"A_bar = {co.a_bar[0, 0, 0, 0]:.6f}   (exp(-0.5) = {np.exp(-0.5):.6f})")
print(f"B_bar = {co.bx[0, 0, 0, 0]:.6f}   (dt*B = {0.5:.6f})")

print("\n== input-dependent parameters ==")
params = ssm.init_ssm_params(rng, d_inner=6, n_state=4, dtype=np.float64, prefix="demo")
co = ssm._StepCoeffs(rng.standard_normal((1, 200, 6)), ssm._scan_weights(params, np.float64))
print(f"B_t shape {co.b.shape[2:]}, C_t shape {co.c.shape[2:]} per step, dt range [{co.dt.min():.4f}, {co.dt.max():.4f}]")

print("\n== sequential vs parallel evaluation ==")
x = Tensor(rng.standard_normal((6, 200)))
with T.no_grad():
    y_seq = ssm.selective_scan_sequential(x, params)
y_par = ssm.selective_scan_parallel(x, params)
print(f"max |sequential - parallel| = {np.max(np.abs(y_seq.array - y_par.array)):.2e}")

print("\n== causality ==")
x2 = x.array.copy()
x2[:, 120] += 1.0
with T.no_grad():
    y2 = ssm.selective_scan_sequential(Tensor(x2), params)
first_change = int(np.argmax(np.any(y2.array != y_seq.array, axis=0)))
print(f"input perturbed at t=120; first output change at t={first_change}")

print("\n== prefix sums as a degenerate linear recurrence ==")
h = ssm.linear_recurrence_parallel(np.ones((10, 1)), np.ones((10, 1)), time_axis=0)
print(f"a=1, b=1 gives h = {h[:, 0].astype(int).tolist()}")

print("\n== wall-time scaling of the sequential kernel ==")
bench = ssm.init_ssm_params(rng, d_inner=64, n_state=16, dtype=np.float32, prefix="bench")
prev = None
for length in (1024, 2048, 4096):
    xb = Tensor(rng.standard_normal((64, length)).astype(np.float32))
    with T.no_grad():
        ssm.selective_scan_sequential(xb, bench)  # warm
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            ssm.selective_scan_sequential(xb, bench)
            times.append(time.perf_counter() - t0)
    wall = float(np.median(times)) * 1e3
    note = f"   ratio vs previous: {wall/prev:.2f}" if prev else ""
    print(f"L={length:5d}: {wall:7.1f} ms{note}")
    prev = wall
