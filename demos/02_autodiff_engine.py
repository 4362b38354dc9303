"""The tape-based differentiation substrate underneath the model.

Shows the recorded-graph workflow (forward, backward, gradient slots), that
backward consumes the tape it walks, and the finite-difference oracle that
every analytic gradient in the test suite is checked against.
"""

import numpy as np

from tsmamba import tensor as T
from tsmamba.params import Parameter
from tsmamba.tensor import Tensor

rng = np.random.default_rng(1)

print("== a two-layer network, by hand ==")
w1 = Parameter("w1", T.tensor(rng.standard_normal((3, 5)) * 0.5))
w2 = Parameter("w2", T.tensor(rng.standard_normal((5, 2)) * 0.5))
x = T.tensor(rng.standard_normal((8, 3)))
target = T.tensor(rng.standard_normal((8, 2)))


def loss_fn(w1v, w2v):
    hidden = T.gelu(T.matmul(x, w1v))
    err = T.sub(T.matmul(hidden, w2v), target)
    return T.mean_all(T.mul(err, err))


loss = loss_fn(w1.value, w2.value)
recorded = len(loss.pairs)
T.backward(loss, [w1, w2])
print(f"loss = {loss.item():.5f}")
print(f"grad norms: w1 {np.linalg.norm(w1.grad.array):.5f}, w2 {np.linalg.norm(w2.grad.array):.5f}")
print(f"recorded parents on the loss: {recorded} before backward, {len(loss.pairs)} after (the tape is consumed)")

print("\n== finite-difference verification ==")
fd1 = T.finite_diff_grad(lambda t: loss_fn(t, w2.value), T.tensor(w1.value.array), 1e-5)
rel = np.max(np.abs(fd1.array - w1.grad.array) / np.maximum(np.abs(fd1.array), 1e-8))
print(f"max relative gap between tape and central differences: {rel:.2e}")

print("\n== inference mode skips recording ==")
with T.no_grad():
    silent = loss_fn(w1.value, w2.value)
print(f"recorded parents under no_grad: {len(silent.pairs)} (tape suspended)")

print("\n== activations used by the model ==")
z = T.tensor([-2.0, 0.0, 1.0, 25.0])
print(f"silu     {T.silu(z).array.round(6).tolist()}")
print(f"gelu     {T.gelu(z).array.round(6).tolist()}")

print("\n== rmsnorm is scale invariant ==")
v = rng.standard_normal(6)
gain = T.ones(6)
a = T.rmsnorm(T.tensor(v), gain, eps=0.0).array
b = T.rmsnorm(T.tensor(1000.0 * v), gain, eps=0.0).array
print(f"max |rmsnorm(x) - rmsnorm(1000x)| = {np.max(np.abs(a - b)):.2e}")
