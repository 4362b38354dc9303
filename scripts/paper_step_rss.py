"""Peak memory of one stage-2 loss and backward at the paper's scale.

Builds TSMamba at the scale of arXiv 2411.02941 (d_model 768, 3 layers,
lookback 512, patch 16, horizon 96, float32), runs ``train.stage2_loss`` and
``tensor.backward`` once on a seeded batch of 64 random-walk windows, and
prints the loss, a SHA-256 of the gradients' bytes, the CPU time of the step and the
process's peak RSS (``ru_maxrss``). BLAS runs on one thread.

A built model's head maps to zero (``model.init_head``), which would zero
every gradient upstream of it, so the script draws the head's ``out_w``
from the seed first; it exits 1 if a parameter's gradient is still all
zero, since the backward then did not reach it.

    PYTHONPATH=src python scripts/paper_step_rss.py --max-rss-mb 470

With ``--max-rss-mb`` the script exits 1 when the peak RSS exceeds the bound.
Run it in a fresh process: ``ru_maxrss`` is the peak of the whole process.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from tsmamba import tensor as T  # noqa: E402
from tsmamba.model import ModelConfig, build_model  # noqa: E402
from tsmamba.params import uniform_init  # noqa: E402
from tsmamba.train import stage2_loss  # noqa: E402

BATCH, SEED = 64, 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-rss-mb", type=float, default=None)
    args = parser.parse_args(argv)

    cfg = ModelConfig(horizon=96, n_channels=1, lookback=512, patch_len=16, d_model=768, n_layers=3)
    model = build_model(cfg, seed=SEED, dtype=np.float32)
    rng = np.random.default_rng(SEED)
    series = np.cumsum(rng.standard_normal((BATCH, cfg.lookback + cfg.horizon)), axis=1).astype(np.float32)
    inputs, targets = T.tensor(series[:, : cfg.lookback], np.float32), T.tensor(series[:, cfg.lookback :], np.float32)
    out_w = model.head.out_w
    out_w.assign(uniform_init(rng, out_w.value.shape, out_w.value.shape[0], np.float32).array)
    params = model.parameters()

    start = time.process_time()
    loss = stage2_loss(inputs, targets, model)
    forward_s = time.process_time() - start
    T.backward(loss, params)
    cpu_s = time.process_time() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digest = hashlib.sha256()
    for p in params:
        digest.update(p.grad.array.tobytes())
    print(f"params {sum(p.value.size for p in params)}  loss {loss.item():.6f}  gradients sha256 {digest.hexdigest()[:16]}")
    print(f"cpu {cpu_s:.2f} s (forward {forward_s:.2f} s)  peak rss {peak_mb:.0f} MB")
    unreached = [p.name for p in params if not p.grad.array.any()]
    if unreached:
        print(f"{len(unreached)} of {len(params)} gradients are all zero: {', '.join(unreached)}", file=sys.stderr)
        return 1
    if args.max_rss_mb is not None and peak_mb > args.max_rss_mb:
        print(f"peak rss {peak_mb:.0f} MB exceeds {args.max_rss_mb:.0f} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
