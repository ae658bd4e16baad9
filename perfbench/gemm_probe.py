"""Per-GEMM-shape forward and backward time of urelnet's DenseLayer.

Run as its own process, so that a BLAS thread variable set in its
environment takes effect before numpy is imported:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/gemm_probe.py '<shapes json>'

The argument is a JSON list of {"layer", "batch", "in", "out",
"activation"} objects; the output is one JSON object with the effective
BLAS thread count and the median microseconds per call of each shape.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGET_S = 0.15  # per shape and direction
MIN_REPEATS, MAX_REPEATS = 5, 400


def _median_us(fn) -> float:
    samples = []
    deadline = time.perf_counter() + BUDGET_S
    while len(samples) < MAX_REPEATS and (len(samples) < MIN_REPEATS or time.perf_counter() < deadline):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return 1e6 * statistics.median(samples)


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np

    from envinfo import blas_threads
    from urelnet.nn import DenseLayer

    rng = np.random.default_rng(0)
    rows = []
    for shape in json.loads(argv[0]):
        layer = DenseLayer.create(shape["in"], shape["out"], shape["activation"], rng)
        x = rng.standard_normal((shape["batch"], shape["in"]))
        grad = rng.standard_normal((shape["batch"], shape["out"]))
        layer.forward(x)
        forward_us = _median_us(lambda: layer.forward(x))
        backward_us = _median_us(lambda: layer.backward(grad))
        rows.append(dict(shape, forward_us=forward_us, backward_us=backward_us))
    print(json.dumps({"blas_threads": blas_threads(), "shapes": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
