"""Conv kernel benchmark: gather-plan im2col/col2im vs the reference kernels.

Times one call of each kernel at the conv layer shapes of the ``test``
preset's CNN with a batch of 8 — cifar10's first layer (3 -> 4 channels on
8x8 images) and second layer (4 -> 8 channels on 4x4 after pooling), both
3x3 with pad 1. The references are the strided-view kernels the gather
kernels replaced (``tests/nn/reference_kernels.py``: ``np.pad`` plus a
6-D transposed copy, and one strided scatter-add per kernel tap).

Acceptance criteria (asserted here, recorded in ``BENCH_kernels.json``,
gated by ``compare_baselines.py``): per-call speedup over the reference
>= 1.5x for each kernel, summed over the two layer shapes. Outputs are
checked bit-equal before any timing is trusted.
"""

import importlib.util
import json
import os
import timeit

import numpy as np

from repro.nn.functional import col2im, im2col

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_kernels.json")

BATCH = 8
KERNEL, STRIDE, PAD = 3, 1, 1
#: (name, input shape) of each conv layer of the test-preset cifar10 CNN.
LAYERS = (("conv1", (BATCH, 3, 8, 8)), ("conv2", (BATCH, 4, 4, 4)))
CALLS, REPEATS = 500, 7


def load_reference_kernels():
    path = os.path.join(REPO_ROOT, "tests", "nn", "reference_kernels.py")
    spec = importlib.util.spec_from_file_location("reference_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def per_call_s(fn) -> float:
    """Best-of-``REPEATS`` mean seconds per call over ``CALLS`` calls."""
    return min(timeit.repeat(fn, number=CALLS, repeat=REPEATS)) / CALLS


def record_result(result):
    with open(BENCH_PATH, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")


class TestConvKernelSpeed:
    def test_gather_kernels_beat_reference(self):
        ref = load_reference_kernels()
        rng = np.random.default_rng(0)
        args = (KERNEL, KERNEL, STRIDE, PAD)
        layers, totals = {}, {"im2col": [0.0, 0.0], "col2im": [0.0, 0.0]}
        for name, shape in LAYERS:
            x = rng.normal(size=shape)
            cols, _, _ = im2col(x, *args)
            dcols = rng.normal(size=cols.shape)
            assert np.array_equal(cols, ref.im2col_ref(x, *args)[0])
            assert np.array_equal(col2im(dcols, shape, *args), ref.col2im_ref(dcols, shape, *args))
            timings = {
                "im2col": (
                    per_call_s(lambda: im2col(x, *args)),
                    per_call_s(lambda: ref.im2col_ref(x, *args)),
                ),
                "col2im": (
                    per_call_s(lambda: col2im(dcols, shape, *args)),
                    per_call_s(lambda: ref.col2im_ref(dcols, shape, *args)),
                ),
            }
            layers[name] = {"input_shape": list(shape)}
            for kernel, (new_s, ref_s) in timings.items():
                layers[name][f"{kernel}_us"] = round(new_s * 1e6, 2)
                layers[name][f"{kernel}_ref_us"] = round(ref_s * 1e6, 2)
                totals[kernel][0] += new_s
                totals[kernel][1] += ref_s
        speedups = {kernel: ref_s / new_s for kernel, (new_s, ref_s) in totals.items()}
        record_result(
            {
                "layers": layers,
                "speedup_im2col": round(speedups["im2col"], 3),
                "speedup_col2im": round(speedups["col2im"], 3),
                "kernel": KERNEL,
                "stride": STRIDE,
                "pad": PAD,
                "cpu_count": os.cpu_count(),
            }
        )
        print(
            f"\ngather vs reference per call (batch {BATCH}): "
            f"im2col {speedups['im2col']:.2f}x, col2im {speedups['col2im']:.2f}x"
        )
        for kernel, speedup in speedups.items():
            assert speedup >= 1.5, f"expected >=1.5x {kernel} speedup over the reference, got {speedup:.2f}x"
