"""A fixed unit of work, timed next to every operation to cancel the host's speed.

On a shared host the same code runs up to a third faster or slower from
one minute to the next, and a whole run of the benchmark tends to be fast
or slow.  The benchmark therefore times this unit of work before and
after each operation and reports the operation in reference seconds:

    reference seconds = wall seconds * REFERENCE_S / calibration seconds

where the calibration time is the mean of the two timings around the
operation.  A change to cgb moves the wall time and leaves the
calibration alone, so it moves the reference seconds by the same share.
A slow spell of the host moves both, and cancels.  Operations that are
processes of their own (the cli-cold commands) are calibrated by a fresh
interpreter that runs the unit of work, against REFERENCE_PROCESS_S.

The unit mixes the three kinds of work cgb does: interpreter-bound
products of dicts keyed by bit masks (the Grassmann engine and the efts
polynomials), numpy on many small matrices (the curvature tensor and
jets), and passes over an 8 MB array (quadrature grids).  It calls
nothing in cgb.  numpy is imported on first use, so importing this
module leaves the timed set-up's imports alone.

    python3 cgbbench/calibrate.py    # runs the unit of work once
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

# medians of calibration_s() and process_calibration_s() on the reference
# environment in README.md
REFERENCE_S = 0.067
REFERENCE_PROCESS_S = 0.28

_state: dict = {}


def _kernels():
    if not _state:
        import numpy as np

        _state["np"] = np
        _state["terms"] = {mask: 1.0 + mask * 1e-3 for mask in range(0, 1280, 3)}
        _state["batch"] = np.linspace(1.0, 2.0, 256 * 16).reshape(256, 4, 4) + 4.0 * np.eye(4)
        _state["stream"] = np.linspace(0.0, 1.0, 1_000_000)
        _state["out"] = np.empty(1_000_000)
    return _state


def _products(terms: dict) -> float:
    acc: dict[int, float] = {}
    for mask_a, ca in terms.items():
        for mask_b, cb in terms.items():
            if mask_a & mask_b:
                continue
            mask = mask_a | mask_b
            prev = acc.get(mask)
            acc[mask] = ca * cb if prev is None else prev + ca * cb
    return sum(acc.values())


def _small_matrices(np, batch) -> float:
    x = batch
    for _ in range(40):
        x = np.einsum("nij,njk->nik", np.linalg.inv(x), batch) + batch
    return float(x.sum())


def _stream(np, stream, out) -> float:
    total = 0.0
    for scale in (1.0001, 0.9999, 1.0002, 0.9998):
        np.multiply(stream, scale, out=out)
        out += 0.5
        total += float(out.sum())
    return total


def _one_pass(k: dict) -> None:
    _products(k["terms"])
    _small_matrices(k["np"], k["batch"])
    _stream(k["np"], k["stream"], k["out"])


def calibration_s() -> float:
    """Seconds this host takes now for the fixed unit of work (two passes)."""
    k = _kernels()
    _one_pass(k)  # untimed: refills the caches the operation before it evicted
    start = perf_counter()
    _one_pass(k)
    _one_pass(k)
    return perf_counter() - start


def process_calibration_s() -> float:
    """Seconds a fresh interpreter takes to start, import numpy and run calibration_s().

    The calibration for operations that are processes of their own: their
    time goes mostly to start-up and imports, which calibration_s() in the
    parent tracks worse than a fresh interpreter does.
    """
    start = perf_counter()
    subprocess.run([sys.executable, __file__], check=True)
    return perf_counter() - start


def reference_seconds(
    wall_s: float, calibration_before_s: float, calibration_after_s: float, reference_s: float = REFERENCE_S
) -> float:
    """Wall seconds rescaled to the host speed at which the calibration reads reference_s."""
    return wall_s * reference_s * 2.0 / (calibration_before_s + calibration_after_s)


if __name__ == "__main__":
    calibration_s()
