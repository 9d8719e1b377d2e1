"""``fimgbin`` — rebin a FITS image with a rectangular boxcar filter.

The paper (§5.3): "fimgbin rebins an image with a rectangular boxcar
filter.  The amount of data written is smaller than the input by a fixed
factor, typically four or 16."  A reduction factor of 4 is a 2×2 boxcar;
16 is 4×4.  "We modified fimgbin to reorder the reads on its input file
according to SLEDs" — each input pixel contributes to exactly one output
bin, so chunks can arrive in any order and accumulate.

The write paths differ deliberately, mirroring the paper's observation
that "the write path of the array-based code ... is substantially more
complex and does more internal buffering, partially defeating our attempts
to fully order I/Os":

* linear mode streams output rows as each boxcar band of input rows
  completes (interleaving writes with reads);
* SLEDs mode must buffer the whole accumulator and write the output at
  the end (pick order gives no completion guarantee until exhaustion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.ffsleds import (
    ffsleds_pick_finish,
    ffsleds_pick_init,
    ffsleds_pick_next_read,
)
from repro.fits.cfitsio import (
    FitsImageInfo,
    create_image,
    open_image,
    read_elements,
)
from repro.fits.format import FitsFormatError
from repro.sim.errors import InvalidArgumentError

_ELEMENT_CHUNK_BYTES = 64 * 1024
#: per-input-element accumulate cost (array indexing + add)
REBIN_CPU_PER_ELEMENT = 20.0e-9


@dataclass
class FimgbinResult:
    """Output image metadata."""

    out_path: str
    in_shape: tuple[int, int]
    out_shape: tuple[int, int]
    factor: int


def fimgbin(kernel, in_path: str, out_path: str, factor: int = 4,
            use_sleds: bool = False) -> FimgbinResult:
    """Rebin a 2-D image by ``factor`` (4 → 2×2 boxcar, 16 → 4×4)."""
    side = math.isqrt(factor)
    if side * side != factor or side < 1:
        raise InvalidArgumentError(
            f"reduction factor must be a perfect square: {factor}")
    fd = kernel.open(in_path)
    try:
        info = open_image(kernel, fd, in_path)
        if len(info.shape) != 2:
            raise FitsFormatError(
                f"{in_path}: fimgbin needs a 2-D image, got "
                f"{len(info.shape)} axes")
        width, height = info.shape  # FITS: NAXIS1 = fastest = width
        if width % side or height % side:
            raise InvalidArgumentError(
                f"image {width}x{height} not divisible by boxcar {side}")
        if use_sleds:
            out = _rebin_sleds(kernel, fd, info, width, height, side)
        else:
            out = _rebin_linear(kernel, fd, info, width, height, side)
    finally:
        kernel.close(fd)
    # rebinning raw values commutes with the affine BSCALE/BZERO transform,
    # so the output keeps the input's physical-value cards
    create_image(kernel, out_path, out, bscale=info.bscale, bzero=info.bzero)
    return FimgbinResult(out_path=out_path, in_shape=(width, height),
                         out_shape=(width // side, height // side),
                         factor=factor)


def _rebin_linear(kernel, fd: int, info: FitsImageInfo,
                  width: int, height: int, side: int) -> np.ndarray:
    """Row-band streaming rebin (the unmodified tool's access pattern)."""
    out_width = width // side
    out = np.zeros((height // side, out_width), dtype=np.float64)
    rows_per_chunk = max(1, _ELEMENT_CHUNK_BYTES
                         // (width * info.element_size))
    rows_per_chunk = max(side, (rows_per_chunk // side) * side)
    row = 0
    while row < height:
        take = min(rows_per_chunk, height - row)
        values = read_elements(kernel, fd, info, row * width, take * width,
                               apply_scaling=False)
        kernel.charge_cpu(take * width * REBIN_CPU_PER_ELEMENT)
        band = values.reshape(take, width).astype(np.float64)
        binned = band.reshape(take // side, side,
                              out_width, side).sum(axis=(1, 3))
        out[row // side: row // side + take // side] = binned
        row += take
    return _finalize(out, side, info)


def _rebin_sleds(kernel, fd: int, info: FitsImageInfo,
                 width: int, height: int, side: int) -> np.ndarray:
    """Accumulate contributions from element chunks in pick order."""
    out_width = width // side
    acc = np.zeros((height // side) * out_width, dtype=np.float64)
    per_chunk = max(1, _ELEMENT_CHUNK_BYTES // info.element_size)
    ffsleds_pick_init(kernel, fd, data_offset=info.data_offset,
                      element_size=info.element_size,
                      element_count=info.element_count,
                      preferred_elements=per_chunk)
    try:
        while True:
            advice = ffsleds_pick_next_read(kernel, fd)
            if advice is None:
                break
            first, count = advice
            values = read_elements(kernel, fd, info, first, count,
                                   apply_scaling=False)
            kernel.charge_cpu(count * REBIN_CPU_PER_ELEMENT)
            idx = np.arange(first, first + count)
            out_idx = (idx // width // side) * out_width + (idx % width) // side
            np.add.at(acc, out_idx, values.astype(np.float64))
    finally:
        ffsleds_pick_finish(kernel, fd)
    return _finalize(acc.reshape(height // side, out_width), side, info)


def _finalize(summed: np.ndarray, side: int,
              info: FitsImageInfo) -> np.ndarray:
    """Boxcar mean, cast back to the input pixel type."""
    mean = summed / (side * side)
    native = info.dtype.newbyteorder("=")
    if np.issubdtype(native, np.integer):
        return np.rint(mean).astype(native)
    return mean.astype(native)
