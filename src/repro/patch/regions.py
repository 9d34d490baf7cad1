"""Spatial region arithmetic for patch-based inference.

Patch-based inference computes each output patch from the input region that
spatially influences it (its receptive field plus padding).  Regions are
half-open rectangles in a feature map's own (unpadded) coordinate system; they
may extend beyond the feature map bounds, in which case the out-of-bounds part
corresponds to convolution zero-padding.

The central operation is :func:`backward_region`: given the output region a
layer must produce and the layer's ``(kernel, stride, padding)``, return the
input region it reads.  Composing this backwards through the patch-stage
layers yields, for every layer, the exact sub-tensor each dataflow branch must
compute — which is where both the memory savings and the redundant overlap
computation of patch-based inference come from.  It acts on each axis
separately (:func:`backward_interval`), as do a bounding-box union and a clamp.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Region", "backward_interval", "backward_region", "patch_grid"]


@dataclass(frozen=True)
class Region:
    """Half-open 2-D region ``[row_start, row_stop) x [col_start, col_stop)``."""

    row_start: int
    row_stop: int
    col_start: int
    col_stop: int

    @property
    def height(self) -> int:
        return self.row_stop - self.row_start

    @property
    def width(self) -> int:
        return self.col_stop - self.col_start

    @property
    def area(self) -> int:
        return max(self.height, 0) * max(self.width, 0)

    def union(self, other: "Region") -> "Region":
        """Smallest region containing both operands (bounding box)."""
        return Region(
            min(self.row_start, other.row_start),
            max(self.row_stop, other.row_stop),
            min(self.col_start, other.col_start),
            max(self.col_stop, other.col_stop),
        )

    def clamp(self, height: int, width: int) -> "Region":
        """Clip to the bounds of a ``height x width`` feature map."""
        return Region(
            max(self.row_start, 0),
            min(self.row_stop, height),
            max(self.col_start, 0),
            min(self.col_stop, width),
        )

    def shift(self, row_offset: int, col_offset: int) -> "Region":
        """Translate the region by an offset."""
        return Region(
            self.row_start + row_offset,
            self.row_stop + row_offset,
            self.col_start + col_offset,
            self.col_stop + col_offset,
        )

    def contains(self, other: "Region") -> bool:
        """Whether ``other`` lies entirely inside this region."""
        return (
            self.row_start <= other.row_start
            and self.row_stop >= other.row_stop
            and self.col_start <= other.col_start
            and self.col_stop >= other.col_stop
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.row_start}:{self.row_stop}, {self.col_start}:{self.col_stop}]"


def backward_interval(
    start: int, stop: int, kernel: int, stride: int, padding: int
) -> tuple[int, int]:
    """One axis of :func:`backward_region`: the input interval a layer reads
    to produce output positions ``[start, stop)`` (an empty interval reads
    nothing and is returned as is)."""
    if stop <= start:
        return start, stop
    return start * stride - padding, (stop - 1) * stride - padding + kernel


def backward_region(out_region: Region, kernel: int, stride: int, padding: int) -> Region:
    """Input region a layer reads to produce ``out_region``.

    Output position ``o`` reads padded-input positions ``[o*stride, o*stride + kernel)``,
    i.e. unpadded positions ``[o*stride - padding, o*stride - padding + kernel)``.
    """
    if out_region.height <= 0 or out_region.width <= 0:
        return out_region
    rows = backward_interval(out_region.row_start, out_region.row_stop, kernel, stride, padding)
    cols = backward_interval(out_region.col_start, out_region.col_stop, kernel, stride, padding)
    return Region(*rows, *cols)


def patch_grid(
    height: int, width: int, num_patches: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Row and column intervals of a ``num_patches x num_patches`` grid over an
    ``height x width`` map: tile ``r * num_patches + c`` is ``rows[r] x cols[c]``.

    Tiles are as equal as possible (remainder rows/columns go to the trailing
    tiles), matching how MCUNetV2 tiles its patch stage output.
    """
    if num_patches <= 0:
        raise ValueError("num_patches must be positive")
    if num_patches > height or num_patches > width:
        raise ValueError(
            f"cannot split {height}x{width} map into {num_patches}x{num_patches} patches"
        )

    def _bounds(size: int) -> list[tuple[int, int]]:
        base = size // num_patches
        remainder = size % num_patches
        bounds = []
        start = 0
        for i in range(num_patches):
            extent = base + (1 if i >= num_patches - remainder else 0)
            bounds.append((start, start + extent))
            start += extent
        return bounds

    return _bounds(height), _bounds(width)
