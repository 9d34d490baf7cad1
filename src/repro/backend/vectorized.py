"""Vectorized NumPy backend: the requested branches as a cover of rectangle runs.

The patch decomposition is the device's SRAM schedule: on a microcontroller
each branch recomputes the halo it shares with its neighbours so that only
one branch's activations are live at a time.  A server only has to
reproduce the bits, and every serving kernel is exact over integer codes
(:mod:`repro.nn.inference`), so a position's value depends only on the input
and the program, never on the extent it was computed over.  Branches that
run the same program (:attr:`PatchExecutor._branch_keys
<repro.patch.executor.PatchExecutor>`, the tuple of their prefix grids) can
therefore be computed together, over a rectangle, without the halo
recompute; any rectangle that contains a tile yields the tile's exact bytes.

**The cover.**  ``run_branches`` partitions the requested branches by
program key and covers each key's ids with runs, recursively:

* one id runs as its own branch: the run's member is the planned
  :class:`~repro.patch.plan.BranchPlan`, so a content-dependent hook sees
  the real ``patch_id`` and exactly the branch's clamped regions;
* two or more ids run as one box when the key has no content-dependent
  hook and the box costs no more MACs
  (:func:`~repro.patch.analysis.branch_macs`) than their branches.  The box
  is the bounding box of their tiles on the split map, its demand composed
  through the patch stage (:func:`~repro.patch.plan.compose_branch_demand`);
  tiles of other keys inside it are computed on the wrong grids and
  discarded;
* otherwise the ids are cut in two and each half is covered.  The cut lies
  at the widest gap between occupied tile rows or columns (row ``patch_id //
  p``, column ``patch_id % p`` on a ``p x p`` grid), the most balanced one
  on a tie, rows before columns.

Every run is a single branch or a box that passed the MAC rule, so a cover
never costs more MACs than its branches.  A uniform plan's patch stage is
one layer-by-layer pass over the whole map, and a stream's dirty set with a
gap becomes one box per side of the gap.  Runs are built on first use and
kept per ``(program key, box)``: at most ``p^2 (p+1)^2 / 4`` boxes per
program, so the cache is bounded by the plan.

**A run** is a program of :class:`~repro.nn.inference.Step` values over
slots, compiled by the executor's one compile function
(:meth:`~repro.patch.executor.PatchExecutor._compile_steps`) and run by
:func:`~repro.nn.inference.run_steps`, the loop that also runs the suffix.
It computes **compact, channels-last values**: per node, one fresh
``(n, h, w, C)`` array holding exactly the node's clamped region (for a
single branch, the rect the loop reference
:meth:`~repro.patch.executor.PatchExecutor.run_branch` computes), and one
kernel call per node: one GEMM per convolution, one strided ``einsum`` per
exact depthwise convolution, one tap loop per pooling, one fused
requantization epilogue per feature map.  Slot 0 is the call's
channels-last input copy; every step reads windows of its source slots.  A
spatial window is zero-padded only where it crosses the feature-map
border, exactly where the reference pads
(:meth:`~repro.patch.executor.PatchExecutor._extract_padded`); interior
windows are views of their source value.  A value is released after its
last reader, so a finished run holds only its split value.

Why channels-last: in ``(H, W, C)`` order a row is ``w * C`` contiguous
floats instead of ``w`` (4 to 23 in the zoo models), so each NumPy call
streams whole rows, and per-channel constants (epilogues, depthwise taps)
are tiled to that row length.  A convolution's GEMM rows
``(n * oh * ow, C_out)`` are already channels-last, and a 1x1 convolution's
im2col is a reshape of its window.  Tiles leave the backend in real units,
dequantized in the copy that stitches them into the executor's split map
(:meth:`~repro.patch.executor.PatchExecutor._allocate_split`, channels-last
in memory too, so stitching copies whole rows).

Values are fresh on every call, so concurrent callers share no buffers.  A
run is built before it is inserted into the run cache, so concurrent first
calls at worst build the same run twice.  Every step runs a pure compiled
kernel, never ``Layer.forward``, so concurrent callers share the graph
without writing to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from ..nn.graph import INPUT_NODE
from ..nn.inference import Step, run_steps
from ..patch.analysis import branch_macs
from ..patch.executor import MEMBER
from ..patch.plan import BranchPlan, compose_branch_demand
from ..patch.regions import Region
from ..quant.quantizers import fake_quantize  # noqa: F401 - profilers wrap it by module attribute
from .base import Backend

__all__ = ["VectorizedBackend"]


@dataclass(frozen=True)
class _Run:
    """One member's program: a planned branch, or a box of tiles (``patch_id`` -1)."""

    member: BranchPlan
    #: Steps over the member's clamped regions; slot 0 is the graph input.
    steps: tuple[Step, ...]
    #: The slot of the split value.
    output: int
    #: Dequantization factor of the split value; None in real units.
    scale: np.float32 | None
    macs: int


def _channels_last(x: np.ndarray) -> np.ndarray:
    """``(N, C, H, W)`` -> contiguous ``(N, H, W, C)``: one copy per call, so
    every run's input window is a view with whole-pixel rows."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


class VectorizedBackend(Backend):
    """Batched patch-stage execution (see module docstring)."""

    name = "vectorized"

    def __init__(self, executor) -> None:
        super().__init__(executor)
        plan = self.plan
        #: Per branch: its MACs with halo, the cost a box run must not exceed.
        self._macs = [  # repro: noqa[REP007] - one-time setup
            branch_macs(plan, branch) for branch in plan.branches
        ]
        #: ``(program key, box) -> _Run``, bounded by the grid's rectangles.
        self._runs: dict[tuple[tuple, Region], _Run] = {}

    # ------------------------------------------------------------------- run
    def run_branches(self, x, branch_ids):
        branches = self.plan.branches
        tiles: dict[int, np.ndarray] = {}

        def emit(patch_id: int, view: np.ndarray, scale) -> None:
            tile = view if scale is None else view * scale  # a view of this call's value
            tiles[patch_id] = tile.transpose(0, 3, 1, 2)

        self._execute(_channels_last(x), branch_ids, emit)
        return [(branches[i], tiles[i]) for i in branch_ids]

    def run_patch_stage(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        branches = self.plan.branches
        out_rows = out.transpose(0, 2, 3, 1)

        def emit(patch_id: int, view: np.ndarray, scale) -> None:
            tile = branches[patch_id].output_region
            target = out_rows[:, tile.row_start : tile.row_stop, tile.col_start : tile.col_stop]
            if scale is None:
                target[...] = view
            else:
                np.multiply(view, scale, out=target)

        self._execute(_channels_last(x), range(self.plan.num_branches), emit)
        return out

    def _execute(self, x: np.ndarray, branch_ids, emit) -> None:
        """Run the cover of ``branch_ids`` on the channels-last input ``x`` and
        ``emit`` every requested tile as a view of its run's split value."""
        branches = self.plan.branches
        split_node = self.plan.split_output_node
        for run, covered in self._partition(branch_ids):
            split = run_steps(run.steps, [x])[run.output]
            within = run.member.clamped_regions[split_node]
            for patch_id in covered:
                tile = branches[patch_id].output_region.shift(-within.row_start, -within.col_start)
                view = split[:, tile.row_start : tile.row_stop, tile.col_start : tile.col_stop]
                emit(patch_id, view, run.scale)

    def _partition(self, branch_ids) -> list[tuple[_Run, list[int]]]:
        """``[(run, ids), ...]`` computing ``branch_ids``: the ids partitioned
        by program key, each key's ids covered by :meth:`_cover`."""
        keys = self.executor._branch_keys
        by_key: dict[tuple, list[int]] = {}
        for patch_id in branch_ids:  # repro: noqa[REP007] - id bookkeeping only
            by_key.setdefault(keys[patch_id], []).append(patch_id)
        return [pair for key, ids in by_key.items() for pair in self._cover(key, ids)]

    def _cover(self, key: tuple, ids: list[int]) -> list[tuple[_Run, list[int]]]:
        """``[(run, ids), ...]`` computing every id in ``ids`` (all on program
        ``key``): the recursive rectangle cover of the module docstring."""
        branches = self.plan.branches
        if len(ids) == 1:
            branch = branches[ids[0]]
            return [(self._run_of(key, branch.output_region, branch), ids)]
        if not any(mode is MEMBER for mode in key):
            run = self._run_of(key, reduce(Region.union, [branches[i].output_region for i in ids]))
            if run.macs <= sum(self._macs[i] for i in ids):
                return [(run, ids)]
        first, second = self._cut(ids)
        return self._cover(key, first) + self._cover(key, second)

    def _cut(self, ids: list[int]) -> tuple[list[int], list[int]]:
        """Split ``ids`` at the widest gap between occupied tile rows or
        columns; on a tie, the most balanced cut, rows first."""
        p = self.plan.num_patches
        best = None
        for line in (lambda i: i // p, lambda i: i % p):
            occupied = sorted({line(i) for i in ids})
            for below, above in zip(occupied, occupied[1:]):
                first = [i for i in ids if line(i) <= below]
                score = (above - below, -abs(2 * len(first) - len(ids)))
                if best is None or score > best[0]:
                    best = (score, first, [i for i in ids if line(i) > below])
        return best[1], best[2]

    def _run_of(self, key: tuple, box: Region, member: BranchPlan | None = None) -> _Run:
        """The run of ``box`` on program ``key``, built on first use: of the
        planned branch ``member`` when given, else of the box's own demand."""
        run = self._runs.get((key, box))
        if run is None:
            executor = self.executor
            plan = self.plan
            if member is None:
                demand, clamped = compose_branch_demand(
                    plan.graph, plan.prefix_nodes, plan.split_output_node, box, executor._shapes
                )
                member = BranchPlan(-1, box, demand, clamped)
            program = executor._programs[key]
            steps, output = executor._compile_steps(
                program.nodes, (INPUT_NODE,), plan.split_output_node, member
            )
            scale = program.split.scale
            run = _Run(
                member, steps, output, None if scale == 1.0 else np.float32(scale),
                branch_macs(plan, member),
            )
            # Build, then publish: a concurrent first call keeps whichever
            # identical run landed first.
            run = self._runs.setdefault((key, box), run)
        return run
