"""Tests for region arithmetic and patch-plan construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.patch import (
    Region,
    backward_region,
    build_patch_plan,
    candidate_split_nodes,
    patch_grid,
)
from repro.quant import FeatureMapIndex


class TestRegion:
    def test_dimensions(self):
        r = Region(1, 5, 2, 8)
        assert r.height == 4 and r.width == 6 and r.area == 24

    def test_union(self):
        a = Region(0, 2, 0, 2)
        b = Region(1, 5, 1, 3)
        u = a.union(b)
        assert (u.row_start, u.row_stop, u.col_start, u.col_stop) == (0, 5, 0, 3)

    def test_clamp(self):
        r = Region(-2, 10, -1, 5).clamp(8, 4)
        assert (r.row_start, r.row_stop, r.col_start, r.col_stop) == (0, 8, 0, 4)

    def test_contains_and_shift(self):
        outer = Region(0, 10, 0, 10)
        inner = Region(2, 5, 3, 7)
        assert outer.contains(inner)
        assert not inner.contains(outer)
        shifted = inner.shift(1, -1)
        assert shifted.row_start == 3 and shifted.col_start == 2


class TestBackwardRegion:
    def test_identity_op(self):
        r = Region(2, 6, 1, 4)
        assert backward_region(r, 1, 1, 0) == r

    def test_conv3x3_stride1_pad1(self):
        r = backward_region(Region(0, 4, 0, 4), 3, 1, 1)
        assert (r.row_start, r.row_stop) == (-1, 5)

    def test_conv3x3_stride2_pad1(self):
        r = backward_region(Region(0, 2, 0, 2), 3, 2, 1)
        assert (r.row_start, r.row_stop) == (-1, 4)

    def test_empty_region_passthrough(self):
        r = Region(3, 3, 0, 0)
        assert backward_region(r, 3, 2, 1) == r

    @given(
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([1, 2]),
        st.sampled_from([1, 3, 5]),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_covers_full_receptive_field(self, start, extent, stride, kernel):
        """The backward region of [a, b) must include the receptive field of both endpoints."""
        out = Region(start, start + extent, start, start + extent)
        padding = kernel // 2
        r = backward_region(out, kernel, stride, padding)
        # First output position reads from start*stride - padding.
        assert r.row_start == start * stride - padding
        # Last output position reads up to (stop-1)*stride - padding + kernel.
        assert r.row_stop == (start + extent - 1) * stride - padding + kernel
        assert r.height >= extent  # never shrinks spatially for stride>=1


class TestSplitIntoPatches:
    """A map splits into the ``patch_grid`` rows x columns tiles."""

    @given(st.integers(min_value=4, max_value=40), st.integers(min_value=1, max_value=4))
    @settings(max_examples=50, deadline=None)
    def test_property_tiles_partition_map(self, size, grid):
        if grid > size:
            return
        rows, cols = patch_grid(size, size, grid)
        tiles = [Region(*row, *col) for row in rows for col in cols]
        assert len(tiles) == grid * grid
        total_area = sum(t.area for t in tiles)
        assert total_area == size * size
        # Tiles never overlap: row/col bounds are monotone per grid row.
        covered = np.zeros((size, size), dtype=int)
        for t in tiles:
            covered[t.row_start : t.row_stop, t.col_start : t.col_stop] += 1
        assert (covered == 1).all()

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            patch_grid(4, 4, 0)
        with pytest.raises(ValueError):
            patch_grid(2, 2, 3)


class TestPatchPlan:
    def test_plan_structure(self, tiny_mobilenet):
        fm_index = FeatureMapIndex(tiny_mobilenet)
        split = candidate_split_nodes(tiny_mobilenet, fm_index)[1]
        plan = build_patch_plan(tiny_mobilenet, split, 2, fm_index)
        assert plan.num_branches == 4
        assert set(plan.prefix_nodes).isdisjoint(plan.suffix_nodes)
        assert plan.split_output_node in plan.prefix_nodes
        assert len(plan.prefix_nodes) + len(plan.suffix_nodes) == len(
            tiny_mobilenet.topological_order()
        )

    def test_branch_regions_cover_tiles(self, tiny_mobilenet):
        fm_index = FeatureMapIndex(tiny_mobilenet)
        split = candidate_split_nodes(tiny_mobilenet, fm_index)[0]
        plan = build_patch_plan(tiny_mobilenet, split, 2, fm_index)
        for branch in plan.branches:
            clamped = branch.clamped_regions[plan.split_output_node]
            assert clamped.contains(branch.output_region)
            assert "input" in branch.clamped_regions

    def test_prefix_and_suffix_feature_maps_partition(self, tiny_mobilenet):
        fm_index = FeatureMapIndex(tiny_mobilenet)
        split = candidate_split_nodes(tiny_mobilenet, fm_index)[2]
        plan = build_patch_plan(tiny_mobilenet, split, 3, fm_index)
        prefix = set(plan.prefix_feature_maps())
        suffix = set(plan.suffix_feature_maps())
        assert prefix.isdisjoint(suffix)
        assert prefix | suffix == set(range(len(fm_index)))
        assert plan.split_feature_map() in prefix

    def test_invalid_split_node_raises(self, tiny_mobilenet):
        with pytest.raises(ValueError):
            build_patch_plan(tiny_mobilenet, "classifier", 2)

    def test_split_inside_residual_block_rejected(self, residual_graph):
        # The node feeding the Add from inside the block cannot be a split point:
        # the Add (suffix) would need the other prefix tensor too.
        fm_index = FeatureMapIndex(residual_graph)
        with pytest.raises(ValueError):
            build_patch_plan(residual_graph, "dw_act", 2, fm_index)

    def test_candidate_split_nodes_are_downsampled(self, tiny_mobilenet):
        fm_index = FeatureMapIndex(tiny_mobilenet)
        shapes = tiny_mobilenet.shapes()
        for node in candidate_split_nodes(tiny_mobilenet, fm_index):
            assert shapes[node][1] < tiny_mobilenet.input_shape[1]
