"""Figure 6: the bitwidth assignment QuantMCU produces.

Visualises (as a table plus an ASCII bar chart in ``extras``) the per-branch,
per-feature-map activation bitwidths VDQS assigns for MobileNetV2 and MCUNet.
The paper's observations to reproduce: more than half the feature maps are
sub-byte, the large early feature maps get low bitwidths, and the late feature
maps stay at 8 bits.
"""

from __future__ import annotations

from ..core.quantmcu import QuantMCUPipeline
from .common import calibration_images, get_trained_model
from .presets import ExperimentScale, get_scale
from .reporting import ExperimentReport

__all__ = ["run_fig6", "FIG6_MODELS"]

FIG6_MODELS = ["mobilenetv2", "mcunet"]


def _ascii_bars(labels: list[str], bits: list[int]) -> str:
    lines = []
    for label, b in zip(labels, bits):
        lines.append(f"{label:8s} {'#' * b} {b}")
    return "\n".join(lines)


def run_fig6(
    scale: str | ExperimentScale = "quick",
    models: list[str] | None = None,
    num_branches: int = 3,
    layers_per_branch: int = 6,
    sram_kb: int = 64,
) -> ExperimentReport:
    """Reproduce Figure 6 (bitwidth assignment per feature map)."""
    scale = get_scale(scale)
    models = models if models is not None else FIG6_MODELS

    rows = []
    charts: dict[str, str] = {}
    for model_name in models:
        trained = get_trained_model(model_name, scale, task="classification")
        pipeline = QuantMCUPipeline(
            trained.graph, sram_limit_bytes=sram_kb * 1024, num_patches=max(2, num_branches - 1)
        )
        result = pipeline.run(trained.dataset.calibration)
        matrix = result.mp_bitwidth_matrix()
        suffix_bits = [result.suffix_bits[idx] for idx in sorted(result.suffix_bits)]

        labels = []
        bits = []
        for branch_idx, branch_bits in enumerate(matrix[:num_branches]):
            for layer_idx, b in enumerate(branch_bits[:layers_per_branch]):
                label = f"B{branch_idx + 1}L{layer_idx + 1}"
                labels.append(label)
                bits.append(b)
                rows.append([model_name, label, b])
        charts[model_name] = _ascii_bars(labels, bits)

        sub_byte = sum(1 for b in bits + suffix_bits if b < 8)
        total = len(bits) + len(suffix_bits)
        rows.append([model_name, "sub-byte share", round(sub_byte / max(total, 1), 3)])

    return ExperimentReport(
        name="fig6",
        title="Figure 6 - bitwidth assignment after quantization (BxLy = feature map y on branch x)",
        headers=["Model", "Feature map", "Bitwidth"],
        rows=rows,
        notes=[
            "extras['charts'] holds ASCII bar charts per model.",
            "Expected shape: early feature maps (branch starts) receive low bitwidths, the final "
            "feature maps stay at 8 bits, and more than half of all feature maps are sub-byte.",
        ],
        extras={"charts": charts},
    )
