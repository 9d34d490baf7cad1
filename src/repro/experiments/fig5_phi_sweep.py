"""Figure 5: sensitivity of QuantMCU to the VDPC threshold ``phi``.

Sweeps ``phi`` over the paper's range (0.90-1.00) and reports Top-1 / Top-5 on
the synthetic dataset.  Small ``phi`` protects almost every patch (accuracy
flat, little computation saved); past the knee the protection disappears and
accuracy falls towards the "w/o VDPC" level.
"""

from __future__ import annotations

from ..core.quantmcu import QuantMCUPipeline
from ..quant.bitops import model_bitops
from ..quant.config import QuantizationConfig
from .common import accuracy_from_logits, get_trained_model
from .presets import ExperimentScale, get_scale
from .reporting import ExperimentReport

__all__ = ["run_fig5", "DEFAULT_PHI_VALUES"]

DEFAULT_PHI_VALUES = (0.90, 0.92, 0.94, 0.96, 0.98, 0.999)


def run_fig5(
    scale: str | ExperimentScale = "quick",
    model_name: str = "mobilenetv2",
    phi_values: tuple[float, ...] = DEFAULT_PHI_VALUES,
    sram_kb: int = 64,
) -> ExperimentReport:
    """Reproduce Figure 5 (Top-1/Top-5 versus the outlier threshold phi)."""
    scale = get_scale(scale)
    trained = get_trained_model(model_name, scale, task="classification")
    calib = trained.dataset.calibration
    baseline_bitops = model_bitops(trained.fm_index, QuantizationConfig.uniform(8))

    rows = []
    for phi in phi_values:
        pipeline = QuantMCUPipeline(
            trained.graph,
            sram_limit_bytes=sram_kb * 1024,
            num_patches=3,
            phi=phi,
        )
        result = pipeline.run(calib)
        executor = pipeline.make_executor(result)
        logits = executor.forward(trained.eval_images)
        accuracy = accuracy_from_logits(logits, trained)
        rows.append(
            [
                phi,
                round(accuracy.top1 * 100.0, 1),
                round(accuracy.top5 * 100.0, 1),
                round(accuracy.fidelity * 100.0, 1),
                result.num_outlier_branches,
                round(result.bitops / baseline_bitops, 3),
            ]
        )

    return ExperimentReport(
        name="fig5",
        title="Figure 5 - Top-1/Top-5 accuracy of QuantMCU under different phi",
        headers=[
            "phi",
            "Top-1 (%)",
            "Top-5 (%)",
            "Fidelity (%)",
            "Outlier branches",
            "BitOPs ratio vs 8/8",
        ],
        rows=rows,
        notes=[
            "phi is interpreted as the central coverage of the non-outlier band "
            "(see repro.core.vdpc); larger phi protects fewer patches.",
            "Expected shape: accuracy is flat for small phi and drops once protection vanishes "
            "(the paper places the knee at phi = 0.96).",
        ],
    )
