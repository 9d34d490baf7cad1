"""Figure 4: the VDPC ablation.

Accuracy of three configurations on several networks and both tasks:

* **MCUNetV2** — patch-based inference with uniform 8-bit quantization (the
  accuracy reference; patch-based execution itself is lossless);
* **QuantMCU w/o VDPC** — the VDQS mixed-precision assignment applied to every
  branch, outlier patches included;
* **QuantMCU** — the full method, protecting outlier-patch branches at 8 bits.

The paper's claim: dropping VDPC costs 10-15 % accuracy, the full method stays
within ~1 % of MCUNetV2.
"""

from __future__ import annotations

from ..core.quantmcu import QuantMCUPipeline
from .common import accuracy_from_logits, evaluate_patch_quantized, get_trained_model
from .presets import ExperimentScale, get_scale
from .reporting import ExperimentReport

__all__ = ["run_fig4", "FIG4_MODELS_FULL", "FIG4_MODELS_QUICK"]

FIG4_MODELS_FULL = ["mobilenetv2", "inception", "squeezenet", "resnet18", "vgg16"]
FIG4_MODELS_QUICK = ["mobilenetv2", "resnet18"]


def _evaluate_model(model_name: str, task: str, scale: ExperimentScale, sram_kb: int) -> list[list]:
    trained = get_trained_model(model_name, scale, task=task)
    metric = "Top-1 (%)" if task == "classification" else "mAP (%)"
    calib = trained.dataset.calibration
    sram_limit = sram_kb * 1024

    pipeline = QuantMCUPipeline(trained.graph, sram_limit_bytes=sram_limit, num_patches=3)
    result = pipeline.run(calib)
    plan = result.plan

    def metric_value(acc) -> float:
        return (acc.top1 if task == "classification" else acc.map_score) * 100.0

    # MCUNetV2: patch-based execution, uniform 8-bit.
    mcunet_acc = evaluate_patch_quantized(trained, plan, 8, result.activation_ranges)

    # QuantMCU without VDPC: every branch uses its VDQS assignment.
    pipeline_novdpc = QuantMCUPipeline(
        trained.graph, sram_limit_bytes=sram_limit, num_patches=3, use_vdpc=False
    )
    result_novdpc = pipeline_novdpc.run(calib)
    logits_novdpc = pipeline_novdpc.make_executor(result_novdpc).forward(trained.eval_images)

    # Full QuantMCU.
    logits_full = pipeline.make_executor(result).forward(trained.eval_images)

    novdpc_acc = accuracy_from_logits(logits_novdpc, trained)
    full_acc = accuracy_from_logits(logits_full, trained)

    return [
        [
            model_name,
            metric,
            round(trained.fp32_accuracy * 100.0, 1),
            round(metric_value(mcunet_acc), 1),
            round(metric_value(novdpc_acc), 1),
            round(metric_value(full_acc), 1),
            round(novdpc_acc.fidelity * 100.0, 1),
            round(full_acc.fidelity * 100.0, 1),
        ]
    ]


def run_fig4(
    scale: str | ExperimentScale = "quick",
    models: list[str] | None = None,
    tasks: tuple[str, ...] = ("classification", "detection"),
    sram_kb: int = 64,
) -> ExperimentReport:
    """Reproduce Figure 4 (accuracy ablation of VDPC)."""
    scale = get_scale(scale)
    if models is None:
        models = FIG4_MODELS_QUICK if scale.is_quick else FIG4_MODELS_FULL

    rows = []
    for task in tasks:
        for model_name in models:
            rows.extend(_evaluate_model(model_name, task, scale, sram_kb))

    return ExperimentReport(
        name="fig4",
        title="Figure 4 - accuracy of MCUNetV2 vs QuantMCU w/o VDPC vs QuantMCU",
        headers=[
            "Model",
            "Metric",
            "FP32",
            "MCUNetV2 (8-bit)",
            "QuantMCU w/o VDPC",
            "QuantMCU",
            "w/o VDPC fidelity (%)",
            "QuantMCU fidelity (%)",
        ],
        rows=rows,
        notes=[
            "Accuracies are on the synthetic datasets (absolute values differ from the paper; "
            "the ablation gap is the reproduced quantity).",
            "Fidelity = argmax agreement with the FP32 model, the scale-free proxy for "
            "quantization-induced accuracy loss.",
            "Expected shape: QuantMCU tracks MCUNetV2 closely; dropping VDPC costs "
            "substantially more accuracy (paper: 10-15%).",
        ],
    )
