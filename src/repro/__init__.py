"""QuantMCU reproduction.

A pure-Python (NumPy) reproduction of "Value-Driven Mixed-Precision
Quantization for Patch-Based Inference on Microcontrollers" (DATE 2024),
including every substrate the paper depends on: a CNN inference/training
framework, a model zoo, quantization and patch-based-inference machinery, an
MCU performance model, synthetic datasets, all baselines, and one experiment
runner per table/figure of the paper's evaluation.

Top-level convenience imports cover the public API a downstream user needs
most often; each subpackage exposes the full detail.
"""

from . import (
    backend,
    baselines,
    core,
    data,
    devtools,
    experiments,
    hardware,
    models,
    nn,
    patch,
    quant,
    serving,
    streaming,
)
from .core import QuantMCUPipeline, QuantMCUResult, run_vdqs_whole_model
from .hardware import ARDUINO_NANO_33_BLE, STM32H743, MCUDevice, get_device
from .models import available_models, build_model
from .quant import FeatureMapIndex, QuantizationConfig
from .serving import CompiledPipeline, InferenceEngine, ModelSpec, compile_pipeline
from .streaming import StreamSession

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "nn",
    "models",
    "quant",
    "patch",
    "backend",
    "core",
    "baselines",
    "hardware",
    "data",
    "devtools",
    "experiments",
    "serving",
    "streaming",
    "StreamSession",
    "CompiledPipeline",
    "InferenceEngine",
    "ModelSpec",
    "compile_pipeline",
    "QuantMCUPipeline",
    "QuantMCUResult",
    "run_vdqs_whole_model",
    "build_model",
    "available_models",
    "QuantizationConfig",
    "FeatureMapIndex",
    "MCUDevice",
    "ARDUINO_NANO_33_BLE",
    "STM32H743",
    "get_device",
]
