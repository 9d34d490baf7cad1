"""Golden-fingerprint computation shared by the test and the refresh script.

A *golden case* runs one zoo model end-to-end through the full serving flow —
build → QuantMCU quantize → compile → patch-based inference — and fingerprints
everything a refactor could silently change:

* the compiled pipeline fingerprint (weights + deployment configuration);
* the chosen patch schedule and searched bitwidth totals (BitOPs, peak SRAM);
* a SHA-256 over the exact output logits bytes for a fixed input batch;
* the analytic latency-model numbers (layer-based, patch-based and a
  batch-4 serving estimate on one device).

Logit *bytes* are only reproducible on one BLAS/NumPy build, so each golden
file records the environment it was produced on; the test enforces the exact
hash when the environment matches and falls back to a numeric tolerance
otherwise.  The integer-domain convolutions are exact on any build; what
still depends on it is the float arithmetic around them: the stem
convolution's per-sample GEMM on the image, the head ``Linear``'s per-row
product, and the float32 rounding of folded epilogue constants (NumPy's
``sqrt``, divides and multiplies), which a code on a quantization threshold
can turn into a different level.  Everything else (fingerprints, schedules, latency arithmetic) is
pure Python/float64 and must match everywhere.

Refresh with ``python tests/golden/refresh.py`` after an *intentional*
numeric change, and commit the updated JSON together with the change that
explains it.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
REPO_ROOT = GOLDEN_DIR.parent.parent
for _path in (REPO_ROOT / "src", REPO_ROOT / "tests"):  # refresh.py runs without PYTHONPATH
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np

from repro.core import QuantMCUPipeline
from repro.hardware import (
    STM32H743,
    estimate_layer_based_latency,
    estimate_patch_based_latency,
    estimate_serving_latency,
)
from repro.serving import ModelSpec, compile_pipeline

#: The two zoo models pinned by the golden suite.  ``streaming=True`` also
#: pins the streaming reuse fingerprint (per-frame dirty sets and reuse rate
#: of a fixed synthetic video) — pure integer geometry plus exact float
#: comparisons of deterministically generated frames, so it is environment-
#: independent, unlike the logit bytes.
CASES: dict[str, dict] = {
    "mobilenetv2": dict(model_name="mobilenetv2", resolution=32, streaming=True),
    "mcunet": dict(model_name="mcunet", resolution=48),
}


def _blas_fingerprint() -> str:
    """Identify the BLAS backend: same NumPy version over OpenBLAS vs MKL
    rounds GEMMs differently, so it must be part of the environment key."""
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return f"{blas.get('name', 'unknown')}-{blas.get('version', 'unknown')}"
    except Exception:  # pragma: no cover - very old NumPy
        return "unknown"


def environment_fingerprint() -> dict:
    """What exact logit bytes depend on: the NumPy/BLAS build and the CPU."""
    return {
        "numpy": np.__version__,
        "blas": _blas_fingerprint(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def golden_path(case_name: str) -> Path:
    return GOLDEN_DIR / f"golden_{case_name}.json"


def compute_case(case_name: str) -> dict:
    """Run one case end-to-end and return its fingerprint record."""
    params = CASES[case_name]
    model_name, resolution = params["model_name"], params["resolution"]
    spec = ModelSpec(model_name, resolution, 4, 0.35, 3)
    model = spec.build()
    calib = (
        np.random.default_rng(0)
        .standard_normal((4, 3, resolution, resolution))
        .astype(np.float32)
    )
    pipeline = QuantMCUPipeline(model, sram_limit_bytes=64 * 1024, num_patches=2)
    result = pipeline.run(calib)
    compiled = compile_pipeline(pipeline, result, spec=spec)

    x = (
        np.random.default_rng(1)
        .standard_normal((2, 3, resolution, resolution))
        .astype(np.float32)
    )
    logits = compiled.infer(x)

    plan = compiled.plan
    suffix_config, branch_configs = compiled.quantization_configs()
    layer_based = estimate_layer_based_latency(plan.fm_index, suffix_config, STM32H743)
    patch_based = estimate_patch_based_latency(plan, STM32H743, suffix_config, branch_configs)
    serving4 = estimate_serving_latency(
        plan, STM32H743, batch_size=4, config=suffix_config, branch_configs=branch_configs
    )

    streaming = None
    if params.get("streaming"):
        from repro.data import SyntheticVideo

        video = SyntheticVideo(
            num_frames=4, resolution=resolution, motion_fraction=0.3, seed=2
        )
        session = compiled.open_stream()
        for frame in video:
            incremental = session.process(frame)
            assert np.array_equal(incremental, compiled.infer(frame[None])[0])
        session.process(video.frames[-1].copy())  # identical frame: full reuse
        stream_stats = session.stats()
        streaming = {
            "frames": stream_stats.frames,
            "num_branches": compiled.plan.num_branches,
            "dirty_branches_per_frame": [
                list(frame.dirty_branches) for frame in session.frame_stats
            ],
            "reuse_rate": round(stream_stats.reuse_rate, 6),
            "mac_fraction": round(stream_stats.mac_fraction, 6),
        }

    return {
        "environment": environment_fingerprint(),
        "model": {"name": model_name, "resolution": resolution},
        "schedule": {
            "split_output_node": plan.split_output_node,
            "num_patches": plan.num_patches,
            "num_branches": plan.num_branches,
            "weight_bits": result.weight_bits,
        },
        "quantization": {
            "bitops": result.bitops,
            "peak_memory_bytes": result.peak_memory_bytes,
            "suffix_bits": {str(k): v for k, v in sorted(result.suffix_bits.items())},
        },
        "pipeline_fingerprint": compiled.fingerprint,
        "logits": {
            "sha256": hashlib.sha256(np.ascontiguousarray(logits).tobytes()).hexdigest(),
            "shape": list(logits.shape),
            "values": [round(float(v), 6) for v in logits.ravel()],
        },
        "latency_model": {
            "layer_based_ms": layer_based.total_ms,
            "patch_based_ms": patch_based.total_ms,
            "serving_batch4_ms": serving4.total_ms,
        },
        **({"streaming": streaming} if streaming is not None else {}),
    }


def write_case(case_name: str) -> Path:
    path = golden_path(case_name)
    record = compute_case(case_name)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def load_case(case_name: str) -> dict:
    return json.loads(golden_path(case_name).read_text())
