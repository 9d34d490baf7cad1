"""Golden regression suite: bit-exactness pinned across refactors.

Each case replays the full quantize→patch→serve flow for one zoo model and
compares every fingerprint against the checked-in JSON (see
``golden_cases.py`` for what is pinned and ``refresh.py`` for the update
workflow).  A failure here means an observable numeric or schedule change —
either a regression, or an intentional change that must ship with refreshed
goldens explaining itself in the diff.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np
import pytest

from golden_cases import CASES, compute_case, environment_fingerprint, golden_path, load_case

from repro.serving import InferenceEngine

pytestmark = pytest.mark.parametrize("case_name", sorted(CASES))


@lru_cache(maxsize=None)
def _recompute(case_name):
    # One end-to-end quantize+compile per model per session; the fingerprint
    # tests only read the record, so sharing it is safe.
    return compute_case(case_name)


def _current_and_golden(case_name):
    path = golden_path(case_name)
    if not path.exists():  # pragma: no cover - only on a broken checkout
        pytest.fail(f"missing golden file {path}; run python tests/golden/refresh.py")
    return _recompute(case_name), load_case(case_name)


def test_schedule_and_quantization_fingerprints(case_name):
    current, golden = _current_and_golden(case_name)
    assert current["schedule"] == golden["schedule"]
    assert current["quantization"] == golden["quantization"]
    assert current["pipeline_fingerprint"] == golden["pipeline_fingerprint"]


def test_logits_pinned(case_name):
    current, golden = _current_and_golden(case_name)
    assert current["logits"]["shape"] == golden["logits"]["shape"]
    np.testing.assert_allclose(
        np.array(current["logits"]["values"]),
        np.array(golden["logits"]["values"]),
        rtol=1e-4,
        atol=1e-4,
    )
    if current["environment"] == golden["environment"]:
        # Same NumPy/BLAS build: the execution must be bit-exact.
        assert current["logits"]["sha256"] == golden["logits"]["sha256"]


def test_latency_model_pinned(case_name):
    """Latency arithmetic is pure float64 — pinned tightly on every platform."""
    current, golden = _current_and_golden(case_name)

    def _compare(a, b, path=""):
        assert type(a) is type(b), f"{path}: {type(a)} vs {type(b)}"
        if isinstance(a, dict):
            assert a.keys() == b.keys(), path
            for key in a:
                _compare(a[key], b[key], f"{path}.{key}")
        elif isinstance(a, float):
            assert a == pytest.approx(b, rel=1e-9), path
        else:
            assert a == b, path

    _compare(current["latency_model"], golden["latency_model"])


def test_streaming_reuse_pinned(case_name):
    """Streaming dirty sets and reuse rate are pure geometry — pinned exactly.

    Only cases with ``streaming=True`` carry the fingerprint; a change here
    means the frame differ, the plan geometry or the reuse accounting moved.
    """
    current, golden = _current_and_golden(case_name)
    if "streaming" not in golden:
        assert "streaming" not in current
        pytest.skip("case does not pin a streaming fingerprint")
    assert current["streaming"] == golden["streaming"]


def test_serving_path_matches_direct_logits(case_name):
    """End of the end-to-end: the engine serves the exact pinned logits."""
    from fixtures import quantize_and_compile

    params = CASES[case_name]
    _, _, compiled = quantize_and_compile(
        model_name=params["model_name"], resolution=params["resolution"]
    )
    resolution = params["resolution"]
    x = (
        np.random.default_rng(1)
        .standard_normal((2, 3, resolution, resolution))
        .astype(np.float32)
    )
    direct = compiled.infer(x)
    golden = load_case(case_name)
    # A single mini-batch request executes the identical batch → same bytes.
    with InferenceEngine(compiled, max_batch_size=2, batch_timeout_s=10.0) as engine:
        served = engine.infer(x)
    assert np.array_equal(served, direct)
    if environment_fingerprint() == golden["environment"]:
        digest = hashlib.sha256(np.ascontiguousarray(served).tobytes()).hexdigest()
        assert digest == golden["logits"]["sha256"]
    compiled.close()
