"""Golden bit-parity regression for surrogate-mode search.

Surrogate mode (the paper-default ``repro search``, ``sweep``,
``stability`` and ``fleet search``) computes each α/λ step in closed form
(:mod:`repro.core.surrogate_step`).  That step must follow exactly the
trajectory the autodiff tape produced: ``tests/data/golden_surrogate.npz``
was recorded from the tape engine (see
``scripts/capture_golden_trajectory.py``), and this test re-runs the same
searches and asserts every recorded array is bit-for-bit equal — the
per-epoch trajectory, the found architecture and the final α, λ and Adam
state taken from the last checkpoint.

Two runs are pinned:

* ``paper`` — a paper-default full-space search (90 epochs × 50 steps,
  μ = 1) against the latency MLP loaded from the committed predictor
  cache;
* ``tiny_macs`` — a tiny-space search under the analytic MACs predictor
  with the augmented-Lagrangian term off (μ = 0), so both penalty
  branches are covered.

If a deliberate numerical change ever invalidates the golden file,
re-record it with the capture script and say so loudly in the commit
message.
"""

import os
import tempfile

import numpy as np

from repro.core.lightnas import LightNAS, LightNASConfig
from repro.experiments.shared import fit_latency_predictor
from repro.hardware.latency import LatencyModel
from repro.predictor.analytic import AnalyticCostPredictor
from repro.runtime.checkpoint import latest_checkpoint, load_checkpoint
from repro.search_space.space import SearchSpace

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "data", "golden_surrogate.npz"
)


def _record(engine: LightNAS) -> dict:
    """Run ``engine`` to completion; every array worth pinning, flat."""
    epochs = engine.config.epochs
    with tempfile.TemporaryDirectory() as ckpt_dir:
        result = engine.search(checkpoint_dir=ckpt_dir,
                               checkpoint_every=epochs)
        _, state = load_checkpoint(latest_checkpoint(ckpt_dir))
    arrays = dict(result.trajectory.as_arrays())
    arrays["final_architecture"] = np.array(result.architecture.op_indices,
                                            dtype=np.int64)
    arrays["final_predicted_metric"] = np.array([result.predicted_metric])
    arrays["final_lambda"] = np.array([result.final_lambda])
    for key in ("alpha", "lambda", "lambda_history"):
        arrays[f"state.{key}"] = state[key]
    for key, value in state.items():
        if key.startswith("alpha_opt."):
            arrays[f"state.{key}"] = value
    return arrays


def run_golden_surrogate_searches() -> dict:
    """Run the seeded surrogate searches the golden file was recorded from."""
    space = SearchSpace()
    predictor, _ = fit_latency_predictor(space, LatencyModel(space))
    paper = LightNAS(LightNASConfig.paper(24.0, space=space, seed=3),
                     predictor=predictor)

    tiny = LightNASConfig.tiny(latency_target_ms=0.15, seed=5,
                               mode="surrogate", metric_name="macs_m",
                               epochs=30, steps_per_epoch=10,
                               penalty_mu=0.0)
    tiny_macs = LightNAS(tiny,
                         predictor=AnalyticCostPredictor(tiny.space, "macs_m"))

    arrays = {}
    for name, engine in (("paper", paper), ("tiny_macs", tiny_macs)):
        for key, value in _record(engine).items():
            arrays[f"{name}.{key}"] = value
    return arrays


def test_surrogate_searches_bit_identical_to_golden():
    golden = np.load(GOLDEN_PATH)
    arrays = run_golden_surrogate_searches()
    assert set(arrays) == set(golden.files)
    for key in golden.files:
        assert arrays[key].dtype == golden[key].dtype, key
        assert np.array_equal(arrays[key], golden[key]), (
            f"{key!r} diverged from the tape-recorded surrogate search: the "
            f"closed-form α-step is no longer bit-identical"
        )
