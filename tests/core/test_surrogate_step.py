"""The closed-form surrogate α-step against the autodiff tape it replaces.

:class:`repro.core.surrogate_step.SurrogateStep` must return exactly what
the tape composition returns — ``sample_gates`` (sampled and deterministic)
+ ``AccuracyOracle.differentiable_loss`` + ``ConstrainedObjective.loss`` +
``backward`` — bit for bit, for any α, Gumbel noise, τ, λ and target, under
both penalty branches (μ ∈ {0, 1}), both predictor families, the tiny and
the full space, and both compute dtypes.  The tape stays here as the
reference; the search engine itself has only the closed-form path.
"""

import functools
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import nn
from repro.core.gumbel import GumbelSampler, TemperatureSchedule
from repro.core.lightnas import LightNAS, LightNASConfig
from repro.core.objective import ConstrainedObjective
from repro.core.surrogate_step import SurrogateStep
from repro.experiments.shared import fit_latency_predictor
from repro.hardware.latency import LatencyModel
from repro.predictor.analytic import AnalyticCostPredictor
from repro.proxy.accuracy_model import AccuracyOracle
from repro.runtime.telemetry import RunJournal
from repro.search_space.macro import MacroConfig
from repro.search_space.space import SearchSpace

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

SPACES = {"tiny": SearchSpace(MacroConfig.tiny()), "full": SearchSpace()}


@functools.lru_cache(maxsize=None)
def _predictor(space_name: str, kind: str, dtype: str):
    """The predictor a search would use, built in ``dtype``.

    The latency MLPs load from the committed campaign caches, exactly as
    ``repro search`` loads them; under float32 the weights are float32, as
    they are in a ``REPRO_NN_DTYPE=float32`` process.
    """
    space = SPACES[space_name]
    with nn.dtype_scope(dtype):
        if kind == "macs":
            return AnalyticCostPredictor(space, "macs_m")
        samples = 1500 if space_name == "tiny" else 10_000
        predictor, _ = fit_latency_predictor(space, LatencyModel(space),
                                             num_samples=samples)
        return predictor


@functools.lru_cache(maxsize=None)
def _oracle(space_name: str) -> AccuracyOracle:
    return AccuracyOracle(SPACES[space_name])


def tape_step(oracle, objective, alpha, noise, tau, lam):
    """The surrogate α-step as the tape computes it (the reference)."""
    sampler = GumbelSampler(TemperatureSchedule(tau, tau, 1), rng=None)
    alpha_t = nn.Parameter(alpha, name="alpha")
    lam_t = nn.Parameter([lam], name="lambda")
    _, gates = sampler.sample_gates(alpha_t, 0, noise=noise)
    valid_loss = oracle.differentiable_loss(gates)
    _, det_gates = sampler.sample_gates(alpha_t, 0, deterministic=True)
    loss, _ = objective.loss(valid_loss, det_gates, lam_t)
    loss.backward()
    return float(valid_loss.data), alpha_t.grad, lam_t.grad


def assert_step_parity(space_name, kind, dtype, alpha, noise, tau, lam,
                       target, mu):
    oracle = _oracle(space_name)
    objective = ConstrainedObjective(_predictor(space_name, kind, dtype),
                                     target, mu=mu)
    with nn.dtype_scope(dtype):
        ref_loss, ref_alpha, ref_lam = tape_step(oracle, objective, alpha,
                                                 noise, tau, lam)
        alpha_arr = nn.Parameter(alpha).data
        lam_arr = nn.Parameter([lam]).data
        step = SurrogateStep(oracle, objective, alpha_arr.dtype,
                             alpha_arr.shape)
        loss, g_alpha, g_lam = step(alpha_arr, noise,
                                    1.0 / TemperatureSchedule(tau, tau, 1).at(0),
                                    lam_arr)
    assert g_alpha.dtype == ref_alpha.dtype == np.dtype(dtype)
    assert g_lam.dtype == ref_lam.dtype == np.dtype(dtype)
    assert g_alpha.shape == ref_alpha.shape and g_lam.shape == ref_lam.shape
    # bitwise: NaN-free finite values compared with array_equal, and the
    # loss compared as the exact float the trajectory records
    assert loss == ref_loss
    assert np.array_equal(g_alpha, ref_alpha)
    assert np.array_equal(g_lam, ref_lam)


@st.composite
def step_cases(draw):
    space_name = draw(st.sampled_from(sorted(SPACES)))
    space = SPACES[space_name]
    shape = (space.num_layers, space.num_operators)
    # small value sets make argmax ties (first index wins) common
    alpha = draw(arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
        st.floats(-4.0, 4.0, allow_nan=False))))
    noise = draw(arrays(np.float64, shape, elements=st.floats(
        -3.0, 12.0, allow_nan=False)))
    return dict(
        space_name=space_name,
        kind=draw(st.sampled_from(["mlp", "macs"])),
        alpha=alpha,
        noise=noise,
        tau=draw(st.floats(0.1, 5.0)),
        lam=draw(st.floats(-3.0, 3.0)),
        target=draw(st.floats(0.02, 60.0)),
        mu=draw(st.sampled_from([0.0, 1.0])),
    )


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@settings(max_examples=150, deadline=None)
@given(case=step_cases())
def test_fused_step_matches_tape(dtype, case):
    assert_step_parity(dtype=dtype, **case)


def check_random_cases(n: int, seed: int = 0) -> int:
    """Seeded parity sweep over every space × predictor × μ combination in
    the process default dtype; returns the number of cases checked."""
    rng = np.random.default_rng(seed)
    dtype = nn.get_default_dtype().name
    checked = 0
    for space_name, space in SPACES.items():
        shape = (space.num_layers, space.num_operators)
        for kind in ("mlp", "macs"):
            for mu in (0.0, 1.0):
                for _ in range(n):
                    assert_step_parity(
                        space_name, kind, dtype,
                        alpha=rng.normal(0.0, 1.5, shape),
                        noise=-np.log(-np.log(rng.uniform(1e-12, 1.0, shape))),
                        tau=float(rng.uniform(0.1, 5.0)),
                        lam=float(rng.normal(0.0, 1.0)),
                        target=float(rng.uniform(0.05, 40.0)), mu=mu)
                    checked += 1
    return checked


def test_float32_process_matches_tape():
    """``REPRO_NN_DTYPE=float32`` makes α, λ, constants *and* predictor
    weights float32; the fused step must still match the tape bitwise."""
    env = dict(os.environ, REPRO_NN_DTYPE="float32")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    script = ("from repro import nn\n"
              "from tests.core.test_surrogate_step import check_random_cases\n"
              "assert nn.get_default_dtype().name == 'float32'\n"
              "print(check_random_cases(10))\n")
    out = subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT,
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout.split()[-1]) == 80


class TestSearchUsesFusedStep:
    def _config(self, space, **overrides):
        return LightNASConfig(space=space, target=2.3, mode="surrogate",
                              epochs=3, steps_per_epoch=4, seed=1,
                              **overrides)

    def test_surrogate_search_never_runs_the_tape(self, tiny_space,
                                                  tiny_predictor,
                                                  monkeypatch):
        def no_tape(self, grad=None):
            raise AssertionError("surrogate search ran Tensor.backward")

        monkeypatch.setattr(nn.Tensor, "backward", no_tape)
        result = LightNAS(self._config(tiny_space),
                          predictor=tiny_predictor).search()
        assert result.num_search_steps == 12

    def test_profile_ops_records_alpha_step(self, tiny_space, tiny_predictor,
                                            tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "run.jsonl")
        journal = RunJournal(trace)
        try:
            LightNAS(self._config(tiny_space, profile_ops=True),
                     predictor=tiny_predictor).search(journal=journal)
        finally:
            journal.close()
        with open(trace) as handle:
            events = [json.loads(line) for line in handle]
        epochs = [e for e in events if e.get("event") == "epoch"]
        assert len(epochs) == 3
        for epoch in epochs:
            row = epoch["op_profile"]["alpha_step"]
            assert row["calls"] == 4 and row["total_ms"] > 0
        assert main(["trace-summary", trace, "--ops"]) == 0
        assert "alpha_step" in capsys.readouterr().out


@pytest.mark.parametrize("dtype", ["float64", "float32"])
class TestComponentVJPs:
    """Each closed-form piece against its own tape code, on dense random
    inputs (soft gates reach far more distinct values than one-hot ones,
    so rare rounding differences — e.g. a numpy scalar's ``** 2`` calling
    pow() where the tape squares — cannot hide)."""

    def test_oracle_loss_vjp(self, dtype):
        oracle = _oracle("full")
        rng = np.random.default_rng(1)
        with nn.dtype_scope(dtype):
            # rows on the simplex keep the capacity near the logistic
            # midpoint, where the loss is not saturated
            for _ in range(6000):
                p_bar = nn.Parameter(rng.dirichlet(np.ones(7), 21)
                                     * rng.uniform(0.5, 1.5))
                loss = oracle.differentiable_loss(p_bar)
                loss.backward()
                value, back = oracle.differentiable_loss_vjp(p_bar.data)
                assert value == loss.data
                grad = back(np.ones((), dtype=dtype))
                assert grad.dtype == p_bar.grad.dtype
                assert np.array_equal(grad, p_bar.grad)

    @pytest.mark.parametrize("space_name", sorted(SPACES))
    @pytest.mark.parametrize("kind", ["mlp", "macs"])
    @pytest.mark.parametrize("weights", ["float64", "float32"])
    def test_predictor_forward_vjp(self, dtype, space_name, kind, weights):
        # weights built in another dtype than the step computes in: the
        # tape casts every op output, the closed form must too
        predictor = _predictor(space_name, kind, weights)
        width = SPACES[space_name].num_layers * SPACES[space_name].num_operators
        rng = np.random.default_rng(2)
        with nn.dtype_scope(dtype):
            for _ in range(200):
                flat = nn.Parameter(rng.uniform(0.0, 1.0, (1, width)))
                upstream = np.asarray(rng.normal(), dtype=dtype)
                metric = predictor.predict_tensor(flat)[0]
                metric.backward(upstream)
                value, back = predictor.forward_vjp(flat.data)
                assert value == metric.data
                grad = back(upstream)
                assert grad.dtype == flat.grad.dtype
                assert np.array_equal(grad, flat.grad)

    def test_gates_vjp(self, dtype):
        rng = np.random.default_rng(3)
        with nn.dtype_scope(dtype):
            for _ in range(300):
                alpha = nn.Parameter(rng.normal(0.0, 2.0, (21, 7)))
                noise = -np.log(-np.log(rng.uniform(1e-12, 1.0, (21, 7))))
                tau = float(rng.uniform(0.1, 5.0))
                sampler = GumbelSampler(TemperatureSchedule(tau, tau, 1),
                                        rng=None)
                _, hard = sampler.sample_gates(alpha, 0, noise=noise)
                upstream = nn.Tensor(rng.normal(0.0, 1.0, (21, 7))).data
                hard.backward(upstream)
                fused_hard, back = GumbelSampler.gates_vjp(
                    alpha.data, nn.Tensor(noise).data,
                    nn.Tensor(1.0 / tau).data)
                assert np.array_equal(fused_hard, hard.data)
                grad = back(upstream)
                assert grad.dtype == alpha.grad.dtype
                assert np.array_equal(grad, alpha.grad)
