"""Tests for the plan fusion pass: fused replay kernels stay bit-exact.

Every fused kernel (folded conv+BN, shared depthwise-conv workspaces,
packed elementwise chains, stacked multi-path 1x1 convs) is accepted only
after a build-time bitwise probe on the live traced buffers, so a fused
replay must be indistinguishable — bit for bit — from the unfused replay
and from the eager tape engine, in every dtype and mode.  These tests pin
that contract, the honest accounting (``kernels_fused`` /
``fusion_rejected`` counters, ``fused:<chain>`` profiler labels), the
``fusion(False)`` escape hatch, and loud invalidation under fusion.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import nn
from repro.nn import functional as F
from repro.nn import ops
from repro.nn.plan import PlanError, StepProgram

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False,
                   allow_infinity=False, width=64)


def arrays(shape):
    return hnp.arrays(np.float64, shape, elements=finite)


def make_dw_model(rng, dtype="float64"):
    """1x1 conv → depthwise 3x3 → BN → ReLU6 → head.

    Exercises every fusion family that fires inside the supernet blocks:
    shared depthwise col workspaces (forward / grad-weight / clipped
    grad-input), conv+BN folding (eval plans), and elementwise chains.
    """
    with nn.dtype_scope(dtype):
        model = nn.Sequential(
            nn.Conv2d(3, 8, 1, rng=rng),
            nn.Conv2d(8, 8, 3, padding=1, groups=8, rng=rng),
            nn.BatchNorm2d(8),
            nn.ReLU6(),
            nn.GlobalAvgPool(),
            nn.Flatten(),
            nn.Linear(8, 5, rng),
        )
    return model


def train_steps(model, opt, xs, labels, program=None):
    losses = []
    targets = F.one_hot(labels, 5)
    model.train(True)
    for x in xs:
        if program is None:
            logits = model(nn.Tensor(x))
            loss = F.cross_entropy(logits, labels)
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        else:
            def fn(ts):
                return {"loss": F.cross_entropy(model(ts["x"]),
                                                targets=ts["t"])}
            opt.zero_grad()
            out = program.run(("step", x.shape), {"x": x, "t": targets}, fn)
            opt.step()
            losses.append(float(out["loss"]))
    return losses


def run_mode(mode, dtype="float64", steps=4):
    """One seeded training run; mode is 'eager', 'fused' or 'unfused'."""
    rng_x = np.random.default_rng(3)
    xs = [rng_x.normal(size=(4, 3, 6, 6)) for _ in range(steps)]
    labels = rng_x.integers(0, 5, size=4)
    with nn.dtype_scope(dtype):
        model = make_dw_model(np.random.default_rng(0), dtype)
        opt = nn.SGD(model.parameters(), lr=0.05, momentum=0.9)
        if mode == "eager":
            losses = train_steps(model, opt, xs, labels)
            return losses, model.state_dict(), None
        program = StepProgram("t")
        with nn.fusion(mode == "fused"):
            losses = train_steps(model, opt, xs, labels, program)
        return losses, model.state_dict(), program


class TestFusedBitParity:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_fused_training_bit_identical(self, dtype):
        el, es, _ = run_mode("eager", dtype)
        fl, fs, fprog = run_mode("fused", dtype)
        ul, us, uprog = run_mode("unfused", dtype)
        assert el == fl == ul
        for key in es:
            assert np.array_equal(es[key], fs[key]), key
            assert np.array_equal(es[key], us[key]), key
        assert fprog.stats()["kernels_fused"] > 0
        assert uprog.stats()["kernels_fused"] == 0

    def test_fused_labels_attributed(self):
        _, _, program = run_mode("fused")
        (plan,) = program._plans.values()
        labels = [label for label, _ in plan._fwd + plan._bwd]
        fused = [label for label in labels if label.startswith("fused:")]
        assert fused, labels
        # depthwise forward runs through the shared col workspace kernel
        assert any(label == "fused:conv2d_dw.cols" for label in fused)

    def test_fusion_disabled_has_no_fused_kernels(self):
        _, _, program = run_mode("unfused")
        (plan,) = program._plans.values()
        labels = [label for label, _ in plan._fwd + plan._bwd]
        assert not any(label.startswith("fused:") for label in labels)
        assert program.stats()["fusion_rejected"] == 0

    def test_multipath_1x1_stacking_bit_identical(self):
        """K sibling 1x1 convs on one input stack into a single bmm."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 4, 5, 5))

        def build():
            r = np.random.default_rng(1)
            return [nn.Conv2d(4, 6, 1, rng=r) for _ in range(3)]

        def compute(convs, x_t):
            paths = [conv(x_t) for conv in convs]
            mix = paths[0] * 0.3 + paths[1] * 0.5 + paths[2] * 0.2
            return {"loss": ops.mean(mix * mix)}

        eager_convs = build()
        outs = compute(eager_convs, nn.Tensor(x))
        outs["loss"].backward()

        plan_convs = build()
        program = StepProgram("t")
        with nn.fusion(True):
            program.run(("k", x.shape), {"x": x},
                        lambda ts: compute(plan_convs, ts["x"]))
            out = program.run(("k", x.shape), {"x": x},
                              lambda ts: compute(plan_convs, ts["x"]))
        assert float(out["loss"]) == outs["loss"].item()
        for eager_c, plan_c in zip(eager_convs, plan_convs):
            assert np.array_equal(eager_c.weight.grad, plan_c.weight.grad)
        (plan,) = program._plans.values()
        labels = [label for label, _ in plan._fwd]
        assert any(label.startswith("fused:conv2d_1x1.x") for label in labels)


class TestBatchNormFoldParity:
    """BN folding on grad-free plans: bit parity across dtypes and modes.

    In float64 the distributed ``W·(γ/σ)`` product is usually *not*
    bit-equal to the unfolded chain, so the build-time probe is expected
    to reject the fold — the test asserts the honest outcome (parity
    always; the rejection counted) rather than that folding happened.
    """

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("training", [False, True])
    @settings(max_examples=10, deadline=None)
    @given(x=arrays((2, 3, 5, 5)), gamma=arrays((6,)), beta=arrays((6,)))
    def test_eval_fold_bit_parity(self, dtype, training, x, gamma, beta):
        def build():
            with nn.dtype_scope(dtype):
                r = np.random.default_rng(2)
                model = nn.Sequential(
                    nn.Conv2d(3, 6, 1, rng=r),
                    nn.BatchNorm2d(6),
                    nn.ReLU(),
                )
                bn = model.layers[1]
                bn.gamma.data[...] = np.asarray(gamma, bn.gamma.data.dtype)
                bn.beta.data[...] = np.asarray(beta, bn.beta.data.dtype)
                bn.running_mean[...] = 0.25
                bn.running_var[...] = 1.5
            model.train(training)
            return model

        def fwd(model, x_t):
            with nn.no_grad():
                return {"out": ops.mean(model(x_t))}

        eager_model = build()
        with nn.dtype_scope(dtype), nn.no_grad():
            eager = fwd(eager_model, nn.Tensor(x))["out"].data.copy()

        plan_model = build()
        program = StepProgram("t")
        with nn.dtype_scope(dtype), nn.fusion(True):
            program.run(("e", x.shape), {"x": x},
                        lambda ts: fwd(plan_model, ts["x"]), grad=False)
            out = program.run(("e", x.shape), {"x": x},
                              lambda ts: fwd(plan_model, ts["x"]),
                              grad=False)
        assert np.array_equal(out["out"], eager)
        if not training:
            # the fold site must be honestly accounted either way: bound
            # as a fused kernel, or rejected by the bitwise probe
            stats = program.stats()
            assert stats["kernels_fused"] + stats["fusion_rejected"] >= 1

    def test_fold_tracks_live_bn_params(self):
        """A fold must refold from live γ/β per replay (in-place updates)."""
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        with nn.dtype_scope("float32"):
            model = nn.Sequential(nn.Conv2d(3, 6, 1, rng=rng),
                                  nn.BatchNorm2d(6))
            model.train(False)

        def fwd(ts):
            with nn.no_grad():
                return {"out": ops.mean(model(ts["x"]))}

        program = StepProgram("t")
        with nn.dtype_scope("float32"), nn.fusion(True):
            program.run(("e", x.shape), {"x": x}, fwd, grad=False)
            bn = model.layers[1]
            bn.gamma.data *= 1.5   # in place: plans stay valid
            bn.beta.data += 0.25
            with nn.no_grad():
                expect = fwd({"x": nn.Tensor(x)})["out"].data.copy()
            out = program.run(("e", x.shape), {"x": x}, fwd, grad=False)
        assert np.array_equal(out["out"], expect)


class TestFusionInvalidation:
    def test_rebound_bn_param_raises_under_fusion(self):
        model = make_dw_model(np.random.default_rng(0))
        opt = nn.SGD(model.parameters(), lr=0.05)
        program = StepProgram("t")
        rng_x = np.random.default_rng(3)
        xs = [rng_x.normal(size=(4, 3, 6, 6))]
        labels = rng_x.integers(0, 5, size=4)
        with nn.fusion(True):
            train_steps(model, opt, xs, labels, program)
            bn = model.layers[2]
            bn.gamma.data = bn.gamma.data.copy()  # rebind, not in-place
            with pytest.raises(PlanError, match="rebound"):
                train_steps(model, opt, xs, labels, program)

    def test_shape_change_under_same_key_raises(self):
        model = make_dw_model(np.random.default_rng(0))
        opt = nn.SGD(model.parameters(), lr=0.05)
        program = StepProgram("t")
        rng_x = np.random.default_rng(3)
        labels = rng_x.integers(0, 5, size=4)
        targets = F.one_hot(labels, 5)
        x = rng_x.normal(size=(4, 3, 6, 6))

        def fn(ts):
            return {"loss": F.cross_entropy(model(ts["x"]),
                                            targets=ts["t"])}

        with nn.fusion(True):
            program.run(("fixed",), {"x": x, "t": targets}, fn)
            with pytest.raises(PlanError, match="shape"):
                program.run(("fixed",),
                            {"x": rng_x.normal(size=(2, 3, 6, 6)),
                             "t": targets[:2]}, fn)

    def test_fusion_env_and_context(self):
        assert nn.fusion_enabled()
        with nn.fusion(False):
            assert not nn.fusion_enabled()
            with nn.fusion(True):
                assert nn.fusion_enabled()
        assert nn.fusion_enabled()
