"""Performance baseline for compiled step plans (BENCH_step.json).

Measures the trace-once/replay-many step compiler against the eager tape
engine on one fixed single path of the tiny supernet.  Plans serve
fixed-architecture training (standalone retraining); the search itself
runs eagerly, because its sampled path changes every step.  Three step
shapes are timed:

* ``w``-step: single-path weight training (forward + backward + SGD),
* ``alpha``-step shape: same network, gradient also w.r.t. the gate tensor,
* ``warmup`` eval: forward-only validation (grad-free plan).

For each family the benchmark reports steady-state per-step wall time
(best of ``--repeat`` runs) and the number of tracked
:class:`~repro.nn.tensor.Tensor` allocations per step.  A replayed plan
runs the whole step through preallocated arena buffers, so its
allocation count must collapse to ~zero.

The step compiler removes *per-op Python overhead* — tape construction,
closure dispatch, fresh allocations — while unfused numpy kernel work is
shared with eager.  The default batch size (2) measures the
overhead-bound regime where that removal dominates.  The
``batch_scaling`` section covers the BLAS-bound tail: every family at
batches 8 and 16, each compiled twice — with fused replay kernels
(conv/BN folding, shared depthwise-conv workspaces, packed elementwise
chains, stacked 1x1 paths) and with fusion disabled — so the JSON
reports honestly how much of the large-batch speedup comes from fusion
rather than from replay alone.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_step_replay.py
    PYTHONPATH=src python benchmarks/bench_step_replay.py --batch-size 16

``--check`` asserts the acceptance thresholds: at the default batch the
replayed w-step is >= 2x faster than eager steady state and tracked
per-step allocations drop by >= 10x; at batch 16 the *fused* replayed
w-step is >= 1.5x faster than eager.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import nn
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.plan import StepProgram
from repro.proxy.dataset import SyntheticTask
from repro.proxy.supernet import SuperNet
from repro.search_space.macro import MacroConfig
from repro.search_space.space import SearchSpace


def _build(batch_size: int, dtype: str):
    space = SearchSpace(MacroConfig.tiny())
    with nn.dtype_scope(dtype):
        net = SuperNet(space, np.random.default_rng(0))
        optimizer = nn.SGD(net.parameters(), lr=0.05, momentum=0.9)
    task = SyntheticTask(resolution=space.macro.input_resolution,
                         train_size=128, valid_size=64, seed=0)
    batches = list(task.batches(task.train, batch_size))
    arch = space.sample(np.random.default_rng(7))
    gates = arch.one_hot(space.num_operators)
    sel = tuple(int(k) for k in np.argmax(gates, axis=1))
    return space, net, optimizer, batches, gates, sel


def _measure_pair(eager_step, eager_batches, plan_step, plan_batches,
                  steps: int, repeat: int):
    """Steady-state per-step seconds (best of ``repeat``) + allocations.

    Step 0 (the trace/warm-up step) is excluded on both sides.  The
    eager and replayed loops are measured in *alternating* rounds so
    slow drift in machine load lands on both sides of the speedup ratio
    instead of skewing whichever loop ran later; best-of-``repeat``
    additionally guards against scheduler noise within a round.
    """
    eager_step(eager_batches[0])  # warm up
    plan_step(plan_batches[0])  # trace + compile
    rounds = max(1, repeat)
    best = [float("inf"), float("inf")]
    allocs = [0.0, 0.0]
    for _ in range(rounds):
        for idx, (step, batches) in enumerate(
                ((eager_step, eager_batches), (plan_step, plan_batches))):
            before = nn.tensor_allocations()
            start = time.perf_counter()
            for i in range(steps):
                step(batches[(i + 1) % len(batches)])
            best[idx] = min(best[idx], (time.perf_counter() - start) / steps)
            allocs[idx] += (nn.tensor_allocations() - before) / steps
    return best[0], allocs[0] / rounds, best[1], allocs[1] / rounds


def bench_family(family: str, steps: int, batch_size: int,
                 dtype: str, repeat: int = 3, fused: bool = True) -> dict:
    """Benchmark one step family; ``fused=False`` compiles the plan with
    kernel fusion disabled (same schedule, unfused kernels) so the JSON
    can report an honest fused-vs-unfused replay breakdown."""
    with nn.fusion(fused):
        return _bench_family(family, steps, batch_size, dtype, repeat)


def _bench_family(family: str, steps: int, batch_size: int,
                  dtype: str, repeat: int) -> dict:
    grad = family != "warmup"

    def eager_step_factory():
        space, net, opt, batches, gates, _ = _build(batch_size, dtype)
        net.train(grad)

        def eager_step(batch):
            with nn.dtype_scope(dtype):
                if grad:
                    logits = net.forward_single_path(
                        Tensor(batch.images),
                        Tensor(gates, requires_grad=(family == "alpha")))
                    loss = F.cross_entropy(logits, batch.labels)
                    opt.zero_grad()
                    loss.backward()
                    opt.step()
                else:
                    with nn.no_grad():
                        logits = net.forward_single_path(
                            Tensor(batch.images), Tensor(gates))
                        F.cross_entropy(logits, batch.labels)
        return eager_step, batches

    def plan_step_factory():
        space, net, opt, batches, gates, sel = _build(batch_size, dtype)
        net.train(grad)
        program = StepProgram(family)
        num_classes = space.macro.num_classes
        gates_param = nn.Parameter(gates.copy(), name="gates")

        def fn(ts):
            if family == "alpha":
                gate_t = gates_param
            else:
                gate_t = Tensor(gates)
            if grad:
                logits = net.forward_single_path(ts["images"], gate_t)
                return {"loss": F.cross_entropy(logits,
                                                targets=ts["targets"])}
            with nn.no_grad():
                logits = net.forward_single_path(ts["images"], gate_t)
                return {"loss": F.cross_entropy(logits,
                                                targets=ts["targets"])}

        def plan_step(batch):
            with nn.dtype_scope(dtype):
                targets = F.one_hot(batch.labels, num_classes)
                if grad:
                    opt.zero_grad()
                    gates_param.zero_grad()
                program.run((family, sel, batch.images.shape),
                            {"images": batch.images, "targets": targets},
                            fn, grad=grad)
                if grad:
                    opt.step()
        return plan_step, batches, program

    eager_step, eager_batches = eager_step_factory()
    plan_step, plan_batches, program = plan_step_factory()
    eager_s, eager_allocs, plan_s, plan_allocs = _measure_pair(
        eager_step, eager_batches, plan_step, plan_batches, steps, repeat)

    stats = program.stats()
    return {
        "eager_step_ms": round(eager_s * 1e3, 3),
        "replay_step_ms": round(plan_s * 1e3, 3),
        "speedup": round(eager_s / plan_s, 2),
        "eager_allocs_per_step": round(eager_allocs, 1),
        "replay_allocs_per_step": round(plan_allocs, 1),
        "alloc_drop": round(eager_allocs / max(plan_allocs, 1e-9), 1)
        if plan_allocs else float(eager_allocs),
        "plans_compiled": stats["plans_compiled"],
        "replays": stats["replays"],
        "arena_bytes": stats["arena_bytes"],
        "kernels_fused": stats["kernels_fused"],
        "fusion_rejected": stats["fusion_rejected"],
    }


def _scaling_entry(family: str, steps: int, batch_size: int, dtype: str,
                   repeat: int) -> dict:
    """Fused vs unfused replay for one (family, batch size) point."""
    keys = ("eager_step_ms", "replay_step_ms", "speedup")
    fused = bench_family(family, steps, batch_size, dtype, repeat, fused=True)
    unfused = bench_family(family, steps, batch_size, dtype, repeat,
                           fused=False)
    return {
        "fused": {**{k: fused[k] for k in keys},
                  "kernels_fused": fused["kernels_fused"],
                  "fusion_rejected": fused["fusion_rejected"]},
        "unfused": {k: unfused[k] for k in keys},
    }


def run(steps: int, batch_size: int, dtype: str, check: bool,
        repeat: int = 3) -> dict:
    results = {
        "config": {"steps": steps, "batch_size": batch_size, "dtype": dtype,
                   "repeat": repeat},
        "w_step": bench_family("w", steps, batch_size, dtype, repeat),
        "alpha_step": bench_family("alpha", steps, batch_size, dtype, repeat),
        "warmup_eval": bench_family("warmup", steps, batch_size, dtype,
                                    repeat),
        # the batch-2 speedup is overhead-bound; larger batches shift the
        # step toward BLAS time, where only *fused* kernels (shared conv
        # workspaces, packed elementwise chains, stacked 1x1 paths) keep
        # replay ahead of eager — record both sides honestly, per family
        "batch_scaling": {
            str(bs): {
                family: _scaling_entry(family, steps, bs, dtype, repeat)
                for family in ("w", "alpha", "warmup")
            }
            for bs in (8, 16)
        },
    }
    if check:
        w = results["w_step"]
        assert w["speedup"] >= 2.0, (
            f"replayed w-step only {w['speedup']:.2f}x faster than eager "
            f"(acceptance floor is 2x)")
        eager_allocs = w["eager_allocs_per_step"]
        replay_allocs = max(w["replay_allocs_per_step"], 0.0)
        assert eager_allocs >= 10 * max(replay_allocs, 1e-9) or \
            replay_allocs == 0.0, (
            f"per-step tracked allocations only dropped from "
            f"{eager_allocs} to {replay_allocs} (need >= 10x)")
        w16 = results["batch_scaling"]["16"]["w"]["fused"]
        assert w16["speedup"] >= 1.5, (
            f"fused replayed w-step at batch 16 only {w16['speedup']:.2f}x "
            f"faster than eager (acceptance floor is 1.5x)")
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=16,
                        help="steady-state steps measured per family")
    parser.add_argument("--batch-size", type=int, default=2,
                        help="default 2: the overhead-bound regime the "
                             "step compiler targets")
    parser.add_argument("--repeat", type=int, default=3,
                        help="wall-time is the best of this many runs")
    parser.add_argument("--dtype", choices=("float64", "float32"),
                        default="float64")
    parser.add_argument("--check", action="store_true",
                        help="assert the acceptance thresholds")
    args = parser.parse_args()

    results = run(args.steps, args.batch_size, args.dtype, args.check,
                  args.repeat)

    from repro.experiments.reporting import render_table, save_json

    rows = []
    for name in ("w_step", "alpha_step", "warmup_eval"):
        info = results[name]
        rows.append([
            name, info["eager_step_ms"], info["replay_step_ms"],
            f"x{info['speedup']:.2f}", info["eager_allocs_per_step"],
            info["replay_allocs_per_step"],
        ])
    print(render_table(
        ["step family", "eager (ms)", "replay (ms)", "speedup",
         "allocs eager", "allocs replay"],
        rows, title=f"compiled step plans — tiny supernet, "
                    f"batch {args.batch_size}, {args.dtype}"))
    scaling_rows = [
        [f"{family} @ batch {bs}",
         entry["fused"]["eager_step_ms"],
         entry["fused"]["replay_step_ms"],
         f"x{entry['fused']['speedup']:.2f}",
         entry["unfused"]["replay_step_ms"],
         f"x{entry['unfused']['speedup']:.2f}"]
        for bs, families in results["batch_scaling"].items()
        for family, entry in families.items()
    ]
    print()
    print(render_table(
        ["batch scaling", "eager (ms)", "fused (ms)", "speedup",
         "unfused (ms)", "speedup"],
        scaling_rows, title="fused vs unfused replay by batch size"))
    path = save_json("BENCH_step", results)
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
