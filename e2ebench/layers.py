"""Where the traced run puts its spans, and how spans become layer metrics.

``TARGETS`` names the public entry points wrapped in a traced run, one
span name each; the prefix before the first ``.`` of a span name is the
module (layer) it is charged to.  Nothing here edits the program: the
wrappers are installed on the imported classes and modules at run time.
"""

from __future__ import annotations

from typing import Dict, List

from spans import SpanRecorder, covered

LAYERS = ("cli", "experiments", "hardware", "core", "nn", "predictor",
          "proxy", "eval", "runtime", "archive", "service", "fleet")

#: op kinds reported one by one; every other kind is summed into "other"
OP_KINDS = ("conv2d_dw", "conv2d_1x1", "conv2d", "pad2d", "matmul", "mul",
            "add", "sub", "div", "sum", "clip", "exp", "ste", "fused")


def _rows(args, kwargs, result) -> int:
    return len(result) if hasattr(result, "__len__") else 0


def _population_rows(args, kwargs, result) -> int:
    return len(args[1]) if len(args) > 1 else len(kwargs.get("ops", ()))


#: (module:qualname, span name, optional work counter)
TARGETS = [
    # cli / experiments / hardware: set-up
    ("repro.experiments.shared:fit_latency_predictor",
     "experiments.predictor_load", None),
    ("repro.cli:fit_latency_predictor", "experiments.predictor_load", None),
    ("repro.hardware.latency:LatencyModel.__init__", "hardware.cost_tables",
     None),
    ("repro.hardware.energy:EnergyModel.__init__", "hardware.cost_tables",
     None),
    # core
    ("repro.core.lightnas:LightNAS.__init__", "core.engine_init", None),
    ("repro.core.lightnas:LightNAS.search", "core.search", None),
    ("repro.core.gumbel:GumbelSampler.sample_gates", "core.gumbel_sample",
     None),
    ("repro.core.objective:ConstrainedObjective.loss", "core.objective_loss",
     None),
    ("repro.core.lambda_opt:LagrangeMultiplier.ascend", "core.lambda_ascend",
     None),
    # nn
    ("repro.nn.tensor:Tensor.backward", "nn.backward", None),
    ("repro.nn.optim:SGD.step", "nn.optim_step", None),
    ("repro.nn.optim:Adam.step", "nn.optim_step", None),
    ("repro.nn.optim:GradientAscent.step", "nn.optim_step", None),
    ("repro.nn.plan:StepProgram.run", "nn.plan_run", None),
    # predictor
    ("repro.core.lightnas:LightNAS._default_predictor",
     "predictor.default_fit", None),
    ("repro.predictor.mlp:MLPPredictor.predict_tensor", "predictor.forward",
     None),
    ("repro.predictor.mlp:MLPPredictor.predict_population",
     "predictor.population", _rows),
    # proxy
    ("repro.proxy.accuracy_model:AccuracyOracle.differentiable_loss",
     "proxy.oracle_loss", None),
    ("repro.proxy.accuracy_model:AccuracyOracle.evaluate",
     "proxy.oracle_evaluate", None),
    ("repro.proxy.supernet:SuperNet.forward_single_path",
     "proxy.supernet_forward", None),
    ("repro.proxy.dataset:SyntheticTask.sample_batch", "proxy.task_batch",
     None),
    ("repro.proxy.dataset:SyntheticTask.__init__", "proxy.task_init", None),
    # eval
    ("repro.eval.trainer:train_standalone", "eval.train_standalone", None),
    # runtime
    ("repro.runtime.checkpoint:CheckpointManager.save",
     "runtime.checkpoint_save", None),
    ("repro.runtime.parallel:RunFleet.run", "runtime.fleet_run", None),
    # archive
    ("repro.archive.store:ArchitectureArchive.__init__", "archive.open",
     None),
    ("repro.archive.store:ArchitectureArchive.add_population",
     "archive.add_population", _population_rows),
    ("repro.archive.store:ArchitectureArchive.compact", "archive.compact",
     None),
    ("repro.archive.store:ArchitectureArchive.index", "archive.index", None),
    ("repro.archive.query:top_k", "archive.query_top_k", None),
    ("repro.archive.query:pareto_rows", "archive.query_pareto", None),
    ("repro.archive.query:hamming_neighbors", "archive.query_nearest", None),
    ("repro.archive.query:describe_rows", "archive.describe_rows", None),
    # archive.service (the in-process handlers; the server process itself
    # is measured from outside over HTTP)
    ("repro.archive.service:ArchiveService.predict", "service.predict", None),
    ("repro.archive.service:ArchiveService.query", "service.query", None),
    ("repro.archive.service:ArchiveService.pareto", "service.pareto", None),
    ("repro.archive.service:ArchiveService.nearest", "service.nearest", None),
    # fleet
    ("repro.fleet.transfer:ProxyTransfer.calibrate", "fleet.calibrate", None),
    ("repro.fleet.transfer:MonotoneMap.transfer_many", "fleet.transfer",
     None),
    ("repro.fleet.retarget:retarget_index", "fleet.retarget_index", None),
    ("repro.fleet.retarget:retarget_archive", "fleet.retarget_archive", None),
]


def install(recorder: SpanRecorder, programs: List) -> None:
    """Wrap every target; every ``StepProgram`` built is kept in
    ``programs`` so its plan counters can be read when the run ends."""
    for target, name, counter in TARGETS:
        recorder.wrap(target, name, counter)
    from repro.nn import plan

    raw_init = plan.StepProgram.__init__

    def init(self, *args, **kwargs):
        raw_init(self, *args, **kwargs)
        programs.append(self)

    plan.StepProgram.__init__ = init


def op_kind(kind: str) -> str:
    """Base op kind of a profiler row (``conv2d_dw.bwd.replay`` → conv2d_dw)."""
    if kind.startswith("fused:"):
        return "fused"
    base = kind.split(".")[0]
    return base if base in OP_KINDS else "other"


def summarize(recorder: SpanRecorder, op_profile: Dict, programs: List,
              wall_s: float) -> Dict:
    """Reduce one traced process to plain, mergeable numbers."""
    totals = recorder.totals()
    by_parent: Dict[str, float] = {}
    names = [s[0] for s in recorder.spans]
    for name, start, end, parent in recorder.spans:
        if parent >= 0:
            key = f"{names[parent]}>{name}"
            by_parent[key] = by_parent.get(key, 0.0) + (end - start)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, row in totals.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"]
    ops: Dict[str, Dict[str, float]] = {}
    for kind, row in op_profile.items():
        slot = ops.setdefault(op_kind(kind), {"s": 0.0, "calls": 0})
        slot["s"] += row["total_ms"] / 1e3
        slot["calls"] += row["calls"]
    plan_stats: Dict[str, float] = {}
    for program in programs:
        for key, value in program.stats().items():
            plan_stats[key] = plan_stats.get(key, 0) + value
            # per program: "lightnas" (the search) or "standalone" (retrain)
            scoped = f"{program.name}.{key}"
            plan_stats[scoped] = plan_stats.get(scoped, 0) + value
    return {"spans": totals, "by_parent": by_parent, "counts":
            dict(recorder.counts), "layer_self_s": layer_self, "ops": ops,
            "plan": plan_stats, "covered_s": covered(recorder.spans),
            "wall_s": wall_s}


#: every per-layer metric of a traced run, with its unit; a layer a
#: workload does not exercise reports 0
PER_LAYER = (
    [("import_s", "s"), ("predictor_load_s", "s"), ("cost_tables_s", "s"),
     ("predictor.default_fit_s", "s")]
    + [(f"phase.{p}_s", "s") for p in ("update_alpha", "train_weights",
                                        "warmup_eval", "derive",
                                        "checkpoint")]
    + [("alpha_step_ms", "ms"), ("w_step_ms", "ms"), ("gumbel.sample_s", "s"),
       ("objective.loss_s", "s"), ("lambda.ascend_s", "s"),
       ("tape.backward_s", "s"), ("optim.step_s", "s"),
       ("nn.allocations", "count")]
    + [(f"op.{k}_{suffix}", unit) for k in OP_KINDS + ("other",)
       for suffix, unit in (("s", "s"), ("calls", "count"))]
    + [("plan.compiles", "count"), ("plan.replays", "count"),
       ("plan.eager_steps", "count"), ("plan.replay_ratio", "ratio"),
       ("plan.search_replay_ratio", "ratio"),
       ("plan.retrain_replay_ratio", "ratio"),
       ("plan.arena_mb", "MB"), ("fusion.bound", "count"),
       ("fusion.rejected", "count"),
       ("predictor.forward_s", "s"), ("predictor.population_rows_per_s", "1/s"),
       ("oracle.loss_s", "s"), ("supernet.forward_s", "s"),
       ("task.batch_s", "s"), ("retrain.step_ms", "ms"),
       ("checkpoint.save_s", "s"), ("checkpoint.bytes", "bytes"),
       ("journal.bytes", "bytes"), ("fleet.overhead_s", "s"),
       ("wal.append_rows_per_s", "1/s"), ("wal.bytes", "bytes"),
       ("segment.bytes", "bytes"), ("archive.boot_s", "s"),
       ("index.snapshot_s", "s"), ("query.top_k_ms", "ms"),
       ("query.pareto_ms", "ms"), ("query.nearest_ms", "ms")]
    + [(f"service.handler_ms.{e}", "ms")
       for e in ("predict", "query", "pareto", "nearest")]
    + [("service.http_overhead_ms", "ms"), ("batcher.coalesce_ratio", "ratio"),
       ("loadgen.late_ms", "ms"), ("fleet.calibrate_s", "s"),
       ("fleet.transfer_ms", "ms"), ("fleet.writeback_s", "s")]
    + [(f"self.{layer}_s", "s") for layer in LAYERS]
    + [("explained_pct", "%"), ("trace_overhead_pct", "%")]
)


def replay_ratio(plan: Dict, prefix: str) -> float:
    """Replayed steps over all steps a plan cache saw (0 when none)."""
    runs = sum(plan.get(prefix + key, 0)
               for key in ("replays", "eager_steps", "plans_compiled"))
    return plan.get(prefix + "replays", 0) / runs if runs else 0.0


def per_layer_metrics(traced: Dict, bare: Dict) -> Dict[str, float]:
    """Per-layer metrics of one workload from its traced child and the
    untraced twin that ran the same inputs."""
    trace = traced["trace"]
    spans, counts = trace["spans"], trace["counts"]
    by_parent, plan, ops = trace["by_parent"], trace["plan"], trace["ops"]
    phases = traced.get("phases", {})

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def per_s(name: str) -> float:
        return counts.get(name, 0.0) / total(name) if total(name) else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    v = {
        "import_s": traced["import_s"],
        "predictor_load_s": total("experiments.predictor_load"),
        "cost_tables_s": total("hardware.cost_tables"),
        "predictor.default_fit_s": total("predictor.default_fit"),
        "alpha_step_ms": ratio(phases.get("update_alpha", 0.0),
                               traced.get("alpha_steps", 0)) * 1e3,
        "w_step_ms": ratio(phases.get("train_weights", 0.0),
                           traced.get("w_steps", 0)) * 1e3,
        "gumbel.sample_s": total("core.gumbel_sample"),
        "objective.loss_s": total("core.objective_loss"),
        "lambda.ascend_s": total("core.lambda_ascend"),
        "tape.backward_s": total("nn.backward"),
        "optim.step_s": total("nn.optim_step"),
        "nn.allocations": traced["allocations"],
        "plan.compiles": plan.get("plans_compiled", 0),
        "plan.replays": plan.get("replays", 0),
        "plan.eager_steps": plan.get("eager_steps", 0),
        "plan.replay_ratio": replay_ratio(plan, ""),
        "plan.search_replay_ratio": replay_ratio(plan, "lightnas."),
        "plan.retrain_replay_ratio": replay_ratio(plan, "standalone."),
        "plan.arena_mb": plan.get("arena_bytes", 0) / 1e6,
        "fusion.bound": plan.get("kernels_fused", 0),
        "fusion.rejected": plan.get("fusion_rejected", 0),
        "predictor.forward_s": by_parent.get(
            "core.objective_loss>predictor.forward", 0.0),
        "predictor.population_rows_per_s": per_s("predictor.population"),
        "oracle.loss_s": total("proxy.oracle_loss"),
        "supernet.forward_s": total("proxy.supernet_forward"),
        "task.batch_s": total("proxy.task_batch"),
        "retrain.step_ms": ratio(traced.get("retrain_s", 0.0),
                                 traced.get("retrain_steps", 0)) * 1e3,
        "checkpoint.save_s": total("runtime.checkpoint_save"),
        "checkpoint.bytes": traced.get("checkpoint_bytes", 0),
        "journal.bytes": traced.get("journal_bytes", 0),
        "fleet.overhead_s": traced.get("fleet_overhead_s", 0.0),
        "wal.append_rows_per_s": per_s("archive.add_population"),
        "wal.bytes": traced.get("wal_bytes", 0),
        "segment.bytes": traced.get("segment_bytes", 0),
        "archive.boot_s": traced.get("boot_s", 0.0),
        "index.snapshot_s": traced.get("snapshot_s", 0.0),
        "service.http_overhead_ms": traced.get("http_overhead_ms", 0.0),
        "batcher.coalesce_ratio": traced.get("coalesce_ratio", 0.0),
        "loadgen.late_ms": traced.get("fixed", {}).get("late_ms", 0.0),
        "fleet.calibrate_s": total("fleet.calibrate"),
        "fleet.transfer_ms": total("fleet.transfer") * 1e3,
        "fleet.writeback_s": by_parent.get(
            "fleet.retarget_archive>archive.add_population", 0.0),
        "explained_pct": 100.0 * ratio(trace["covered_s"], trace["wall_s"]),
    }
    for p in ("update_alpha", "train_weights", "warmup_eval", "derive",
              "checkpoint"):
        v[f"phase.{p}_s"] = phases.get(p, 0.0)
    for kind in OP_KINDS + ("other",):
        row = ops.get(kind, {})
        v[f"op.{kind}_s"] = row.get("s", 0.0)
        v[f"op.{kind}_calls"] = row.get("calls", 0)
    for name in ("top_k", "pareto", "nearest"):
        v[f"query.{name}_ms"] = traced.get("query_ms", {}).get(name, 0.0)
    for name in ("predict", "query", "pareto", "nearest"):
        v[f"service.handler_ms.{name}"] = \
            traced.get("handler_ms", {}).get(name, 0.0)
    for layer in LAYERS:
        v[f"self.{layer}_s"] = trace["layer_self_s"].get(layer, 0.0)
    # the archive job's server and load phase are not traced in process,
    # so its overhead compares the in-process part only
    key = "inproc_s" if "inproc_s" in traced else "wall_s"
    v["trace_overhead_pct"] = 100.0 * (traced[key] / bare[key] - 1.0)
    return v
