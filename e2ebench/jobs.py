"""The jobs a benchmark child process runs (see ``child.py``).

Each job takes its spec and a ``Checks`` counter, runs the program through
its public entry points, checks the outputs, and returns plain numbers.
"""

import contextlib
import json
import os
import time

from pace import paced


def tree_bytes(path: str) -> int:
    total = 0
    for parent, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(parent, f)) for f in files)
    return total


def forbid_campaigns() -> None:
    """Make a missing committed predictor cache fail loudly.

    The benchmark only reads committed caches: without one, fitting the
    campaign predictor would run a 10k-sample measurement campaign inside
    the timing.  In the program, only the cached predictor fits call this
    collector, and only when their cache file is missing.
    """
    from repro.experiments import shared

    def refuse(latency_model, num_samples, *args, **kwargs):
        raise SystemExit(
            f"error: a committed predictor cache is missing; the benchmark "
            f"only reads committed caches and will not run a "
            f"{num_samples}-sample measurement campaign")

    shared.collect_latency_dataset = refuse


def job_cli(spec, checks):
    """One ``repro`` command (``stability`` or ``search``) run in-process
    through the CLI entry point, read back from its journal and output."""
    from repro import cli
    from repro.core.lightnas import LightNAS
    from repro.runtime.telemetry import read_journal
    from repro.search_space.space import Architecture, SearchSpace

    space = SearchSpace()
    # the start and end of every search (at jobs=1 they all run here, in
    # journal order)
    bounds = []
    search = LightNAS.search

    def timed_search(engine, *args, **kwargs):
        t = time.perf_counter()
        try:
            return search(engine, *args, **kwargs)
        finally:
            bounds.append((t, time.perf_counter()))

    LightNAS.search = timed_search
    try:
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stdout(sink):
            code = cli.main(spec["argv"])
    finally:
        LightNAS.search = search
    if code != 0:
        raise SystemExit(f"error: repro {spec['argv'][0]} exited {code}")
    events = read_journal(spec["journal"])
    headers = [e for e in events if e["event"] == "run_header"
               and e.get("engine") == "lightnas"]
    searches = [e for e in events if e["event"] == "run_end"
                and "num_search_steps" in e]
    fleet = [e for e in events if e["event"] == "run_end"
             and e.get("engine") == "runfleet"]
    steps_per_epoch = headers[0]["steps_per_epoch"]
    if len(bounds) != len(searches):
        raise SystemExit(f"error: {len(bounds)} searches ran in process but "
                         f"the journal holds {len(searches)}")
    timed = [{"target": h["target"], "seed": h["seed"],
              "paced_s": paced(a, b), "wall_s": b - a,
              "steps": e["num_search_steps"]}
             for h, e, (a, b) in zip(headers, searches, bounds)]
    with open(spec["output"], encoding="utf-8") as handle:
        output = json.load(handle)
    runs = output["runs"] if "runs" in output else [{
        "target": output["target"], "seed": spec["seed"],
        "arch": output["architecture"],
        "true_value": output["true_latency_ms"]}]
    for run in runs:
        checks.attempt()
        try:
            space.validate(Architecture(tuple(run["arch"])))
            if min(run["arch"]) < 0:
                raise ValueError("negative operator index")
        except ValueError as exc:
            checks.fail(f"arch {run['arch']} is not in the space: {exc}")
    phases = {}
    for end in searches:
        for name, row in end["phase_timers"].items():
            phases[name] = phases.get(name, 0.0) + row["total_s"]
    return {
        "ready_at": min(h["unix_time"] for h in headers),
        "ready_pc": bounds[0][0],
        "runs": runs,
        "search_walls": [e["wall_time_s"] for e in searches],
        "searches": timed,
        "alpha_steps": sum(e["num_search_steps"] for e in searches),
        "step_ms": [e["wall_time_s"] / steps_per_epoch * 1e3
                    for e in events if e["event"] == "epoch"],
        "phases": phases,
        "fleet_overhead_s": (fleet[0]["wall_time_s"]
                             - sum(e["wall_time_s"] for e in searches))
        if fleet else 0.0,
        "checkpoint_bytes": tree_bytes(spec["checkpoint_dir"]),
        "journal_bytes": os.path.getsize(spec["journal"]),
    }


def job_supernet(spec, checks):
    """The tiny bi-level supernet search, then the quickstart retrain of
    the found architecture, then (with ``parity``) the plans-on/plans-off
    retrain parity check on a fresh task."""
    from repro.core.lightnas import LightNAS, LightNASConfig
    from repro.eval import trainer
    from repro.proxy.dataset import SyntheticTask
    from repro.runtime.telemetry import RunJournal, read_journal

    config = LightNASConfig.tiny(latency_target_ms=spec["target"],
                                 seed=spec["search_seed"])
    engine = LightNAS(config)
    ready_at, ready_pc = time.time(), time.perf_counter()
    space = config.space
    with RunJournal(spec["journal"]) as journal:
        result = engine.search(journal=journal)
    searched_pc = time.perf_counter()
    arch = result.architecture
    checks.attempt()
    try:
        space.validate(arch)
    except ValueError as exc:
        checks.fail(f"found arch {arch.op_indices} is invalid: {exc}")

    recipe = dict(epochs=10, batch_size=24)        # examples/quickstart.py
    t = time.perf_counter()
    report = trainer.train_standalone(space, arch, engine.task,
                                      seed=spec["retrain_seed"], **recipe)
    retrained_pc = time.perf_counter()
    train_size = len(engine.task.train)
    chance = 1.0 / engine.task.num_classes
    checks.attempt()
    if not report.valid_accuracy > chance:
        checks.fail(f"retrain accuracy {report.valid_accuracy:.3f} is not "
                    f"above chance {chance:.3f}")

    def fresh_retrain(use_plans):
        task = SyntheticTask(num_classes=space.macro.num_classes,
                             resolution=space.macro.input_resolution,
                             seed=spec["check_seed"])
        return trainer.train_standalone(space, arch, task, epochs=2,
                                        batch_size=recipe["batch_size"],
                                        seed=spec["retrain_seed"],
                                        use_plans=use_plans)

    if spec["parity"]:
        checks.attempt()
        planned, eager = fresh_retrain(True), fresh_retrain(False)
        if planned != eager:
            checks.fail(f"plans-on and plans-off retrains differ: "
                        f"{planned.summary()} vs {eager.summary()}")
    events = read_journal(spec["journal"])
    end = [e for e in events if e["event"] == "run_end"][0]
    step_ms = []
    for e in events:
        if e["event"] == "epoch":
            steps = config.steps_per_epoch * (
                2 if e["epoch"] >= config.warmup_epochs else 1)
            step_ms.append(e["wall_time_s"] / steps * 1e3)
    return {
        "ready_at": ready_at,
        "ready_pc": ready_pc,
        "arch": list(arch.op_indices),
        "search_s": searched_pc - ready_pc,
        "retrain_s": retrained_pc - t,
        "search_paced_s": paced(ready_pc, searched_pc),
        "retrain_paced_s": paced(t, retrained_pc),
        "retrain_steps": recipe["epochs"] * -(-train_size
                                              // recipe["batch_size"]),
        "retrain_acc": report.valid_accuracy,
        "step_ms": step_ms,
        "search_steps": (config.epochs * config.steps_per_epoch
                         + end["num_search_steps"]),
        "phases": {k: v["total_s"] for k, v in end["phase_timers"].items()},
        "alpha_steps": end["num_search_steps"],
        "w_steps": config.epochs * config.steps_per_epoch,
        "journal_bytes": os.path.getsize(spec["journal"]),
    }


def job_archive(spec, checks):
    """Ingest → retarget with write-back → compact → serve under open-loop
    load (see ``archive_flow.py``)."""
    import archive_flow
    return archive_flow.run(spec, checks)


JOBS = {"cli": job_cli, "supernet": job_supernet, "archive": job_archive}
