"""End-to-end benchmark of the commands users run, with a traced breakdown.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload surrogate-grid --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``surrogate-grid``      — ``repro stability`` over a (targets × seeds)
  grid of paper-default surrogate searches, plus a repeated
  ``repro search``;
* ``supernet-retrain``    — the ``--tiny`` bi-level supernet search, then
  the quickstart retrain of the found architecture;
* ``archive-fleet-serve`` — archive ingest, fleet retarget with
  write-back, compaction, then ``repro serve`` under open-loop load.

Every timed unit runs in a fresh interpreter (``child.py``) so set-up is
measured the way users pay it.  ``--trace 0`` measures the end-to-end
metrics with no instrumentation; ``--trace 1`` runs the work once bare and
once with span wrappers and the op profiler installed, and reports the
per-layer metrics, the share of wall time the spans explain, and the
tracing overhead.  The last line of stdout is one JSON object; the lines
before it print every metric by name with its unit.  Each run appends a
row (schema version, workload, seed, host fingerprint, commit, time) to
``e2ebench/results/history.jsonl``; journals, checkpoints and archives go
to a temporary directory under ``e2ebench/results/`` that is removed at
exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SCHEMA_VERSION = 1
#: every run must end within this many seconds
DEADLINE_S = 170.0

sys.path.insert(0, HERE)

import layers  # noqa: E402
import selftest  # noqa: E402


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Spawns child processes for one benchmark run and keeps them in
    bounds: each child leads its own process group, which is killed if the
    run's deadline passes."""

    def __init__(self, tmp: str, deadline: float, pace: bool) -> None:
        self.tmp = tmp
        self.deadline = deadline
        self.pace = pace
        self.count = 0
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")

    def dir(self, name: str) -> str:
        path = os.path.join(self.tmp, name)
        os.makedirs(path, exist_ok=True)
        return path

    def child(self, job: str, trace: bool = False, **spec) -> dict:
        self.count += 1
        tag = f"{self.count:02d}-{job}"
        work = self.dir(tag)
        spec.update(job=job, trace=trace, pace=self.pace, tmp=work,
                    out=os.path.join(work, "result.json"),
                    spans_out=os.path.join(RESULTS, "spans",
                                           f"{spec.get('name', job)}.json"))
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        err_path = os.path.join(work, "stderr.txt")
        spawned_at = time.time()
        t = time.perf_counter()
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=err, start_new_session=True)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.time()))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise ChildFailed(f"{tag} passed the run deadline")
            finally:
                # a child's own children (the server) share its group
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        wall = time.perf_counter() - t
        if proc.returncode != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-3000:]
            raise ChildFailed(f"{tag} exited {proc.returncode}:\n{tail}")
        with open(spec["out"], encoding="utf-8") as handle:
            result = json.load(handle)
        result["spawned_at"] = spawned_at
        result["proc_wall_s"] = wall
        if "setup_paced_s" in result:
            # interpreter start and the numpy import, then the rest of the
            # set-up paced by the child's ticker
            result["setup_s"] = (result["pace_wall"] - spawned_at
                                 + result["setup_paced_s"])
        elif "ready_at" in result:
            result["setup_s"] = result["ready_at"] - spawned_at
        return result


def median(values) -> float:
    return float(statistics.median(values))


def mean(values) -> float:
    return float(statistics.fmean(values))


def slots(named, stage1, stage2, stage3, latency, quality) -> dict:
    """Map a workload's own metrics onto the end-to-end metrics every
    workload reports (``BENCHMARK.json`` lists one set for all)."""
    pick = dict(stage1_s=stage1, stage2_s=stage2, stage3_s=stage3,
                latency_ms=latency, quality_pct=quality,
                setup_s="setup_s", peak_rss_mb="peak_rss_mb")
    return {slot: named[name][0] for slot, name in pick.items()}


def fail(message: str) -> int:
    print(f"check failed: {message}", file=sys.stderr)
    return 1


def tally(children) -> tuple:
    """Checks attempted and failed over some children (failures are also
    described on stderr)."""
    for child in children:
        for message in child["failures"]:
            fail(message)
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    return attempted, failed


# ----------------------------------------------------------------------
# Workloads.  Untraced, each returns (named, contract, attempted, failed):
# ``named`` holds the workload's own metrics as {name: (value, unit)},
# ``contract`` the end-to-end metrics of BENCHMARK.json.  Traced, each
# returns (traced child, untraced twin, attempted, failed).
# ----------------------------------------------------------------------

def surrogate_grid(runner: Runner, seed: int, seconds: int, trace: bool):
    rng = np.random.default_rng([seed, 11])
    tight = round(float(rng.uniform(18.0, 21.0)), 3)
    loose = round(float(rng.uniform(27.0, 31.0)), 3)
    n_seeds = max(2, seconds // 10)
    seeds = [int(s) for s in rng.choice(10_000, size=n_seeds, replace=False)]

    def command(argv, name, **extra):
        work = runner.dir(name)
        journal = os.path.join(work, "journal.jsonl")
        output = os.path.join(work, "out.json")
        ckpt = os.path.join(work, "ckpt")
        return runner.child(
            "cli", argv=argv + ["--checkpoint-dir", ckpt, "--trace", journal,
                                "--output", output],
            journal=journal, output=output, checkpoint_dir=ckpt, name=name,
            **extra)

    def grid(name, seed_list, traced=False):
        return command(["stability", "--targets", f"{tight},{loose}",
                        "--seeds", ",".join(map(str, seed_list))], name,
                       trace=traced, seed=seed_list[0])

    def arch_of(child, target, search_seed):
        return [r["arch"] for r in child["runs"]
                if r["target"] == target and r["seed"] == search_seed]

    if trace:
        bare = grid("grid-bare", seeds[:1])
        traced = grid("surrogate-grid", seeds[:1], traced=True)
        attempted, failed = tally([bare, traced])
        attempted += 1
        if [r["arch"] for r in bare["runs"]] != \
                [r["arch"] for r in traced["runs"]]:
            failed += fail("the traced grid found other architectures")
        return traced, bare, attempted, failed

    full = grid("grid", seeds)
    # the tight target of the first seed again, as `repro search`
    repeats = [command(["search", "--target", str(tight), "--seed",
                        str(seeds[0])], "repeat", seed=seeds[0])]
    children = [full] + repeats
    attempted, failed = tally(children)
    for repeat in repeats:
        attempted += 1
        run = repeat["runs"][0]
        if arch_of(full, run["target"], seeds[0]) != [run["arch"]]:
            failed += fail(f"repeated search (target {run['target']}, seed "
                           f"{seeds[0]}) found another architecture")
    searches = full["searches"] + [s for r in repeats for s in r["searches"]]
    runs = full["runs"]

    def search_s(target=None, key="paced_s"):
        return median([s[key] for s in searches
                       if target in (None, s["target"])])

    epoch_ms = full["step_ms"] + [x for r in repeats for x in r["step_ms"]]
    named = {
        "setup_s": (median([c["setup_s"] for c in children]), "s"),
        "search_s": (search_s(), "s"),
        "search_tight_s": (search_s(tight), "s"),
        "search_loose_s": (search_s(loose), "s"),
        "target_miss_pct": (mean(abs(r["true_value"] - r["target"])
                                 / r["target"] * 100 for r in runs), "%"),
        "top1_pct": (mean(r["top1"] for r in runs), "%"),
        "search_wall_s": (search_s(key="wall_s"), "s"),
        "search_cmd_s": (median([r["proc_wall_s"] for r in repeats]), "s"),
        "stability_cmd_s": (full["proc_wall_s"], "s"),
        "alpha_step_ms": (median([s["paced_s"] / s["steps"] * 1e3
                                  for s in searches]), "ms"),
        "alpha_step_p50_ms": (median(epoch_ms), "ms"),
        "alpha_step_p90_ms": (float(np.percentile(epoch_ms, 90)), "ms"),
        "alpha_step_p99_ms": (float(np.percentile(epoch_ms, 99)), "ms"),
        "searches": (len(searches), "count"),
        "host_speed": (median([c["host_speed"] for c in children]), "x"),
        "peak_rss_mb": (max(c["rss_mb"] for c in children), "MB"),
    }
    contract = slots(named, "search_s", "search_tight_s", "search_loose_s",
                     "alpha_step_ms", "top1_pct")
    return named, contract, attempted, failed


def supernet_retrain(runner: Runner, seed: int, seconds: int, trace: bool):
    # the searched inputs stay those of examples/quickstart.py (target
    # 2.3 ms, search seed 0): across search seeds the found architectures'
    # retrain cost spans 2.4x, which would swamp any engine change; the
    # workload seed varies the retrain initialisation (one per unit) and
    # the check task
    unit = dict(target=2.3, search_seed=0, check_seed=seed)

    def full(name, traced=False, parity=False, index=0):
        return runner.child("supernet", trace=traced, name=name,
                            parity=parity, retrain_seed=seed * 100 + index,
                            journal=os.path.join(runner.dir(name),
                                                 "journal.jsonl"), **unit)

    if trace:
        bare = full("supernet-bare", parity=True)
        traced = full("supernet-retrain", traced=True, parity=True)
        attempted, failed = tally([bare, traced])
        attempted += 1
        if bare["arch"] != traced["arch"]:
            failed += fail("the traced search found another architecture")
        return traced, bare, attempted, failed

    # the parity check runs once, in the first unit
    units = [full(f"unit{i}", parity=i == 0, index=i)
             for i in range(max(2, seconds // 10))]
    children = units
    attempted, failed = tally(children)
    for u in units[1:]:
        attempted += 1
        if u["arch"] != units[0]["arch"]:
            failed += fail("repeated search found another architecture")
    epoch_ms = [x for u in units for x in u["step_ms"]]
    search_s = median([u["search_paced_s"] for u in units])
    retrain_s = median([u["retrain_paced_s"] for u in units])
    setup_s = median([c["setup_s"] for c in children])
    named = {
        "setup_s": (setup_s, "s"),
        "supernet_search_s": (search_s, "s"),
        "retrain_s": (retrain_s, "s"),
        "unit_s": (setup_s + search_s + retrain_s, "s"),
        "retrain_acc_pct": (mean(u["retrain_acc"] for u in units) * 100,
                            "%"),
        "supernet_search_wall_s": (median([u["search_s"] for u in units]),
                                   "s"),
        "retrain_wall_s": (median([u["retrain_s"] for u in units]), "s"),
        "unit_cmd_s": (median([u["proc_wall_s"] for u in units]), "s"),
        "search_step_ms": (median([u["search_paced_s"] / u["search_steps"]
                                   for u in units]) * 1e3, "ms"),
        "search_step_p90_ms": (float(np.percentile(epoch_ms, 90)), "ms"),
        "units": (len(units), "count"),
        "host_speed": (median([c["host_speed"] for c in children]), "x"),
        "peak_rss_mb": (max(c["rss_mb"] for c in children), "MB"),
    }
    contract = slots(named, "supernet_search_s", "retrain_s", "unit_s",
                     "search_step_ms", "retrain_acc_pct")
    return named, contract, attempted, failed


def archive_fleet_serve(runner: Runner, seed: int, seconds: int,
                        trace: bool):
    base = dict(seed=seed, rate=100, reads=300)

    if trace:
        bare = runner.child("archive", name="archive-bare", load="none",
                            reps=1, **base)
        traced = runner.child("archive", trace=True,
                              name="archive-fleet-serve", load="fixed",
                              reps=1, boots=1, fixed_s=3.0, ladder_s=0,
                              **base)
        attempted, failed = tally([bare, traced])
        return traced, bare, attempted, failed

    full = runner.child("archive", name="archive", load="full", reps=3,
                        boots=2, fixed_s=seconds * 0.3, ladder_s=seconds / 40,
                        **base)
    probe = runner.child("archive", setup_only=True, **base)
    children = [full, probe]
    attempted, failed = tally(children)
    # each pass times ingest, retarget and compact, paced and as walls
    passes = full["write_times"]
    ingest, retarget, compact = np.median([p["paced"] for p in passes],
                                          axis=0)
    walls = np.median([p["wall"] for p in passes], axis=0)
    reads = full["read_ms"]
    slices = [reads[i:i + full["reads"]]
              for i in range(0, len(reads), full["reads"])]

    paced_reads = {}      # (endpoint, payload) -> paced times
    for r, speed in zip(slices, full["read_speed"]):
        for endpoint, payload, ms in r:
            paced_reads.setdefault((endpoint, payload), []).append(
                ms / speed)

    def read_ms(pct):
        # each payload's percentile over its repeats (the host speed over
        # its slice paces each one), averaged over each endpoint's payloads
        # and then over the endpoints, so that neither the share each drew
        # in the seeded mix nor which payload sits at the median moves it
        endpoints = sorted({e for e, _ in paced_reads})
        return mean(mean(np.percentile(v, pct)
                         for (e, _), v in paced_reads.items() if e == name)
                    for name in endpoints)

    named = {
        "setup_s": (median([c["setup_s"] for c in children])
                    + median(full["server_boots"]), "s"),
        "ingest_s": (float(ingest), "s"),
        "ingest_rows_per_s": (full["rows_written"] / ingest, "1/s"),
        "retarget_s": (float(retarget), "s"),
        "compact_s": (float(compact), "s"),
        "read_p50_ms": (read_ms(50), "ms"),
        "read_p90_ms": (read_ms(90), "ms"),
        "ingest_wall_s": (float(walls[0]), "s"),
        "retarget_wall_s": (float(walls[1]), "s"),
        "compact_wall_s": (float(walls[2]), "s"),
        "write_passes": (len(passes), "count"),
        "host_speed": (median([c["host_speed"] for c in children]), "x"),
        "serve_p50_ms": (full["fixed"]["p50_ms"], "ms"),
        "serve_p90_ms": (full["fixed"]["p90_ms"], "ms"),
        "serve_p99_ms": (full["fixed"]["p99_ms"], "ms"),
        "serve_max_rps": (full["max_rps"], "1/s"),
        "within_limit_pct": (full["within_limit_pct"], "%"),
        "peak_rss_mb": (max([c["rss_mb"] for c in children]
                            + [full["server_rss_mb"]]), "MB"),
    }
    contract = slots(named, "ingest_s", "retarget_s", "compact_s",
                     "read_p50_ms", "within_limit_pct")
    named["ladder"] = ([{k: r[k] for k in ("rate", "p99_ms", "passed")}
                        for r in full["ladder"]], "rungs")
    return named, contract, attempted, failed


WORKLOADS = {
    "surrogate-grid": surrogate_grid,
    "supernet-retrain": supernet_retrain,
    "archive-fleet-serve": archive_fleet_serve,
}


# ----------------------------------------------------------------------
# Run envelope
# ----------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout's own ``.git`` (or unknown)."""
    try:
        out = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse",
             "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def reference_ms() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs right
    now (shared hosts swing by well over 1.5x), recorded next to each row."""
    t = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i
    return (time.perf_counter() - t) * 1e3


def host_fingerprint() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "numpy": np.__version__,
            "blas": blas, "python": platform.python_version()}


def contract_metrics(trace: bool, contract=None, per_layer=None) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    values = per_layer if trace else contract
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills its children's process groups (the
    # `finally` blocks run on SystemExit) and removes its temporary files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    started = time.time()
    if not os.path.exists(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to benchmark under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    problems = selftest.run_all()
    if problems:
        print("error: benchmark self-tests failed:\n" + "\n".join(problems),
              file=sys.stderr)
        return 3
    os.makedirs(os.path.join(RESULTS, "spans"), exist_ok=True)
    reference = [reference_ms()]
    tmp = tempfile.mkdtemp(prefix="run-", dir=RESULTS)
    try:
        # the traced run compares a traced child with a bare twin, so
        # neither runs the ticker
        runner = Runner(tmp, started + DEADLINE_S, pace=not args.trace)
        outcome = WORKLOADS[args.workload](runner, args.seed, args.seconds,
                                           bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        traced, bare, attempted, failed = outcome
        values = layers.per_layer_metrics(traced, bare)
        metrics = contract_metrics(True, per_layer=values)
        named = {k: (v["value"], v["unit"]) for k, v in metrics.items()}
    else:
        named, contract, attempted, failed = outcome
        contract["ok_pct"] = 100.0 * (attempted - failed) / attempted
        named["error_rate"] = (failed / attempted, "ratio")
        metrics = contract_metrics(False, contract=contract)
    reference.append(reference_ms())
    for name, (value, unit) in named.items():
        if isinstance(value, list):
            print(f"{args.workload:<20} {name:<34} {json.dumps(value)}")
        else:
            print(f"{args.workload:<20} {name:<34} {value:>14.6g} {unit}")
    row = {
        "schema": SCHEMA_VERSION, "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "host": dict(host_fingerprint(), reference_loop_ms=reference),
        "commit": git_commit(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                   time.gmtime(started)),
        "wall_s": round(time.time() - started, 3),
        "attempted": attempted, "failed": failed,
        "named": {k: v[0] for k, v in named.items()},
        "metrics": {k: v["value"] for k, v in metrics.items()},
    }
    with open(os.path.join(RESULTS, "history.jsonl"), "a",
              encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
