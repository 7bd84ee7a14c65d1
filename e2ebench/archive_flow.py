"""The ``archive-fleet-serve`` job: the archive used for writes, then reads.

1. Ingest a generated archive the way the program's writers fill one:
   a latency campaign of ``CAMPAIGN_SIZE`` genotypes in one
   ``add_population`` call (as ``_record_campaign`` writes it, under the
   device name the real writers use, ``LatencyModel(space).device.name``),
   then a search record with a score for each genotype, row by row through
   ``add`` and one ``flush`` (as ``ArchiveCache.flush`` writes them).
2. Retarget the archive to a 12-device fleet (3 members of each family)
   with ``retarget_archive(..., write_back=True)``.
3. ``compact`` it into memory-mapped segments.
4. Start ``repro serve --archive ... --metric latency`` (1 worker) in its
   own process and drive it open-loop from this process: a fixed-rate
   phase, then a rate ladder.

Steps 1-3 run ``reps`` times on fresh archives (the first one is served),
each pass followed by a slice of in-process read requests.  In a full run
the passes alternate with slices of the fixed-rate phase, so the write-path
and read figures are taken over the whole run rather than one short moment
of a shared host.  On a host with two or more CPUs this process (the
passes and the load generator) keeps to the last one and the server to the
first, so neither is charged the other's work.

Every HTTP body is compared with the in-process ``ArchiveService`` answer
to the same payload, ``/stats`` counters with the requests sent, and every
written-back fleet device must answer a ``/query``.
"""

import asyncio
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import loadgen
import pace
from jobs import tree_bytes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

FAMILIES = ("phone", "mcu", "server-cpu", "edge-gpu")
#: p99 latency limit (ms) a ladder rate must meet to count as sustained
LIMIT_MS = 50.0
#: open-loop request mix (weights) over the endpoints.  No record of real
#: traffic exists, so this is an assumption: equal shares, so that every
#: endpoint gets the same number of samples
MIX = {"predict": 0.25, "query": 0.25, "pareto": 0.25, "nearest": 0.25}
#: endpoints whose in-process latencies are gated.  /predict is left out:
#: each call waits out the batching window (4 ms) alone, a fixed wait no
#: change to the read path could move; it keeps its own handler figure
READS = ("query", "pareto", "nearest")
#: request rates (1/s) tried in order until two in a row miss the limit;
#: the fixed-rate phase already covers the low end
LADDER = (200, 300, 400, 500, 600, 800, 1000)
#: distinct payloads per endpoint (two per device for the device-keyed ones)
POOL = 26


def _median_ms(fn, payloads) -> float:
    times = []
    for payload in payloads:
        t = time.perf_counter()
        fn(payload)
        times.append(time.perf_counter() - t)
    return float(np.median(times)) * 1e3


class Server:
    """``repro serve`` in its own process; ``boot_s`` is spawn → ready,
    ``boot_paced_s`` the same paced by this process's ticker (which runs
    while it waits)."""

    def __init__(self, archive_path: str, log_path: str,
                 cpu: int = -1) -> None:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        t = time.perf_counter()
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--archive",
                 archive_path, "--metric", "latency", "--port", "0",
                 "--workers", "1"],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
                text=True)
        try:
            if cpu >= 0:    # before the interpreter starts any thread
                os.sched_setaffinity(self.proc.pid, {cpu})
            line = self.proc.stdout.readline()
            if not line.startswith("serving on http://"):
                raise RuntimeError(f"repro serve did not start: {line!r}")
            end = time.perf_counter()
            self.boot_s = end - t
            self.boot_paced_s = self.boot_s / (
                pace.ACTIVE.speed(t, end) if pace.ACTIVE else 1.0)
            address = line.split("http://", 1)[1].split()[0]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
        except BaseException:
            self.stop()
            raise

    def call(self, method: str, path: str, payload=None):
        body = b"" if payload is None else json.dumps(payload).encode()
        return asyncio.run(loadgen.http_call(self.host, self.port, method,
                                             path, body))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                try:
                    self.call("POST", "/shutdown")
                except (OSError, ValueError, asyncio.IncompleteReadError):
                    pass
                self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()


def run(spec, checks):
    from repro.archive import query as archive_query
    from repro.archive.segments import segment_root_for
    from repro.archive.service import ArchiveService
    from repro.archive.store import ArchitectureArchive
    from repro.experiments.shared import CAMPAIGN_SIZE, fit_latency_predictor
    from repro.fleet import generate_fleet
    from repro.fleet import retarget, transfer
    from repro.hardware.flops import count_macs_many, count_params_many
    from repro.hardware.latency import LatencyModel
    from repro.proxy.accuracy_model import AccuracyOracle
    from repro.search_space.space import Architecture, SearchSpace

    space = SearchSpace()
    latency_model = LatencyModel(space)
    predictor, _ = fit_latency_predictor(space, latency_model)
    proxy = latency_model.device.name
    ready_at, ready_pc = time.time(), time.perf_counter()
    if spec.get("setup_only"):
        return {"ready_at": ready_at, "ready_pc": ready_pc}

    # inputs: a generated campaign and search scores (fixed by the seed)
    seed = spec["seed"]
    rng = np.random.default_rng([seed, 0])
    n = CAMPAIGN_SIZE
    ops = space.sample_indices(n, rng)
    oracle = AccuracyOracle(space)
    campaign = dict(
        latency_ms=latency_model.latency_many(ops),
        measured_latency_ms=latency_model.measure_many(ops, rng),
        macs_m=count_macs_many(space, ops) / 1e6,
        params_m=count_params_many(space, ops) / 1e6)
    scores = [oracle.evaluate(Architecture(tuple(row))).top1
              for row in ops.tolist()]
    target_ms = float(rng.uniform(20.0, 26.0))
    devices = [d for family in FAMILIES for d in generate_fleet(family, 3)]

    # 1-3: the write path; each stage's wall time and paced time
    write_times, reports = [], []

    def write_path() -> str:
        path = os.path.join(spec["tmp"], f"archive{len(reports)}.log")
        archive = ArchitectureArchive(path, space=space)
        marks = [time.perf_counter()]
        try:
            archive.add_population(ops, device=proxy,
                                   engine="latency-campaign", **campaign)
            for row, score in zip(ops.tolist(), scores):
                archive.add(row, score=score, engine="lightnas", seed=seed,
                            flush=False)
            archive.flush()
            marks.append(time.perf_counter())
            fleet_map = transfer.ProxyTransfer.calibrate(
                predictor, space, devices, num_samples=100, seed=seed,
                proxy_device=proxy)
            reports.append(retarget.retarget_archive(
                archive, fleet_map, predictor, target_ms, write_back=True))
            marks.append(time.perf_counter())
            archive.compact()
            marks.append(time.perf_counter())
        finally:
            archive.close()
        stages = list(zip(marks, marks[1:]))
        write_times.append({"wall": [b - a for a, b in stages],
                            "paced": [pace.paced(a, b) for a, b in stages]})
        return path

    cpus = sorted(os.sched_getaffinity(0))
    server_cpu = cpus[0] if len(cpus) > 1 else -1
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[-1]})
    t_inproc = time.perf_counter()
    path = write_path()
    wal_bytes = os.path.getsize(path)
    segment_bytes = tree_bytes(segment_root_for(path))

    # the read path, in process: boot, snapshot, queries, handlers
    t = time.perf_counter()
    served = ArchitectureArchive(path, read_only=True)
    boot_s = time.perf_counter() - t
    t = time.perf_counter()
    index = served.index()
    snapshot_s = time.perf_counter() - t
    written = reports[0].get("written_devices", [])
    checks.attempt(len(devices))
    missing = [d.name for d in devices
               if d.name not in written or d.name not in index.devices]
    if missing:
        checks.fail(f"fleet devices not written back: {missing}",
                    len(missing))

    pools = {name: [] for name in MIX}
    all_devices = list(index.devices)
    for i in range(POOL):
        device = all_devices[i % len(all_devices)]
        column = index.device_column(device, "latency_ms")
        budget = float(np.percentile(column[np.isfinite(column)], 30))
        pools["predict"].append({"archs": space.sample_indices(8, rng)
                                 .tolist()})
        pools["query"].append({"k": 10, "device": device,
                               "budgets": {"latency_ms": budget}})
        pools["pareto"].append({"device": device})
        pools["nearest"].append({"arch": ops[int(rng.integers(n))].tolist(),
                                 "k": 5, "device": device})
    query_ms = {
        "top_k": _median_ms(lambda p: archive_query.top_k(
            index, p["k"], device=p["device"], budgets=p["budgets"]),
            pools["query"]),
        "pareto": _median_ms(lambda p: archive_query.pareto_rows(
            index, device=p["device"]), pools["pareto"]),
        "nearest": _median_ms(lambda p: archive_query.hamming_neighbors(
            index, p["arch"], p["k"]), pools["nearest"]),
    }
    service = ArchiveService(space, predictor, metric_name="latency_ms",
                             device_name=proxy, archive=served)
    expected, handler_ms = {}, {}
    try:
        for name, payloads in pools.items():
            handler = getattr(service, name)
            times, bodies = [], []
            for payload in payloads:
                t = time.perf_counter()
                answer = handler(payload)
                times.append(time.perf_counter() - t)
                bodies.append(json.dumps(answer).encode())
            expected[name] = bodies
            handler_ms[name] = float(np.median(times)) * 1e3
    finally:
        service.close()

    # the read requests of the mix again, in process, one slice per write
    # pass: handler latencies without HTTP, which on a shared host swing
    # less between runs than the two-process HTTP latencies do
    read_plan = loadgen.plan_requests(
        range(spec["reps"] * spec["reads"]),
        {name: MIX[name] for name in READS}, {name: POOL for name in READS},
        np.random.default_rng([seed, 2]))
    read_ms, read_speed = [], []

    def read_slice() -> None:
        reader = ArchiveService(space, predictor, metric_name="latency_ms",
                                device_name=proxy, archive=served)
        start = time.perf_counter()
        try:
            for request in read_plan[len(read_ms):
                                     len(read_ms) + spec["reads"]]:
                handler = getattr(reader, request.endpoint)
                t = time.perf_counter()
                handler(pools[request.endpoint][request.payload])
                read_ms.append((request.endpoint, request.payload,
                                (time.perf_counter() - t) * 1e3))
        finally:
            reader.close()
        # how slow the host ran over the slice (1 without a ticker)
        read_speed.append(pace.ACTIVE.speed(start, time.perf_counter())
                          if pace.ACTIVE else 1.0)

    def timed_pass() -> None:
        # only the first archive is served: later ones are removed at once,
        # so their dirty pages are dropped rather than written back while
        # the next pass is timed
        written = write_path()
        os.remove(written)
        shutil.rmtree(segment_root_for(written))
        read_slice()

    read_slice()
    interleave = spec["load"] == "full"
    if not interleave:
        for _ in range(spec["reps"] - 1):
            timed_pass()
    inproc_s = time.perf_counter() - t_inproc
    result = {
        "ready_at": ready_at, "ready_pc": ready_pc, "records": n,
        "rows_written": 2 * n,
        "write_times": write_times,
        "wal_bytes": wal_bytes, "segment_bytes": segment_bytes,
        "boot_s": boot_s, "snapshot_s": snapshot_s, "query_ms": query_ms,
        "handler_ms": handler_ms, "inproc_s": inproc_s,
        "read_ms": read_ms, "read_speed": read_speed, "reads": spec["reads"],
        "server_boots": [], "server_rss_mb": 0.0,
    }
    if spec["load"] == "none":
        return result

    # 4: the server, in its own process, under open-loop load
    request_bodies = {name: [json.dumps(p).encode() for p in payloads]
                      for name, payloads in pools.items()}
    # a request that got no response may or may not have reached the
    # server, so /stats must count between `answered` and `sent`
    sent = {name: 0 for name in MIX}
    answered = dict(sent)
    log_path = os.path.join(spec["tmp"], "serve.log")
    for _ in range(spec["boots"] - 1):      # extra set-up samples
        server = Server(path, log_path, server_cpu)
        result["server_boots"].append(server.boot_paced_s)
        server.stop()
    server = Server(path, log_path, server_cpu)
    try:
        result["server_boots"].append(server.boot_paced_s)
        for name in all_devices:
            checks.attempt()
            sent["query"] += 1
            status, body = server.call("POST", "/query", {
                "device": name, "k": 3, "objective": "latency_ms"})
            answered["query"] += 1
            rows = json.loads(body).get("results", []) if status == 200 \
                else []
            if len(rows) != 3 or any(name not in r.get("devices", {})
                                     for r in rows):
                checks.fail(f"device {name} is not queryable ({status})")

        load_rng = np.random.default_rng([seed, 1])
        sizes = {name: POOL for name in MIX}

        def phase(rate, seconds):
            requests = loadgen.plan_requests(
                loadgen.poisson_schedule(rate, seconds, load_rng), MIX,
                sizes, load_rng)
            outcomes = loadgen.run_open_loop(server.host, server.port,
                                             requests, request_bodies)
            for outcome in outcomes:
                sent[outcome.request.endpoint] += 1
                answered[outcome.request.endpoint] += outcome.status != 0
            return outcomes

        slices = spec["reps"] if interleave else 1
        outcomes = []
        for i in range(slices):
            if i:
                timed_pass()      # the server idles meanwhile
            outcomes += phase(spec["rate"], spec["fixed_s"] / slices)
        fixed = loadgen.summarize(outcomes, LIMIT_MS, expected)
        checks.attempt(fixed["requests"])
        if fixed["failed"] or fixed["wrong"]:
            checks.fail(f"fixed-rate phase: {fixed['failed']} failed, "
                        f"{fixed['wrong']} wrong bodies",
                        fixed["failed"] + fixed["wrong"])
        overhead = [o.latency_s * 1e3 - handler_ms[o.request.endpoint]
                    for o in outcomes if o.status == 200]
        within = sum(1 for o in outcomes if o.status == 200
                     and o.latency_s * 1e3 <= LIMIT_MS)
        ladder, misses = [], 0
        for rate in (LADDER if spec["ladder_s"] else ()):
            rung = loadgen.summarize(phase(rate, spec["ladder_s"]), LIMIT_MS,
                                     expected)
            # overload may fail requests (they fail the rung); a wrong body
            # is an error at any rate
            checks.attempt(rung["requests"] - rung["failed"])
            if rung["wrong"]:
                checks.fail(f"{rung['wrong']} wrong bodies at {rate}/s",
                            rung["wrong"])
            rung["rate"] = rate
            rung["passed"] = (rung["failed"] == 0
                              and rung["p99_ms"] <= LIMIT_MS
                              and not rung["backlog_growing"])
            ladder.append(rung)
            # a single slow moment of the host must not end the ladder:
            # stop after two missed rates in a row
            misses = 0 if rung["passed"] else misses + 1
            if misses == 2:
                break
        status, body = server.call("GET", "/stats")
        stats = json.loads(body)
        checks.attempt()
        counted = {name: stats["endpoints"].get(name, 0) for name in MIX}
        counted["predict_requests"] = stats["predict_requests"]
        answered["predict_requests"] = answered["predict"]
        sent["predict_requests"] = sent["predict"]
        if status != 200 or any(not answered[k] <= counted[k] <= sent[k]
                                for k in counted):
            checks.fail(f"/stats counts {counted} outside answered "
                        f"{answered} .. sent {sent}")
        result["server_rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()
    passed = [r for r in ladder if r["passed"]]
    result.update(
        fixed=fixed, ladder=ladder,
        max_rps=passed[-1]["rate"] if passed else 0.0,
        within_limit_pct=100.0 * within / fixed["requests"],
        http_overhead_ms=float(np.median(overhead)) if overhead else 0.0,
        coalesce_ratio=stats["predict_requests"]
        / max(1, stats["predict_batches"]))
    return result
