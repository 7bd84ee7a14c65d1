"""One fresh interpreter: set up, run one job, write its result as JSON.

Usage: ``python e2ebench/child.py SPEC.json`` (``run.py`` writes the spec).
The spec names the job (see ``jobs.JOBS``), its inputs, whether the run is
traced, and where to write the result.  A traced child installs the span
wrappers of ``layers.py`` and the program's own op profiler around the job;
an untraced child runs the job bare.  With ``pace`` in the spec, the
host-speed ticker of ``pace.py`` runs from just after numpy is imported.
"""

import time

T0 = time.perf_counter()       # wall_s and the span origin start here

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy  # noqa: E402,F401  (the ticker's kernel needs it)

import layers  # noqa: E402
import pace  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Counts the outputs checked and the checks that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        if len(self.messages) < 20:
            self.messages.append(message)


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    recorder = SpanRecorder() if spec["trace"] else None
    if spec["pace"]:
        pace.ACTIVE = pace.Pace().start()
        pace_wall = time.time()
    scope = recorder.span("cli.import") if recorder else \
        contextlib.nullcontext()
    t = time.perf_counter()
    with scope:
        import repro.cli  # noqa: F401  (numpy, scipy and every layer)
        from repro import nn
    import_s = time.perf_counter() - t
    import jobs
    jobs.forbid_campaigns()
    programs = []
    if recorder:
        layers.install(recorder, programs)
    checks = Checks()
    allocs = nn.tensor_allocations()
    with (nn.profiler.profile() if recorder else
          contextlib.nullcontext()) as prof:
        result = jobs.JOBS[spec["job"]](spec, checks)
    wall_s = time.perf_counter() - T0
    if pace.ACTIVE:
        pace.ACTIVE.stop()
        ticks = pace.ACTIVE.ticks
        # the set-up the ticker saw, paced; the part before it stays wall
        result.update(pace_wall=pace_wall, ticks=len(ticks),
                      setup_paced_s=pace.ACTIVE.seconds(
                          pace.ACTIVE.started_at, result["ready_pc"]),
                      host_speed=pace.ACTIVE.speed(
                          pace.ACTIVE.started_at, time.perf_counter()))
    result.update(import_s=import_s, wall_s=wall_s, rss_mb=rss_mb(),
                  attempted=checks.attempted, failed=checks.failed,
                  failures=checks.messages,
                  allocations=nn.tensor_allocations() - allocs)
    if recorder:
        result["trace"] = layers.summarize(recorder, prof.as_dict(),
                                           programs, wall_s)
        recorder.write(spec["spans_out"], T0)
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
