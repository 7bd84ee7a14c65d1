"""Self-tests of the benchmark's own arithmetic (run before every run).

``python3 e2ebench/selftest.py`` runs them alone; ``run.py`` runs them
first and refuses to measure if any fails.
"""

import json
import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import loadgen  # noqa: E402
from spans import covered, self_times, union_length  # noqa: E402


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=0, abs_tol=1e-12)


def test_self_time() -> None:
    # root [0, 10] with children [1, 3] and [2, 5] (overlapping) and a
    # grandchild [6, 9] under the child [5, 9]; one more root [12, 13]
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 5.0, 0],
        ["c", 5.0, 9.0, 0],
        ["d", 6.0, 9.0, 3],
        ["other", 12.0, 13.0, -1],
    ]
    got = self_times(spans)
    want = [10.0 - 8.0, 2.0, 3.0, 1.0, 3.0, 1.0]
    assert all(_close(g, w) for g, w in zip(got, want)), got
    assert _close(union_length([(0, 1), (0.5, 2), (3, 4)]), 3.0)
    assert _close(union_length([]), 0.0)
    assert _close(covered(spans), 11.0)
    # a child outside its parent's interval is clipped to it
    assert _close(self_times([["p", 0.0, 2.0, -1],
                              ["q", 1.0, 5.0, 0]])[0], 1.0)


def test_due_time_accounting() -> None:
    req = loadgen.Request(due=1.0, endpoint="query", payload=0)
    late = loadgen.Outcome(req, sent=1.25, done=1.30, status=200, body=b"x")
    assert _close(late.latency_s, 0.30)    # from due, not from send
    assert _close(late.late_s, 0.25)
    early = loadgen.Outcome(req, sent=1.0, done=1.01, status=200, body=b"x")
    assert _close(early.late_s, 0.0)
    failed = loadgen.Outcome(req, sent=1.0, done=1.001, status=0, body=b"")
    summary = loadgen.summarize([early] * 98 + [failed] * 2, limit_ms=50.0,
                                expected={"query": [b"x"]})
    assert summary["failed"] == 2 and summary["wrong"] == 0
    # fast failures must count as misses of the 50 ms limit
    assert summary["p99_ms"] > 50.0, summary
    wrong = loadgen.Outcome(req, sent=1.0, done=1.01, status=200, body=b"y")
    assert loadgen.summarize([wrong], 50.0, {"query": [b"x"]})["wrong"] == 1


def test_schedule_is_seeded() -> None:
    a = loadgen.poisson_schedule(100, 2.0, np.random.default_rng(7))
    b = loadgen.poisson_schedule(100, 2.0, np.random.default_rng(7))
    assert a == b and all(x < y for x, y in zip(a, a[1:]))
    assert 150 < len(a) < 250 and a[-1] < 2.0


def test_declared_metrics() -> None:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert declared == list(layers.PER_LAYER), "per_layer drifted"


TESTS = [test_self_time, test_due_time_accounting, test_schedule_is_seeded,
         test_declared_metrics]


def run_all() -> list:
    """Names and messages of the failing tests (empty when all pass)."""
    problems = []
    for test in TESTS:
        try:
            test()
        except AssertionError as exc:
            problems.append(f"{test.__name__}: {exc}")
    return problems


if __name__ == "__main__":
    failures = run_all()
    for line in failures:
        print("FAIL", line)
    print(f"{len(TESTS) - len(failures)}/{len(TESTS)} self-tests passed")
    sys.exit(1 if failures else 0)
