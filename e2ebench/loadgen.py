"""Open-loop HTTP load generator (one process, one asyncio thread).

Requests are sent on a schedule fixed by the seed, whether or not earlier
requests have completed — independent users, not callers waiting on each
other.  Every request is timed from the moment it was *due*, so a stall in
the server or in the generator is charged to every request it delays; how
late the generator itself sent each request is reported separately.  A
request that fails or times out counts as missing any latency limit.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class Request:
    due: float            # seconds after the schedule origin
    endpoint: str         # "predict" | "query" | "pareto" | "nearest"
    payload: int          # index into the endpoint's payload pool


@dataclass
class Outcome:
    request: Request
    sent: float           # seconds after origin the request was written
    done: float           # seconds after origin the response was complete
    status: int           # HTTP status, 0 when the request failed
    body: bytes

    @property
    def latency_s(self) -> float:
        """Latency from the due time (includes generator lateness)."""
        return self.done - self.request.due

    @property
    def late_s(self) -> float:
        return max(0.0, self.sent - self.request.due)


def poisson_schedule(rate: float, duration: float,
                     rng: np.random.Generator) -> List[float]:
    """Due offsets of a Poisson arrival process at ``rate`` per second."""
    dues, t = [], 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= duration:
            return dues
        dues.append(t)


def plan_requests(dues: Sequence[float], mix: Dict[str, float],
                  pool_sizes: Dict[str, int],
                  rng: np.random.Generator) -> List[Request]:
    """Give each due time an endpoint (by ``mix`` weight) and a payload."""
    names = sorted(mix)
    weights = np.array([mix[n] for n in names], dtype=np.float64)
    picks = rng.choice(len(names), size=len(dues), p=weights / weights.sum())
    return [Request(due, names[k], int(rng.integers(pool_sizes[names[k]])))
            for due, k in zip(dues, picks.tolist())]


async def http_call(host: str, port: int, method: str, path: str,
                    body: bytes = b"") -> Tuple[int, bytes]:
    """One request on a fresh connection; returns ``(status, body)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            .encode("ascii") + body)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                length = int(value)
        return status, await reader.readexactly(length)
    finally:
        writer.close()


async def _run(host: str, port: int, requests: Sequence[Request],
               bodies: Dict[str, List[bytes]], timeout_s: float
               ) -> List[Outcome]:
    loop = asyncio.get_running_loop()
    origin = loop.time() + 0.05

    async def one(req: Request) -> Outcome:
        delay = origin + req.due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = loop.time() - origin
        try:
            status, body = await asyncio.wait_for(
                http_call(host, port, "POST", "/" + req.endpoint,
                          bodies[req.endpoint][req.payload]), timeout_s)
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                ValueError, IndexError):
            status, body = 0, b""
        return Outcome(req, sent, loop.time() - origin, status, body)

    tasks = [asyncio.ensure_future(one(r)) for r in requests]
    return list(await asyncio.gather(*tasks))


def run_open_loop(host: str, port: int, requests: Sequence[Request],
                  bodies: Dict[str, List[bytes]],
                  timeout_s: float = 5.0) -> List[Outcome]:
    """Send ``requests`` on their schedule; one outcome per request."""
    return asyncio.run(_run(host, port, requests, bodies, timeout_s))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def summarize(outcomes: Sequence[Outcome], limit_ms: float,
              expected: Optional[Dict[str, List[bytes]]] = None) -> Dict:
    """Latency percentiles (failures count as over the limit), lateness,
    a growing-backlog test and the body check."""
    if not outcomes:
        raise ValueError("no requests were sent")
    failed = [o for o in outcomes if o.status != 200]
    wrong = [o for o in outcomes if o.status == 200 and expected is not None
             and o.body != expected[o.request.endpoint][o.request.payload]]
    over = 2.0 * limit_ms / 1e3        # a failure counts as a miss
    latencies = [o.latency_s if o.status == 200 else max(o.latency_s, over)
                 for o in outcomes]
    ordered = sorted(outcomes, key=lambda o: o.request.due)
    third = max(1, len(ordered) // 3)
    head = [o.latency_s for o in ordered[:third]]
    tail = [o.latency_s for o in ordered[-third:]]
    return {
        "requests": len(outcomes),
        "failed": len(failed),
        "wrong": len(wrong),
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p90_ms": percentile(latencies, 90) * 1e3,
        "p99_ms": percentile(latencies, 99) * 1e3,
        "late_ms": percentile([o.late_s for o in outcomes], 50) * 1e3,
        "backlog_growing": bool(percentile(tail, 50)
                                > percentile(head, 50) + limit_ms / 2e3),
    }
