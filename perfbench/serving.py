"""The serving workload: an open-loop generator, saturation, and the span ledger.

``fresh-gateway`` starts a ``Session(backend="cluster")`` with its HTTP
gateway in front and submits through a ``GatewayClient`` on the binary
wire.  One generator thread in this process drives it; latency runs from
each request's *due* time to the completion callback, so a generator stall
counts against the requests it delays and shows as ``loadgen.lag_p99_ms``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from common import cpu_seconds, median, percentile, shm_segments
from repro import GatewayClient, ServeConfig, Session
from repro.cluster.codec import OperandEncoder
from repro.cluster.shm import ShmRing
from repro.formats.base import SparseFormat
from repro.gateway.wire import WireEncoder
from repro.obs import get_registry
from repro.obs import trace as obs_trace
from repro.obs.resources import sample_process
from repro.tuner.auto import auto_format_with_decision

#: Saturation requests take ids from multiples of this, apart from the
#: fixed-rate ones.
SATURATION_IDS = 1_000_000
#: Saturation requests prepared per second of the phase: about twice the
#: rate the stack reaches on a 2-core host, so the phase ends on time, not
#: by running out.
SATURATION_PREPARED_RPS = 300
#: Requests per second of the fixed-rate phase.
RATE = 50.0
#: Latency limit (ms) of ``slo_attainment``.
LIMIT_MS = 100.0
#: Requests outstanding at once in the saturation phase.
INFLIGHT = 8
#: Shares of each round: inline compiler work (no stack running), the
#: fixed rate, and saturation.
INLINE_SHARE, FIXED_SHARE, SATURATION_SHARE = 0.20, 0.64, 0.16


class Stack:
    """A running serving stack: cluster session, its gateway, and a client."""

    def __init__(self):
        workers = max(1, min(2, os.cpu_count() or 1))
        config = ServeConfig(
            workers=workers,
            worker_threads=1,
            coalesce=True,
            max_inflight=64,
            auto_format=True,
        )
        self.session = Session(backend="cluster", config=config)
        gateway = self.session.serve_gateway(port=0)
        self.client = GatewayClient(
            f"http://127.0.0.1:{gateway.port}",
            binary=True,
            max_connections=min(2, os.cpu_count() or 1),
        )

    def submit(self, expression: str, operands: dict) -> Any:
        return self.client.submit(expression, **operands)

    def worker_pids(self) -> list[int]:
        return [w["pid"] for w in self.session.health().get("workers", []) if w.get("pid")]

    def close(self) -> None:
        self.client.close()
        self.session.close()


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class Record:
    """One request's life as the generator saw it (``perf_counter`` seconds).

    Slotted and lock-free: a run keeps thousands of these, and every object
    the benchmark keeps alive lengthens the collector pauses the serving
    threads of this process pay.
    """

    rid: int
    due: float
    traced: bool = False
    sent: float = 0.0
    returned: float = 0.0
    done: float = 0.0
    error: str | None = None
    shape: tuple = ()
    sketch: np.ndarray | None = None
    trace: Any = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


class Outstanding:
    """Counts requests in flight; completion callbacks fill their records."""

    def __init__(self, sketcher, on_release: Callable[[], None] | None = None):
        self._sketcher = sketcher
        self._on_release = on_release
        self._cond = threading.Condition()
        self._pending = 0

    def track(self, record: Record, future) -> None:
        with self._cond:
            self._pending += 1
        future.add_done_callback(lambda f: self._complete(record, f))

    def _complete(self, record: Record, future) -> None:
        record.done = time.perf_counter()
        try:
            error = future.exception()
            if error is not None:
                record.error = repr(error)
            else:
                record.shape, record.sketch = self._sketcher.sketch(future.result())
            record.trace = future.trace()
        except Exception as error:  # noqa: BLE001 — a failed request, recorded
            record.error = repr(error)
        finally:
            with self._cond:
                self._pending -= 1
                self._cond.notify_all()
            if self._on_release is not None:
                self._on_release()

    def wait(self, records: list[Record], timeout: float = 120.0) -> None:
        """Wait for every tracked request; mark the stragglers timed out."""
        with self._cond:
            self._cond.wait_for(lambda: self._pending == 0, timeout)
        for record in records:
            if not record.done:
                record.error = "timed out"
                record.done = time.perf_counter()


def prepare(traffic, ids) -> list[tuple[int, str, dict]]:
    """Build requests ``ids`` ahead of a timed phase: ``(rid, expression, operands)``.

    Building one takes about a millisecond of this process's CPU; done
    between submits, it would compete for the interpreter with the client
    and gateway threads serving the request just sent.  Only the operands
    are kept; the check rebuilds each reference from the request id.
    """
    prepared = []
    for rid in ids:
        request = traffic.request(rid)
        prepared.append((rid, request.expression, request.operands))
    return prepared


def open_loop(stack: Stack, prepared: list, rate: float, sketcher,
              traced_block: Callable[[int], bool] | None = None) -> list[Record]:
    """Send the prepared requests at ``rate``/s on a fixed schedule.

    Request ``n`` is due at ``start + n / rate`` whether or not earlier
    ones have finished.  ``traced_block(n)`` switches request tracing on or
    off per request.
    """
    records = []
    outstanding = Outstanding(sketcher)
    start = time.perf_counter() + 0.01
    for n, (rid, expression, operands) in enumerate(prepared):
        record = Record(rid, due=start + n / rate)
        if traced_block is not None:
            record.traced = traced_block(n)
            obs_trace.set_enabled(record.traced)
        delay = record.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        record.sent = time.perf_counter()
        future = stack.submit(expression, operands)
        record.returned = time.perf_counter()
        outstanding.track(record, future)
        records.append(record)
    outstanding.wait(records)
    return records


def saturate(stack: Stack, prepared: list, seconds: float, inflight: int,
             sketcher) -> tuple[list[Record], float]:
    """Unpaced load, at most ``inflight`` outstanding; returns (records, req/s).

    Sends the prepared requests until ``seconds`` have passed (or they run
    out).  Throughput is measured between the first and the last completion
    inside the window that follows a short ramp, while the generator keeps
    every slot busy.
    """
    slots = threading.BoundedSemaphore(inflight)
    outstanding = Outstanding(sketcher, on_release=slots.release)
    records = []
    start = time.perf_counter()
    end = start + seconds
    for rid, expression, operands in prepared:
        slots.acquire()
        record = Record(rid, due=time.perf_counter())
        if record.due >= end:
            slots.release()
            break
        record.sent = record.due
        future = stack.submit(expression, operands)
        record.returned = time.perf_counter()
        outstanding.track(record, future)
        records.append(record)
    end = min(end, time.perf_counter())
    outstanding.wait(records)
    ramp = start + min(0.5, seconds / 4)
    done = sorted(r.done for r in records if r.error is None and ramp <= r.done <= end)
    if len(done) < 2:
        return records, 0.0
    return records, (len(done) - 1) / (done[-1] - done[0])


def wrong_results(records: list[Record], traffic, sketcher) -> set[int]:
    """Ids of failed requests and of results unequal to the dense reference."""
    wrong = set()
    for record in records:
        if record.error is not None or not sketcher.matches(
            record.shape, record.sketch, traffic.request(record.rid).expected()
        ):
            wrong.add(record.rid)
    return wrong


def warm_up(stack: Stack, traffic, sketcher) -> tuple[int, int]:
    """Send each request class twice and wait; returns (sent, wrong).

    Each pass is sent at once, so both client connections and both
    workers are up before the timed phases start.
    """
    sent = wrong = 0
    for _ in range(2):
        requests = traffic.classes()
        futures = [stack.submit(r.expression, r.operands) for r in requests]
        sent += len(futures)
        for request, future in zip(requests, futures):
            try:
                shape, sketch = sketcher.sketch(future.result(timeout=120))
            except Exception:  # noqa: BLE001 — a failed warm-up request
                wrong += 1
                continue
            wrong += not sketcher.matches(shape, sketch, request.expected())
    return sent, wrong


def start_stack(traffic, sketcher) -> tuple[Stack, float, int, int]:
    """Start and warm a stack; returns ``(stack, setup_seconds, sent, wrong)``."""
    t0 = time.perf_counter()
    stack = Stack()
    sent, wrong = warm_up(stack, traffic, sketcher)
    return stack, time.perf_counter() - t0, sent, wrong


def leaks(shm_before: set[str]) -> dict[str, int]:
    """Segments and child processes still present after every stack closed."""
    return {
        "cluster.leaked_segments": len(shm_segments() - shm_before),
        "cluster.leaked_procs": len(multiprocessing.active_children()),
    }


# ---------------------------------------------------------------------------
# The serving ledger (traced runs)
# ---------------------------------------------------------------------------
#: ledger metric -> span name.  Program spans come from ``Future.trace()``;
#: ``serve.submit`` and ``loadgen.lag`` are the benchmark's own.
SPAN_METRICS = {
    "cluster.admission_wait_ms": "admission.wait",
    "cluster.queue_dispatch_ms": "queue.dispatch",
    "cluster.codec_encode_ms": "codec.encode",
    "cluster.ring_transit_ms": "ring.transit",
    "cluster.codec_decode_ms": "codec.decode",
    "runtime.queue_wait_ms": "queue.wait",
    "engine.execute_ms": "execute",
    "cluster.codec_encode_result_ms": "codec.encode_result",
    "cluster.ring_respond_ms": "ring.respond",
    "gateway.decode_ms": "gateway.decode",
    "gateway.wait_ms": "gateway.wait",
    "gateway.respond_ms": "gateway.respond",
    "obs.unaccounted_ms": "request",
}


def request_spans(record: Record, wall_offset: float) -> list[dict]:
    """The request's spans as a tree, each with its parent and self time.

    The root ``request`` runs from the due time to completion.  A span's
    parent is the shortest other span that contains it; self time is its
    duration minus the part its children cover.
    """
    wall = lambda t: t + wall_offset  # noqa: E731 — perf_counter -> epoch seconds
    spans = [
        {"name": "request", "start": wall(record.due), "end": wall(record.done)},
        {"name": "loadgen.lag", "start": wall(record.due), "end": wall(record.sent)},
        {"name": "serve.submit", "start": wall(record.sent), "end": wall(record.returned)},
    ]
    if record.trace is not None:
        spans += [{"name": s.name, "start": s.start, "end": s.end} for s in record.trace.spans()]
    length = lambda span: span["end"] - span["start"]  # noqa: E731
    for i, span in enumerate(spans):
        span["id"] = i
        # Ties in length go to the earlier span, so no two spans parent
        # each other.
        outer = [
            j for j, other in enumerate(spans)
            if j != i
            and other["start"] - 1e-6 <= span["start"] and span["end"] <= other["end"] + 1e-6
            and (length(other) > length(span) or (length(other) == length(span) and j < i))
        ]
        span["parent"] = min(outer, key=lambda j: length(spans[j])) if outer else (
            None if i == 0 else 0
        )
    for span in spans:
        children = sorted((c["start"], c["end"]) for c in spans if c["parent"] == span["id"])
        covered, cursor = 0.0, span["start"]
        for start, end in children:
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        span["self_ms"] = max(0.0, (span["end"] - span["start"] - covered) * 1e3)
        span["trace"] = record.trace.trace_id if record.trace is not None else str(record.rid)
    return spans


def span_ledger(records: list[Record], wall_offset: float) -> tuple[dict, list[dict]]:
    """Self-time p50/p99 per ledger span over the traced requests."""
    all_spans, by_name = [], {}
    for record in records:
        if record.trace is None or record.error is not None:
            continue
        spans = request_spans(record, wall_offset)
        all_spans.extend(spans)
        for span in spans:
            by_name.setdefault(span["name"], []).append(span["self_ms"])
    metrics = {}
    for metric, name in SPAN_METRICS.items():
        values = by_name.get(name, [])
        metrics[f"{metric}.p50"] = percentile(values, 50)
        metrics[f"{metric}.p99"] = percentile(values, 99)
    submit_us = [v * 1e3 for v in by_name.get("serve.submit", [])]
    metrics["serve.submit_us.p50"] = percentile(submit_us, 50)
    metrics["serve.submit_us.p99"] = percentile(submit_us, 99)
    return metrics, all_spans


def encoder_bytes(requests) -> dict[str, float]:
    """Bytes a request costs on the ring transport and on the binary wire.

    Each request is encoded in order on one benchmark-owned ``ShmRing``
    (``OperandEncoder.encode_request``) and one ``WireEncoder``, so repeated
    patterns reach the encoders' cached tiers as they do in serving.
    Ring bytes are the payloads written plus the pickled envelope and
    control messages.
    """
    ring = ShmRing.create(f"pb{os.getpid()}", 32 * 1024 * 1024)
    try:
        cluster = OperandEncoder(ring)
        wire = WireEncoder()
        ring_bytes = wire_bytes = nnz = 0
        for rid, request in enumerate(requests):
            envelope, controls = cluster.encode_request(
                rid, request.expression, dict(request.operands), attempt=0
            )
            ring_bytes += len(pickle.dumps(envelope)) + sum(len(pickle.dumps(c)) for c in controls)
            ring_bytes += sum(d[2] for d in envelope.operands.values()
                              if d[0] in ("ring", "ring_store"))
            ring.release(envelope.release_to)
            _, body = wire.encode_request(request.expression, request.operands, binary=True)
            wire_bytes += len(body)
            nnz += request.nnz
    finally:
        ring.close()
    return {
        "cluster.request_bytes_per_nnz": ring_bytes / max(nnz, 1),
        "gateway.request_bytes": wire_bytes / max(len(requests), 1),
        "gateway.request_bytes_per_nnz": wire_bytes / max(nnz, 1),
    }


def tuner_decisions(requests) -> dict[str, float]:
    """Time ``auto_format_with_decision`` on the requests' sparse operands."""
    registry = get_registry()
    counters = {
        outcome: registry.counter("repro_tuner_decisions_total", outcome=outcome)
        for outcome in ("hit", "miss")
    }
    before = {k: c.value() for k, c in counters.items()}
    times = []
    for request in requests:
        for name, value in request.operands.items():
            if isinstance(value, SparseFormat):
                dense = next(v for k, v in request.operands.items()
                             if k != name and isinstance(v, np.ndarray))
                n_cols = dense.shape[1] if dense.ndim == 2 else 1
                t0 = time.perf_counter()
                auto_format_with_decision(value, n_cols=n_cols)
                times.append(time.perf_counter() - t0)
    hits = counters["hit"].value() - before["hit"]
    misses = counters["miss"].value() - before["miss"]
    return {
        "tuner.decide_ms": median(times) * 1e3,
        "tuner.decision_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def process_cpu(stack: Stack) -> tuple[float, dict[int, float]]:
    """CPU seconds of this process and of each worker, for per-request shares."""
    workers = {}
    for pid in stack.worker_pids():
        sample = sample_process(pid)
        if sample is not None:
            workers[pid] = sample.cpu_seconds
    return cpu_seconds(), workers


def cpu_per_request(before, after, requests: int) -> dict[str, float]:
    parent = (after[0] - before[0]) * 1e3 / max(requests, 1)
    worker = sum(after[1][pid] - before[1].get(pid, after[1][pid]) for pid in after[1])
    return {
        "serve.parent_cpu_ms_per_req": parent,
        "cluster.worker_cpu_ms_per_req": worker * 1e3 / max(requests, 1),
    }
