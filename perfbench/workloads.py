"""The two workloads: each returns its metrics and what it checked.

``measure(workload, seed, seconds)`` gives the end-to-end metrics (tracing
off); ``ledger(workload, seed, seconds)`` gives the per-layer metrics from
a separate traced run.  Both return a :class:`Outcome`.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cases as inputs
import compiler
import serving
from common import Sketcher, geomean, median, peak_rss_mb, percentile, shm_segments
from repro import clear_plan_cache
from repro.formats.base import SparseFormat

#: Rounds per run: each sets up once and measures a share of every metric,
#: so the host's fast and slow spells (which last seconds) land on all of
#: them alike.
ROUNDS = 12
#: Set-ups and inline calls are short, Python-bound work that switches
#: between the host's two speeds, about 1.8x apart, from round to round.
#: The share of fast rounds changes from run to run and moves a median or
#: mean of the rounds; nearly every run has slow rounds.  So ``setup_s``
#: and ``run_ms_geomean`` report this percentile of the rounds: the slow
#: speed, between the second and third slowest of 12, so that a single
#: outlier round does not count.
SLOW_PERCENTILE = 90
#: Cold compiles of the request classes per round of ``fresh-gateway``;
#: ``compile_s`` is the median of them.
COMPILE_REPEATS = 2
#: Requests the encoder and tuner ledgers replay on ``fresh-gateway``.
LEDGER_REQUESTS = 64


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    details: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# paper-kernels
# ---------------------------------------------------------------------------
def _paper_setup(raws, seed: int):
    """One set-up: build every case's format and cold-compile it."""
    return compiler.setup_once(lambda: [inputs.paper_case(raw, seed) for raw in raws])


def paper_measure(seed: int, seconds: float) -> Outcome:
    """Rounds of (one set-up, interleaved one-shot calls).

    Spreading set-ups and calls over the run exposes every metric to the
    same mix of fast and slow spells of the host.  ``run_ms_geomean`` is
    taken per round (a geomean of per-case median calls) and reported, as
    ``setup_s`` is, at ``SLOW_PERCENTILE`` of the rounds.
    """
    raws = inputs.paper_inputs(seed)
    setups, compiles, rounds = [], [], []
    calls = compiler.CallTimes()
    for _ in range(ROUNDS):
        cases, setup_s, compile_s, compiled = _paper_setup(raws, seed)
        setups.append(setup_s)
        compiles.append(compile_s)
        chunk = compiler.time_calls(cases, seconds / ROUNDS)
        rounds.append(geomean(chunk.medians().values()))
        for name, times in chunk.times.items():
            calls.times.setdefault(name, []).extend(times)
        calls.results.update(chunk.results)
        calls.errors += chunk.errors
        calls.wall_s += chunk.wall_s
    verdicts = compiler.check_cases(cases, calls.results, oracle=True)
    within = sum(
        int(np.sum(np.asarray(calls.times[c.name]) * 1e3 <= c.limit_ms))
        for c in cases if verdicts[c.name]
    )
    completed = sum(len(ts) for ts in calls.times.values())
    attempted = completed + calls.errors
    failed = calls.errors + sum(len(calls.times[c.name]) for c in cases if not verdicts[c.name])
    medians = calls.medians()
    return Outcome(
        metrics={
            "setup_s": percentile(setups, SLOW_PERCENTILE),
            # Compiling is deterministic work: the slower compiles time the
            # host's slow spells, not the compiler.
            "compile_s": min(compiles),
            "run_ms_geomean": percentile(rounds, SLOW_PERCENTILE),
            "modeled_gpu_ms_geomean": compiler.modeled_ms(compiled),
            "throughput_rps": completed / calls.wall_s,
            # The pooled median would fall in the gap between the small
            # and the large cases, so p50 is per case, taken as
            # run_ms_geomean is; the pooled p99 is the tail of the whole mix.
            "latency_p50_ms": percentile(rounds, SLOW_PERCENTILE),
            "latency_p99_ms": percentile(calls.all_ms(), 99),
            "slo_attainment": within / max(attempted, 1),
            "peak_rss_mb": peak_rss_mb(),
        },
        attempted=attempted,
        failed=failed,
        details={
            "run_ms": medians,
            "run_ms_geomean_per_round": rounds,
            "setup_s": setups,
            "compile_s": compiles,
            "modeled_ms": {c.name: k.estimated_ms for c, k in zip(cases, compiled)},
            "calls_ms": {name: [round(t * 1e3, 4) for t in ts]
                         for name, ts in calls.times.items()},
            "correct": verdicts,
        },
    )


def paper_ledger(seed: int, seconds: float) -> Outcome:
    raws = inputs.paper_inputs(seed)
    cases = _paper_setup(raws, seed)[0]
    convert = []
    for raw in raws:
        t0 = time.perf_counter()
        inputs.paper_case(raw, seed)
        convert.append(time.perf_counter() - t0)
    metrics, per_case = compiler.compiler_ledger(cases, seconds)
    metrics.update(_formats(convert, cases))
    metrics.update(serving.encoder_bytes(cases))
    metrics.update(serving.tuner_decisions(cases))
    results = {c.name: compiler.one_shot(c) for c in cases}
    verdicts = compiler.check_cases(cases, results, oracle=True)
    # No serving tier runs here: its spans, counters and leaks are zero.
    metrics.update({name: 0.0 for name in SERVING_LAYER_METRICS})
    failed = sum(not ok for ok in verdicts.values())
    return _with_self_test(
        Outcome(metrics, attempted=len(cases), failed=failed,
                details={"per_case": per_case, "correct": verdicts}),
        "paper-kernels", seed,
    )


def _formats(convert_s: list[float], cases) -> dict[str, float]:
    return {
        "formats.convert_ms": median(convert_s) * 1e3,
        "formats.stored_per_nnz": sum(c.stored for c in cases) / max(sum(c.nnz for c in cases), 1),
    }


# ---------------------------------------------------------------------------
# fresh-gateway
# ---------------------------------------------------------------------------
def _class_cases(traffic) -> list:
    return [inputs.request_case(f"{r.kind}.{i}", r) for i, r in enumerate(traffic.classes())]


def _cold_compiles(cases) -> tuple[list[float], list]:
    """Seconds to cold-compile every case, per repeat, and the kernels."""
    compiles = []
    for _ in range(COMPILE_REPEATS):
        clear_plan_cache()
        t0 = time.perf_counter()
        compiled = [compiler.cold_compile(case) for case in cases]
        compiles.append(time.perf_counter() - t0)
    return compiles, compiled


def serving_measure(seed: int, seconds: float) -> Outcome:
    """Rounds of: compiles and inline calls, then a fresh stack's set-up,
    fixed rate and saturation.

    The inline work runs while no stack is up, so the gateway, client and
    session threads of this process do not compete with the calls timed.
    Interleaving the phases spreads a slow spell of the host over all of
    them instead of one.  Throughput and the latency percentiles are taken
    per round and reported as the median of the rounds, so a spell that
    covers part of a run moves none of them.  Set-up and
    ``run_ms_geomean`` (a geomean over the request classes of their median
    inline call) are taken per round and reported at ``SLOW_PERCENTILE``.
    ``compile_s`` is the median of all compiles: these take about 5 ms, and
    the fastest of them depends on whether the run caught a fast second of
    the host.
    """
    traffic = inputs.FreshTraffic(seed)
    sketcher = Sketcher(seed)
    cases = _class_cases(traffic)
    shm_before = shm_segments()
    inline = compiler.CallTimes(times={case.name: [] for case in cases})
    fixed, saturated, compiles, setups = [], [], [], []
    rates, p50s, p99s, inline_rounds = [], [], [], []
    warmed = wrong = 0
    chunk_s = seconds / ROUNDS
    per_chunk = max(1, int(serving.RATE * serving.FIXED_SHARE * chunk_s))
    saturation_pool = int(serving.SATURATION_PREPARED_RPS * serving.SATURATION_SHARE * chunk_s) + 1
    for chunk in range(ROUNDS):
        times, compiled = _cold_compiles(cases)
        compiles += times
        calls = compiler.time_calls(cases, serving.INLINE_SHARE * chunk_s)
        inline_rounds.append(geomean(calls.medians().values()))
        for name, times in calls.times.items():
            inline.times[name].extend(times)
        inline.results.update(calls.results)
        inline.errors += calls.errors
        paced = serving.prepare(traffic, range(chunk * per_chunk, (chunk + 1) * per_chunk))
        first = serving.SATURATION_IDS * (chunk + 1)
        unpaced = serving.prepare(traffic, range(first, first + saturation_pool))
        stack, setup_s, sent, bad = serving.start_stack(traffic, sketcher)
        setups.append(setup_s)
        warmed, wrong = warmed + sent, wrong + bad
        try:
            records = serving.open_loop(stack, paced, serving.RATE, sketcher)
            latencies = [r.latency_ms for r in records]
            p50s.append(percentile(latencies, 50))
            p99s.append(percentile(latencies, 99))
            fixed += records
            records, rps = serving.saturate(
                stack, unpaced, serving.SATURATION_SHARE * chunk_s, serving.INFLIGHT, sketcher
            )
            saturated += records
            rates.append(rps)
        finally:
            stack.close()
            del paced, unpaced
    leaks = serving.leaks(shm_before)
    verdicts = compiler.check_cases(cases, inline.results, oracle=False)
    wrong_fixed = serving.wrong_results(fixed, traffic, sketcher)
    wrong_saturated = serving.wrong_results(saturated, traffic, sketcher)
    good = sum(
        1 for r in fixed if r.rid not in wrong_fixed and r.latency_ms <= serving.LIMIT_MS
    )
    attempted = len(fixed) + len(saturated) + warmed + len(cases)
    failed = (wrong + len(wrong_fixed) + len(wrong_saturated) + inline.errors
              + sum(not ok for ok in verdicts.values()))
    metrics = {
        "setup_s": percentile(setups, SLOW_PERCENTILE),
        "compile_s": median(compiles),
        "run_ms_geomean": percentile(inline_rounds, SLOW_PERCENTILE),
        "modeled_gpu_ms_geomean": compiler.modeled_ms(compiled),
        "throughput_rps": median(rates),
        "latency_p50_ms": median(p50s),
        "latency_p99_ms": median(p99s),
        "slo_attainment": good / len(fixed),
        "peak_rss_mb": peak_rss_mb(),
    }
    return Outcome(
        metrics,
        attempted=attempted,
        failed=failed,
        details={
            "samples": len(fixed),
            "saturation_requests": len(saturated),
            "throughput_rps_per_round": rates,
            "latency_p50_ms_per_round": p50s,
            "latency_p99_ms_per_round": p99s,
            "run_ms_geomean_per_round": inline_rounds,
            "setup_s": setups,
            "run_ms": inline.medians(),
            "compile_s": compiles,
            "loadgen.lag_p99_ms": percentile([(r.sent - r.due) * 1e3 for r in fixed], 99),
            "latency_ms": [round(r.latency_ms, 4) for r in fixed],
            **leaks,
        },
    )


def serving_ledger(seed: int, seconds: float) -> Outcome:
    traffic = inputs.FreshTraffic(seed)
    sketcher = Sketcher(seed)
    sample = [traffic.request(i) for i in range(LEDGER_REQUESTS)]
    cases = _class_cases(traffic)
    metrics, per_case = compiler.compiler_ledger(cases, 0.2 * seconds)
    metrics.update(_formats(_convert_times(sample), [inputs.request_case("s", r) for r in sample]))
    metrics.update(serving.encoder_bytes(sample))
    metrics.update(serving.tuner_decisions(sample))

    count = max(4, int(serving.RATE * serving.FIXED_SHARE * 0.8 * seconds))
    block = max(1, count // 4)
    paced = serving.prepare(traffic, range(count))
    shm_before = shm_segments()
    stack, _, warmed, wrong = serving.start_stack(traffic, sketcher)
    wall_offset = time.time() - time.perf_counter()
    try:
        stack.session.reset_stats()
        before = serving.process_cpu(stack)
        fixed = serving.open_loop(
            stack, paced, serving.RATE, sketcher,
            traced_block=lambda n: (n // block) % 2 == 1,
        )
        after = serving.process_cpu(stack)
        stats = stack.session.stats()
    finally:
        stack.close()
    metrics.update(serving.leaks(shm_before))
    wrong += len(serving.wrong_results(fixed, traffic, sketcher))
    span_metrics, spans = serving.span_ledger(fixed, wall_offset)
    metrics.update(span_metrics)
    metrics.update(serving.cpu_per_request(before, after, len(fixed)))
    traced = [r.latency_ms for r in fixed if r.traced]
    untraced = [r.latency_ms for r in fixed if not r.traced]
    batches = stats.coalesced_batches
    metrics.update({
        "runtime.plan_cache_hit_ratio": stats.cache_hit_rate,
        "runtime.coalesce_ratio": stats.coalesce_rate,
        "runtime.coalesce_batch_mean": stats.coalesced_requests / batches if batches else 0.0,
        "cluster.requeued": stats.requeued,
        "cluster.restarts": stats.restarts,
        "obs.trace_overhead_ratio": median(traced) / median(untraced) - 1.0,
        "loadgen.lag_p99_ms": percentile([(r.sent - r.due) * 1e3 for r in fixed], 99),
        "loadgen.samples": len(fixed),
    })
    return _with_self_test(
        Outcome(metrics, attempted=len(fixed) + warmed, failed=wrong,
                details={"per_case": per_case, "traced_requests": len(traced)},
                spans=spans),
        "fresh-gateway", seed,
    )


def _convert_times(requests) -> list[float]:
    """Seconds to build each request's sparse format from its dense form."""
    times = []
    for request in requests:
        fmt = request.operands.get("A")
        if not isinstance(fmt, SparseFormat):
            continue
        dense = fmt.to_dense()
        t0 = time.perf_counter()
        type(fmt).from_dense(dense)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# Cross-process input self-test
# ---------------------------------------------------------------------------
def _with_self_test(outcome: Outcome, workload: str, seed: int) -> Outcome:
    """Rebuild the inputs in a second process; the digests must agree."""
    here = inputs.input_digest(workload, seed)
    child = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--digest",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    there = child.stdout.strip().splitlines()[-1] if child.stdout.strip() else ""
    outcome.details["input_digest"] = here
    outcome.details["input_digest_other_process"] = there
    outcome.attempted += 1
    if there != here:
        outcome.failed += 1
    total = max(outcome.attempted, 1)
    outcome.metrics["error_rate"] = outcome.failed / total
    return outcome


#: Ledger metrics of the serving tiers (zero on ``paper-kernels``).
SERVING_LAYER_METRICS = [
    *(f"{metric}.{q}" for metric in serving.SPAN_METRICS for q in ("p50", "p99")),
    "serve.submit_us.p50", "serve.submit_us.p99", "serve.parent_cpu_ms_per_req",
    "runtime.coalesce_ratio", "runtime.coalesce_batch_mean",
    "cluster.worker_cpu_ms_per_req", "cluster.requeued", "cluster.restarts",
    "cluster.leaked_segments", "cluster.leaked_procs",
    "loadgen.lag_p99_ms", "loadgen.samples",
]


def measure(workload: str, seed: int, seconds: float) -> Outcome:
    if workload == "paper-kernels":
        outcome = paper_measure(seed, seconds)
    else:
        outcome = serving_measure(seed, seconds)
    outcome.details["error_rate"] = outcome.failed / max(outcome.attempted, 1)
    return outcome


def ledger(workload: str, seed: int, seconds: float) -> Outcome:
    if workload == "paper-kernels":
        return paper_ledger(seed, seconds)
    return serving_ledger(seed, seconds)
