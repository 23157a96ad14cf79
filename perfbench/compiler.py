"""Compiler-side measurements: cold compile, warm one-shot calls, phases.

Used by both workloads: ``paper-kernels`` runs its eight cases here, and
``fresh-gateway`` runs its request classes here (in the benchmark process,
while no serving stack runs), so ``compile_s``, ``run_ms_geomean`` and
``modeled_gpu_ms_geomean`` and the compiler layers of the ledger exist on
both.

Every timing wraps a call into a layer's public function:
``parse_einsum``, ``SparseFormat.rewrite_plan`` + ``rewrite_sparse_operand``,
``validate``, ``plan_insum``, ``compile_plan``, ``CompiledInsum.run``, and
the one-line user entries ``sparse_einsum`` / ``insum``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from common import geomean, median, minor_faults, results_match
from repro import Insum, SparseEinsum, clear_plan_cache, get_plan_cache, insum, sparse_einsum
from repro.core.einsum import IndexVar, parse_einsum, reference_execute, rewrite_sparse_operand
from repro.core.einsum import validate
from repro.core.inductor import compile_plan
from repro.core.insum import plan_insum
from repro.obs import trace as obs_trace

#: Columns (or channels) the loop-nest oracle keeps: it is a pure-Python
#: loop nest, so the small cases are checked on a column slice.
ORACLE_COLUMNS = 2


def one_shot(case, operands=None):
    """The case as the user writes it: one ``sparse_einsum``/``insum`` call."""
    operands = case.call_operands() if operands is None else operands
    if case.entry == "sparse_einsum":
        return sparse_einsum(case.expression, **operands)
    return insum(case.expression, **operands)


def cold_compile(case):
    """Compile the case through the public API; returns the compiled kernel."""
    if case.entry == "sparse_einsum":
        return SparseEinsum(case.expression).estimate(**case.operands)
    return Insum(case.expression).compile(**case.call_operands())


def setup_once(build) -> tuple[list, float, float, list]:
    """Build every case's format and cold-compile it with an empty plan cache.

    Returns ``(cases, setup_seconds, compile_seconds, compiled)``.
    ``build`` constructs the cases (format construction, timed as set-up).
    """
    clear_plan_cache()
    started = time.perf_counter()
    cases = build()
    compile_s = 0.0
    compiled = []
    for case in cases:
        t0 = time.perf_counter()
        compiled.append(cold_compile(case))
        compile_s += time.perf_counter() - t0
    return cases, time.perf_counter() - started, compile_s, compiled


def modeled_ms(compiled) -> float:
    return geomean(c.estimated_ms for c in compiled)


@dataclass
class CallTimes:
    """Warm one-shot call times, per case, from an interleaved closed loop."""

    times: dict[str, list] = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    wall_s: float = 0.0
    errors: int = 0

    def medians(self) -> dict[str, float]:
        return {name: median(ts) * 1e3 for name, ts in self.times.items()}

    def all_ms(self) -> np.ndarray:
        return np.concatenate([np.asarray(ts) for ts in self.times.values()]) * 1e3


def time_calls(cases, seconds: float, min_rounds: int = 3) -> CallTimes:
    """Call every case in rotating order until ``seconds`` have passed.

    Interleaving spreads slow host periods over all cases alike.  The last
    result of each case is kept for the correctness check.
    """
    out = CallTimes(times={case.name: [] for case in cases})
    started = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - started < seconds:
        shift = rounds % len(cases)
        for case in cases[shift:] + cases[:shift]:
            operands = case.call_operands()
            t0 = time.perf_counter()
            try:
                result = one_shot(case, operands)
            except Exception as error:  # noqa: BLE001 — counted as a failed call
                out.errors += 1
                out.results[case.name] = error
                continue
            out.times[case.name].append(time.perf_counter() - t0)
            out.results[case.name] = result
        rounds += 1
    out.wall_s = time.perf_counter() - started
    return out


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------
def _extents(statement, operands) -> dict[str, int]:
    extents = {}
    for factor in statement.rhs.factors:
        shape = operands[factor.tensor].shape
        for axis, index in enumerate(factor.indices):
            if isinstance(index, IndexVar):
                extents[index.name] = shape[axis]
    return extents


def indirect_program(case, operands=None) -> tuple[str, dict]:
    """The indirect expression and tensors the case executes.

    For ``sparse_einsum`` cases this is the format rewrite, done through
    ``rewrite_plan`` + ``rewrite_sparse_operand`` exactly as the frontend
    does it; ``insum`` cases already are indirect.
    """
    operands = case.call_operands() if operands is None else operands
    if case.entry == "insum":
        return case.expression, operands
    statement = parse_einsum(case.expression)
    return _rewrite(case, statement, operands)[:2]


def _rewrite(case, statement, operands):
    sparse = case.sparse_name
    access = next(f for f in statement.rhs.factors if f.tensor == sparse)
    extents = _extents(statement, operands)
    output = statement.lhs.tensor
    tensors = {name: np.asarray(v) for name, v in operands.items() if name != sparse}
    tensors[output] = np.zeros(tuple(extents[ix.name] for ix in statement.lhs.indices))
    shapes = {name: arr.shape for name, arr in tensors.items()}
    plan = operands[sparse].rewrite_plan(sparse, [ix.name for ix in access.indices])
    rewrite = rewrite_sparse_operand(statement, plan, shapes)
    tensors.update(rewrite.tensors)
    for name, shape in rewrite.reshapes.items():
        tensors[name] = tensors[name].reshape(shape)
    if rewrite.output_reshape is not None:
        tensors[output] = tensors[output].reshape(rewrite.output_reshape)
    return rewrite.expression, tensors, rewrite


def _narrow(case, operands: dict) -> dict:
    """The operands with dense columns/channels cut to ``ORACLE_COLUMNS``."""
    k = ORACLE_COLUMNS
    narrowed = dict(operands)
    if case.entry == "sparse_einsum":
        for name, value in operands.items():
            if isinstance(value, np.ndarray) and value.ndim == 2:
                narrowed[name] = np.ascontiguousarray(value[:, :k])
    elif "Weight" in operands:  # sparse convolution
        narrowed["In"] = np.ascontiguousarray(operands["In"][:, :k])
        narrowed["Weight"] = np.ascontiguousarray(operands["Weight"][:, :k, :k])
        narrowed["Out"] = np.zeros((operands["Out"].shape[0], k))
    else:  # equivariant tensor product
        narrowed["X"] = np.ascontiguousarray(operands["X"][:, :, :k])
        narrowed["W"] = np.ascontiguousarray(operands["W"][:, :, :k, :k])
        narrowed["Z"] = np.zeros(operands["Z"].shape[:2] + (k,))
    return narrowed


def oracle_matches(case) -> bool:
    """The compiled one-shot call equals the loop-nest oracle.

    Both run the same (narrowed) operands; the oracle interprets the
    indirect program with Python loops (``core/einsum/reference.py``).
    """
    operands = _narrow(case, case.call_operands())
    expression, tensors = indirect_program(case, operands)
    expected = reference_execute(expression, tensors)
    actual = one_shot(case, operands)
    return results_match(np.asarray(actual).ravel(), np.asarray(expected).ravel())


def check_cases(cases, results: dict, oracle: bool) -> dict[str, bool]:
    """Dense NumPy check of every case; oracle check of the small ones."""
    verdicts = {}
    for case in cases:
        result = results.get(case.name)
        ok = isinstance(result, np.ndarray) and results_match(result, case.expected())
        if ok and oracle and case.small:
            ok = oracle_matches(case)
        verdicts[case.name] = ok
    return verdicts


# ---------------------------------------------------------------------------
# The compiler ledger (traced runs)
# ---------------------------------------------------------------------------
def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - t0


def phase_times(case) -> dict[str, float]:
    """One pass of the case's pipeline, phase by phase (seconds).

    Also returns ``minflt`` (minor page faults around ``CompiledInsum.run``)
    and the compiled program's counts.
    """
    phases: dict[str, float] = {}
    operands = case.call_operands()
    statement, phases["parse"] = _timed(parse_einsum, case.expression)
    if case.entry == "sparse_einsum":
        (expression, tensors, _), phases["rewrite"] = _timed(
            _rewrite, case, statement, operands
        )
        statement, parse_rewritten = _timed(parse_einsum, expression)
        phases["parse"] += parse_rewritten
    else:
        tensors = operands
    _, phases["validate"] = _timed(validate, statement, tensors, check_bounds=True)
    plan, phases["plan"] = _timed(plan_insum, statement, tensors)
    compiled, phases["compile"] = _timed(compile_plan, plan)
    faults = minor_faults()
    _, phases["run"] = _timed(compiled.run, tensors)
    phases["minflt"] = minor_faults() - faults
    phases["autotune_configs"] = compiled.autotune.candidates_evaluated
    phases["kernels"] = compiled.num_kernels
    phases["bytes"] = sum(
        access.total_bytes for k in compiled.kernels for access in (*k.loads, *k.stores)
    )
    phases["flops"] = sum(k.flops for k in compiled.kernels)
    return phases


def compiler_ledger(cases, seconds: float) -> tuple[dict, dict]:
    """Per-layer compiler metrics over ``cases``; returns (metrics, per-case).

    Phases repeat in rotating rounds for half of ``seconds``; the other half
    times one-shot calls in rounds that alternate serving tracing off and
    on, for ``obs.trace_overhead_ratio`` (compiler calls carry no trace
    stamps, so on this path the ratio shows the noise floor).
    """
    rounds: dict[str, list[dict]] = {case.name: [] for case in cases}
    started = time.perf_counter()
    n = 0
    while n < 3 or time.perf_counter() - started < seconds / 2:
        for case in cases[n % len(cases):] + cases[: n % len(cases)]:
            rounds[case.name].append(phase_times(case))
        n += 1
    before = get_plan_cache().stats()
    blocks = {False: {c.name: [] for c in cases}, True: {c.name: [] for c in cases}}
    previous = obs_trace.enabled()
    started, n = time.perf_counter(), 0
    try:
        while n < 2 or time.perf_counter() - started < seconds / 2:
            traced = bool(n % 2)
            obs_trace.set_enabled(traced)
            for name, ts in time_calls(cases, 0.0, min_rounds=1).times.items():
                blocks[traced][name].extend(ts)
            n += 1
    finally:
        obs_trace.set_enabled(previous)
    after = get_plan_cache().stats()

    per_case = {}
    for case in cases:
        samples = rounds[case.name]
        med = {key: median([s[key] for s in samples])
               for key in ("parse", "rewrite", "validate", "plan", "compile", "run")
               if key in samples[0]}
        one_shot_s = median(blocks[False][case.name])
        inside = med["parse"] + med.get("rewrite", 0.0) + med["run"]
        per_case[case.name] = {
            **{f"{k}_ms": v * 1e3 for k, v in med.items()},
            "one_shot_ms": one_shot_s * 1e3,
            "glue_us": (one_shot_s - inside) * 1e6,
            "minflt_per_run": float(np.mean([s["minflt"] for s in samples])),
            "autotune_configs": samples[0]["autotune_configs"],
            "kernels": samples[0]["kernels"],
            "modeled_bytes": samples[0]["bytes"],
            "modeled_flops": samples[0]["flops"],
            "rounds": len(samples),
        }
    rows = list(per_case.values())
    rewritten = [r for r in rows if "rewrite_ms" in r]
    hits = after.hits - before.hits
    lookups = hits + after.misses - before.misses
    traced = geomean(median(ts) for ts in blocks[True].values())
    untraced = geomean(median(ts) for ts in blocks[False].values())
    metrics = {
        "einsum.parse_us": geomean(r["parse_ms"] * 1e3 for r in rows),
        "einsum.rewrite_us": geomean(r["rewrite_ms"] * 1e3 for r in rewritten),
        "einsum.validate_us": geomean(r["validate_ms"] * 1e3 for r in rows),
        "insum.plan_ms": sum(r["plan_ms"] for r in rows),
        "insum.glue_us": float(np.mean([r["glue_us"] for r in rows])),
        "inductor.compile_ms": sum(r["compile_ms"] for r in rows),
        "inductor.autotune_configs": sum(r["autotune_configs"] for r in rows),
        "inductor.kernels_per_program": float(np.mean([r["kernels"] for r in rows])),
        "triton_sim.modeled_bytes": sum(r["modeled_bytes"] for r in rows),
        "triton_sim.modeled_flops": sum(r["modeled_flops"] for r in rows),
        "engine.run_ms": geomean(r["run_ms"] for r in rows),
        "engine.minor_faults_per_call": float(np.mean([r["minflt_per_run"] for r in rows])),
        "runtime.plan_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "obs.trace_overhead_ratio": traced / untraced - 1.0 if untraced else 0.0,
    }
    return metrics, per_case
