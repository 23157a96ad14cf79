"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-kernels --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with request tracing off;
``--trace 1`` is the separate traced run that prints the per-layer ledger.
Metric names and units come from ``BENCHMARK.json``; ``perfbench/GLOSSARY.md``
explains each one.  Every metric is printed as ``name = value unit``, then
one JSON line (the last line of output) with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A wrong result makes the exit code 1; a
checkout without the library (``src/repro``) makes it 2.

``--digest`` prints the SHA-256 of the workload's inputs for ``--seed``
and exits; traced runs use it to check that a second process builds the
same inputs.  Run records go to ``perfbench/results/``.  Before it
prints, a run stops and reaps every process it started, so none outlives
it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-kernels", "fresh-gateway")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digest", action="store_true")
    return parser.parse_args(argv)


def _pin_environment(trace: int) -> None:
    """Settings that must hold before NumPy or the library is imported.

    One BLAS thread per process (cluster workers inherit it), so every
    commit is measured with the same thread count on any host; tracing is
    read once at import.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["REPRO_TRACE"] = str(trace)


def _metric_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _pin_environment(args.trace)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import cases
    import workloads
    from common import environment, stop_children, write_record

    if args.digest:
        print(cases.input_digest(args.workload, args.seed))
        return 0

    units = _metric_units(args.trace)
    run = workloads.ledger if args.trace else workloads.measure
    try:
        outcome = run(args.workload, args.seed, args.seconds)
    finally:
        stop_children()
    missing = sorted(set(units) - set(outcome.metrics))
    bad = sorted(n for n in units if n in outcome.metrics
                 and not math.isfinite(float(outcome.metrics[n])))
    if missing or bad:
        print(f"perfbench: metrics missing {missing} or not finite {bad}", file=sys.stderr)
        return 3
    correct = outcome.failed == 0
    env = environment(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": env, "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "metrics": outcome.metrics, "details": outcome.details,
    }
    path = write_record(f"{tag}.json", record)
    if outcome.spans:
        spans_path = path.with_name(f"{tag}-spans.jsonl")
        spans_path.write_text("".join(json.dumps(s) + "\n" for s in outcome.spans))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} record={path.relative_to(ROOT)}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, value in sorted(outcome.metrics.items()):
        unit = units.get(name, "")
        print(f"{name} = {value:.6g} {unit}".rstrip())
    if "error_rate" not in outcome.metrics:
        print(f"error_rate = {outcome.failed / max(outcome.attempted, 1):.6g} ratio")
    print(f"# checked {outcome.attempted} operations, {outcome.failed} failed or wrong")
    result = {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
