"""Run one workload of the owner -> provider benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory and nowhere else.  Inputs come from ``--seed`` alone.
Every output is checked against an oracle recomputed in the same run.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, from untraced work; with ``--trace 1`` they are the
per-layer ones, from a separate traced share of the run.  The line before
it is the run record (seed, machine, calibration, workload facts), also
written with the spans under ``.bench_runs/`` in the checkout.  The exit
code is 0 only when every output was correct.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

#: End-to-end metrics and their units, in the order BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro`` from it."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {package}")


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop (compare machines by it)."""
    start = time.perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value * value % 7
    return time.perf_counter() - start


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None, sizes=None) -> int:
    """Run one workload; returns the exit code (``sizes`` lets tests shrink it)."""
    args = parse_args(argv)
    import_program()
    import numpy

    import layers
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    import_s = time.perf_counter() - _STARTED
    calibration_s = calibrate()
    tracer = Tracer() if args.trace else None
    outcome = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, tracer, sizes or workloads.FULL
    )
    verdicts = outcome.verdicts
    if tracer is None:
        values = {
            "setup_s": import_s + statistics.median(outcome.setup_s),
            "throughput_per_s": outcome.throughput_per_s,
            "latency_p50_ms": statistics.median(outcome.latencies_ms),
            "latency_tail_ms": workloads.tail_ms(outcome.latencies_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        extra = dict(outcome.layer or {})
        extra["error_rate"] = verdicts.failed / max(verdicts.attempted, 1)
        values = layers.layer_metrics(tracer, outcome.traced_units, extra)
        units = layers.PER_LAYER
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units}
    correct = verdicts.failed == 0 and all(
        math.isfinite(entry["value"]) for entry in metrics.values()
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_s": calibration_s,
        "import_s": import_s,
        "setup_runs_s": outcome.setup_s,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "problems": verdicts.problems,
        "latency_samples": len(outcome.latencies_ms),
        **outcome.record,
    }
    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(RUNS / f"{stem}.spans.jsonl")
    print("record " + json.dumps(record))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": verdicts.attempted,
                "failed": verdicts.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
