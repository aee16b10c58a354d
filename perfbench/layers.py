"""Which public functions of each layer the traced run wraps, and the
per-layer metrics derived from the spans.

Span names are ``<layer>.<operation>``; the layer is the ``repro``
sub-package the wrapped function belongs to.  Several functions can share
one span name (``encrypt`` and ``encrypt_many`` of a scheme are one
operation at two batch sizes).

Units of the derived metrics:

* ``*.self_s`` — summed self time per traced unit of work (one mining
  pass of log_mining, one stream pass of stream_mining), except
  ``mining.approx.index.self_s`` (per approx mine);
* ``*.self_ms`` — self time per call, the median unless the name ends in
  a percentile (``.p90``, ``.p99``);
* counts — per traced unit of work.
"""

from __future__ import annotations

import numpy as np

from tracing import Probe, Tracer


def _pairs(args, kwargs, result) -> dict[str, float]:
    return {"core.pairs": len(result.condensed())}


def probes() -> list[Probe]:
    """Every probe of the traced run.

    Only the layers the kept workloads run are probed: the query-serving
    layers (``repro.sql``, ``repro.db``, ``repro.server``, Paillier
    encryption) belong to the held-back workloads (see NOTES.md), and
    ``repro.reliability`` is read from the services' own counters.
    """
    return [
        # repro.crypto
        Probe("repro.crypto.det:DeterministicScheme.encrypt", "crypto.det.encrypt"),
        Probe("repro.crypto.det:DeterministicScheme.encrypt_many", "crypto.det.encrypt"),
        Probe("repro.crypto.ope:OrderPreservingScheme.encrypt", "crypto.ope.encrypt"),
        Probe("repro.crypto.ope:OrderPreservingScheme.encrypt_many", "crypto.ope.encrypt"),
        Probe("repro.crypto.integrity:sign_checkpoint", "crypto.integrity.tag"),
        Probe("repro.crypto.integrity:verify_log_entries", "crypto.integrity.verify"),
        # repro.cryptdb
        Probe("repro.cryptdb.rewriter:QueryRewriter.rewrite", "cryptdb.rewrite"),
        Probe("repro.cryptdb.proxy:ProxySession.stream", "cryptdb.stream"),
        # repro.core
        Probe("repro.core.schemes.base:QueryLogDpeScheme.encrypt_log", "core.encrypt_log"),
        Probe("repro.core.dpe:DistanceMeasure.characteristics", "core.characteristics"),
        Probe(
            "repro.core.dpe:DistanceMeasure.condensed_distance_matrix",
            "core.distance_matrix",
            _pairs,
        ),
        # repro.mining
        Probe("repro.mining.knn:k_nearest_neighbors", "mining.knn"),
        Probe("repro.mining.dbscan:dbscan", "mining.dbscan"),
        Probe("repro.mining.outliers:distance_based_outliers", "mining.outliers"),
        Probe("repro.mining.incremental:IncrementalDistanceMatrix.append", "mining.incremental.append"),
        Probe("repro.mining.approx.pivots:PivotIndex.from_context", "mining.approx.index"),
        Probe("repro.mining.approx.algorithms:approx_dbscan", "mining.approx.dbscan"),
        Probe("repro.mining.approx.algorithms:approx_outliers", "mining.approx.outliers"),
        Probe("repro.mining.approx.algorithms:approx_knn_all", "mining.approx.knn"),
    ]


#: Every per-layer metric and its unit, in the order BENCHMARK.json lists them.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("core.encrypt_log.self_s", "s"),
    ("core.characteristics.self_s", "s"),
    ("core.distance_matrix.self_s", "s"),
    ("core.pairs", "count"),
    ("crypto.det.encrypt.self_s", "s"),
    ("crypto.ope.encrypt.self_s", "s"),
    ("mining.knn.self_s", "s"),
    ("mining.dbscan.self_s", "s"),
    ("mining.outliers.self_s", "s"),
    ("cryptdb.rewrite.self_ms.p50", "ms"),
    ("cryptdb.rewrite.self_ms.p99", "ms"),
    ("cryptdb.stream.self_ms", "ms"),
    ("mining.incremental.append.self_ms.p50", "ms"),
    ("mining.incremental.append.self_ms.p90", "ms"),
    ("mining.incremental.new_pairs", "count"),
    ("crypto.integrity.tag.self_s", "s"),
    ("crypto.integrity.verify.self_s", "s"),
    ("mining.approx.index.self_s", "s"),
    ("mining.approx.mine_s", "s"),
    ("mining.approx.evaluated_ratio", "ratio"),
    ("mining.approx.groups_ratio", "ratio"),
    ("mining.approx.certified_complete", "flag"),
    ("reliability.retries", "count"),
    ("reliability.gave_up", "count"),
    ("error_rate", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer, units: int, extra: dict[str, float]) -> dict[str, float]:
    """Derive every :data:`PER_LAYER` metric from the spans and ``extra``.

    ``units`` is the number of traced units of work; ``extra`` carries the
    metrics the workload reads from the program itself (reliability
    counters, approx-mining accounting, tracing overhead) and overrides
    span-derived ones.
    """
    self_times = tracer.self_times()
    counters = tracer.counters
    per_unit = max(units, 1)

    def total_self(name: str) -> float:
        return sum(self_times.get(name, ())) / per_unit

    def self_ms(name: str, q: float = 50) -> float:
        return _pct([value * 1e3 for value in self_times.get(name, ())], q)

    values = {
        "core.encrypt_log.self_s": total_self("core.encrypt_log"),
        "core.characteristics.self_s": total_self("core.characteristics"),
        "core.distance_matrix.self_s": total_self("core.distance_matrix"),
        "core.pairs": counters.get("core.pairs", 0) / per_unit,
        "crypto.det.encrypt.self_s": total_self("crypto.det.encrypt"),
        "crypto.ope.encrypt.self_s": total_self("crypto.ope.encrypt"),
        "mining.knn.self_s": total_self("mining.knn"),
        "mining.dbscan.self_s": total_self("mining.dbscan"),
        "mining.outliers.self_s": total_self("mining.outliers"),
        "cryptdb.rewrite.self_ms.p50": self_ms("cryptdb.rewrite"),
        "cryptdb.rewrite.self_ms.p99": self_ms("cryptdb.rewrite", 99),
        "cryptdb.stream.self_ms": self_ms("cryptdb.stream"),
        "mining.incremental.append.self_ms.p50": self_ms("mining.incremental.append"),
        "mining.incremental.append.self_ms.p90": self_ms("mining.incremental.append", 90),
        "crypto.integrity.tag.self_s": total_self("crypto.integrity.tag"),
        "crypto.integrity.verify.self_s": total_self("crypto.integrity.verify"),
        "trace.spans": float(len(tracer.spans)),
    }
    values.update(extra)
    return {name: float(values.get(name, 0.0)) for name, _ in PER_LAYER}
