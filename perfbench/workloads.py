"""The workloads of the owner -> provider benchmark.

Each workload builds its inputs from the seed alone, drives the program
through ``repro.api`` and checks every output against an oracle computed
in the same run (see :mod:`oracles`).  Why each workload exists, how it
was sized, and which planned workloads are held back, is in ``NOTES.md``
next to this file.

A workload returns an :class:`Outcome`.  Its end-to-end figures always come
from untraced work.  With a :class:`~tracing.Tracer`, the workload
alternates untraced units of work with traced ones (every layer probe
installed); the per-layer metrics come from the traced units only, and the
gap between the two is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import random
import statistics
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.api import (
    ApiError,
    BackendConfig,
    CryptoConfig,
    EncryptedMiningService,
    MiningConfig,
    QueryLogGenerator,
    ServiceConfig,
    TokenDpeScheme,
    WorkloadMix,
    populate_database,
    render_query,
    webshop_profile,
)

import layers
from oracles import Verdicts, mining_mismatch
from tracing import Tracer, traced

now = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """Input sizes; :data:`FULL` is what the benchmark runs."""

    setup_repeats: int = 5
    min_units: int = 3
    log_size: int = 2000
    stream_size: int = 1000
    stream_batch: int = 20
    stream_templates: int = 64


FULL = Sizes()

#: Mining parameters of both workloads.  ``eps=0.3, min_points=5`` gives
#: non-degenerate clusters on the token measure (the default ``eps=0.5``
#: puts the whole log in one cluster), and ``p=0.4, d=0.8`` flags a few
#: percent of the log as DB(p, D)-outliers (the default flags none), so
#: every artefact the oracle compares is non-trivial.
MINING = {
    "dbscan_eps": 0.3,
    "dbscan_min_points": 5,
    "outlier_p": 0.4,
    "outlier_d": 0.8,
    "knn_k": 3,
}

#: Rows (customers, orders, products) of the database stream_mining's
#: service encrypts before streaming; the streamed queries run against its
#: schema, so only the set-up time depends on its size.
STREAM_DB_ROWS = (40, 80, 20)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    verdicts: Verdicts
    setup_s: list[float]
    throughput_per_s: float
    #: Latency samples in milliseconds (one per mining pass or per append).
    latencies_ms: list[float]
    record: dict[str, object] = field(default_factory=dict)
    #: Per-layer metrics the workload reads from the program (traced runs).
    layer: dict[str, float] | None = None
    #: Units of work done with the probes installed.
    traced_units: int = 1


def _repeated_setup(build, repeats: int):
    """Build ``repeats`` times; keep the last state and every build time."""
    state, times = None, []
    for _ in range(repeats):
        start = now()
        state = build()
        times.append(now() - start)
    return state, times


def _run_units(unit, *, seconds: float, min_units: int, tracer):
    """Call ``unit`` until ``seconds`` have passed and return what each call returned.

    Untraced, every unit counts.  Traced, units alternate between untraced
    and traced, so warm-up and machine drift fall on both sides alike; the
    two lists of results are returned separately, and each traced unit's
    spans carry the unit's index as request id.
    """
    deadline = now() + seconds
    plain: list = []
    with_probes: list = []
    if tracer is None:
        while len(plain) < min_units or now() < deadline:
            plain.append(unit())
        return plain, with_probes
    while len(with_probes) < (min_units + 1) // 2 or now() < deadline:
        plain.append(unit())
        tracer.set_request(len(with_probes))
        with traced(tracer, layers.probes()):
            with_probes.append(unit())
    return plain, with_probes


def _failure(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def _reliability(services) -> dict[str, float]:
    totals = {"reliability.retries": 0.0, "reliability.gave_up": 0.0}
    for service in services:
        snapshot = service.reliability_stats.snapshot()
        totals["reliability.retries"] += snapshot["retries"]
        totals["reliability.gave_up"] += snapshot["gave_up"]
    return totals


def _overhead(untraced: float, traced_value: float) -> dict[str, float]:
    return {
        "trace.overhead_s": traced_value - untraced,
        "trace.overhead_ratio": (traced_value - untraced) / untraced,
    }


def _digest(*parts: object) -> str:
    """A short fingerprint of the generated inputs (differs between seeds)."""
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()[:16]


def tail_ms(values_ms: list[float]) -> float:
    """p90 when at least ten samples lie beyond it, else the slowest sample."""
    if len(values_ms) < 100:
        return float(max(values_ms))
    return float(np.percentile(values_ms, 90))


def _duplicate_share(queries) -> float:
    return 1.0 - len({render_query(query) for query in queries}) / len(queries)


# --------------------------------------------------------------------------- #
# log_mining


def log_mining(seed: int, seconds: float, tracer: Tracer | None, sizes: Sizes = FULL) -> Outcome:
    """Owner encrypts a mostly-distinct log; provider mines it exactly."""
    verdicts = Verdicts()
    profile = webshop_profile()

    def build():
        log = QueryLogGenerator(profile, WorkloadMix(), seed=f"log/{seed}").generate(sizes.log_size)
        service = EncryptedMiningService(
            ServiceConfig(
                crypto=CryptoConfig(passphrase=f"perfbench/log/{seed}"),
                mining=MiningConfig(workers=1, **MINING),
            )
        )
        return SimpleNamespace(log=log, service=service)

    state, setup_times = _repeated_setup(build, sizes.setup_repeats)
    service = state.service
    expected = service.mine(state.log)  # the plaintext log's artefacts

    def mine() -> float:
        start = now()
        encrypted = TokenDpeScheme(service.keychain).encrypt_log(state.log)
        result = service.mine(encrypted)
        elapsed = now() - start
        verdicts.check(mining_mismatch(expected, result))
        return elapsed

    plain_times, traced_times = _run_units(
        mine, seconds=seconds, min_units=sizes.min_units, tracer=tracer
    )
    median = statistics.median(plain_times)
    outcome = Outcome(
        verdicts,
        setup_times,
        throughput_per_s=sizes.log_size / median,
        latencies_ms=[value * 1e3 for value in plain_times],
        record={
            "input_digest": _digest([render_query(query) for query in state.log.queries]),
            "log_size": sizes.log_size,
            "duplicate_share": _duplicate_share(state.log.queries),
            "clusters": expected.n_clusters,
            "noise_points": sum(1 for label in expected.labels if label == -1),
            "outliers": len(expected.outlier_indices),
            "mine_s": median,
            "mine_runs_s": plain_times,
        },
    )
    if tracer is not None:
        outcome.layer = {
            **_reliability([service]),
            **_overhead(median, statistics.median(traced_times)),
        }
        outcome.traced_units = len(traced_times)
    return outcome


# --------------------------------------------------------------------------- #
# stream_mining


class _IncrementalView:
    """The incremental miner's artefacts in the shape the oracle compares."""

    def __init__(self, miner) -> None:
        self.labels = miner.dbscan().labels
        self.outlier_indices = miner.outliers().outliers
        self.knn = miner.knn_all()
        self.matrix = miner.condensed()


def stream_mining(seed: int, seconds: float, tracer: Tracer | None, sizes: Sizes = FULL) -> Outcome:
    """Stream a duplicate-heavy log into the incremental miner, then mine it approx."""
    verdicts = Verdicts()
    customers, orders, products = STREAM_DB_ROWS
    profile = webshop_profile(
        customer_rows=customers, order_rows=orders, product_rows=products
    )

    def build():
        plain = populate_database(profile, seed=f"stream/{seed}")
        service = EncryptedMiningService(
            ServiceConfig(
                crypto=CryptoConfig(passphrase=f"perfbench/stream/{seed}", authenticate=True),
                backend=BackendConfig(name="sqlite"),
                mining=MiningConfig(**MINING),
            ),
            join_groups=profile.join_groups(),
        )
        service.encrypt(plain)
        # Provider-side approx mining needs its own MiningConfig, hence its
        # own service; its keys are never used.
        approx = EncryptedMiningService(
            ServiceConfig(
                crypto=CryptoConfig(paillier_bits=256),
                mining=MiningConfig(approx=True, **MINING),
            )
        )
        return SimpleNamespace(service=service, approx=approx)

    def draws(index: int) -> list:
        """The log of pass ``index``: seeded draws from its own templates."""
        templates = QueryLogGenerator(
            profile, WorkloadMix(), seed=f"stream/{seed}/{index}"
        ).generate(sizes.stream_templates).queries
        rng = random.Random(f"stream/{seed}/{index}")
        return [rng.choice(templates) for _ in range(sizes.stream_size)]

    state, setup_times = _repeated_setup(build, sizes.setup_repeats)
    service, n, batch = state.service, sizes.stream_size, sizes.stream_batch
    passes_started = itertools.count()
    latest = {}
    pause = tracer.pause if tracer is not None else contextlib.nullcontext

    def stream_pass():
        """Stream a fresh log into a fresh miner and check it.

        Every pass streams its own log (see NOTES.md: the cost of a pass
        depends on its templates, and a median over many template sets
        depends little on the seed).  Returns the pass's total streaming
        time and each batch's append time; only the latest log, miner and
        oracle are kept, so memory does not grow with the number of passes.
        The oracle, an exact batch mine over the streamed log, runs untimed
        and untraced.
        """
        queries = draws(next(passes_started))
        miner = service.incremental_miner()
        append_times = []
        with service.open_session() as session:
            start = now()
            for offset in range(0, n, batch):
                begin = now()
                session.stream(queries[offset : offset + batch], into=miner)
                append_times.append(now() - begin)
            total = now() - start
            try:
                checkpoint = session.verify_stream(miner)
                verdicts.check(
                    None
                    if checkpoint.length == n
                    else f"checkpoint covers {checkpoint.length} of {n} streamed queries"
                )
            except ApiError as error:
                verdicts.check(_failure(error))
        with pause():
            exact = service.mine(miner.stream)
            verdicts.check(mining_mismatch(exact, _IncrementalView(miner)))
        latest.update(queries=queries, miner=miner, exact=exact)
        return total, append_times

    def approx_mines():
        times, stats = [], None
        for _ in range(sizes.min_units):
            start = now()
            result = state.approx.mine(latest["miner"].stream)
            times.append(now() - start)
            stats = result.candidate_stats
            problem = mining_mismatch(latest["exact"], result, compare_matrix=False)
            if problem is None and not stats.certified_complete:
                problem = "approx mining did not certify an exact result"
            verdicts.check(problem)
        return times, stats

    # The first pass of a fresh process is the slowest (most likely
    # first-touch page faults of the growing matrix), a cost a long-running
    # service pays once: it is checked like every pass but not timed.
    warm = stream_pass()
    first_log = latest["queries"]
    passes, traced_passes = _run_units(
        stream_pass, seconds=seconds, min_units=sizes.min_units, tracer=tracer
    )
    approx_times, stats = approx_mines()
    append_ms = [value * 1e3 for one in passes for value in one[1]]
    pass_s = statistics.median(one[0] for one in passes)
    outcome = Outcome(
        verdicts,
        setup_times,
        throughput_per_s=n / pass_s,
        latencies_ms=append_ms,
        record={
            "input_digest": _digest([render_query(query) for query in first_log]),
            "stream_size": n,
            "passes": len(passes),
            "batches": len(append_ms),
            "warm_pass_s": warm[0],
            "pass_s": [one[0] for one in passes],
            "duplicate_share": _duplicate_share(first_log),
            "ingest_qps": n / pass_s,
            "append_p50_ms": float(np.percentile(append_ms, 50)),
            "append_p90_ms": float(np.percentile(append_ms, 90)),
            "mine_s": statistics.median(approx_times),
            "approx_groups": stats.n_groups,
        },
    )
    if tracer is not None:
        with traced(tracer, layers.probes()):
            t_approx, t_stats = approx_mines()
        self_times = tracer.self_times()
        pairs = n * (n - 1) / 2
        outcome.layer = {
            "mining.incremental.new_pairs": latest["miner"].pairs_computed,
            # Every other *.self_s is per stream pass; the index is per approx mine.
            "mining.approx.index.self_s": sum(self_times.get("mining.approx.index", ()))
            / len(t_approx),
            "mining.approx.mine_s": statistics.median(t_approx),
            "mining.approx.evaluated_ratio": t_stats.exact_distances / pairs,
            "mining.approx.groups_ratio": t_stats.n_groups / t_stats.n_items,
            "mining.approx.certified_complete": 1.0 if t_stats.certified_complete else 0.0,
            **_reliability([service, state.approx]),
            **_overhead(pass_s, statistics.median(one[0] for one in traced_passes)),
        }
        outcome.traced_units = len(traced_passes)
    return outcome


WORKLOADS = {
    "log_mining": log_mining,
    "stream_mining": stream_mining,
}
