"""The CryptDB-style proxy and its batched sessions.

The proxy sits between the data owner and the (untrusted) service provider:

1. :meth:`CryptDBProxy.encrypt_database` produces the encrypted database that
   is shipped to the provider (columns are batch-encrypted column-wise),
   together with the schema map the owner keeps.
2. :meth:`CryptDBProxy.session` opens a :class:`ProxySession`: one rewriter
   plus one execution backend, so a whole workload is rewritten and executed
   in a single pass (``session.run(queries)``) with onion-state and exposure
   tracking threaded through.  Sessions choose their engine by backend name
   (see :mod:`repro.db.backend`): ``"memory"`` for the interpreter oracle,
   ``"sqlite"`` for workload-scale execution.
3. :meth:`CryptDBProxy.decrypt_result` maps an encrypted result back to
   plaintext values (done by the owner, or — for the paper's result-distance
   measure — *not* done at all: the provider computes Jaccard distances
   directly on the encrypted result tuples).

The single-query methods (:meth:`CryptDBProxy.encrypt_query`,
:meth:`CryptDBProxy.execute_encrypted`, :meth:`CryptDBProxy.execute`) remain
as thin wrappers over a cached default session.

The proxy also exposes :meth:`exposure_report`, which lists the encryption
class every column is exposed at after serving a workload; experiment S1
compares this against the class assignment of the paper's KIT-DPE schemes.
"""

from __future__ import annotations

import threading
import warnings
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.crypto.det import DeterministicScheme
from repro.crypto.hom import (
    NoiseRefillHandle,
    PaillierCiphertext,
    PaillierKeyPair,
    PaillierScheme,
)
from repro.crypto.integrity import ChainCheckpoint, ColumnAuthenticator, ColumnManifest
from repro.crypto.keys import KeyChain
from repro.crypto.ope import OrderPreservingScheme
from repro.crypto.prob import ProbabilisticScheme
from repro.crypto.taxonomy import SECURITY_LEVELS, EncryptionTaxonomy, default_taxonomy
from repro.cryptdb.column import (
    ColumnEncryption,
    EncryptedColumn,
    EncryptedSchemaMap,
    EncryptedTable,
    normalize_equality_value,
)
from repro.cryptdb.onion import Onion
from repro.cryptdb.rewriter import ConstantPolicy, QueryRewriter
from repro.db.aggregates import register_custom_aggregate
from repro.db.backend import DEFAULT_BACKEND, ExecutionBackend, create_backend
from repro.db.database import Database
from repro.db.executor import QueryExecutor, ResultSet
from repro.db.schema import Column, ColumnType, TableSchema
from repro.db.table import Table
from repro.exceptions import CryptDbError, IntegrityError, RewriteError
from repro.sql.ast import AggregateCall, ColumnRef, Literal, Query, SelectItem, Star, TableRef
from repro.sql.render import render_query

#: OPE domain used for (scaled) numeric columns.
_OPE_DOMAIN = (-(2**40), 2**40 - 1)
#: Fixed-point scale for REAL columns (two decimal digits).
_REAL_SCALE = 100


@runtime_checkable
class StreamSink(Protocol):
    """Anything that accepts appended batches of (encrypted) queries.

    The structural contract of :meth:`ProxySession.stream`'s ``into``
    parameter: an append-only receiver of query batches.  Both
    :class:`~repro.mining.incremental.StreamingQueryLog` and
    :class:`~repro.mining.incremental.IncrementalDistanceMatrix` satisfy it,
    so a session can stream rewritten queries either into a raw log or
    directly into an incrementally maintained mining matrix.  Keeping the
    protocol structural (rather than importing a mining class) preserves the
    layering: the proxy has no mining dependency.
    """

    def append(self, items: Iterable[Query]) -> object:
        """Accept one appended batch of queries."""
        ...


@runtime_checkable
class SessionDeadline(Protocol):
    """The structural deadline contract of the session execution paths.

    Anything with a ``check()`` that raises past its budget —
    :class:`repro.reliability.Deadline` in practice.  Sessions call it
    *between* queries (cooperative cancellation: an in-flight query is
    never preempted).  Structural for the same layering reason as
    :class:`StreamSink`: the proxy has no reliability dependency.
    """

    def check(self, context: str = "") -> None:
        """Raise when the deadline's budget is exhausted."""
        ...


def _warn_deprecated(old: str, replacement: str) -> None:
    """Emit the shim :class:`DeprecationWarning` pointing at ``repro.api``."""
    warnings.warn(
        f"{old} is deprecated; use {replacement} (see repro.api)",
        DeprecationWarning,
        stacklevel=3,
    )


@dataclass(frozen=True)
class JoinGroupSpec:
    """Columns that must share DET/OPE keys so they remain joinable."""

    name: str
    members: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class _ColumnIntegrity:
    """Owner-side integrity record for one physical (encrypted) column."""

    plain_table: str
    plain_column: str
    onion: Onion
    authenticator: ColumnAuthenticator
    manifest: ColumnManifest


def _resolve_chain_sink(sink: object) -> object | None:
    """Find the hash-chained log behind a stream sink, if there is one.

    A :class:`~repro.mining.incremental.StreamingQueryLog` carries the chain
    itself; an :class:`~repro.mining.incremental.IncrementalDistanceMatrix`
    forwards appends to its ``stream``, an
    :class:`~repro.mining.approx.window.ApproxStreamMiner` to its
    ``window_log``.  The lookup stays structural
    (``checkpoint``/``verify_chain`` attributes) so the proxy keeps its
    no-mining-dependency layering.
    """
    for candidate in (sink, getattr(sink, "stream", None), getattr(sink, "window_log", None)):
        if (
            candidate is not None
            and hasattr(candidate, "checkpoint")
            and hasattr(candidate, "verify_chain")
        ):
            return candidate
    return None


@dataclass(frozen=True)
class EncryptedResult:
    """An encrypted result set together with the query that produced it."""

    plain_query: Query
    encrypted_query: Query
    result: ResultSet

    @property
    def encrypted_sql(self) -> str:
        """The encrypted query as SQL text (what the provider sees)."""
        return render_query(self.encrypted_query)


class ProxySession:
    """A batched proxy session: one rewriter, one execution backend.

    A session amortizes everything that is per-workload rather than
    per-query: the rewriter (whose onion adjustments accumulate across the
    workload), the execution backend (for SQLite, the one-time bulk load of
    the encrypted store), and the skip bookkeeping for queries outside the
    executable fragment.  ``session.run(queries)`` serves a whole workload in
    one pass; :attr:`adjustments` and :meth:`exposure_report` expose what the
    provider learned from serving it.

    Sessions are thread-safe: an internal re-entrant lock serializes the
    rewrite/execute/stream paths, so concurrent server threads sharing one
    tenant session observe the same rewriter adjustments, skip bookkeeping
    and backend state a single-threaded caller would.  (Cross-session
    parallelism is where multi-tenant throughput comes from; the lock only
    keeps a *shared* session from corrupting its per-workload state.)

    Sessions are context managers; closing releases the backend's engine
    resources.
    """

    def __init__(
        self,
        proxy: "CryptDBProxy",
        *,
        backend: str | None = None,
        on_unsupported: str = "raise",
        backend_wrapper: Callable[[ExecutionBackend], ExecutionBackend] | None = None,
    ) -> None:
        """Open a session over ``proxy``'s encrypted database.

        ``on_unsupported`` controls what happens to queries the rewriter
        rejects: ``"raise"`` propagates the :class:`RewriteError`, ``"skip"``
        records the query under :attr:`skipped` and carries on — the CryptDB
        behaviour of falling back to client-side evaluation.

        ``backend_wrapper`` (when given) wraps the freshly created backend
        before first use — the hook the reliability layer uses to apply a
        retrying wrapper without this module depending on it.
        """
        if on_unsupported not in ("raise", "skip"):
            raise CryptDbError(
                f"on_unsupported must be 'raise' or 'skip', got {on_unsupported!r}"
            )
        self._proxy = proxy
        self._on_unsupported = on_unsupported
        self._rewriter = proxy.make_rewriter()
        self._backend = create_backend(
            backend if backend is not None else proxy.backend_name,
            proxy.encrypted_database,
        )
        if backend_wrapper is not None:
            self._backend = backend_wrapper(self._backend)
        self._skipped: list[tuple[Query, str]] = []
        # Re-entrant so execute() -> rewrite() nests; serializes the
        # rewriter, skip list and backend against concurrent callers.
        self._lock = threading.RLock()
        self._pending_refill: NoiseRefillHandle | None = None
        self._storage_verified = False
        self._last_checkpoint: ChainCheckpoint | None = None

    # -- introspection -------------------------------------------------- #

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend serving this session."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Registry name of the session's backend."""
        return self._backend.name

    @property
    def adjustments(self) -> tuple[tuple[str, str, Onion, object], ...]:
        """Onion adjustments performed while rewriting this session's workload."""
        return tuple(self._rewriter.adjustments)

    @property
    def skipped(self) -> tuple[tuple[Query, str], ...]:
        """Queries skipped as unsupported, with the rewriter's reason."""
        return tuple(self._skipped)

    def exposure_report(self) -> dict[tuple[str, str], dict[str, object]]:
        """Per-column exposure after the workload served so far (all sessions)."""
        return self._proxy.exposure_report()

    def crypto_stats(self) -> dict[str, object]:
        """Fast-path statistics of the proxy's crypto layer (pool + caches)."""
        return self._proxy.crypto_stats()

    # -- execution ------------------------------------------------------ #

    @property
    def last_refill(self) -> NoiseRefillHandle | None:
        """Handle of the most recent background noise-pool refill, if any.

        Tests join it for determinism; :meth:`stream` checks it at the start
        of the next batch so a refill failure surfaces on the caller's thread.
        """
        with self._lock:
            return self._pending_refill

    def rewrite(self, query: Query) -> Query | None:
        """Rewrite one query; returns None for skipped unsupported queries."""
        with self._lock:
            try:
                return self._rewriter.rewrite(query)
            except RewriteError as error:
                if self._on_unsupported == "skip":
                    self._skipped.append((query, str(error)))
                    return None
                raise

    def execute(self, query: Query) -> EncryptedResult | None:
        """Rewrite and execute one plaintext query on the session backend."""
        with self._lock:
            self._ensure_storage_verified()
            encrypted_query = self.rewrite(query)
            if encrypted_query is None:
                return None
            return EncryptedResult(
                query, encrypted_query, self._backend.execute(encrypted_query)
            )

    def execute_encrypted(self, encrypted_query: Query) -> ResultSet:
        """Execute an already-rewritten query on the session backend."""
        with self._lock:
            self._ensure_storage_verified()
            return self._backend.execute(encrypted_query)

    def run(
        self, queries: Iterable[Query], *, deadline: SessionDeadline | None = None
    ) -> list[EncryptedResult]:
        """Serve a whole workload: rewrite and execute every query in order.

        Skipped queries (with ``on_unsupported="skip"``) are recorded under
        :attr:`skipped` and omitted from the returned results.  The whole
        workload runs under the session lock, so two threads running
        workloads on one session serve them in some serial order rather
        than interleaved per query.

        ``deadline`` (any :class:`SessionDeadline`) is checked before each
        query: cooperative cancellation between queries, never preemption of
        one in flight.
        """
        with self._lock:
            results: list[EncryptedResult] = []
            for query in queries:
                if deadline is not None:
                    deadline.check("run")
                result = self.execute(query)
                if result is not None:
                    results.append(result)
            return results

    def stream(
        self,
        queries: Iterable[Query],
        *,
        into: StreamSink,
        deadline: SessionDeadline | None = None,
    ) -> list[Query]:
        """Rewrite a batch and append the encrypted queries to a stream sink.

        ``into`` is any :class:`StreamSink` — typically a
        :class:`~repro.mining.incremental.StreamingQueryLog` feeding an
        :class:`~repro.mining.incremental.IncrementalDistanceMatrix` (or the
        incremental matrix itself, which forwards to its stream), so each
        streamed batch immediately extends the provider-side mining artefacts
        by the new pairs only.  The protocol is structural, keeping the proxy
        layer free of a mining dependency.  Queries the rewriter rejects
        follow the session's ``on_unsupported`` policy; the appended batch
        contains only the rewritten queries, which are also returned.

        Between batches the session refills the Paillier noise pool in a
        background thread (:meth:`~repro.crypto.hom.PaillierNoisePool.refill_async`).
        If the *previous* batch's refill died with an exception, this call
        re-raises it before doing any work — background failures surface on
        the streaming thread instead of being swallowed by the daemon
        thread.  The running handle is available as :attr:`last_refill` for
        deterministic ``join(timeout=...)`` in tests.

        ``deadline`` is checked before each query's rewrite and once more
        before the batch enters the sink, so an expired budget never
        half-publishes a batch: either the whole batch is appended or none
        of it is.
        """
        with self._lock:
            if self._pending_refill is not None and not self._pending_refill.is_alive():
                finished, self._pending_refill = self._pending_refill, None
                finished.raise_if_failed()
            encrypted: list[Query] = []
            for query in queries:
                if deadline is not None:
                    deadline.check("stream")
                rewritten = self.rewrite(query)
                if rewritten is not None:
                    encrypted.append(rewritten)
            if deadline is not None:
                deadline.check("stream")
            into.append(encrypted)
            if self._proxy.authenticate:
                # Commit to the sink's chain state after every appended
                # batch: a later verify_stream() detects a provider that
                # rolled the log back past this point.
                chained = _resolve_chain_sink(into)
                if chained is not None:
                    self._last_checkpoint = chained.checkpoint(self._proxy.checkpoint_key)
            # Regenerate Paillier blinding factors while the provider side
            # mines the appended batch, so the next batch's HOM constants
            # encrypt from a warm pool (one multiplication each).
            self._pending_refill = self._proxy.paillier_scheme.noise_pool.refill_async()
            return encrypted

    # -- integrity ------------------------------------------------------ #

    @property
    def last_checkpoint(self) -> ChainCheckpoint | None:
        """Signed chain checkpoint of the most recent streamed batch, if any."""
        with self._lock:
            return self._last_checkpoint

    def _ensure_storage_verified(self) -> None:
        """Run the one-time lazy storage audit when authentication is on."""
        if (
            self._proxy.authenticate
            and self._proxy.auto_verify
            and not self._storage_verified
        ):
            self.verify_storage()

    def verify_storage(self) -> int:
        """Audit every encrypted table as stored by this session's backend.

        Reads each table back through the backend itself (``SELECT *`` over
        the encrypted store) and checks every cell against the owner-side
        manifest's row-bound tags, so flipped bytes, swapped rows, replayed
        stale snapshots, and inserted/deleted rows are all detected
        regardless of which engine holds the data.  Returns the number of
        cells checked; raises :class:`~repro.exceptions.IntegrityError` on
        the first mismatch.  With ``auto_verify`` the audit runs lazily once
        per session before the first query; call this directly to re-audit
        at any later point.
        """
        with self._lock:
            checked = self._proxy.verify_backend_storage(self._backend)
            self._storage_verified = True
            return checked

    def verify_stream(self, into: StreamSink) -> ChainCheckpoint:
        """Verify a stream sink's log against the last signed checkpoint.

        Raises :class:`~repro.exceptions.IntegrityError` when the sink's log
        is not an exact prefix-extension of the state committed by the most
        recent streamed batch (a rolled-back or mutated provider log), and
        :class:`CryptDbError` when there is nothing to verify against.
        Returns the checkpoint that was verified.
        """
        with self._lock:
            if not self._proxy.authenticate:
                raise CryptDbError("stream verification requires authenticate=True")
            if self._last_checkpoint is None:
                raise CryptDbError("no streamed batch to verify: stream() first")
            chained = _resolve_chain_sink(into)
            if chained is None:
                raise CryptDbError(
                    f"stream sink {type(into).__name__} carries no hash chain"
                )
            chained.verify_chain(self._last_checkpoint, self._proxy.checkpoint_key)
            return self._last_checkpoint

    def close(self) -> None:
        """Release the backend's engine resources."""
        with self._lock:
            self._backend.close()

    def __enter__(self) -> "ProxySession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class CryptDBProxy:
    """Encrypts databases and queries, executes over ciphertexts, decrypts results."""

    def __init__(
        self,
        keychain: KeyChain,
        *,
        join_groups: Iterable[JoinGroupSpec] = (),
        paillier_keypair: PaillierKeyPair | None = None,
        paillier_bits: int = 512,
        paillier_pool_size: int = PaillierScheme.DEFAULT_POOL_SIZE,
        constant_policy: ConstantPolicy | None = None,
        taxonomy: EncryptionTaxonomy | None = None,
        shared_det_key: bool = False,
        backend: str = DEFAULT_BACKEND,
        authenticate: bool = False,
        auto_verify: bool = True,
    ) -> None:
        """Create a proxy.

        ``shared_det_key`` makes every column's EQ onion (and equality
        constants) use one shared DET key instead of per-column keys.  CryptDB
        itself uses per-column keys; the result-distance DPE scheme needs the
        shared key because Definition 1 compares result tuples *across*
        queries, so values that are equal as SQL values must encrypt equally
        regardless of which column they came from.  The trade-off (equality
        leakage across columns) is documented in DESIGN.md.

        ``backend`` names the default execution backend (see
        :mod:`repro.db.backend`) used by sessions that do not choose their
        own, and by the proxy's single-query convenience methods.

        ``paillier_pool_size`` sizes the HOM scheme's precomputed
        blinding-factor pool (see
        :class:`~repro.crypto.hom.PaillierNoisePool`); streaming sessions
        refill it in the background between batches.

        ``authenticate`` turns on the integrity layer: every
        :meth:`encrypt_database` builds an owner-side manifest of detached
        MACs (see :mod:`repro.crypto.integrity`) over all stored
        ciphertexts, result cells are checked on the decrypt path, sessions
        audit their backend's storage, and streamed batches are committed by
        signed hash-chain checkpoints.  The stored ciphertexts themselves
        are unchanged, so authenticated runs on honest providers are
        bit-for-bit identical to unauthenticated ones.  ``auto_verify``
        (default on) makes each session run its storage audit lazily once
        before its first query; turn it off to audit only on explicit
        :meth:`ProxySession.verify_storage` calls.
        """
        self._keychain = keychain
        self._join_groups = {group.name: group for group in join_groups}
        self._shared_det_key = shared_det_key
        self._taxonomy = taxonomy or default_taxonomy()
        self._constant_policy = constant_policy
        self._backend_name = backend
        self._relation_scheme = DeterministicScheme(keychain.relation_key())
        self._attribute_scheme = DeterministicScheme(keychain.attribute_key())
        self._paillier = PaillierScheme(
            paillier_keypair or PaillierKeyPair.generate(paillier_bits),
            pool_size=paillier_pool_size,
        )
        self._schema_map: EncryptedSchemaMap | None = None
        self._encrypted_db: Database | None = None
        self._plain_db: Database | None = None
        self._default_session: ProxySession | None = None
        # Guards the lazily created default session (check-then-create).
        self._session_lock = threading.Lock()
        self._authenticate = authenticate
        self._auto_verify = auto_verify
        # plain table name -> physical column name -> integrity record.
        self._integrity: dict[str, dict[str, _ColumnIntegrity]] = {}
        self._snapshot_version = 0
        self._integrity_counters: dict[tuple[str, str], dict[str, int]] = {}
        self._integrity_lock = threading.Lock()
        register_custom_aggregate("HOMSUM", self._homsum)

    # ------------------------------------------------------------------ #
    # database encryption

    @property
    def schema_map(self) -> EncryptedSchemaMap:
        """The schema map (available after :meth:`encrypt_database`)."""
        if self._schema_map is None:
            raise CryptDbError("encrypt_database() has not been called yet")
        return self._schema_map

    @property
    def encrypted_database(self) -> Database:
        """The encrypted database (available after :meth:`encrypt_database`)."""
        if self._encrypted_db is None:
            raise CryptDbError("encrypt_database() has not been called yet")
        return self._encrypted_db

    def encrypt_database(self, database: Database) -> Database:
        """Encrypt ``database`` and return the encrypted copy.

        Every table keeps its shape; per column the encrypted table carries
        one physical column per onion (EQ always; ORD and HOM for numeric
        columns).  Encryption runs *column-wise* through the schemes' batch
        hooks (:meth:`~repro.crypto.base.EncryptionScheme.encrypt_many`), so
        deterministic schemes pay for each distinct value once per column.
        NULLs remain NULL — like CryptDB, the layer leaks which cells are
        NULL, which none of the distance measures depends on.
        """
        schema_map = EncryptedSchemaMap()
        encrypted_db = Database(f"{database.name}_encrypted")
        self._snapshot_version += 1
        integrity: dict[str, dict[str, _ColumnIntegrity]] = {}

        for table in database:
            encrypted_table = self._encrypt_table_schema(table.schema)
            schema_map.add_table(encrypted_table)
            physical_schema = self._physical_schema(table.schema, encrypted_table)
            physical = encrypted_db.create_table(physical_schema)
            columns = self._encrypt_table_columns(table, encrypted_table)
            names = physical_schema.column_names
            physical.insert_many(
                {name: columns[name][index] for name in names} for index in range(len(table))
            )
            if self._authenticate:
                integrity[table.name] = self._build_table_manifest(
                    encrypted_table, columns
                )

        self._schema_map = schema_map
        self._encrypted_db = encrypted_db
        self._plain_db = database
        self._integrity = integrity
        with self._integrity_lock:
            self._integrity_counters = {}
        self._invalidate_default_session()
        return encrypted_db

    def _build_table_manifest(
        self, mapping: EncryptedTable, columns: dict[str, list[object]]
    ) -> dict[str, _ColumnIntegrity]:
        """Build owner-side detached MACs for every physical column of a table.

        Tags bind each stored cell to its row index and the current snapshot
        version, so a provider replaying an earlier snapshot (whose HOM
        blinding differs) or swapping rows fails the audit.  MAC keys are
        derived per (table, column, onion) through the keychain.
        """
        records: dict[str, _ColumnIntegrity] = {}
        for column in mapping.columns.values():
            for onion in column.onions:
                physical_name = column.physical_name(onion)
                authenticator = ColumnAuthenticator(
                    self._keychain.key_for(
                        "integrity", column.plain_table, column.plain_name, onion.value
                    )
                )
                records[physical_name] = _ColumnIntegrity(
                    plain_table=column.plain_table,
                    plain_column=column.plain_name,
                    onion=onion,
                    authenticator=authenticator,
                    manifest=authenticator.manifest(
                        columns[physical_name], self._snapshot_version
                    ),
                )
        return records

    def _join_group_for(self, table: str, column: str) -> JoinGroupSpec | None:
        for group in self._join_groups.values():
            if (table, column) in group.members:
                return group
        return None

    def _column_key_paths(
        self, table: str, column_name: str
    ) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
        """The keychain paths of one column's (det, ope, prob) keys."""
        group = self._join_group_for(table, column_name)
        if self._shared_det_key:
            det_path: tuple[str, ...] = ("shared-eq-onion",)
            ope_path: tuple[str, ...] = ("constants", table, column_name, "ope")
        elif group is not None:
            det_path = ("join-group", group.name)
            ope_path = ("join-group", group.name, "ope")
        else:
            det_path = ("constants", table, column_name, "det")
            ope_path = ("constants", table, column_name, "ope")
        return det_path, ope_path, ("constants", table, column_name, "prob")

    def _column_encryption(self, table: str, column: Column) -> ColumnEncryption:
        det_key, ope_key, prob_key = self._keychain.keys_for(
            self._column_key_paths(table, column.name)
        )
        det = DeterministicScheme(det_key)
        prob = ProbabilisticScheme(prob_key)
        ope = None
        hom = None
        scale = 1
        if column.type.is_numeric:
            scale = _REAL_SCALE if column.type is ColumnType.REAL else 1
            ope = OrderPreservingScheme(
                ope_key, domain_min=_OPE_DOMAIN[0], domain_max=_OPE_DOMAIN[1]
            )
            hom = self._paillier
        return ColumnEncryption(det=det, prob=prob, ope=ope, hom=hom, numeric_scale=scale)

    def _encrypt_table_schema(self, schema: TableSchema) -> EncryptedTable:
        encrypted_name = self._relation_scheme.encrypt_identifier(schema.name)
        encrypted_table = EncryptedTable(schema.name, encrypted_name)
        # Warm the keychain cache with every per-column key up front; the
        # per-column loop below then only does cache lookups.
        self._keychain.keys_for(
            path
            for column in schema.columns
            for path in self._column_key_paths(schema.name, column.name)
        )
        for column in schema.columns:
            onions: tuple[Onion, ...] = (Onion.EQ,)
            if column.type.is_numeric:
                onions = (Onion.EQ, Onion.ORD, Onion.HOM)
            encrypted_column = EncryptedColumn(
                plain_table=schema.name,
                plain_name=column.name,
                encrypted_name=self._attribute_scheme.encrypt_identifier(column.name),
                column_type=column.type,
                onions=onions,
                encryption=self._column_encryption(schema.name, column),
            )
            encrypted_table.columns[column.name] = encrypted_column
        return encrypted_table

    def _physical_schema(self, schema: TableSchema, mapping: EncryptedTable) -> TableSchema:
        columns: list[Column] = []
        for column in schema.columns:
            encrypted = mapping.column(column.name)
            columns.append(Column(encrypted.physical_name(Onion.EQ), ColumnType.TEXT))
            if encrypted.has_onion(Onion.ORD):
                columns.append(Column(encrypted.physical_name(Onion.ORD), ColumnType.INTEGER))
            if encrypted.has_onion(Onion.HOM):
                columns.append(Column(encrypted.physical_name(Onion.HOM), ColumnType.INTEGER))
        return TableSchema(mapping.encrypted_name, columns)

    def _encrypt_table_columns(
        self, table: Table, mapping: EncryptedTable
    ) -> dict[str, list[object]]:
        """Encrypt one table column-wise: physical column name -> cell values."""
        columns: dict[str, list[object]] = {}
        for column in table.schema.columns:
            encrypted = mapping.column(column.name)
            values = table.column_values(column.name)
            det = encrypted.encryption.det
            columns[encrypted.physical_name(Onion.EQ)] = _encrypt_column(
                values,
                lambda batch: det.encrypt_many(
                    [normalize_equality_value(value) for value in batch]  # type: ignore[list-item]
                ),
            )
            if encrypted.has_onion(Onion.ORD):
                ope = encrypted.encryption.ope
                columns[encrypted.physical_name(Onion.ORD)] = _encrypt_column(
                    values,
                    lambda batch: ope.encrypt_many(  # type: ignore[union-attr]
                        [encrypted.encode_numeric(value) for value in batch]
                    ),
                )
            if encrypted.has_onion(Onion.HOM):
                columns[encrypted.physical_name(Onion.HOM)] = _encrypt_column(
                    values,
                    lambda batch: [
                        ciphertext.value for ciphertext in self._paillier.encrypt_many(batch)  # type: ignore[arg-type]
                    ],
                )
        return columns

    # ------------------------------------------------------------------ #
    # query processing

    @property
    def backend_name(self) -> str:
        """Name of the default execution backend for this proxy's sessions."""
        return self._backend_name

    def make_rewriter(self, *, projection_onion: Onion = Onion.EQ) -> QueryRewriter:
        """Create a fresh rewriter bound to the current schema map."""
        return QueryRewriter(
            self.schema_map,
            self._relation_scheme,
            constant_policy=self._constant_policy,
            projection_onion=projection_onion,
        )

    def session(
        self,
        *,
        backend: str | None = None,
        on_unsupported: str = "raise",
        backend_wrapper: Callable[[ExecutionBackend], ExecutionBackend] | None = None,
    ) -> ProxySession:
        """Open a batched :class:`ProxySession` over the encrypted database."""
        return ProxySession(
            self,
            backend=backend,
            on_unsupported=on_unsupported,
            backend_wrapper=backend_wrapper,
        )

    def _invalidate_default_session(self) -> None:
        with self._session_lock:
            if self._default_session is not None:
                self._default_session.close()
                self._default_session = None

    def _session(self) -> ProxySession:
        """The cached default session backing the single-query methods."""
        with self._session_lock:
            if self._default_session is None:
                self._default_session = self.session()
            return self._default_session

    def encrypt_query(self, query: Query) -> Query:
        """Rewrite a plaintext query (deprecated single-query entry point).

        .. deprecated::
            Use :meth:`session` /
            :class:`repro.api.EncryptedMiningService` instead; the batched
            paths amortize the rewriter across a workload.  This shim is
            bit-for-bit equivalent (one fresh rewriter per call).
        """
        _warn_deprecated(
            "CryptDBProxy.encrypt_query()",
            "CryptDBProxy.session() or EncryptedMiningService.run_workload()",
        )
        return self.rewrite_query(query)

    def rewrite_query(self, query: Query) -> Query:
        """Rewrite one query with a fresh rewriter (the single-rewrite primitive).

        The warning-free building block the deprecated :meth:`encrypt_query`
        shim and internal callers (e.g. the result-distance DPE scheme)
        share; workloads should prefer a :meth:`session`, which amortizes
        one rewriter across every query.
        """
        return self.make_rewriter().rewrite(query)

    def execute_encrypted(self, encrypted_query: Query) -> ResultSet:
        """Execute an already-rewritten query (deprecated single-query entry point).

        .. deprecated::
            Use :meth:`session` /
            :class:`repro.api.EncryptedMiningService` instead.  This shim
            delegates to the proxy's cached default session.
        """
        _warn_deprecated(
            "CryptDBProxy.execute_encrypted()",
            "ProxySession.execute_encrypted() or EncryptedMiningService.open_session()",
        )
        return self._session().execute_encrypted(encrypted_query)

    def execute(self, query: Query) -> EncryptedResult:
        """Rewrite and execute one query (deprecated single-query entry point).

        .. deprecated::
            Use :meth:`session` /
            :class:`repro.api.EncryptedMiningService` instead.  This shim
            delegates to the proxy's cached default session and returns the
            same :class:`EncryptedResult` the batched path produces.
        """
        _warn_deprecated(
            "CryptDBProxy.execute()",
            "ProxySession.execute() or EncryptedMiningService.run_workload()",
        )
        encrypted_query = self.rewrite_query(query)
        result = self._session().execute_encrypted(encrypted_query)
        return EncryptedResult(query, encrypted_query, result)

    def execute_plain(self, query: Query) -> ResultSet:
        """Execute ``query`` over the plaintext database (owner-side reference)."""
        if self._plain_db is None:
            raise CryptDbError("encrypt_database() has not been called yet")
        return QueryExecutor(self._plain_db).execute(query)

    def decrypt_result(self, encrypted: EncryptedResult) -> ResultSet:
        """Decrypt an encrypted result back to plaintext values.

        Result columns are mapped positionally to the select items of the
        plaintext query: DET ciphertexts from projections are decrypted with
        the owning column's DET scheme, COUNT values pass through, MIN/MAX
        come back through OPE, and HOMSUM values are Paillier-decrypted.
        """
        plain_query = encrypted.plain_query
        bindings = {ref.binding_name: ref.name for ref in plain_query.tables()}
        decrypted_rows: list[tuple[object, ...]] = []
        columns = tuple(_plain_column_name(item, idx) for idx, item in enumerate(plain_query.select_items))
        for row in encrypted.result.rows:
            decrypted_rows.append(
                tuple(
                    self._decrypt_cell(value, item.expression, bindings)
                    for value, item in zip(row, plain_query.select_items)
                )
            )
        return ResultSet(columns, tuple(decrypted_rows))

    def _decrypt_cell(self, value: object, expression, bindings: dict[str, str]) -> object:
        if value is None:
            return None
        if isinstance(expression, ColumnRef):
            column = self._resolve_plain_column(expression, bindings)
            self._verify_result_cell(column, Onion.EQ, value)
            plain = column.encryption.det.decrypt(value)
            # The EQ onion folds integral floats to int (normalize_equality_value).
            if (
                column.column_type is ColumnType.REAL
                and isinstance(plain, int)
                and not isinstance(plain, bool)
            ):
                return float(plain)
            return plain
        if isinstance(expression, AggregateCall):
            if isinstance(expression.argument, ColumnRef):
                column = self._resolve_plain_column(expression.argument, bindings)
            else:
                column = None
            if expression.function == "COUNT":
                return value
            if expression.function in ("MIN", "MAX"):
                if column is None or column.encryption.ope is None:
                    raise CryptDbError("cannot decrypt MIN/MAX result without an ORD onion")
                self._verify_result_cell(column, Onion.ORD, value)
                plain = column.encryption.ope.decrypt(value)  # type: ignore[arg-type]
                return _unscale(plain, column.encryption.numeric_scale)
            if expression.function in ("SUM", "AVG"):
                ciphertext = PaillierCiphertext(value, self._paillier.public_key)  # type: ignore[arg-type]
                return self._paillier.decode_sum(ciphertext)
            raise CryptDbError(f"cannot decrypt aggregate {expression.function}")
        if isinstance(expression, Literal):
            return expression.value
        raise CryptDbError(f"cannot decrypt result column for {type(expression).__name__}")

    def _resolve_plain_column(self, ref: ColumnRef, bindings: dict[str, str]) -> EncryptedColumn:
        if ref.table is not None:
            table = bindings.get(ref.table, ref.table)
            return self.schema_map.column(table, ref.name)
        return self.schema_map.find_column(ref.name, tuple(bindings.values()))

    # ------------------------------------------------------------------ #
    # aggregation plumbing and reporting

    def _homsum(self, values: list[object]) -> object:
        """Custom aggregate: homomorphic sum of stored Paillier ciphertext values."""
        if not values:
            return None
        n_squared = self._paillier.public_key.n_squared
        product = 1
        for value in values:
            if not isinstance(value, int):
                raise RewriteError(f"HOMSUM expects Paillier ciphertext integers, got {value!r}")
            product = (product * value) % n_squared
        return product

    @property
    def paillier_scheme(self) -> PaillierScheme:
        """The proxy's shared HOM (Paillier) scheme instance."""
        return self._paillier

    # ------------------------------------------------------------------ #
    # integrity: detached-MAC verification and log checkpoints

    @property
    def authenticate(self) -> bool:
        """Whether the integrity layer (detached MACs + log chain) is on."""
        return self._authenticate

    @property
    def auto_verify(self) -> bool:
        """Whether sessions lazily audit their backend before the first query."""
        return self._auto_verify

    @property
    def snapshot_version(self) -> int:
        """Monotonic counter of :meth:`encrypt_database` snapshots."""
        return self._snapshot_version

    @property
    def checkpoint_key(self) -> bytes:
        """The owner's HMAC key for signing log-chain checkpoints."""
        return self._keychain.key_for("integrity", "checkpoint")

    def _count_integrity(
        self, table: str, column: str, *, verified: int = 0, tampered: int = 0
    ) -> None:
        with self._integrity_lock:
            entry = self._integrity_counters.setdefault(
                (table, column), {"cells_verified": 0, "tamper_detected": 0}
            )
            entry["cells_verified"] += verified
            entry["tamper_detected"] += tampered

    def integrity_counters(self) -> dict[tuple[str, str], dict[str, int]]:
        """Per-column integrity counters: cells verified and tampers detected."""
        with self._integrity_lock:
            return {key: dict(entry) for key, entry in self._integrity_counters.items()}

    def _verify_result_cell(self, column: EncryptedColumn, onion: Onion, value: object) -> None:
        """Check one decrypted result cell against the column's tag set.

        Result cells carry no row identity, so membership in the column's
        position-independent value-tag set is the strongest available check:
        it catches flipped bytes and values replayed from a different
        snapshot in O(1) per cell.  Row swaps (legitimate values in wrong
        positions) are the storage audit's job.
        """
        if not self._authenticate:
            return
        record = self._integrity.get(column.plain_table, {}).get(
            column.physical_name(onion)
        )
        if record is None:
            return
        tag = record.authenticator.value_tag(value)  # type: ignore[arg-type]
        if tag in record.manifest.value_tags:
            self._count_integrity(column.plain_table, column.plain_name, verified=1)
            return
        self._count_integrity(column.plain_table, column.plain_name, tampered=1)
        raise IntegrityError(
            f"result cell failed authentication for {column.plain_table}."
            f"{column.plain_name} ({onion.value} onion): "
            "ciphertext is not among the values the owner stored"
        )

    def verify_backend_storage(self, backend: ExecutionBackend) -> int:
        """Audit every encrypted table as served by ``backend``.

        Reads each table back through ``backend.execute`` (a ``SELECT *``
        built directly on the AST, so the audit path is identical for the
        interpreter and SQLite engines) and recomputes every cell's
        row-bound tag against the owner-side manifest.  Detects flipped
        ciphertext bytes, swapped rows, replayed stale snapshots and
        inserted/deleted rows; raises
        :class:`~repro.exceptions.IntegrityError` on the first mismatch and
        returns the number of cells checked otherwise.
        """
        if not self._authenticate:
            raise CryptDbError("storage verification requires authenticate=True")
        checked = 0
        for plain_table, records in self._integrity.items():
            encrypted_name = self.schema_map.table(plain_table).encrypted_name
            audit_query = Query(
                select_items=(SelectItem(Star()),),
                from_table=TableRef(encrypted_name),
            )
            result = backend.execute(audit_query)
            expected_rows = len(next(iter(records.values())).manifest.row_tags) if records else 0
            if len(result.rows) != expected_rows:
                raise IntegrityError(
                    f"table {plain_table!r} failed authentication: backend holds "
                    f"{len(result.rows)} rows, the owner stored {expected_rows}"
                )
            for physical_name, record in records.items():
                column_index = result.columns.index(physical_name)
                manifest = record.manifest
                authenticator = record.authenticator
                for row_index, row in enumerate(result.rows):
                    tag = authenticator.row_tag(
                        row_index, manifest.version, row[column_index]  # type: ignore[arg-type]
                    )
                    if tag != manifest.row_tags[row_index]:
                        self._count_integrity(
                            record.plain_table, record.plain_column, tampered=1
                        )
                        raise IntegrityError(
                            f"stored cell failed authentication: "
                            f"{record.plain_table}.{record.plain_column} "
                            f"({record.onion.value} onion), row {row_index} — "
                            "flipped, swapped or replayed by the provider"
                        )
                checked += len(result.rows)
                self._count_integrity(
                    record.plain_table, record.plain_column, verified=len(result.rows)
                )
        return checked

    def crypto_stats(self) -> dict[str, object]:
        """Aggregate fast-path statistics of the crypto layer.

        Returns the Paillier noise-pool counters plus the OPE descent-node
        cache totals summed over every ORD-capable column of the encrypted
        schema — the numbers that show whether the batch/precompute fast
        paths actually carried the workload.
        """
        stats: dict[str, object] = {"paillier": self._paillier.fast_path_stats()}
        ope_totals = {"nodes": 0, "hits": 0, "misses": 0}
        columns = 0
        if self._schema_map is not None:
            for column in self._schema_map.all_columns():
                ope = column.encryption.ope
                if ope is None:
                    continue
                columns += 1
                cache = ope.cache_stats()
                for key in ope_totals:
                    ope_totals[key] += int(cache[key])
        lookups = ope_totals["hits"] + ope_totals["misses"]
        stats["ope"] = {
            "columns": columns,
            **ope_totals,
            "hit_rate": ope_totals["hits"] / lookups if lookups else 0.0,
        }
        return stats

    def exposure_report(self) -> dict[tuple[str, str], dict[str, object]]:
        """Per-column exposure after serving the workload rewritten so far.

        Returns a mapping ``(table, column) -> {"onions": {onion: layer},
        "weakest_class": EncryptionClass, "security_level": int,
        "cells_verified": int, "tamper_detected": int}`` describing what the
        service provider can see for each column, plus the integrity layer's
        per-column counters (both zero when ``authenticate`` is off).
        """
        from repro.crypto.taxonomy import REVEALED_CAPABILITIES

        counters = self.integrity_counters()
        report: dict[tuple[str, str], dict[str, object]] = {}
        for column in self.schema_map.all_columns():
            exposed = column.state.exposed_classes()
            # The weakest exposure is the representation revealing the most:
            # lowest Figure 1 level first, largest revealed-capability set as
            # the tie-break (HOM reveals more than PROB on the same level).
            weakest = max(
                exposed,
                key=lambda c: (-SECURITY_LEVELS[c], len(REVEALED_CAPABILITIES[c]), c.value),
            )
            counter = counters.get(
                (column.plain_table, column.plain_name),
                {"cells_verified": 0, "tamper_detected": 0},
            )
            report[(column.plain_table, column.plain_name)] = {
                "onions": {
                    onion.value: layer.value for onion, layer in column.state.onions.items()
                },
                "weakest_class": weakest,
                "security_level": SECURITY_LEVELS[weakest],
                "cells_verified": counter["cells_verified"],
                "tamper_detected": counter["tamper_detected"],
            }
        return report


def _encrypt_column(
    values: Sequence[object], transform: Callable[[list[object]], list[object]]
) -> list[object]:
    """Batch-encrypt one column's cells, passing NULLs through untouched."""
    present = [index for index, value in enumerate(values) if value is not None]
    encrypted = transform([values[index] for index in present])
    cells: list[object] = [None] * len(values)
    for index, ciphertext in zip(present, encrypted):
        cells[index] = ciphertext
    return cells


def _plain_column_name(item, index: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expression, ColumnRef):
        return item.expression.name
    from repro.sql.render import render_expression

    return render_expression(item.expression)


def _unscale(value: int, scale: int) -> int | float:
    if scale == 1:
        return value
    return value / scale
