"""The durable service core: write-ahead journal + crash recovery.

Everything the service would lose in a crash — which dags were
admitted, which certificates the (worst-case exponential) search
paid for, which entries the LRU spilled — is appended to a
**write-ahead journal** before the in-memory state is considered
authoritative, and replayed on boot so a restarted service converges
to its pre-crash state (ROADMAP item 1; the chaos harness
``tools/chaos_restart.py`` proves it with a live ``SIGKILL``).

Journal format (``journal.wal``)
--------------------------------

A 10-byte magic header (``REPROWAL1\\n``) followed by length-prefixed,
CRC32-checksummed records::

    [4B big-endian payload length][4B CRC32 of payload][payload JSON]

The payload is compact JSON with a monotonically increasing ``seq``
and a ``type`` of ``admitted`` (carries the dag wire format),
``certificate`` (carries the full schedule result, self-contained —
it can restore an entry even when the matching ``admitted`` record is
gone), or ``spilled``.  Appends are flushed to the OS on every write
(so a ``SIGKILL`` loses nothing) and ``fsync``'d per the configured
policy (so power loss is bounded):

``always``
    fsync after every append — zero-loss, slowest;
``interval`` (default)
    fsync at most once per ``fsync_interval`` seconds — bounded loss;
``never``
    never fsync — survives process kills, not power loss.

Snapshots and truncation
------------------------

Every ``snapshot_every`` appends (and on graceful close) the full
shadow state is written as an **atomic, fsync'd snapshot**
(``snapshot.json`` via :func:`repro.fsio.atomic_write_bytes`; the
prior snapshot is kept as ``snapshot.prev.json``) and the journal is
truncated.  A crash between snapshot and truncation merely replays
duplicates — every record applies idempotently.

A snapshot is one JSON object,
``{"version": 2, "seq": S, "crc32": C, "entries": E}``, where ``C``
is the CRC32 of ``S`` and of the exact bytes of ``E`` as written.
Every byte is covered: a flipped bit fails the JSON parse, the
version, the fixed prefix or the checksum.  (Without it, a flip inside
a string no replay check reads, such as a provenance fingerprint, was
served.)  Version-1 snapshots, which carry no checksum, are still read.

Recovery state machine (see ``docs/ROBUSTNESS.md``)
---------------------------------------------------

1. load ``snapshot.json``; on corruption (bad JSON, version or
   checksum) fall back to
   ``snapshot.prev.json``, then to an empty state (full journal
   replay) — corruption is *counted*, never raised;
2. scan the journal, stopping at the first bad length/checksum/JSON
   (a torn tail from a crash mid-append); the good prefix is kept,
   the tail is truncated off and counted;
3. apply surviving records with ``seq`` beyond the snapshot's,
   idempotently;
4. rebuild each entry: the dag from its wire format, the schedule
   re-validated by construction (an invalid order cannot build a
   :class:`~repro.core.schedule.Schedule`) and its journaled profile
   must match the replayed one — so a corrupt certificate is
   *discarded and counted*, never served;
5. restore into the :class:`~repro.service.registry.DagRegistry`
   keyed by the journaled content-addressed fingerprint, verifying
   it against the rebuilt dag's fingerprint.

Any disk error during normal operation **degrades** the manager to
in-memory mode (``healthy = False``; counted by
``service_durability_degraded_total``, captured by the flight
recorder) instead of failing requests: durability is a property the
service *reports* losing, never a reason to serve 500s.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field

from ..api import ScheduleResult
from ..core.dag import ComputationDag
from ..core.io import (
    dag_from_dict,
    dag_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from ..exceptions import ReproError
from ..fsio import atomic_write_bytes
from ..obs import global_registry

__all__ = [
    "DurabilityManager",
    "FSYNC_POLICIES",
    "JournalScan",
    "RecoveryReport",
    "result_from_dict",
    "result_to_dict",
    "scan_journal",
]

#: journal file magic: identifies the format and its version.
JOURNAL_MAGIC = b"REPROWAL1\n"
#: per-record header: payload length + CRC32, both big-endian u32.
_HEADER = struct.Struct(">II")
#: largest accepted record payload; a length prefix beyond this is
#: corruption, not a real record.
MAX_RECORD_BYTES = 16 * 1024 * 1024

#: accepted fsync policies, laxest-loss-bound last.
FSYNC_POLICIES = ("always", "interval", "never")

JOURNAL_FILE = "journal.wal"
SNAPSHOT_FILE = "snapshot.json"
SNAPSHOT_PREV_FILE = "snapshot.prev.json"
_SNAPSHOT_VERSION = 2
#: the unchecksummed snapshot format of earlier releases, still read.
_LEGACY_SNAPSHOT_VERSION = 1

_SNAPSHOT_SUFFIX = b"}\n"


def _snapshot_prefix(seq: int, crc) -> bytes:
    return (f'{{"version": {_SNAPSHOT_VERSION}, "seq": {seq}, '
            f'"crc32": {crc}, "entries": ').encode()


def _snapshot_crc(seq: int, entries: bytes) -> int:
    return zlib.crc32(entries, zlib.crc32(str(seq).encode())) & 0xFFFFFFFF


def _snapshot_bytes(seq: int, state: dict) -> bytes:
    """The snapshot file: a JSON object whose ``crc32`` covers ``seq``
    and the exact bytes of ``entries``."""
    entries = json.dumps(state, sort_keys=True).encode("utf-8")
    return (_snapshot_prefix(seq, _snapshot_crc(seq, entries))
            + entries + _SNAPSHOT_SUFFIX)


def _snapshot_intact(raw: bytes, seq: int, crc) -> bool:
    """Whether ``raw`` is byte for byte what :func:`_snapshot_bytes`
    writes for ``seq``, with a matching checksum ``crc``."""
    prefix = _snapshot_prefix(seq, crc)
    return raw.startswith(prefix) and raw.endswith(_SNAPSHOT_SUFFIX) \
        and _snapshot_crc(
            seq, raw[len(prefix):-len(_SNAPSHOT_SUFFIX)]) == crc


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def _m_appends():
    return global_registry().counter(
        "journal_appends_total",
        "write-ahead journal records appended", ("type",),
    )


def _m_fsyncs():
    return global_registry().counter(
        "journal_fsyncs_total", "write-ahead journal fsync calls",
    )


def _m_snapshots():
    return global_registry().counter(
        "journal_snapshots_total",
        "atomic snapshots written (each truncates the journal)",
    )


def _m_replay():
    return global_registry().counter(
        "journal_replay_records_total",
        "journal records processed during recovery, by outcome",
        ("outcome",),
    )


def _m_degraded():
    return global_registry().counter(
        "service_durability_degraded_total",
        "disk failures that degraded the service to in-memory mode",
    )


def _g_healthy():
    return global_registry().gauge(
        "durability_healthy",
        "1 while the journal is accepting appends, 0 once degraded",
    )


def _g_journal_bytes():
    return global_registry().gauge(
        "journal_size_bytes", "current write-ahead journal size",
    )


def _g_recovered():
    return global_registry().gauge(
        "registry_recovered_entries",
        "registry entries restored by the last replay-on-boot",
    )


def _g_recovery_seconds():
    return global_registry().gauge(
        "journal_recovery_seconds",
        "wall time of the last replay-on-boot recovery",
    )


# ----------------------------------------------------------------------
# schedule-result wire format
# ----------------------------------------------------------------------


def result_to_dict(result: ScheduleResult) -> dict:
    """A self-contained JSON encoding of a
    :class:`~repro.api.results.ScheduleResult` (the dag travels
    inside the bundled schedule)."""
    return {
        "certificate": result.certificate,
        "ic_optimal": bool(result.ic_optimal),
        "kind": result.kind,
        "strategy": result.strategy,
        "bounds": (list(result.bounds)
                   if result.bounds is not None else None),
        "provenance": [list(p) for p in result.provenance],
        "profile": list(result.profile),
        "schedule": schedule_to_dict(result.schedule),
    }


def result_from_dict(fingerprint: str, data: dict) -> ScheduleResult:
    """Rebuild — and *re-verify* — a journaled schedule result.

    The schedule order is replayed against the rebuilt dag
    (:class:`~repro.core.schedule.Schedule` construction validates
    every precedence arc) and the replayed eligibility profile must
    equal the journaled one; any mismatch raises, so recovery counts
    the record as corrupt instead of serving it.
    """
    sched = schedule_from_dict(data["schedule"])
    profile = data["profile"]
    if not isinstance(profile, list) or \
            list(sched.profile) != list(profile):
        raise ReproError(
            f"journaled profile does not match replayed schedule for "
            f"{fingerprint[:12]} (corrupt certificate)"
        )
    bounds = data.get("bounds")
    return ScheduleResult(
        fingerprint=fingerprint,
        certificate=str(data["certificate"]),
        ic_optimal=bool(data["ic_optimal"]),
        profile=tuple(profile),
        schedule=sched,
        kind=str(data.get("kind", "exact")),
        strategy=str(data.get("strategy", "auto")),
        bounds=tuple(bounds) if bounds is not None else None,
        provenance=tuple(
            tuple(p) for p in data.get("provenance", [])
        ),
    )


# ----------------------------------------------------------------------
# journal scan
# ----------------------------------------------------------------------


@dataclass
class JournalScan:
    """Outcome of one pass over a journal file."""

    #: records that decoded cleanly, in append order
    records: list = field(default_factory=list)
    #: bytes of the valid prefix (magic + clean records)
    good_bytes: int = 0
    #: bytes past the valid prefix (torn tail / corruption)
    torn_bytes: int = 0
    #: why the scan stopped early, ``None`` for a clean file
    stopped: str | None = None
    #: the file was missing entirely
    missing: bool = False


def scan_journal(path: str) -> JournalScan:
    """Scan a journal file tolerantly (see module doc, recovery
    step 2).  Never raises on corruption: the valid prefix is
    returned and everything after the first bad length, checksum, or
    JSON payload is reported as ``torn_bytes``."""
    scan = JournalScan()
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        scan.missing = True
        return scan
    except OSError:
        scan.stopped = "unreadable"
        return scan
    if not data:
        return scan
    off = 0
    if data.startswith(JOURNAL_MAGIC):
        off = len(JOURNAL_MAGIC)
    elif len(data) < len(JOURNAL_MAGIC) and \
            JOURNAL_MAGIC.startswith(data):
        # crash mid-header-write: an incomplete magic is a torn file
        scan.torn_bytes = len(data)
        scan.stopped = "torn-magic"
        return scan
    else:
        scan.torn_bytes = len(data)
        scan.stopped = "bad-magic"
        return scan
    while True:
        if off + _HEADER.size > len(data):
            if off < len(data):
                scan.stopped = "torn-header"
            break
        length, crc = _HEADER.unpack_from(data, off)
        if length == 0 or length > MAX_RECORD_BYTES:
            scan.stopped = "bad-length"
            break
        end = off + _HEADER.size + length
        if end > len(data):
            scan.stopped = "torn-payload"
            break
        payload = data[off + _HEADER.size:end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            scan.stopped = "bad-checksum"
            break
        try:
            record = json.loads(payload)
        except ValueError:
            scan.stopped = "bad-json"
            break
        if not isinstance(record, dict):
            scan.stopped = "bad-json"
            break
        scan.records.append(record)
        off = end
    scan.good_bytes = off
    scan.torn_bytes = len(data) - off
    return scan


# ----------------------------------------------------------------------
# recovery report
# ----------------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What replay-on-boot found, applied, and discarded."""

    #: registry entries restored (``registry_recovered_entries``)
    entries_restored: int = 0
    #: restored entries carrying a verified certificate
    certified_restored: int = 0
    #: journal records applied beyond the snapshot
    records_applied: int = 0
    #: records at or below the snapshot seq, or re-stating known facts
    records_duplicate: int = 0
    #: records or entries discarded as invalid/corrupt
    records_invalid: int = 0
    #: bytes of torn tail truncated off the journal
    torn_bytes_discarded: int = 0
    #: why the journal scan stopped, ``None`` when clean
    journal_stopped: str | None = None
    #: which snapshot generation seeded the state
    snapshot_used: str = "none"
    #: a snapshot file existed but failed to load/validate
    snapshot_corrupt: bool = False
    #: entries whose journaled fingerprint != the rebuilt dag's
    #: (served under the journaled key; labels were not wire-native)
    fingerprint_mismatches: int = 0
    #: wall-clock recovery time
    seconds: float = 0.0

    @property
    def anomalies(self) -> list[str]:
        """Human-readable recovery anomalies (empty = clean boot)."""
        out = []
        if self.snapshot_corrupt:
            out.append(f"corrupt snapshot (fell back to "
                       f"{self.snapshot_used})")
        if self.torn_bytes_discarded:
            out.append(
                f"torn journal tail: {self.torn_bytes_discarded} bytes "
                f"truncated ({self.journal_stopped})"
            )
        if self.records_invalid:
            out.append(f"{self.records_invalid} corrupt record(s) "
                       "discarded")
        return out

    def to_dict(self) -> dict:
        return {
            "entries_restored": self.entries_restored,
            "certified_restored": self.certified_restored,
            "records_applied": self.records_applied,
            "records_duplicate": self.records_duplicate,
            "records_invalid": self.records_invalid,
            "torn_bytes_discarded": self.torn_bytes_discarded,
            "journal_stopped": self.journal_stopped,
            "snapshot_used": self.snapshot_used,
            "snapshot_corrupt": self.snapshot_corrupt,
            "fingerprint_mismatches": self.fingerprint_mismatches,
            "seconds": round(self.seconds, 6),
            "anomalies": self.anomalies,
        }


# ----------------------------------------------------------------------
# the manager
# ----------------------------------------------------------------------


class DurabilityManager:
    """Write-ahead journal + snapshots + recovery for one data dir.

    Parameters
    ----------
    data_dir:
        Directory holding ``journal.wal`` and the snapshots; created
        if missing.
    fsync:
        One of :data:`FSYNC_POLICIES` (see module doc).
    fsync_interval:
        Seconds between fsyncs under the ``interval`` policy.
    snapshot_every:
        Appends between automatic snapshot+truncate cycles; ``0``
        disables automatic snapshots (graceful close still writes
        one).

    Thread-safe: appends serialize on one internal lock.  All disk
    failures degrade to in-memory mode (:attr:`healthy`) instead of
    raising into request handlers.
    """

    def __init__(self, data_dir: str, *, fsync: str = "interval",
                 fsync_interval: float = 0.1,
                 snapshot_every: int = 1024) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        self.data_dir = data_dir
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        self.snapshot_every = snapshot_every
        os.makedirs(data_dir, exist_ok=True)
        self.journal_path = os.path.join(data_dir, JOURNAL_FILE)
        self.snapshot_path = os.path.join(data_dir, SNAPSHOT_FILE)
        self.snapshot_prev_path = os.path.join(data_dir,
                                               SNAPSHOT_PREV_FILE)
        self.healthy = True
        self.last_error: str | None = None
        self._recovering = False
        self._lock = threading.RLock()
        self._fh = None
        self._seq = 0
        self._appends_since_snapshot = 0
        self._bytes = 0
        self._last_fsync = 0.0
        #: fp -> {"dag": wire dict | None, "result": wire dict | None}
        self._state: dict[str, dict] = {}
        _g_healthy().set(1)

    # -- shadow state --------------------------------------------------
    @staticmethod
    def _apply(state: dict, record: dict) -> str:
        """Apply one journal record to the shadow state, idempotently;
        returns ``"applied"``, ``"duplicate"``, or ``"invalid"``."""
        rtype = record.get("type")
        fp = record.get("fp")
        if not isinstance(fp, str) or not fp:
            return "invalid"
        if rtype == "admitted":
            dag = record.get("dag")
            if not isinstance(dag, dict):
                return "invalid"
            entry = state.setdefault(fp, {})
            known = entry.get("dag") is not None
            entry["dag"] = dag
            return "duplicate" if known else "applied"
        if rtype == "certificate":
            result = record.get("result")
            if not isinstance(result, dict):
                return "invalid"
            entry = state.setdefault(fp, {})
            known = entry.get("result") == result
            entry["result"] = result
            if entry.get("dag") is None and \
                    isinstance(result.get("schedule"), dict):
                entry["dag"] = result["schedule"].get("dag")
            return "duplicate" if known else "applied"
        if rtype == "spilled":
            if state.pop(fp, None) is None:
                return "duplicate"
            return "applied"
        return "invalid"

    # -- appends -------------------------------------------------------
    def record_admitted(self, fingerprint: str,
                        dag: ComputationDag) -> bool:
        """Journal a dag admission; False when suppressed/degraded."""
        return self._append({
            "type": "admitted", "fp": fingerprint,
            "dag": dag_to_dict(dag),
        })

    def record_certificate(self, fingerprint: str,
                           result: ScheduleResult) -> bool:
        """Journal a certified schedule (self-contained record)."""
        return self._append({
            "type": "certificate", "fp": fingerprint,
            "result": result_to_dict(result),
        })

    def record_spilled(self, fingerprint: str) -> bool:
        """Journal an LRU spill, so replay stays bounded too."""
        return self._append({"type": "spilled", "fp": fingerprint})

    def _append(self, record: dict) -> bool:
        with self._lock:
            if not self.healthy or self._recovering:
                return False
            try:
                self._seq += 1
                record = dict(record, seq=self._seq)
                payload = json.dumps(
                    record, sort_keys=True, separators=(",", ":")
                ).encode("utf-8")
                fh = self._ensure_open()
                fh.write(_HEADER.pack(
                    len(payload), zlib.crc32(payload) & 0xFFFFFFFF
                ))
                fh.write(payload)
                # flush to the OS on every append: a SIGKILL'd process
                # loses nothing, only power loss is at the mercy of
                # the fsync policy below
                fh.flush()
                self._maybe_fsync(fh)
            except (OSError, ValueError) as exc:
                # ValueError covers writes to a closed/invalid file
                # object — an I/O failure in everything but name
                self._degrade(exc)
                return False
            self._bytes += _HEADER.size + len(payload)
            _g_journal_bytes().set(self._bytes)
            _m_appends().labels(record["type"]).inc()
            self._apply(self._state, record)
            self._appends_since_snapshot += 1
            if self.snapshot_every and \
                    self._appends_since_snapshot >= self.snapshot_every:
                self.snapshot_now()
            return True

    def _ensure_open(self):
        if self._fh is None:
            fresh = not os.path.exists(self.journal_path) or \
                os.path.getsize(self.journal_path) == 0
            self._fh = open(self.journal_path, "ab")
            if fresh:
                self._fh.write(JOURNAL_MAGIC)
                self._fh.flush()
                self._bytes = len(JOURNAL_MAGIC)
            else:
                self._bytes = os.path.getsize(self.journal_path)
        return self._fh

    def _maybe_fsync(self, fh) -> None:
        if self.fsync == "never":
            return
        now = time.monotonic()
        if self.fsync == "interval" and \
                now - self._last_fsync < self.fsync_interval:
            return
        os.fsync(fh.fileno())
        self._last_fsync = now
        _m_fsyncs().inc()

    def flush(self) -> None:
        """Flush and fsync the journal regardless of policy (the
        graceful-drain path)."""
        with self._lock:
            if not self.healthy or self._fh is None:
                return
            try:
                self._fh.flush()
                os.fsync(self._fh.fileno())
                _m_fsyncs().inc()
            except (OSError, ValueError) as exc:
                self._degrade(exc)

    # -- snapshots -----------------------------------------------------
    def snapshot_now(self) -> bool:
        """Write an atomic snapshot of the shadow state and truncate
        the journal; the prior snapshot is kept one generation back.
        Returns False when degraded."""
        with self._lock:
            if not self.healthy or self._recovering:
                return False
            try:
                if os.path.exists(self.snapshot_path):
                    os.replace(self.snapshot_path,
                               self.snapshot_prev_path)
                atomic_write_bytes(
                    self.snapshot_path,
                    _snapshot_bytes(self._seq, self._state),
                )
                # the snapshot is durable; the journal's records are
                # now redundant — truncate.  A crash landing between
                # the two replays duplicates, which apply idempotently.
                if self._fh is not None:
                    self._fh.close()
                    self._fh = None
                with open(self.journal_path, "wb") as fh:
                    fh.write(JOURNAL_MAGIC)
                    fh.flush()
                    os.fsync(fh.fileno())
                self._bytes = len(JOURNAL_MAGIC)
            except OSError as exc:
                self._degrade(exc)
                return False
            self._appends_since_snapshot = 0
            _m_snapshots().inc()
            _g_journal_bytes().set(self._bytes)
            return True

    # -- recovery ------------------------------------------------------
    def recover(self, registry=None, *,
                truncate: bool = True) -> RecoveryReport:
        """Replay snapshot + journal into ``registry`` (a
        :class:`~repro.service.registry.DagRegistry`; ``None``
        rebuilds the shadow state only, e.g. ``repro journal
        compact``).  ``truncate=False`` leaves a torn tail on disk
        untouched (the read-only ``repro journal verify`` path).
        Never raises on corrupt input — see the module doc's
        recovery state machine."""
        t0 = time.perf_counter()
        report = RecoveryReport()
        with self._lock:
            self._recovering = True
            try:
                state, snap_seq = self._load_snapshots(report)
                scan = scan_journal(self.journal_path)
                report.journal_stopped = scan.stopped
                report.torn_bytes_discarded = scan.torn_bytes
                max_seq = snap_seq
                for record in scan.records:
                    seq = record.get("seq")
                    if not isinstance(seq, int):
                        report.records_invalid += 1
                        _m_replay().labels("invalid").inc()
                        continue
                    max_seq = max(max_seq, seq)
                    if seq <= snap_seq:
                        report.records_duplicate += 1
                        _m_replay().labels("duplicate").inc()
                        continue
                    outcome = self._apply(state, record)
                    setattr(report, f"records_{outcome}",
                            getattr(report, f"records_{outcome}") + 1)
                    _m_replay().labels(outcome).inc()
                self._restore_entries(state, registry, report)
                # truncate the torn tail so future appends extend a
                # clean prefix instead of burying records after junk
                if truncate and scan.torn_bytes and not scan.missing:
                    try:
                        os.truncate(self.journal_path, scan.good_bytes)
                    except OSError as exc:
                        self._degrade(exc)
                self._state = state
                self._seq = max_seq
                self._appends_since_snapshot = 0
                self._bytes = (scan.good_bytes
                               or len(JOURNAL_MAGIC))
            finally:
                self._recovering = False
        report.seconds = time.perf_counter() - t0
        _g_recovered().set(report.entries_restored)
        _g_recovery_seconds().set(report.seconds)
        _g_journal_bytes().set(self._bytes)
        if report.anomalies:
            from ..obs.flightrecorder import global_flight_recorder
            global_flight_recorder().trigger(
                "recovery",
                detail="; ".join(report.anomalies),
            )
        return report

    def _load_snapshots(self, report: RecoveryReport) -> tuple[dict, int]:
        """Recovery step 1: newest loadable snapshot generation."""
        for path, label in ((self.snapshot_path, "current"),
                            (self.snapshot_prev_path, "previous")):
            exists = os.path.exists(path)
            if not exists:
                continue
            loaded = self._read_snapshot(path)
            if loaded is None:
                report.snapshot_corrupt = True
                continue
            report.snapshot_used = label
            return loaded
        return {}, 0

    @staticmethod
    def _read_snapshot(path: str) -> tuple[dict, int] | None:
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
            data = json.loads(raw)
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict):
            return None
        entries = data.get("entries")
        seq = data.get("seq")
        if not isinstance(entries, dict) or not isinstance(seq, int):
            return None
        version = data.get("version")
        if version == _SNAPSHOT_VERSION:
            if not _snapshot_intact(raw, seq, data.get("crc32")):
                return None
        elif version != _LEGACY_SNAPSHOT_VERSION:
            return None
        state = {
            fp: dict(entry)
            for fp, entry in entries.items()
            if isinstance(fp, str) and isinstance(entry, dict)
        }
        return state, seq

    def _restore_entries(self, state: dict, registry,
                         report: RecoveryReport) -> None:
        """Recovery steps 4-5: rebuild, verify, restore."""
        corrupt = []
        for fp, entry in state.items():
            try:
                result = None
                if entry.get("result") is not None:
                    result = result_from_dict(fp, entry["result"])
                dag = None
                if entry.get("dag") is not None:
                    dag = dag_from_dict(entry["dag"])
                elif result is not None:
                    dag = result.schedule.dag
                if dag is None:
                    raise ReproError("entry carries neither dag nor "
                                     "certificate")
                if dag.fingerprint() != fp:
                    # intact record (CRC passed) whose original labels
                    # were not wire-native; serve under the journaled
                    # key clients actually hold
                    report.fingerprint_mismatches += 1
            except Exception:
                report.records_invalid += 1
                _m_replay().labels("invalid").inc()
                corrupt.append(fp)
                continue
            if registry is not None:
                registry.restore_entry(fp, dag, result)
            report.entries_restored += 1
            if result is not None:
                report.certified_restored += 1
        for fp in corrupt:
            state.pop(fp, None)

    # -- failure + lifecycle -------------------------------------------
    def _degrade(self, exc: BaseException) -> None:
        self.healthy = False
        self.last_error = f"{type(exc).__name__}: {exc}"
        _m_degraded().inc()
        _g_healthy().set(0)
        try:
            if self._fh is not None:
                self._fh.close()
        except OSError:
            pass
        self._fh = None
        from ..obs.flightrecorder import global_flight_recorder
        global_flight_recorder().trigger(
            "durability",
            detail=f"journal degraded to in-memory mode: "
                   f"{self.last_error}",
        )

    def close(self) -> None:
        """Graceful shutdown: snapshot (fast next boot) + flush +
        fsync + close.  Safe to call repeatedly or degraded."""
        with self._lock:
            if self.healthy:
                self.snapshot_now()
                self.flush()
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None

    # -- introspection -------------------------------------------------
    def stats(self) -> dict:
        """A JSON-able summary for ``/stats`` and ``repro journal
        stat``."""
        with self._lock:
            snap_bytes = 0
            try:
                snap_bytes = os.path.getsize(self.snapshot_path)
            except OSError:
                pass
            return {
                "data_dir": self.data_dir,
                "fsync": self.fsync,
                "healthy": self.healthy,
                "last_error": self.last_error,
                "seq": self._seq,
                "entries": len(self._state),
                "certified": sum(
                    1 for e in self._state.values()
                    if e.get("result") is not None
                ),
                "journal_bytes": self._bytes,
                "snapshot_bytes": snap_bytes,
                "appends_since_snapshot": self._appends_since_snapshot,
                "snapshot_every": self.snapshot_every,
            }
