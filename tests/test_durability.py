"""Tests for the durable service core (``repro.service.durability``).

Covers the journal wire format (length-prefix + CRC32, torn-tail
tolerance), the snapshot/truncate/recover state machine (including
corrupt-snapshot fallback to the previous generation and duplicate
idempotency), degradation to in-memory mode on disk failure, the
readiness gate during replay, the ``repro journal`` CLI verbs, the
``repro serve`` signal/bind exit codes, and the shared helper
satellites (``repro.fsio.atomic_write_json``, ``repro.retry``).
"""

import json
import os
import struct
import threading
import urllib.request
import zlib

import pytest

import repro.api as api
from repro.cli import main as cli_main
from repro.core.io import dag_from_dict, dag_to_dict, schedule_to_dict
from repro.families.mesh import out_mesh_chain
from repro.obs import MetricsRegistry, set_global_registry
from repro.obs.exposition import snapshot_series, snapshot_value
from repro.service import (
    DagRegistry,
    DurabilityManager,
    SchedulingService,
    scan_journal,
)
from repro.service.durability import (
    JOURNAL_MAGIC,
    SNAPSHOT_FILE,
    result_from_dict,
    result_to_dict,
)


@pytest.fixture
def registry():
    """A fresh process-wide metrics registry, restored afterwards."""
    fresh = MetricsRegistry()
    old = set_global_registry(fresh)
    yield fresh
    set_global_registry(old)


def wire_dag(depth=3):
    """A wire-native dag (int labels, like every service submission)."""
    return dag_from_dict(dag_to_dict(out_mesh_chain(depth).dag))


def certify(dag):
    return api.schedule(dag)


# ----------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------


class TestResultWire:
    def test_round_trip_preserves_everything(self, registry):
        dag = wire_dag()
        res = certify(dag)
        back = result_from_dict(res.fingerprint, result_to_dict(res))
        assert back.fingerprint == res.fingerprint
        assert back.certificate == res.certificate
        assert back.ic_optimal == res.ic_optimal
        assert back.profile == res.profile
        assert back.kind == res.kind
        assert back.strategy == res.strategy
        assert back.bounds == res.bounds
        assert back.provenance == res.provenance
        assert tuple(back.schedule.profile) == tuple(
            res.schedule.profile)

    def test_serialization_is_byte_stable(self, registry):
        # to -> from -> to must be identical: the crash harness
        # asserts served payloads match across restarts
        dag = out_mesh_chain(3).dag  # exotic labels on purpose
        res = certify(dag)
        wire = schedule_to_dict(res.schedule)
        rebuilt = result_from_dict(dag.fingerprint(),
                                   result_to_dict(res))
        assert schedule_to_dict(rebuilt.schedule) == wire

    def test_profile_mismatch_rejected(self, registry):
        dag = wire_dag()
        res = certify(dag)
        data = result_to_dict(res)
        data["profile"] = [99] * len(data["profile"])
        with pytest.raises(Exception):
            result_from_dict(res.fingerprint, data)

    def test_invalid_order_rejected(self, registry):
        dag = wire_dag()
        res = certify(dag)
        data = result_to_dict(res)
        data["schedule"]["order"] = list(
            reversed(data["schedule"]["order"])
        )
        with pytest.raises(Exception):
            result_from_dict(res.fingerprint, data)


# ----------------------------------------------------------------------
# journal scan
# ----------------------------------------------------------------------


class TestScan:
    def _journal(self, tmp_path, records):
        path = tmp_path / "journal.wal"
        with open(path, "wb") as fh:
            fh.write(JOURNAL_MAGIC)
            for rec in records:
                payload = json.dumps(rec).encode()
                fh.write(struct.pack(
                    ">II", len(payload), zlib.crc32(payload)
                ))
                fh.write(payload)
        return str(path)

    def test_clean_scan(self, tmp_path):
        path = self._journal(tmp_path, [{"seq": 1}, {"seq": 2}])
        scan = scan_journal(path)
        assert [r["seq"] for r in scan.records] == [1, 2]
        assert scan.torn_bytes == 0 and scan.stopped is None

    def test_missing_file(self, tmp_path):
        scan = scan_journal(str(tmp_path / "absent.wal"))
        assert scan.missing and not scan.records

    def test_torn_tail_keeps_prefix(self, tmp_path):
        path = self._journal(tmp_path, [{"seq": 1}, {"seq": 2}])
        size = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00\x00\x20partial")  # torn mid-payload
        scan = scan_journal(path)
        assert [r["seq"] for r in scan.records] == [1, 2]
        assert scan.good_bytes == size
        assert scan.torn_bytes > 0
        assert scan.stopped == "torn-payload"

    def test_bad_checksum_stops_scan(self, tmp_path):
        path = self._journal(tmp_path, [{"seq": 1}, {"seq": 2}])
        with open(path, "r+b") as fh:
            data = bytearray(fh.read())
            data[-3] ^= 0xFF  # flip inside the last payload
            fh.seek(0)
            fh.write(data)
        scan = scan_journal(path)
        assert [r["seq"] for r in scan.records] == [1]
        assert scan.stopped == "bad-checksum"

    def test_bad_magic_discards_everything(self, tmp_path):
        path = tmp_path / "journal.wal"
        path.write_bytes(b"NOTAWALFILE" + b"x" * 50)
        scan = scan_journal(str(path))
        assert not scan.records and scan.stopped == "bad-magic"


# ----------------------------------------------------------------------
# manager: append / snapshot / recover
# ----------------------------------------------------------------------


class TestManager:
    def test_kill_style_recovery_without_snapshot(self, registry,
                                                  tmp_path):
        dag = wire_dag()
        res = certify(dag)
        mgr = DurabilityManager(str(tmp_path), fsync="never",
                                snapshot_every=0)
        assert mgr.record_admitted(res.fingerprint, dag)
        assert mgr.record_certificate(res.fingerprint, res)
        # no close(): simulate SIGKILL (flush happened per append)
        reg = DagRegistry()
        report = DurabilityManager(str(tmp_path),
                                   fsync="never").recover(reg)
        assert report.entries_restored == 1
        assert report.certified_restored == 1
        assert report.snapshot_used == "none"
        entry = reg.get(res.fingerprint)
        assert entry is not None
        assert entry.schedule.certificate == res.certificate
        assert entry.hits == 1  # volatile: restarted at 0, +1 this get

    def test_snapshot_truncates_and_recovers(self, registry, tmp_path):
        dag = wire_dag()
        res = certify(dag)
        mgr = DurabilityManager(str(tmp_path), fsync="never")
        mgr.record_admitted(res.fingerprint, dag)
        mgr.record_certificate(res.fingerprint, res)
        assert mgr.snapshot_now()
        assert os.path.getsize(mgr.journal_path) == len(JOURNAL_MAGIC)
        report = DurabilityManager(str(tmp_path),
                                   fsync="never").recover(DagRegistry())
        assert report.snapshot_used == "current"
        assert report.entries_restored == 1
        assert report.records_applied == 0  # all state in the snapshot

    def test_seq_continues_after_snapshot(self, registry, tmp_path):
        dag = wire_dag()
        mgr = DurabilityManager(str(tmp_path), fsync="never")
        mgr.record_admitted(dag.fingerprint(), dag)
        mgr.snapshot_now()
        mgr.record_spilled(dag.fingerprint())
        scan = scan_journal(mgr.journal_path)
        snap = json.load(open(mgr.snapshot_path))
        assert scan.records[0]["seq"] > snap["seq"]

    def test_corrupt_snapshot_falls_back_to_prev(self, registry,
                                                 tmp_path):
        dag = wire_dag()
        res = certify(dag)
        mgr = DurabilityManager(str(tmp_path), fsync="never")
        mgr.record_admitted(res.fingerprint, dag)
        mgr.record_certificate(res.fingerprint, res)
        mgr.snapshot_now()
        mgr.record_spilled("0" * 64)  # journal-only noise, post-snap
        mgr.snapshot_now()  # rotates first snapshot to .prev
        with open(mgr.snapshot_path, "r+b") as fh:
            fh.write(b"corrupt!")
        report = DurabilityManager(str(tmp_path),
                                   fsync="never").recover(DagRegistry())
        assert report.snapshot_corrupt
        assert report.snapshot_used == "previous"
        assert report.entries_restored == 1
        assert report.anomalies

    def test_both_snapshots_corrupt_replays_journal(self, registry,
                                                    tmp_path):
        dag = wire_dag()
        res = certify(dag)
        mgr = DurabilityManager(str(tmp_path), fsync="never",
                                snapshot_every=0)
        mgr.record_admitted(res.fingerprint, dag)
        mgr.record_certificate(res.fingerprint, res)
        for name in (SNAPSHOT_FILE, "snapshot.prev.json"):
            with open(os.path.join(str(tmp_path), name), "w") as fh:
                fh.write("{broken")
        report = DurabilityManager(str(tmp_path),
                                   fsync="never").recover(DagRegistry())
        assert report.snapshot_corrupt
        assert report.snapshot_used == "none"
        assert report.entries_restored == 1

    def test_snapshot_bit_flips_detected(self, registry, tmp_path):
        """A flipped bit anywhere in a snapshot marks it corrupt —
        including bytes no replay check reads, such as provenance
        fingerprints, which used to be served as written."""
        dag = wire_dag()
        res = certify(dag)
        assert res.provenance  # composed: carries block fingerprints
        mgr = DurabilityManager(str(tmp_path), fsync="never",
                                snapshot_every=0)
        mgr.record_admitted(res.fingerprint, dag)
        mgr.record_certificate(res.fingerprint, res)
        assert mgr.snapshot_now()
        raw = open(mgr.snapshot_path, "rb").read()
        for pos in range(0, len(raw), 3):
            flipped = bytearray(raw)
            flipped[pos] ^= 1 << (pos % 8)
            with open(mgr.snapshot_path, "wb") as fh:
                fh.write(flipped)
            reg = DagRegistry()
            report = DurabilityManager(str(tmp_path),
                                       fsync="never").recover(reg)
            assert report.snapshot_corrupt, pos
            assert reg.get(res.fingerprint) is None  # journal truncated

    def test_legacy_snapshot_still_read(self, registry, tmp_path):
        dag = wire_dag()
        res = certify(dag)
        mgr = DurabilityManager(str(tmp_path), fsync="never")
        mgr.record_admitted(res.fingerprint, dag)
        mgr.record_certificate(res.fingerprint, res)
        assert mgr.snapshot_now()
        snap = json.load(open(mgr.snapshot_path))
        assert snap["version"] == 2
        with open(mgr.snapshot_path, "w") as fh:
            json.dump({"version": 1, "seq": snap["seq"],
                       "entries": snap["entries"]}, fh)
        reg = DagRegistry()
        report = DurabilityManager(str(tmp_path),
                                   fsync="never").recover(reg)
        assert report.snapshot_used == "current"
        assert not report.snapshot_corrupt
        assert result_to_dict(reg.get(res.fingerprint).schedule) == \
            result_to_dict(res)

    def test_torn_tail_truncated_and_counted(self, registry, tmp_path):
        dag = wire_dag()
        mgr = DurabilityManager(str(tmp_path), fsync="never",
                                snapshot_every=0)
        mgr.record_admitted(dag.fingerprint(), dag)
        mgr.flush()
        good = os.path.getsize(mgr.journal_path)
        with open(mgr.journal_path, "ab") as fh:
            fh.write(b"\xffgarbage after the crash")
        report = DurabilityManager(str(tmp_path),
                                   fsync="never").recover(DagRegistry())
        assert report.torn_bytes_discarded > 0
        assert report.entries_restored == 1
        assert os.path.getsize(
            os.path.join(str(tmp_path), "journal.wal")) == good

    def test_duplicate_records_idempotent(self, registry, tmp_path):
        dag = wire_dag()
        res = certify(dag)
        mgr = DurabilityManager(str(tmp_path), fsync="never",
                                snapshot_every=0)
        for _ in range(3):
            mgr.record_admitted(res.fingerprint, dag)
            mgr.record_certificate(res.fingerprint, res)
        reg = DagRegistry()
        report = DurabilityManager(str(tmp_path),
                                   fsync="never").recover(reg)
        assert report.entries_restored == 1
        assert report.records_duplicate >= 3
        assert len(reg) == 1

    def test_spill_record_drops_entry(self, registry, tmp_path):
        dag = wire_dag()
        mgr = DurabilityManager(str(tmp_path), fsync="never",
                                snapshot_every=0)
        fp = dag.fingerprint()
        mgr.record_admitted(fp, dag)
        mgr.record_spilled(fp)
        reg = DagRegistry()
        report = DurabilityManager(str(tmp_path),
                                   fsync="never").recover(reg)
        assert report.entries_restored == 0
        assert reg.get(fp) is None

    def test_degrades_on_disk_failure_without_raising(self, registry,
                                                      tmp_path):
        dag = wire_dag()
        mgr = DurabilityManager(str(tmp_path), fsync="never")
        mgr.record_admitted(dag.fingerprint(), dag)
        mgr._fh.close()  # make the next append explode
        assert mgr.record_spilled(dag.fingerprint()) is False
        assert not mgr.healthy
        assert mgr.last_error
        snap = registry.snapshot()
        assert snapshot_value(
            snap, "service_durability_degraded_total") == 1
        assert snapshot_value(snap, "durability_healthy") == 0
        # further appends are silent no-ops, never exceptions
        assert mgr.record_admitted(dag.fingerprint(), dag) is False
        mgr.close()

    def test_fsync_policy_validation(self, tmp_path):
        with pytest.raises(ValueError):
            DurabilityManager(str(tmp_path), fsync="sometimes")

    def test_always_policy_fsyncs_per_append(self, registry, tmp_path):
        dag = wire_dag()
        mgr = DurabilityManager(str(tmp_path), fsync="always",
                                snapshot_every=0)
        mgr.record_admitted(dag.fingerprint(), dag)
        mgr.record_spilled(dag.fingerprint())
        assert snapshot_value(
            registry.snapshot(), "journal_fsyncs_total") == 2

    def test_replay_metrics_published(self, registry, tmp_path):
        dag = wire_dag()
        res = certify(dag)
        mgr = DurabilityManager(str(tmp_path), fsync="never",
                                snapshot_every=0)
        mgr.record_admitted(res.fingerprint, dag)
        mgr.record_certificate(res.fingerprint, res)
        DurabilityManager(str(tmp_path),
                          fsync="never").recover(DagRegistry())
        snap = registry.snapshot()
        assert snapshot_value(snap, "registry_recovered_entries") == 1
        outcomes = snapshot_series(snap, "journal_replay_records_total")
        assert outcomes[("applied",)] == 2


# ----------------------------------------------------------------------
# service integration: readiness gate, journal wiring, drain
# ----------------------------------------------------------------------


class TestServiceDurability:
    def _submit(self, url, dag):
        req = urllib.request.Request(
            url + "/v1/dags",
            data=json.dumps({"dag": dag_to_dict(dag)}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=30) as r:
            return json.loads(r.read())

    def test_restart_serves_identical_schedule(self, registry,
                                               tmp_path):
        dag = wire_dag()
        with SchedulingService(port=0, data_dir=str(tmp_path),
                               fsync="never", frames=False) as svc:
            fp = self._submit(svc.url, dag)["fingerprint"]
            with urllib.request.urlopen(
                svc.url + f"/v1/schedules/{fp}", timeout=30
            ) as r:
                before = json.loads(r.read())
        with SchedulingService(port=0, data_dir=str(tmp_path),
                               fsync="never", frames=False) as svc:
            assert svc.recovery is not None
            assert svc.recovery.entries_restored == 1
            with urllib.request.urlopen(
                svc.url + f"/v1/schedules/{fp}", timeout=30
            ) as r:
                after = json.loads(r.read())
            before.pop("hits"), after.pop("hits")
            assert before == after
            durability = svc.stats()["service"]["durability"]
            assert durability["healthy"] is True
            assert durability["recovery"]["entries_restored"] == 1

    def test_not_ready_until_replay_completes(self, registry,
                                              tmp_path, monkeypatch):
        dag = wire_dag()
        with SchedulingService(port=0, data_dir=str(tmp_path),
                               fsync="never", frames=False) as svc:
            self._submit(svc.url, dag)

        release = threading.Event()
        statuses = {}
        real_recover = DurabilityManager.recover

        def slow_recover(self, reg=None, **kw):
            release.wait(timeout=30)
            return real_recover(self, reg, **kw)

        monkeypatch.setattr(DurabilityManager, "recover", slow_recover)
        svc = SchedulingService(port=0, data_dir=str(tmp_path),
                                fsync="never", frames=False)

        def boot():
            svc.start()

        t = threading.Thread(target=boot)
        t.start()
        try:
            # listener is up before recovery finishes: readyz -> 503
            deadline = threading.Event()
            for _ in range(200):
                if svc.port:
                    try:
                        urllib.request.urlopen(
                            svc.url + "/readyz", timeout=2)
                    except urllib.error.HTTPError as exc:
                        statuses["during"] = exc.code
                        break
                    except OSError:
                        pass
                deadline.wait(0.01)
            release.set()
            t.join(timeout=30)
            with urllib.request.urlopen(svc.url + "/readyz",
                                        timeout=5) as r:
                statuses["after"] = r.status
        finally:
            release.set()
            t.join(timeout=30)
            svc.stop()
        assert statuses.get("during") == 503
        assert statuses.get("after") == 200

    def test_in_memory_service_unchanged(self, registry):
        # no data_dir: no journal, no recovery section, ready at boot
        with SchedulingService(port=0, frames=False) as svc:
            assert svc.durability is None
            assert svc.registry.journal is None
            assert svc.stats()["service"]["durability"] is None


# ----------------------------------------------------------------------
# CLI: journal verbs + serve exit codes
# ----------------------------------------------------------------------


class TestCli:
    def _seed_dir(self, tmp_path, registry):
        dag = wire_dag()
        res = certify(dag)
        mgr = DurabilityManager(str(tmp_path), fsync="never",
                                snapshot_every=0)
        mgr.record_admitted(res.fingerprint, dag)
        mgr.record_certificate(res.fingerprint, res)
        mgr.flush()
        return dag

    def test_journal_stat_verify_compact(self, registry, tmp_path,
                                         capsys):
        self._seed_dir(tmp_path, registry)
        assert cli_main(["journal", "stat",
                         "--data-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "journal records" in out and "2" in out

        assert cli_main(["journal", "verify",
                         "--data-dir", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

        assert cli_main(["journal", "compact",
                         "--data-dir", str(tmp_path)]) == 0
        assert "1 entries" in capsys.readouterr().out
        # post-compact: journal reset to magic, snapshot holds state
        assert os.path.getsize(
            tmp_path / "journal.wal") == len(JOURNAL_MAGIC)

    def test_journal_verify_flags_corruption(self, registry, tmp_path,
                                             capsys):
        self._seed_dir(tmp_path, registry)
        path = tmp_path / "journal.wal"
        size = os.path.getsize(path)
        os.truncate(path, size - 3)
        assert cli_main(["journal", "verify",
                         "--data-dir", str(tmp_path)]) == 1
        assert "torn" in capsys.readouterr().err
        # verify is read-only: the torn tail is still there
        assert os.path.getsize(path) == size - 3

    def test_journal_missing_dir_exits(self, registry, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["journal", "stat",
                      "--data-dir", str(tmp_path / "nope")])

    def test_serve_bind_conflict_exits_2(self, registry, tmp_path):
        with SchedulingService(port=0, frames=False) as svc:
            rc = cli_main([
                "serve", "--port", str(svc.port), "--no-frames",
                "--data-dir", str(tmp_path),
            ])
        assert rc == 2
