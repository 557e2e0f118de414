"""ROLLFORWARD: recovery from total node failure.

"TMF's approach to recovery from total node failure is based on
occasional archived copies of audited data base files, plus an archive
of all audit trails written since the data base files were archived.
These copies can be created during normal transaction processing.  TMF
reconstructs any files open at the time of a total node failure by using
the after-images from the audit trail to reapply the updates of
committed transactions.  ROLLFORWARD negotiates with other nodes of the
network about transactions which were in 'ending' state at the time of
the node failure."  (paper, §ROLLFORWARD)

The simulation's archive is an atomic logical snapshot (``dump_volume``)
taken during normal processing — a fuzzy dump is exact here because the
snapshot happens between events.  Recovery rebuilds a volume's files
from archive + after-images of committed transactions; a transaction
with audit beyond the archive but no local completion record is resolved
by (a) home-node rule — no commit record at home means it never
committed — or (b) negotiation: querying the home node's TMP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from ..discprocess.records import KEY_SEQUENCED, RELATIVE, FileSchema
from ..guardian import FileSystemError, OsProcess
from .audit import AuditRecord, CompletionRecord
from .tmf import TmfNode
from .tmp import TmpQuery
from .transid import Transid

__all__ = [
    "VolumeArchive",
    "dump_volume",
    "purge_audit_trails",
    "Rollforward",
    "RecoveryStats",
]


@dataclass
class FileDump:
    schema: FileSchema
    # key-sequenced: {key: record}; relative/entry-sequenced: {number: record}
    content: Dict[Any, Any] = field(default_factory=dict)
    next_number: int = 0  # next record number / ESN at dump time


@dataclass
class VolumeArchive:
    """An online archive of one volume's audited files."""

    volume: str
    node: str
    taken_at_seq: int
    files: Dict[str, FileDump] = field(default_factory=dict)


@dataclass
class RecoveryStats:
    volume: str = ""
    audit_records_scanned: int = 0
    records_reapplied: int = 0
    transactions_committed: int = 0
    transactions_discarded: int = 0
    negotiated: int = 0


def dump_volume(disc_process: Any) -> VolumeArchive:
    """Take an online archive of every file on the volume.

    Runs during normal transaction processing; the snapshot is atomic in
    simulated time.  The audit-sequence watermark marks which audit
    records the archive already reflects.
    """
    archive = VolumeArchive(
        volume=disc_process.name,
        node=disc_process.node_name,
        taken_at_seq=disc_process.state["audit_seq"],
    )
    for name, structured in disc_process.files.items():
        dump = FileDump(schema=structured.schema)
        organization = structured.schema.organization
        if organization == KEY_SEQUENCED:
            for key, record in structured.scan():
                dump.content[key] = record
        elif organization == RELATIVE:
            for number, record in structured.scan_slots():
                dump.content[number] = record
            dump.next_number = structured.base.next_record_number
        else:
            for esn, record in structured.scan_entries():
                dump.content[esn] = record
            dump.next_number = structured.base.record_count
        archive.files[name] = dump
    return archive


def purge_audit_trails(tmf: TmfNode, archives: List[VolumeArchive]) -> int:
    """Purge trail files made redundant by the given archives.

    Every audited volume of the node must be covered by an archive;
    volumes without one keep their audit indefinitely (their images
    might still be needed).  Returns the number of files purged across
    the node's audit trails.
    """
    watermarks = {archive.volume: archive.taken_at_seq for archive in archives}
    purged = 0
    for audit_process in tmf.audit_objects.values():
        purged += audit_process.trail.purge(watermarks)
    if purged:
        tmf._trace("audit_purged", files=purged)
    return purged


class Rollforward:
    """The ROLLFORWARD utility for one node."""

    def __init__(self, tmf: TmfNode):
        self.tmf = tmf
        self.env = tmf.env

    # ------------------------------------------------------------------
    def rebuild_dispositions(self) -> Dict[Transid, str]:
        """Re-read the Monitor Audit Trail from disc after a failure."""
        dispositions: Dict[Transid, str] = {}
        for record in self.tmf.monitor_trail.scan_all():
            if isinstance(record, CompletionRecord):
                dispositions[record.transid] = record.disposition
        self.tmf.dispositions.update(dispositions)
        return dispositions

    def _resolve(self, proc: OsProcess, transid: Transid, stats: RecoveryStats) -> Generator:
        """Disposition of a transaction with no local completion record."""
        known = self.tmf.dispositions.get(transid)
        if known is not None:
            return known
        if transid.home_node == self.tmf.node_name:
            # Home-node rule: the commit point is the local Monitor Audit
            # Trail write; its absence proves the transaction never
            # committed.
            return "aborted"
        # Negotiate with the home node ("ROLLFORWARD negotiates with
        # other nodes of the network about transactions which were in
        # 'ending' state at the time of the node failure").
        stats.negotiated += 1
        try:
            reply = yield from self.tmf.filesystem.send(
                proc,
                f"\\{transid.home_node}.{self.tmf.tmp_name}",
                TmpQuery(transid),
                timeout=self.tmf.config.phase1_timeout,
            )
            disposition = reply.get("disposition", "unknown")
        except FileSystemError:
            disposition = "unknown"
        if disposition not in ("committed", "aborted"):
            # Home unreachable/forgot: a transaction that reached commit
            # would have a durable record at home, so treat as aborted.
            disposition = "aborted"
        self.tmf.dispositions[transid] = disposition
        return disposition

    # ------------------------------------------------------------------
    def recover_volume(
        self,
        proc: OsProcess,
        disc_process: Any,
        archive: VolumeArchive,
        audit_records: Optional[List[AuditRecord]] = None,
    ) -> Generator:
        """Rebuild a crashed volume: archive + committed after-images.

        ``audit_records`` defaults to everything durable on the audit
        trail of the volume's AUDITPROCESS (images of uncommitted
        transactions may be missing from the trail — they were never
        forced — which is fine: those transactions are discarded).
        """
        stats = RecoveryStats(volume=archive.volume)
        if audit_records is None:
            audit_records = []
            audit_name = disc_process.audit_process
            audit_object = self.tmf.audit_objects.get(audit_name)
            if audit_object is not None:
                audit_records = [
                    record
                    for record in audit_object.trail.scan_all()
                    if isinstance(record, AuditRecord)
                ]
        relevant = sorted(
            (
                record
                for record in audit_records
                if record.volume == archive.volume
                and record.seq >= archive.taken_at_seq
            ),
            key=lambda record: record.seq,
        )
        stats.audit_records_scanned = len(relevant)

        # Resolve each transaction's disposition once.
        dispositions: Dict[Transid, str] = {}
        for record in relevant:
            if record.transid not in dispositions:
                disposition = yield from self._resolve(proc, record.transid, stats)
                dispositions[record.transid] = disposition
                if disposition == "committed":
                    stats.transactions_committed += 1
                else:
                    stats.transactions_discarded += 1

        # Reapply after-images of committed transactions over the archive.
        content = {
            name: dict(dump.content) for name, dump in archive.files.items()
        }
        next_numbers = {
            name: dump.next_number for name, dump in archive.files.items()
        }
        max_seq = archive.taken_at_seq
        for record in relevant:
            max_seq = max(max_seq, record.seq + 1)
            if dispositions[record.transid] != "committed":
                continue
            file_content = content.setdefault(record.file, {})
            if record.after is None:
                file_content.pop(record.key, None)
                if record.op == "write_slot" or record.op == "append_entry":
                    file_content[record.key] = None
            else:
                file_content[record.key] = record.after
            if isinstance(record.key, int):
                next_numbers[record.file] = max(
                    next_numbers.get(record.file, 0), record.key + 1
                )
            stats.records_reapplied += 1

        # Install the reconstructed contents into the DISCPROCESS.
        write_count = disc_process.load_contents(
            {name: dump.schema for name, dump in archive.files.items()},
            content,
            next_numbers,
            audit_seq=max_seq,
        )
        # Physical reconstruction time: sequential writes of the volume.
        yield self.env.timeout(
            write_count * self.tmf.node_os.node.latencies.disc_write / 2
        )
        self.tmf._trace(
            "rollforward_complete",
            volume=archive.volume,
            reapplied=stats.records_reapplied,
            discarded=stats.transactions_discarded,
        )
        return stats
