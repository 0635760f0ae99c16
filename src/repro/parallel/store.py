"""Persistent, crash-safe per-scenario result store for sweep campaigns.

A :class:`ResultStore` is a directory that survives anything the
campaign layer (:mod:`repro.parallel.campaign`) can throw at it — killed
parents, killed workers, torn writes, bit flips — and merges back into a
:class:`~repro.parallel.results.SweepReport` by construction:

``manifest.json``
    Written atomically (temp file + ``os.replace`` + directory fsync).
    Pins the store format version and a *grid fingerprint* (a hash of
    the sorted scenario ids plus the root seed), so resuming a campaign
    against the wrong store fails up front instead of silently merging
    results of a different grid.

``records/<writer>.jsonl``
    Append-only result records, one JSON object per line, each
    carrying a SHA-256 checksum of its canonical payload.
    Appends are flushed and ``fsync``'d before :meth:`append` returns,
    so a record either exists completely or not at all: a parent killed
    mid-append leaves at most one torn final line, which fails to parse
    and is skipped on load (the scenario simply re-runs on resume).  A
    corrupted record (bit flip, truncation mid-file) fails its checksum
    and is skipped the same way.  Each concurrent writer — a shard, a
    resumed run — appends to its *own* file, so two hosts sharing a
    directory (or a later ``rsync`` of one store into another) never
    interleave bytes.  Keys outside ``sha256`` and ``result`` (such as
    the ``lease`` envelope of records written by an older elastic
    scheduler) are ignored on load.

``failures/<writer>.jsonl``
    The failure ledger: one record per failed *attempt* (scenario id,
    failure kind, detail, wall-clock timestamp, and the attempt's
    monotonic-clock duration, which a stepped wall clock cannot
    distort), appended by the campaign as failures happen.  Entries an
    older campaign wrote with an ``attempt`` number load as written.
    Purely diagnostic — never merged into reports.

**Order-free merge by construction.**  Results are keyed by scenario
id; :meth:`load` reads every record file in sorted-name order and
keeps the first valid record per id.  Scenario results are
deterministic in the scenario (the sweep substrate's contract), so
duplicate ids across files — two overlapping shards, an ingested copy,
a shard rerun after its host died — must agree, and :meth:`load`
verifies they do.  Merging two hosts' stores
is therefore just copying record files into one store (:meth:`ingest`);
no ordering, locking, or coordination exists to get wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro import obs
from repro.parallel.results import ScenarioResult

#: on-disk format identifier (bump STORE_VERSION on incompatible change).
STORE_FORMAT = "repro-campaign-store"
STORE_VERSION = 1


def grid_fingerprint(scenarios) -> str:
    """Stable fingerprint of a campaign's scenario set.

    Hashes the sorted scenario ids and the root seed — the two inputs
    that determine every result bit — so a store can refuse scenarios
    it was not created for.  Deliberately *order-free* (ids are sorted)
    and *shard-free* (every shard of one grid fingerprints identically,
    which is what lets shard stores merge).
    """
    ids = sorted(s.scenario_id for s in scenarios)
    seeds = sorted({s.root_seed for s in scenarios})
    digest = hashlib.sha256()
    for seed in seeds:
        digest.update(f"seed={seed}\n".encode())
    for scenario_id in ids:
        digest.update(scenario_id.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _canonical(payload: dict) -> str:
    """The canonical JSON text a record's checksum covers."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _payload_sha(payload: dict) -> str:
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def write_atomic(path: Path, text: str) -> None:
    """Write *text* to *path* atomically and durably.

    temp file in the same directory → flush → fsync → ``os.replace``
    → fsync the directory, so a crash leaves either the old file or the
    new one, never a torn file.  Each call writes its own temp file, so
    concurrent writers of one path (shards binding a fresh shared store)
    never rename or truncate each other's; the temp file is removed if
    the write fails.
    """
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with open(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def open_append(path: Path):
    """Open a JSONL file for appending, healing a torn tail first.

    A writer killed mid-append can leave the file without a final
    newline; appending straight onto that torn line would corrupt the
    *new* line too, so start it on a fresh line (the torn fragment then
    fails to parse on its own, exactly like any other torn line).
    """
    torn = False
    try:
        with open(path, "rb") as existing:
            existing.seek(0, os.SEEK_END)
            if existing.tell() > 0:
                existing.seek(-1, os.SEEK_END)
                torn = existing.read(1) != b"\n"
    except FileNotFoundError:
        pass
    handle = open(path, "a")
    if torn:
        handle.write("\n")
    return handle


class ResultStore:
    """One campaign's persistent results under *root* (see module docs).

    Parameters
    ----------
    root:
        Store directory; created (with ``records/`` and ``failures/``)
        if missing.  A directory holding a ``segments/`` tier raises
        :class:`ValueError`.
    writer:
        Name of this writer's append files.  Each concurrently-writing
        campaign run must use a distinct name; the campaign layer derives
        it from the shard spec (``shard0of2``) or uses ``"all"``.
    """

    def __init__(self, root: str | os.PathLike, writer: str = "all"):
        if not writer or "/" in writer or writer.startswith("."):
            raise ValueError(f"bad writer name {writer!r}")
        self.root = Path(root)
        self.writer = writer
        self.records_dir = self.root / "records"
        self.failures_dir = self.root / "failures"
        segments = self.root / "segments"
        if segments.exists():
            # Segment files hold results this store cannot read; loading
            # around them would read the store as partial (resume re-runs
            # finished work, reports silently drop results).
            raise ValueError(
                f"{segments} holds a compacted segment tier; segment "
                f"tiers are no longer read, so this store cannot be loaded"
            )
        self.records_dir.mkdir(parents=True, exist_ok=True)
        self.failures_dir.mkdir(parents=True, exist_ok=True)
        #: invalid records (torn/corrupt) seen by the last scan, either
        #: :meth:`load` or :meth:`scenario_ids`.
        self.corrupt_records = 0
        self._records_file = None
        self._failures_file = None

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @classmethod
    def is_initialized(cls, root: str | os.PathLike) -> bool:
        """True when *root* already holds a store manifest."""
        return (Path(root) / "manifest.json").exists()

    def read_manifest(self) -> dict | None:
        """The stored manifest, or ``None`` for a fresh directory."""
        try:
            text = self.manifest_path.read_text()
        except FileNotFoundError:
            return None
        manifest = json.loads(text)
        if (
            manifest.get("format") != STORE_FORMAT
            or manifest.get("version") != STORE_VERSION
        ):
            raise ValueError(
                f"{self.manifest_path} is not a version-{STORE_VERSION} "
                f"{STORE_FORMAT} manifest: {manifest!r}"
            )
        return manifest

    def bind(self, scenarios) -> dict:
        """Bind the store to a scenario set (write or verify the manifest).

        A fresh store gets an atomically-written manifest carrying the
        grid fingerprint; an existing store must fingerprint-match, so a
        resume (or a shard sharing the directory) can never mix grids.
        """
        fingerprint = grid_fingerprint(scenarios)
        manifest = self.read_manifest()
        if manifest is not None:
            if manifest["grid_fingerprint"] != fingerprint:
                raise ValueError(
                    f"store at {self.root} was created for a different "
                    f"scenario grid (fingerprint "
                    f"{manifest['grid_fingerprint'][:12]}… != "
                    f"{fingerprint[:12]}…); use a fresh --campaign "
                    f"directory for a different grid"
                )
            return manifest
        manifest = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "grid_fingerprint": fingerprint,
            "scenario_count": len(list(scenarios)),
        }
        write_atomic(self.manifest_path, json.dumps(manifest, indent=2) + "\n")
        return manifest

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(self, result: ScenarioResult) -> None:
        """Durably append one scenario's result (crash-atomic).

        The record line carries a checksum of its canonical payload;
        the file is flushed and fsync'd before returning, so once
        :meth:`append` returns the record survives any later crash, and
        a crash *during* the append leaves a torn line that :meth:`load`
        skips — never a half-trusted result.
        """
        with obs.tracer().span("store.append", scenario=result.scenario_id):
            payload = result.as_dict()
            record = {"sha256": _payload_sha(payload), "result": payload}
            if self._records_file is None:
                self._records_file = open_append(
                    self.records_dir / f"{self.writer}.jsonl"
                )
            self._records_file.write(_canonical(record) + "\n")
            self._records_file.flush()
            os.fsync(self._records_file.fileno())

    def record_failure(
        self,
        scenario_id: str,
        kind: str,
        detail: str,
        duration: float | None = None,
    ) -> dict:
        """Append one failed attempt to the failure ledger.

        The entry carries both a wall-clock timestamp (``wall_time``,
        for humans and cross-host ordering) and the attempt's elapsed
        **monotonic**-clock seconds (``duration_seconds``), so how long
        a scenario ran before it failed stays truthful across NTP steps
        and clock skew — the wall clock may jump, a monotonic duration
        cannot.  Returns the entry as written (the campaign mirrors it
        into its in-memory ledger).
        """
        entry = {
            "scenario_id": scenario_id,
            "kind": kind,
            "detail": detail,
            "wall_time": time.time(),
            "duration_seconds": (
                None if duration is None else float(duration)
            ),
        }
        if self._failures_file is None:
            self._failures_file = open_append(
                self.failures_dir / f"{self.writer}.jsonl"
            )
        self._failures_file.write(_canonical(entry) + "\n")
        self._failures_file.flush()
        os.fsync(self._failures_file.fileno())
        return entry

    def close(self) -> None:
        """Close any open append handles (idempotent)."""
        for handle in (self._records_file, self._failures_file):
            if handle is not None:
                handle.close()
        self._records_file = None
        self._failures_file = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Loading / merging
    # ------------------------------------------------------------------

    def _iter_records(self):
        """Yield ``(scenario_id, payload)`` for every valid record.

        Files are visited in sorted-name order and lines in file order —
        a deterministic scan, though nothing downstream depends on it
        (results merge by id).  :attr:`corrupt_records` restarts at zero
        with each scan; invalid lines (torn appends, checksum
        mismatches) increment it and are skipped.
        """
        self.corrupt_records = 0
        for path in sorted(self.records_dir.glob("*.jsonl")):
            with open(path) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                        payload = record["result"]
                        expected = record["sha256"]
                    except (json.JSONDecodeError, KeyError, TypeError):
                        self.corrupt_records += 1
                        continue
                    if _payload_sha(payload) != expected:
                        self.corrupt_records += 1
                        continue
                    yield payload["scenario_id"], payload

    def load(self) -> dict[str, ScenarioResult]:
        """All valid stored results, keyed by scenario id.

        Duplicate ids (a retried scenario, overlapping shards, an
        ingested copy) must carry identical payloads — results are
        deterministic in the scenario — and a mismatch raises rather
        than silently picking one; that is the store's end-to-end
        corruption check.
        """
        merged: dict[str, dict] = {}
        for scenario_id, payload in self._iter_records():
            previous = merged.setdefault(scenario_id, payload)
            if previous != payload:
                raise ValueError(
                    f"store at {self.root} holds two different results "
                    f"for scenario {scenario_id!r}; results are "
                    f"deterministic, so one record is corrupt or from a "
                    f"different grid"
                )
        return {
            scenario_id: ScenarioResult.from_dict(payload)
            for scenario_id, payload in merged.items()
        }

    def scenario_ids(self) -> set[str]:
        """Ids of every validly stored scenario (what resume skips).

        Re-validates every record's checksum, exactly like :meth:`load`.
        """
        return {scenario_id for scenario_id, _ in self._iter_records()}

    def failures(self) -> list[dict]:
        """Every failure-ledger entry, across all writers."""
        entries = []
        for path in sorted(self.failures_dir.glob("*.jsonl")):
            with open(path) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entries.append(json.loads(line))
                    except json.JSONDecodeError:
                        continue
        return entries

    # ------------------------------------------------------------------
    # Cross-store merge
    # ------------------------------------------------------------------

    def ingest(self, other: "ResultStore | str | os.PathLike") -> int:
        """Copy another store's record and ledger files into this one.

        The cross-host merge: run shard campaigns on separate machines,
        then ingest each remote store into one — duplicate
        scenario ids are harmless (deterministic results; :meth:`load`
        verifies agreement), and fingerprint-bound manifests guarantee
        both stores describe the same grid.  The source must be an
        initialized store (a mistyped path raises instead of silently
        merging nothing); this store may still be unbound.  Returns the
        number of files copied.
        """
        source = other.root if isinstance(other, ResultStore) else Path(other)
        if not self.is_initialized(source):
            raise ValueError(
                f"cannot ingest {source}: not an initialized campaign store"
            )
        if not isinstance(other, ResultStore):
            other = ResultStore(source)
        mine = self.read_manifest()
        theirs = other.read_manifest()
        if mine is not None and (
            mine["grid_fingerprint"] != theirs["grid_fingerprint"]
        ):
            raise ValueError(
                f"cannot ingest {other.root} into {self.root}: the "
                f"stores were created for different scenario grids"
            )
        copied = 0
        for src_dir, dst_dir in (
            (other.records_dir, self.records_dir),
            (other.failures_dir, self.failures_dir),
        ):
            for src in sorted(src_dir.glob("*.jsonl")):
                dst = dst_dir / src.name
                if dst.exists() and dst.resolve() != src.resolve():
                    dst = dst_dir / f"ingested-{hashlib.sha256(str(src.resolve()).encode()).hexdigest()[:10]}-{src.name}"
                if dst.resolve() == src.resolve():
                    continue
                shutil.copyfile(src, dst)
                copied += 1
        return copied

    def __repr__(self) -> str:
        return f"ResultStore(root={str(self.root)!r}, writer={self.writer!r})"
