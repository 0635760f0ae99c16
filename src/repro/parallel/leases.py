"""Lease ledger: elastic, coordination-free scheduling over a result store.

``--shard i/N`` partitions a grid statically — every host must be told
its index, N is fixed up front, and a dead host strands its shard until
a human reruns it.  The lease ledger replaces that arithmetic with an
**elastic** protocol: any number of workers point at the same campaign
directory, atomically claim unowned *batches* of scenarios, renew a
heartbeat while they work, and reclaim any batch whose holder stopped
heartbeating.  Workers need no identity assignment, no fixed count, and
no coordinator — the store directory is the only shared state.

The ledger lives under ``<store>/leases/``:

``batches.json``
    The *batch plan*, written atomically by the first worker: the batch
    size and count plus a hash of the sorted scenario ids.  Every later
    worker verifies the hash and adopts the plan's batch size, so all
    workers partition the grid identically (the partition is sorted
    scenario ids chunked into consecutive runs of ``batch_size``).

``<batch>.jsonl``
    One append-only *claim file* per batch.  Claims, heartbeat renewals,
    and completion marks are single-line JSON appends (flushed and
    fsync'd); the current holder is resolved by replay with
    **last-writer-wins**: a ``claim`` whose token is >= the current
    token takes the lease (a later line wins a token tie, which is what
    resolves two workers racing for the same expired lease), a ``renew``
    refreshes the heartbeat only if its owner *and* token still match,
    and a ``done`` retires the batch only if its token still matches —
    so a fenced-off zombie can neither keep a lease alive nor mark work
    finished.  Torn lines (a worker killed mid-append) fail to parse
    and are skipped, exactly like the result store's records.

**Fencing tokens.**  Every successful claim carries a token one greater
than the last claim of that batch.  The token rides along into the
result records a worker appends (:meth:`ResultStore.append`'s ``lease``
argument), so a *zombie* — a worker that stalled past its TTL, was
reclaimed, and then resumed writing — is visible after the fact: the
store's duplicate-id check sees the same scenario recorded under two
different tokens.  Results are deterministic in the scenario, so the
zombie's payload must agree bit-for-bit (anything else raises); the
token mismatch is surfaced as :attr:`ResultStore.zombie_writes` for the
health report rather than silently folded away.

Expiry uses wall-clock heartbeats (``time.time()``), the only clock
that is meaningful across hosts sharing a directory.  A TTL must be
generous against clock skew between hosts; reclaiming a lease whose
holder is merely slow is *safe* (the fencing token plus deterministic
results make double execution harmless), just wasteful.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.parallel.store import open_append, write_atomic

#: on-disk format identifier for the batch plan.
PLAN_FORMAT = "repro-campaign-leases"
PLAN_VERSION = 1

#: default seconds without a heartbeat before a lease is reclaimable.
DEFAULT_LEASE_TTL = 30.0

#: never partition a grid into more than this many batches by default
#: (one claim file per batch; the auto batch size targets this count).
DEFAULT_MAX_BATCHES = 64


def default_batch_size(scenario_count: int) -> int:
    """Auto batch size: at most :data:`DEFAULT_MAX_BATCHES` batches."""
    return max(1, -(-scenario_count // DEFAULT_MAX_BATCHES))


def sanitize_owner(name: str) -> str:
    """Restrict an owner/writer name to filesystem-safe characters."""
    cleaned = re.sub(r"[^A-Za-z0-9_.-]+", "-", name).lstrip(".")
    if not cleaned:
        raise ValueError(f"owner name {name!r} has no usable characters")
    return cleaned


def _ids_fingerprint(scenario_ids) -> str:
    digest = hashlib.sha256()
    for scenario_id in sorted(scenario_ids):
        digest.update(scenario_id.encode())
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass(frozen=True)
class Lease:
    """One held lease: the batch and the fencing token of the claim."""

    batch_id: str
    token: int
    owner: str


@dataclass(frozen=True)
class LeaseState:
    """The resolved state of one batch's claim file."""

    batch_id: str
    owner: str | None
    token: int
    heartbeat: float
    done: bool

    def age(self, now: float | None = None) -> float:
        """Seconds since the last heartbeat (``inf`` if never claimed)."""
        if self.owner is None:
            return float("inf")
        return (time.time() if now is None else now) - self.heartbeat


class LeaseLedger:
    """Claim, renew, reclaim, and retire scenario batches (see module docs).

    Parameters
    ----------
    root:
        The campaign store directory (the ledger lives in ``root/leases``).
    owner:
        This worker's name — must be unique among concurrently live
        workers of one store (the campaign layer derives it from
        hostname + PID).
    ttl:
        Seconds without a heartbeat before any worker may reclaim a
        lease.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        owner: str,
        ttl: float = DEFAULT_LEASE_TTL,
    ):
        if ttl <= 0:
            raise ValueError("lease ttl must be positive seconds")
        self.root = Path(root)
        self.owner = sanitize_owner(owner)
        self.ttl = float(ttl)
        self.dir = self.root / "leases"

    # ------------------------------------------------------------------
    # The batch plan
    # ------------------------------------------------------------------

    @property
    def plan_path(self) -> Path:
        return self.dir / "batches.json"

    @staticmethod
    def batch_id(index: int) -> str:
        return f"b{index:05d}"

    def plan(
        self, scenario_ids, batch_size: int | None = None
    ) -> list[tuple[str, list[str]]]:
        """Partition *scenario_ids* into batches (write or verify the plan).

        The first worker writes the plan atomically; every later worker
        verifies the id fingerprint and adopts the *plan's* batch size,
        so one elastic pool always agrees on the partition even when
        workers were started with different ``--lease-batch`` values.
        Returns ``[(batch_id, [scenario_id, ...]), ...]``.
        """
        ids = sorted(scenario_ids)
        if not ids:
            raise ValueError("cannot plan leases over an empty scenario set")
        fingerprint = _ids_fingerprint(ids)
        self.dir.mkdir(parents=True, exist_ok=True)
        existing = self._read_plan()
        if existing is None:
            size = batch_size if batch_size is not None else default_batch_size(len(ids))
            if size < 1:
                raise ValueError("lease batch size must be at least 1")
            plan = {
                "format": PLAN_FORMAT,
                "version": PLAN_VERSION,
                "batch_size": size,
                "scenario_count": len(ids),
                "ids_sha256": fingerprint,
            }
            write_atomic(self.plan_path, json.dumps(plan, indent=2) + "\n")
            # Two workers may race the first write; re-read so everyone
            # adopts whichever plan os.replace made durable last.
            existing = self._read_plan()
        if existing["ids_sha256"] != fingerprint:
            raise ValueError(
                f"lease plan at {self.plan_path} was written for a "
                f"different scenario set; use a fresh campaign directory"
            )
        size = existing["batch_size"]
        return [
            (self.batch_id(i), ids[start : start + size])
            for i, start in enumerate(range(0, len(ids), size))
        ]

    def _read_plan(self) -> dict | None:
        try:
            text = self.plan_path.read_text()
        except FileNotFoundError:
            return None
        plan = json.loads(text)
        if (
            plan.get("format") != PLAN_FORMAT
            or plan.get("version") != PLAN_VERSION
        ):
            raise ValueError(f"{self.plan_path} is not a lease plan: {plan!r}")
        return plan

    # ------------------------------------------------------------------
    # Claim-file replay
    # ------------------------------------------------------------------

    def _claims_path(self, batch_id: str) -> Path:
        return self.dir / f"{batch_id}.jsonl"

    def state(self, batch_id: str) -> LeaseState:
        """Resolve the current holder of *batch_id* by replaying claims."""
        owner, token, heartbeat, done = None, 0, 0.0, False
        try:
            lines = self._claims_path(batch_id).read_text().splitlines()
        except FileNotFoundError:
            lines = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                op = entry["op"]
                entry_owner = entry["owner"]
                entry_token = int(entry["token"])
                at = float(entry["at"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                continue  # torn append — skipped like a torn store record
            if done:
                continue  # a retired batch stays retired
            if op == "claim" and entry_token >= token:
                # Last-writer-wins: >= means a later line wins a token
                # tie, resolving two workers racing one expired lease.
                owner, token, heartbeat = entry_owner, entry_token, at
            elif (
                op == "renew"
                and entry_owner == owner
                and entry_token == token
            ):
                heartbeat = max(heartbeat, at)
            elif op == "done" and entry_token == token:
                done = True
        return LeaseState(
            batch_id=batch_id,
            owner=owner,
            token=token,
            heartbeat=heartbeat,
            done=done,
        )

    def states(self) -> list[LeaseState]:
        """Resolved state of every batch in the plan (for health reports)."""
        plan = self._read_plan()
        if plan is None:
            return []
        size = plan["batch_size"]
        count = -(-plan["scenario_count"] // size)
        return [self.state(self.batch_id(i)) for i in range(count)]

    def _append(self, batch_id: str, entry: dict) -> None:
        path = self._claims_path(batch_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        with open_append(path) as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    # The worker protocol: claim / renew / done
    # ------------------------------------------------------------------

    def claim(self, batch_id: str, force: bool = False) -> Lease | None:
        """Try to take *batch_id*; returns the lease or ``None``.

        ``None`` means the batch is already done, actively held by a
        live worker (heartbeat within the TTL), or we lost a claim race
        — all three mean "move on to another batch".  *force* skips the
        heartbeat check (the zombie-fencing test injector); production
        workers never pass it.
        """
        tracer = obs.tracer()
        # The claim span is always ended in-line, with the outcome as an
        # attribute — an abandoned begin would read as a phantom open
        # span in the merged trace.  ``takeover`` marks a reclaim of an
        # expired lease (token >= 2): the observable face of fencing,
        # since a SIGKILL'd owner never witnesses its own fence.
        span = tracer.begin("lease.claim", batch=batch_id)
        state = self.state(batch_id)
        if state.done:
            tracer.end(span, claimed=False, reason="done")
            return None
        held_by_other = (
            state.owner is not None
            and state.owner != self.owner
            and state.age() < self.ttl
        )
        if held_by_other and not force:
            tracer.end(span, claimed=False, reason="held")
            return None
        token = state.token + 1
        self._append(
            batch_id,
            {"op": "claim", "owner": self.owner, "token": token,
             "at": time.time()},
        )
        # Re-read to resolve the race: if another claimant appended
        # after us, last-writer-wins may have handed them the lease.
        after = self.state(batch_id)
        if after.owner == self.owner and after.token == token:
            tracer.end(
                span,
                claimed=True,
                token=token,
                takeover=bool(
                    token >= 2
                    and state.owner is not None
                    and state.owner != self.owner
                ),
            )
            return Lease(batch_id=batch_id, token=token, owner=self.owner)
        tracer.end(span, claimed=False, reason="race")
        return None

    def renew(self, lease: Lease) -> bool:
        """Heartbeat *lease*; ``False`` means we have been fenced off.

        A ``False`` return is the zombie signal: some other worker
        reclaimed the batch after our heartbeat went stale.  The caller
        must stop starting new work under this lease (in-flight results
        may still land — the fencing token makes them detectable, and
        determinism makes them harmless).
        """
        tracer = obs.tracer()
        state = self.state(lease.batch_id)
        if state.owner != self.owner or state.token != lease.token:
            # Observed fence: we found our own lease reassigned.
            span = tracer.begin(
                "lease.fenced", batch=lease.batch_id, token=lease.token
            )
            tracer.end(span, new_owner=state.owner, new_token=state.token)
            return False
        with tracer.span(
            "lease.renew", batch=lease.batch_id, token=lease.token
        ):
            self._append(
                lease.batch_id,
                {"op": "renew", "owner": self.owner, "token": lease.token,
                 "at": time.time()},
            )
        return True

    def mark_done(self, lease: Lease) -> None:
        """Retire the batch (idempotent; ignored if we were fenced off)."""
        with obs.tracer().span(
            "lease.done", batch=lease.batch_id, token=lease.token
        ):
            self._append(
                lease.batch_id,
                {"op": "done", "owner": self.owner, "token": lease.token,
                 "at": time.time()},
            )

    def __repr__(self) -> str:
        return f"LeaseLedger(root={str(self.root)!r}, owner={self.owner!r})"
