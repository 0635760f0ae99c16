"""Lease-ledger protocol suite: claim, renew, expire, fence, race.

Everything here drives :class:`~repro.parallel.leases.LeaseLedger`
directly (no campaign, no subprocesses): the claim-file replay rules —
last-writer-wins, sticky ``done``, fencing tokens, torn-line tolerance
— are pure functions of the file contents, so they pin exactly.
"""

import json

import pytest

from repro.parallel.leases import (
    DEFAULT_MAX_BATCHES,
    LeaseLedger,
    default_batch_size,
    sanitize_owner,
)
from repro.testing.faults import expire_leases, steal_lease

IDS = [f"s/{i:02d}" for i in range(10)]


def ledger(tmp_path, owner="worker-a", ttl=30.0):
    return LeaseLedger(tmp_path, owner=owner, ttl=ttl)


# ----------------------------------------------------------------------
# The batch plan
# ----------------------------------------------------------------------


def test_plan_partitions_sorted_ids_consecutively(tmp_path):
    batches = ledger(tmp_path).plan(IDS, batch_size=4)
    assert [b for b, _ in batches] == ["b00000", "b00001", "b00002"]
    assert [ids for _, ids in batches] == [IDS[0:4], IDS[4:8], IDS[8:10]]


def test_first_writers_plan_wins(tmp_path):
    first = ledger(tmp_path, "worker-a").plan(IDS, batch_size=4)
    # A later worker asking for a different batch size adopts the plan's.
    second = ledger(tmp_path, "worker-b").plan(IDS, batch_size=2)
    assert second == first


def test_plan_rejects_a_different_scenario_set(tmp_path):
    ledger(tmp_path).plan(IDS)
    with pytest.raises(ValueError, match="different scenario set"):
        ledger(tmp_path).plan(IDS + ["s/99"])


def test_default_batch_size_caps_batch_count():
    assert default_batch_size(3) == 1
    assert default_batch_size(DEFAULT_MAX_BATCHES) == 1
    count = 10 * DEFAULT_MAX_BATCHES + 1
    size = default_batch_size(count)
    assert -(-count // size) <= DEFAULT_MAX_BATCHES


def test_sanitize_owner():
    assert sanitize_owner("w-host.example-42") == "w-host.example-42"
    assert sanitize_owner("a b/c:d") == "a-b-c-d"
    with pytest.raises(ValueError):
        sanitize_owner("...")  # nothing survives the leading-dot strip


# ----------------------------------------------------------------------
# Claim / renew / done
# ----------------------------------------------------------------------


def test_claim_renew_done_lifecycle(tmp_path):
    a = ledger(tmp_path, "worker-a")
    a.plan(IDS, batch_size=5)
    lease = a.claim("b00000")
    assert lease is not None and lease.token == 1
    assert a.renew(lease)
    state = a.state("b00000")
    assert (state.owner, state.token, state.done) == ("worker-a", 1, False)
    a.mark_done(lease)
    assert a.state("b00000").done
    assert a.claim("b00000") is None  # retired batches stay retired


def test_fresh_lease_blocks_other_workers(tmp_path):
    a, b = ledger(tmp_path, "worker-a"), ledger(tmp_path, "worker-b")
    a.plan(IDS, batch_size=5)
    assert a.claim("b00000") is not None
    assert b.claim("b00000") is None  # heartbeat is fresh
    assert b.claim("b00001") is not None  # but other batches are free


def test_expired_lease_is_reclaimed_with_a_higher_token(tmp_path):
    a = ledger(tmp_path, "worker-a", ttl=30.0)
    b = ledger(tmp_path, "worker-b", ttl=30.0)
    a.plan(IDS, batch_size=5)
    stale = a.claim("b00000")
    expire_leases(tmp_path, rewind_seconds=60.0, batch_id="b00000")
    lease = b.claim("b00000")
    assert lease is not None
    assert lease.token == stale.token + 1  # the fencing token advanced


def test_fenced_zombie_cannot_renew_or_mark_done(tmp_path):
    a, b = ledger(tmp_path, "worker-a"), ledger(tmp_path, "worker-b")
    a.plan(IDS, batch_size=5)
    zombie = a.claim("b00000")
    expire_leases(tmp_path, rewind_seconds=60.0)
    assert b.claim("b00000") is not None
    # The zombie resumes: its renew is refused...
    assert not a.renew(zombie)
    # ...and its stale done mark does not retire the batch.
    a.mark_done(zombie)
    state = a.state("b00000")
    assert not state.done
    assert state.owner == "worker-b"


def test_claim_race_has_exactly_one_winner(tmp_path):
    """Two workers racing one expired lease: last-writer-wins hands the
    lease to exactly one of them (the post-append re-read decides)."""
    a, b = ledger(tmp_path, "worker-a"), ledger(tmp_path, "worker-b")
    a.plan(IDS, batch_size=5)
    # Both see the batch unowned and append claims with the same token.
    lease_a = a.claim("b00000")
    # Simulate b having read the pre-claim state: force-claim appends a
    # same-or-higher token line after a's.
    lease_b = b.claim("b00000", force=True)
    winners = [lease for lease in (lease_a, lease_b) if lease is not None]
    assert len(winners) >= 1
    # Whatever the interleaving, the replayed state names one holder,
    # and only that holder's renew succeeds.
    state = a.state("b00000")
    assert state.owner in ("worker-a", "worker-b")
    holder, other = (a, b) if state.owner == "worker-a" else (b, a)
    held = [lease for lease in winners if lease.owner == state.owner]
    assert held and holder.renew(held[-1])
    stale = [lease for lease in (lease_a, lease_b) if lease is not None
             and lease.owner != state.owner]
    for lease in stale:
        assert not other.renew(lease)


def test_steal_lease_fences_the_holder(tmp_path):
    a = ledger(tmp_path, "worker-a")
    a.plan(IDS, batch_size=5)
    held = a.claim("b00000")
    stolen = steal_lease(tmp_path, "b00000", owner="thief")
    assert stolen.token == held.token + 1
    assert not a.renew(held)


# ----------------------------------------------------------------------
# Torn appends and health reporting
# ----------------------------------------------------------------------


def test_torn_claim_line_is_skipped(tmp_path):
    a = ledger(tmp_path, "worker-a")
    a.plan(IDS, batch_size=5)
    lease = a.claim("b00000")
    # A worker killed mid-append leaves a torn (unparsable) final line.
    with open(a._claims_path("b00000"), "a") as handle:
        handle.write('{"op": "claim", "owner": "worker-b", "tok')
    state = a.state("b00000")
    assert (state.owner, state.token) == ("worker-a", lease.token)
    # And the file keeps working after the torn line: the next renew
    # lands on its own line and still replays correctly.
    assert a.renew(lease)
    assert a.state("b00000").owner == "worker-a"


def test_states_resolve_every_planned_batch(tmp_path):
    a = ledger(tmp_path, "worker-a", ttl=30.0)
    a.plan(IDS, batch_size=4)  # 3 batches
    lease = a.claim("b00000")
    a.mark_done(lease)
    a.claim("b00001")
    states = {state.batch_id: state for state in a.states()}
    assert len(states) == 3
    assert states["b00000"].done
    assert states["b00001"].owner == "worker-a"
    assert states["b00002"].owner is None


def test_claim_entries_are_canonical_json_lines(tmp_path):
    a = ledger(tmp_path, "worker-a")
    a.plan(IDS, batch_size=5)
    lease = a.claim("b00000")
    a.renew(lease)
    lines = a._claims_path("b00000").read_text().splitlines()
    assert [json.loads(line)["op"] for line in lines] == ["claim", "renew"]
