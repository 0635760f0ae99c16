"""Deterministic fault injection for the campaign recovery paths.

Every recovery path of the fault-tolerant sweep layer — worker crash,
hung worker, in-scenario exception, torn or corrupted store record — is
exercised by tests through this module rather than hoped for.  The
design constraints:

- **Deterministic.**  A fault names the exact scenario id it fires on
  and (optionally) how many times; no randomness, no timing windows.
- **Env-gated.**  Faults arm through ``REPRO_FAULTS`` (inherited by
  fork *and* spawn workers) or programmatically through
  :func:`injected_faults` (inherited by fork workers); with neither set
  the hook in :func:`repro.controller.factory.run_scenario` is a
  constant-time no-op.
- **Cross-process counting.**  "Fail in one run, succeed on resume"
  needs a firing count that survives the crashing process and the
  run.  Counted faults keep their tally in small files under the
  ``REPRO_FAULTS_STATE`` directory — a run attempts a scenario once,
  and runs over one store attempt it one after another, so a plain
  read-increment-write is race-free.

Fault spec syntax (``;``-separated in ``REPRO_FAULTS``)::

    <mode>:<count>:<scenario_id>

where *mode* is ``crash`` (``os._exit`` — a hard death, no Python
cleanup, indistinguishable from a SIGKILL to the parent), ``hang``
(sleep far past any sane timeout), or ``raise`` (raise
:class:`InjectedFault` inside the scenario); *count*
is a positive integer or ``*`` for "every attempt".  Scenario ids
contain ``/`` and ``.`` but never ``:`` or ``;``, so the two delimiters
cannot collide.

The store-corruption injectors (:func:`corrupt_store_record`,
:func:`truncate_store_tail`) operate on a
:class:`~repro.parallel.store.ResultStore` directory from the outside —
they simulate bit rot and torn appends without the store's cooperation.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

#: env var holding the armed fault specs (``;``-separated).
ENV_FAULTS = "REPRO_FAULTS"
#: env var naming the directory counted faults keep their tallies in.
ENV_STATE = "REPRO_FAULTS_STATE"

#: how long a ``hang`` fault sleeps — far past any sane scenario
#: timeout, so an un-detected hang fails the surrounding test loudly.
HANG_SECONDS = 3600.0

#: exit code of a ``crash`` fault (visible in the parent's ledger entry).
CRASH_EXIT_CODE = 86

_MODES = ("crash", "hang", "raise")

#: programmatically installed faults (fork workers inherit these).
_installed: tuple["FaultSpec", ...] = ()


class InjectedFault(RuntimeError):
    """The exception a ``raise``-mode fault throws inside a scenario."""


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: fire *mode* on *scenario_id*, *count* times.

    ``count=None`` fires on every attempt; a positive count fires on
    the first *count* attempts and then stands down, so with the same
    faults armed a scenario fails in one run and succeeds when a later
    run resumes it (the state that survives a crashing process lives
    under :data:`ENV_STATE`).
    """

    mode: str
    count: int | None
    scenario_id: str

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; expected one of {_MODES}"
            )
        if self.count is not None and self.count < 1:
            raise ValueError("fault count must be at least 1 (or '*')")
        if not self.scenario_id:
            raise ValueError("fault needs a scenario id")

    @property
    def spec(self) -> str:
        """The env-var text form of this fault."""
        count = "*" if self.count is None else str(self.count)
        return f"{self.mode}:{count}:{self.scenario_id}"


def parse_faults(text: str) -> tuple[FaultSpec, ...]:
    """Parse a ``;``-separated fault-spec string (see module docs)."""
    specs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        mode, sep, rest = chunk.partition(":")
        count_text, sep2, scenario_id = rest.partition(":")
        if not sep or not sep2:
            raise ValueError(
                f"bad fault spec {chunk!r}; expected "
                f"'<mode>:<count>:<scenario_id>'"
            )
        if count_text == "*":
            count = None
        else:
            try:
                count = int(count_text)
            except ValueError:
                raise ValueError(
                    f"bad fault count {count_text!r} in {chunk!r}; "
                    f"expected an integer or '*'"
                ) from None
        specs.append(FaultSpec(mode=mode, count=count, scenario_id=scenario_id))
    return tuple(specs)


def active_faults() -> tuple[FaultSpec, ...]:
    """Every currently armed fault (programmatic + environment)."""
    env = os.environ.get(ENV_FAULTS)
    return _installed + (parse_faults(env) if env else ())


@contextmanager
def injected_faults(*specs: FaultSpec, state_dir: str | os.PathLike | None = None):
    """Arm *specs* for the duration of the block (tests' in-process gate).

    Fork-start workers inherit the installed tuple; spawn-start workers
    do not — arm via :data:`ENV_FAULTS` for those.  *state_dir* (for
    counted faults) sets :data:`ENV_STATE` for the duration.
    """
    global _installed
    previous, _installed = _installed, _installed + tuple(specs)
    previous_state = os.environ.get(ENV_STATE)
    if state_dir is not None:
        os.environ[ENV_STATE] = str(state_dir)
    try:
        yield
    finally:
        _installed = previous
        if state_dir is not None:
            if previous_state is None:
                os.environ.pop(ENV_STATE, None)
            else:
                os.environ[ENV_STATE] = previous_state


def _state_path(spec: FaultSpec) -> Path:
    state = os.environ.get(ENV_STATE)
    if not state:
        raise RuntimeError(
            f"counted fault {spec.spec!r} needs {ENV_STATE} to point at a "
            f"directory (the firing tally must survive the faulted process)"
        )
    digest = hashlib.sha256(f"{spec.mode}:{spec.scenario_id}".encode()).hexdigest()
    return Path(state) / f"fault-{digest[:16]}.count"


def _should_fire(spec: FaultSpec) -> bool:
    """Check (and for counted faults, consume) one firing of *spec*.

    The tally is written *before* the fault fires — a ``crash`` fault
    never returns to do bookkeeping afterwards.  Attempts of one
    scenario are strictly sequential (one per run, and a resume starts
    after the run before it ended), so read-increment-write needs no
    locking.
    """
    if spec.count is None:
        return True
    path = _state_path(spec)
    try:
        fired = int(path.read_text())
    except (FileNotFoundError, ValueError):
        fired = 0
    if fired >= spec.count:
        return False
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(str(fired + 1))
    return True


def maybe_inject(scenario_id: str) -> None:
    """The scenario runner's fault hook: fire any armed fault for
    *scenario_id*.

    Called by :func:`repro.controller.factory.run_scenario` before the
    scenario executes.  With nothing armed (the production case) this
    is one tuple check and one ``os.environ`` lookup.
    """
    if not _installed and ENV_FAULTS not in os.environ:
        return
    for spec in active_faults():
        if spec.scenario_id != scenario_id or not _should_fire(spec):
            continue
        if spec.mode == "crash":
            # A hard death: no exception, no finally blocks, no
            # finalizers — what a SIGKILL or OOM kill looks like.
            os._exit(CRASH_EXIT_CODE)
        if spec.mode == "hang":
            time.sleep(HANG_SECONDS)
            raise InjectedFault(
                f"hang fault for {scenario_id!r} outlived "
                f"{HANG_SECONDS:g}s without being killed"
            )
        raise InjectedFault(f"injected fault for scenario {scenario_id!r}")


# ----------------------------------------------------------------------
# Store-corruption injectors (operate on a ResultStore directory)
# ----------------------------------------------------------------------


def corrupt_store_record(store_root: str | os.PathLike, scenario_id: str) -> int:
    """Flip bytes inside every stored record of *scenario_id*.

    Rewrites matching record lines with a damaged payload (the checksum
    is left as-was, so validation must fail).  Returns how many records
    were corrupted; raises if none matched.
    """
    corrupted = 0
    for path in sorted((Path(store_root) / "records").glob("*.jsonl")):
        lines = path.read_text().splitlines(keepends=True)
        changed = False
        for i, line in enumerate(lines):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if record.get("result", {}).get("scenario_id") != scenario_id:
                continue
            record["result"]["stats"] = {"__bitrot__": True}
            lines[i] = json.dumps(record, sort_keys=True) + "\n"
            changed = True
            corrupted += 1
        if changed:
            path.write_text("".join(lines))
    if not corrupted:
        raise ValueError(f"no stored record for scenario {scenario_id!r}")
    return corrupted


def truncate_store_tail(store_root: str | os.PathLike, nbytes: int = 20) -> Path:
    """Tear the final append: chop *nbytes* off the largest record file.

    Simulates a parent killed mid-``write`` — the torn final line must
    be skipped on load and its scenario re-run on resume.  Returns the
    truncated file.
    """
    candidates = sorted(
        (Path(store_root) / "records").glob("*.jsonl"),
        key=lambda p: p.stat().st_size,
    )
    if not candidates:
        raise ValueError(f"no record files under {store_root}")
    victim = candidates[-1]
    size = victim.stat().st_size
    with open(victim, "rb+") as handle:
        handle.truncate(max(0, size - nbytes))
    return victim
