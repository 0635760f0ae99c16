"""The fault-injection harness itself: parsing, arming, counted firing.

The crash/hang modes are exercised end-to-end by the campaign suite
(they kill or hang real worker processes); here we pin the harness
mechanics that everything else leans on — spec syntax, env gating, and
the crash-surviving firing tally.
"""

import pytest

from repro.testing.faults import (
    ENV_FAULTS,
    ENV_STATE,
    FaultSpec,
    InjectedFault,
    active_faults,
    corrupt_store_record,
    injected_faults,
    maybe_inject,
    parse_faults,
    truncate_store_tail,
)


def test_parse_faults_round_trip():
    text = "crash:1:web_0/d0.02/64x64/baseline/counter/s0;raise:*:a/b;hang:3:x"
    specs = parse_faults(text)
    assert [s.mode for s in specs] == ["crash", "raise", "hang"]
    assert [s.count for s in specs] == [1, None, 3]
    assert specs[0].scenario_id == "web_0/d0.02/64x64/baseline/counter/s0"
    assert ";".join(s.spec for s in specs) == text
    assert parse_faults(" ; ;") == ()


def test_parse_faults_rejects_malformed():
    for bad in ("crash", "crash:1", "crash:x:id", "explode:1:id", "crash:0:id",
                "crash:1:", "stall:1:x"):
        with pytest.raises(ValueError):
            parse_faults(bad)


def test_nothing_armed_is_a_noop(monkeypatch):
    monkeypatch.delenv(ENV_FAULTS, raising=False)
    assert active_faults() == ()
    maybe_inject("any/scenario")  # must not raise


def test_injected_faults_arms_and_disarms():
    spec = FaultSpec("raise", None, "target/id")
    with injected_faults(spec):
        assert spec in active_faults()
        with pytest.raises(InjectedFault):
            maybe_inject("target/id")
        maybe_inject("other/id")  # wrong scenario: no fire
    assert spec not in active_faults()
    maybe_inject("target/id")  # disarmed


def test_env_armed_faults(monkeypatch):
    monkeypatch.setenv(ENV_FAULTS, "raise:*:env/armed")
    with pytest.raises(InjectedFault):
        maybe_inject("env/armed")


def test_counted_fault_fires_exactly_count_times(tmp_path):
    spec = FaultSpec("raise", 2, "counted/id")
    with injected_faults(spec, state_dir=tmp_path):
        for _ in range(2):
            with pytest.raises(InjectedFault):
                maybe_inject("counted/id")
        maybe_inject("counted/id")  # third attempt: stood down
    # The tally survives re-arming (what a crashed worker's parent sees).
    with injected_faults(spec, state_dir=tmp_path):
        maybe_inject("counted/id")


def test_counted_fault_requires_state_dir(monkeypatch):
    monkeypatch.delenv(ENV_STATE, raising=False)
    with injected_faults(FaultSpec("raise", 1, "x")):
        with pytest.raises(RuntimeError, match="REPRO_FAULTS_STATE"):
            maybe_inject("x")


def test_corrupt_store_record_requires_a_match(tmp_path):
    (tmp_path / "records").mkdir(parents=True)
    with pytest.raises(ValueError, match="no stored record"):
        corrupt_store_record(tmp_path, "missing/id")
    with pytest.raises(ValueError, match="no record files"):
        truncate_store_tail(tmp_path)
