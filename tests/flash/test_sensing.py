"""Read sensing logic, including bitline cutoff behavior."""

import numpy as np
import pytest

from repro.flash.sensing import DEFAULT_REFERENCES, ReadReferences, sense_page, sense_states


def test_sense_states_partitions_by_references():
    refs = DEFAULT_REFERENCES
    voltages = np.array(
        [refs.va - 1, refs.va + 1, refs.vb + 1, refs.vc + 1, refs.va, refs.vb]
    )
    states = sense_states(voltages, refs)
    # side="left": a voltage exactly at a reference conducts (<=).
    assert list(states) == [0, 1, 2, 3, 0, 1]


def test_sense_lsb_page_thresholds_at_vb():
    refs = DEFAULT_REFERENCES
    voltages = np.array([refs.vb - 5, refs.vb + 5])
    bits = sense_page(voltages, is_msb=False, references=refs)
    assert list(bits) == [1, 0]


def test_sense_msb_page_uses_va_and_vc():
    refs = DEFAULT_REFERENCES
    voltages = np.array([refs.va - 5, refs.va + 5, refs.vc - 5, refs.vc + 5])
    bits = sense_page(voltages, is_msb=True, references=refs)
    assert list(bits) == [1, 0, 0, 1]


def test_cutoff_forces_highest_category():
    refs = DEFAULT_REFERENCES
    voltages = np.array([10.0, 10.0])
    cutoff = np.array([False, True])
    assert list(sense_states(voltages, refs, cutoff)) == [0, 3]
    assert list(sense_page(voltages, False, refs, cutoff)) == [1, 0]
    assert list(sense_page(voltages, True, refs, cutoff)) == [1, 1]


def test_page_sense_consistent_with_state_sense():
    """Page bit = gray bit of the fully sensed state, for any voltage."""
    from repro.flash.state import lsb_of_state, msb_of_state

    rng = np.random.default_rng(3)
    voltages = rng.uniform(-20, 520, 2000)
    states = sense_states(voltages)
    assert np.array_equal(sense_page(voltages, False), lsb_of_state(states))
    assert np.array_equal(sense_page(voltages, True), msb_of_state(states))


def test_references_must_be_ordered():
    with pytest.raises(ValueError):
        ReadReferences(va=200, vb=100, vc=300)
