"""Pass-through (bitline cutoff) error model: Figure 5's physics."""

import warnings

import pytest

from repro.physics import constants
from repro.physics.pass_through import PassThroughModel
from repro.units import VPASS_NOMINAL, days


@pytest.fixture(scope="module")
def model():
    return PassThroughModel(wordlines_per_block=128)


def test_no_errors_at_nominal_vpass(model):
    assert model.additional_rber(VPASS_NOMINAL, 8000) == pytest.approx(0.0, abs=1e-12)
    assert model.additional_rber(constants.PROGRAM_VERIFY_MAX, 8000) == 0.0


def test_errors_grow_as_vpass_relaxes(model):
    values = [model.additional_rber(v, 8000) for v in (500.0, 490.0, 480.0, 470.0)]
    assert values[0] < values[1] < values[2] < values[3]


def test_retention_reduces_cutoff_errors(model):
    """Older data tolerates deeper relaxation (Figure 5 age ordering)."""
    ages = [0.0, days(1), days(6), days(21)]
    series = [model.additional_rber(485.0, 8000, a) for a in ages]
    for young, old in zip(series, series[1:]):
        assert old < young
    # ... but slow-leaking cells keep the errors from vanishing outright.
    assert series[-1] > 0.0


def test_figure5_magnitudes(model):
    """0-day curve reaches ~1e-3 around Vpass=480 (paper Figure 5)."""
    addl = model.additional_rber(480.0, 8000, 0.0)
    assert 3e-4 < addl < 3e-3


def test_more_wordlines_more_cutoffs():
    few = PassThroughModel(wordlines_per_block=32).additional_rber(485.0, 8000)
    many = PassThroughModel(wordlines_per_block=256).additional_rber(485.0, 8000)
    assert many > few


def test_max_safe_reduction_monotone_in_budget(model):
    small = model.max_safe_vpass_reduction(1e-5, 8000)
    large = model.max_safe_vpass_reduction(1e-3, 8000)
    assert large >= small >= 0.0
    assert model.max_safe_vpass_reduction(-1.0, 8000) == 0.0


def test_invalid_parameters():
    with pytest.raises(ValueError):
        PassThroughModel(wordlines_per_block=1)
    with pytest.raises(ValueError):
        PassThroughModel(state_fractions=(0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        PassThroughModel().cell_cutoff_probability(0.0, 8000)


def test_subnormal_retention_age_is_the_no_leak_limit():
    """A subnormal age makes the retention coefficient subnormal, and the
    leak requirement would overflow; in that limit nothing has leaked,
    so the answer is the age-0 one, with no RuntimeWarning."""
    model = PassThroughModel(wordlines_per_block=64, grid_points=120)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        aged = model.additional_rber(450.0, 0, 2.225073858507e-311)
        fresh = model.additional_rber(450.0, 0, 0.0)
    assert aged == fresh
