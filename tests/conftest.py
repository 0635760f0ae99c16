"""Shared fixtures: small geometries and coarse models keep the suite fast
while exercising the same code paths as the full-size benches."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flash import FlashBlock, FlashChip, FlashGeometry
from repro.model import FlashChannelModel
from repro.rng import RngFactory


def pytest_configure(config):
    # Numeric edge cases must be handled, never left as a stray warning.
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_geometry() -> FlashGeometry:
    return FlashGeometry(blocks=2, wordlines_per_block=8, bitlines_per_block=512)


@pytest.fixture
def block(small_geometry) -> FlashBlock:
    return FlashBlock(small_geometry, RngFactory(7))


@pytest.fixture
def programmed_block(small_geometry) -> FlashBlock:
    blk = FlashBlock(small_geometry, RngFactory(7))
    blk.cycle_wear_to(8000)
    blk.program_random()
    return blk


@pytest.fixture
def chip(small_geometry) -> FlashChip:
    return FlashChip(small_geometry, seed=11)


@pytest.fixture(scope="session")
def fast_model() -> FlashChannelModel:
    """Coarse-grid analytic model: ~5x faster, plenty for assertions."""
    return FlashChannelModel(grid_points=500, leak_nodes=5)
