"""ECC provisioning math."""

import pytest

from repro.ecc import DEFAULT_ECC, EccConfig


def test_default_tolerable_rber_near_paper_value():
    """The paper: ECC tolerates RBER up to ~1e-3 (Section 2.5)."""
    assert DEFAULT_ECC.tolerable_rber == pytest.approx(1e-3, rel=0.25)


def test_tolerable_below_raw_capability():
    assert DEFAULT_ECC.tolerable_rber < DEFAULT_ECC.raw_capability_rber


def test_failure_probability_monotone():
    cfg = DEFAULT_ECC
    assert cfg.codeword_failure_probability(1e-4) < cfg.codeword_failure_probability(5e-3)
    assert cfg.codeword_failure_probability(0.0) == 0.0


def test_failure_target_met_at_tolerable_rber():
    cfg = DEFAULT_ECC
    assert cfg.codeword_failure_probability(cfg.tolerable_rber) == pytest.approx(
        cfg.codeword_failure_target, rel=1e-3
    )


def test_page_capability_scales_with_page_size():
    cfg = DEFAULT_ECC
    assert cfg.page_capability_bits(65536) > cfg.page_capability_bits(16384) >= 1


def test_usable_capability_reserves_margin():
    """M uses (1 - 0.2) * C (the paper's 20% reserved margin)."""
    cfg = DEFAULT_ECC
    cap = cfg.page_capability_bits(65536)
    assert cfg.usable_capability_bits(65536) == int(0.8 * cap)


def test_worst_page_errors_above_mean():
    cfg = DEFAULT_ECC
    mee = cfg.expected_worst_page_errors(5e-4, 65536, pages=256)
    assert mee > 5e-4 * 65536  # worst page exceeds the mean
    assert cfg.expected_worst_page_errors(0.0, 65536, pages=256) == 0


def test_stronger_code_tolerates_more():
    weak = EccConfig(codeword_bits=9216, correctable_bits=20)
    strong = EccConfig(codeword_bits=9216, correctable_bits=60)
    assert strong.tolerable_rber > weak.tolerable_rber


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        EccConfig(correctable_bits=0)
    with pytest.raises(ValueError):
        EccConfig(codeword_bits=100, correctable_bits=100)
    with pytest.raises(ValueError):
        EccConfig(reserved_margin_fraction=1.0)
    with pytest.raises(ValueError):
        DEFAULT_ECC.codeword_failure_probability(1.5)
