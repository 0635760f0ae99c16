"""Synthetic workload generation matches its spec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.units import SECONDS_PER_DAY
from repro.workloads import SyntheticWorkload, WorkloadSpec

SPEC = WorkloadSpec(
    name="unit",
    description="test workload",
    iops=2.0,
    read_fraction=0.7,
    working_set_pages=4096,
    read_zipf_theta=0.9,
    sequential_read_fraction=0.1,
)


def test_operation_rate_and_mix():
    trace = SyntheticWorkload(SPEC, seed=1).generate(1.0)
    expected_ops = SPEC.iops * SECONDS_PER_DAY
    assert len(trace) == pytest.approx(expected_ops, rel=0.05)
    assert trace.read_fraction == pytest.approx(SPEC.read_fraction, abs=0.02)
    assert trace.duration_seconds <= SECONDS_PER_DAY


def test_addresses_within_working_set():
    trace = SyntheticWorkload(SPEC, seed=1).generate(0.5)
    assert trace.lpns.max() < SPEC.working_set_pages
    assert trace.lpns.min() >= 0


def test_zipf_skew_concentrates_reads():
    skewed = SyntheticWorkload(SPEC, seed=2).generate(1.0)
    uniform_spec = WorkloadSpec(
        name="uniform", description="", iops=2.0, read_fraction=0.7,
        working_set_pages=4096, read_zipf_theta=0.0, sequential_read_fraction=0.0,
    )
    uniform = SyntheticWorkload(uniform_spec, seed=2).generate(1.0)

    def top_page_share(trace):
        reads = trace.lpns[trace.ops == 0]
        counts = np.bincount(reads, minlength=4096)
        return counts.max() / counts.sum()

    assert top_page_share(skewed) > 5 * top_page_share(uniform)


def test_reproducible_by_seed():
    a = SyntheticWorkload(SPEC, seed=5).generate(0.2)
    b = SyntheticWorkload(SPEC, seed=5).generate(0.2)
    assert np.array_equal(a.lpns, b.lpns)
    assert np.allclose(a.timestamps, b.timestamps)
    c = SyntheticWorkload(SPEC, seed=6).generate(0.2)
    assert not np.array_equal(a.lpns, c.lpns)


def test_duration_validation():
    with pytest.raises(ValueError):
        SyntheticWorkload(SPEC).generate(0.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec("x", "", iops=0.0, read_fraction=0.5, working_set_pages=10, read_zipf_theta=0.5)
    with pytest.raises(ValueError):
        WorkloadSpec("x", "", iops=1.0, read_fraction=1.5, working_set_pages=10, read_zipf_theta=0.5)
    with pytest.raises(ValueError):
        WorkloadSpec("x", "", iops=1.0, read_fraction=0.5, working_set_pages=0, read_zipf_theta=0.5)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(0, 2000),
    values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    data=st.data(),
)
def test_sample_pages_equals_direct_search(seed, count, values, data):
    """Sorting the draws before the CDF search picks the same pages as
    searching them in draw order, on non-decreasing CDFs with plateaus
    and with draws that land exactly on a CDF value."""
    draws = np.random.default_rng(seed).random(count)
    hits = data.draw(st.lists(st.integers(0, count - 1), max_size=10)) if count else []
    pool = np.sort(np.concatenate([values, draws[hits]]))
    repeats = data.draw(
        st.lists(st.integers(1, 4), min_size=pool.size, max_size=pool.size)
    )
    cdf = np.repeat(pool, repeats)
    # One page per possible rank, including len(cdf) for draws above cdf[-1].
    permutation = np.random.default_rng(seed ^ 1).permutation(cdf.size + 1)

    direct_rng = np.random.default_rng(seed)
    expected = permutation[np.searchsorted(cdf, direct_rng.random(count), side="left")]
    rng = np.random.default_rng(seed)
    pages = SyntheticWorkload._sample_pages(rng, cdf, permutation, count)

    assert pages.dtype == np.int64
    np.testing.assert_array_equal(pages, expected)
    assert rng.bit_generator.state == direct_rng.bit_generator.state
