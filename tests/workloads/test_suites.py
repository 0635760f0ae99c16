"""The 14-workload evaluation suite."""

import hashlib

import numpy as np
import pytest

from repro.workloads import WORKLOAD_SUITE, get_workload, workload_names


def test_suite_has_fourteen_workloads():
    assert len(WORKLOAD_SUITE) == 14
    assert len(workload_names()) == 14


def test_all_specs_valid_and_described():
    for name, spec in WORKLOAD_SUITE.items():
        assert spec.name == name
        assert spec.description
        assert 0.0 < spec.read_fraction < 1.0
        assert spec.iops > 0


def test_suite_spans_read_intensities():
    """The paper's suite mixes read-hot and write-heavy workloads."""
    fractions = [s.read_fraction for s in WORKLOAD_SUITE.values()]
    assert min(fractions) < 0.3
    assert max(fractions) > 0.7


def test_get_workload_generates(tmp_path):
    trace = get_workload("postmark", seed=3).generate(0.05)
    assert len(trace) > 0
    assert trace.name == "postmark"


def test_unknown_workload_rejected():
    with pytest.raises(KeyError):
        get_workload("nope")


#: SHA-256 over the little-endian ``timestamps``, ``ops`` and ``lpns``
#: bytes of each suite workload's trace at seed 0 and 0.01 days.
TRACE_SHA256 = {
    "web_0": "20e28ea3dc6ce430636b6ebc9a10761b81c7c1aa6828110aaec84dbcea99090a",
    "prxy_0": "1d94422b2b0d847bb4f2ade0df8d99ce3fa514ed86d86e83fe19a5d66c56ca5f",
    "hm_0": "fedd8fc6b113e4f5b0bb343c3226b17514daf7d8a3298e1fe786284741a6be88",
    "proj_0": "b45518612dfb1e5797676eecf6e11290ee47d26ab96ef286c28f1d934e0ca153",
    "prn_0": "fd5b2801dccc9a2b918f16ddb0b27d942f9c8d3c65868bdffd77f67f43b43b57",
    "rsrch_0": "b4578a3f1d29f8d592ec9794cdc305c969be15157ad4b57809a375c390a3c325",
    "src1_2": "466b2d9678e24aa609ca0c2796d6d3fb1fb0601cb7736a82e98de69a153c3deb",
    "stg_0": "48f4715e6f1ab3ae950d61c6e1f8ec5edcfb626f68df94dec2c66f8e22ef8c56",
    "ts_0": "d761db56a5046b83e20525424a0f1d840d7b505b286d37b4d4699cf2c2d6a638",
    "usr_0": "576e643b6fe8f8bdecfc1b7268d7ee9efda3c6a39d480b6a0035be7ebc3c226d",
    "wdev_0": "777f15fde2b6403658adfab42e05a584fdbef839cbe6e8212f88bb8cba951ade",
    "webmail": "b8dea06b47cafcfb1acc1334ec3b05279d65e2e9875778cdbdd1e4290d340d3d",
    "postmark": "514959b510d210a5d17df3e55c7f60ff53929379ec5d4db1d6e8d3699ca4fc1f",
    "cello99": "71143c22ceb84bbbbaa14a4bebe2c57b4c3ae8d0f42f21e63ffa324097560550",
}


def test_generated_traces_are_pinned():
    """Any change to trace generation, even one that keeps its
    statistics, changes every result downstream of it."""
    assert list(TRACE_SHA256) == workload_names()
    for name, expected in TRACE_SHA256.items():
        trace = get_workload(name, seed=0).generate(0.01)
        digest = hashlib.sha256()
        for values, dtype in (
            (trace.timestamps, "<f8"), (trace.ops, "<i8"), (trace.lpns, "<i8"),
        ):
            digest.update(np.ascontiguousarray(values, dtype=dtype).tobytes())
        assert digest.hexdigest() == expected, name
