#!/usr/bin/env bash
# Re-record the perf trajectory (BENCH_physics.json) at full scale.
#
# The committed BENCH_physics.json is *data recorded on one machine*;
# tools/check_bench.py gates later commits against it.  The multi-core
# speedup floors arm themselves only when the recorded payloads carry
# enough cores: the workers=2 sweep floor (>=1.3x) and the threaded:2
# read-phase floor (>=1.1x) need cpu_count >= 2, the 4-worker sweep and
# threaded:4 floors (>=1.5x) need cpu_count >= 4.  cpu_count counts the
# CPUs in the recording process's affinity mask (nproc reports the
# same), so a taskset or cpuset cannot arm floors it has no cores for.
# Re-recording on such a machine is what turns them on.  Procedure:
#
#   1. Run this script on the target machine (no BENCH_SMOKE in the
#      environment — smoke payloads are never written).
#   2. Inspect the refreshed BENCH_physics.json and the tables under
#      benchmarks/results/.
#   3. python tools/check_bench.py   # floors must hold, and the
#      "armed" count should include the core-gated ones the machine
#      had the cores for.
#   4. Commit BENCH_physics.json with a note naming the machine.
#
# Each bench file asserts bit-identity between its serial reference and
# every parallel configuration before recording a single number, so a
# recording run is also an equivalence check at full scale.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "recording perf trajectory on $(nproc 2>/dev/null || echo '?') CPU(s)..."

PYTHONPATH=src python -m pytest \
    benchmarks/bench_engine_throughput.py \
    benchmarks/bench_physics_hotpath.py \
    benchmarks/bench_sweep_parallel.py \
    benchmarks/bench_intra_scenario.py \
    benchmarks/bench_campaign_store.py \
    -o python_functions='bench_*' -q "$@"

python tools/check_bench.py
