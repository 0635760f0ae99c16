"""Physics hot-path throughput: batched vs. per-page scalar primitives.

PR 2 vectorized the flash-physics hot path — block-level batched sensing
and decode behind an epoch-keyed voltage cache, plus one-pass block
programming.  This bench tracks the primitive-level numbers the engine
rides on:

- pages ECC-decoded per second (``EccDecoder.check_pages`` vs. a
  ``check_page`` loop), at nominal Vpass and at a relaxed Vpass where the
  scalar path pays one full-block cutoff scan *per page* while the
  batched path shares a single mask;
- block-RBER measurements per second (``measure_block_rber``, one
  materialization per call) vs. the per-page scalar loop it replaced;
- blocks programmed per second (``program_random`` one-pass sampling vs.
  the per-wordline loop).

Results print as a table, archive to ``benchmarks/results/``, and merge
into the machine-readable ``BENCH_physics.json`` at the repo root so the
perf trajectory is tracked from PR to PR.  Set ``BENCH_SMOKE=1`` for a
seconds-scale CI smoke that exercises every code path at toy sizes.
"""

import os
import time

import numpy as np

from repro.analysis.reporting import format_table
from repro.ecc import EccDecoder
from repro.flash import FlashBlock, FlashGeometry
from repro.rng import RngFactory
from repro.units import hours

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))

#: characterization-class block (paper-scale wordlines x bitlines).
GEOMETRY = (
    FlashGeometry(blocks=1, wordlines_per_block=8, bitlines_per_block=512)
    if SMOKE
    else FlashGeometry(blocks=1, wordlines_per_block=64, bitlines_per_block=8192)
)
PE_CYCLES = 8000
READS = 500_000
# Smoke rounds are sized so every timed window stays >= ~50ms — small
# enough for CI, large enough that one scheduler preemption cannot flip
# the asserted speedup ratio.
DECODE_ROUNDS = 60 if SMOKE else 20
SCALAR_DECODE_ROUNDS = 20 if SMOKE else 3
RBER_ROUNDS = 20 if SMOKE else 30
PROGRAM_ROUNDS = 10 if SMOKE else 5
RELAXED_VPASS = 500.0


def _prepared_block(seed: int = 0) -> FlashBlock:
    block = FlashBlock(GEOMETRY, RngFactory(seed))
    block.cycle_wear_to(PE_CYCLES)
    block.program_random()
    block.apply_read_disturb(READS, target_wordline=0)
    return block


def _decode_rates(vpass: float) -> tuple[float, float]:
    """(scalar, batched) pages-decoded/sec at *vpass*.

    Each round bumps the disturb state first, as a controller flush
    would, so the batched path pays a real materialization per round
    rather than replaying a warm cache.
    """
    decoder = EccDecoder()
    pages = np.arange(GEOMETRY.pages_per_block)
    block = _prepared_block()
    start = time.perf_counter()
    for _ in range(SCALAR_DECODE_ROUNDS):
        block.record_read(0, vpass)
        for page in pages:
            decoder.check_page(block, int(page), hours(1), vpass)
    scalar = SCALAR_DECODE_ROUNDS * pages.size / (time.perf_counter() - start)
    block = _prepared_block()
    start = time.perf_counter()
    for _ in range(DECODE_ROUNDS):
        block.record_read(0, vpass)
        decoder.check_pages(block, pages, hours(1), vpass)
    batched = DECODE_ROUNDS * pages.size / (time.perf_counter() - start)
    return scalar, batched


def _rber_rates() -> tuple[float, float]:
    """(scalar, batched) block-RBER measurements/sec."""
    block = _prepared_block()
    start = time.perf_counter()
    for _ in range(max(RBER_ROUNDS // 10, 1)):
        block.record_read(0)
        errors = 0
        for page in range(GEOMETRY.pages_per_block):
            errors += block.page_error_count(page, hours(1), record_disturb=False)
    scalar = max(RBER_ROUNDS // 10, 1) / (time.perf_counter() - start)
    block = _prepared_block()
    start = time.perf_counter()
    for _ in range(RBER_ROUNDS):
        block.record_read(0)
        block.measure_block_rber(hours(1))
    batched = RBER_ROUNDS / (time.perf_counter() - start)
    return scalar, batched


def _program_rates() -> tuple[float, float]:
    """(per-wordline, one-pass) blocks programmed/sec."""
    block = FlashBlock(GEOMETRY, RngFactory(1))
    block.cycle_wear_to(PE_CYCLES)
    bits = GEOMETRY.bitlines_per_block
    start = time.perf_counter()
    for _ in range(PROGRAM_ROUNDS):
        block.erase()
        rng = block._rng
        for wordline in range(GEOMETRY.wordlines_per_block):
            lsb = rng.integers(0, 2, bits, dtype=np.uint8)
            msb = rng.integers(0, 2, bits, dtype=np.uint8)
            block.program_wordline_bits(wordline, lsb, msb)
    scalar = PROGRAM_ROUNDS / (time.perf_counter() - start)
    start = time.perf_counter()
    for _ in range(PROGRAM_ROUNDS):
        block.erase()
        block.program_random()
    batched = PROGRAM_ROUNDS / (time.perf_counter() - start)
    return scalar, batched


def _sweep():
    rows = []
    payload = {
        "smoke": SMOKE,
        "cpu_count": os.cpu_count(),
        "wordlines_per_block": GEOMETRY.wordlines_per_block,
        "bitlines_per_block": GEOMETRY.bitlines_per_block,
        "pe_cycles": PE_CYCLES,
    }
    speedups = {}
    for label, key, vpass in [
        ("decode pages/sec @ nominal Vpass", "decode_nominal", None),
        ("decode pages/sec @ relaxed Vpass", "decode_relaxed", RELAXED_VPASS),
    ]:
        scalar, batched = _decode_rates(512.0 if vpass is None else vpass)
        speedups[key] = batched / scalar
        rows.append([label, f"{scalar:,.0f}", f"{batched:,.0f}", f"{batched / scalar:.1f}x"])
        payload[f"{key}_pages_per_sec_scalar"] = round(scalar, 1)
        payload[f"{key}_pages_per_sec_batched"] = round(batched, 1)
        payload[f"{key}_speedup"] = round(batched / scalar, 2)
    scalar, batched = _rber_rates()
    speedups["rber"] = batched / scalar
    rows.append(
        ["block-RBER measurements/sec", f"{scalar:,.1f}", f"{batched:,.1f}", f"{batched / scalar:.1f}x"]
    )
    payload["block_rber_per_sec_scalar"] = round(scalar, 2)
    payload["block_rber_per_sec_batched"] = round(batched, 2)
    payload["block_rber_speedup"] = round(batched / scalar, 2)
    scalar, batched = _program_rates()
    speedups["program"] = batched / scalar
    rows.append(
        ["blocks programmed/sec", f"{scalar:,.1f}", f"{batched:,.1f}", f"{batched / scalar:.1f}x"]
    )
    payload["blocks_programmed_per_sec_scalar"] = round(scalar, 2)
    payload["blocks_programmed_per_sec_batched"] = round(batched, 2)
    payload["program_speedup"] = round(batched / scalar, 2)
    return rows, payload, speedups


def bench_physics_hotpath(benchmark, emit, emit_json):
    rows, payload, speedups = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = format_table(
        ["primitive", "scalar", "batched", "speedup"],
        rows,
        title=(
            f"Physics hot path ({GEOMETRY.wordlines_per_block}x"
            f"{GEOMETRY.bitlines_per_block} block, {PE_CYCLES} P/E, "
            f"{READS:,} prior reads{', SMOKE' if SMOKE else ''})"
        ),
    )
    emit("physics_hotpath", table)
    emit_json("physics_hotpath", payload)
    # The structural win — one shared cutoff mask instead of a full-block
    # scan per page — must stay an order of magnitude.  The pure-FLOPs
    # primitives (nominal-Vpass decode, RBER, programming) gain less at
    # characterization width, where numpy work dominates call overhead;
    # they are tracked in the JSON rather than gated.
    assert speedups["decode_relaxed"] >= (3.0 if SMOKE else 10.0), speedups
