"""Batched RS decode throughput: vectorized engine vs. per-page loop.

The RS engine (:mod:`repro.ecc.rs`) exists to make symbol-level decoding
affordable inside the simulator's flush loop: syndromes, Berlekamp-
Massey, Chien search, and Forney all run as ``(pages, ...)`` ndarray
passes over the whole batch at once.  This bench decodes one full batch
of pages (realistic error mix: mostly clean, a correctable band, a thin
uncorrectable tail) two ways —

- **batched** — one ``EccDecoder.decode_error_masks`` call, and
- **looped** — the same decoder fed one page at a time, the shape a
  naive per-page controller loop would have —

asserts the results are bit-identical, and records the speedup into
``BENCH_physics.json`` (floor gated by ``tools/check_bench.py``; the
ISSUE-8 acceptance bar is >= 10x at 512 pages).
"""

import os
import time

import numpy as np

from repro.analysis.reporting import format_table
from repro.ecc import EccConfig, EccDecoder

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
#: CPUs this process may run on (its affinity mask), not every CPU of
#: the host: tools/check_bench.py arms core-gated floors from it.
CPUS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)

PAGES = 64 if SMOKE else 512
PAGE_BITS = 1024 if SMOKE else 4096
LOOP_PAGES = 16 if SMOKE else 64  # the loop is the slow side; sample it


def _masks() -> np.ndarray:
    """A realistic flush batch: mostly clean pages, a correctable band,
    and a thin uncorrectable tail (every branch of the decoder hot)."""
    rng = np.random.default_rng(2015)
    masks = np.zeros((PAGES, PAGE_BITS), dtype=bool)
    kinds = rng.random(PAGES)
    for i in range(PAGES):
        if kinds[i] < 0.70:
            continue  # clean — the early-exit path
        if kinds[i] < 0.95:
            flips = int(rng.integers(1, 40))  # correctable scatter
        else:
            flips = int(rng.integers(300, 600))  # beyond capability
        masks[i, rng.choice(PAGE_BITS, size=flips, replace=False)] = True
    return masks


def _time_batched(decoder, masks):
    start = time.perf_counter()
    batch = decoder.decode_error_masks(masks)
    return time.perf_counter() - start, batch


def _time_looped(decoder, masks):
    """Per-page decode loop over a sample of the batch, extrapolated."""
    start = time.perf_counter()
    results = [
        decoder.decode_error_masks(masks[i : i + 1]) for i in range(LOOP_PAGES)
    ]
    elapsed = (time.perf_counter() - start) * (PAGES / LOOP_PAGES)
    return elapsed, results


def _sweep():
    decoder = EccDecoder(EccConfig(decoder="rs", rs_n=255, rs_k=223))
    masks = _masks()
    decoder.decode_error_masks(masks)  # warm the page-codec tables
    batched_s, batch = _time_batched(decoder, masks)
    looped_s, pages = _time_looped(decoder, masks)
    for i, single in enumerate(pages):
        assert batch.page(i) == single.page(0), f"page {i} diverged from the loop"
    speedup = looped_s / batched_s
    rows = [
        ["batched", f"{PAGES}", f"{batched_s * 1e3:.1f}", f"{PAGES / batched_s:,.0f}", "1.00x"],
        [
            "looped",
            f"{PAGES}",
            f"{looped_s * 1e3:.1f}",
            f"{PAGES / looped_s:,.0f}",
            f"{1 / speedup:.2f}x",
        ],
    ]
    payload = {
        "smoke": SMOKE,
        "cpu_count": CPUS,
        "pages": PAGES,
        "page_bits": PAGE_BITS,
        "uncorrectable_pages": int((~batch.success).sum()),
        "seconds_batched": round(batched_s, 4),
        "seconds_looped": round(looped_s, 4),
        "pages_per_sec_batched": round(PAGES / batched_s, 1),
        "speedup_batched": round(speedup, 2),
    }
    return rows, payload


def bench_rs_decode(benchmark, emit, emit_json):
    rows, payload = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = format_table(
        ["path", "pages", "ms", "pages/sec", "relative"],
        rows,
        title=(
            f"Batched RS(255,223) mask decode vs. per-page loop "
            f"({PAGES} pages x {PAGE_BITS} bits{', SMOKE' if SMOKE else ''})"
        ),
    )
    emit("rs_decode", table)
    emit_json("rs_decode", payload)
    if not SMOKE:
        assert payload["speedup_batched"] >= 10.0, (
            f"batched RS decode speedup regressed to "
            f"{payload['speedup_batched']:.2f}x"
        )
