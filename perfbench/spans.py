"""In-memory span recording around the simulator's public layer calls.

The benchmark never edits the program it measures.  Instead a
:class:`SpanRecorder` replaces a fixed list of public methods with thin
timing wrappers (:data:`WRAPPED`), keeps every span in memory while a
traced repetition runs, and folds the spans into the per-layer ledger
(:func:`ledger`).  Self time is a span's duration minus the time its
direct child spans cover.

Forked workers (the campaign's one-process-per-scenario tier) inherit
the wrappers.  Each one starts with an empty span list and writes its
spans to its own file when it exits; :meth:`SpanRecorder.collect` reads
them back.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing.util
import os
import statistics
import time
from pathlib import Path

#: (module, owner attribute or None for a module function, function, span name)
WRAPPED = (
    ("repro.controller.ftl", "PageMappingFtl", "write", "ftl.write"),
    ("repro.controller.ftl", "PageMappingFtl", "relocate_block", "ftl.relocate_block"),
    ("repro.controller.ftl", "PageMappingFtl", "read_many", "ftl.read_many"),
    ("repro.controller.backends", "FlashChipBackend", "on_reads", "backend.on_reads"),
    ("repro.controller.backends", "FlashChipBackend", "on_append", "backend.on_append"),
    ("repro.controller.backends", "FlashChipBackend", "on_append_many", "backend.on_append"),
    ("repro.controller.backends", "FlashChipBackend", "on_erase", "backend.on_erase"),
    ("repro.flash.block", "FlashBlock", "block_voltages", "flash.block_voltages"),
    ("repro.flash.block", "FlashBlock", "record_reads", "flash.record_reads"),
    ("repro.flash.block", "FlashBlock", "program_wordline_bits", "flash.program_wordline_bits"),
    ("repro.flash.block", "FlashBlock", "erase", "flash.erase"),
    ("repro.ecc.decoder", "EccDecoder", "check_pages", "ecc.check_pages"),
    ("repro.core.rdr", "ReadDisturbRecovery", "rescue_wordline", "rdr.rescue_wordline"),
    ("repro.workloads.synthetic", "SyntheticWorkload", "generate", "workloads.generate"),
    ("repro.parallel.store", "ResultStore", "append", "store.append"),
    ("repro.controller.factory", None, "run_scenario", "campaign.scenario"),
)

#: Every per-layer metric: (name, unit, better, layer, what it should move).
#: BENCHMARK.json's ``per_layer`` list carries the same names, units and
#: directions; the self-test checks that the two agree.
LAYER_METRICS = (
    ("ftl.write.self_s", "s", "lower", "controller.ftl", "ops_per_s on suite_campaign, write_churn"),
    ("ftl.relocate_block.self_s", "s", "lower", "controller.ftl", "ops_per_s on suite_campaign, write_churn"),
    ("ftl.relocate_block.calls", "count", "lower", "controller.ftl", "ops_per_s on suite_campaign, write_churn"),
    ("ftl.read_many.self_s", "s", "lower", "controller.ftl", "ops_per_s on suite_campaign, write_churn"),
    ("backend.on_reads.self_s", "s", "lower", "controller.backends", "ops_per_s on hot_read"),
    ("backend.on_reads.calls", "count", "lower", "controller.backends", "ops_per_s on hot_read"),
    ("backend.on_reads.p50_ms", "ms", "lower", "controller.backends", "ops_per_s on hot_read"),
    ("backend.on_reads.p99_ms", "ms", "lower", "controller.backends", "ops_per_s on hot_read"),
    ("backend.reads_per_flush", "count", "higher", "controller.backends", "ops_per_s on hot_read"),
    ("backend.on_append.self_s", "s", "lower", "controller.backends", "ops_per_s on write_churn"),
    ("backend.on_erase.self_s", "s", "lower", "controller.backends", "ops_per_s on write_churn"),
    ("flash.block_voltages.self_s", "s", "lower", "flash", "ops_per_s on hot_read, aged_rdr"),
    ("flash.block_voltages.calls", "count", "lower", "flash", "ops_per_s on hot_read, aged_rdr"),
    ("flash.block_voltages.hit_ratio", "ratio", "higher", "flash", "ops_per_s on hot_read, aged_rdr"),
    ("flash.record_reads.self_s", "s", "lower", "flash", "ops_per_s on hot_read, aged_rdr"),
    ("flash.program_wordline_bits.self_s", "s", "lower", "flash", "ops_per_s on write_churn; setup_s on hot_read"),
    ("flash.program_wordline_bits.calls", "count", "lower", "flash", "ops_per_s on write_churn; setup_s on hot_read"),
    ("flash.erase.self_s", "s", "lower", "flash", "ops_per_s on write_churn"),
    ("ecc.check_pages.self_s", "s", "lower", "ecc", "ops_per_s on hot_read"),
    ("ecc.check_pages.pages", "count", "lower", "ecc", "ops_per_s on hot_read"),
    ("rdr.rescue_wordline.self_s", "s", "lower", "core.rdr", "ops_per_s on aged_rdr"),
    ("rdr.rescue_wordline.calls", "count", "lower", "core.rdr", "ops_per_s on aged_rdr"),
    ("rdr.recovered_ratio", "ratio", "higher", "core.rdr", "ops_per_s on aged_rdr"),
    ("workloads.generate.self_s", "s", "lower", "workloads", "ops_per_s on suite_campaign"),
    ("store.append.self_s", "s", "lower", "parallel", "ops_per_s on suite_campaign"),
    ("store.append.calls", "count", "lower", "parallel", "ops_per_s on suite_campaign"),
    ("campaign.scenario.p50_s", "s", "lower", "parallel", "ops_per_s on suite_campaign"),
    ("campaign.idle_frac", "ratio", "lower", "parallel", "ops_per_s on suite_campaign"),
    ("trace.attributed_frac", "ratio", "higher", "trace", "none: timed wall covered by named layers"),
    ("trace.overhead_ratio", "ratio", "lower", "trace", "none: traced over untraced timed wall"),
)


def _size_of(position):
    """Extra: the length of positional argument *position*."""
    return lambda args, result: int(len(args[position]))


def _rescue_recovered(args, result):
    return int(bool(result[1]))


def _voltage_hits():
    """Extra: 1 when a block hands back the array it returned last time."""
    last: dict[int, object] = {}

    def extra(args, result):
        key = id(args[0])
        hit = last.get(key) is result
        last[key] = result
        return int(hit)

    extra.reset = last.clear
    return extra


class SpanRecorder:
    """Timing wrappers plus the in-memory span buffer they fill.

    A span is ``(name, start, end, parent, extra)``: *parent* indexes the
    enclosing span of the same process (-1 at top level) and *extra* is a
    per-call count (reads flushed, pages checked, cache hit, rescue
    recovered).  Wrappers cost one flag test while recording is off.
    """

    def __init__(self, span_dir: Path):
        self.span_dir = Path(span_dir)
        self.active = False
        self.spans: list = []
        self._stack: list[int] = []
        self._installed: list = []
        self._extras = {
            "backend.on_reads": _size_of(1),
            "ecc.check_pages": _size_of(2),
            "rdr.rescue_wordline": _rescue_recovered,
            "flash.block_voltages": _voltage_hits(),
        }
        multiprocessing.util.register_after_fork(self, SpanRecorder._after_fork)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every :data:`WRAPPED` function that exists; returns the
        names of those missing from the program (reported, not fatal)."""
        missing = []
        for module_name, owner_name, attr, span_name in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                missing.append(module_name)
                continue
            owner = module if owner_name is None else getattr(module, owner_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{module_name}.{owner_name or ''}.{attr}")
                continue
            setattr(owner, attr, self._wrap(span_name, original))
            self._installed.append((owner, attr, original))
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, name, original):
        recorder = self
        spans = self.spans
        stack = self._stack
        extra = self._extras.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            done = False
            start = clock()
            try:
                result = original(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                count = extra(args, result) if done and extra is not None else 0
                spans[index] = (name, start, end, parent, count)

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def start(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._extras["flash.block_voltages"].reset()
        self.span_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.span_dir.glob("spans-*.json"):
            stale.unlink()
        self.active = True

    def stop(self) -> None:
        self.active = False

    def _after_fork(self) -> None:
        """In a forked child: drop the parent's spans, dump ours at exit."""
        if not self.active:
            return
        self.spans.clear()
        self._stack.clear()
        multiprocessing.util.Finalize(self, self._dump, exitpriority=100)

    def _dump(self) -> None:
        self.active = False
        path = self.span_dir / f"spans-{os.getpid()}.json"
        with open(path, "w") as handle:
            json.dump([span for span in self.spans if span is not None], handle)

    def collect(self) -> list[list]:
        """Span lists of this process and of every child that exited."""
        lists = [[span for span in self.spans if span is not None]]
        for path in sorted(self.span_dir.glob("spans-*.json")):
            with open(path) as handle:
                lists.append([tuple(span) for span in json.load(handle)])
        return lists


def _union_length(intervals, lo: float, hi: float) -> float:
    """Total length of the union of *intervals* clipped to [lo, hi]."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def ledger(span_lists, window: tuple[float, float], wall: float, workers: int = 1) -> dict:
    """Fold span lists (one per process) into the per-layer metrics.

    *window* is the timed phase ``(start, end)`` on the
    ``time.perf_counter`` clock, which forked children share on Linux;
    *wall* is its measured length (the window less any benchmark-side
    work inside it).
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    extra: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    top_level = []
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, count in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, count) in enumerate(spans):
            duration = end - start
            self_s[name] = self_s.get(name, 0.0) + duration - child_time[index]
            calls[name] = calls.get(name, 0) + 1
            extra[name] = extra.get(name, 0) + count
            durations.setdefault(name, []).append(duration)
            if parent < 0:
                top_level.append((start, end))
    lo, hi = window

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def quantile(name, q):
        values = sorted(durations.get(name, ()))
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(q * len(values)))]

    scenario = durations.get("campaign.scenario", [])
    metrics = {
        "ftl.write.self_s": self_s.get("ftl.write", 0.0),
        "ftl.relocate_block.self_s": self_s.get("ftl.relocate_block", 0.0),
        "ftl.relocate_block.calls": calls.get("ftl.relocate_block", 0),
        "ftl.read_many.self_s": self_s.get("ftl.read_many", 0.0),
        "backend.on_reads.self_s": self_s.get("backend.on_reads", 0.0),
        "backend.on_reads.calls": calls.get("backend.on_reads", 0),
        "backend.on_reads.p50_ms": 1e3 * quantile("backend.on_reads", 0.50),
        "backend.on_reads.p99_ms": 1e3 * quantile("backend.on_reads", 0.99),
        "backend.reads_per_flush": ratio(
            extra.get("backend.on_reads", 0), calls.get("backend.on_reads", 0)
        ),
        "backend.on_append.self_s": self_s.get("backend.on_append", 0.0),
        "backend.on_erase.self_s": self_s.get("backend.on_erase", 0.0),
        "flash.block_voltages.self_s": self_s.get("flash.block_voltages", 0.0),
        "flash.block_voltages.calls": calls.get("flash.block_voltages", 0),
        "flash.block_voltages.hit_ratio": ratio(
            extra.get("flash.block_voltages", 0), calls.get("flash.block_voltages", 0)
        ),
        "flash.record_reads.self_s": self_s.get("flash.record_reads", 0.0),
        "flash.program_wordline_bits.self_s": self_s.get("flash.program_wordline_bits", 0.0),
        "flash.program_wordline_bits.calls": calls.get("flash.program_wordline_bits", 0),
        "flash.erase.self_s": self_s.get("flash.erase", 0.0),
        "ecc.check_pages.self_s": self_s.get("ecc.check_pages", 0.0),
        "ecc.check_pages.pages": extra.get("ecc.check_pages", 0),
        "rdr.rescue_wordline.self_s": self_s.get("rdr.rescue_wordline", 0.0),
        "rdr.rescue_wordline.calls": calls.get("rdr.rescue_wordline", 0),
        "rdr.recovered_ratio": ratio(
            extra.get("rdr.rescue_wordline", 0), calls.get("rdr.rescue_wordline", 0)
        ),
        "workloads.generate.self_s": self_s.get("workloads.generate", 0.0),
        "store.append.self_s": self_s.get("store.append", 0.0),
        "store.append.calls": calls.get("store.append", 0),
        "campaign.scenario.p50_s": statistics.median(scenario) if scenario else 0.0,
        "campaign.idle_frac": (
            max(0.0, 1.0 - sum(scenario) / (workers * wall)) if scenario else 0.0
        ),
        "trace.attributed_frac": ratio(_union_length(top_level, lo, hi), wall),
    }
    return {"metrics": metrics, "self_s": self_s, "wall_s": wall}
