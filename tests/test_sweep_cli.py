"""``python -m repro.sweep`` grid construction: multi-valued axes,
executor plumbing, and a tiny end-to-end run."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.parallel.store import ResultStore
from repro.sweep import build_grid, build_parser, main


def _args(*argv):
    return build_parser().parse_args(list(argv))


def test_default_grid_is_single_cell():
    grid = build_grid(_args())
    assert len(grid) == 1
    scenario = grid.scenarios()[0]
    assert scenario.policy.name == "baseline"
    assert scenario.backend.executor == "serial"


def test_multi_valued_reclaim_builds_ablation_axis():
    grid = build_grid(_args("--reclaim", "0", "50000", "100000"))
    labels = [p.label for p in grid.policies]
    assert labels == ["baseline", "reclaim-rc50000", "reclaim-rc100000"]
    assert len(grid) == 3
    thresholds = [p.read_reclaim_threshold for p in grid.policies]
    assert thresholds == [None, 50000, 100000]


def test_refresh_and_reclaim_axes_combine():
    grid = build_grid(
        _args("--refresh-days", "3", "7", "--reclaim", "0", "20000")
    )
    assert len(grid.policies) == 4
    assert len(grid) == 4
    assert len({p.label for p in grid.policies}) == 4


def test_flash_chip_backend_axes_combine():
    grid = build_grid(
        _args(
            "--backend", "flash_chip",
            "--pe-cycles", "0", "8000",
            "--vpass", "512", "500",
        )
    )
    assert len(grid.backends) == 4
    assert len({b.label for b in grid.backends}) == 4


def test_counter_backend_rejects_physics_axes():
    with pytest.raises(SystemExit, match="counter backend"):
        build_grid(_args("--pe-cycles", "0", "8000"))


def test_duplicate_axis_values_fail_cleanly():
    with pytest.raises(SystemExit, match="distinct labels"):
        build_grid(_args("--reclaim", "0", "0"))


def test_executor_flags(capsys):
    """--executor takes the executor spec string and checks it at parse
    time; the deleted --executor-workers is a usage error."""
    grid = build_grid(_args("--backend", "flash_chip", "--executor", "threaded"))
    assert grid.backends[0].executor == "threaded"
    grid = build_grid(
        _args("--backend", "flash_chip", "--executor", "threaded:3")
    )
    assert grid.backends[0].executor == "threaded:3"
    with pytest.raises(SystemExit) as excinfo:
        _args("--executor", "threaded:0")
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--executor" in err and "bad executor worker count" in err
    with pytest.raises(SystemExit) as excinfo:
        _args("--executor-workers", "3")
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["--decoder", "rs"], ["--rs-code", "255,223"], ["--fault-pattern", "burst2:0.01"]],
)
def test_deleted_ecc_flags_are_usage_errors(capsys, argv):
    """The Reed-Solomon engine and the symbol fault injector are gone
    (the threshold rule is the one ECC rule): their flags are argparse
    usage errors."""
    with pytest.raises(SystemExit) as excinfo:
        _args("--backend", "flash_chip", *argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_flash_chip_campaign_runs_and_resumes(capsys, tmp_path):
    """End-to-end: a flash-chip scenario through the campaign store,
    resumed, with --serial-check pinning bit-identity."""
    store = tmp_path / "store"
    argv = [
        "--workloads", "web_0",
        "--days", "0.01",
        "--backend", "flash_chip",
        "--blocks", "12", "--pages-per-block", "16",
        "--overprovision", "0.25",
        "--bitlines", "512",
        "--campaign", str(store),
        "--serial-check",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "campaign over 1 scenario(s)" in out
    assert "serial check" in out
    assert main(argv + ["--resume"]) == 0
    out = capsys.readouterr().out
    assert "resumed: 1 scenario(s)" in out


def test_cli_campaign_runs_and_resumes(capsys, tmp_path):
    """End-to-end: --campaign lands results durably, a rerun with
    --resume skips them, and --serial-check pins bit-identity."""
    store = tmp_path / "store"
    argv = [
        "--workloads", "web_0",
        "--days", "0.01",
        "--blocks", "64", "--pages-per-block", "64",
        "--seeds", "2",
        "--campaign", str(store),
        "--on-failure", "continue",
        "--serial-check",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "campaign over 2 scenario(s)" in out
    assert "serial check" in out
    # Rerunning without --resume refuses to touch the existing store.
    with pytest.raises(SystemExit, match="--resume"):
        main(argv)
    assert main(argv + ["--resume"]) == 0
    out = capsys.readouterr().out
    assert "resumed: 2 scenario(s)" in out


def test_cli_campaign_flag_dependencies(capsys, tmp_path):
    with pytest.raises(SystemExit, match="--campaign"):
        main(["--resume"])
    with pytest.raises(SystemExit, match="--campaign"):
        main(["--shard", "0/2"])
    # Two failure policies; anything else, retry:N included, is a usage
    # error before any store is touched.
    for policy in ("panic", "retry:2"):
        with pytest.raises(SystemExit) as excinfo:
            main(["--campaign", str(tmp_path / "s"), "--on-failure", policy])
        assert excinfo.value.code == 2
        assert "--on-failure: invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


# ("-1/2" looks like an option to argparse and dies with its own
# "expected one argument" error; parse_shard's unit test covers it.)
@pytest.mark.parametrize("spec", ["2/2", "0/0", "3/2", "a/b", "1"])
def test_cli_shard_is_validated_at_parse_time(capsys, spec):
    """Malformed --shard specs die in argparse with an error naming the
    flag, not later as a raw exception from the campaign layer."""
    with pytest.raises(SystemExit) as excinfo:
        main(["--campaign", "unused", "--shard", spec])
    assert excinfo.value.code == 2  # argparse usage error
    err = capsys.readouterr().err
    assert "--shard" in err
    assert "bad shard spec" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--elastic"],
        ["--lease-ttl", "30"],
        ["--lease-batch", "1"],
        ["--worker-name", "wA"],
        ["--resident-blocks", "4"],
        ["--trace-detail", "block"],
    ],
)
def test_cli_rejects_the_deleted_elastic_flags(capsys, tmp_path, argv):
    """The lease scheduler's flags, the out-of-core block budget and the
    trace detail level (tracing is on or off) are gone: argparse rejects
    them with a usage error before any store is touched."""
    store = tmp_path / "store"
    with pytest.raises(SystemExit) as excinfo:
        main(["--campaign", str(store), *argv])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not store.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--workers", "0"], "at least one worker"),
        (["--blocks", "2"], "at least 4 blocks"),
        (["--overprovision", "0.6"], "overprovision must be in"),
        (["--progress", "0"], "--progress must be positive"),
        (["--progress", "-1"], "--progress must be positive"),
    ],
)
@pytest.mark.parametrize("campaign", [False, True], ids=["sweep", "campaign"])
def test_cli_rejects_bad_inputs_before_any_work(tmp_path, argv, message, campaign):
    """Inputs no scenario could run with exit with a one-line message
    (no traceback) before any worker starts or a campaign store is
    bound."""
    store = tmp_path / "store"
    extra = ["--campaign", str(store)] if campaign else []
    with pytest.raises(SystemExit) as excinfo:
        main(["--days", "0.01", *argv, *extra])
    assert isinstance(excinfo.value.code, str)
    assert message in excinfo.value.code
    assert "\n" not in excinfo.value.code
    assert not (store / "manifest.json").exists()


def test_cli_shards_share_one_store_and_status_counts_both(capsys, tmp_path):
    """Two shards over one directory (each with --resume, since either
    may find the store initialized), then --status, then a serial check
    over everything both shards stored."""
    store = tmp_path / "store"
    argv = [
        "--workloads", "web_0",
        "--days", "0.01",
        "--blocks", "64", "--pages-per-block", "64",
        "--seeds", "4",
        "--campaign", str(store),
        "--resume",
    ]
    assert main(argv + ["--shard", "0/2"]) == 0
    assert "(shard 0/2)" in capsys.readouterr().out
    assert main(argv + ["--shard", "1/2", "--serial-check"]) == 0
    out = capsys.readouterr().out
    assert "serial check: 4 scenario(s) identical" in out
    assert main(["--status", str(store)]) == 0
    out = capsys.readouterr().out
    assert "progress: 4/4 scenario(s)" in out
    assert "store: 2 live file(s)" in out
    assert "failed attempts: 0" in out


def test_cli_status_json_document(capsys, tmp_path):
    """--status --json prints the full status as one stable JSON doc
    whose counts come straight from the store."""
    store = tmp_path / "store"
    assert main([
        "--workloads", "web_0",
        "--days", "0.01",
        "--blocks", "64", "--pages-per-block", "64",
        "--seeds", "2",
        "--campaign", str(store),
    ]) == 0
    capsys.readouterr()
    assert main(["--status", str(store), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "repro-campaign-status"
    assert doc["version"] == 3
    assert "leases" not in doc and "zombie_writes" not in doc
    assert doc["store"] == {"live_files": 1}
    assert doc["completed"] == 2
    assert doc["scenario_count"] == 2
    assert doc["failures"]["total"] == 0
    # --json FILE writes the same document to disk instead.
    out_path = tmp_path / "status.json"
    assert main(["--status", str(store), "--json", str(out_path)]) == 0
    assert json.loads(out_path.read_text()) == doc


def test_cli_status_rejects_uninitialized_directory(tmp_path):
    missing = tmp_path / "nope"
    with pytest.raises(SystemExit, match="not an initialized"):
        main(["--status", str(missing)])
    assert not missing.exists()  # a read-only probe creates nothing


def test_cli_status_rejects_a_store_with_segments(tmp_path):
    store = tmp_path / "store"
    ResultStore(store).bind(list(build_grid(_args())))
    (store / "segments").mkdir()
    with pytest.raises(SystemExit, match="segment tiers are no longer read"):
        main(["--status", str(store)])


def test_cli_campaign_progress_lines(capsys, tmp_path):
    """--progress N prints periodic progress lines from the running
    campaign (at least one, since the interval also flushes per poll)."""
    store = tmp_path / "store"
    assert main([
        "--workloads", "web_0",
        "--days", "0.01",
        "--blocks", "64", "--pages-per-block", "64",
        "--campaign", str(store),
        "--progress", "0.05",
    ]) == 0
    out = capsys.readouterr().out
    # Lines carry a monotonic elapsed-time stamp: "progress +1.2s: ...".
    assert re.search(r"progress \+\d+(\.\d+)?s:", out)
    assert "completed" in out


def test_cli_runs_a_multi_cell_ablation(capsys, tmp_path):
    """End-to-end: a reclaim ablation grid through the runner and out as
    JSON, with --serial-check asserting parallel ≡ serial."""
    json_path = tmp_path / "sweep.json"
    code = main(
        [
            "--workloads", "web_0",
            "--days", "0.01",
            "--blocks", "64", "--pages-per-block", "64",
            "--reclaim", "0", "5000",
            "--workers", "2",
            "--serial-check",
            "--json", str(json_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "2 scenarios" in out
    assert "baseline" in out and "reclaim-rc5000" in out
    assert json_path.exists()


def test_traced_cli_runs_leave_no_file_to_the_garbage_collector(tmp_path):
    """A traced two-worker sweep and a traced campaign, each in a fresh
    interpreter with every ResourceWarning shown: the forked workers keep
    the parent's inherited trace handle, and the CLI closes its own
    tracer, so no trace file is closed by the garbage collector."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    base = [
        sys.executable, "-W", "always::ResourceWarning", "-m", "repro.sweep",
        "--workloads", "web_0", "--days", "0.01",
        "--blocks", "64", "--pages-per-block", "64",
        "--seeds", "2", "--workers", "2",
    ]
    runs = {
        "sweep": ["--trace", str(tmp_path / "sweep-trace")],
        "campaign": ["--campaign", str(tmp_path / "store"), "--trace"],
    }
    for name, extra in runs.items():
        done = subprocess.run(
            base + extra, env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, (name, done.stderr)
        assert "ResourceWarning" not in done.stderr, (name, done.stderr)
    assert (tmp_path / "sweep-trace" / "trace-sweep.jsonl").exists()
    assert (tmp_path / "store" / "trace" / "trace-all.jsonl").exists()
