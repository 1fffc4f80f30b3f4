"""Self-tests of the benchmark: metric coverage, oracle, span arithmetic.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import hostspeed
from perfbench import run as cli
from perfbench import runs
from perfbench import spans as sp
from perfbench import workloads as wl
from repro import Database
from repro.workloads import ssb

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so a run takes a couple of seconds."""
    monkeypatch.setattr(wl, "SCALE_FACTOR", 0.002)
    monkeypatch.setattr(wl, "SETUP_REPEATS", 1)
    monkeypatch.setattr(wl, "COUNT_WINDOW", {"dashboard": 13, "drilldown": 12})
    monkeypatch.setattr(wl, "WRITE_EVERY", 4)


def _declared(kind: str):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in config[kind]}


def test_benchmark_json_matches_the_code():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(runs.WORKLOADS)
    assert _declared("end_to_end") == dict(runs.END_TO_END)
    assert _declared("per_layer") == dict(runs.PER_LAYER)


@pytest.mark.parametrize("workload", runs.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(tiny, workload, trace):
    outcome = runs.run(workload, seed=3, seconds=1.0, trace=trace, out_dir=None)
    assert outcome.correct, outcome.mismatches[:3]
    assert outcome.attempted >= 1
    assert outcome.failed == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    got = {name: unit for name, (_value, unit) in outcome.metrics.items()}
    assert {name: got.get(name) for name in declared} == declared
    for name in declared:
        assert np.isfinite(outcome.metrics[name][0]), name
    if trace:
        # Every statement's time is attributed to some layer or to the root.
        assert 0.0 <= outcome.metrics["engine.unattributed_share"][0] < 0.5
        assert 0.0 < outcome.metrics["engine.catchall_share"][0] < 1.0


def test_tiny_paper_counts_repeat_exactly(tiny):
    first = runs.run("drilldown", seed=4, seconds=0.5, trace=False, out_dir=None)
    second = runs.run("drilldown", seed=4, seconds=0.5, trace=False, out_dir=None)
    for name in (
        "blocks_per_query",
        "rows_scanned_per_query",
        "model_ms_per_query",
        "cache_mb",
    ):
        assert first.metrics[name] == second.metrics[name], name


def test_catchall_share_past_its_limit_adds_a_note():
    over = {"engine.catchall_share": (runs.CATCHALL_LIMIT + 0.05, "ratio")}
    under = {"engine.catchall_share": (runs.CATCHALL_LIMIT - 0.05, "ratio")}
    assert len(runs.coverage_notes(over)) == 1
    assert runs.coverage_notes(under) == []


def test_peak_rss_mark_restarts_after_a_reset():
    if not runs.reset_peak_rss():
        pytest.skip("the peak-RSS mark cannot be reset on this system")
    block = np.ones(8 * 2**20)  # 64 MiB, every page touched
    high = runs.peak_rss_mb()
    del block
    assert runs.reset_peak_rss()
    assert runs.peak_rss_mb() < high - 32


def test_served_mix_is_a_distribution():
    shares = dict(wl.MIX)
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)
    assert shares["dashboard"] / (shares["dashboard"] + shares["adhoc"]) == (
        pytest.approx(wl.FLEET_REPEATING)
    )


def test_segment_scales_use_the_passes_around_each_segment(monkeypatch):
    passes = iter([2.0, 4.0, 1.0])
    monkeypatch.setattr(hostspeed, "reference_ms", lambda: next(passes))
    speed = hostspeed.Segments()
    speed.cut()
    speed.cut()
    assert speed.index == 2
    ref = hostspeed.REFERENCE_MS
    assert speed.scales().tolist() == pytest.approx([ref / 3.0, ref / 2.5])
    expected = speed.durations[0] * ref / 3.0 + speed.durations[1] * ref / 2.5
    assert speed.normalised_seconds() == pytest.approx(expected)


def test_served_requests_carry_their_segment_scale(tiny):
    setup = wl.set_up("served-ingest", 7)
    served = wl.Served(setup.engine, 7, 2)
    try:
        phase = served.run(1.2)
    finally:
        served.close()
    assert len(phase.scales) == len(phase.responses) > 0
    assert all(np.isfinite(s) and s > 0 for s in phase.scales)
    assert 0 < phase.normalised_seconds


def _tiny_database() -> Database:
    database = Database()
    for name, schema in ssb.SCHEMAS.items():
        data = ssb.generate(scale_factor=0.002, seed=5)
        database.create_table(schema).insert(data[name], database.begin())
    return database


def test_oracle_flags_a_perturbed_result():
    database = _tiny_database()
    engine = wl.make_engine(database)
    sql = ssb.query("Q2.1")
    result = engine.execute(sql)
    good = wl.result_digest(result)
    assert wl.oracle_mismatches(database, [(sql, good)]) == []
    column = result.column_order[-1]
    result.columns[column] = result.columns[column].copy()
    result.columns[column][0] += 1
    assert wl.oracle_mismatches(database, [(sql, wl.result_digest(result))]) == [sql]


def test_a_wrong_engine_result_fails_the_run(tiny, monkeypatch, capsys):
    make_engine = wl.make_engine

    def perturbing_engine(database):
        engine = make_engine(database)
        execute = engine.execute

        def wrong(sql):
            result = execute(sql)
            if "count(*)" in sql:
                name = result.column_order[0]
                result.columns[name] = result.columns[name] + 1
            return result

        engine.execute = wrong
        return engine

    monkeypatch.setattr(wl, "make_engine", perturbing_engine)
    code = cli.main(["--workload", "drilldown", "--seed", "2", "--seconds", "0.3"])
    assert code == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False


def _span(sid, start, end, parent=0):
    return (sid, 0, start, end, parent, 1, 7)


def test_self_time_on_a_nested_tree():
    spans = np.array(
        [
            _span(1, 0.0, 10.0),
            _span(2, 1.0, 4.0, parent=1),
            _span(3, 3.0, 6.0, parent=1),  # overlaps span 2: union is [1, 6]
            _span(4, 2.0, 3.0, parent=2),
            _span(5, 8.0, 12.0, parent=1),  # clipped to [8, 10] inside the root
            _span(6, 20.0, 21.0),  # a second root
        ],
        dtype=float,
    )
    selfs = sp.self_times(spans)
    assert selfs.tolist() == pytest.approx([10 - 5 - 2, 3 - 1, 3, 1, 4, 1])


def test_recorder_self_times_cover_the_root():
    recorder = sp.Recorder()

    def leaf():
        time.sleep(0.002)

    def middle():
        time.sleep(0.002)
        wrapped_leaf()

    wrapped_leaf = recorder.wrap(leaf, "leaf")
    root = recorder.wrap(middle, sp.STATEMENT, root=True)
    root()
    root()
    spans, names = recorder.spans(), recorder.names
    assert len(spans) == 4
    assert set(spans[:, sp.STMT].tolist()) == {1.0, 2.0}
    by_name = sp.self_time_by_name(spans, names)
    total = float(np.sum(sp.durations(spans, names, sp.STATEMENT)))
    assert by_name["leaf"] + by_name[sp.STATEMENT] == pytest.approx(total)
    assert by_name["leaf"] >= 0.004


def test_patch_and_uninstall_restore_the_original():
    from repro.core.rowrange import RangeList

    original = vars(RangeList)["from_rows"]
    recorder = sp.Recorder()
    recorder.patch(RangeList, "from_rows", "rowrange.build")
    assert RangeList.from_rows(np.array([1, 2, 3])).num_rows == 3
    recorder.uninstall()
    assert vars(RangeList)["from_rows"] is original
    assert len(recorder.spans()) == 1


def test_without_engine_sources_the_command_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dashboard"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_no_threads_outlive_a_served_run(tiny):
    before = set(threading.enumerate())
    runs.run("served-ingest", seed=6, seconds=0.5, trace=False, out_dir=None)
    left = [t.name for t in set(threading.enumerate()) - before if t.is_alive()]
    assert left == []
