"""Tests of the scripts under scripts/."""

from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_bench_trajectory_writes_the_file(tmp_path, monkeypatch):
    """bench_trajectory.py with perfbench's bench_run replaced by canned
    runs: the file holds each metric's median and quartiles over the
    seeds, the traced counts and both sides of an alternating comparison
    with their per-pair ratios, and the runs went in alternating order."""
    import importlib.util
    import json
    from types import SimpleNamespace

    spec = importlib.util.spec_from_file_location("bench_trajectory",
                                                  SCRIPTS / "bench_trajectory.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = []

    def fake_report(root):
        def bench_run(workload, seed, seconds, trace):
            calls.append((root, seed, trace))
            wall = seed / 10 + (0.5 if root == "/parent" else 0)
            metrics = {"wall_s": {"value": wall}, "peak_rss_mb": {"value": 30.0}}
            if trace:
                metrics.update({name: {"value": seed * 7} for name in script.COUNTS})
            result = {"correct": True, "failed": 0, "metrics": metrics}
            record = {"provenance": {"src_sha256": root}, "run_s": 8.0, "raw_wall_s": wall + 1}
            return result, record

        return SimpleNamespace(bench_run=bench_run, spread=lambda v: len(v),
                               WORKLOADS=("near-one",),
                               END_TO_END=(("wall_s", "s"), ("peak_rss_mb", "MB")),
                               parse_seeds=lambda text: [1, 2, 3, 4, 5])

    monkeypatch.setattr(script, "load_report", fake_report)
    monkeypatch.setattr(script, "commit", lambda root: None)
    monkeypatch.setattr(script, "OUT_DIR", str(tmp_path))
    assert script.main(["--label", "smoke", "--parent", "/parent"]) == 0
    data = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    row = data["workloads"]["near-one"]
    wall = row["metrics"]["wall_s"]
    assert row["seeds"] == [1, 2, 3, 4, 5] and wall["unit"] == "s"
    assert (wall["q1"], wall["median"], wall["q3"]) == pytest.approx((0.15, 0.3, 0.45))
    assert wall["spread"] == 5
    assert row["parent"]["metrics"]["wall_s"]["median"] == pytest.approx(0.8)
    assert row["pairs_lower"] == {"wall_s": 5, "peak_rss_mb": 0}
    # per-pair ratios, change over parent at one seed: wall_s reads
    # (s/10) / (s/10 + 1/2) and raw_wall_s (s/10 + 1) / (s/10 + 3/2)
    ratio = row["pair_ratio"]
    assert set(ratio) == {"wall_s", "peak_rss_mb", "raw_wall_s"}
    assert ratio["peak_rss_mb"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert ((ratio["wall_s"]["q1"], ratio["wall_s"]["median"], ratio["wall_s"]["q3"])
            == pytest.approx(((1 / 6 + 2 / 7) / 2, 3 / 8, (4 / 9 + 1 / 2) / 2)))
    assert ((ratio["raw_wall_s"]["q1"], ratio["raw_wall_s"]["median"],
             ratio["raw_wall_s"]["q3"])
            == pytest.approx(((1.1 / 1.6 + 1.2 / 1.7) / 2, 1.3 / 1.8, (1.4 / 1.9 + 1.5 / 2) / 2)))
    assert row["raw_wall_s"]["values"] == pytest.approx([1.1, 1.2, 1.3, 1.4, 1.5])
    assert row["parent"]["raw_wall_s"]["median"] == pytest.approx(1.8)
    assert row["counts"] == {name: 7 for name in script.COUNTS}
    change = script.ROOT
    assert row["src_sha256"] == change and row["parent"]["src_sha256"] == "/parent"
    assert set(data["host"]) == {"cores", "machine", "python", "mpmath", "mpmath_backend"}
    assert data["run_seconds"] == 36
    untraced = [(root, seed) for root, seed, trace in calls if not trace]
    assert untraced[:4] == [("/parent", 1), (change, 1), (change, 2), ("/parent", 2)]
    assert [c for c in calls if c[2]] == [(change, 1, 1), ("/parent", 1, 1)]
