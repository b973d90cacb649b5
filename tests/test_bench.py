"""The scaling ladder script, bench/scale.py, on tiny tables."""

import json
import subprocess
import sys
from pathlib import Path

from slnkit.verify import SUITES

ROOT = Path(__file__).resolve().parents[1]


def _ladder(*args):
    out = subprocess.run([sys.executable, str(ROOT / "bench" / "scale.py"),
                          "--source", f"here={ROOT / 'src'}", *args],
                         check=True, capture_output=True, text=True, timeout=120)
    report = json.loads(out.stdout)
    assert set(report["environment"]) >= {"python", "platform", "cpu_count"}
    (column,) = report["columns"].values()
    return report["repeats"], column["entries"]


def test_ladder_records_each_n():
    repeats, entries = _ladder("--n", "1-2")
    assert [e["n"] for e in entries] == [1, 2]
    for e in entries:
        assert e["status"] == "ok" and e["verdict"] is True and e["runs"] == repeats == 3
        assert 0 <= e["min_s"] <= e["median_s"] and e["peak_rss_mb"] > 0


def test_ladder_records_a_timeout():
    _, (entry,) = _ladder("--n", "1", "--timeout", "0.001")
    assert entry["status"] == "timeout" and entry["runs_before_timeout"] == 0


def test_decider_ladder_records_each_k():
    repeats, entries = _ladder("--decider", "--n", "2-3")
    assert [e["k"] for e in entries] == [2, 3]
    for e in entries:
        assert e["status"] == "ok" and e["verdict"] is False and e["runs"] == repeats
        assert 0 <= e["min_s"] <= e["median_s"] and e["peak_rss_mb"] > 0


def test_verify_runs_record_each_suite():
    repeats, entries = _ladder("--verify", "--n", "0")
    assert [e["suite"] for e in entries] == list(SUITES)
    for e in entries:
        assert e["status"] == "ok" and e["verdict"] is True and e["runs"] == repeats
        assert len(e["agreements"]) == 1 and e["agreements"] == e["instances"]
        assert 0 <= e["min_s"] <= e["median_s"] and e["peak_rss_mb"] > 0
    representation = entries[2]
    assert representation["instances"] == representation["agreements"] == [10]
