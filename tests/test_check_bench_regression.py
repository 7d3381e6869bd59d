"""The benchmark regression gate: baseline refresh and the ratio test."""

import json
from pathlib import Path

import pytest


@pytest.fixture
def gate(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "scripts"))
    import check_bench_regression

    return check_bench_regression


def _report(path: Path, cal: float, **medians) -> str:
    path.write_text(json.dumps({
        "benchmarks": [{"name": name, "stats": {"median": median}}
                       for name, median in medians.items()],
        "calibration": {"bursts_seconds": [cal], "seconds": cal},
    }))
    return str(path)


def test_update_takes_calibrated_medians_over_reports(gate, tmp_path):
    """Each benchmark's baseline is the median of its calibration-
    normalized times, scaled by the median calibration; ungated
    benchmarks are left out."""
    reports = [
        _report(tmp_path / "a.json", 0.10, test_fig1_table=0.20,
                test_area_overhead=1.0),
        _report(tmp_path / "b.json", 0.05, test_fig1_table=0.20),
        _report(tmp_path / "c.json", 0.20, test_fig1_table=0.40),
    ]
    baseline = tmp_path / "BASELINE.json"
    assert gate.main(["--current", *reports, "--baseline", str(baseline),
                      "--update"]) == 0
    data = json.loads(baseline.read_text())
    assert data["calibration_seconds"] == 0.10
    # Normalized 2.0, 4.0, 2.0 -> median 2.0, times the median 0.10.
    assert data["benchmarks"] == {"test_fig1_table": 0.2}


def test_gate_scales_by_the_report_calibration(gate, tmp_path):
    baseline = tmp_path / "BASELINE.json"
    baseline.write_text(json.dumps({
        "calibration_seconds": 0.10, "threshold": 1.2,
        "benchmarks": {"test_fig1_table": 0.20}}))
    # A host twice as slow: 0.46 s is 1.15x of the scaled 0.40 s.
    ok = _report(tmp_path / "ok.json", 0.20, test_fig1_table=0.46)
    slow = _report(tmp_path / "slow.json", 0.20, test_fig1_table=0.50)
    assert gate.main(["--current", ok, "--baseline", str(baseline)]) == 0
    assert gate.main(["--current", slow, "--baseline", str(baseline)]) == 1
    with pytest.raises(SystemExit):
        gate.main(["--current", ok, slow, "--baseline", str(baseline)])
