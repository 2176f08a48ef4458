"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import itertools
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import gate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ppsrelax import cli  # noqa: E402

TINY = {
    "simulate-long": lambda seed: workloads.simulate_config(seed, end=0.2, step=0.05),
    "sweep-wide": lambda seed: workloads.sweep_config(seed, n_values=7),
    "pipeline-dense": lambda seed: workloads.pipeline_config(seed, end=0.5, step=0.25),
}


def test_config_generator_is_seeded():
    for _command, make in workloads.WORKLOADS.values():
        assert make(7) == make(7)
        assert make(7)["rates"] != make(8)["rates"]
        assert make(7)["noise"]["seed"] != make(8)["noise"]["seed"]
    assert workloads.items_per_call("simulate", workloads.simulate_config(1)) == 4 * 50_001
    assert workloads.items_per_call("sweep", workloads.sweep_config(1)) == 10_000
    assert workloads.items_per_call("pipeline", workloads.pipeline_config(1)) == 4 * 501 * 2


def test_generated_rates_keep_every_sweep_matrix_positive_definite():
    for seed in range(50):
        doc = workloads.sweep_config(seed, n_values=5)
        g = gate.rate_matrices(doc["rates"], np.array(doc["sweep"]["values"]))
        assert np.linalg.eigvalsh(g).min() > 0


def _run_tiny(workload: str, tmp_path: Path) -> tuple[str, dict, Path]:
    command, _make = workloads.WORKLOADS[workload]
    doc = TINY[workload](3)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    return command, doc, tmp_path / f"{command}.csv"


@pytest.mark.parametrize("workload", sorted(TINY))
def test_gate_accepts_real_output(workload, tmp_path):
    command, doc, csv = _run_tiny(workload, tmp_path)
    assert gate.check(command, doc, csv) == gate.Verdict(True, 0, "ok")


def _replace_cell(csv: Path, row: int, column: str, value: str) -> None:
    lines = csv.read_text().splitlines()
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cells = lines[header_at + 1 + row].split(",")
    cells[lines[header_at].split(",").index(column)] = value
    lines[header_at + 1 + row] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")


def test_corrupted_csv_counts_as_failed(tmp_path):
    command, doc, csv = _run_tiny("simulate-long", tmp_path)
    items = workloads.items_per_call(command, doc)
    good = gate.check(command, doc, csv)
    original = csv.read_text().splitlines()[-1].split(",")[5]
    _replace_cell(csv, -1, "A", repr(float(original) + 1e-6))
    bad = gate.check(command, doc, csv)
    assert not bad.ok and bad.failed_items == items and "A" in bad.message

    child = {"calls": [{"code": 0, "digest": "good", "error": None},
                       {"code": 0, "digest": "bad", "error": None},
                       {"code": None, "digest": None, "error": "Traceback"}]}
    attempted, failed, problems = run._tally(
        command, doc, [child], {"good": good, "bad": bad}
    )
    assert (attempted, failed) == (3 * items, 2 * items)
    assert len(problems) == 2


def test_gate_rejects_wrong_row_count_and_header(tmp_path):
    command, doc, csv = _run_tiny("sweep-wide", tmp_path)
    lines = csv.read_text().splitlines()
    csv.write_text("\n".join(lines[:-1]) + "\n")
    assert "rows" in gate.check(command, doc, csv).message
    csv.write_text("\n".join(lines).replace("a_diff_probe", "a_diff") + "\n")
    assert "header" in gate.check(command, doc, csv).message


def test_pipeline_rows_without_convergence_count_as_failed(tmp_path):
    command, doc, csv = _run_tiny("pipeline-dense", tmp_path)
    _replace_cell(csv, 0, "converged", "0")
    _replace_cell(csv, 1, "B", "nan")
    verdict = gate.check(command, doc, csv)
    assert verdict.ok and verdict.failed_items == 2


def test_corrected_time_scales_wall_time_to_nominal_speed():
    # a host running at half the nominal speed doubles both times
    call = {"seconds": 3.0, "reference_s": 2 * reference.REFERENCE_S}
    assert run.corrected_s(call) == pytest.approx(1.5)
    with child.SpeedProbe() as probe:
        assert probe.measure() > 0


def test_covered_time_merges_overlaps_and_clips():
    children = np.array([[1.0, 3.0], [2.0, 5.0], [9.0, 12.0], [-1.0, 0.5]])
    # union inside [0, 10]: [0, 0.5] + [1, 5] + [9, 10]
    assert tracer.covered_time(0.0, 10.0, children) == pytest.approx(5.5)
    assert tracer.covered_time(0.0, 10.0, np.empty((0, 2))) == 0.0


def test_tracer_self_time_counts_only_direct_children(monkeypatch):
    clock = itertools.count()
    monkeypatch.setattr(tracer, "perf_counter", lambda: float(next(clock)))
    t = tracer.Tracer()
    layer = types.SimpleNamespace(__name__="layer")
    layer.inner = lambda: None
    layer.outer = lambda: layer.inner()

    def boom():
        raise ValueError("boom")

    layer.boom = boom
    t.install([
        (layer, "outer", "layer.outer", None),
        (layer, "inner", "layer.inner", None),
        (layer, "boom", "layer.boom", None),
        (layer, "gone", "layer.gone", None),
    ])

    def command():
        layer.outer()
        with pytest.raises(ValueError):
            layer.boom()

    t.wrap(command, tracer.ROOT)()
    summary = t.summary()
    # clock ticks: root 0..7, outer 1..4 (inner 2..3), boom 5..6
    layers = summary["layers"]
    assert summary["roots"] == 1
    assert layers["layer.outer"]["busy_s"] == 3.0
    assert layers["layer.inner"]["busy_s"] == 1.0
    assert layers["layer.boom"]["failed"] == 1
    assert summary["children_s"] == 4.0  # outer and boom; inner is nested
    assert (summary["root_s"], summary["self_s"]) == (7.0, 3.0)
    assert t.absent == ["layer.gone"] and layers["layer.gone"]["calls"] == 0
    assert t.installed == ["layer.outer", "layer.inner", "layer.boom"]
    spans = t.arrays()
    assert list(spans["parent"]) == [-1, 0, 1, 0]
    assert set(spans["run"]) == {0}


def test_result_line_has_every_listed_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    record = {
        "trace": 0, "correct": True, "attempted": 1, "failed": 0,
        "end_to_end": dict.fromkeys(run.END_TO_END, 1.0),
    }
    line = run.result_line(record)
    assert sorted(line["metrics"]) == sorted(m["name"] for m in bench["end_to_end"])
    assert all(line["metrics"][m["name"]]["unit"] == m["unit"] for m in bench["end_to_end"])
    record.update(trace=1, per_layer=dict.fromkeys(run.PER_LAYER, 0.0))
    line = run.result_line(record)
    assert {name: v["unit"] for name, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in bench["per_layer"]
    }
