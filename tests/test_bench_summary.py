"""scripts/bench_summary.py on a synthetic two-seed recording."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location(
        "bench_summary", ROOT / "scripts" / "bench_summary.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(checkout, seed, wall_s, ok_ops_ratio):
    metrics = {"wall_s": {"value": wall_s, "unit": "s"},
               "ok_ops_ratio": {"value": ok_ops_ratio, "unit": "ratio"}}
    return {"workload": "klein", "seed": seed, "checkout": checkout,
            "result": {"correct": True, "metrics": metrics}}


RECORD = {"tag": "synthetic", "environment": {}, "runs": [
    _run("parent", 1, 0.25, 1.0), _run("change", 1, 0.125, 1.0),
    _run("change", 2, 0.625, 0.5), _run("parent", 2, 0.75, 1.0),
]}


def test_summary_counts_pairs_and_marks_wide_spreads(tmp_path, capsys):
    module = _load()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows = {row["metric"]: row for row in module.summary_rows(RECORD, metrics)}
    assert set(rows) == {"wall_s", "ok_ops_ratio"}
    wall = rows["wall_s"]
    assert (wall["parent"], wall["change"]) == (0.5, 0.375)
    assert (wall["q1"], wall["q3"]) == (0.375, 0.625)
    assert (wall["better"], wall["worse"], wall["equal"]) == (2, 0, 0)
    # a parent spread of 0.25 s is half the 0.5 s median: past the 25 % bound
    assert wall["unresolved"]
    ratio = rows["ok_ops_ratio"]
    assert (ratio["parent"], ratio["change"]) == (1.0, 0.75)
    assert (ratio["better"], ratio["worse"], ratio["equal"]) == (0, 1, 1)
    assert not ratio["unresolved"]
    path = tmp_path / "BENCH_synthetic.json"
    path.write_text(json.dumps(RECORD))
    assert module.main([str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("klein      wall_s") and lines[0].endswith(
        "better/worse/equal 2/0/0  unresolved")
    assert "-25.0 %" in lines[0]
    assert lines[1].endswith("better/worse/equal 0/1/1")
