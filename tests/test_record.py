"""The recorder the benchmark scripts append their BENCH_*.json entries with."""

import importlib.util
import json
from pathlib import Path

RECORD = Path(__file__).resolve().parents[1] / "benchmarks" / "record.py"


def load_record(monkeypatch):
    # importing the module sets the BLAS thread variables left unset;
    # setting them first keeps that from leaking into later tests
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "3")
    spec = importlib.util.spec_from_file_location("record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_append_keeps_earlier_entries_one_per_line(tmp_path, monkeypatch):
    record = load_record(monkeypatch)
    out = tmp_path / "BENCH_x.json"
    record.append_entry(str(out), "first", 3, {"w": {"median_s": 1.0}})
    record.append_entry(str(out), "second", 7, {"w": {"median_s": 2.0}})
    lines = out.read_text().splitlines()
    assert lines[0] == '{"entries": [' and lines[-1] == "]}"
    assert len(lines) == 4
    entries = json.loads(out.read_text())["entries"]
    assert [json.loads(line.rstrip(",")) for line in lines[1:3]] == entries
    assert [e["label"] for e in entries] == ["first", "second"]
    assert [e["runs"] for e in entries] == [3, 7]
    assert entries[1]["workloads"] == {"w": {"median_s": 2.0}}
    for e in entries:
        assert set(e) == {"label", "date", "env", "runs", "workloads"}
        assert set(e["env"]) == {"python", "numpy", "scipy", "blas",
                                 "threads", "cpu_count", "affinity"}
        assert set(e["env"]["threads"].values()) == {"3"}
