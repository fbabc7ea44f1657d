import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("write_bench", ROOT / "tools" / "write_bench.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def checkouts(tmp_path, *names):
    paths = [(tmp_path / name).resolve() for name in names]
    for path in paths:
        path.mkdir()
    return paths


def test_checkouts_at_paths_of_two_lengths_are_refused(tmp_path, monkeypatch):
    # the length alone of a checkout's path moves peak_rss_mb past its
    # bound, so the tool refuses before it runs or clears anything
    tool = load_tool()

    def fail(*args):
        raise AssertionError("the tool went on past the check")

    for name in ("run_bench", "clear_bytecode", "git_sha"):
        monkeypatch.setattr(tool, name, fail)
    short, long = checkouts(tmp_path, "a", "bb")
    with pytest.raises(SystemExit, match="differ in length") as info:
        tool.main(["--pr", "0", str(short), str(long)])
    assert f"{len(str(short))} for {short}" in str(info.value)
    assert f"{len(str(long))} for {long}" in str(info.value)


def test_path_length_is_recorded(tmp_path, monkeypatch):
    # with every run faked, paths of one length pass the check, and each
    # checkout's entry records that length
    tool = load_tool()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    result = {"metrics": {name: {"value": 1.0} for name in metrics},
              "failed": 0, "attempted": 1, "correct": True}
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    monkeypatch.setattr(tool, "run_bench", lambda *args: result)
    monkeypatch.setattr(tool, "git_sha", lambda checkout: ("0" * 40, False))
    paths = checkouts(tmp_path, "a", "b")
    assert tool.main(["--pr", "0", *map(str, paths)]) == 0
    out = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert [c["path_length"] for c in out["checkouts"]] == [len(str(p)) for p in paths]
