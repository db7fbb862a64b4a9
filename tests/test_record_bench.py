"""The environment record of scripts/record_bench.py (no benchmark is run)."""

import importlib.util
import platform
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location("record_bench", ROOT / "scripts" / "record_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_environment_record(tmp_path):
    env = _load().environment({"change": ROOT, "plain": tmp_path})
    assert set(env) == {"cpu_model", "nproc", "python", "gmpy2", "commits"}
    assert isinstance(env["cpu_model"], str) and env["cpu_model"]
    assert isinstance(env["nproc"], int) and env["nproc"] >= 1
    assert env["python"] == platform.python_version()
    assert isinstance(env["gmpy2"], bool)
    assert env["commits"]["plain"] is None
    commit = env["commits"]["change"]
    assert commit is None or re.fullmatch(r"[0-9a-f]{40}(\+dirty)?", commit)

