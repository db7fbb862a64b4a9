"""The environment record of scripts/record_bench.py (no benchmark is run)."""

import importlib.util
import os
import platform
import re
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location(
        "record_bench", ROOT / "scripts" / "record_bench.py")
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



def test_dirty_checkouts_are_refused_before_any_run(tmp_path, monkeypatch, capsys):
    module = _load()
    env = dict(os.environ, GIT_AUTHOR_NAME="t", GIT_AUTHOR_EMAIL="t@example.org",
               GIT_COMMITTER_NAME="t", GIT_COMMITTER_EMAIL="t@example.org")
    repos = {}
    for name in ("clean", "edited", "untracked", "recorded"):
        repo = tmp_path / name
        repo.mkdir()
        (repo / "a.txt").write_text("a\n")
        for args in (["init", "-q"], ["add", "a.txt"], ["commit", "-q", "-m", "a"]):
            subprocess.run(["git", "-C", str(repo), *args], env=env, check=True)
        repos[name] = repo
    (repos["edited"] / "a.txt").write_text("b\n")
    (repos["untracked"] / "b.txt").write_text("b\n")
    (repos["recorded"] / "BENCH_x.json").write_text("{}\n")  # an earlier recording

    def no_run(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(module, "run_once", no_run)
    tag = "refused-dirty-test"
    argv = [tag, "--workloads", "rings", "--seeds", "1"]
    status = module.main(argv + [f"--checkout={n}={p}" for n, p in repos.items()])
    assert status == 2
    err = capsys.readouterr().err
    assert f"edited ({repos['edited']})" in err
    assert f"untracked ({repos['untracked']})" in err
    assert f"clean ({repos['clean']})" not in err
    assert f"recorded ({repos['recorded']})" not in err and "BENCH_x.json" not in err
    assert not (ROOT / f"BENCH_{tag}.json").exists()
