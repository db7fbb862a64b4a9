"""The payload digests of scripts/payload_digests.py are reproducible and
see a change of payload."""

import importlib.util
from pathlib import Path

from stackygit import cli

ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location(
        "payload_digests", ROOT / "scripts" / "payload_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_digest_is_reproducible_and_sees_payloads(monkeypatch):
    digests = _load()
    monkeypatch.chdir(ROOT)
    # one block of the rings workload: a few dozen millisecond operations
    first = digests.workload_digest("rings", 1, seconds=1)
    assert digests.workload_digest("rings", 1, seconds=1) == first
    monkeypatch.setattr(cli, "SCHEMA_VERSION", 2)
    assert digests.workload_digest("rings", 1, seconds=1) != first
