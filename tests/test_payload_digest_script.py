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


#: workload_digest(workload, 501): the payload bytes of each benchmark
#: workload's seed-501 run.  A change that keeps the payloads keeps these.
_SEED_501 = {
    "klein": "85766fefa21a33b42d8fdd27d0187dc4fa97b6c0f950804a81d315860cd6edd1",
    "stabilizer": "53a67e35fb8bdb9ea200e32c30a3c2aabff532f84a836e4a0a0c8d35b340f9e7",
    "calibrate": "5e99c1b1d84fadd2b3bd7f5f5628037df7be088344b28d5d0e011fe740669bbe",
    "rings": "f541c1867c4c99430f230b7d474db86e1c29e39c5e514c63912509fa5e126699",
}


#: digest(FIXED[name]) for each fixed command list: --json verify-all --seed 7,
#: --json calibrate quintic|sextic --seed 1..20, and the help texts and usage
#: errors.
_FIXED = {
    "verify-all:seed7": "e1c85f8b207a123916dd64e652921291cba9a3bba206e6efc556a285713bf6bb",
    "calibrate:seeds1-20": "bdcd60c5a284ef230790ec78647586198c68ad0e141fabfd56fb7fb3d0e9b9df",
    "help-and-usage": "c01d4cfd2f39ce5b95ccd3b1482722a693ec90fcc47cd20f54e1b6d9645663c4",
}


def test_fixed_payloads_keep_their_bytes():
    digests = _load()
    assert list(_FIXED) == list(digests.FIXED)
    for name, expected in _FIXED.items():
        assert digests.digest(digests.FIXED[name]) == expected, name


def test_seed_501_payloads_keep_their_bytes(monkeypatch):
    digests = _load()
    monkeypatch.chdir(ROOT)
    assert list(_SEED_501) == list(digests.WORKLOADS)
    for workload, expected in _SEED_501.items():
        assert digests.workload_digest(workload, 501) == expected, workload
