"""Digests of the CLI payloads, to check that a change keeps them byte for byte.

Usage, from any directory::

    python3 scripts/payload_digests.py [--seeds 501-502]

For each benchmark workload and seed it runs every operation of
``perfbench/workloads.build_ops(workload, seed, 15)`` through
``stackygit.cli.run_command``, writing the operations' input files under
``perfbench/.work/`` first as ``perfbench/run.py`` does, and prints one
sha256 over the JSON text and the markdown of all of them.  It then prints
one digest for ``--json verify-all --seed 7``, one for
``--json calibrate quintic|sextic --seed 1..20`` and one for the help texts
and a few usage errors.  Copy the script into
another checkout and run it there to compare the two line by line.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "scripts"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from record_bench import WORKLOADS, parse_seeds  # noqa: E402  (puts perfbench/ on the path)
from run import write_inputs  # noqa: E402
from workloads import build_ops  # noqa: E402

from stackygit.cli import run_command  # noqa: E402

#: The ``--seconds`` of the benchmark's runs, which sets each workload's size.
SECONDS = 15

#: The ten subcommands, named here so that a copy of the script in another
#: checkout runs the same command lines.
SUBCOMMANDS = ("decompose", "rigidify", "chart", "stabilizer", "ground-forms", "klein",
               "locus", "catalog", "calibrate", "verify-all")

FIXED = {
    "verify-all:seed7": [["--json", "verify-all", "--seed", "7"]],
    "calibrate:seeds1-20": [["--json", "calibrate", family, "--seed", str(seed)]
                            for family in ("quintic", "sextic") for seed in range(1, 21)],
    # the help texts, then usage errors: no subcommand, an unknown one, a
    # bad int, a bad choice, a missing and an extra argument
    "help-and-usage": [["--help"], ["-h"], *([name, "--help"] for name in SUBCOMMANDS),
                       [], ["nosuch"], ["verify-all", "--seed", "x"], ["locus", "octic"],
                       ["chart", "quintic.ring"], ["decompose", "a", "b"]],
}


def digest(argvs) -> str:
    """sha256 over the JSON text and the markdown of each command in turn."""
    h = hashlib.sha256()
    for argv in argvs:
        result = run_command(argv)
        h.update(result.json_text().encode())
        h.update(result.markdown.encode())
    return h.hexdigest()


def workload_argvs(workload: str, seed: int, seconds: float = SECONDS):
    """The argument lists of one benchmark run's operations, with their
    input files written; the current directory must be the repository root,
    which the operations' paths are relative to."""
    ops = build_ops(workload, seed, seconds)
    write_inputs(ops)
    return [op["argv"] for op in ops]


def workload_digest(workload: str, seed: int, seconds: float = SECONDS) -> str:
    """The digest of one benchmark run's operations, from the repository
    root."""
    return digest(workload_argvs(workload, seed, seconds))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="501-502", help="e.g. 501-510 or 7,9")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    for workload in WORKLOADS:
        for seed in parse_seeds(args.seeds):
            print(workload, seed, workload_digest(workload, seed), flush=True)
    for name, argvs in FIXED.items():
        print(name, digest(argvs), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
