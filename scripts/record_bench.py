"""Record benchmark runs, with the machine they ran on, in ``BENCH_<TAG>.json``.

Usage, from the repository root::

    python3 scripts/record_bench.py TAG [--workloads klein,rings] [--seeds 501-510]
                                        [--checkout parent=../parent --checkout change=.]

For every workload and seed, each checkout runs
``perfbench/run.py --workload W --seed S --seconds 15 --trace 0`` in a fresh
process from its own directory; with several checkouts the one that runs
first rotates from seed to seed.  The file records the CPU model, ``nproc``,
the Python version, whether ``gmpy2`` imports, the git commit of every
checkout and the result line (the last line of standard output) of every
run.  It is rewritten after each run, so an interrupted recording keeps the
runs that finished.  A checkout with local changes (``+dirty``) is refused
before any run, with exit status 2; untracked ``BENCH_*.json`` files in
its root do not count, so recordings can follow each other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import cpu_model  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def git_commit(path) -> str | None:
    """HEAD of the checkout at ``path``, with ``+dirty`` if it has local
    changes; None outside a git checkout.  Untracked ``BENCH_*.json`` files
    in the checkout's root, which earlier recordings write, do not count."""
    def git(*args):
        return subprocess.run(["git", "-C", str(path), *args],
                              capture_output=True, text=True, timeout=30)
    try:
        head, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    except (OSError, subprocess.TimeoutExpired):
        return None
    if head.returncode:
        return None
    changes = [line for line in status.stdout.splitlines()
               if not re.fullmatch(r"\?\? BENCH_[^/]*\.json", line)]
    return head.stdout.strip() + ("+dirty" if changes else "")


def environment(checkouts) -> dict:
    """The machine and the checkouts, as recorded in the file."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "cpu_model": cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "gmpy2": find_spec("gmpy2") is not None,
        "commits": {name: git_commit(path) for name, path in checkouts.items()},
    }


def run_once(path, workload, seed) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "15", "--trace", "0"],
        cwd=path, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tag")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="501-510", help="e.g. 501-510 or 7,9")
    parser.add_argument("--checkout", action="append", default=[], metavar="NAME=PATH",
                        help="a checkout to run (default: change=<this repository>)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {}
    for item in args.checkout or [f"change={ROOT}"]:
        name, _, path = item.partition("=")
        checkouts[name] = Path(path).resolve()
    names = list(checkouts)
    env = environment(checkouts)
    dirty = [f"{name} ({checkouts[name]})" for name, commit in env["commits"].items()
             if commit and commit.endswith("+dirty")]
    if dirty:
        print("refusing to record: local changes in " + ", ".join(dirty)
              + "; commit or stash them so that every run is reproducible", file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{args.tag}.json"
    record = {"tag": args.tag, "environment": env, "runs": []}
    for workload in args.workloads.split(","):
        for k, seed in enumerate(parse_seeds(args.seeds)):
            for name in names[k % len(names):] + names[:k % len(names)]:
                result = run_once(checkouts[name], workload, seed)
                record["runs"].append(
                    {"workload": workload, "seed": seed, "checkout": name, "result": result})
                out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
                print(workload, seed, name, json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
