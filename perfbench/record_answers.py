"""Record the payload digests that the ``digest`` checks compare against.

Run once, from the repository root, at the commit whose answers are
trusted::

    python3 perfbench/record_answers.py

It writes ``perfbench/answers.json``.  Operations that fail at that commit
are recorded with their error status, so the file documents them too.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from stackygit.cli import run_command  # noqa: E402

from verdicts import ANSWERS_FILE, op_key, payload_digest  # noqa: E402
from workloads import fixed_ring_ops  # noqa: E402


def main():
    answers = {}
    for op in fixed_ring_ops():
        result = run_command(op["argv"])
        if result.status == 0:
            answers[op_key(op["argv"])] = payload_digest(result.payload)
    with open(ANSWERS_FILE, "w", encoding="utf-8") as handle:
        json.dump(answers, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(answers)} digests in {ANSWERS_FILE}")


if __name__ == "__main__":
    main()
