"""Benchmark of the stackygit CLI: seeded, verdict-checked workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload klein --seed 1 --seconds 15 --trace 0

Each run is one fresh process and a closed loop with one client: the
operations of the workload (see ``workloads.py``) are run one at a time, in
order, each as one ``stackygit.cli.run_command([... "--json" ...])`` call
plus rendering of its JSON text, so parsing, the exact computation,
certificates and payload rendering are all timed.  Every payload is checked
against a known answer (``verdicts.py``).

``--trace 0`` prints the end-to-end metrics.  Every time is scaled to a
nominal machine speed measured next to it (see ``speed.py``: the shared VM
this was built on switches between speeds up to twice apart):

- ``setup_s``: median over fresh processes of importing ``stackygit.cli``
  and filling the caches the workload needs (``setup_probe.py``);
- ``wall_s``: sum of the timed operations;
- ``op_p50_ms`` / ``op_p90_ms``: per-operation latency percentiles;
- ``peak_rss_mb``: peak resident memory of the benchmark process;
- ``ok_ops_ratio``: operations that exited with status 0, over operations
  attempted.  Operations that fail at the seed commit with a structured
  error stay in the workloads (their error is their known answer), so a fix
  shows as a rise here.

``--trace 1`` prints the per-layer metrics instead, from a separate run:
each operation of the first half of the blocks runs once untraced and
once with spans around each layer's public callables (``tracing.py``),
then the microbenchmarks (``micro.py``) run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
operations that ended with an error other than their listed known failure;
``correct`` is false if any payload differs from its known answer.  A full
record (environment, reference-loop time, every operation's status, time
and verdict) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path
from time import perf_counter

from speed import SpeedGauge, loop_seconds

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_PROBES = 3
MAX_REPEATS = 3
REPEAT_BUDGET_S = 0.1
_INTEGER = re.compile(r"\d+")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("klein", "stabilizer", "calibrate", "rings"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- environment ----------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stackygit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args):
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "gmpy2": find_spec("gmpy2") is not None,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        # the fixed loop of speed.py, median of 15, before the run starts
        "reference_loop_ms": statistics.median(loop_seconds() for _ in range(15)) * 1000,
    }


# -- running operations -------------------------------------------------------------


def measure_setup(workload: str) -> float:
    probe = str(ROOT / "perfbench" / "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, probe, workload], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def write_inputs(ops):
    for op in ops:
        for rel, text in op["files"].items():
            path = ROOT / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


def run_ops(ops, cli, answers, gauge, tracer=None):
    """Run each operation; returns one record per operation.

    An operation is run back to back until it has run ``MAX_REPEATS``
    times or for ``REPEAT_BUDGET_S`` in all, and its latency is the median
    of those runs: one run for anything slower than the budget, up to
    three for millisecond operations, whose single timings scatter most.
    ``seconds`` is scaled to the nominal machine speed (``speed.py``),
    ``raw_seconds`` is as measured.
    """
    from verdicts import check

    records = []
    for op in ops:
        if tracer is not None:
            tracer.op = op["id"]
        intervals = []
        while len(intervals) < MAX_REPEATS and sum(t1 - t0 for t0, t1 in intervals) < REPEAT_BUDGET_S:
            gauge.tick()
            t0 = perf_counter()
            result = cli.run_command(op["argv"])
            text = result.json_text()
            intervals.append((t0, perf_counter()))
            gauge.tick()
            if len(intervals) == 1:
                first, first_text = result, text
        record = {"id": op["id"], "status": first.status, "intervals": intervals,
                  "verdict": check(op, first.status, first.payload, answers),
                  "payload_bytes": len(first_text),
                  "coeff_bits": max((int(t).bit_length()
                                     for t in _INTEGER.findall(first_text)), default=0)}
        if first.status:
            record["error"] = first.payload.get("error", {}).get("code")
        records.append(record)
    for record in records:
        intervals = record["intervals"]
        record["runs"] = len(intervals)
        record["raw_seconds"] = statistics.median(t1 - t0 for t0, t1 in intervals)
        record["seconds"] = statistics.median(gauge.scale(t0, t1, t1 - t0)
                                              for t0, t1 in intervals)
    return records


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def summary(records):
    return {
        "attempted": len(records),
        "failed": sum(r["verdict"] == "wrong" and r["status"] != 0 for r in records),
        "wrong_verdicts": sum(r["verdict"] == "wrong" for r in records),
        "known_failures": sum(r["verdict"] == "known-failure" for r in records),
        "failed_ops_ratio": sum(r["status"] != 0 for r in records) / len(records),
        "failing_ops": {r["id"]: r["error"] for r in records if r["status"]},
    }


def end_to_end(args, ops, cli, answers):
    setup_s = measure_setup(args.workload)
    gauge = SpeedGauge()
    records = run_ops(ops, cli, answers, gauge)
    times = sorted(r["seconds"] for r in records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(times), "s"),
        "op_p50_ms": (statistics.median(times) * 1000, "ms"),
        "op_p90_ms": (percentile(times, 0.9) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ops_ratio": (sum(r["status"] == 0 for r in records) / len(records), "ratio"),
    }
    return metrics, records, gauge


def per_layer(args, ops, cli, answers, tracer):
    import micro
    from tracing import layer_totals

    half = max(1, (max(op["block"] for op in ops) + 2) // 2)
    subset = [op for op in ops if op["block"] < half]
    plain, records = [], []
    gauge = SpeedGauge()
    try:
        # Each operation runs untraced and traced, alternating which goes
        # first, so that warm-up favours neither side of the overhead ratio.
        for k, op in enumerate(subset):
            for traced in ((False, True) if k % 2 else (True, False)):
                if traced:
                    tracer.enable()
                    records += run_ops([op], cli, answers, gauge, tracer)
                    tracer.disable()
                else:
                    plain += run_ops([op], cli, answers, gauge)
    finally:
        tracer.disable()
    layers = layer_totals(tracer.spans)

    def layer(name, key="self_s"):
        return layers.get(name, {}).get(key, 0)

    metrics = {}
    for name in ("polynomials.substitute", "polynomials.proportional_to",
                 "polynomials.multiplicity_profile", "polynomials.form_mul",
                 "polynomials.multipoly_evaluate", "groups.group_contains",
                 "groups.group_generators", "symmetry.semi_invariance",
                 "symmetry.klein_generate", "symmetry.catalog_stabilizer",
                 "invariants.transvectant", "invariants.resultant",
                 "invariants.evaluate_recipe", "invariants.calibrate_invariants",
                 "graded.stacky_decompose", "graded.rigidify", "graded.affine_chart",
                 "locus.locus_report", "exprparse.form", "ringspec.load",
                 "cli.run_command"):
        metrics[f"{name}.self_s"] = (layer(name), "s")
    for name in ("polynomials.substitute", "symmetry.semi_invariance",
                 "invariants.transvectant"):
        metrics[f"{name}.calls"] = (layer(name, "calls"), "count")
    calls = layer("symmetry.semi_invariance", "calls")
    metrics["symmetry.semi_invariance.certified_ratio"] = (
        layer("symmetry.semi_invariance", "ok") / calls if calls else 0, "ratio")
    calls = layer("invariants.transvectant", "calls")
    metrics["invariants.transvectant.ms_per_call"] = (
        layer("invariants.transvectant", "total_s") * 1000 / calls if calls else 0, "ms")
    metrics["cyclotomic.coeff_bits_max"] = (max(r["coeff_bits"] for r in records), "bits")
    metrics["cli.payload_bytes"] = (
        statistics.mean(r["payload_bytes"] for r in records), "bytes")
    metrics["trace.overhead_ratio"] = (
        sum(r["seconds"] for r in records) / sum(r["seconds"] for r in plain), "ratio")
    metrics.update(micro.run(args.seed))
    return metrics, plain + records, gauge


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "stackygit" / "cli.py").is_file():
        print(f"perfbench: no stackygit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from setup_probe import fill_caches
    from verdicts import load_answers
    from workloads import build_ops

    env = environment(args)
    ops = build_ops(args.workload, args.seed, args.seconds)
    write_inputs(ops)
    answers = load_answers()
    import stackygit.cli as cli

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.op = "setup"
        tracer.install()
        try:
            fill_caches(args.workload)
        finally:
            tracer.disable()
    else:
        fill_caches(args.workload)
    # the caches filled above live for the whole run; keep the cyclic
    # collector from rescanning them between operations
    gc.collect()
    gc.freeze()
    if args.trace:
        metrics, records, gauge = per_layer(args, ops, cli, answers, tracer)
    else:
        metrics, records, gauge = end_to_end(args, ops, cli, answers)

    result = summary(records)
    argv = {op["id"]: op["argv"] for op in ops}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl.gz")
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"environment": env, **result,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "operations": [dict(r, argv=argv[r["id"]]) for r in records],
                   "loop_timings": list(zip(gauge.at, gauge.seconds))},
                  handle, indent=1)
    line = {"correct": result["wrong_verdicts"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
