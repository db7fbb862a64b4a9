"""Self-tests of the benchmark itself (not of stackygit).

Run from the repository root::

    python3 perfbench/selftest.py

The file is deliberately not named ``test_*.py``, so the repository's test
suite does not collect it.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, HERE)

from stackygit.cli import run_command  # noqa: E402

import tracing  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402


def _dump(ops) -> bytes:
    return json.dumps(ops, sort_keys=True).encode()


class OperationLists(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(_dump(workloads.build_ops(name, 5, 15)),
                                 _dump(workloads.build_ops(name, 5, 15)))

    def test_other_seed_gives_other_list(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertNotEqual(_dump(workloads.build_ops(name, 5, 15)),
                                    _dump(workloads.build_ops(name, 6, 15)))

    def test_blocks_keep_their_composition(self):
        def shapes(seed):
            return sorted((op["argv"][2], op["argv"][3:6], op["expect"]["degree"])
                          for op in workloads.build_ops("klein", seed, 15))

        self.assertEqual(shapes(1), shapes(2))
        self.assertEqual(len(shapes(1)), 100)

    def test_support_rule_on_catalog_forms(self):
        self.assertEqual(workloads.support_rule([1, 0, 0, 1, 0, 0]), "C3")  # x^5 + x^2 y^3
        self.assertEqual(workloads.support_rule([0, 1, 0, 0, 1, 0]), "D3")  # x^4 y + x y^4
        self.assertIsNone(workloads.support_rule([1, 0, 0, 0, 0, 1]))       # g = 5

    def test_render_form(self):
        self.assertEqual(workloads.render_form([1, 0, -3, 0, 1]), "x^4 - 3*x^2*y^2 + y^4")
        self.assertEqual(workloads.render_form([-2, 1, 0]), "-2*x^2 + x*y")


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping) and
        # c [8, 12] (sticking out); a has child d [2, 3].
        spans = [
            ["root", 0.0, 10.0, -1, "op", True],
            ["a", 1.0, 4.0, 0, "op", True],
            ["d", 2.0, 3.0, 1, "op", True],
            ["b", 3.0, 6.0, 0, "op", True],
            ["c", 8.0, 12.0, 0, "op", False],
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.0, 1.0, 3.0, 4.0])
        totals = tracing.layer_totals(spans)
        self.assertEqual(totals["root"]["self_s"], 3.0)
        self.assertEqual(totals["c"]["ok"], 0)

    def test_tracer_restores_originals(self):
        import stackygit.cli as cli
        import stackygit.symmetry as symmetry
        from stackygit.polynomials import BinaryForm

        before = (cli.catalog_stabilizer, symmetry.semi_invariance, BinaryForm.substitute)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(cli.catalog_stabilizer, before[0])
            cli.run_command(["--json", "stabilizer", "x^5 + y^5"])
        finally:
            tracer.disable()
        self.assertEqual((cli.catalog_stabilizer, symmetry.semi_invariance,
                          BinaryForm.substitute), before)
        totals = tracing.layer_totals(tracer.spans)
        self.assertEqual(totals["cli.run_command"]["calls"], 1)
        self.assertGreater(totals["symmetry.semi_invariance"]["calls"], 1)
        self.assertEqual(totals["symmetry.catalog_stabilizer"]["calls"], 1)


class Verdicts(unittest.TestCase):
    answers = verdicts.load_answers(os.path.join(HERE, "answers.json"))

    def _verdict(self, op, payload, status=0):
        return verdicts.check(op, status, payload, self.answers)

    def _run(self, op):
        for rel, text in op["files"].items():
            os.makedirs(os.path.dirname(rel), exist_ok=True)
            with open(rel, "w", encoding="utf-8") as handle:
                handle.write(text)
        result = run_command(op["argv"])
        return result.status, result.payload

    def _first(self, workload, predicate):
        return next(op for op in workloads.build_ops(workload, 3, 15) if predicate(op))

    def test_altered_payloads_are_flagged(self):
        cases = [
            (self._first("klein", lambda op: op["argv"][2].startswith("C")),
             lambda p: p.update(degree=p["degree"] + 1)),
            (self._first("stabilizer", lambda op: "known_error" not in op["expect"]),
             lambda p: p.update(maximal_groups=["C1"] + p["maximal_groups"])),
            (self._first("rings", lambda op: op["argv"][1] == "catalog"),
             lambda p: p["notes"].append("altered")),
            (self._first("rings", lambda op: op["argv"][1] == "rigidify"),
             lambda p: p.update(gerbe_index=p["gerbe_index"] + 1)),
            (self._first("rings", lambda op: op["argv"][1] == "chart"),
             lambda p: p["residual_grading"].reverse()),
        ]
        for op, alter in cases:
            with self.subTest(argv=op["argv"]):
                status, payload = self._run(op)
                self.assertEqual(self._verdict(op, payload, status), "ok")
                altered = copy.deepcopy(payload)
                alter(altered)
                self.assertEqual(self._verdict(op, altered, status), "wrong")

    def test_calibrate_scalars_are_checked(self):
        op = {"argv": [], "expect": {"kind": "calibrate",
                                      "scalars": workloads.QUINTIC_SCALARS}}
        payload = {"succeeded": True, "scalars": dict(workloads.QUINTIC_SCALARS)}
        self.assertEqual(self._verdict(op, payload), "ok")
        payload["scalars"]["I8"] = "1/3"
        self.assertEqual(self._verdict(op, payload), "wrong")

    def test_known_failure_and_later_success(self):
        text, group = workloads.ORDER_CAP_EXAMPLE
        op = {"argv": ["--json", "stabilizer", text], "expect": {
            "kind": "stabilizer", "groups": [group],
            "known_error": {"status": 3, "code": "order-cap-exceeded"}}}
        refusal = {"error": {"code": "order-cap-exceeded", "message": "m"}}
        self.assertEqual(self._verdict(op, refusal, 3), "known-failure")
        other = {"error": {"code": "closure-bound-exceeded", "message": "m"}}
        self.assertEqual(self._verdict(op, other, 3), "wrong")
        fixed = {"maximal_groups": [group],
                 "certificates": [{"group": group, "scalars": ["1", "1"]}]}
        self.assertEqual(self._verdict(op, fixed), "ok")
        fixed["maximal_groups"] = ["C30"]
        self.assertEqual(self._verdict(op, fixed), "wrong")


if __name__ == "__main__":
    os.chdir(os.path.join(HERE, ".."))
    unittest.main()
