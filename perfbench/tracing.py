"""Spans around the package's public callables, recorded from outside it.

A :class:`Tracer` replaces each listed callable with a wrapper that records
one span per call: ``[name, start, end, parent, op, ok]`` where ``parent``
is the index of the enclosing span (-1 at the top), ``op`` the operation id
current at the time and ``ok`` whether the call returned a value other
than ``None`` (for ``semi_invariance`` that is "certified").  Spans stay in
memory until :meth:`Tracer.write`.

``from .x import f`` copies a reference, so a function is replaced in every
loaded ``stackygit`` module that holds it; methods are replaced on their
class.  :meth:`Tracer.disable` puts every original back and
:meth:`Tracer.enable` the wrappers again, cheaply enough to toggle around
each operation.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

#: (span name, module, attribute) for functions; (span name, module,
#: "Class.method") for methods.
TARGETS = (
    ("cli.run_command", "cli", "run_command"),
    ("exprparse.form", "exprparse", "form"),
    ("ringspec.load", "ringspec", "load"),
    ("graded.stacky_decompose", "graded", "stacky_decompose"),
    ("graded.rigidify", "graded", "rigidify"),
    ("graded.affine_chart", "graded", "affine_chart"),
    ("locus.locus_report", "locus", "quintic_locus_report"),
    ("locus.locus_report", "locus", "sextic_locus_report"),
    ("groups.group_generators", "groups", "group_generators"),
    ("groups.group_contains", "groups", "group_contains"),
    ("symmetry.semi_invariance", "symmetry", "semi_invariance"),
    ("symmetry.klein_generate", "symmetry", "klein_generate"),
    ("symmetry.catalog_stabilizer", "symmetry", "catalog_stabilizer"),
    ("invariants.transvectant", "invariants", "transvectant"),
    ("invariants.resultant", "invariants", "resultant"),
    ("invariants.evaluate_recipe", "invariants", "evaluate_recipe"),
    ("invariants.calibrate_invariants", "invariants", "calibrate_invariants"),
    ("polynomials.substitute", "polynomials", "BinaryForm.substitute"),
    ("polynomials.proportional_to", "polynomials", "BinaryForm.proportional_to"),
    ("polynomials.multiplicity_profile", "polynomials",
     "BinaryForm.multiplicity_profile"),
    ("polynomials.form_mul", "polynomials", "BinaryForm.__mul__"),
    ("polynomials.form_mul", "polynomials", "BinaryForm.__rmul__"),
    ("polynomials.multipoly_evaluate", "polynomials", "MultiPoly.evaluate"),
)

PACKAGE = "stackygit"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, False]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                span[5] = result is not None
                return result
            finally:
                stack.pop()
                span[2] = perf_counter()

        return traced

    def install(self, targets=TARGETS):
        """Find every reference to the targets and switch the wrappers on."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, module, attr in targets:
            owner = sys.modules[f"{PACKAGE}.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original, self._wrap(name, original)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))
        self.enable()

    def enable(self):
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def disable(self):
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)


    def write(self, path):
        """JSON lines, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, start, end, parent, op, ok in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op, "ok": ok}))
                handle.write("\n")


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(index, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def layer_totals(spans):
    """name -> {"self_s", "total_s", "calls", "ok"} over all spans."""
    totals = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0, "ok": 0})
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span[0]]
        entry["self_s"] += own
        entry["total_s"] += span[2] - span[1]
        entry["calls"] += 1
        entry["ok"] += bool(span[5])
    return dict(totals)
