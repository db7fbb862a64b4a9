"""Per-layer microbenchmarks that call the package's functions directly.

``substitute_ms``: one ``BinaryForm.substitute`` by every generator of a
group, on a Klein semi-invariant of the named degree, in milliseconds.

``mul_us``: one product in Q(zeta_m), in microseconds.  The operands are
the coefficients of a seeded degree-24 form after substitution by the
generator that brings Q(zeta_m) in (the products ``substitute`` does while
refuting or certifying a candidate group) and, for m = 1, coefficients of
transvectants of random integer forms (the values ``calibrate`` multiplies).
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

from stackygit.cyclotomic import zeta
from stackygit.groups import GroupSpec, group_generators
from stackygit.invariants import random_form, transvectant
from stackygit.polynomials import BinaryForm
from stackygit.symmetry import klein_generate

#: label -> (group, exponents, number of lambda:mu pairs); the degree is in
#: the label.
SUBSTITUTE_CASES = {
    "I.d60": ("I", (0, 0, 0), 1),
    "I.d120": ("I", (0, 0, 0), 2),
    "O.d48": ("O", (0, 0, 0), 2),
    "T.d48": ("T", (0, 0, 0), 4),
    "D8.d40": ("D8", (1, 0, 0), 2),
    "C20.d40": ("C20", (0, 0, 0), 2),
}
#: order m -> (group, generator index, coefficient ring of the form)
MUL_SOURCES = {4: ("T", 2, 1), 5: ("I", 1, 1), 8: ("O", 3, 1),
               12: ("T", 2, 3), 40: ("C20", 0, 1)}
MUL_PAIRS = 100
MUL_REPEATS = 5


def _pairs(rng, count):
    out = []
    while len(out) < count:
        lam, mu = rng.randint(-5, 5), rng.randint(-5, 5)
        if lam and mu:
            out.append((lam, mu))
    return out


def substitute_ms(seed: int):
    """label -> milliseconds."""
    rng = random.Random(f"micro:{seed}")
    timings = {}
    for label, (group, exps, count) in SUBSTITUTE_CASES.items():
        spec = GroupSpec.parse(group)
        f = klein_generate(spec, *exps, _pairs(rng, count))
        if f.degree != int(label.split(".d")[1]):
            raise RuntimeError(f"{label}: built a form of degree {f.degree}")
        elapsed = 0.0
        for g in group_generators(spec):
            t0 = perf_counter()
            f.substitute(g)
            elapsed += perf_counter() - t0
        timings[label] = elapsed * 1000
    return timings


def operand_pool(seed: int, m: int, size: int = 2 * MUL_PAIRS):
    """Nonzero values of order m, as the workloads produce them."""
    rng = random.Random(f"micro-{m}:{seed}")
    pool = []
    while len(pool) < size:
        if m == 1:
            f = random_form(rng, 6)
            h = transvectant(transvectant(f, f, 2), f, 2)
        else:
            group, index, ring = MUL_SOURCES[m]
            unit = zeta(ring)
            f = BinaryForm([rng.randint(-9, 9) + rng.randint(-9, 9) * unit
                            for _ in range(25)])
            h = f.substitute(group_generators(GroupSpec.parse(group))[index])
        pool += [c for c in h.coeffs if c and c.order == m]
    return pool[:size]


def mul_us(seed: int):
    """order -> microseconds per product (median of repeats)."""
    out = {}
    for m in (1, *MUL_SOURCES):
        values = operand_pool(seed, m)
        pairs = list(zip(values[0::2], values[1::2]))
        runs = []
        for _ in range(MUL_REPEATS):
            t0 = perf_counter()
            for a, b in pairs:
                a * b
            runs.append((perf_counter() - t0) / len(pairs))
        out[m] = statistics.median(runs) * 1e6
    return out


def run(seed: int):
    """All microbenchmark metrics, keyed by their per-layer names."""
    metrics = {f"polynomials.substitute_ms.{k}": (v, "ms")
               for k, v in substitute_ms(seed).items()}
    for m, v in mul_us(seed).items():
        metrics[f"cyclotomic.mul_us.m{m}"] = (v, "us")
    return metrics
