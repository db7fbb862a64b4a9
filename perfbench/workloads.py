"""Seeded operation lists and their known answers.

Every operation is one ``stackygit`` CLI invocation, described as a plain
JSON-serialisable dict::

    {"id": "klein-0007", "argv": ["--json", "klein", ...],
     "expect": {...}, "files": {relative path: text}}

``expect`` says how the payload is checked (see :mod:`verdicts`); ``files``
lists input files the runner writes before timing starts.  The lists are
pure functions of ``(workload, seed, seconds)``: the same arguments give a
byte-identical list.

Each workload is built from *blocks* of fixed composition, so that runs
with different seeds do the same mix of work: the structure of the draws
comes from a fixed design, and the seed picks the values (lambda:mu pairs,
coefficients, calibration seeds, ring specs) and the order.  ``--seconds``
sets the number of blocks, sized so that one run at the seed commit on a
2-core Xeon VM takes about that long; ``calibrate`` has one block, one
sextic and 49 quintic calibrations, which takes about 19 s there.
"""

from __future__ import annotations

import random
from math import gcd

WORKLOADS = ("klein", "stabilizer", "calibrate", "rings")

#: Nominal seed-commit cost of one block, in seconds.
BLOCK_SECONDS = {"klein": 3.75, "stabilizer": 3.0, "calibrate": 15.0, "rings": 1.2}

DEMO_RINGS = ("cubic_curve", "cubic_surface", "quartic", "quintic", "sextic")
FAMILIES = ("quartic", "quintic", "sextic", "cubic-curve", "cubic-surface")

# Ground-form degrees (F1, F2, F3) and group orders, as in Klein's tables.
GROUND_DEGREES = {"T": (4, 4, 6), "O": (6, 8, 12), "I": (12, 20, 30)}
ORDERS = {"T": 24, "O": 48, "I": 120}
GENERATOR_COUNT = {"C": 1, "D": 2, "T": 3, "O": 4, "I": 2}

#: The sixteen catalog normal forms (default parameters) and their groups.
CATALOG_FORMS = (
    ("quartic.generic", "5*x^4 - 2*x^2*y^2 + 5*y^4", "D2"),
    ("quartic.I", "x^4 + y^4", "D4"),
    ("quartic.II", "x^4 + 2*sqrtm3*x^2*y^2 + y^4", "T"),
    ("quintic.I", "2*x^5 + 5*x^3*y^2 + 3*x*y^4", "C2"),
    ("quintic.II", "x^2*(x^3 + y^3)", "C3"),
    ("quintic.III", "x*(x^4 + y^4)", "C4"),
    ("quintic.IV", "x*y*(x^3 + y^3)", "D3"),
    ("quintic.V", "x^5 + y^5", "D5"),
    ("sextic.I", "10*x^6 + 39*x^4*y^2 + 50*x^2*y^4 + 21*y^6", "C2"),
    ("sextic.II", "x*(x^5 + y^5)", "C5"),
    ("sextic.III", "5*x^5*y - 2*x^3*y^3 + 5*x*y^5", "D2"),
    ("sextic.IV", "5*x^6 - 2*x^3*y^3 + 5*y^6", "D3"),
    ("sextic.V", "x^6 + y^6", "D6"),
    ("sextic.VI", "x*y*(x^4 - y^4)", "O"),
    ("sextic.VII", "x^2*y*(x^3 + y^3)", "C3"),
    ("sextic.VIII", "x^2*(x^4 + y^4)", "C4"),
)

#: The degree-62 support class named in the roadmap; D30 once the order cap
#: no longer stops it (C_n iff n divides every support-index difference).
ORDER_CAP_EXAMPLE = ("x^61*y + x*y^61 + x^31*y^31", "D30")

QUINTIC_SCALARS = {"I4": "1", "I8": "1/2", "I12": "-1/4",
                   "I18": "1/729*zeta(8) - 1/729*zeta(8)^3"}
SEXTIC_SCALARS = {"I2": "1", "I4": "1", "I6": "1", "I10": "1", "I15": "5"}

# Criteria 2 and 3 of the acceptance suite: gerbe index, coarse weights and
# square-root divisor degree per catalog family.
GERBE_INDEX = {"quartic": 1, "quintic": 2, "sextic": 1,
               "cubic_curve": 2, "cubic_surface": 4}
DECOMPOSITION = {"quintic": ([1, 2, 3], 9), "sextic": ([1, 2, 3, 5], 15),
                 "cubic_surface": ([1, 2, 3, 4, 5], 25)}
DEMO_GENERATORS = {
    "cubic_curve": (("I4", 4), ("I6", 6)),
    "cubic_surface": (("I8", 8), ("I16", 16), ("I24", 24), ("I32", 32),
                      ("I40", 40), ("I100", 100)),
    "quartic": (("I2", 2), ("I3", 3)),
    "quintic": (("I4", 4), ("I8", 8), ("I12", 12), ("I18", 18)),
    "sextic": (("I2", 2), ("I4", 4), ("I6", 6), ("I10", 10), ("I15", 15)),
}

WORK_DIR = "perfbench/.work"


def block_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / BLOCK_SECONDS[workload]))


def build_ops(workload: str, seed: int, seconds: float):
    """The operation list of one run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for index, block in enumerate(_BUILDERS[workload](rng, block_count(workload, seconds), seed)):
        rng.shuffle(block)
        for op in block:
            op.update(id=f"{workload}-{len(ops):04d}", block=index)
            op.setdefault("files", {})
            ops.append(op)
    return ops


# -- integer binary forms, independent of the program --------------------------


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_pow(a, n):
    out = [1]
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def binomial_form(n, lam, mu):
    """lam*x^n + mu*y^n as coefficients a_0..a_n of x^(n-i) y^i."""
    return [lam] + [0] * (n - 1) + [mu]


def render_form(coeffs) -> str:
    """Text of sum a_i x^(d-i) y^i in the CLI's expression syntax."""
    d = len(coeffs) - 1
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        mono = "*".join(v if k == 1 else f"{v}^{k}"
                        for v, k in (("x", d - i), ("y", i)) if k)
        body = str(abs(c)) if (abs(c) != 1 or not mono) else ""
        body = f"{body}*{mono}" if body and mono else (body or mono)
        parts.append(("-" if c < 0 else "+", body))
    text = " ".join(f"{s} {b}" for s, b in parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def support_rule(coeffs):
    """Maximal catalog stabilizer of an integer form, from its support.

    diag(e, 1/e) with e = zeta_2n scales a_i by e^(d-2i), so the form is
    C_n-semi-invariant iff n divides every support-index difference; the
    dihedral swap maps a_i to a_(d-i) up to a unit, so D_n needs in addition
    a_(d-i) = c*a_i.  T and O contain C_2 and I contains an element of order
    5 that is diagonal, so when the gcd g of the differences is prime to 10
    none of them certifies and the answer is C_g or D_g.  Returns None when
    g shares a factor with 10 (the rule does not decide those).
    """
    d = len(coeffs) - 1
    support = [i for i, c in enumerate(coeffs) if c]
    g = 0
    for i in support:
        g = gcd(g, i - support[0])
    if g == 0 or gcd(g, 10) != 1:
        return None
    s0 = support[0]
    reversal = all(coeffs[d - i] * coeffs[s0] == coeffs[d - s0] * coeffs[i]
                   for i in range(d + 1))
    return f"{'D' if reversal else 'C'}{g}"


# -- klein ---------------------------------------------------------------------


def _pair(rng, nonzero=False):
    while True:
        lam, mu = rng.randint(-5, 5), rng.randint(-5, 5)
        if nonzero and lam and mu:
            return lam, mu
        if not nonzero:
            return (lam, mu) if (lam or mu) else (lam, 1)


def _exponents(rng, kind):
    """The acceptance suite's exponent draw for C_n, D_n and T."""
    cap = 2 if kind == "T" else 3
    return [rng.randint(0, cap) for _ in range(3)]


def klein_degree(kind, n, exps, count):
    """Degree of Klein's semi-invariant (criterion 6 of the acceptance suite)."""
    a, b, c = exps
    if kind == "C":
        return a + b + count * n
    d1, d2, d3 = (n, n, 2) if kind == "D" else GROUND_DEGREES[kind]
    order = 4 * n if kind == "D" else ORDERS[kind]
    return a * d1 + b * d2 + c * d3 + count * order // 2


# The structure of every draw (group, n, exponents, parameter count) comes
# from a fixed design drawn once from the acceptance suite's distribution,
# in blocks of fixed composition; the run's seed draws the lambda:mu values
# and the order.  Operation costs span three decades, so a structure drawn
# per seed would move the latency percentiles by 20-40 % between seeds.
DESIGN_BLOCKS = 4

# Parameter counts per block for each group: five draws per group, fewer
# parameters for I than the suite's one in three, because a parametrised
# I draw takes 1-3 s.
_KLEIN_COUNTS = {"C": (0, 1, 1, 2, 2), "D": (0, 1, 1, 2, 2),
                 "T": (0, 0, 1, 2, 2), "O": (0, 0, 0, 1, 1),
                 "I": (0, 0, 0, 0, 1)}
_TRIPLES = [[a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)]
# The 16 parameter-free I draws of a run hold nine copies of (1, 0, 1) and
# only two dearer ones, so that the 90th latency percentile of 100
# operations (six lie above the nine) is the middle one of nine like
# operations rather than the edge of a gap between two groups.
_I_PLAIN = ([[1, 1, 1]] * 2 + [[1, 0, 1]] * 9
            + [[0, 0, 1], [1, 1, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
#: (group, parameter count) -> exponent triples dealt out in turn, for the
#: draws whose cost spans a factor of ten or more with the exponents.
_CYCLED = {("O", 0): _TRIPLES[1:], ("O", 1): _TRIPLES,
           ("I", 0): _I_PLAIN, ("I", 1): [[0, 0, 0], [1, 0, 0], [0, 1, 1], [1, 1, 1]],
           ("T", 2): _TRIPLES}


def _cycle(rng, items):
    items = list(items)
    rng.shuffle(items)
    while True:
        yield from items


def _klein_design():
    rng = random.Random("klein design")
    cycles = {key: _cycle(rng, triples) for key, triples in _CYCLED.items()}
    design = []
    for _ in range(DESIGN_BLOCKS):
        block = []
        for kind in ("C", "D", "T", "O", "I"):
            for count in _KLEIN_COUNTS[kind]:
                n = rng.randint(2, 8) if kind in ("C", "D") else 0
                if (kind, count) in cycles:
                    exps = next(cycles[kind, count])
                else:
                    while True:
                        exps = _exponents(rng, kind)
                        if count or any(exps):
                            break
                block.append((kind, n, exps, count))
        design.append(block)
    return design


KLEIN_DESIGN = _klein_design()


def _build_klein(rng, blocks, seed):
    out = []
    for b in range(blocks):
        block = []
        for kind, n, exps, count in KLEIN_DESIGN[b % DESIGN_BLOCKS]:
            label = f"{kind}{n}" if n else kind
            params = [_pair(rng) for _ in range(count)]
            argv = ["--json", "klein", label, *map(str, exps)]
            if params:
                argv += ["--", *(f"{lam}:{mu}" for lam, mu in params)]
            block.append({"argv": argv, "expect": {
                "kind": "klein", "group": label,
                "degree": klein_degree(kind, n, exps, count),
                "generators": GENERATOR_COUNT[kind]}})
        out.append(block)
    return out


# -- stabilizer ----------------------------------------------------------------


def _stabilizer_op(text, group, known_error=None):
    expect = {"kind": "stabilizer", "groups": [group]}
    if known_error:
        expect["known_error"] = known_error
    return {"argv": ["--json", "stabilizer", text], "expect": expect}


def _klein_cd_coeffs(kind, n, exps, pairs):
    """Integer coefficients of Klein's C_n or D_n semi-invariant."""
    a, b, c = exps
    if kind == "C":
        coeffs = poly_mul([1] + [0] * a, [0] * b + [1])
        for lam, mu in pairs:
            coeffs = poly_mul(coeffs, binomial_form(n, lam, mu))
        return coeffs
    f1, f2 = binomial_form(n, 1, 1), binomial_form(n, 1, -1)
    coeffs = poly_mul(poly_mul(poly_pow(f1, a), poly_pow(f2, b)), poly_pow([0, 1, 0], c))
    for lam, mu in pairs:
        coeffs = poly_mul(coeffs, [lam * p + mu * q for p, q in
                                   zip(poly_pow(f1, 2), poly_pow(f2, 2))])
    return coeffs


def _klein_cd_form(rng, kind, n, exps, count):
    """A C_n or D_n semi-invariant whose support decides its stabilizer.

    n is 3, 7 or 9 and the lambda:mu are nonzero, so the support rule
    applies; a D_n form needs a factor with at least three distinct roots.
    """
    while True:
        pairs = [_pair(rng, nonzero=True) for _ in range(count)]
        if kind == "D" and not (exps[0] + exps[1] or any(l + m for l, m in pairs)):
            continue
        coeffs = _klein_cd_coeffs(kind, n, exps, pairs)
        group = support_rule(coeffs)
        if group is not None:
            return coeffs, group


def _stabilizer_design():
    """Per block: four catalog forms, eight Klein forms (kind, n, exponents,
    parameter count) and ten generic degrees; plus the degree and index gap
    of the seeded degree-61..64 form."""
    rng = random.Random("stabilizer design")
    design = []
    for k in range(DESIGN_BLOCKS):
        klein = []
        while len(klein) < 8:
            kind, n = rng.choice("CD"), rng.choice((3, 7, 9))
            exps = [rng.randint(0, 2) for _ in range(3)]
            count = rng.randint(1, 2) if kind == "C" else rng.randint(0, 1)
            coeffs = _klein_cd_coeffs(kind, n, exps, [(1, 2)] * count)
            if len(coeffs) - 1 <= 24 and support_rule(coeffs) is not None:
                klein.append((kind, n, exps, count))
        # two of degree 15 per block: the 90th latency percentile falls among
        # them, not on the steep cost-by-degree slope around them
        degrees = sorted([rng.randint(6, 10) for _ in range(7)] + [15, 15]
                         + [rng.randint(17, 24)])
        design.append((CATALOG_FORMS[4 * k:4 * k + 4], klein, degrees))
    degree = rng.randint(61, 64)
    gap = rng.choice([g for g in (7, 9, 11, 13, 17, 19, 21, 23, 27, 29, 31) if 2 * g <= degree])
    return design, (degree, gap)


STABILIZER_DESIGN, ORDER_CAP_SHAPE = _stabilizer_design()


def _generic_form(rng, degree):
    """Nonzero integer coefficients: full support, so C1 or D1."""
    coeffs = [rng.choice((-9, -8, -7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7, 8, 9))
              for _ in range(degree + 1)]
    return coeffs, support_rule(coeffs)


def _order_cap_form(rng, degree, g):
    """Support {s, s+g, s+2g} with g prime to 10; symmetric half the time."""
    coeffs = [0] * (degree + 1)
    a, b, c = (_pair(rng, nonzero=True)[0] for _ in range(3))
    if (degree - 2 * g) % 2 == 0 and rng.random() < 0.5:
        s, c = (degree - 2 * g) // 2, a
    else:
        s = rng.randint(0, degree - 2 * g)
    coeffs[s], coeffs[s + g], coeffs[s + 2 * g] = a, b, c
    return coeffs, support_rule(coeffs)


def _build_stabilizer(rng, blocks, seed):
    order_cap = {"status": 3, "code": "order-cap-exceeded"}
    out = []
    for b in range(blocks):
        catalog, klein, degrees = STABILIZER_DESIGN[b % DESIGN_BLOCKS]
        block = [_stabilizer_op(text, group) for _, text, group in catalog]
        for shape in klein:
            coeffs, group = _klein_cd_form(rng, *shape)
            block.append(_stabilizer_op(render_form(coeffs), group))
        for degree in degrees:
            coeffs, group = _generic_form(rng, degree)
            block.append(_stabilizer_op(render_form(coeffs), group))
        out.append(block)
    # one fixed and one seeded member of the degree-61..64 class per run
    text, group = ORDER_CAP_EXAMPLE
    out[0].append(_stabilizer_op(text, group, known_error=order_cap))
    coeffs, group = _order_cap_form(rng, *ORDER_CAP_SHAPE)
    out[0].append(_stabilizer_op(render_form(coeffs), group, known_error=order_cap))
    return out


# -- calibrate -----------------------------------------------------------------


def _build_calibrate(rng, blocks, seed):
    families = [("sextic", SEXTIC_SCALARS)] + [("quintic", QUINTIC_SCALARS)] * 49
    return [[{"argv": ["--json", "calibrate", family, "--seed", str(rng.randrange(10 ** 6))],
              "expect": {"kind": "calibrate", "scalars": scalars}}
             for family, scalars in families] for _ in range(blocks)]


# -- rings ---------------------------------------------------------------------


def _digest_op(argv, **table):
    return {"argv": ["--json", *argv], "expect": {"kind": "digest", **table}}


def fixed_ring_ops():
    """Operations whose answer is a payload digest recorded at the seed commit."""
    ops = []
    for name in DEMO_RINGS:
        path = f"demos/rings/{name}.ring"
        table = {"gerbe_index": GERBE_INDEX[name]}
        if name in DECOMPOSITION:
            coarse, degree = DECOMPOSITION[name]
            dec = dict(table, coarse_weights=coarse, divisor_degree=degree)
            ops.append(_digest_op(["decompose", path], **dec))
        else:
            ops.append(_digest_op(
                ["decompose", path], **table,
                known_error={"status": 2, "code": "relation-shape"}))
        ops.append(_digest_op(["rigidify", path], **table))
        for gen, weight in DEMO_GENERATORS[name]:
            ops.append(_digest_op(["chart", path, gen], modulus=weight))
    for family in FAMILIES:
        ops.append(_digest_op(["catalog", family]))
    for family in ("quintic", "sextic"):
        ops.append(_digest_op(["locus", family], all_sound=True))
    for group in ("T", "O", "I"):
        ops.append(_digest_op(["ground-forms", group]))
    return ops


def _random_ring(rng):
    """A ring spec with 2-5 generators, optionally one homogeneous relation."""
    count = rng.randint(2, 5)
    scale = rng.choice((1, 1, 2, 3, 4, 6))
    weights = [scale * rng.randint(1, 12) for _ in range(count)]
    names = [f"u{k}" for k in range(count)]
    lines = [f"{n} : {w}" for n, w in zip(names, weights)]
    if rng.random() < 0.5:
        i, j = rng.sample(range(count), 2)
        top = weights[i] * weights[j] // gcd(weights[i], weights[j])
        lam, mu = _pair(rng, nonzero=True)
        lines.append(f"relation: {lam}*{names[i]}^{top // weights[i]} "
                     f"+ {mu}*{names[j]}^{top // weights[j]}")
    return names, weights, "\n".join(lines) + "\n"


def _seeded_ring_ops(rng, seed, k):
    names, weights, text = _random_ring(rng)
    path = f"{WORK_DIR}/ring-{seed}-{k}.ring"
    g = 0
    for w in weights:
        g = gcd(g, w)
    ops = [{"argv": ["--json", "rigidify", path], "files": {path: text},
            "expect": {"kind": "rigidify", "gerbe_index": g, "generators": names,
                       "weights": weights, "relation": "relation:" in text}}]
    pick = rng.randrange(len(names))
    r = weights[pick]
    ops.append({"argv": ["--json", "chart", path, names[pick]], "files": {path: text},
                "expect": {"kind": "chart", "modulus": r, "residual": [
                    [n, w % r] for n, w in zip(names, weights) if n != names[pick]]}})
    n = rng.randint(1, 12)
    ops.append({"argv": ["--json", "ground-forms", f"D{n}"], "expect": {
        "kind": "ground-forms", "degrees": [n, n, 2], "nu": [2, 2, n]}})
    return ops


def _build_rings(rng, blocks, seed):
    out = []
    for b in range(blocks):
        block = fixed_ring_ops()
        for k in range(8):
            block += _seeded_ring_ops(rng, seed, 8 * b + k)
        out.append(block)
    return out


_BUILDERS = {"klein": _build_klein, "stabilizer": _build_stabilizer,
             "calibrate": _build_calibrate, "rings": _build_rings}
