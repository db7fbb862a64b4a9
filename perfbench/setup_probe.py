"""Set-up cost of a workload, as a fresh process pays it.

Run as ``python3 perfbench/setup_probe.py <workload>`` from the repository
root: it imports ``stackygit.cli``, fills the caches the workload needs on
first use and prints the seconds both took, scaled to the nominal speed of
``speed.py``.  ``run.py`` also imports
:func:`fill_caches` to warm its own process before timing.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))


def fill_caches(workload: str):
    """Group generators, ground forms, catalog rings and the cyclotomic
    tables behind them, for the groups and families the workload uses."""
    import stackygit.cli  # noqa: F401
    from stackygit.groups import GroupSpec, group_elements, group_generators
    from stackygit.invariants import catalog_ring
    from stackygit.symmetry import ground_forms

    polyhedral = [GroupSpec(k) for k in "TOI"]
    if workload == "klein":
        for n in range(2, 9):
            group_generators(GroupSpec("C", n))
            ground_forms(GroupSpec("D", n))
            group_generators(GroupSpec("D", n))
        for spec in polyhedral:
            ground_forms(spec)
            group_generators(spec)
    elif workload == "stabilizer":
        for n in range(1, 25):
            group_generators(GroupSpec("C", n))
            group_generators(GroupSpec("D", n))
        for spec in polyhedral:
            group_elements(spec)
    elif workload == "calibrate":
        for family in ("quintic", "sextic"):
            catalog_ring(family)
    elif workload == "rings":
        for family in ("quartic", "quintic", "sextic", "cubic-curve", "cubic-surface"):
            catalog_ring(family)
        for spec in polyhedral:
            ground_forms(spec)
    else:
        raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    from speed import NOMINAL_S, loop_seconds

    before = loop_seconds()
    t0 = perf_counter()
    fill_caches(sys.argv[1])
    elapsed = perf_counter() - t0
    print(elapsed * NOMINAL_S * 2 / (before + loop_seconds()))
