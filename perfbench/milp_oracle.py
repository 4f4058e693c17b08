"""Cross-check the bnb workload's expected sigma values with an integer
program, independently of ``wreathcover.cover.sigma_exact``.

For every target in ``bnb_targets.json``, and for every built-in group's
full anchor, this builds the same candidate masks the CLI builds
(``build_instance`` over the catalog's maximal classes) and solves the set
cover as a 0/1 program with ``scipy.optimize.milp`` (HiGHS).  Run it from
the repository root after editing the menu:

    python3 perfbench/milp_oracle.py

It exits 1 if any value disagrees.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from anchors import SIGMA  # noqa: E402
from workloads import load_bnb_targets  # noqa: E402
from wreathcover.cover import build_instance  # noqa: E402
from wreathcover.pipelines import load_group, parse_target_spec  # noqa: E402


def milp_cover_size(masks: list[int], nbits: int) -> int:
    rows, cols = [], []
    for j, mask in enumerate(masks):
        for b in range(nbits):
            if mask >> b & 1:
                rows.append(b)
                cols.append(j)
    a = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(nbits, len(masks)))
    res = milp(
        np.ones(len(masks)),
        constraints=LinearConstraint(a, lb=1, ub=np.inf),
        integrality=np.ones(len(masks)),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    return round(res.fun)


def main() -> int:
    cases = [(g, None, s) for g, s in SIGMA.items()]
    menu = load_bnb_targets()
    entries = [e for choice in menu["choices"] for e in choice] + menu["probes"]
    cases += [(e["group"], e["target"], e["sigma"]) for e in entries]
    bad = 0
    for group, target, expected in cases:
        cg = load_group(group)
        ids = parse_target_spec(cg.table, target) if target else None
        inst = build_instance(cg.table, cg.maximal_classes, ids)
        got = milp_cover_size(inst.masks, inst.universe_size)
        ok = got == expected
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {group:10s} {target or 'all':24s} expected {expected:3d} milp {got:3d}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
