"""The benchmark's set-up, and one timed set-up in a fresh process.

    python3 setup_probe.py SRC CACHE_DIR GROUPS_JSON FILLS_JSON

Imports ``wreathcover``, loads and verifies every catalog group (or spec
file) in GROUPS_JSON, fills the lattice cache in CACHE_DIR for every group
in FILLS_JSON (or reads it, when CACHE_DIR already holds it), then prints
``ready`` and its ``time.monotonic()`` reading,
a system-wide clock the parent compares with its own reading at spawn.
"""

import json
import sys
import time


def set_up(groups: list[str], fills: list[str], cache_dir: str) -> None:
    from wreathcover import cli  # noqa: F401  (the CLI's whole import graph)
    from wreathcover.lattice import all_subgroup_classes
    from wreathcover.pipelines import load_group

    for source in groups:
        # element orders and cycle types are computed once per group, on
        # first use; every request reads them, so they belong to set-up
        load_group(source).table.element_orders()
    for source in fills:
        all_subgroup_classes(load_group(source).table, cache_dir=cache_dir)


if __name__ == "__main__":
    src, cache_dir, groups, fills = sys.argv[1:5]
    sys.path.insert(0, src)
    set_up(json.loads(groups), json.loads(fills), cache_dir)
    print("ready", time.monotonic(), flush=True)
