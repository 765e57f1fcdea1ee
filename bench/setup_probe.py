"""Fresh-process set-up: import cstarfix and build a workload's registry entries.

Usage: python3 setup_probe.py SRC_DIR SETUP_JSON

SETUP_JSON is one entry of ``workloads.SETUP_USE``. Prints
{"import_s": ..., "build_s": ...} as one JSON line.
"""

import importlib
import json
import sys
import time


def main() -> None:
    src, use = sys.argv[1], json.loads(sys.argv[2])
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    for module in use["modules"]:
        importlib.import_module(module)
    t1 = time.perf_counter()
    registry = importlib.import_module("cstarfix.registry")
    getters = {
        "spaces": registry.get_space, "operators": registry.get_operator,
        "phis": registry.get_phi, "combiners": registry.get_combiner,
    }
    for kind, names in use.items():
        for name in names if kind in getters else ():
            getters[kind](name)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))


if __name__ == "__main__":
    main()
