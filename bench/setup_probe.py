"""One set-up sample of the uavmec benchmark, run in a fresh interpreter.

Times ``import uavmec`` plus loading the bundled ``table2.cfg`` and
constructing the workload's scenarios from the parameter list read as JSON
on stdin (empty for the fixed workloads; the generator's own work is done
by the parent and not timed).  Prints the elapsed seconds.

    python3 bench/setup_probe.py <checkout root> < params.json
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    root = Path(sys.argv[1])
    params = json.loads(sys.stdin.read())
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import uavmec

    uavmec.load_scenario(root / "src" / "uavmec" / "scenarios" / "table2.cfg")
    for p in params:
        uavmec.Scenario(**p)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
