"""Print the independently computed report values of one config as JSON.

    python3 bench/expected.py SRC WORKLOAD CONFIG

The output is a list of [file, path into the JSON report, value] entries for
``workloads.check_reports``. This runs in a process of its own because Linux
carries a parent's peak resident set size over to the children it starts:
rebuilding the grid workload's chains here, not in the parent, keeps that
memory out of the measured runs' ``peak_rss_mb``.
"""
import json
import sys
from pathlib import Path

import numpy as np


def main(argv) -> int:
    src, name, config = argv
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    cfg = json.loads(Path(config).read_bytes())
    entries = [[f, list(path), np.asarray(v).tolist()] for f, path, v in WORKLOADS[name].expected(cfg)]
    print(json.dumps(entries))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
