"""One fresh-process set-up: import gausspoisson, parse the config and write
the workload's inputs.  ``run.py`` times several of these and reports the
median as ``setup_s``.

    python3 perfbench/setup_child.py WORKLOAD SCALE SEED WORKDIR

Run from the root of the repository, whose ``src/`` holds the package.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402  (needs the path above)


if __name__ == "__main__":
    name, scale, seed, work = sys.argv[1:5]
    workloads.write_inputs(name, scale, int(seed), Path(work))
