"""Set-up probe: import nosignal and generate one pass of configs, then exit.

``run.py`` times this script in fresh interpreters as the ``setup_s``
metric, so interpreter start and import cost are part of it::

    python3 perfbench/setup_probe.py matrix96 1
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import nosignal  # noqa: E402,F401
import workloads  # noqa: E402

for cfg in next(workloads.passes(sys.argv[1], int(sys.argv[2]))):
    workloads.to_config(cfg)
