"""Set-up time of one fresh interpreter: import the CLI and orchestration
modules, then load the given configs.  Prints one JSON line.

    python3 bench/setup_probe.py SRC_DIR CONFIG.json [CONFIG.json ...]
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gaussbsde.cli  # noqa: E402
import gaussbsde.experiments  # noqa: E402

imported = time.perf_counter()
for path in sys.argv[2:]:
    gaussbsde.config.load_config(path)
loaded = time.perf_counter()

import json  # noqa: E402

print(json.dumps({
    "import_s": imported - start,
    "load_config_s": loaded - imported,
    "module": gaussbsde.__file__,
}))
