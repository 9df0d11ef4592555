"""Set-up probe, run in a fresh interpreter: times `import thermoqme`,
`load_config` and `build_run` for one configuration, then calibrates the
machine's speed (calibrate.py).  Prints seconds, speed scale and the path
thermoqme was imported from.

Usage: python3 bench/probe.py SRC_DIR CONFIG_PATH
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import thermoqme  # noqa: E402

thermoqme.build_run(thermoqme.load_config(sys.argv[2]))
elapsed = time.perf_counter() - t0

import calibrate  # noqa: E402

print(f"{elapsed!r} {calibrate.scale(calibrate.sample(0.1))!r} {thermoqme.__file__}")
