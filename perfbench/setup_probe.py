"""Time `import oscgauss` in this fresh interpreter, corrected for machine speed.

Started by run.py with PYTHONPATH pointing at src/; prints the corrected
and the raw seconds (see clock.py) as one JSON line.
"""

import json
import time

import clock

with clock.SpeedClock() as clk:
    t0 = time.perf_counter()
    import oscgauss  # noqa: F401  (the import is what is measured)
    t1 = time.perf_counter()
print(json.dumps({"setup_s": clk.corrected(t0, t1), "raw_setup_s": clk.raw(t0, t1)}))
