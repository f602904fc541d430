"""Set-up probe: import the named webfold modules and print the CPU time used.

    python3 perfbench/probe.py MODULE...

Only sys and time are imported before MODULE..., so every standard-library
module the package pulls in is paid for by the package, as in a real
start.  The printed figure is this process's CPU seconds from its start,
interpreter start-up included, until MODULE... are imported.  The check
that webfold came from the checkout's `src` runs after the clock is read.
"""

import sys
import time

for name in sys.argv[1:]:
    __import__(name)
now = time.process_time()

import os  # noqa: E402  (the check below is not part of set-up)

src = os.path.realpath(os.environ["PERFBENCH_SRC"])
if not os.path.realpath(sys.modules["webfold"].__file__).startswith(src + os.sep):
    sys.exit(f"webfold was imported from {sys.modules['webfold'].__file__}, not from {src}")
print(now)
