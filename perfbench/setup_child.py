"""Set-up probe, run by run.py in a fresh interpreter:

    python perfbench/setup_child.py SESSION...

Imports the CLI and loads every session, then samples the reference loop
(it needs `fractions`, which must not be imported before the timed part);
prints the wall seconds of each part as one JSON line.
"""

import json
import sys
import time

t0 = time.perf_counter()
import conslaw_kit.cli  # noqa: E402
from conslaw_kit.dsl import load_session  # noqa: E402

t1 = time.perf_counter()
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        load_session(fh.read())
t2 = time.perf_counter()

from reference import reference_s  # noqa: E402

print(json.dumps({
    "import_s": t1 - t0,
    "load_s": t2 - t1,
    "reference_s": [reference_s() for _ in range(5)],
    "module": conslaw_kit.cli.__file__,
}))
