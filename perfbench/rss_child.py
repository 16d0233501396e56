"""Memory probe, run by run.py in a fresh interpreter:

    python perfbench/rss_child.py SECONDS SESSION...

Runs `conslaw-kit run --format json` on every session in this one
process, in the given order, so the reports go to standard output.  Then
prints one JSON line to standard error: the exit code of each run and
this process's peak resident set (`VmHWM`, KiB).  `VmHWM` belongs to the
address space that exec created, so it counts this process alone; the
`ru_maxrss` a parent gets from `wait4` also holds the RSS the parent had
when it spawned the child.
"""

import json
import sys

from conslaw_kit.cli import main


def vmhwm_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


timeout, paths = sys.argv[1], sys.argv[2:]
codes = [main(["run", "--session", p, "--format", "json",
               "--timeout", timeout]) for p in paths]
sys.stdout.flush()
print(json.dumps({"codes": codes, "vmhwm_kib": vmhwm_kib()}),
      file=sys.stderr)
