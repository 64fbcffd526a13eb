"""Print each subcommand's peak RSS on the golden compact round trip.

    PYTHONPATH=src python tests/peak_rss.py

Each subcommand of tests/test_golden.py's round trip runs in its own
``python -m powertrace.cli`` process, and its peak RSS is that process's
ru_maxrss. A child's ru_maxrss starts from its parent's RSS at the fork,
so this script imports neither numpy nor powertrace: a helper process
writes the scenario and hands back the commands. The numbers are
informational; nothing is checked against them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = (
    "import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[2]); "
    "from test_golden import round_trip_commands; "
    "print(json.dumps(round_trip_commands(Path(sys.argv[1]))))"
)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        helper = subprocess.run(
            [sys.executable, "-c", COMMANDS, tmp, str(Path(__file__).parent)],
            check=True, capture_output=True, text=True,
        )
        for argv in json.loads(helper.stdout):
            proc = subprocess.Popen([sys.executable, "-m", "powertrace.cli", *argv],
                                    stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                print(f"{argv[0]} exited with {proc.returncode}", file=sys.stderr)
                return 1
            print(f"{argv[0]:<9} {usage.ru_maxrss / 1024:6.1f} MiB")  # Linux: KiB
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
