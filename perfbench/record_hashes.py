"""Print the hash lock for perfbench/hashes.json.

    python3 perfbench/record_hashes.py > perfbench/hashes.json

Runs every workload command once with the CLI's default seed and prints
the SHA-256 of each output. Re-record only when a change is meant to
alter output bytes, and say so in CHANGES.md.
"""

import json
import sys

from run import LOCK_SEED, build, run_command
from workloads import WORKLOADS


def main() -> int:
    build()
    commands = {}
    for workload in WORKLOADS.values():
        for command in workload.commands:
            sample = run_command(workload, command, LOCK_SEED, workload.workers, None)
            if sample.problems:
                print(f"{command.label}: {sample.problems}", file=sys.stderr)
                return 1
            commands[command.label] = {
                "argv": workload.argv(command, LOCK_SEED, workload.workers),
                "sha256": sample.sha256,
            }
    json.dump({"seed": LOCK_SEED, "commands": commands}, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
