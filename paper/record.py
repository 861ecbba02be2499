"""Run the paper's figure recipes at full size and record what they give.

Usage: python3 paper/record.py [--emit PATH]

Each `paper/fig_*.json` recipe runs as `rangesim sweep --config FILE
--workers 2` in a fresh interpreter, against the `src/` next to this
directory. For each, the record holds the wall time of that process,
the CSV's data row count and its sha256. The record also names the commit the recipes ran on, marked "-dirty" when the tree
has uncommitted changes, since a hash taken on a dirty tree does not
belong to that commit. The JSON goes to PATH, or to stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECIPES = ("fig_r", "fig_4_n", "fig_s1")
WORKERS = 2
CLI = "import sys; from rangesim.cli import main; sys.exit(main(sys.argv[1:]))"


def git_commit() -> str:
    """HEAD's hash with "-dirty" when tracked files differ from it, or "unknown"."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    if head.returncode or status.returncode:
        return "unknown"
    return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def run_recipe(name: str, out_dir: str) -> dict:
    out = os.path.join(out_dir, f"{name}.csv")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = [sys.executable, "-c", CLI, "sweep", "--config", os.path.join(HERE, f"{name}.json"),
            "--workers", str(WORKERS), "--out", out]
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True)
    wall = time.perf_counter() - start
    with open(out, "rb") as fh:
        data = fh.read()
    return {"recipe": f"paper/{name}.json", "wall_s": round(wall, 2),
            "rows": data.count(b"\n") - 1, "sha256": hashlib.sha256(data).hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--emit", help="JSON output path (default stdout)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as out_dir:
        runs = []
        for name in RECIPES:
            runs.append(run_recipe(name, out_dir))
            print(f"{name}: {runs[-1]}", file=sys.stderr)
    record = {"command": "python3 paper/record.py", "git_commit": git_commit(),
              "workers": WORKERS, "cpu_count": os.cpu_count(), "runs": runs}
    text = json.dumps(record, indent=2) + "\n"
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
