"""Run one `rangesim` CLI command and report its own timing and memory.

Usage: python3 perfbench/launch.py <rangesim arguments...>

The CLI writes to stdout as usual. After the command returns, one line

    perfbench main_s=<seconds> maxrss_kb=<kB>

goes to stderr, where main_s covers `rangesim.cli.main` only (interpreter
start-up and imports excluded) and maxrss_kb is this process's peak RSS.
Each process-pool worker the command starts writes

    perfbench worker_maxrss_kb=<kB>

to stderr as it exits, so the caller can add the workers' peaks.
"""

import os
import resource
import sys
import time
from concurrent.futures import process as _futures_process


def _report(text: str) -> None:
    os.write(2, f"perfbench {text}\n".encode())


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


_pool_worker = _futures_process._process_worker


def _measured_pool_worker(*args, **kwargs):
    try:
        return _pool_worker(*args, **kwargs)
    finally:
        _report(f"worker_maxrss_kb={_maxrss_kb()}")


def main() -> int:
    # The executor looks this name up when it spawns a worker; fork-started
    # workers inherit the replacement.
    _futures_process._process_worker = _measured_pool_worker
    from rangesim.cli import main as rangesim_main

    start = time.perf_counter()
    code = rangesim_main(sys.argv[1:])
    sys.stdout.flush()
    elapsed = time.perf_counter() - start
    _report(f"main_s={elapsed!r} maxrss_kb={_maxrss_kb()}")
    return code


if __name__ == "__main__":
    sys.exit(main())
