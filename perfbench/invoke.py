"""One untraced CLI invocation, run in a fresh interpreter by run.py.

Usage: python3 perfbench/invoke.py [CLI ARGS...]

With no CLI arguments it only imports the package (a set-up probe). It
prints one JSON line: the monotonic clock right after ``import netuniq.cli``
(the parent subtracts its own clock from before the spawn to get set-up
time, since CLOCK_MONOTONIC is shared by all processes of the host), the wall
time of ``cli.main``, the CPU time of this process and its reaped pool
workers during ``cli.main``, and the peak RSS of either.
"""

import time

import netuniq.cli as cli

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    record = {"imported_at": IMPORTED_AT, "module": cli.__file__}
    argv = sys.argv[1:]
    if argv:
        cpu0 = _cpu()
        t0 = time.perf_counter()
        rc = cli.main(argv)
        record["wall_s"] = time.perf_counter() - t0
        record["cpu_s"] = _cpu() - cpu0
        record["rc"] = rc
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        record["peak_rss_mb"] = peak_kb / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
