"""Time one cold set-up in a fresh interpreter: import riemdyn, build a workload's inputs.

    python3 -I perfbench/setup_probe.py SRC_DIR BENCH_DIR WORKLOAD INPUT_JSON

Prints the elapsed seconds. The clock starts before numpy or riemdyn is
imported, so the figure covers everything a user pays before the first step.
"""

import sys
import time

start = time.perf_counter()


def main() -> int:
    src, bench_dir, workload, path = sys.argv[1:5]
    sys.path[:0] = [src, bench_dir]
    import riemdyn  # noqa: F401
    import workloads

    workloads.build_inputs(workload, path)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
