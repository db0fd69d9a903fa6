"""Set-up probe: import guas_cert, build one workload's inputs, warm up once.

run.py starts one fresh interpreter per sample:

    python3 perfbench/probe.py <workload> <seed>

and reads the JSON line it prints: import_s, build_s, warmup_s, total_s.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    import guas_cert  # noqa: F401  (the import every CLI invocation pays)

    t_import = time.perf_counter()
    import workloads

    instances = workloads.build(workload, seed)
    t_build = time.perf_counter()
    workloads.warm_up(instances)
    t_end = time.perf_counter()
    print(json.dumps({
        "import_s": t_import - T0,
        "build_s": t_build - t_import,
        "warmup_s": t_end - t_build,
        "total_s": t_end - T0,
    }))


if __name__ == "__main__":
    main()
