"""One benchmark child: import the package, make one library call, check it.

run.py starts a fresh interpreter on this file for every measurement:

    python3 bench/child.py --setup-only
    python3 bench/child.py --workload NAME [--trace FILE]

The last line of standard output is one JSON object.  ``import_done``,
``call_start`` and ``call_end`` are CLOCK_MONOTONIC readings, which are shared
by all processes of the machine, so the parent can match them with its own
readings and with the speed sampler's (speedref.py).  ``setup_cpu_s`` is the
process's CPU time until ``import polarcographs`` has finished and
``call_cpu_s`` the CPU time of the library call.
With ``--trace`` the layer wrappers are installed around the call only, the
output check is made on the traced result as well, and the trace is written
to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def timed(call, pc, out):
    """Make the call; put its wall and CPU time and its interval into ``out``."""
    call_start, cpu_start, start = time.monotonic(), time.process_time(), time.perf_counter()
    result = call(pc)
    out["wall_s"] = time.perf_counter() - start
    out["call_cpu_s"] = time.process_time() - cpu_start
    out["call_start"], out["call_end"] = call_start, time.monotonic()
    return result


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    import polarcographs as pc

    import_done = time.monotonic()
    setup_cpu = time.process_time()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src", "")
    if not os.path.realpath(pc.__file__).startswith(src):
        sys.exit(f"polarcographs was imported from {pc.__file__}, not from {src}")
    out = {"import_done": import_done, "setup_cpu_s": setup_cpu}
    if args.setup_only:
        print(json.dumps(out))
        return

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    expected = workloads.load_expected()
    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        with tracer:
            result = timed(workload.call, pc, out)
        tracer.require(workload.layers)
    else:
        result = timed(workload.call, pc, out)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["error"] = workloads.check_output(args.workload, result, expected)
    if tracer is not None:
        out["layers"] = tracer.metrics()
        with open(args.trace, "w") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "wall_s": out["wall_s"],
                    "layers": out["layers"],
                    "per_order": tracer.per_order(),
                    "spans": tracer.spans,
                },
                fh,
                indent=1,
            )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
