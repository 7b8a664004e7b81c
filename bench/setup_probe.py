"""One cold set-up of ``choreo``, run in a fresh process by the benchmark.

Imports the library and builds the Archimedean graph and the published
vertex numbering for T, O and I.  Then it times the calibration kernel a
few times and prints one JSON line with the graph sizes, which the parent
checks, the spans of the set-up, the kernel times and the time from the
end of the set-up to the print.  The parent times the whole process,
interpreter start included, less that tail.

    python3 bench/setup_probe.py
"""

import json
import sys
from time import perf_counter

NESTED = ("groups.builtin_group", "groups.full_group_tessellation")
KERNEL_RUNS = 6  # the first, cold run is not reported


def main():
    start = perf_counter()
    import choreobench  # noqa: F401  (puts the checkout's src on the path)
    from choreo import action, estimates, groups, homotopy, reference_tables  # noqa: F401

    from choreobench.trace import Tracer, instrument

    tracer = Tracer()
    tracer.spans.append(["setup.import", start, perf_counter(), -1, {"workload": "setup"}])
    graphs = {}
    with instrument(tracer, NESTED):
        for tag in "TOI":
            with tracer.span("setup", {"workload": "setup", "part": tag}):
                poly = tracer.call("homotopy.build_archimedean", homotopy.build_archimedean, tag)
                numbering = tracer.call(
                    "homotopy.published_numbering", homotopy.published_numbering, tag
                )
            graphs[tag] = [poly.vertex_count, len(poly.edges), len(numbering)]
    done = perf_counter()

    from choreobench.calibrate import time_kernel

    kernel_s = [time_kernel() for _ in range(KERNEL_RUNS)]
    out = {"graphs": graphs, "spans": tracer.spans, "kernel_s": kernel_s[1:]}
    out["tail_s"] = perf_counter() - done
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
