"""One fresh process of the benchmark: set up, run one unit, write a record.

Usage: ``python3 perfbench/child.py SPEC.json`` (started by ``run.py``).
The spec names the workload, its inputs, the output directory, where to
write the record, and the parent's ``time.monotonic()`` just before it
started this process.  Set-up time runs from that reading until ``serrin``
is imported and the output directory exists.  A fresh process starts with
cold caches, as every CLI invocation does.
"""

import json
import os
import sys
import time


def main(spec_path):
    with open(spec_path) as handle:
        spec = json.load(handle)
    import serrin.cli  # noqa: F401  (imports every layer)
    os.makedirs(spec["out_dir"], exist_ok=True)
    setup_s = time.monotonic() - spec["spawned_at"]

    import serrin
    expected = os.path.join(spec["root"], "src", "serrin")
    if os.path.dirname(os.path.realpath(serrin.__file__)) != os.path.realpath(expected):
        sys.exit(f"imported serrin from {serrin.__file__}, expected the checkout's {expected}")

    record = {"setup_s": setup_s}
    if spec["workload"] != "setup":
        import platform

        import numpy
        import scipy

        import workloads
        record.update(workloads.run_unit(spec["workload"], spec["inputs"], spec["out_dir"],
                                         trace=spec["trace"]))
        record["versions"] = {"python": platform.python_version(),
                              "numpy": numpy.__version__, "scipy": scipy.__version__}
    tmp = spec["record_path"] + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(record, handle)
    os.replace(tmp, spec["record_path"])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: child.py SPEC.json")
    main(sys.argv[1])
