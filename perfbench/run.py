"""Benchmark of the serrin toolkit: one workload, measured for a fixed time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {branch,straight,roots} --seed N \
        --seconds S --trace {0,1}

Each unit of the workload runs in a fresh child process (``child.py``), one
after another, until the next unit would end past ``--seconds``; at least one
unit runs.  Four set-up-only children run first.  BLAS and OpenMP threads
are capped at the number of usable cores.

``--trace 0`` prints the end-to-end metrics of the untraced units: medians
over units of wall time, CPU time and peak RSS, the median set-up time over
all children, and the 50th and 90th percentiles of the operation latencies
pooled over the units of the run.  ``--trace 1`` alternates an untraced and
a traced unit on the same inputs and prints the per-layer metrics of the
traced units (medians), with the tracing overhead as the ratio of traced to
untraced wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details of the run (sample counts, thread settings, versions, the
first failures).  The exit code is not 0, and no result is printed, when the
harness itself fails: no ``src/serrin`` in the checkout, a child that
crashes or runs past the time limit.
"""

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, make_inputs  # noqa: E402

ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
SETUP_PROBES = 4
TIME_LIMIT_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

class HarnessError(Exception):
    """The benchmark could not measure; no result is printed."""


def percentile(values, q):
    """The q-th percentile, interpolating linearly between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, q):
    """How many of n samples lie beyond the q-th percentile."""
    return math.floor(n * (100.0 - q) / 100.0 + 1e-9)


def supported_percentile(n, candidates=(50.0, 90.0, 99.0, 99.9)):
    """Highest candidate percentile with at least ten samples beyond it."""
    ok = [q for q in candidates if samples_beyond(n, q) >= 10]
    return max(ok) if ok else None


def thread_settings(nproc):
    return {name: str(nproc) for name in THREAD_VARIABLES}


def child_env():
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.update(thread_settings(nproc))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    env.pop("SERRIN_OUT_DIR", None)
    return env, nproc


class Runner:
    """Starts children one at a time and collects their records."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.env, self.nproc = child_env()
        self.count = 0

    def run(self, workload, inputs=None, trace=False):
        self.count += 1
        tag = os.path.join(self.workdir, f"c{self.count}")
        os.makedirs(tag)
        spec = {"root": ROOT, "workload": workload, "inputs": inputs, "trace": trace,
                "out_dir": os.path.join(tag, "out"),
                "record_path": os.path.join(tag, "record.json")}
        spec_path = os.path.join(tag, "spec.json")
        spec["spawned_at"] = time.monotonic()
        with open(spec_path, "w") as handle:
            json.dump(spec, handle)
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except BaseException as exc:
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise HarnessError(f"{workload} child ran past the {TIME_LIMIT_S:.0f} s limit")
            raise
        if proc.returncode != 0:
            raise HarnessError(f"{workload} child exited with {proc.returncode}:\n"
                               + err[-4000:])
        with open(spec["record_path"]) as handle:
            record = json.load(handle)
        shutil.rmtree(tag)
        return record


def measure(runner, workload, seed, seconds, trace):
    """Run set-up probes, then units until the next would end past ``seconds``."""
    setups = [runner.run("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced, inputs_used = [], [], []
    start = time.monotonic()
    while True:
        inputs = make_inputs(workload, seed, len(plain))
        inputs_used.append(inputs)
        plain.append(runner.run(workload, inputs))
        if trace:
            traced.append(runner.run(workload, inputs, trace=True))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(plain) > seconds:
            break
    setups += [r["setup_s"] for r in plain + traced]
    return setups, plain, traced, inputs_used


def metric_units(kind):
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(SPEC_PATH) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def summarize(workload, seed, seconds, trace, setups, plain, traced, inputs_used, nproc):
    records = plain + traced
    ops = [op for r in records for op in r["ops"]]
    failures = [f"{op['label']}: {op['error']}" for op in ops if op["error"]]
    unit_errors = [e for r in records for e in r["unit_errors"]]
    # latencies of the operations that passed; a failed one has no valid latency
    latencies = [op["latency_s"] for r in plain for op in r["ops"] if not op["error"]]
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "units": len(plain), "traced_units": len(traced),
        "op_samples": len(latencies),
        "op_p90_has_ten_beyond": samples_beyond(len(latencies), 90.0) >= 10,
        "op_supported_percentile": supported_percentile(len(latencies)),
        "setup_samples": len(setups),
        "fail_rate": len(failures) / len(ops) if ops else None,
        "failures": failures[:10], "unit_errors": unit_errors[:10],
        "nproc": nproc, "threads": thread_settings(nproc),
        "versions": plain[0]["versions"],
        "inputs": inputs_used,
    }
    if trace:
        detail["traced_wall_s"] = statistics.median(r["wall_s"] for r in traced)
        detail["untraced_wall_s"] = statistics.median(r["wall_s"] for r in plain)
        detail["missing_entry_points"] = traced[0]["missing_entry_points"]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_ratio"] = detail["traced_wall_s"] / detail["untraced_wall_s"]
        units = metric_units("per_layer")
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "op_p50_s": percentile(latencies, 50.0) if latencies else 0.0,
            "op_p90_s": percentile(latencies, 90.0) if latencies else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        }
        units = metric_units("end_to_end")
    if set(values) != set(units):
        raise HarnessError(f"measured metrics {sorted(values)} differ from {SPEC_PATH}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": not failures and not unit_errors and bool(latencies),
              "attempted": len(ops), "failed": len(failures), "metrics": metrics}
    return detail, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ns = parser.parse_args(argv)
    if ns.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "serrin", "__init__.py")):
        print(f"no serrin package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = os.path.join(RUN_DIR, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(workdir, deadline)
        measured = measure(runner, ns.workload, ns.seed, ns.seconds, bool(ns.trace))
        detail, result = summarize(ns.workload, ns.seed, ns.seconds, ns.trace, *measured,
                                   runner.nproc)
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # left in place while another run uses it
            os.rmdir(RUN_DIR)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
