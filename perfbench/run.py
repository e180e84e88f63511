"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  The line before it holds host diagnostics.
See ``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("decompose-sparse", "decompose-skew", "serve-mutable")

#: Every end-to-end metric a ``--trace 0`` run prints, with its unit.
#: Times are probe-scaled seconds (see ``perfbench/hostinfo.py``).
END_TO_END = {
    "setup_s": "s",
    "decompose_s": "s",
    "index_s": "s",
    "read_p50_s": "s",
    "write_p50_s": "s",
    "peak_rss_bytes": "bytes",
}


def _terminate(_signum, _frame):
    # Unwind through the workloads' ``finally`` blocks, which stop the
    # server processes they started.
    sys.exit(143)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"no program source under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [source, ROOT]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [source, ROOT] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    out_root = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_root, exist_ok=True)

    from perfbench import hostinfo
    from perfbench.layers import PER_LAYER

    if args.workload == "serve-mutable":
        from perfbench import serve as workload
    else:
        from perfbench import decompose as workload
    # Before the workload pins itself to a CPU.
    host = hostinfo.summary()
    steal_before = hostinfo.cpu_ticks()
    result = workload.run(
        args.workload, args.seed, args.seconds, bool(args.trace), out_root
    )
    diagnostics = {
        **host,
        "run_steal_share": hostinfo.steal_share(
            steal_before, hostinfo.cpu_ticks()
        ),
        **result.pop("diagnostics"),
    }
    units = dict(PER_LAYER) if args.trace else END_TO_END
    values = result["metrics"]
    if args.trace:
        # A layer this workload never enters reads 0.
        values = {name: 0.0 for name in units} | values
    missing = [name for name in units if name not in values]
    if missing:
        print(f"workload produced no value for {missing}", file=sys.stderr)
        print(json.dumps({"diagnostics": diagnostics}))
        return 1
    result["metrics"] = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
