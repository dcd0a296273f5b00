"""Wall-clock statement benchmark for the engine in ``src/``.

Usage, from the repository root::

    python3 perfbench/run.py --workload oltp_replicated --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric, then the throughput, the
per-kind medians and ``recover_s`` (not in ``BENCHMARK.json``, see
``spec.UNBOUNDED``);
``--trace 1`` runs the
same operations with each layer wrapped in wall-clock spans and prints
every per-layer metric (spans are written to ``.perfbench_out/``).
``--workload all`` runs every workload in turn, each in a child
process of its own, so that each reports its own memory high-water
mark.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status 0 means the run completed;
``correct`` says whether every answer and state check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=spec.WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_metrics(result, catalogue, notes):
    for name, unit in catalogue:
        print("{0:40s} {1:14.4f} {2:14s} {3}".format(
            name, result["metrics"][name], unit, notes(name)))


def run_one(name, args):
    """Run one workload and print its metrics: end-to-end ones with
    their sample counts, per-layer ones with the end-to-end metrics of
    this workload they should move."""
    from perfbench import harness, spec
    if args.trace:
        result = harness.trace(name, args.seed, args.seconds, OUT_DIR)
        catalogue = [(n, u) for n, u, _ in spec.PER_LAYER]

        def notes(metric):
            moves = [m for workload, metrics in spec.targets(metric)
                     if workload == name for m in metrics]
            return "moves " + ", ".join(moves) if moves else ""
    else:
        result = harness.measure(name, args.seed, args.seconds)
        catalogue = [(n, u) for n, u, _, _ in spec.END_TO_END]
        catalogue_names = {n for n, _ in catalogue}
        samples = result["info"]["samples"]

        def notes(metric):
            kind = metric.rsplit("_", 2)[0]
            note = "n={0}".format(samples[kind]) if kind in samples else ""
            return note if metric in catalogue_names else note + " (unbounded)"
    print("== {0} (seed {1}, trace {2})".format(name, args.seed,
                                                args.trace))
    printed = catalogue if args.trace else catalogue + spec.UNBOUNDED
    _print_metrics(result, printed, notes)
    print("info " + json.dumps(result["info"], sort_keys=True))
    for failure in result["failures"][:20]:
        print("CHECK FAILED: " + failure)
    return result, catalogue


def run_all(args, spec):
    """Every workload in a child process; the children's result lines
    merge into one, with metric names prefixed by the workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in spec.WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, universal_newlines=True, check=True)
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[name + "." + metric] = value
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: engine sources not found under {0}".format(SRC),
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import spec
    args = parse_args(argv, spec)
    if args.workload == "all":
        print(json.dumps(run_all(args, spec)))
        return 0
    result, catalogue = run_one(args.workload, args)
    metrics = {metric: {"value": result["metrics"][metric], "unit": unit}
               for metric, unit in catalogue}
    print(json.dumps({"correct": not result["failures"] and
                      not result["failed"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
