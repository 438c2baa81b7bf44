"""``python -m wallbench``: run, compare, and the trial a run starts.

``run`` is what ``BENCHMARK.json``'s command invokes.  With one
``--workload`` its last line of output is the JSON object the
benchmark's driver reads; without, it measures every workload, trials
interleaved, and prints every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import sys

from wallbench import spec


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wallbench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure one workload or all")
    run.add_argument("--workload", choices=spec.workload_names())
    run.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    run.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds per workload (default: run_seconds)",
    )
    run.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add the traced trial: ladder, layer suite, span files",
    )
    run.add_argument("--smoke", action="store_true", help="tiny sizes (tests)")
    run.add_argument("--out", help="also write the results as JSON here")

    compare = commands.add_parser("compare", help="is B no worse than A?")
    compare.add_argument("a")
    compare.add_argument("b")

    trial = commands.add_parser("trial")  # started by run, not by people
    trial.add_argument("--workload", required=True)
    trial.add_argument("--seed", type=int, required=True)
    trial.add_argument("--seconds", type=float, required=True)
    trial.add_argument("--trial", type=int, required=True)
    trial.add_argument("--spawned-at", type=float, required=True)
    trial.add_argument("--traced", action="store_true")
    trial.add_argument("--suite", action="store_true")
    trial.add_argument("--smoke", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from wallbench import compare

        return compare.main(args.a, args.b)

    spec.require_program()
    if args.command == "trial":
        from wallbench import trial

        print(json.dumps(trial.run_trial(
            args.workload, args.seed, args.seconds, args.trial,
            args.spawned_at, args.traced, args.suite, args.smoke,
        )))
        return 0

    from wallbench import driver

    seconds = args.seconds
    if seconds is None:
        seconds = spec.benchmark()["run_seconds"]
    single = args.workload is not None
    names = [args.workload] if single else spec.workload_names()
    traced = bool(args.trace)
    # the benchmark's driver asks for one kind of metrics per call
    results = driver.run(
        names, args.seed, seconds, traced, args.smoke,
        untraced=not (single and traced),
    )
    print(driver.render(results, args.seed))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "workloads": results}, handle, indent=1)
    if single:
        print(driver.contract_line(results[args.workload], traced))
    return 0


if __name__ == "__main__":
    sys.exit(main())
