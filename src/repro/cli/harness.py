"""The harnesses: ``repro bench`` (simulated-cost scenarios gated
against committed baselines) and ``repro check`` (the differential
correctness oracle, its fuzzer, shrinker and regression corpus).
"""

from __future__ import annotations

from repro.cli import common


def _add_matrix(parser, default: str, help: str) -> None:
    parser.add_argument(
        "--matrix", choices=["quick", "full"], default=default, help=help
    )


def configure(subparsers) -> None:
    bench = subparsers.add_parser(
        "bench",
        help=(
            "benchmark regression pipeline: run scenarios at smoke size "
            "into BENCH_*.json and check them against committed baselines"
        ),
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_sub.add_parser("list", help="list scenarios and smoke sizes")
    brun = bench_sub.add_parser(
        "run", help="run scenarios and write canonical BENCH_*.json files"
    )
    brun.add_argument(
        "--out-dir", default="bench-out",
        help="directory for BENCH_*.json (default bench-out)",
    )
    brun.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="run only this scenario (repeatable; default: all)",
    )
    brun.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help=(
            "also record each scenario under a flight recorder and "
            "write BENCH_<name>.trace.jsonl here"
        ),
    )
    bcheck = bench_sub.add_parser(
        "check",
        help="compare fresh results against baselines; exit 1 on regression",
    )
    bcheck.add_argument(
        "--baseline-dir", default="benchmarks/baselines",
        help="committed baselines (default benchmarks/baselines)",
    )
    bcheck.add_argument(
        "--fresh-dir", default=None, metavar="DIR",
        help=(
            "load fresh results from an earlier 'bench run' instead of "
            "re-running scenarios now"
        ),
    )
    bcheck.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="check only this scenario (repeatable; default: all baselines)",
    )
    bcheck.add_argument(
        "--rel-tol", type=float, default=None,
        help=(
            "relative tolerance for directional metrics, for comparing "
            "across cost models (default 0: the gate is exact)"
        ),
    )
    common.add_color(
        bcheck,
        quiet="suppress per-scenario OK lines; only failures and the verdict",
    )

    check = subparsers.add_parser(
        "check",
        help=(
            "differential correctness harness: cross-format oracle, "
            "metamorphic invariants, deterministic fuzzing (repro.check)"
        ),
    )
    check_sub = check.add_subparsers(dest="check_command", required=True)
    crun = check_sub.add_parser(
        "run",
        help=(
            "run one seeded case through the differential matrix; with "
            "--plant-corruption, corrupt a block per leg and require the "
            "corruption to be caught, then shrink to a minimal repro"
        ),
    )
    crun.add_argument(
        "--seed", type=int, default=7,
        help="case seed (seed N always generates the same case)",
    )
    _add_matrix(crun, "full", "matrix breadth (default full)")
    crun.add_argument(
        "--rows", type=common.non_negative, default=None,
        help="override the generated record count",
    )
    crun.add_argument(
        "--plant-corruption", action="store_true",
        help=(
            "corrupt one data block (every replica, via the fault "
            "injector) in each leg; exit 0 only if every leg detects it"
        ),
    )
    cfuzz = check_sub.add_parser(
        "fuzz",
        help="run many generated cases; shrink + save any failure",
    )
    cfuzz.add_argument(
        "--budget", type=common.non_negative, default=200,
        help="number of cases to run (default 200)",
    )
    cfuzz.add_argument(
        "--seed", type=int, default=0,
        help="base seed; case i uses seed base+i (default 0)",
    )
    _add_matrix(cfuzz, "quick", "matrix per case (default quick)")
    cfuzz.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="where to save shrunk failures (default tests/corpus)",
    )
    cfuzz.add_argument(
        "--keep-going", action="store_true",
        help="keep fuzzing after the first failure",
    )
    cshrink = check_sub.add_parser(
        "shrink",
        help="minimize a failing case (from --case JSON or --seed)",
    )
    group = cshrink.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--case", default=None, metavar="FILE",
        help="a saved corpus case to minimize",
    )
    group.add_argument(
        "--seed", type=int, default=None,
        help="generate the case from this seed and minimize it",
    )
    _add_matrix(
        cshrink, "quick", "oracle matrix used as the shrinking predicate"
    )
    cshrink.add_argument(
        "--plant-corruption", action="store_true",
        help=(
            "shrink against the corruption-detection predicate instead "
            "of an oracle failure"
        ),
    )
    cshrink.add_argument(
        "--max-evals", type=int, default=200,
        help="shrinker evaluation budget (default 200)",
    )
    common.add_out(cshrink, help="write the minimized case JSON here")
    ccorpus = check_sub.add_parser(
        "corpus",
        help="list (or --replay) the saved regression corpus",
    )
    ccorpus.add_argument(
        "--dir", default=None, metavar="DIR",
        help="corpus directory (default tests/corpus)",
    )
    ccorpus.add_argument(
        "--replay", action="store_true",
        help="re-run every corpus case; exit 1 if any finding resurfaces",
    )
    _add_matrix(ccorpus, "quick", "matrix used for replay (default quick)")


# -- bench -------------------------------------------------------------------


def _bench_list(args, out: common.Out) -> int:
    from repro.bench import regress

    width = max(len(name) for name in regress.SCENARIOS)
    for name, scenario in sorted(regress.SCENARIOS.items()):
        out(f"{name.ljust(width)}  {scenario.description} {scenario.params}")
    return 0


def _bench_run(args, out: common.Out) -> int:
    from repro.bench import regress

    try:
        regress.run_all(
            args.out_dir, names=args.scenario,
            trace_dir=args.trace_dir, log=out,
        )
    except KeyError as exc:
        raise common.CliError(exc.args[0]) from exc
    return 0


def _bench_check(args, out: common.Out) -> int:
    from repro.bench import regress

    rel_tol = (
        args.rel_tol if args.rel_tol is not None else regress.DEFAULT_REL_TOL
    )
    try:
        report = regress.check(
            args.baseline_dir, names=args.scenario,
            fresh_dir=args.fresh_dir, rel_tol=rel_tol, log=out,
        )
    except OSError as exc:
        raise common.CliError(str(exc)) from exc
    out(report.render(pal=common.palette(args), quiet=args.quiet))
    return 0 if report.ok else 1


# -- check -------------------------------------------------------------------


def _corruption_predicate(matrix: str):
    """Shrinking predicate for planted corruption: 'fails' (returns a
    message) as long as at least one leg still *detects* the corruption
    — so shrinking minimizes the case while detection persists."""
    from repro.check import run_matrix

    def caught(case):
        report = run_matrix(case, matrix=matrix, plant_corruption=True)
        hits = [c for c in report.cells if c.ok and not c.skipped]
        return hits[0].detail or hits[0].name if hits else None

    return caught


def _check_run(args, out: common.Out) -> int:
    from repro.check import generate_case, run_matrix, shrink

    case = generate_case(args.seed, num_rows=args.rows)
    report = run_matrix(
        case, matrix=args.matrix, plant_corruption=args.plant_corruption,
    )
    out(report.render())
    if not args.plant_corruption:
        return 0 if report.ok else 1
    missed = report.failures
    if missed:
        out("")
        out(f"CORRUPTION MISSED in {len(missed)} leg(s) — "
            "a corrupted block read back clean.")
        return 1
    out("")
    out("corruption caught in every leg; shrinking to a minimal "
        "repro...")
    minimal, message = shrink(case, _corruption_predicate(args.matrix))
    out(f"minimal repro: {minimal.describe()}")
    out(f"  detected as: {message}")
    out(f"  reproduce:   repro check run --matrix {args.matrix} "
        f"--seed {args.seed} --plant-corruption")
    return 0


def _check_fuzz(args, out: common.Out) -> int:
    from repro.check.fuzzer import DEFAULT_CORPUS_DIR, fuzz

    result = fuzz(
        args.budget, seed=args.seed, matrix=args.matrix,
        corpus_dir=args.corpus or DEFAULT_CORPUS_DIR,
        stop_on_failure=not args.keep_going, log=out,
    )
    out(f"fuzz: {result.executed} case(s) executed, "
        f"{len(result.failures)} failure(s)")
    for failure in result.failures:
        out(f"  seed {failure.seed}: {failure.message}")
        out(f"    minimal: {failure.shrunk.describe()}")
        if failure.corpus_path:
            out(f"    corpus:  {failure.corpus_path}")
        out(f"    repro:   {failure.repro_command()}")
    return 0 if result.ok else 1


def _check_shrink(args, out: common.Out) -> int:
    from repro.check import generate_case, shrink
    from repro.check.fuzzer import check_case
    from repro.check.generators import case_to_obj

    if args.case is not None:
        case = common.load_case(args.case)
    else:
        case = generate_case(args.seed)
    if args.plant_corruption:
        predicate = _corruption_predicate(args.matrix)
    else:
        predicate = lambda c: check_case(c, matrix=args.matrix)  # noqa: E731
    if predicate(case) is None:
        out(f"{case.describe()}: predicate does not fail; "
            "nothing to shrink")
        return 1 if args.plant_corruption else 0
    minimal, message = shrink(
        case, predicate, max_evals=args.max_evals, log=out
    )
    out(f"minimal: {minimal.describe()}")
    out(f"  fails as: {message}")
    if args.out:
        common.emit(common.to_json(case_to_obj(minimal)), args, out)
    return 0


def _check_corpus(args, out: common.Out) -> int:
    from repro.check.fuzzer import (
        DEFAULT_CORPUS_DIR,
        check_case,
        corpus_files,
    )

    def load(path):
        """``(case, None)``, or ``(None, why)`` for an unreadable file."""
        try:
            return common.load_case(path), None
        except common.CliError as exc:
            return None, f"UNREADABLE: {exc.__cause__}"

    directory = args.dir or DEFAULT_CORPUS_DIR
    paths = corpus_files(directory)
    if not paths:
        out(f"corpus {directory}: empty")
        return 0
    if not args.replay:
        for path in paths:
            case, unreadable = load(path)
            out(f"{path}  {unreadable}" if case is None
                else f"{path}  {case.describe()}  [{case.note}]")
        return 0
    failures = 0
    for path in paths:
        case, message = load(path)
        if case is not None:
            # entries are fixed findings: a message means one resurfaced
            message = check_case(case, matrix=args.matrix)
        if message is None:
            out(f"[  ok] {path}")
        else:
            failures += 1
            out(f"[FAIL] {path}  {message}")
    out(f"corpus replay: {len(paths)} case(s), {failures} failure(s)")
    return 0 if failures == 0 else 1


VERBS = {
    "bench": {"list": _bench_list, "run": _bench_run, "check": _bench_check},
    "check": {
        "run": _check_run, "fuzz": _check_fuzz,
        "shrink": _check_shrink, "corpus": _check_corpus,
    },
}


def run(args, out: common.Out) -> int:
    sub_verb = getattr(args, f"{args.command}_command")
    return VERBS[args.command][sub_verb](args, out)
