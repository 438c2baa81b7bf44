"""``repro list | experiment``, and the results document behind a bare
``repro report``: the paper's tables and figures at display size.

The experiments are the scenarios of ``repro.bench.regress.SCENARIOS``
that carry a ``title``; that table is read when a verb runs, never
while the parser is built.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Optional

from repro.cli import common


def experiments() -> Dict[str, object]:
    """``name -> Scenario`` for the twelve paper experiments."""
    from repro.bench import regress

    return {
        name: scenario
        for name, scenario in regress.SCENARIOS.items()
        if scenario.title
    }


class _Names:
    """``experiment``'s choices, read from the scenario table on use."""

    def __iter__(self):
        return iter(sorted(experiments()) + ["all"])

    def __contains__(self, name) -> bool:
        return name in list(self)


def configure(subparsers) -> None:
    subparsers.add_parser("list", help="list available experiments")

    experiment = subparsers.add_parser(
        "experiment", help="run one experiment (or 'all')"
    )
    name = experiment.add_argument(
        "name", help="which table/figure to regenerate"
    )
    # add_argument renders choices once to vet the metavar; assigning
    # them afterwards keeps parser construction free of imports.
    name.choices = _Names()
    experiment.add_argument(
        "--records", "--size", dest="size", type=common.positive,
        default=None,
        help="dataset size override (records, or bytes for fig11)",
    )
    common.add_trace_out(experiment, help=(
        "run under a flight recorder and write the JSONL artifact "
        "(spans, metric registry, sim metrics, job counters) here"
    ))
    common.add_faults(experiment, help=(
        "run under a fault plan (JSON, see docs/fault_tolerance.md): "
        "every job executed by the experiment rides through the "
        "plan's node kills, slow nodes, corruption and read errors"
    ))


def _render(scenario, size: Optional[int]) -> str:
    """Run one experiment; its table, plus its chart when it draws one."""
    kwargs = {}
    if size is not None:
        kwargs[scenario.size_arg] = size
    module = scenario.module
    result = module.run(**kwargs)
    text = module.format_table(result)
    chart = getattr(module, "format_chart", None)
    if chart is not None:
        text += "\n\n" + chart(result)
    return text


def _list(args, out: common.Out) -> int:
    table = experiments()
    width = max(len(name) for name in table)
    for name in sorted(table):
        out(f"{name.ljust(width)}  {table[name].title}")
    return 0


def _experiment(args, out: common.Out) -> int:
    from repro.obs import current_obs

    table = experiments()
    names = sorted(table) if args.name == "all" else [args.name]
    size = args.size if args.name != "all" else None
    plan = common.load_plan(args.faults)
    # The ambient plan reaches every JobRunner the experiment modules
    # construct internally — no parameter plumbing.
    ambient = plan.activate() if plan is not None else contextlib.nullcontext()
    meta = {"command": "experiment", "experiments": names}
    with common.recording(args, out, meta), ambient:
        for name in names:
            with current_obs().tracer.span(
                "experiment", kind="experiment", experiment=name
            ):
                text = _render(table[name], size)
            out(text)
            out("")
    return 0


def document(args, out: common.Out) -> int:
    """``repro report`` with no trace: every experiment, as markdown."""
    lines = [
        "# Reproduction results",
        "",
        "Generated by `python -m repro report`.  Simulated times over",
        "real bytes; see EXPERIMENTS.md for paper-vs-measured analysis.",
        "",
    ]
    for name, scenario in sorted(experiments().items()):
        lines += [f"## {scenario.title}", "", "```"]
        lines += [_render(scenario, None), "```", ""]
    common.emit("\n".join(lines), args, out)
    return 0


VERBS = {"list": _list, "experiment": _experiment}


def run(args, out: common.Out) -> int:
    return VERBS[args.command](args, out)
