"""Spans recorded from outside, and the ladder arithmetic over them.

A *unit* is one op of a workload's pass.  Its *rungs* are public calls
into successively higher layers, each containing the work of the rung
below; the top rung is the op itself.  From outside, a child rung's
whole duration is the only part of the parent's interval it covers, so
a rung's self time is its duration minus the duration of the rung
below.  Self times therefore telescope to the top rung exactly.

Spans are kept in memory and written by the parent when the run ends.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


class Spans:
    """An in-memory span list: name, start, end, parent, trial id."""

    def __init__(self, trial: int) -> None:
        self.trial = trial
        self.rows: List[dict] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, **attrs) -> int:
        span_id = len(self.rows)
        self.rows.append({
            "id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "trial": self.trial, **attrs,
        })
        return span_id

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, **attrs):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter(), parent, **attrs)


class NoSpans:
    """Tracing off: the untraced passes pay nothing for it."""

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, **attrs):
        yield


NO_SPANS = NoSpans()


@dataclass
class Part:
    """One timed call of a rung.  ``weight`` multiplies its duration
    when the call stands for several identical ones (the same job
    submitted many times in ``cluster_load``)."""

    name: str
    fn: Callable[[], object]
    weight: float = 1.0


@dataclass
class Rung:
    """``inner`` names a layer whose time *inside* this rung's calls the
    parts measure themselves and return (seconds): the rung below, taken
    in situ where replaying it from outside would not do the same work."""

    layer: str
    parts: List[Part]
    inner: Optional[str] = None


@dataclass
class Unit:
    """The rungs *below* an op, bottom first; ``top_layer`` names the
    layer the op itself belongs to.

    An op that runs several independent things (a cluster run is many
    jobs) has ``children`` instead: units replayed whole, whose last
    rung is their own top.  The op's self time is then its duration
    minus the sum of its children's tops.
    """

    name: str
    top_layer: str
    rungs: List[Rung] = field(default_factory=list)
    children: List["Unit"] = field(default_factory=list)


@dataclass
class Ladder:
    #: unit -> [(layer, seconds)] bottom rung first, top rung last; a
    #: layer of None stands for the children measured under their own
    #: names ("parent/child")
    durations: Dict[str, List[tuple]]
    roots: List[str]

    @property
    def top_s(self) -> float:
        return sum(self.durations[name][-1][1] for name in self.roots)

    def self_by_layer(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for rungs in self.durations.values():
            below = 0.0
            for layer, seconds in rungs:
                if layer is not None:
                    out[layer] = out.get(layer, 0.0) + seconds - below
                below = seconds
        return out


Samples = Dict[tuple, List[float]]


def _replay_once(
    unit: Unit, name: str, parent: int, spans: Spans, rep: int, samples: Samples,
) -> None:
    for index in reversed(range(len(unit.rungs))):
        rung = unit.rungs[index]
        total = inner_total = 0.0
        span_id = parent
        for part in rung.parts:
            start = time.perf_counter()
            inside = part.fn()
            end = time.perf_counter()
            total += (end - start) * part.weight
            span_id = spans.add(
                f"{rung.layer}:{name}:{part.name}", start, end, parent,
                rep=rep, weight=part.weight,
            )
            if rung.inner is not None:
                inner_total += inside * part.weight
                spans.add(
                    f"{rung.inner}:{name}:{part.name}", start, start + inside,
                    span_id, rep=rep, weight=part.weight, in_situ=True,
                )
        samples.setdefault((name, index), []).append(total)
        if rung.inner is not None:
            samples.setdefault((name, index, "inner"), []).append(inner_total)
        parent = span_id


def replay_round(
    units: List[Unit], top_span: Dict[str, int], spans: Spans, rep: int,
    samples: Samples,
) -> None:
    """One more sample of every lower rung of every unit.

    Called once per round, right after that round's traced pass, so a
    slow stretch of the machine lands on every rung alike.  ``top_span``
    is each op's span in that pass, the root the lower rungs hang from.
    """
    for unit in units:
        parent = top_span[unit.name]
        _replay_once(unit, unit.name, parent, spans, rep, samples)
        for child in unit.children:
            _replay_once(
                child, f"{unit.name}/{child.name}", parent, spans, rep, samples
            )


def _chain(unit: Unit, name: str, samples: Samples) -> List[tuple]:
    """Median duration of each rung of ``unit``, bottom first."""
    chain = []
    for index, rung in enumerate(unit.rungs):
        if rung.inner is not None:
            chain.append(
                (rung.inner, statistics.median(samples[(name, index, "inner")]))
            )
        chain.append((rung.layer, statistics.median(samples[(name, index)])))
    return chain


def build_ladder(
    units: List[Unit], samples: Samples, top_s: Dict[str, float]
) -> Ladder:
    """``top_s`` is each op's median duration over the traced passes."""
    durations: Dict[str, List[tuple]] = {}
    for unit in units:
        chain = _chain(unit, unit.name, samples)
        if unit.children:
            below = 0.0
            for child in unit.children:
                name = f"{unit.name}/{child.name}"
                durations[name] = _chain(child, name, samples)
                below += durations[name][-1][1]
            chain = [(None, below)]
        durations[unit.name] = chain + [(unit.top_layer, top_s[unit.name])]
    return Ladder(durations, [unit.name for unit in units])
