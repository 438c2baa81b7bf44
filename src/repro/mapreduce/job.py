"""Job configuration, mirroring the ``main()`` in Figure 1 of the paper."""

from __future__ import annotations

from typing import Callable, Optional

from repro.mapreduce.types import InputFormat, OutputFormat
from repro.sim.cost import CpuCostModel


class Job:
    """Configuration for one MapReduce job.

    ``mapper(key, value, emit, ctx)`` is called once per input record;
    ``reducer(key, values, emit, ctx)`` once per distinct key, with
    ``values`` an iterable of everything the maps emitted under that
    key.  ``emit(k, v)`` collects output pairs.  A map-only job passes
    ``reducer=None``: map output goes straight to the output format.

    ``combiner`` (same signature as ``reducer``) runs on each map task's
    local output before the shuffle, as in Hadoop.
    """

    def __init__(
        self,
        name: str,
        mapper: Callable,
        input_format: InputFormat,
        reducer: Optional[Callable] = None,
        combiner: Optional[Callable] = None,
        output_format: Optional[OutputFormat] = None,
        num_reducers: int = 0,
        cost: Optional[CpuCostModel] = None,
        speculative: bool = False,
        max_attempts: int = 4,
    ) -> None:
        if num_reducers < 0:
            raise ValueError("num_reducers must be >= 0")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if reducer is not None and num_reducers == 0:
            num_reducers = 1
        self.name = name
        self.mapper = mapper
        self.reducer = reducer
        self.combiner = combiner
        self.input_format = input_format
        self.output_format = output_format
        self.num_reducers = num_reducers
        self.cost = cost if cost is not None else CpuCostModel()
        #: clone map stragglers (the scheduler's progress-based
        #: speculation; see repro.mapreduce.speculation) under run_job
        self.speculative = speculative
        #: optional repro.core.vector.BatchOp — when set and the input
        #: format's reader supports read_batch(), the runner drains the
        #: split frame-wise instead of calling ``mapper`` per record
        self.batch_op = None
        #: per-split task attempts before the job fails, as in Hadoop's
        #: ``mapreduce.map.maxattempts`` (default 4)
        self.max_attempts = max_attempts

    @property
    def is_map_only(self) -> bool:
        return self.reducer is None

    def __repr__(self) -> str:
        return f"Job({self.name!r}, reducers={self.num_reducers})"
