"""Multiple inputs in one job (Hadoop's ``MultipleInputs``).

Each underlying InputFormat gets a *tag*; the merged format unions
their splits and wraps their readers so the map function receives
``(tag, record)`` values and can tell the sources apart — the standard
substrate for reduce-side joins and union jobs.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.mapreduce.types import InputFormat, InputSplit, RecordReader, TaskContext


class TaggedSplit(InputSplit):
    """A child split plus the tag of the input it came from."""

    def __init__(self, tag: str, inner: InputSplit) -> None:
        super().__init__(inner.length, inner.locations,
                         label=f"{tag}:{inner.label}")
        self.tag = tag
        self.inner = inner


class _TaggedReader(RecordReader):
    def __init__(self, tag: str, inner: RecordReader, ctx: TaskContext):
        super().__init__(ctx)
        self._tag = tag
        self._inner = inner

    def __iter__(self) -> Iterator[Tuple[object, object]]:
        # the inner reader counts the records
        tag = self._tag
        for key, record in self._inner:
            yield key, (tag, record)

    def close(self) -> None:
        self._inner.close()


class MultiInputFormat(InputFormat):
    """Union of tagged InputFormats; values become ``(tag, record)``."""

    def __init__(self, inputs: Dict[str, InputFormat]) -> None:
        if not inputs:
            raise ValueError("MultiInputFormat needs at least one input")
        self.inputs = dict(inputs)

    def get_splits(self, fs, cluster) -> List[TaggedSplit]:
        splits: List[TaggedSplit] = []
        for tag, input_format in self.inputs.items():
            splits.extend(
                TaggedSplit(tag, inner)
                for inner in input_format.get_splits(fs, cluster)
            )
        return splits

    def open_reader(self, fs, split: TaggedSplit, ctx: TaskContext):
        inner_format = self.inputs[split.tag]
        return _TaggedReader(
            split.tag, inner_format.open_reader(fs, split.inner, ctx), ctx
        )
