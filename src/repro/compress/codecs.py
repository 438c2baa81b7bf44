"""Block compression codecs with simulated CPU accounting."""

from __future__ import annotations

import zlib
from typing import Optional

from repro.sim.cost import CpuCostModel
from repro.sim.metrics import Metrics


class Codec:
    """A block codec: real bytes, simulated CPU time.

    ``compress``/``decompress`` operate on whole byte blocks (the unit
    the compressed-block column format works in, Section 5.3).
    """

    #: cost-model key ("zlib" or "lzo")
    name = ""

    def compress(self, data: bytes, registry=None) -> bytes:
        """``data`` deflated; the write side charges no simulated cpu."""
        out = self._compress(data)
        if registry is not None and registry.enabled:
            registry.counter("codec.blocks", codec=self.name, op="deflate").inc()
            registry.counter(
                "codec.bytes_in", codec=self.name, op="deflate"
            ).inc(len(data))
            registry.counter(
                "codec.bytes_out", codec=self.name, op="deflate"
            ).inc(len(out))
        return out

    def decompress(
        self,
        data: bytes,
        cost: Optional[CpuCostModel] = None,
        metrics: Optional[Metrics] = None,
        registry=None,
    ) -> bytes:
        out = self._decompress(data)
        if cost is not None and metrics is not None:
            cost.charge_inflate(metrics, self.name, len(out))
        if registry is not None and registry.enabled:
            registry.counter("codec.blocks", codec=self.name, op="inflate").inc()
            registry.counter(
                "codec.bytes_in", codec=self.name, op="inflate"
            ).inc(len(data))
            registry.counter(
                "codec.bytes_out", codec=self.name, op="inflate"
            ).inc(len(out))
        return out

    def _compress(self, data: bytes) -> bytes:
        raise NotImplementedError

    def _decompress(self, data: bytes) -> bytes:
        raise NotImplementedError


class ZlibCodec(Codec):
    """ZLIB at a high setting: best ratio, slowest inflate (Section 3.3)."""

    name = "zlib"

    def _compress(self, data: bytes) -> bytes:
        return zlib.compress(data, 9)

    def _decompress(self, data: bytes) -> bytes:
        return zlib.decompress(data)


class LzoCodec(Codec):
    """Simulated LZO: fast, lighter-ratio compression.

    Bytes come from zlib level 1 (a weaker ratio than :class:`ZlibCodec`,
    matching LZO's relative position); CPU time is charged at LZO rates
    by the cost model.
    """

    name = "lzo"

    def _compress(self, data: bytes) -> bytes:
        return zlib.compress(data, 1)

    def _decompress(self, data: bytes) -> bytes:
        return zlib.decompress(data)


_CODECS = {"zlib": ZlibCodec(), "lzo": LzoCodec()}


def get_codec(name: str) -> Codec:
    """Look up a codec by cost-model name; raises ``KeyError`` if unknown."""
    return _CODECS[name]
