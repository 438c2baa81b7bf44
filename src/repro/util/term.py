"""Terminal color handling for the CLI renderers.

All color is opt-out and conservative: ANSI sequences are emitted only
when the caller asked for them *and* nothing vetoes it.  Vetoes, in
order: an explicit ``--no-color`` flag, a non-empty ``NO_COLOR``
environment variable (https://no-color.org/), ``TERM=dumb``, and a
destination that is not a TTY.  CI logs therefore stay clean without
any per-job configuration.

Renderers take an optional :class:`Palette`; the disabled
:data:`PLAIN` palette returns its input unchanged, so library callers
that never think about color get byte-identical output.
"""

from __future__ import annotations

import os
import sys
from typing import IO, Optional

_CODES = {
    "bold": "1",
    "red": "31",
    "green": "32",
    "yellow": "33",
}


class Palette:
    """Wraps text in ANSI SGR codes — or doesn't, when disabled."""

    __slots__ = ("enabled",)

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled

    def _wrap(self, code: str, text: str) -> str:
        if not self.enabled or not text:
            return text
        return f"\x1b[{code}m{text}\x1b[0m"

    def bold(self, text: str) -> str:
        return self._wrap(_CODES["bold"], text)

    def red(self, text: str) -> str:
        return self._wrap(_CODES["red"], text)

    def green(self, text: str) -> str:
        return self._wrap(_CODES["green"], text)

    def yellow(self, text: str) -> str:
        return self._wrap(_CODES["yellow"], text)


#: the shared disabled palette: every method is the identity
PLAIN = Palette(False)


def color_enabled(
    no_color_flag: bool = False,
    stream: Optional[IO] = None,
    env: Optional[dict] = None,
) -> bool:
    """Should ANSI color be emitted toward ``stream``?

    ``no_color_flag`` is the CLI's ``--no-color``; ``env`` is
    injectable for tests (defaults to ``os.environ``).
    """
    if no_color_flag:
        return False
    env = env if env is not None else os.environ
    if env.get("NO_COLOR"):
        return False
    if env.get("TERM") == "dumb":
        return False
    stream = stream if stream is not None else sys.stdout
    isatty = getattr(stream, "isatty", None)
    return bool(isatty and isatty())


def palette(
    no_color_flag: bool = False,
    stream: Optional[IO] = None,
    env: Optional[dict] = None,
) -> Palette:
    """A :class:`Palette` honoring ``--no-color``/``NO_COLOR``/TTY."""
    if color_enabled(no_color_flag, stream, env):
        return Palette(True)
    return PLAIN
