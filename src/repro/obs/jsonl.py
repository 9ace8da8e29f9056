"""Shared offset-aware JSONL reading with torn-tail tolerance.

Three consumers read append-only JSONL logs written one ``write()``
per line: the run ledger's replayer, the span log reader and the live
:class:`repro.obs.live.LedgerFollower`.  All three face the same crash
signature — a final line whose append died partway — and the follower
additionally has to resume from a byte offset so each poll reads only
what was appended since the last one.  This module is the single
implementation of that contract:

* a *complete* line (newline-terminated, with more complete lines
  after it) that fails to decode is corruption and raises
  :class:`JsonlCorruptError`;
* the *final* line — torn mid-append (no trailing newline) or
  undecodable — is never consumed: the returned offset stops right
  before it, so a one-shot reader can drop it with a warning while a
  follower simply retries once the writer's append completes.

:func:`iter_jsonl` is the stateless one-shot form; :class:`JsonlTail`
keeps the ``(offset, line number)`` cursor between polls.
:func:`cut_torn_tail` is the writer's side of the same rule: before a
log is reopened for append, the bytes after its last newline go, so
a resumed writer's first line can never be glued onto a torn one.

The writers' side also owns the line format: :func:`dumps_line` is the
one compact encoder of every log line (the ledger's bracket events,
history entries, and the fallback of the record and span line
encoders), byte-equal to ``json.dumps(payload, separators=(",", ":"))``
plus a newline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

#: ``json.dumps(payload, separators=(",", ":"))`` builds an encoder
#: per call; this one is built once (it keeps no state between calls).
_ENCODER = json.JSONEncoder(separators=(",", ":"))

#: How far :func:`cut_torn_tail` reads back per step.
_TAIL_BLOCK = 1 << 16


def dumps_line(payload: object) -> str:
    """``payload`` as one compact JSONL line, newline included."""
    return _ENCODER.encode(payload) + "\n"


class JsonlCorruptError(ValueError):
    """A non-final line of a JSONL log failed to decode."""

    def __init__(self, path: str, line_number: int, reason: str):
        self.path = path
        self.line_number = line_number
        self.reason = reason
        super().__init__(
            f"corrupt JSONL log {path} at line {line_number}: "
            f"{reason}")


@dataclass(slots=True)
class JsonlBatch:
    """One read of a JSONL log from a byte offset to EOF."""

    #: ``(line number, decoded payload)`` pairs, in file order.
    records: list[tuple[int, dict]] = field(default_factory=list)
    #: The text of each consumed line, without its newline, parallel
    #: to :attr:`records` (a merge copies lines without re-encoding).
    lines: list[str] = field(default_factory=list)
    #: Byte offset just past the last *consumed* line.
    offset: int = 0
    #: Line number the next consumed line will carry.
    next_line: int = 1
    #: An unconsumed tail exists (torn append or undecodable final
    #: line); it starts at :attr:`offset`.
    torn: bool = False
    #: Line number of the unconsumed tail, when ``torn``.
    torn_line: int | None = None

    @property
    def payloads(self) -> list[dict]:
        return [payload for _, payload in self.records]


def iter_jsonl(path: str | Path, offset: int = 0,
               start_line: int = 1) -> JsonlBatch:
    """Read ``path`` from byte ``offset``, decoding complete lines.

    ``start_line`` seeds the reported line numbers so a resumed read
    keeps file-absolute positions in its error messages.  Raises
    :class:`JsonlCorruptError` for an undecodable line that has
    complete lines after it; the final line is instead left
    unconsumed (``torn=True``).
    """
    with open(path, "rb") as stream:
        stream.seek(offset)
        data = stream.read()
    batch = JsonlBatch(offset=offset, next_line=start_line)
    position = 0
    pending: tuple[int, int, str] | None = None  # line, end, reason
    while True:
        newline = data.find(b"\n", position)
        if newline < 0:
            break
        line = data[position:newline]
        end = offset + newline + 1
        line_number = batch.next_line
        text = line.decode("utf-8", errors="replace").strip()
        if not text:
            if pending is not None:
                raise JsonlCorruptError(str(path), pending[0],
                                        pending[2])
            batch.offset = end
            batch.next_line += 1
            position = newline + 1
            continue
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError(f"expected object, got "
                                 f"{type(payload).__name__}")
        except ValueError as exc:
            # Defer the verdict: only corruption if a later complete
            # line proves the log continued past this one.
            if pending is not None:
                raise JsonlCorruptError(str(path), pending[0],
                                        pending[2])
            pending = (line_number, end, repr(exc))
            position = newline + 1
            continue
        if pending is not None:
            raise JsonlCorruptError(str(path), pending[0], pending[2])
        batch.records.append((line_number, payload))
        batch.lines.append(text)
        batch.offset = end
        batch.next_line += 1
        position = newline + 1
    if pending is not None:
        batch.torn = True
        batch.torn_line = pending[0]
    elif position < len(data):
        # Trailing bytes without a newline: an append in flight (or
        # the crash signature).  Never consumed.
        batch.torn = True
        batch.torn_line = batch.next_line
    return batch


def cut_torn_tail(path: str | Path) -> None:
    """Truncate ``path`` just after its last newline (a missing file
    is left missing).

    Appending to a log whose last append died partway would glue the
    next line onto the torn one and turn the crash signature into
    mid-file corruption, so every writer that reopens a log for
    append cuts it first.  The log is read backwards from its end in
    fixed-size blocks until a newline shows up, so a resume does not
    load a whole span log to keep all of it.
    """
    try:
        stream = open(path, "r+b")
    except FileNotFoundError:
        return
    with stream:
        size = end = stream.seek(0, 2)
        while end > 0:
            start = max(0, end - _TAIL_BLOCK)
            stream.seek(start)
            newline = stream.read(end - start).rfind(b"\n")
            if newline >= 0:
                end = start + newline + 1
                break
            end = start
        if end < size:
            stream.truncate(end)


class JsonlTail:
    """Stateful cursor over a growing JSONL log.

    Each :meth:`poll` returns only the payloads appended (and
    completed) since the previous poll; a torn tail is retried on the
    next call once the writer finishes the line.  A missing file is
    simply "nothing yet".
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.offset = 0
        self.next_line = 1
        self.torn = False

    def poll(self) -> list[dict]:
        if not self.path.exists():
            return []
        batch = iter_jsonl(self.path, offset=self.offset,
                           start_line=self.next_line)
        self.offset = batch.offset
        self.next_line = batch.next_line
        self.torn = batch.torn
        return batch.payloads
