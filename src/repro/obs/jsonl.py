"""The crash contract of every file the harness writes, in one place.

Whole documents (manifest, heartbeat, shard plan, response cache,
store artifacts, merged ledger and span log, ``obs check`` baseline)
are replaced atomically by :func:`replacing`: a temp file beside the
target, named ``*.tmp`` so ``repro runs gc`` finds a kill's debris,
created with the mode the umask gives any new file and swapped in by
``os.replace`` only when the block succeeds.  Neither the temp file
nor its directory is fsynced.

Append-only JSONL logs are written one ``write()`` per line, so a
kill leaves at most one torn final line.  A log one process owns (run
and shard ledgers, span logs) is written through
:class:`JsonlAppender`, which cuts a torn tail off before it appends;
a log several processes append to (``history.jsonl``) is never cut,
and :func:`append_shared` starts on a fresh line instead.

Every reader is one :func:`fold_jsonl` from a byte offset, over
:func:`iter_jsonl`: a one-shot read folds from byte 0, and a live
follower folds only the lines appended since the offset its last fold
returned.  An undecodable *complete* line with more lines after it is
corruption (:class:`JsonlCorruptError`), skipped only in a shared log;
the *final* line, torn or undecodable, is never consumed, so a
one-shot reader drops it with a warning and a follower retries it.
:func:`last_advanced` is the one freshness probe of a run's logs.
DESIGN.md tabulates every file under "Files and their crash contract".

:func:`dumps_line` is the one compact encoder of every log line,
byte-equal to ``json.dumps(payload, separators=(",", ":"))`` plus a
newline.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Self

#: ``json.dumps(payload, separators=(",", ":"))`` builds an encoder
#: per call; this one is built once (it keeps no state between calls).
_ENCODER = json.JSONEncoder(separators=(",", ":"))

#: How far :func:`cut_torn_tail` reads back per step.
_TAIL_BLOCK = 1 << 16


def dumps_line(payload: object) -> str:
    """``payload`` as one compact JSONL line, newline included."""
    return _ENCODER.encode(payload) + "\n"


# ----------------------------------------------------------------------
# Whole documents: atomic replace
# ----------------------------------------------------------------------
@contextmanager
def replacing(target: str | Path) -> Iterator[Path]:
    """A temp file beside ``target`` (parents created) that replaces
    it when the block succeeds and is removed when the block raises.

    The temp file is created exclusively with mode 0666, so the
    process umask sets the document's mode, as it does an appended
    log's.
    """
    target = Path(target)
    target.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = target.with_name(
            f"{target.name}.{os.urandom(6).hex()}.tmp")
        try:
            handle = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                             0o666)
        except FileExistsError:
            continue
        os.close(handle)
        break
    try:
        yield tmp
        os.replace(tmp, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def replace_text(target: str | Path, text: str) -> Path:
    """Atomically replace ``target`` with ``text`` (UTF-8)."""
    with replacing(target) as tmp:
        tmp.write_text(text, encoding="utf-8")
    return Path(target)


# ----------------------------------------------------------------------
# Append-only logs: the writers
# ----------------------------------------------------------------------
class JsonlAppender:
    """The only writer of an append-only JSONL log.

    Opening cuts a torn tail off; each :meth:`_put` is one ``write()``
    and one ``flush()`` under one lock, so threads never interleave
    bytes within a line and a crashed process keeps every line it
    wrote.  Subclasses decide what a write after :meth:`close` means.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        cut_torn_tail(self.path)
        self._file = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._closed = False

    def _put(self, text: str, sync: bool = False) -> bool:
        """Write and flush ``text`` (whole lines), and fsync it when
        ``sync``; False, with nothing written, once closed."""
        with self._lock:
            if self._closed:
                return False
            self._file.write(text)
            self._file.flush()
            if sync:
                os.fsync(self._file.fileno())
            return True

    def close(self, sync: bool = False) -> None:
        with self._lock:
            if self._closed:
                return
            self._file.flush()
            if sync:
                os.fsync(self._file.fileno())
            self._file.close()
            self._closed = True

    def __enter__(self) -> Self:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def append_shared(path: str | Path, line: str) -> None:
    """Append one line to a log other processes append to as well.

    Never cuts (another writer's line may be in flight): when the log
    ends mid-line, ``line`` starts on a fresh one, and the torn line
    becomes a complete line readers skip.
    """
    data = line.encode("utf-8")
    with open(path, "a+b") as stream:
        end = stream.seek(0, os.SEEK_END)
        if end:
            stream.seek(end - 1)
            if stream.read(1) != b"\n":
                data = b"\n" + data
        stream.write(data)
        stream.flush()


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


# ----------------------------------------------------------------------
# Append-only logs: the readers
# ----------------------------------------------------------------------
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
    #: Byte offset where the last record's line starts.
    last_start: int = 0
    #: Line numbers of undecodable complete lines a non-strict read
    #: skipped.
    garbled: list[int] = field(default_factory=list)

    @property
    def payloads(self) -> list[dict]:
        return [payload for _, payload in self.records]


def iter_jsonl(path: str | Path, offset: int = 0,
               start_line: int = 1, strict: bool = True) -> JsonlBatch:
    """Read ``path`` from byte ``offset``, decoding complete lines.

    ``start_line`` seeds the reported line numbers so a resumed read
    keeps file-absolute positions in its error messages.  Raises
    :class:`JsonlCorruptError` for an undecodable line that has
    complete lines after it (a non-``strict`` read skips it into
    :attr:`JsonlBatch.garbled`); the final line is instead left
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
        if pending is not None:
            # A later line proves the log continued past the pending
            # one: it is corruption, not a torn tail.
            if strict:
                raise JsonlCorruptError(str(path), pending[0],
                                        pending[2])
            batch.garbled.append(pending[0])
            batch.offset = pending[1]
            batch.next_line += 1
            pending = None
        line = data[position:newline]
        start = offset + position
        end = offset + newline + 1
        position = newline + 1
        text = line.decode("utf-8", errors="replace").strip()
        if text:
            try:
                payload = json.loads(text)
                if not isinstance(payload, dict):
                    raise ValueError(f"expected object, got "
                                     f"{type(payload).__name__}")
            except ValueError as exc:
                # Defer the verdict until a later line shows up.
                pending = (batch.next_line, end, repr(exc))
                continue
            batch.records.append((batch.next_line, payload))
            batch.lines.append(text)
            batch.last_start = start
        batch.offset = end
        batch.next_line += 1
    if pending is not None:
        batch.torn = True
        batch.torn_line = pending[0]
    elif position < len(data):
        # Trailing bytes without a newline: an append in flight (or
        # the crash signature).  Never consumed.
        batch.torn = True
        batch.torn_line = batch.next_line
    return batch


def fold_jsonl(path: str | Path, apply: Callable[[dict, str], object],
               log: logging.Logger, dropped: str,
               corrupt: Callable[[str, int, str], Exception] | None
               = None, offset: int = 0, start_line: int = 1,
               follow: bool = False) -> tuple[int, int, int]:
    """Feed every line of ``path`` from byte ``offset`` (line number
    ``start_line``) to ``apply(payload, text)`` in file order (``text``
    is the line as written, without its newline); returns how many
    lines it took, and the byte offset and line number a fold of the
    lines appended since resumes from.

    A torn final line, or a decoded final line ``apply`` rejects with
    ``ValueError``, ``KeyError`` or ``TypeError``, is left for the next
    fold: a one-shot read drops it with a ``<dropped> dropped``
    warning, and a ``follow`` read, which retries it, logs nothing.
    Any earlier line that does not decode or apply raises
    ``corrupt(path, line number, reason)``.  With no ``corrupt``, for
    a log several processes append to, a line that does not decode
    before the final one, or does not apply anywhere, is skipped for
    good with the same warning instead.
    """
    try:
        batch = iter_jsonl(path, offset, start_line,
                           strict=corrupt is not None)
    except JsonlCorruptError as exc:
        raise corrupt(exc.path, exc.line_number, exc.reason) from exc
    torn = [batch.torn_line] if batch.torn and not follow else []
    for number in batch.garbled + torn:
        log.warning("%s dropped path=%s line=%d", dropped, path, number)
    resume = batch.offset, batch.next_line
    last = len(batch.records) - 1
    taken = 0
    for index, (number, payload) in enumerate(batch.records):
        try:
            apply(payload, batch.lines[index])
            taken += 1
        except (ValueError, KeyError, TypeError) as exc:
            if corrupt is not None:
                if index < last or batch.torn:
                    raise corrupt(str(path), number, repr(exc)) from exc
                # Decoded but unappliable tail: the same crash
                # signature, so a later line makes it corruption.
                resume = batch.last_start, number
                if follow:
                    continue
            log.warning("%s dropped path=%s line=%d", dropped, path,
                        number)
    return taken, *resume


def last_advanced(*paths: str | Path) -> float | None:
    """When the newest of ``paths`` last changed (its mtime), or
    ``None`` when none exists: how a run's logs show progress."""
    latest: float | None = None
    for path in paths:
        try:
            mtime = os.stat(path).st_mtime
        except OSError:
            continue
        latest = mtime if latest is None else max(latest, mtime)
    return latest
