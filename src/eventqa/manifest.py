"""Newline-delimited JSON pipeline files with a provenance header.

Every artifact the pipeline writes starts with a header record carrying the
artifact version, the pipeline stage, the seed, and a hash of the run
configuration, so any file can be traced back to the run that produced it.
Headers deliberately exclude timestamps and absolute paths: repeated runs
with the same inputs must produce byte-identical files.

Manifests are streamed: readers hold one record at a time, and writers
write each record as it arrives, so no stage needs a whole manifest in
memory.

A record is a named tuple. ``as_row`` is its one writer, and a row table
(see ``Reader``) its one reader, so each field of a row is declared once.

Every digest the pipeline takes (header config hashes, input file hashes,
derived seeds, mock fixture keys) goes through ``sha256``, bound here to
the interpreter's built-in SHA-256 the way ``random`` binds ``_sha512``.
``hashlib`` would load OpenSSL's libcrypto into every stage, about 3.7 MB
resident for one hash function; the built-in gives the same digests.
"""

from __future__ import annotations

import json
import os
from contextlib import closing, contextmanager
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from . import EventQAError, __version__

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

HEADER_KEY = "_header"


class ManifestError(EventQAError):
    pass


# ``json.dumps`` with any setting of its own builds a new encoder per call.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json(obj) -> str:
    return _CANONICAL_ENCODER.encode(obj)


def as_row(record: tuple) -> dict:
    """A record's fields by name, each nested record (a named tuple) as an object of its own.

    A ``str`` enum member stays as it is: ``canonical_json`` writes it as its value.
    """
    return {name: as_row(value) if isinstance(value, tuple) else value for name, value in zip(record._fields, record)}


def config_hash(config: dict) -> str:
    return sha256(canonical_json(config).encode("utf-8")).hexdigest()[:16]


def make_header(stage: str, seed: int | None, config: dict) -> dict:
    return {
        "artifact": "eventqa",
        "version": __version__,
        "stage": stage,
        "seed": seed,
        "config_hash": config_hash(config),
    }


def _unwritable(path: str | Path, exc: OSError) -> ManifestError:
    return ManifestError(f"cannot write {path}: {exc.strerror or exc}")


@contextmanager
def _writing(path: str | Path):
    """Raise an ``OSError`` of the block as ``ManifestError`` ``cannot write <path>: <reason>``.

    For a block that writes ``path`` and reads nothing, so that no failed read is reported as a failed write.
    """
    try:
        yield
    except OSError as exc:
        raise _unwritable(path, exc) from None


def _replace_all(contents: dict[Path, Iterable[str]]) -> None:
    """Write each path's text, piece by piece, to a ``.part`` sibling; then replace every path, or none.

    No part is renamed over its path before every part is whole and no directory stands at any path; on
    failure every part is removed. Opening, writing and renaming a part fail as ``_writing`` does; any other
    error, such as a failed read of what is written, passes as it is.
    """
    parts = []
    try:
        for path, pieces in contents.items():
            part = path.with_name(path.name + ".part")
            with _writing(path):
                handle = open(part, "w", encoding="utf-8")
            parts.append(part)
            with handle:
                for piece in pieces:
                    try:
                        handle.write(piece)
                    except OSError as exc:
                        raise _unwritable(path, exc) from None
                with _writing(path):
                    handle.flush()
        for path in contents:
            if path.is_dir() and not path.is_symlink():  # ``os.replace`` would refuse it, after renaming the others
                raise _unwritable(path, IsADirectoryError("Is a directory"))
        for path, part in zip(contents, parts):
            with _writing(path):
                os.replace(part, path)
    except BaseException:
        for part in parts:
            part.unlink(missing_ok=True)
        raise


def replace_files(texts: dict[Path, str]) -> None:
    """Write each path's whole text, replacing every path or none (see ``_replace_all``)."""
    _replace_all({path: [text] for path, text in texts.items()})


def write_ndjson(path: str | Path, header: dict, records: Iterable[dict]) -> None:
    """Write a manifest, one record at a time; the file appears only once every record is written."""
    _replace_all({Path(path): (canonical_json(record) + "\n" for record in chain([{HEADER_KEY: header}], records))})


def _scan(path: Path, tolerate_partial: bool) -> Iterator[tuple[int, int, Any]]:
    """Yield (start, end, value) for the header and then each record: the line's byte span and its JSON.

    The one manifest parser. A blank first line or a torn header yields
    nothing. With ``tolerate_partial`` a last line that lacks its newline
    or does not parse (a write cut off mid-record) ends the scan instead of
    failing; malformed lines elsewhere always fail. The file is closed when
    the scan is exhausted or closed.
    """
    with open(path, "rb") as handle:
        end = 0
        for line_no, line in enumerate(handle, start=1):
            start, end = end, end + len(line)
            if tolerate_partial and not line.endswith(b"\n"):
                return
            if line.isspace():
                if line_no == 1:
                    return
                continue
            try:
                value = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError):
                if tolerate_partial and not handle.read(1):
                    return
                raise ManifestError(f"{path}:{line_no}: malformed manifest line") from None
            if line_no == 1:
                if not isinstance(value, dict) or HEADER_KEY not in value:
                    raise ManifestError(f"{path}: first line is not a provenance header")
                value = value[HEADER_KEY]
            yield start, end, value
        if end == 0:
            raise ManifestError(f"empty manifest: {path}")


def _open_scan(path: Path, tolerate_partial: bool = False) -> tuple[dict, int, Iterator[tuple[int, int, Any]]]:
    """(header, end of the header line, the scan positioned after it)."""
    scan = _scan(path, tolerate_partial)
    try:
        first = next(scan, None)  # opens the file
    except FileNotFoundError:
        raise ManifestError(f"missing manifest: {path}") from None
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc.strerror or exc}") from None
    if first is None:
        raise ManifestError(f"{path}: missing provenance header")
    _, header_end, header = first
    return header, header_end, scan


class Records:
    """The records of a manifest, streamed from the file afresh on every iteration.

    An iterator holds one record at a time and closes the file when it is
    exhausted or closed.
    """

    def __init__(self, path: Path) -> None:
        self.path = path

    def __iter__(self) -> Iterator[dict]:
        _, _, scan = _open_scan(self.path)
        with closing(scan):
            for _, _, record in scan:
                yield record


def read_ndjson(path: str | Path) -> tuple[dict, Records]:
    """Read a manifest's header now and return it with its records, which are read as they are iterated."""
    path = Path(path)
    header, _, scan = _open_scan(path)
    scan.close()
    return header, Records(path)


def resume_ndjson(path: str | Path) -> tuple[dict, Iterator[dict]]:
    """Read back a manifest that an interrupted run may have left with a torn last line.

    Returns the header and an iterator over the whole records. Once that is
    exhausted, the torn line is cut off the file in place, so new records
    can be appended after the last whole one.
    """
    path = Path(path)
    header, end, scan = _open_scan(path, tolerate_partial=True)

    def records() -> Iterator[dict]:
        nonlocal end
        with closing(scan):
            for _, end, record in scan:
                yield record
        os.truncate(path, end)

    return header, records()


def sort_ndjson(path: str | Path, key: Callable[[dict], Any]) -> None:
    """Rewrite a manifest with its records in ``key`` order (stable), copying each line.

    Only the keys and the byte spans of the lines are held in memory.
    """
    path = Path(path)
    _, header_end, scan = _open_scan(path)
    with closing(scan):
        spans = sorted((key(record), start, end) for start, end, record in scan)
    with open(path, "rb") as source:

        def lines() -> Iterator[str]:  # each decoded as ``_scan`` decoded it
            yield source.read(header_end).decode("utf-8")
            for _, start, end in spans:
                source.seek(start)
                line = source.read(end - start).decode("utf-8")
                yield line if line.endswith("\n") else line + "\n"

        _replace_all({path: lines()})


def csv_header_line(header: dict) -> str:
    return "# " + canonical_json(header)


# --- typed rows ---------------------------------------------------------------------
#
# A row table maps each field of a record to an entry: the types ``json``
# decodes its accepted JSON types to (``bool`` is no integer here), how a
# message names them, and None or a parser of the value, which refuses it
# with ``ValueError``, ``LookupError`` or an ``EventQAError``. Messages
# number the rows of a manifest from 1 after the header.


def encodes_utf8(text: str) -> bool:
    """Whether UTF-8 can encode ``text``: not if it holds a lone surrogate, such as JSON's ``"\\ud800"`` escape."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def kept(test: Callable) -> Callable:
    """A parser that keeps each value ``test`` passes and refuses any other."""
    def parse(value):
        if not test(value):
            raise ValueError(value)
        return value
    return parse


# A string is text that UTF-8 can encode, so every file written from a record can hold it.
STRING = ((str,), "a string", kept(encodes_utf8))
INTEGER = ((int,), "an integer", None)
NUMBER = ((int, float), "a number", None)


def one_of(enum: type) -> tuple:
    """The entry of a string field naming a member of ``enum``, found in a dict: calling ``enum`` is slower."""
    members = {member.value: member for member in enum}
    return (str,), "one of " + ", ".join(members), members.__getitem__


def _shown(value) -> str:
    """The repr of a refused value or key, cut to its first 80 and last 40 characters if over 200: one short line."""
    text = repr(value)
    return text if len(text) <= 200 else f"{text[:80]}...{text[-40:]}"


class Reader(NamedTuple):
    """Reads a JSON object as ``make(**values)``, with one value per field of the row table ``fields``.

    An open reader skips a key that is not in ``fields``; a ``closed`` one, as for a config file, refuses it.
    """

    make: Callable
    fields: dict[str, tuple]
    closed: bool = False

    def read(self, value, required: bool = True, prefix: str = ""):
        """The record of ``value``; ``ManifestError`` names the first field (``prefix`` + name) that does not fit.

        Without ``required`` a missing field takes ``make``'s default. A ``ValueError`` from ``make`` names its field.
        """
        if type(value) is not dict:
            raise ManifestError("is not a JSON object")
        if self.closed:
            for name in value:
                if name not in self.fields:
                    raise ManifestError(f"unknown key {_shown(prefix + name)}")
        values = {}
        for name, (types, described, parse) in self.fields.items():
            if name not in value:
                if required:
                    raise ManifestError(f"no field {prefix + name!r}")
                continue
            field = value[name]
            if type(field) in types:
                if type(parse) is Reader:  # a nested object, whose errors name its own fields
                    values[name] = parse.read(field, required, f"{prefix}{name}.")
                    continue
                try:
                    values[name] = field if parse is None else parse(field)
                    continue
                except (ValueError, LookupError, EventQAError):
                    pass
            raise ManifestError(f"{prefix}{name} must be {described}, got {_shown(field)}")
        try:
            return self.make(**values)
        except ValueError as exc:
            raise ManifestError(f"{prefix}{exc}") from None


def read_rows(reader: Reader, rows: Iterable, path: str | Path) -> Iterator:
    """The rows of the manifest at ``path`` as ``reader`` reads them; ``<path> row N is malformed`` refuses one."""
    for number, row in enumerate(rows, start=1):
        try:
            record = reader.read(row)
        except ManifestError as exc:
            raise ManifestError(f"{path} row {number} is malformed: {exc}") from None
        yield record


def read_config(path: str | Path, what: str, error: type[Exception]) -> dict:
    """The JSON object in the config file at ``path``; if there is none, ``error`` names the file as ``what path``."""
    try:
        with open(path, encoding="utf-8") as handle:
            value = json.load(handle)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise error(f"{what} {path} is not valid JSON: {exc}") from None
    if type(value) is not dict:
        raise error(f"{what} {path} is not a JSON object")
    return value
