"""Newline-delimited JSON pipeline files with a provenance header.

Every artifact the pipeline writes starts with a header record carrying the
artifact version, the pipeline stage, the seed, and a hash of the run
configuration, so any file can be traced back to the run that produced it.
Headers deliberately exclude timestamps and absolute paths: repeated runs
with the same inputs must produce byte-identical files.

Manifests are streamed: readers hold one record at a time, and writers
write each record as it arrives, so no stage needs a whole manifest in
memory.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import closing, contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from . import __version__

HEADER_KEY = "_header"


class ManifestError(Exception):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:16]


def make_header(stage: str, seed: int | None, config: dict) -> dict:
    return {
        "artifact": "eventqa",
        "version": __version__,
        "stage": stage,
        "seed": seed,
        "config_hash": config_hash(config),
    }


@contextmanager
def _replacing(path: Path, mode: str):
    """A handle on a sibling file that replaces ``path`` once the block succeeds; on failure ``path`` is untouched."""
    partial = path.with_name(path.name + ".part")
    try:
        with open(partial, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_ndjson(path: str | Path, header: dict, records: Iterable[dict]) -> None:
    """Write a manifest, one record at a time; the file appears only once every record is written."""
    with _replacing(Path(path), "w") as handle:
        handle.write(canonical_json({HEADER_KEY: header}) + "\n")
        for record in records:
            handle.write(canonical_json(record) + "\n")


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
    if not path.exists():
        raise ManifestError(f"missing manifest: {path}")
    scan = _scan(path, tolerate_partial)
    first = next(scan, None)
    if first is None:
        raise ManifestError(f"{path}: missing provenance header")
    _, header_end, header = first
    return header, header_end, scan


class Records:
    """The records of a manifest, streamed from the file afresh on every iteration.

    An iterator holds one record at a time and closes the file when it is
    exhausted or closed. ``len()`` streams the file too.
    """

    def __init__(self, path: Path) -> None:
        self.path = path

    def __iter__(self) -> Iterator[dict]:
        _, _, scan = _open_scan(self.path)
        with closing(scan):
            for _, _, record in scan:
                yield record

    def __len__(self) -> int:
        return sum(1 for _ in self)


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
    """Rewrite a manifest with its records in ``key`` order (stable), copying each line's bytes.

    Only the keys and the byte spans of the lines are held in memory.
    """
    path = Path(path)
    _, header_end, scan = _open_scan(path)
    with closing(scan):
        spans = sorted((key(record), start, end) for start, end, record in scan)
    with open(path, "rb") as source, _replacing(path, "wb") as sink:
        sink.write(source.read(header_end))
        for _, start, end in spans:
            source.seek(start)
            line = source.read(end - start)
            sink.write(line if line.endswith(b"\n") else line + b"\n")


def csv_header_line(header: dict) -> str:
    return "# " + canonical_json(header)
