"""Newline-delimited JSON pipeline files with a provenance header.

Every artifact the pipeline writes starts with a header record carrying the
artifact version, the pipeline stage, the seed, and a hash of the run
configuration, so any file can be traced back to the run that produced it.
Headers deliberately exclude timestamps and absolute paths: repeated runs
with the same inputs must produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable

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


def write_ndjson(path: str | Path, header: dict, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json({HEADER_KEY: header}) + "\n")
        for record in records:
            handle.write(canonical_json(record) + "\n")


def read_ndjson(path: str | Path, *, tolerate_partial: bool = False) -> tuple[dict, list[dict]]:
    """Read a manifest back as (header, records).

    With ``tolerate_partial`` a malformed trailing line (a write cut off
    mid-record) is dropped instead of failing, which is what resumption
    wants; malformed lines elsewhere always fail.
    """
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"missing manifest: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ManifestError(f"empty manifest: {path}")

    records: list[dict] = []
    header: dict | None = None
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if tolerate_partial and index == len(lines) - 1:
                break
            raise ManifestError(f"{path}:{index + 1}: malformed manifest line") from None
        if index == 0:
            if HEADER_KEY not in record:
                raise ManifestError(f"{path}: first line is not a provenance header")
            header = record[HEADER_KEY]
        else:
            records.append(record)
    if header is None:
        raise ManifestError(f"{path}: missing provenance header")
    return header, records


def csv_header_line(header: dict) -> str:
    return "# " + canonical_json(header)
