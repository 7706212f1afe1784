from __future__ import annotations

import errno
import gc
import hashlib
import io
import os
import random
import re
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eventqa import manifest
from eventqa.manifest import (
    INTEGER,
    ManifestError,
    Reader,
    make_header,
    read_ndjson,
    resume_ndjson,
    sha256,
    sort_ndjson,
    write_ndjson,
)

HEADER = make_header("run", 0, {"stage": "run"})


def _records(count):
    return [{"instance_id": f"i{k:03d}", "config": "zero-text", "raw_text": f"reply {k}"} for k in range(count)]


def test_line_separators_inside_strings_round_trip(tmp_path):
    # canonical JSON writes U+2028, U+2029 and U+0085 unescaped; only "\n" ends a line.
    path = tmp_path / "m.ndjson"
    records = [{"raw_text": "one\u2028two\u2029three\x85four"}, {"raw_text": "plain"}]
    write_ndjson(path, HEADER, records)
    header, read = read_ndjson(path)
    assert header == HEADER
    assert list(read) == records


def test_records_stream_afresh_on_every_iteration(tmp_path):
    path = tmp_path / "m.ndjson"
    write_ndjson(path, HEADER, _records(5))
    _, records = read_ndjson(path)
    assert sum(1 for _ in records) == 5
    assert list(records) == list(records) == _records(5)


def test_an_abandoned_iterator_leaves_no_open_file(tmp_path):
    path = tmp_path / "m.ndjson"
    write_ndjson(path, HEADER, _records(5))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        iterator = iter(read_ndjson(path)[1])
        next(iterator)
        del iterator
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize(
    "content, message",
    [(b"", "empty manifest"), (b"\n", "missing provenance header"), (b'{"a": 1}\n', "not a provenance header")],
)
def test_headerless_files_are_refused(tmp_path, content, message):
    path = tmp_path / "m.ndjson"
    path.write_bytes(content)
    with pytest.raises(ManifestError, match=message):
        read_ndjson(path)


def test_malformed_line_fails_when_read(tmp_path):
    path = tmp_path / "m.ndjson"
    write_ndjson(path, HEADER, _records(3))
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:2] + [b"{torn\n"] + lines[2:]))
    _, records = read_ndjson(path)
    with pytest.raises(ManifestError, match=":3: malformed"):
        list(records)


@pytest.mark.parametrize("tail", [b'{"instance_id": "i9', b'{"instance_id":"i9"}', b"{torn\n"])
def test_resume_cuts_a_torn_last_line_in_place(tmp_path, tail):
    path = tmp_path / "m.ndjson"
    write_ndjson(path, HEADER, _records(3))
    whole = path.read_bytes()
    path.write_bytes(whole + tail)
    header, records = resume_ndjson(path)
    assert header == HEADER
    assert list(records) == _records(3)
    assert path.read_bytes() == whole


def test_resume_still_refuses_a_malformed_line_before_the_last(tmp_path):
    path = tmp_path / "m.ndjson"
    write_ndjson(path, HEADER, _records(2))
    path.write_bytes(path.read_bytes() + b"{torn\n" + b'{"instance_id": "i9"}\n')
    _, records = resume_ndjson(path)
    with pytest.raises(ManifestError, match="malformed"):
        list(records)


def test_sort_rewrites_in_key_order(tmp_path):
    shuffled = _records(20)
    random.Random(4).shuffle(shuffled)
    path, expected = tmp_path / "m.ndjson", tmp_path / "sorted.ndjson"
    write_ndjson(path, HEADER, shuffled)
    write_ndjson(expected, HEADER, _records(20))
    sort_ndjson(path, lambda record: record["instance_id"])
    assert path.read_bytes() == expected.read_bytes()


def test_a_failed_write_leaves_the_old_file(tmp_path):
    path = tmp_path / "m.ndjson"
    write_ndjson(path, HEADER, _records(2))
    before = path.read_bytes()

    def failing():
        yield from _records(1)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        write_ndjson(path, HEADER, failing())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ndjson"]


def test_a_path_that_cannot_be_written_is_named(tmp_path):
    path = tmp_path / "m.ndjson"
    path.mkdir()
    with pytest.raises(ManifestError, match=f"^cannot write {re.escape(str(path))}: "):
        write_ndjson(path, HEADER, _records(2))
    assert [p.name for p in tmp_path.iterdir()] == ["m.ndjson"]


def test_a_failed_write_is_named(tmp_path, monkeypatch):
    class FullDisk(io.StringIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(manifest, "open", lambda *args, **kwargs: FullDisk(), raising=False)
    path = tmp_path / "m.ndjson"
    with pytest.raises(ManifestError, match=f"^cannot write {re.escape(str(path))}: {os.strerror(errno.ENOSPC)}$"):
        write_ndjson(path, HEADER, _records(2))


def test_a_failed_read_of_the_records_is_not_a_failed_write(tmp_path):
    path = tmp_path / "m.ndjson"

    def unreadable():
        yield from _records(1)
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    with pytest.raises(OSError) as caught:
        write_ndjson(path, HEADER, unreadable())
    assert type(caught.value) is OSError
    assert list(tmp_path.iterdir()) == []


@given(st.binary(max_size=1 << 12), st.lists(st.integers(min_value=0, max_value=1 << 12), max_size=8))
def test_sha256_matches_hashlib(data, cuts):
    """The interpreter's built-in SHA-256 gives OpenSSL's digests, whole and fed in pieces."""
    expected = hashlib.sha256(data)
    assert sha256(data).hexdigest() == expected.hexdigest()
    bounds = sorted({0, len(data), *(cut % (len(data) + 1) for cut in cuts)})
    pieces = sha256()
    for start, end in zip(bounds, bounds[1:]):
        pieces.update(data[start:end])
    assert pieces.digest() == expected.digest()


def test_a_closed_reader_names_an_unknown_key_with_its_prefix():
    inner = Reader(dict, {"count": INTEGER}, closed=True)
    outer = Reader(dict, {"inner": ((dict,), "a JSON object", inner)}, closed=True)
    with pytest.raises(ManifestError, match=r"^unknown key 'inner\.cont'$"):
        outer.read({"inner": {"count": 1, "cont": 2}})
    with pytest.raises(ManifestError, match=r"^unknown key 'extra'$"):
        outer.read({"inner": {"count": 1}, "extra": 1})
    # An open reader skips a key it does not read.
    assert Reader(dict, {"count": INTEGER}).read({"count": 1, "extra": 2}) == {"count": 1}

