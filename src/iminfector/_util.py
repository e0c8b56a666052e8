"""Small helpers shared by several stages: rounding, text and binary IO."""

import contextlib
import math
import os
import re

import numpy as np

from .exceptions import CorruptFile, FormatVersionMismatch, MalformedLine

# A node id as a cascade log can hold it: no whitespace, no ':', not empty.
ID_RE = re.compile(r"[^\s:]+\Z")

# Slack subtracted before ceil so that binary floating point noise in products
# like 1.2 * m cannot push an exact integer over the next boundary.
_CEIL_SLACK = 1e-9


def slack_ceil(value):
    """Ceiling of ``value`` that tolerates float noise just above an integer."""
    return math.ceil(value - _CEIL_SLACK)


def _run_starts(ordered):
    """Mask of the entries of the sorted 1-D array ``ordered`` that differ
    from the one before: the first entry of each run of equal values."""
    starts = np.empty(len(ordered), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def sorted_distinct(values):
    """np.unique(values) of a 1-D array: its distinct values, sorted, of its
    dtype. A sort and a mask of the entries that differ from the one
    before; np.unique itself imports numpy.ma, about 17 ms of a process's
    start."""
    values = np.sort(values)
    return values[_run_starts(values)]


def first_occurrences(keys):
    """np.sort(np.unique(keys, return_index=True)[1]) of a 1-D array: the
    position of each distinct key's first occurrence, ascending.

    Any sort groups equal keys, and the least position in a group is that
    key's first occurrence, so the default sort serves; np.unique needs a
    stable one for its indices, about 3x slower on 600k int64 keys.
    """
    order = np.argsort(keys)
    starts = np.flatnonzero(_run_starts(keys[order]))
    return np.sort(np.minimum.reduceat(order, starts))


@contextlib.contextmanager
def atomic_write(path, mode="w"):
    """Open a file that replaces ``path`` only once its block completes.

    The block writes to a temp file beside ``path`` (text modes as UTF-8),
    which ``os.replace`` moves over ``path`` when the block ends without
    error. On any error the temp file is removed and ``path`` keeps its old
    bytes, or stays absent, so an interrupted writer never leaves a shorter
    file that still parses.
    """
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    encoding = None if "b" in mode else "utf-8"
    try:
        with open(tmp, mode.replace("w", "x"), encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def text_lines(data):
    """Yield the lines of UTF-8 text ``data`` (bytes), without their line breaks.

    Line breaks are ``\\n``, ``\\r\\n`` and ``\\r``, as text-mode files read
    them. Invalid UTF-8 raises MalformedLine with the 1-based number of the
    line that holds it, after every line before it has been yielded, so a
    parser still stops at the first bad line in file order.
    """
    try:
        text, bad = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        text, bad = data[: exc.start].decode("utf-8"), exc.start
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if bad is None:
        yield from lines
        return
    # the last entry is the start of the line holding the bad byte
    yield from lines[:-1]
    raise MalformedLine(f"invalid UTF-8 (byte 0x{data[bad]:02x})", len(lines))


def write_binary(path, magic, dims, sections):
    """Write a binary artifact: ``magic``, ``dims`` as little-endian u64s,
    then each section in order. An array section is its bytes in C order
    (the caller gives it its little-endian dtype); any other section is an
    id table, each id a u32 byte length and its UTF-8 bytes."""
    with atomic_write(path, "wb") as fh:
        fh.write(magic)
        fh.write(np.array(dims, dtype="<u8").tobytes())
        for section in sections:
            if isinstance(section, np.ndarray):
                fh.write(np.ascontiguousarray(section).data)
            else:
                encoded = map(str.encode, section)  # UTF-8
                fh.write(b"".join(len(b).to_bytes(4, "little") + b for b in encoded))


class BinaryReader:
    """Sequential reader of a file that write_binary wrote.

    The constructor checks the magic (FormatVersionMismatch otherwise) and
    reads ``n_dims`` u64 dims into ``dims``. Each read checks that its bytes
    are there before it allocates, so a file cut short raises CorruptFile
    however large its dims claim to be.
    """

    def __init__(self, path, magic, n_dims, what):
        with open(path, "rb") as fh:
            self.data = memoryview(fh.read())
        self.path, self.offset = path, len(magic)
        if self.data[: len(magic)] != magic:
            raise FormatVersionMismatch(f"{path}: not {what}")
        self.dims = self.array("<u8", n_dims).tolist()

    def take(self, count):
        """The next ``count`` bytes, as a view of the file's bytes."""
        end, size = self.offset + count, len(self.data)
        if end > size:
            raise CorruptFile(f"{self.path}: truncated (needed {end} bytes, have {size})")
        view, self.offset = self.data[self.offset : end], end
        return view

    def array(self, dtype, *shape):
        """The next array of ``shape``, copied out of the file once."""
        raw = self.take(math.prod(shape) * np.dtype(dtype).itemsize)
        return np.frombuffer(raw, dtype).reshape(shape).copy()

    def ids(self, count):
        """The next id table, of ``count`` ids. An id that is not valid UTF-8,
        or that no cascade log could hold (see ID_RE), raises CorruptFile."""
        ids = []
        for k in range(count):
            raw = self.take(int.from_bytes(self.take(4), "little"))
            try:
                name = str(raw, "utf-8")
            except UnicodeDecodeError:
                raise CorruptFile(f"{self.path}: id {k} of its table is not valid UTF-8") from None
            if not ID_RE.match(name):
                raise CorruptFile(f"{self.path}: id {k} of its table, {name!r}, is not a node id")
            ids.append(name)
        return ids

    def close(self):
        """Refuse any bytes after the last section read."""
        if self.offset != len(self.data):
            raise CorruptFile(f"{self.path}: {len(self.data) - self.offset} trailing bytes")
