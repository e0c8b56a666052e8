"""Small helpers shared by several stages: rounding, text and binary IO."""

import contextlib
import math
import os
import re
import struct

from .exceptions import CorruptFile, MalformedLine

# A node id as a cascade log can hold it: no whitespace, no ':', not empty.
ID_RE = re.compile(r"[^\s:]+\Z")

# Slack subtracted before ceil so that binary floating point noise in products
# like 1.2 * m cannot push an exact integer over the next boundary.
_CEIL_SLACK = 1e-9


def slack_ceil(value):
    """Ceiling of ``value`` that tolerates float noise just above an integer."""
    return math.ceil(value - _CEIL_SLACK)


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


def read_lines(path):
    """Yield the lines of a UTF-8 text file, without their line breaks.

    Line breaks are ``\\n``, ``\\r\\n`` and ``\\r``, as text-mode files read
    them. Invalid UTF-8 raises MalformedLine with the 1-based number of the
    line that holds it, after every line before it has been yielded, so a
    parser still stops at the first bad line in file order.
    """
    with open(path, "rb") as fh:
        data = fh.read()
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


def pack_ids(ids):
    """Id table as length-prefixed UTF-8 strings (little-endian u32 lengths)."""
    chunks = []
    for s in ids:
        b = s.encode("utf-8")
        chunks.append(struct.pack("<I", len(b)))
        chunks.append(b)
    return b"".join(chunks)


def take(buf, offset, count, path):
    """``count`` bytes of ``buf`` from ``offset``, and the offset after them."""
    end = offset + count
    if end > len(buf):
        raise CorruptFile(f"{path}: truncated (needed {end} bytes, have {len(buf)})")
    return buf[offset:end], end


def read_ids(buf, offset, count, path):
    """Read ``count`` ids written by pack_ids; returns (ids, offset after them).

    An id that is not valid UTF-8, or that no cascade log could hold (see
    ID_RE), raises CorruptFile.
    """
    ids = []
    for k in range(count):
        raw, offset = take(buf, offset, 4, path)
        (n,) = struct.unpack("<I", raw)
        raw, offset = take(buf, offset, n, path)
        try:
            ids.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            raise CorruptFile(f"{path}: id {k} of its table is not valid UTF-8") from None
        if not ID_RE.match(ids[-1]):
            raise CorruptFile(f"{path}: id {k} of its table, {ids[-1]!r}, is not a node id")
    return ids, offset
