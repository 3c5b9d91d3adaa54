"""Buffered stdio on top of the libc facade: fopen/fread/fwrite/fclose.

Stock libc buffers in user space (BUFSIZ chunks). Under NVCache these
wrappers still work, but Table III's interception makes them effectively
unbuffered for writes: the underlying ``write`` is already user-space
cheap and durable, so buffering would only delay durability. We model
this with a ``buffered`` flag that :func:`make_stdio` clears when the
libc is an :class:`~repro.libc.libc.NvcacheLibc`.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..kernel.errno import EINVAL, KernelError
from ..kernel.fd_table import (
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    SEEK_CUR,
    SEEK_SET,
)
from .libc import Libc, NvcacheLibc

BUFSIZ = 8192

_MODE_FLAGS = {
    "r": O_RDONLY,
    "r+": O_RDWR,
    "w": O_WRONLY | O_CREAT | O_TRUNC,
    "w+": O_RDWR | O_CREAT | O_TRUNC,
    "a": O_WRONLY | O_CREAT | O_APPEND,
    "a+": O_RDWR | O_CREAT | O_APPEND,
}


class File:
    """A FILE*: fd + optional user-space write buffer."""

    def __init__(self, libc: Libc, fd: int, mode: str, buffered: bool):
        self.libc = libc
        self.fd = fd
        self.mode = mode
        self.buffered = buffered
        self._write_buffer = bytearray()
        self.closed = False


class Stdio:
    """The f* function family bound to one libc."""

    def __init__(self, libc: Libc, buffered: Optional[bool] = None):
        self.libc = libc
        if buffered is None:
            # NVCache replaces buffered stdio with unbuffered I/O
            # (paper Table III).
            buffered = not isinstance(libc, NvcacheLibc)
        self.buffered = buffered

    def fopen(self, path: str, mode: str) -> Generator:
        flags = _MODE_FLAGS.get(mode.replace("b", ""))
        if flags is None:
            raise KernelError(EINVAL, f"fopen mode {mode!r}")
        fd = yield from self.libc.open(path, flags)
        return File(self.libc, fd, mode, self.buffered)

    def fwrite(self, data: bytes, stream: File) -> Generator:
        if stream.closed:
            raise KernelError(EINVAL, "fwrite on closed stream")
        if not stream.buffered:
            written = yield from self.libc.write(stream.fd, data)
            return written
        stream._write_buffer += data
        while len(stream._write_buffer) >= BUFSIZ:
            chunk = bytes(stream._write_buffer[:BUFSIZ])
            del stream._write_buffer[:BUFSIZ]
            yield from self.libc.write(stream.fd, chunk)
        return len(data)

    def fread(self, nbytes: int, stream: File) -> Generator:
        if stream.closed:
            raise KernelError(EINVAL, "fread on closed stream")
        yield from self._flush_buffer(stream)
        data = yield from self.libc.read(stream.fd, nbytes)
        return data

    def _flush_buffer(self, stream: File) -> Generator:
        if stream._write_buffer:
            chunk = bytes(stream._write_buffer)
            stream._write_buffer.clear()
            yield from self.libc.write(stream.fd, chunk)
        else:
            yield self.libc.env.timeout(0.0)

    def fseek(self, stream: File, offset: int, whence: int = SEEK_SET) -> Generator:
        yield from self._flush_buffer(stream)
        position = yield from self.libc.lseek(stream.fd, offset, whence)
        return position

    def ftell(self, stream: File) -> Generator:
        position = yield from self.libc.lseek(stream.fd, 0, SEEK_CUR)
        return position + len(stream._write_buffer)

    def fclose(self, stream: File) -> Generator:
        yield from self._flush_buffer(stream)
        result = yield from self.libc.close(stream.fd)
        stream.closed = True
        return result
