"""``wc`` — word count, with and without SLEDs.

"For wc, since the order of data access is not significant, little
overhead is generated in modifying the code."  Lines and characters are
trivially order-independent; words need one subtlety: a word split across
two *adjacent* chunks must not be counted twice.  The SLEDs variant
therefore records, per chunk, its internal word count plus whether its
first/last bytes are word characters, and merges adjacent chunks at the
end — so ``wc --sleds`` is byte-for-byte equal to plain ``wc`` (tested).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.common import (
    DEFAULT_BUFSIZE,
    SCAN_CPU_PER_BYTE,
    SLEDS_EXTRA_CPU_PER_BYTE,
    read_linear,
    read_sleds_order,
)

_WHITESPACE = b" \t\n\r\v\f"


@dataclass(frozen=True)
class WcResult:
    """The three counters wc prints."""

    path: str
    lines: int
    words: int
    chars: int


def _scan_chunk(data: bytes) -> tuple[int, int, bool, bool]:
    """(newlines, words, starts_in_word, ends_in_word) for one chunk.

    Words are counted as the bytes that begin one (a word byte first in
    the chunk or right after whitespace), which equals
    ``len(data.split())`` without building the words: ``bytes.split()``
    splits on exactly the bytes of :data:`_WHITESPACE`, 9-13 and 32.
    """
    if not data:
        return 0, 0, False, False
    codes = np.frombuffer(data, dtype=np.uint8)
    # uint8 wraps, so codes below 9 stay word bytes
    word = (codes != 32) & (codes - np.uint8(9) > 4)
    starts_in_word = bool(word[0])
    words = starts_in_word + int(np.count_nonzero(word[1:] > word[:-1]))
    newlines = int(np.count_nonzero(codes == 10))
    return newlines, words, starts_in_word, bool(word[-1])


def wc(kernel, path: str, use_sleds: bool = False,
       bufsize: int = DEFAULT_BUFSIZE, via_mmap: bool = False) -> WcResult:
    """Count lines, words and bytes of ``path`` through the simulated
    kernel, charging realistic scan CPU.

    ``via_mmap`` (SLEDs mode only) uses the mmap-friendly library path,
    dropping the per-byte copy tax.
    """
    fd = kernel.open(path)
    try:
        if use_sleds:
            return _wc_sleds(kernel, path, fd, bufsize, via_mmap)
        return _wc_linear(kernel, path, fd, bufsize)
    finally:
        kernel.close(fd)


def _wc_linear(kernel, path: str, fd: int, bufsize: int) -> WcResult:
    lines = words = chars = 0
    prev_ends_in_word = False
    for _, data in read_linear(kernel, fd, bufsize):
        kernel.charge_cpu(len(data) * SCAN_CPU_PER_BYTE)
        newlines, nwords, starts_in_word, ends_in_word = _scan_chunk(data)
        lines += newlines
        words += nwords
        if prev_ends_in_word and starts_in_word:
            words -= 1  # same word continues across the buffer boundary
        chars += len(data)
        prev_ends_in_word = ends_in_word
    return WcResult(path=path, lines=lines, words=words, chars=chars)


def _wc_sleds(kernel, path: str, fd: int, bufsize: int,
              via_mmap: bool = False) -> WcResult:
    lines = words = chars = 0
    copy_tax = 0.0 if via_mmap else SLEDS_EXTRA_CPU_PER_BYTE
    #: chunk edges: offset -> (starts_in_word at offset, end offset,
    #: ends_in_word at end)
    edges: list[tuple[int, int, bool, bool]] = []
    for offset, data in read_sleds_order(kernel, fd, bufsize,
                                         via_mmap=via_mmap):
        kernel.charge_cpu(len(data) * (SCAN_CPU_PER_BYTE + copy_tax))
        newlines, nwords, starts_in_word, ends_in_word = _scan_chunk(data)
        lines += newlines
        words += nwords
        chars += len(data)
        if data:
            edges.append((offset, offset + len(data),
                          starts_in_word, ends_in_word))
    # merge: a word straddling two adjacent chunks was counted twice
    edges.sort()
    for (_, prev_end, _, prev_ends), (start, _, starts, _) in zip(
            edges, edges[1:]):
        if prev_end == start and prev_ends and starts:
            words -= 1
    return WcResult(path=path, lines=lines, words=words, chars=chars)
