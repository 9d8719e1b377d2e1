"""Sequential readahead window tracking, one instance per open file.

Linux 2.2 grew a per-file readahead window on detected sequential access and
collapsed it on random access.  The model matters for SLEDs results in two
ways: it sets the *cluster size* of device I/O (amortising per-request
latency over multi-page transfers, without which a 128 MB NFS scan would
cost 32k round trips), and it means the without-SLEDs baseline is not
strawman-slow — its linear scans stream at full device bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ReadaheadWindow:
    """Adaptive readahead state for one open file."""

    min_pages: int = 4
    max_pages: int = 16
    #: cumulative window doublings / collapses (observability: a high
    #: collapse count on a supposedly sequential workload means the access
    #: pattern defeats the readahead heuristic)
    grows: int = 0
    collapses: int = 0
    _window: int = 0
    _next_expected: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.min_pages <= self.max_pages:
            raise ValueError(
                f"need 0 < min_pages <= max_pages: "
                f"{self.min_pages}, {self.max_pages}")
        self._window = self.min_pages

    @property
    def window_pages(self) -> int:
        """Current readahead window size in pages."""
        return self._window

    def advise(self, page_index: int) -> int:
        """Record an access to ``page_index``; return the cluster size in
        pages the kernel should fetch on a miss at this page.

        Sequential accesses double the window up to ``max_pages``; a
        non-sequential access collapses it back to ``min_pages``.
        """
        if page_index < 0:
            raise ValueError(f"negative page index: {page_index}")
        if self._next_expected is not None and page_index == self._next_expected:
            grown = min(self.max_pages, self._window * 2)
            if grown > self._window:
                self.grows += 1
            self._window = grown
        elif self._next_expected is not None and page_index != self._next_expected:
            if self._window > self.min_pages:
                self.collapses += 1
            self._window = self.min_pages
        self._next_expected = page_index + 1
        return self._window

    def advise_run(self, start: int, npages: int) -> int:
        """:meth:`advise` for each page of ``[start, start + npages)`` in
        order, in O(log ``max_pages``); returns the last page's window.

        Only the first page can be non-sequential.  Every later page is
        the expected one, and each such step doubles the window (counting
        a grow) until it reaches ``max_pages``.
        """
        if start < 0:
            raise ValueError(f"negative page index: {start}")
        window = self._window
        steps = npages - 1
        if self._next_expected is not None:
            if start == self._next_expected:
                steps = npages
            else:
                if window > self.min_pages:
                    self.collapses += 1
                window = self.min_pages
        max_pages = self.max_pages
        while steps > 0 and window < max_pages:
            window = min(max_pages, window * 2)
            self.grows += 1
            steps -= 1
        self._window = window
        self._next_expected = start + npages
        return window

    def reset(self) -> None:
        """Collapse the window (e.g. after an lseek)."""
        self._window = self.min_pages
        self._next_expected = None

    def state(self) -> tuple[int, int | None, int, int]:
        """Snapshot ``(window, next_expected, grows, collapses)`` — lets
        tests pin that an operation left the heuristic untouched."""
        return (self._window, self._next_expected, self.grows, self.collapses)
