"""Vectorised kernels for the batched device-math fast path.

The kernel's fault pipeline (:meth:`Kernel._fault_in`) wants to charge a
*run* of sequential page faults without running O(pages) Python: the
per-device batch kernels (``Device._batch_page_math``) compute whole-run
duration and component arrays in one numpy pass, and the helpers here fold
them into the same running sums the scalar path maintains.

Exact equality is the contract, not approximation: every accumulator the
scalar path advances with a chain of ``total += x_i`` is advanced here with
:func:`fold`, a *sequential* left fold (``numpy.add.accumulate``), which
reproduces the scalar IEEE-754 addition order bit for bit.  ``numpy.sum``
would not — it sums pairwise.

The module is also the kill switch.  The fast path is off when

* numpy is unavailable (the import is guarded so the library still works
  scalar-only),
* the ``SLEDS_NO_VECTOR`` environment variable is set to anything other
  than ``0`` or the empty string (read once at import), or
* a test called :func:`set_enabled` with ``False``.

``Device.read_run`` declines while :func:`enabled` is false and every
caller then reads page by page, so flipping the switch must never change
a virtual-time result — only host speed.
"""

from __future__ import annotations

import os

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a hard dep today
    _np = None

#: environment kill switch, read once at import
NO_VECTOR_ENV = "SLEDS_NO_VECTOR"

_env_enabled = os.environ.get(NO_VECTOR_ENV, "") in ("", "0")

#: test override: None defers to the environment
_forced: bool | None = None


def enabled() -> bool:
    """Whether the vectorised fast path may be used."""
    if _np is None:
        return False
    if _forced is not None:
        return _forced
    return _env_enabled


def set_enabled(value: bool | None) -> None:
    """Test hook: force the fast path on/off, or ``None`` to defer to the
    ``SLEDS_NO_VECTOR`` environment variable again."""
    global _forced
    _forced = value


def fold(start: float, values) -> float:
    """``start + v[0] + v[1] + ...`` in strict left-to-right order.

    Bit-identical to the scalar accumulation loop: ``add.accumulate`` is
    a sequential scan (each partial is the previous partial plus one
    element), unlike ``numpy.sum``'s pairwise reduction.
    """
    n = len(values)
    if n == 0:
        return start
    arr = _np.empty(n + 1)
    arr[0] = start
    arr[1:] = values
    return float(_np.add.accumulate(arr)[-1])
