"""Pausing the cyclic garbage collector around bulk builds."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause cyclic GC while a bulk build allocates long-lived data.

    A bulk build (a world decode, a scan plan) allocates a container or
    more per site or domain and frees almost nothing, so collector
    passes over the growing heap are pure overhead.  Reference counting
    still frees temporaries; nested use is a no-op.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
