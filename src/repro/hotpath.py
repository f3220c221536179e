"""The one switch for the host-side hot-path caches.

The simulator carries three *host-side* caches that make the
interpreter fast without changing a single architectural outcome:

* the **decode cache** (:mod:`repro.arch.cpu`): retired instructions are
  dispatched through a table of bound handlers instead of re-walking the
  MMU on every fetch;
* the **translation cache** (:mod:`repro.mem.mmu`): successful stage-1 +
  stage-2 translations are memoised per (page, access, EL);
* the **cipher memo** (:mod:`repro.qarma.qarma64`): pure memoisation of
  QARMA-64 encryptions per cipher instance.  Ciphers are keyed by key
  *value*, so this is also the only memo PAC MACs need: a key-register
  write simply selects another cipher.

The decode and translation caches are invalidated by one process-wide
generation counter, :data:`repro.mem.phys.GENERATION`, which every
mapping, stage-2 and code mutation bumps.

Every cache is architecturally invisible — simulated cycle counts,
retired-instruction streams, fault logs and PAC values are bit-identical
with the caches on or off; ``tests/test_diff_cached.py`` enforces that
differentially.  Components read :func:`caches_enabled` once, at
construction, so building a system inside :func:`disabled_caches` yields
a fully cache-free simulator (the reference behaviour the differential
tests and ``python -m repro perf`` compare against).
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["caches_enabled", "disabled_caches"]

_enabled = True


def caches_enabled():
    """Do components built now get their host-side caches?"""
    return _enabled


@contextmanager
def disabled_caches():
    """Context manager: components built inside run fully cache-free."""
    global _enabled
    saved = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = saved
