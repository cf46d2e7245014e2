"""Hypothesis profiles for the suite, and a small address space for it.

Without ``HYPOTHESIS_PROFILE`` Hypothesis's own default profile is in
force.  ``HYPOTHESIS_PROFILE=ci`` loads ``ci``: a larger, randomized
budget for the property tests that take their budget from the loaded
profile (the per-world ratio equivalence, the FD chase decision on
relational and XML worlds, pruned against unpruned search and the pruned
pattern counts in ``core/test_patterns.py``, the deficit bound and the
kept MVD count in ``core/test_pruning.py``).

On glibc the test process keeps one malloc arena.  By default a thread
that allocates under contention gets an arena of its own, and each one
stays reserved (64 MB of address space) for the life of the process: by
the process-pool tests the suite's process held ~295 MB of address
space, two thirds of it such reservations.  Under an address-space limit
(``ulimit -v``) near that size, a thread that ``ProcessPoolExecutor``
starts internally could fail to start, and the futures it should have
fed then waited forever.  With one arena the process stays far below
that; forked pool workers inherit the setting.
"""

import ctypes
import os
import sys

from hypothesis import settings

settings.register_profile("ci", max_examples=1500, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

#: glibc's ``mallopt`` parameter for the arena cap (``<malloc.h>``).
M_ARENA_MAX = -8

if sys.platform.startswith("linux"):
    try:
        ctypes.CDLL(None).mallopt(M_ARENA_MAX, 1)
    except (AttributeError, OSError):
        pass  # not glibc: nothing to cap
