"""Hypothesis profiles for the suite.

Without ``HYPOTHESIS_PROFILE`` Hypothesis's own default profile is in
force.  ``HYPOTHESIS_PROFILE=ci`` loads ``ci``: a larger, randomized
budget for the property tests that take their budget from the loaded
profile (the per-world ratio equivalence, the FD chase decision on
relational and XML worlds, pruned against unpruned search and the pruned
pattern counts in ``core/test_patterns.py``, the deficit bound and the
kept MVD count in ``core/test_pruning.py``).
"""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1500, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
