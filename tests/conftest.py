"""Hypothesis profiles for the suite.

``tier1``, the default, derandomizes every property: each run draws the
same examples, so a run passes or fails on the code alone and a rare
counterexample cannot surface in one run and then replay from
``.hypothesis/``.  ``explore`` draws at random (and keeps a found
counterexample in ``.hypothesis/``); select it with
``pytest --hypothesis-profile=explore``.  Each test's own ``max_examples``
holds in both.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile("explore", deadline=None)
settings.load_profile("tier1")
