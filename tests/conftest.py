"""Hypothesis profiles for the suite, and the rule that every strict pin names its owner.

``tier1``, the default, derandomizes every property: each run draws the
same examples, so a run passes or fails on the code alone and a rare
counterexample cannot surface in one run and then replay from
``.hypothesis/``.  ``explore`` draws at random (and keeps a found
counterexample in ``.hypothesis/``); select it with
``pytest --hypothesis-profile=explore``.  Each test's own ``max_examples``
holds in both.

A strict expected failure pins an open defect.  Its reason names the
ROADMAP item that owns the mend, as ``item <n>``; collection stops with a
usage error naming every strict pin whose reason does not.
"""

import re

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile("explore", deadline=None)
settings.load_profile("tier1")

_OWNER = re.compile(r"\bitem \d+\b")


def pytest_collection_modifyitems(config, items):
    strict = config.getini("xfail_strict")
    unowned = [
        item.nodeid
        for item in items
        for mark in item.iter_markers("xfail")
        if mark.kwargs.get("strict", strict) and not _OWNER.search(mark.kwargs.get("reason", ""))
    ]
    if unowned:
        raise pytest.UsageError("strict pins that name no owning item (item <n>): " + ", ".join(unowned))
