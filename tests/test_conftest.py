"""The suite's own rule, run on a planted test file: every strict pin names its owning ROADMAP item."""

import os
import re
import shutil
import subprocess
import sys

PLANTED = '''import pytest


@pytest.mark.xfail(reason="open: the ini makes this strict, and it names no owner")
def test_unowned_by_default():
    assert False


@pytest.mark.xfail(strict=True, reason="F6: items 32 is no owner")
def test_unowned_strict():
    assert False


@pytest.mark.xfail(strict=True, reason="item 32: F6")
def test_owned():
    assert False


@pytest.mark.xfail(strict=False, reason="not strict, so it needs no owner")
def test_not_strict():
    assert False
'''


def test_a_strict_pin_without_its_item_stops_collection(tmp_path):
    shutil.copy(os.path.join(os.path.dirname(__file__), "conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "pytest.ini").write_text("[pytest]\nxfail_strict = true\n", encoding="utf-8")
    (tmp_path / "test_planted.py").write_text(PLANTED, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 4, done.stdout + done.stderr  # pytest's usage-error exit
    named = re.search(r"name no owning item \(item <n>\): (.*)", done.stderr)
    assert named and named.group(1).split(", ") == [
        "test_planted.py::test_unowned_by_default", "test_planted.py::test_unowned_strict",
    ], done.stderr
