"""Every benchmark job against the committed reference outputs.

Each job key of ``perfbench/reference.json`` is a chronon command line; it is
run in-process and judged by the benchmark's own oracle (exit status, check
names and statuses, physical values), so a moved verdict or value fails here
before it fails the benchmark.
"""

import os
import sys

import pytest

from chronon.cli import main

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import oracle  # noqa: E402

REFERENCE = oracle.load_reference()


@pytest.mark.parametrize("key", sorted(REFERENCE))
def test_job_matches_reference(key, tmp_path):
    rc = main(key.split() + ["--output-dir", str(tmp_path)])
    assert oracle.compare(REFERENCE[key], oracle.observe(str(tmp_path), rc)) == []
