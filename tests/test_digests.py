"""Bitwise record: every reference case of tools/record_digests.py still gives
the recorded result digests, seed by seed.

The digests hold on the environment they were recorded on. Elsewhere the
test cannot judge the bits, and skips with the difference as its reason.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "record_digests", Path(__file__).resolve().parent.parent / "tools" / "record_digests.py"
)
record_digests = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(record_digests)

RECORDED = json.loads(record_digests.DIGESTS.read_text(encoding="utf-8"))


def test_cases_match_the_record():
    assert sorted(RECORDED["cases"]) == sorted(record_digests.CASES)


@pytest.mark.parametrize("case", sorted(record_digests.CASES))
def test_digests(case):
    here = record_digests.fingerprint()
    differ = {
        key: f"recorded {RECORDED['environment'].get(key)!r}, here {here.get(key)!r}"
        for key in sorted(set(here) | set(RECORDED["environment"]))
        if here.get(key) != RECORDED["environment"].get(key)
    }
    if differ:
        pytest.skip(f"digests recorded on another environment: {differ}")
    assert record_digests.case_digests(record_digests.CASES[case]) == RECORDED["cases"][case]
