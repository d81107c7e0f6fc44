"""The golden corpus: every recorded ``latgauge`` case gives the same
exit code, written file, stdout and stderr, byte for byte."""

import pytest

import golden

MANIFEST = golden.load()


def test_manifest_records_every_case():
    # golden.py --write rewrites the manifest from golden.CASES
    assert {case["name"]: case["argv"] for case in MANIFEST["cases"]} == golden.CASES


@pytest.mark.parametrize("case", MANIFEST["cases"], ids=lambda case: case["name"])
def test_case_replays_byte_for_byte(case, tmp_path):
    got = golden.run_case(case["argv"], tmp_path)
    lines = golden.mismatches(case["name"], case, got, MANIFEST["numpy"])
    assert not lines, "\n".join(lines)
