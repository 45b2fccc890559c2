"""The determinism contract: fixed CLI runs print the lines committed in
`tests/golden/`, byte for byte once ``wall_time_s`` is removed.

`tests/golden/regen.py` holds the cases and rewrites the files; a mismatch
names the first line that differs.
"""

from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_one_golden_file_per_case(golden_cases):
    assert sorted(golden_cases.CASES) == sorted(p.stem for p in GOLDEN.glob("*.jsonl"))


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.jsonl")))
def test_report_equals_golden(name, golden_cases, cli_output):
    expected = (GOLDEN / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
    got = golden_cases.golden_lines(cli_output(tuple(golden_cases.CASES[name]))[1])
    for i, (want, have) in enumerate(zip(expected, got), start=1):
        assert have == want, f"{name}.jsonl line {i} differs:\n  expected {want}\n  got      {have}"
    assert len(got) == len(expected), f"{name}: {len(got)} lines, the golden file has {len(expected)}"
