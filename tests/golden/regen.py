"""Golden reports: the expected JSON-lines output of fixed CLI runs, with
the summary's ``wall_time_s`` removed, one ``<case>.jsonl`` file per run.

    PYTHONPATH=src python tests/golden/regen.py   # from the root of a checkout

rewrites every file from the current code.  `tests/test_golden.py` runs the
same cases and compares line by line; a change that moves output on purpose
regenerates the files and says which lines moved, and why.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
SCENARIOS = GOLDEN.parents[1] / "scenarios"

CASES = {
    **{f"verify_all_seed{seed}": ["verify", "all", "--seed", str(seed)] for seed in (7, 11, 12345)},
    **{f"verify_node_truncation{n}": ["verify", "node", "--truncation", str(n)] for n in (128, 512)},
    **{f"scenario_{path.stem}": [json.loads(path.read_text(encoding="utf-8"))["command"], str(path)]
       for path in sorted(SCENARIOS.glob("*.json"))},
}


def run(argv) -> tuple:
    """``(exit code, stdout)`` of ``hardyglue <argv>``, run in-process."""
    from hardyglue.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def golden_lines(stdout: str) -> list:
    """The lines of ``stdout``, each with ``wall_time_s`` removed."""
    lines = []
    for line in stdout.splitlines():
        record = json.loads(line)
        record.pop("wall_time_s", None)
        lines.append(json.dumps(record, sort_keys=True, allow_nan=False))
    return lines


def main() -> int:
    for name, argv in CASES.items():
        lines = golden_lines(run(argv)[1])
        (GOLDEN / f"{name}.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {name}.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main())
