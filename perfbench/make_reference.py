"""Record the reference outputs the benchmark checks against.

Runs every census set and every two-block case once and writes, per
distance set, the certificate kind and canonical winner text ("inconclusive"
and null when the search finds nothing).  Run it only on a commit whose
outputs are known good; the benchmark then fails on any difference:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from germpack import DistanceSet, SearchBudget, find_winner  # noqa: E402

import workloads  # noqa: E402


def _outcome(distances, budget) -> list:
    result = find_winner(distances, budget)
    if result.certificate is None:
        return ["inconclusive", None]
    return [result.certificate.kind, result.certificate.winner.to_text()]


def main() -> None:
    reference = {
        "census": {
            d.to_text(): _outcome(d, SearchBudget()) for d in workloads.census_sets()
        },
        "two_block": {
            DistanceSet(d).to_text(): _outcome(DistanceSet(d), SearchBudget(max_block=block))
            for d, block in workloads.TWO_BLOCK_POOL
        },
    }
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
