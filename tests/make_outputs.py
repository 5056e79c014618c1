"""Record every search output the tier-1 suite pins in tests/data/outputs.json.

For each distance set: the search's attempts, its certificate as JSON (null
when the search is inconclusive), and the verdict of a verify of that
certificate after a JSON round trip, as `germpack certify` reads it (null
with no certificate).  Three sections, keyed by distance set:

* census: every D with one to three distances and norm <= 12, default budget;
* larger_budget: the census sets the default budget leaves inconclusive, at
  max_window = 24*norm and max_block = 4*norm;
* two_block_pool: the benchmark's `TWO_BLOCK_POOL`, with its block budgets.

Each entry records the budget it ran under, so `test_outputs.py` replays the
file's own keys.  Run it only on a commit whose outputs are known good; a
change that alters outputs on purpose regenerates the file and names the
changed keys:

    PYTHONPATH=src python3 tests/make_outputs.py
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

from germpack import Certificate, DistanceSet, SearchBudget, find_winner

HERE = Path(__file__).resolve().parent
OUTPUTS_FILE = HERE / "data" / "outputs.json"


def census_sets() -> list[DistanceSet]:
    """Every distance set with one to three distances and norm <= 12 (298)."""
    return [
        DistanceSet(combo)
        for size in (1, 2, 3)
        for combo in itertools.combinations(range(1, 13), size)
    ]


def search_output(distances: DistanceSet, max_window=None, max_block=None) -> dict:
    """The attempts, certificate and cold verify verdict of one search."""
    result = find_winner(distances, SearchBudget(max_window, max_block))
    document = verified = None
    if result.certificate is not None:
        document = result.certificate.to_json_dict()
        verified = Certificate.from_json_dict(json.loads(json.dumps(document))).verify()
    return {
        "budget": [max_window, max_block],
        "attempts": list(result.attempts),
        "certificate": document,
        "verified": verified,
    }


def dumps(outputs: dict) -> str:
    """The file's exact text, so a comparison is byte for byte."""
    return json.dumps(outputs, indent=1, sort_keys=True) + "\n"


def collect() -> dict:
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    from workloads import TWO_BLOCK_POOL

    census = {d.to_text(): search_output(d) for d in census_sets()}
    larger = {
        d.to_text(): search_output(d, 24 * d.norm, 4 * d.norm)
        for d in census_sets()
        if census[d.to_text()]["certificate"] is None
    }
    pool = {
        DistanceSet(d).to_text(): search_output(DistanceSet(d), None, block)
        for d, block in TWO_BLOCK_POOL
    }
    return {"census": census, "larger_budget": larger, "two_block_pool": pool}


def main() -> None:
    OUTPUTS_FILE.parent.mkdir(exist_ok=True)
    OUTPUTS_FILE.write_text(dumps(collect()), encoding="utf-8")


if __name__ == "__main__":
    main()
