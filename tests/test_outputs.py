"""Every pinned search output, replayed byte for byte.

tests/data/outputs.json holds, per distance set and budget, the attempts,
the certificate and its verify verdict (`make_outputs.py` writes it).  Any
change to an evidence bit, an attempt's text or a verdict fails here.
"""

from __future__ import annotations

import json

from germpack import DistanceSet
from make_outputs import OUTPUTS_FILE, census_sets, dumps, search_output


def test_every_output_matches_the_pinned_file():
    text = OUTPUTS_FILE.read_text(encoding="utf-8")
    pinned = json.loads(text)
    assert list(pinned["census"]) == sorted(d.to_text() for d in census_sets())
    assert len(pinned["larger_budget"]) == 31 and len(pinned["two_block_pool"]) == 11
    replayed = {
        section: {
            key: search_output(DistanceSet.from_text(key), *entry["budget"])
            for key, entry in entries.items()
        }
        for section, entries in pinned.items()
    }
    assert dumps(replayed) == text
