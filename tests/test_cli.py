"""Command-line surface: output schemas, golden catalog values, exit codes."""

import copy
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from germpack import DistanceSet, SearchBudget, best_string, find_winner, search
from germpack.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# golden outputs for the catalog of known best avoiding strings
BEST_GOLDEN = {
    "3,5@6": "111000",
    "3,5@8": "10101010",
    "1,3,4@7": "1010000",
    "2,3,5@7": "1100000",
    "2,3,6@9": "110001000",
    "2,3,7@10": "1100011000",
    "3,4,7@10": "1110000000",
    "1,2,6@7": "1001000",
    "1,2,9@10": "1001001000",
}


# the limits a child process runs the CLI under: 1.5 GB of address space,
# where some arguments below name 10**12-bit strings, and CPU seconds
LIMIT_AS, LIMIT_CPU = 1536 << 20, 20


def run_limited(*argv):
    """The finished child process that ran the CLI on `argv` under the
    limits above, set in the child only."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (LIMIT_AS, LIMIT_AS))
        resource.setrlimit(resource.RLIMIT_CPU, (LIMIT_CPU, LIMIT_CPU))

    return subprocess.run(
        [sys.executable, "-m", "germpack.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=limit,
        capture_output=True,
        text=True,
        timeout=120,
    )


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestWinnerCommand:
    def test_three_five(self, capsys):
        code, data = run_json(capsys, "winner", "--d", "3,5")
        assert code == 0
        assert data["winner"] == {"preperiod": "", "repetend": "10"}
        assert data["kind"] in ("RepeatableWindow", "SymmetricOffset")
        assert data["distances"] == [3, 5]

    def test_two_four_seven(self, capsys):
        code, data = run_json(capsys, "winner", "--d", "2,4,7")
        assert code == 0
        assert data["kind"] == "TwoBlockInduction"
        assert data["evidence"] == {"block_a": "110000", "block_b": "100100"}
        # canonical encoding of (110000)(100100)(100100)...
        assert data["winner"] == {"preperiod": "1100", "repetend": "001"}

    @pytest.mark.parametrize("bound", ["7", "1"])
    def test_window_budget_at_or_below_the_norm(self, capsys, bound):
        # SearchBudget accepts it; it used to end in find_repeatable_winner's
        # range error, and now the two-block search certifies the winner
        code, data = run_json(capsys, "winner", "--d", "2,4,7", "--m-max", bound)
        assert code == 0 and data["kind"] == "TwoBlockInduction"
        assert data["winner"] == {"preperiod": "1100", "repetend": "001"}

    def test_inconclusive_exit_code(self, capsys):
        code, data = run_json(
            capsys, "winner", "--d", "4,7,11", "--m-max", "16", "--block-max", "9"
        )
        assert code == 2
        assert data["status"] == "inconclusive"
        assert len(data["attempts"]) == 3

    def test_empty_distances(self, capsys):
        code, data = run_json(capsys, "winner", "--d", "")
        assert code == 0
        assert data["winner"] == {"preperiod": "", "repetend": "1"}

    @pytest.mark.parametrize(
        "bound", [("--m-max", "0"), ("--block-max", "0"), ("--block-max", "-3")]
    )
    def test_bounds_must_be_positive(self, capsys, bound):
        # a zero bound used to fall back to the default, a negative one to an
        # empty block range reported as inconclusive
        code = main(["winner", "--d", "7,9,12", *bound])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "positive integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "bound,limit", [(["--m-max", "4097"], 4096), (["--block-max", "2049"], 2048)]
    )
    def test_bounds_must_keep_the_evidence_verifiable(self, capsys, bound, limit):
        # certify refuses evidence past 4,096 bits, so the search may not emit it
        code = main(["winner", "--d", "7,9,12", *bound])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: ") and f"positive integer <= {limit}" in err


class TestBestCommand:
    @pytest.mark.parametrize("key", sorted(BEST_GOLDEN))
    def test_catalog_golden(self, capsys, key):
        dists, length = key.split("@")
        code, data = run_json(capsys, "best", "--d", dists, "--len", length, "--json")
        assert code == 0
        assert data["best"] == BEST_GOLDEN[key]

    def test_plain_output(self, capsys):
        code, out = run(capsys, "best", "--d", "3,5", "--len", "6")
        assert code == 0 and out.strip() == "111000"


class TestGreedyCommand:
    def test_detects_period(self, capsys):
        code, data = run_json(capsys, "greedy", "--d", "3,5", "--horizon", "24", "--json")
        assert code == 0
        assert data["string"] == "111000001110000011100000"
        assert data["detected"] == {"preperiod": "", "repetend": "11100000"}

    def test_reports_missing_detection(self, capsys):
        code, data = run_json(capsys, "greedy", "--d", "3,5", "--horizon", "3", "--json")
        assert code == 0 and data["detected"] is None

    def test_a_lone_large_distance(self, capsys):
        # {2**19} walks 2**19 residue classes as {1}, where its own shadows
        # passed the cap at step 2 (exit 1)
        code, data = run_json(capsys, "greedy", "--d", str(1 << 19), "--horizon", "3", "--json")
        assert code == 0 and data == {"string": "111", "detected": None}


class TestCompareCommand:
    def test_grandi(self, capsys):
        code, data = run_json(capsys, "compare", "--a", "|10", "--b", "0|10", "--json")
        assert code == 0
        assert data["order"] == "Greater"
        assert data["gap"] == {"order": 0, "value": "1/2"}

    def test_equal_sets(self, capsys):
        code, data = run_json(capsys, "compare", "--a", "|1010", "--b", "|10", "--json")
        assert code == 0
        assert data["order"] == "Equal" and data["gap"] is None

    # one pair per route: a density gap, a constant-term gap, and a tie of
    # both that only the cross numerator's t-expansion settles
    @pytest.mark.parametrize("a, b, order, gap_order, value", [
        ("|100", "0|01", "Less", -1, "-1/6"),
        ("|10", "0|10", "Greater", 0, "1/2"),
        ("1001|0", "0110|0", "Greater", 2, "2/1"),
    ])
    def test_golden_output_of_each_route(self, capsys, a, b, order, gap_order, value):
        assert run(capsys, "compare", "--a", a, "--b", b) == (
            0, f"{order}\ngap: {value} at t^{gap_order} (t = 1-q)\n")
        assert run(capsys, "compare", "--a", a, "--b", b, "--json") == (0, (
            '{\n  "gap": {\n    "order": %d,\n    "value": "%s"\n  },\n  "order": "%s"\n}\n'
            % (gap_order, value, order)))

    def test_runs_as_a_module(self, capsys):
        argv = ["compare", "--a", "1001|0", "--b", "0110|0", "--json"]
        proc = subprocess.run(
            [sys.executable, "-m", "germpack", *argv],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == run(capsys, *argv)


class TestValuationCommand:
    def test_evens(self, capsys):
        code, data = run_json(capsys, "valuation", "--set", "|10", "--json")
        assert code == 0
        assert data == {"preperiod": "", "repetend": "10", "density": "1/2", "a0": "1/4"}

    def test_rationals_never_print_as_floats(self, capsys):
        code, data = run_json(capsys, "valuation", "--set", "111|0", "--json")
        assert code == 0
        assert data["density"] == "0/1" and data["a0"] == "3/1"


class TestImproveCommand:
    def test_zero_string_improves(self, capsys):
        code, data = run_json(
            capsys, "improve", "--d", "3,5", "--w", "0" * 20, "--ell", "5", "--json"
        )
        assert code == 0
        assert data["changed"] and data["delta"] == "Greater"

    def test_fixpoint_reports_equal(self, capsys):
        code, data = run_json(
            capsys, "improve", "--d", "3,5", "--w", "01" * 10, "--ell", "5", "--json"
        )
        assert code == 0
        assert not data["changed"] and data["delta"] == "Equal"

    def test_a_clashing_string_is_an_error(self, capsys):
        # positions 0 and 3 lie 3 apart
        code = main(["improve", "--d", "3,5", "--w", "1001000000", "--ell", "5"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            1, "", "error: input string must avoid the distances\n")

    @pytest.mark.parametrize("ell", ["0", "-2", "2"])
    def test_bad_patch_length_is_an_error_on_a_short_string(self, capsys, ell):
        # no position fits a patch in four bits, yet the length is still checked
        code = main(["improve", "--d", "3,5", "--w", "0000", "--ell", ell])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: patch length must") and "Traceback" not in err

    @pytest.mark.parametrize("ell", ["1000000000000", "20000000000"])
    def test_a_patch_too_long_for_the_string_leaves_it_unchanged(self, ell):
        # no position fits the patch, so nothing of patch-length size is
        # built: a mask of 10**12 bits used to end in a MemoryError
        # traceback, and one of 2 * 10**10 bits passes the address-space limit
        proc = run_limited("improve", "--d", "3,5", "--w", "0" * 20, "--ell", ell, "--json")
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        data = json.loads(proc.stdout)
        assert data["result"] == "0" * 20 and data["delta"] == "Equal"


class TestCertifyCommand:
    def test_round_trip_every_emitted_certificate(self, capsys, tmp_path):
        for dists in ("3,5", "1,3,6,8", "1,2", "2,4,7", "2,4,13", ""):
            code, data = run_json(capsys, "winner", "--d", dists)
            assert code == 0
            path = tmp_path / "cert.json"
            path.write_text(json.dumps(data))
            code, verdict = run_json(capsys, "certify", "--file", str(path), "--json")
            assert code == 0 and verdict["valid"]

    def test_tampered_certificate_rejected(self, capsys, tmp_path):
        code, data = run_json(capsys, "winner", "--d", "3,5")
        data["winner"]["repetend"] = "01"
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        code, verdict = run_json(capsys, "certify", "--file", str(path), "--json")
        assert code == 1 and not verdict["valid"]

    @pytest.mark.parametrize(
        "dists,kind,evidence",
        [
            ("2,4,7", "TwoBlockInduction", {}),
            ("2,4,7", "TwoBlockInduction", {"block_a": 110000, "block_b": "100100"}),
            ("2,4,7", "TwoBlockInduction", {"block_a": "110000", "block_b": "1001"}),
            ("3,5", "RepeatableWindow", {"window": 5}),
            ("3,5", "RepeatableWindow", {"window": "10101010", "window_length": "8"}),
            ("3,5", "RepeatableWindow", {"window": "1", "window_length": True}),
            ("3,5", "SymmetricOffset", {"window": "10101010"}),
            ("3,5", "SymmetricOffset", {"offset": [8], "window": "10101010"}),
        ],
    )
    def test_malformed_evidence_is_invalid_not_a_crash(
        self, capsys, tmp_path, dists, kind, evidence
    ):
        code, data = run_json(capsys, "winner", "--d", dists)
        assert code == 0
        data.update(kind=kind, evidence=evidence)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        code, verdict = run_json(capsys, "certify", "--file", str(path), "--json")
        assert code == 1 and not verdict["valid"]

    @pytest.mark.parametrize("size", [1000, 2048])
    def test_blocks_up_to_the_cap_verify(self, capsys, tmp_path, size):
        # a {3,5} block pair of (10)^(size/2) each: the challenger walk used
        # to nest one generator per bit and end in a RecursionError traceback
        block = "10" * (size // 2)
        document = {
            "kind": "TwoBlockInduction",
            "distances": [3, 5],
            "winner": {"preperiod": "", "repetend": "10"},
            "evidence": {"block_a": block, "block_b": block},
        }
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(document))
        code, verdict = run_json(capsys, "certify", "--file", str(path), "--json")
        assert code == 0 and verdict["valid"] is True

    def test_missing_file_is_invalid_input(self, capsys):
        code = main(["certify", "--file", "/nonexistent/cert.json"])
        assert code == 1


# junk a mutation may put in place of any value
JUNK = (None, True, 0, 7, -1, 2.5, "", "x", "101", [], {}, [3, 5], ["1", "0"], {"a": 1})


def mutate(rng, document):
    """One random edit somewhere in the document: drop, retype, flip or resize."""
    containers = [document] if isinstance(document, (dict, list)) else []
    slots = []
    while containers:
        node = containers.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                containers.append(node[key])
    if not slots:
        return copy.deepcopy(rng.choice(JUNK))
    node, key = rng.choice(slots)
    value = node[key]
    action = rng.randrange(4)
    if action == 0:
        del node[key]
    elif action == 1 or isinstance(value, (type(None), bool, float, dict)):
        node[key] = copy.deepcopy(rng.choice(JUNK))
    elif isinstance(value, str) and value and action == 2:
        i = rng.randrange(len(value))
        node[key] = value[:i] + ("1" if value[i] == "0" else "0") + value[i + 1:]
    elif isinstance(value, str):
        cut = rng.randrange(len(value) + 1)
        grown = "".join(rng.choice("01") for _ in range(rng.randrange(1, 6)))
        node[key] = value[:cut] if rng.random() < 0.5 else value + grown
    elif isinstance(value, int):
        node[key] = rng.choice([value + 1, value - 1, 2 * value, 41, 10**6])
    else:  # a list
        value.append(rng.choice([1, 2, 9, 40, "3"]))
    return document


# a valid-looking {3,5} window of 64,000 bits: the growing kernel run would
# take time quadratic in its length to replay it
LONG_WINDOW_DOCUMENT = {
    "kind": "RepeatableWindow",
    "distances": [3, 5],
    "winner": {"preperiod": "", "repetend": "10"},
    "evidence": {"window_length": 64_000, "window": "10" * 32_000},
}


# distances 1..500,000, a 3.9 MB document
DENSE_DOCUMENT = {
    "kind": "TwoBlockInduction",
    "distances": list(range(1, 500_001)),
    "winner": {"preperiod": "", "repetend": "1"},
    "evidence": {"block_a": "1", "block_b": "1"},
}


class TestCertifyFuzz:
    @pytest.mark.parametrize("dists", ["3,5", "2,4,7", "1,2", "1,2,4"])
    def test_mutated_certificates_never_crash(self, capsys, tmp_path, dists):
        code, valid = run_json(capsys, "winner", "--d", dists)
        assert code == 0
        rng = random.Random(dists)
        path = tmp_path / "cert.json"
        verified = 0
        documents = []
        for _ in range(120):
            document = copy.deepcopy(valid)
            for _ in range(rng.randrange(1, 4)):
                document = mutate(rng, document)
            documents.append(document)
        for huge in (10**6, 3 * 10**8):  # every line-DP shadow becomes a huge int
            documents.append({**valid, "distances": valid["distances"] + [huge]})
        documents.append(LONG_WINDOW_DOCUMENT)
        documents.append({**LONG_WINDOW_DOCUMENT, "distances": valid["distances"]})
        for document in documents:
            path.write_text(json.dumps(document))
            code = main(["certify", "--file", str(path), "--json"])
            out, err = capsys.readouterr()
            assert code in (0, 1), document
            assert "Traceback" not in err
            if code == 0:
                verified += 1
                distances = DistanceSet(tuple(document["distances"]))
                found = find_winner(distances).certificate
                assert found is not None, document
                winner = json.loads(out)["winner"]
                assert winner == {
                    "preperiod": found.winner.preperiod,
                    "repetend": found.winner.repetend,
                }, document
        assert verified < len(documents)


class TestOracleCommand:
    def test_best(self, capsys):
        code, data = run_json(capsys, "oracle", "best", "--d", "3,5", "--len", "8", "--json")
        assert code == 0 and data["best"] == "10101010"

    def test_zero_length_exits_one_as_best_does(self, capsys):
        for argv in (["best"], ["oracle", "best"]):
            assert main([*argv, "--d", "3,5", "--len", "0"]) == 1
            err = capsys.readouterr().err
            assert err == "error: length must be a positive integer, got 0\n"

    def test_periodic(self, capsys):
        code, data = run_json(
            capsys, "oracle", "periodic", "--d", "3,5", "--max-period", "8", "--json"
        )
        assert code == 0
        assert data["best"] == {"preperiod": "", "repetend": "10"}


class TestErrors:
    def test_bad_distances(self, capsys):
        assert main(["best", "--d", "3,x", "--len", "4"]) == 1
        assert main(["best", "--d", "0", "--len", "4"]) == 1

    def test_bad_set_text(self, capsys):
        assert main(["valuation", "--set", "10"]) == 1
        assert main(["compare", "--a", "|10", "--b", "|"]) == 1

    def test_bad_usage_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["best", "--d", "3,5"])  # missing --len
        assert exc.value.code == 1

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "kind,evidence,winner",
        [
            ("RepeatableWindow", {"window": "1" + "0" * 79}, ("", "1" + "0" * 79)),
            (
                "TwoBlockInduction",
                {"block_a": "1" + "0" * 34, "block_b": "1" + "0" * 34},
                ("", "1" + "0" * 34),
            ),
        ],
    )
    def test_certificate_over_the_state_cap_is_an_error(
        self, capsys, tmp_path, kind, evidence, winner
    ):
        # little is forbidden below distance 40, so the line DP holds
        # thousands of shadows within a few dozen steps and stops at the cap.
        # An 80-bit window keeps every bit live for 40 steps, so its
        # one-length run meets the cap too.  Under {40} alone both documents
        # are decided (invalid): its 40 residue classes are runs of {1}
        def certify(distances):
            document = {
                "kind": kind,
                "distances": distances,
                "winner": {"preperiod": winner[0], "repetend": winner[1]},
                "evidence": evidence,
            }
            path = tmp_path / "cert.json"
            path.write_text(json.dumps(document))
            return main(["certify", "--file", str(path)])

        for distances in ([1, 40], [39, 40]):
            assert certify(distances) == 1
            out, err = capsys.readouterr()
            listed = ",".join(map(str, distances))
            assert err.startswith(f"error: distances {{{listed}}} need ") and not out
            assert "over the cap" in err and "Traceback" not in err
        assert certify([40]) == 1
        out, err = capsys.readouterr()
        assert out == "certificate INVALID\n" and not err

    def test_a_scaled_set_over_the_cap_names_its_own_distances(self, capsys, tmp_path):
        # {2,80} is solved on {1,40}, whose 80-bit run meets the shadow cap;
        # the error names the distances of the document
        window = "1" + "0" * 159
        document = {
            "kind": "RepeatableWindow",
            "distances": [2, 80],
            "winner": {"preperiod": "", "repetend": window},
            "evidence": {"window": window},
        }
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(document))
        assert main(["certify", "--file", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: distances {2,80} need ") and "over the cap" in err

    def test_a_challenger_walk_past_its_cap_is_an_error(self, capsys, tmp_path, monkeypatch):
        # under {2,10,12} the halves of the germ-best 172 bits pass every
        # check before the walk, and B is not the germ-best 86 bits, so the
        # walk runs: over 2,000,000 nodes.  Past the cap (lowered here, so
        # the test is quick) verify raises and the search propagates it
        distances = DistanceSet.of(2, 10, 12)
        doubled = best_string(distances, 172)
        document = {
            "kind": "TwoBlockInduction",
            "distances": list(distances),
            "winner": {"preperiod": doubled[:86], "repetend": doubled[86:]},
            "evidence": {"block_a": doubled[:86], "block_b": doubled[86:]},
        }
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(document))
        monkeypatch.setattr(search, "MAX_CHALLENGER_NODES", 10_000)
        assert main(["certify", "--file", str(path)]) == 1
        out, err = capsys.readouterr()
        assert not out
        assert err == "error: the two-block challenger walk is over the cap of 10000 nodes\n"
        with pytest.raises(ValueError, match="walk is over the cap of 10000 nodes"):
            find_winner(distances, SearchBudget(max_window=1, max_block=96))

    def test_a_lone_large_distance_window_is_decided(self, capsys, tmp_path):
        # a 41-bit window under {40}: the one-length run steps the 40
        # residue classes mod 40 as runs of {1}, of 2 positions and of 1, and
        # is decided (the best window is "1" * 40 + "0"), where a run keeping
        # every bit live stops at the cap at length 15
        window = "1" + "0" * 40
        document = {
            "kind": "RepeatableWindow",
            "distances": [40],
            "winner": {"preperiod": "", "repetend": window},
            "evidence": {"window": window},
        }
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(document))
        assert main(["certify", "--file", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "certificate INVALID\n" and err == ""

    @pytest.mark.parametrize("blocks", [3, 4])
    def test_two_blocks_under_a_lone_distance_skip_the_challenger_walk(
        self, capsys, tmp_path, monkeypatch, blocks
    ):
        # B = (1^12 0^12)^k is the germ-best string of its length under {12},
        # so no R beats it; the walk over R would visit 4**12 candidates at
        # 72 bits and 5**12 at 96 before answering
        def walk(*args):
            raise AssertionError("the challenger walk started")

        monkeypatch.setattr(search, "_entry", walk)  # read only past the shortcut
        block = ("1" * 12 + "0" * 12) * blocks
        document = {
            "kind": "TwoBlockInduction",
            "distances": [12],
            "winner": {"preperiod": "", "repetend": "1" * 12 + "0" * 12},
            "evidence": {"block_a": block, "block_b": block},
        }
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(document))
        code, verdict = run_json(capsys, "certify", "--file", str(path), "--json")
        assert code == 0 and verdict["valid"] is True

    def test_a_huge_distance_in_the_cap_error_is_brief(self, capsys, tmp_path):
        # 10**4000 has 4,001 digits, and the error named it twice (8,111
        # bytes); past 64 bits a number is named by its bit length
        document = {
            "kind": "TwoBlockInduction",
            "distances": [3, 10**4000],
            "winner": {"preperiod": "", "repetend": "1"},
            "evidence": {"block_a": "1", "block_b": "1"},
        }
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(document))
        assert main(["certify", "--file", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: distances {3,<13288-bit number>} need up to 2 line-DP shadows of "
            "<13288-bit number> bits at length 1, over the cap of 1048576 shadow bits\n"
        )

    @pytest.mark.parametrize(
        "document,bits",
        [
            (LONG_WINDOW_DOCUMENT, 64_000),
            ({**LONG_WINDOW_DOCUMENT, "evidence": {"window": "10" * 2049}}, 4098),
            (
                {
                    "kind": "TwoBlockInduction",
                    "distances": [3, 5],
                    "winner": {"preperiod": "", "repetend": "10"},
                    "evidence": {"block_a": "10" * 1025, "block_b": "10" * 1025},
                },
                4100,
            ),
        ],
    )
    def test_evidence_over_the_length_cap_is_an_error(self, capsys, tmp_path, document, bits):
        # refused before any kernel work: a window, or a block pair, costs
        # time quadratic in its length to replay
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(document))
        assert main(["certify", "--file", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bits} bits of evidence are over the cap of 4096\n"

    def test_a_symmetric_window_over_the_length_cap_is_an_error(self, capsys):
        # offset 5,001: the search refuses the window its own verify would
        assert main(["winner", "--d", "1,5000"]) == 1
        err = capsys.readouterr().err
        assert err == "error: 5001 bits of evidence are over the cap of 4096\n"

    def test_a_dense_distance_list_is_refused_briefly(self, capsys, tmp_path):
        # the window model is built in linear time and the cap's error names
        # a few of the distances, where it took seconds and wrote every
        # distance to stderr
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(DENSE_DOCUMENT))
        assert main(["certify", "--file", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: distances {1,2,...,500000} (500000 in all) need ")
        assert len(err) < 1024 and "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000 + "]" * 100_000,  # deeper than the JSON reader recurses
            json.dumps({**LONG_WINDOW_DOCUMENT, "evidence": "ab"}),
            json.dumps({**LONG_WINDOW_DOCUMENT, "evidence": ["ab"]}),  # not read as {"a": "b"}
        ],
        ids=["deep", "evidence-str", "evidence-list"],
    )
    def test_a_malformed_document_is_an_error(self, capsys, tmp_path, text):
        path = tmp_path / "cert.json"
        path.write_text(text)
        assert main(["certify", "--file", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed certificate: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "norm,block",
        [(300_000_000, 10), (1_000_000_000, 1), (600_000, None), (100_000, None)],
    )
    def test_a_huge_norm_is_refused_before_it_exhausts_memory(self, tmp_path, norm, block):
        # each window of the line DP, and the window is_avoiding checks a
        # periodic set on, is a norm-bit int; under a 1.5 GB address-space
        # limit both used to end in a MemoryError traceback, as greedy did
        # (block None) when it kept a norm-character window per step, and
        # then one norm-bit window per step past norm.  Greedy walks a lone
        # distance on its residue classes, which it answers, so its case
        # adds the distance 1
        named = str(norm)
        if block is None:
            named = f"1,{norm}"
            argv = ["greedy", "--d", named, "--horizon", str(norm + 100_000)]
        else:
            block_a, block_b = "1" + "0" * (block - 1), "0" * block
            document = {
                "kind": "TwoBlockInduction",
                "distances": [norm],
                "winner": {"preperiod": block_a, "repetend": "0"},
                "evidence": {"block_a": block_a, "block_b": block_b},
            }
            path = tmp_path / "cert.json"
            path.write_text(json.dumps(document))
            argv = ["certify", "--file", str(path)]
        proc = run_limited(*argv)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: distances {{{named}}} need ")
        assert "over the cap" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv,err",
        [(["best", "--d", "3,5", "--len", "1000000000000"],
          "error: length 1000000000000 is over the cap of 8192\n"),
         (["greedy", "--d", "3,5", "--horizon", "1000000000000"], "error: out of memory\n")],
        ids=["best", "greedy"],
    )
    def test_a_length_too_long_to_hold_is_an_error(self, argv, err):
        # 10**12 bits pass the address-space limit: the patch run's length
        # mask and the greedy string used to end in a MemoryError traceback.
        # best_string now refuses lengths past MAX_STRING_BITS first; greedy
        # is linear and has no cap
        proc = run_limited(*argv)
        assert proc.returncode == 1 and proc.stderr == err

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["winner", "--d", "1,1000000"], 1),
            (["best", "--d", "3,5", "--len", str(10**7)], 1),
            (["greedy", "--d", "3,5", "--horizon", str(10**12)], 1),
            (["improve", "--d", "3,5", "--w", "0" * 20, "--ell", str(10**12)], 0),
            (["oracle", "best", "--d", "3,5", "--len", str(10**6)], 1),
            (["oracle", "periodic", "--d", "3,5", "--max-period", str(10**6)], 1),
            (["certify", "--file", "dense.json"], 1),
        ],
        ids=["winner", "best", "greedy", "improve", "oracle-best", "oracle-periodic", "certify"],
    )
    def test_every_command_bounds_an_outsized_argument(self, tmp_path, argv, code):
        # each command under the child's limits ends with its documented exit
        # code: 1 past a cap (greedy: out of memory), 0 for a patch that fits
        # nowhere in the string; never a traceback, never killed by a limit
        (tmp_path / "dense.json").write_text(json.dumps(DENSE_DOCUMENT))
        argv = [str(tmp_path / arg) if arg == "dense.json" else arg for arg in argv]
        proc = run_limited(*argv)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
