"""Mutation gate: each seeded mutant of src/ must fail the tests named to kill it.

    python tests/mutants.py

A mutant names a file under src/germpack, an exact text that must occur
there once, its replacement, and the test ids expected to kill it.  The
script copies src/, tests/ and pyproject.toml to a temporary directory, runs
every named test there unmutated (they must pass), then applies each mutant
in turn and runs its tests for up to TIMEOUT_S seconds.  A mutant is killed
when its tests fail and timed out when they do not finish; it survives when
they pass.  Exit status 0 when no mutant survives, 1 when one does, 2 when an
anchor is not found exactly once or the unmutated tests fail.  Stdlib only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
GERMS, SETS = "tests/test_germs.py", "tests/test_sets.py"
TIMEOUT_S = 120  # per mutant; the slowest named test takes about 2 s


class Mutant(NamedTuple):
    file: str
    text: str
    replacement: str
    killers: tuple[str, ...]


MUTANTS = [
    # germ arithmetic: the polynomial order, bit decoding and the closed forms
    Mutant("germs.py", "return GREATER if gap > 0 else LESS", "return GREATER if gap < 0 else LESS",
           (f"{GERMS}::TestPolyGermCompare::test_run_beats_spread",)),
    Mutant("germs.py", "gap = sum(a) - sum(b) or _sums(b)[1] - _sums(a)[1]",
           "gap = sum(a) - sum(b) or _sums(a)[1] - _sums(b)[1]",
           (f"{GERMS}::TestPolyGermCompare::test_count_decides_first",)),
    Mutant("germs.py",
           "return _term_sign(_lowest_t_term(list(starmap(sub, zip_longest(a, b, fillvalue=0)))))",
           "return EQUAL", (f"{GERMS}::TestPolyGermCompare::test_matches_the_lowest_t_term",)),
    Mutant("germs.py", 'if type(bits) is str and not bits.strip("01"):',
           'if type(bits) is str and not bits.strip("012"):',
           (f"{GERMS}::TestIntPolynomial::test_bits_must_be_zeros_and_ones[012]",)),
    Mutant("germs.py", 'return cls(bits.rstrip("0").encode().translate(_BIT_VALUES))',
           'return cls(bits.rstrip("0").encode())',
           (f"{GERMS}::TestIntPolynomial::test_from_bits",)),
    Mutant("germs.py", "{int}.issuperset(map(type, c))", "{int, bool}.issuperset(map(type, c))",
           (f"{GERMS}::TestIntPolynomial::test_coefficients_must_be_ints[coeffs3]",)),
    Mutant("germs.py", "return sum(c), sum(map(mul, range(len(c)), c))",
           "return sum(c), sum(map(mul, range(1, len(c) + 1), c))",
           (f"{SETS}::TestValuation::test_arithmetic_progressions",)),
    # the same values, with one Fraction built
    Mutant("germs.py", "return -1, c, pf * pg", "return -1, Fraction(c, pf * pg), 1",
           (f"{SETS}::TestClosedForms::test_orders_build_no_fraction",)),
    Mutant("germs.py", "return 0, c, 2 * pf * pg", "return 0, c, pf * pg",
           (f"{GERMS}::TestGermGap::test_grandi_gap",)),
    Mutant("germs.py", "(term[0] - 2, term[1], pf * pg)", "(term[0] - 2, term[1], 1)",
           (f"{SETS}::TestClosedForms::test_germ_arith_shaped_pairs_match_the_cross_numerator_route",)),
    Mutant("germs.py", "Fraction(gap[1], gap[2])", "Fraction(gap[1], 1)",
           (f"{GERMS}::TestGermGap::test_density_gap_sits_at_order_minus_one",)),
    Mutant("germs.py", "list(map(sub, (*coeffs, *pad), (*pad, *coeffs)))",
           "list(map(sub, (*coeffs, *pad), (*coeffs, *pad)))",
           (f"{GERMS}::TestClosedFormShortcut::test_cross_numerator_only_on_a_tie",)),
    # a set's numerator, built on first read
    Mutant("germs.py", '("0" * len(rep) + pre).encode()', '(pre + "0" * len(rep)).encode()',
           (f"{SETS}::TestGeneratingFunction::test_numerator_matches_plain_convolution",
            f"{SETS}::TestDeferredNumerator::test_agrees_with_an_eager_gf",
            f"{GERMS}::TestDeferredNumerator::test_the_numerator_is_built_once_and_stored")),
    Mutant("germs.py", 'bits = self.__dict__.get("_bits") if name == "numerator" else None',
           'bits = self.__dict__.get("_bits")',
           (f"{GERMS}::TestDeferredNumerator::test_a_misspelt_name_still_raises",
            f"{GERMS}::TestDeferredNumerator::test_protocol_probes_build_nothing")),
    Mutant("germs.py", "        gf.__post_init__()\n", "",
           (f"{GERMS}::TestDeferredNumerator::test_the_period_is_still_checked",)),
    Mutant("germs.py",
           'object.__setattr__(self, "numerator", IntPolynomial(tuple(coeffs)))\n'
           "        return self.numerator",
           "return IntPolynomial(tuple(coeffs))",
           (f"{GERMS}::TestDeferredNumerator::test_the_numerator_is_built_once_and_stored",
            f"{SETS}::TestDeferredNumerator::test_agrees_with_an_eager_gf")),
    Mutant("sets.py", "return RationalGF._deferred(s.preperiod, s.repetend, s._moments)",
           "gf = RationalGF._deferred(s.preperiod, s.repetend, s._moments)\n"
           "    return gf.numerator and gf",
           (f"{SETS}::TestDeferredNumerator::test_numerator_builds_only_on_a_tie",
            f"{SETS}::TestDeferredNumerator::test_agrees_with_an_eager_gf")),
    # sets: moments off the strings, valuation checks, bit checks
    Mutant("sets.py", "_sums(rep.encode().translate(_BIT_VALUES))", "_sums(rep.encode())",
           (f"{SETS}::TestValuation::test_empty_set",)),
    Mutant("sets.py", "if type(value) is int:", "if isinstance(value, int):",
           (f"{SETS}::TestValuation::test_refuses_all_but_ints_and_fractions[True-0]",)),
    Mutant("sets.py", "0 < dn < dd or ad == 1 and (", "0 < dn < dd or (",
           (f"{SETS}::TestValuation::test_impossible_pairs_rejected",)),
    Mutant("sets.py", 'if not isinstance(bits, str) or bits.strip("01"):',
           'if not isinstance(bits, str) or bits.strip("012"):',
           (f"{SETS}::TestNormalize::test_bits_must_be_zeros_and_ones[012-0]",)),
]


def run_tests(tree: Path, ids) -> int | None:
    """pytest's exit status for the test ids in `tree`; None past TIMEOUT_S."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids]
    try:
        return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    with tempfile.TemporaryDirectory() as temp:
        tree = Path(temp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        sources = {name: (tree / "src" / "germpack" / name).read_text()
                   for name in {m.file for m in MUTANTS}}
        misplaced = [m for m in MUTANTS if sources[m.file].count(m.text) != 1]
        for m in misplaced:
            print(f"ANCHOR {m.file}: {m.text!r} occurs {sources[m.file].count(m.text)} times")
        every = sorted({test for m in MUTANTS for test in m.killers})
        if misplaced or run_tests(tree, every) != 0:
            print("the gate cannot run: fix the anchors above, or the unmutated tests fail")
            return 2
        outcomes = {"killed": 0, "timed out": 0, "survived": 0}
        for m in MUTANTS:
            path = tree / "src" / "germpack" / m.file
            path.write_text(sources[m.file].replace(m.text, m.replacement))
            status = run_tests(tree, m.killers)
            path.write_text(sources[m.file])
            outcome = "timed out" if status is None else "survived" if status == 0 else "killed"
            outcomes[outcome] += 1
            print(f"{outcome.upper():9} {m.file}: {m.text.strip()!r} -> {m.replacement.strip()!r}")
    print(", ".join(f"{count} {outcome}" for outcome, count in outcomes.items()),
          f"of {len(MUTANTS)} mutants")
    return 1 if outcomes["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
