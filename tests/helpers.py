"""Shared generators and independent mini-oracles for the test suite."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product, zip_longest
from math import comb, gcd

from germpack import (
    GREATER,
    CircularWord,
    DistanceSet,
    IntPolynomial,
    PatchContext,
    RationalGF,
    RationalSet,
    best_patch,
    enumerate_avoiding,
    is_avoiding,
    poly_germ_compare,
)
from germpack import local
from germpack.local import LineKernel, germ_greater
from germpack.sets import _primitive_root


def random_bits(rng, length, one_prob=0.5):
    return "".join("1" if rng.random() < one_prob else "0" for _ in range(length))


def random_avoiding(rng, distances, length, one_prob=0.5):
    """Random avoiding string: flip a coin wherever a 1 is still legal."""
    bits = []
    for pos in range(length):
        legal = all(d > pos or bits[pos - d] == "0" for d in distances)
        bits.append("1" if legal and rng.random() < one_prob else "0")
    return "".join(bits)


def canonical_bit_by_bit(pre, rep):
    """`RationalSet`'s canonical (preperiod, repetend), stripping the
    preperiod one bit at a time: the reference for its one-pass count."""
    rep = _primitive_root(rep)
    while pre and pre[-1] == rep[-1]:
        pre = pre[:-1]
        rep = rep[-1] + rep[:-1]
    return pre, rep


def random_rational_set(rng, max_pre=6, max_rep=8):
    pre = random_bits(rng, rng.randrange(0, max_pre + 1))
    rep = random_bits(rng, rng.randrange(1, max_rep + 1))
    return RationalSet(pre, rep)


def random_gf(rng, max_degree=6, max_coeff=4, max_period=6):
    coeffs = tuple(rng.randint(-max_coeff, max_coeff) for _ in range(max_degree + 1))
    return RationalGF(IntPolynomial(coeffs), rng.randrange(1, max_period + 1))


def random_gf_pair(rng):
    """Two rational germs: independent half the time, else the same germ over a
    period 2-4 times as long, mostly nudged by c*q^a*(1-q)^k (moves order k - 1 on)."""
    f = random_gf(rng)
    if rng.random() < 0.5:
        return f, random_gf(rng)
    m, d = rng.randrange(2, 5), f.period
    repeat = tuple(1 if i % d == 0 else 0 for i in range(d * (m - 1) + 1))
    numerator = convolve(f.numerator.coeffs, repeat)
    if rng.random() < 0.8:
        nudge = (0,) * rng.randrange(10) + (rng.choice((-2, -1, 1, 2)),)
        for _ in range(rng.randrange(5)):
            nudge = convolve(nudge, (1, -1))
        numerator = add(numerator, nudge)
    return f, RationalGF(IntPolynomial(numerator), d * m)


def random_set_pair(rng):
    """Two rational sets, often tied in density and constant term.

    One of: independent sets; one set in a second encoding; finite sets of the
    same size where one 1 moves a step left and another a step right (same
    position sum);
    a shared repetend behind a preperiod and its reverse (same constant term).
    """
    kind = rng.randrange(4)
    if kind == 0:
        return random_rational_set(rng), random_rational_set(rng)
    if kind == 1:
        s = random_rational_set(rng)
        return s, RationalSet(s.preperiod + s.repetend, s.repetend * rng.randrange(1, 4))
    if kind == 2:
        bits = list(random_bits(rng, rng.randrange(4, 14)))
        moved = list(bits)
        i, j = rng.randrange(1, len(bits)), rng.randrange(len(bits) - 1)
        apart = i not in (j, j + 2) and moved[i - 1] == moved[j + 1] == "0"
        if apart and moved[i] == moved[j] == "1":
            moved[i - 1], moved[i], moved[j], moved[j + 1] = "1", "0", "0", "1"
        return RationalSet("".join(bits), "0"), RationalSet("".join(moved), "0")
    pre, rep = random_bits(rng, rng.randrange(1, 8)), random_bits(rng, rng.randrange(1, 6))
    return RationalSet(pre, rep), RationalSet(pre[::-1], rep)


def random_circular_word(rng, anchor_bits, extra_max=6):
    """Circular word over the anchor's block length starting with the anchor."""
    m = len(anchor_bits)
    body = anchor_bits + random_bits(rng, rng.randrange(0, extra_max + 1))
    return CircularWord.from_bits(body, m)


def convolve(a, b):
    """Coefficients of the product of two polynomials, by plain convolution."""
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def add(a, b):
    """Coefficients of the sum of two polynomials."""
    return tuple(x + y for x, y in zip_longest(a, b, fillvalue=0))


def one_minus(d):
    """Coefficients of 1 - q**d."""
    return (1,) + (0,) * (d - 1) + (-1,)


def numerator_by_convolution(s):
    """Numerator of a set's generating function over 1 - q**len(repetend).

    pre(q) * (1 - q**d) + q**len(pre) * rep(q), from the set's bits.
    """
    pre = tuple(int(b) for b in s.preperiod)
    shifted_rep = (0,) * len(s.preperiod) + tuple(int(b) for b in s.repetend)
    return add(convolve(pre, one_minus(len(s.repetend))), shifted_rep)


def cross_numerator(f, g):
    """num(f) * (1 - q**period(g)) - num(g) * (1 - q**period(f))."""
    left = convolve(f.numerator.coeffs, one_minus(g.period))
    right = convolve(g.numerator.coeffs, one_minus(f.period))
    return add(left, tuple(-c for c in right))


def gap_by_cross_numerator(f, g):
    """Leading Laurent term of f - g from the lowest t-term c*t**j of the cross
    numerator: c/(df*dg) at order j - 2, since (1-q^df)(1-q^dg) = df*dg*t**2 + ..."""
    ts = t_expansion(cross_numerator(f, g))
    j = next((j for j, c in enumerate(ts) if c), None)
    return None if j is None else (j - 2, Fraction(ts[j], f.period * g.period))


def t_expansion(coeffs):
    """Coefficients in t = 1-q by direct binomial transform (independent route)."""
    out = []
    for j in range(len(coeffs)):
        s = sum(c * comb(i, j) for i, c in enumerate(coeffs))
        out.append(-s if j % 2 else s)
    return out


def laurent_by_binomials(f, count):
    """First `count` Laurent coefficients of f, from binomial t-expansions.

    f = N/(1 - q^d) = (N(t)/u(t))/t with t*u(t) = 1 - (1-t)^d; the series N/u
    comes from truncated power-series division over the rationals.
    """
    num = t_expansion(f.numerator.coeffs)
    u = t_expansion(one_minus(f.period))[1:]
    out = []
    for n in range(count):
        acc = Fraction(num[n] if n < len(num) else 0)
        for i in range(1, min(n, len(u) - 1) + 1):
            acc -= u[i] * out[n - i]
        out.append(acc / u[0])
    return tuple(out)


def sign_by_evaluation(coeffs):
    """Sign near 1- by exact evaluation at a provably safe rational point.

    Past N with 1/N below every nonzero root of the t-form, the sign at
    q = 1 - 1/N equals the sign on all of (1 - 1/N, 1).  The bound comes
    from the lowest nonzero t-coefficient dominating the tail.
    """
    ts = t_expansion(coeffs)
    lowest = next((j for j, c in enumerate(ts) if c), None)
    if lowest is None:
        return 0
    tail = sum(abs(c) for c in ts[lowest + 1:])
    safe = tail // abs(ts[lowest]) + 2
    n = 2
    while n < safe:
        n *= 2
    q = Fraction(n - 1, n)
    value = 0
    for c in reversed(coeffs):
        value = value * q + c
    return (value > 0) - (value < 0)


def pairs_clash(bits, distances):
    """Avoidance by checking every pair of positions outright."""
    ones = [i for i, b in enumerate(bits) if b == "1"]
    return any(b - a in distances for i, a in enumerate(ones) for b in ones[i + 1:])


def brute_patch(left, right, length, distances):
    """Best filling between contexts by trying all 2**length patches."""
    best = None
    best_poly = None
    for combo in product("01", repeat=length):
        patch = "".join(combo)
        whole = left + patch + right
        clash = False
        for i, bit in enumerate(whole):
            if bit != "1":
                continue
            for d in distances:
                j = i + d
                if j < len(whole) and whole[j] == "1":
                    # only pairs touching the patch are the patch's fault
                    if len(left) <= i < len(left) + length or len(left) <= j < len(left) + length:
                        clash = True
            if clash:
                break
        if clash:
            continue
        poly = IntPolynomial.from_bits(patch)
        if best is None or poly_germ_compare(poly, best_poly) == GREATER:
            best, best_poly = patch, poly
    return best


@lru_cache(maxsize=None)
def _memo_brute_patch(left, right, length, distances):
    return brute_patch(left, right, length, distances)


def brute_refill(bits, position, patch_length, distances):
    """`bits` with the patch at `position` replaced by `brute_patch`'s filling
    for the norm bits either side of it."""
    norm, end = distances.norm, position + patch_length
    left, right = bits[position - norm: position], bits[end: end + norm]
    return bits[:position] + _memo_brute_patch(left, right, patch_length, distances) + bits[end:]


def brute_sweep(bits, patch_length, distances):
    """Round-robin `brute_refill` at every position with full contexts until a
    pass changes nothing: the string reference for `local.sweep_to_fixpoint`."""
    positions = range(distances.norm, len(bits) - patch_length - distances.norm + 1)
    changed = True
    while changed:
        changed = False
        for position in positions:
            out = brute_refill(bits, position, patch_length, distances)
            changed |= out != bits
            bits = out
    return bits


def reference_sweep(bits, patch_length, distances):
    """Round-robin `best_patch` at every position until a pass changes
    nothing, each distinct context pair filled once: a sweep that steps D's
    own shadows even where `local.sweep_to_fixpoint` steps D/g's.

    Returns the fixpoint and the (left, right) contexts of every visit.
    """
    norm = distances.norm
    fillings = {}
    changed = True
    while changed:
        changed = False
        for t in range(norm, len(bits) - patch_length - norm + 1):
            end = t + patch_length
            contexts = bits[t - norm: t], bits[end: end + norm]
            if contexts not in fillings:
                fillings[contexts] = best_patch(PatchContext(*contexts, patch_length), distances)
            out = bits[:t] + fillings[contexts] + bits[end:]
            changed |= out != bits
            bits = out
    return bits, set(fillings)


def brute_windows_consistent(winner, distances, patch_length):
    """`brute_refill` changes no patch of the winner across its preperiod and
    one period: the reference for `local.winner_windows_consistent`."""
    norm = distances.norm
    pre, rep = len(winner.preperiod), len(winner.repetend)
    window = winner.bits(pre + 2 * rep + patch_length + 2 * norm)
    return all(
        brute_refill(window, position, patch_length, distances) == window
        for position in range(norm, pre + rep + norm + 1)
    )


def all_distance_sets(max_distance):
    """Every nonempty forbidden-distance set inside {1..max_distance}."""
    out = []
    for mask in range(1, 1 << max_distance):
        out.append(DistanceSet(tuple(d for d in range(1, max_distance + 1) if mask >> (d - 1) & 1)))
    return out


@lru_cache(maxsize=4)
def _unpruned_windows(distances, length, left):
    """Every reachable window of the last norm bits (bit i is the bit norm - i
    back, the left context before position 0) with the germ-best (mask, ones,
    position-sum) entry reaching it, ranked by count, then by position sum."""
    norm = distances.norm
    if length == 0:
        return [(left, (0, 0, 0))]
    pos, best = length - 1, {}
    for window, (mask, ones, possum) in _unpruned_windows(distances, pos, left):
        steps = [(window >> 1, (mask, ones, possum))]
        if not any(window >> (norm - d) & 1 for d in distances):  # a 1 fits
            grown = (mask | 1 << pos, ones + 1, possum + pos)
            steps.append((window >> 1 | 1 << (norm - 1), grown))
        for key, entry in steps:
            if key not in best or germ_greater(entry, best[key]):
                best[key] = entry
    return sorted(best.items(), key=lambda item: (-item[1][1], item[1][2]))


def unpruned_best(distances, length, left, right):
    """The germ-best entry of a line DP that keeps every window, whose last
    window meets no 1 of `right` (bit j is position length + j); None if none
    fits.  The reference for `LineKernel`, which drops dominated windows."""
    norm = distances.norm
    blocked = sum({1 << (norm + j - d) for d in distances for j in range(d) if right >> j & 1})
    best = None
    for window, entry in _unpruned_windows(distances, length, left):
        if best is not None and entry[1:] != best[1:]:
            break  # ranked: nothing further can beat it
        if not window & blocked and (best is None or germ_greater(entry, best)):
            best = entry
    return best


def kernel_states(kernel):
    """A `LineKernel`'s live entries by shadow, as `_run_line` keeps them."""
    return {kernel.shadows[i]: kernel.layer[i] for i in kernel.live}


def counted_line_work(monkeypatch):
    """Count line-DP state-steps in the returned Counter while the patches
    last: "kernel" adds the live ids of each `LineKernel._step`, "patch" the
    states at each position of a `_run_line` call."""
    work = Counter()
    run_line, kernel_step = local._run_line, LineKernel._step

    def counted_run_line(model, states, start, grown_bits):
        for pos, grown in enumerate(grown_bits, start):
            work["patch"] += len(states)
            states = run_line(model, states, pos, (grown,))
        return states

    def counted_step(kernel, pos):
        work["kernel"] += len(kernel.live)
        return kernel_step(kernel, pos)

    monkeypatch.setattr(local, "_run_line", counted_run_line)
    monkeypatch.setattr(LineKernel, "_step", counted_step)
    return work


def brute_two_block(distances, block_b):
    """A challenger to the two-block bound, by enumerating every pair.

    Returns the first avoiding (Q, R) with |Q| = |R| = |block_b|, R germ-greater
    than block_b and QR germ-greater than block_b doubled, or None when no
    such pair exists.  Every R is tried against every Q.
    """
    size = len(block_b)
    b_poly = IntPolynomial.from_bits(block_b)
    bb_poly = IntPolynomial.from_bits(block_b + block_b)
    firsts = None
    for second in enumerate_avoiding(distances, size):
        if poly_germ_compare(IntPolynomial.from_bits(second), b_poly) != GREATER:
            continue
        if firsts is None:
            firsts = list(enumerate_avoiding(distances, size))
        for first in firsts:
            if not is_avoiding(first + second, distances):
                continue
            joined = IntPolynomial.from_bits(first + second)
            if poly_germ_compare(joined, bb_poly) == GREATER:
                return first, second
    return None


def cantor_gordon_density(a, b):
    """The largest density of a set avoiding the distances a and b:
    floor(s/2)/s with s = (a + b)/gcd(a, b) (Cantor and Gordon, 1973)."""
    s = (a + b) // gcd(a, b)
    return Fraction(s // 2, s)


def karp_density(distances):
    """The largest density of a set avoiding the distances, as the maximum
    mean weight of a cycle (Karp, 1978) in the shadow graph reachable from 0.

    Bit j of a shadow is set when the position j ahead lies a forbidden
    distance after a 1 placed.  Every shadow s steps to s >> 1 emitting a 0;
    one with bit 0 clear may also step to s >> 1 | bit d - 1 for each d,
    emitting a 1.  The emitted bit is the edge's weight.  With best[k][v] the
    heaviest walk of k edges from 0 to v over n shadows, the answer is the
    max over v of the min over k < n of (best[n][v] - best[k][v]) / (n - k).
    """
    grow = sum(1 << (d - 1) for d in distances)

    def moves(shadow):
        yield shadow >> 1, 0
        if not shadow & 1:
            yield shadow >> 1 | grow, 1

    reachable, todo = {0}, [0]
    while todo:
        for nxt, _ in moves(todo.pop()):
            if nxt not in reachable:
                reachable.add(nxt)
                todo.append(nxt)
    n = len(reachable)
    best = [{0: 0}]
    for _ in range(n):
        walks = {}
        for shadow, weight in best[-1].items():
            for nxt, bit in moves(shadow):
                walks[nxt] = max(walks.get(nxt, -1), weight + bit)
        best.append(walks)
    density = Fraction(0)
    for v, top in best[n].items():
        gain = steps = None  # a shortest walk to v has fewer than n edges
        for k in range(n):  # fractions compared in ints, one built per v
            weight = best[k].get(v)
            if weight is not None and (gain is None or (top - weight) * steps < gain * (n - k)):
                gain, steps = top - weight, n - k
        density = max(density, Fraction(gain, steps))
    return density


def string_greedy(distances, horizon):
    """First-fit avoiding string and its detected period, on string windows:
    the reference for `greedy_avoiding`'s bits, and for its set wherever the
    last norm bits recur (its shadows may recur sooner)."""
    norm = distances.norm
    bits, seen, detected = [], {}, None
    for n in range(horizon):
        if detected is None and n >= norm:
            state = "".join(bits[n - norm: n])
            if state in seen:
                start = seen[state]
                detected = RationalSet("".join(bits[:start]), "".join(bits[start:n]))
            else:
                seen[state] = n
        ok = all(d > n or bits[n - d] == "0" for d in distances)
        bits.append("1" if ok else "0")
    text = "".join(bits)
    if detected is None and norm <= horizon:
        # the state after the final bit may close the loop
        state = text[horizon - norm:] if norm else ""
        if state in seen:
            start = seen[state]
            detected = RationalSet(text[:start], text[start:])
    return text, detected
