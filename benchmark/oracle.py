"""Independent oracle for the benchmark's outputs.

Nothing here imports tlmonoid.  Diagrams are frozensets of two-point blocks
of signed boundary points (+i upper, -i lower), built from the generator
definitions in the package documentation and multiplied by union-find over
the three rows of a stacked pair.  The benchmark converts the package's
outputs to these raw forms through the public text and document formats
and compares; it never times this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def identity(n):
    return frozenset(frozenset((i, -i)) for i in range(1, n + 1))


@lru_cache(maxsize=None)
def generator(n, kind, i):
    """Blocks of L_i, R_i or E_i (kind "L", "R" or "E") at degree n."""
    if kind == "E":
        blocks = [(j, -j) for j in range(1, n + 1) if j not in (i, i + 1)]
        blocks += [(i, i + 1), (-i, -(i + 1))]
    else:
        blocks = [(j, -j) for j in range(1, i)]
        blocks.append((i, i + 1))
        blocks += [(j, -(j - 2)) for j in range(i + 2, n + 1)]
        blocks.append((-(n - 1), -n))
        if kind == "R":
            blocks = [(-u, -v) for u, v in blocks]
    return frozenset(frozenset(b) for b in blocks)


def compose(n, a, b):
    """Stack `a` on top of `b`; return (blocks, interior loop count).

    Union-find nodes: 1..n is the upper row of `a`, n+1..2n the fused
    middle row and 2n+1..3n the lower row of `b`.
    """
    parent = list(range(3 * n + 1))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for blocks, up, down in ((a, 0, n), (b, n, 2 * n)):
        for blk in blocks:
            u, v = (up + p if p > 0 else down - p for p in blk)
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv

    ends = {}
    for i in range(1, n + 1):
        ends.setdefault(find(i), []).append(i)
        ends.setdefault(find(2 * n + i), []).append(-i)
    loops = len({find(n + i) for i in range(1, n + 1)} - ends.keys())
    if any(len(e) != 2 for e in ends.values()):
        raise AssertionError("union-find produced a non-matching")
    return frozenset(frozenset(e) for e in ends.values()), loops


def evaluate(n, letters):
    """Diagram and loop count of a word given as (kind, index) pairs."""
    t, m = identity(n), 0
    for kind, i in letters:
        t, k = compose(n, t, generator(n, kind, i))
        m += k
    return t, m


def boundary_tuples(blocks):
    """(bl, br): left endpoints of the upper and lower arcs, decreasing."""
    upper, lower = [], []
    for blk in blocks:
        u, v = sorted(blk)
        if u > 0:
            upper.append(u)
        elif v < 0:
            lower.append(-v)
    return tuple(sorted(upper, reverse=True)), tuple(sorted(lower, reverse=True))


def canonical_lr(x, y):
    """The balanced word L_{x_1}..L_{x_k} R_{y_k}..R_{y_1} as text."""
    toks = [f"L{i}" for i in x] + [f"R{i}" for i in reversed(y)]
    return " ".join(toks) or "1"


def canonical_e(n, x, y):
    """Hat image of the balanced word: L_i -> E_i..E_{n-1}, R_i -> E_{n-1}..E_i."""
    toks = []
    for i in x:
        toks += [f"E{j}" for j in range(i, n)]
    for i in reversed(y):
        toks += [f"E{j}" for j in range(n - 1, i - 1, -1)]
    return " ".join(toks) or "1"


def alg_mul(n, a, b, delta):
    """Bilinear product of {blocks: Fraction} dicts weighted by delta^loops."""
    delta = Fraction(delta)
    out = {}
    for ta, ca in a.items():
        for tb, cb in b.items():
            t, m = compose(n, ta, tb)
            out[t] = out.get(t, Fraction(0)) + ca * cb * delta ** m
    return {t: c for t, c in out.items() if c}


def parse_word(text):
    """Word text `L3 R1 E2` as (kind, index) pairs; `1` is the empty word."""
    toks = text.split()
    if toks == ["1"]:
        return []
    return [(tok[0].upper(), int(tok[1:])) for tok in toks]
