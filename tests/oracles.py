"""Independent brute-force oracles used by the test suite.

Everything here works on raw block lists and avoids the package's own code
paths, so the tests compare two genuinely different computations.
"""

from fractions import Fraction
from math import comb


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def pos(v: int, n: int) -> int:
    return v if v > 0 else 2 * n + 1 + v


def naive_noncrossing(n, blocks) -> bool:
    spans = []
    for u, v in blocks:
        p, q = sorted((pos(u, n), pos(v, n)))
        spans.append((p, q))
    for i in range(len(spans)):
        a, b = spans[i]
        for j in range(i + 1, len(spans)):
            c, d = spans[j]
            if a < c < b < d or c < a < d < b:
                return False
    return True


def naive_compose(n, blocks_a, blocks_b):
    """Union-find over labelled nodes; returns (frozenset of blocks, loops)."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    nodes = []
    for i in range(1, n + 1):
        nodes += [("top", i), ("mid", i), ("bot", i)]
    for x in nodes:
        parent[x] = x

    def node_a(v):
        return ("top", v) if v > 0 else ("mid", -v)

    def node_b(v):
        return ("mid", v) if v > 0 else ("bot", -v)

    for u, v in blocks_a:
        union(node_a(u), node_a(v))
    for u, v in blocks_b:
        union(node_b(u), node_b(v))

    groups = {}
    for x in nodes:
        groups.setdefault(find(x), []).append(x)

    blocks = []
    loops = 0
    for members in groups.values():
        boundary = []
        for kind, i in members:
            if kind == "top":
                boundary.append(i)
            elif kind == "bot":
                boundary.append(-i)
        if not boundary:
            loops += 1
        else:
            assert len(boundary) == 2
            blocks.append(frozenset(boundary))
    return frozenset(blocks), loops


def naive_alg_mul(n, terms_a, terms_b, delta):
    """The bilinear product as a plain Fraction double loop.

    `terms_a` and `terms_b` map block lists to coefficients; the result maps
    frozensets of blocks to their nonzero coefficients.
    """
    delta = Fraction(delta)
    out = {}
    for blocks_a, ca in terms_a.items():
        for blocks_b, cb in terms_b.items():
            blocks, loops = naive_compose(n, blocks_a, blocks_b)
            c = ca * cb * delta ** loops
            out[blocks] = out.get(blocks, Fraction(0)) + c
    return {blocks: c for blocks, c in out.items() if c}


def all_matchings(points):
    """Every perfect matching of an even-sized list, as block lists."""
    points = list(points)
    if not points:
        return [[]]
    first = points[0]
    out = []
    for idx in range(1, len(points)):
        rest = points[1:idx] + points[idx + 1:]
        for sub in all_matchings(rest):
            out.append([(first, points[idx])] + sub)
    return out


def naive_bl_br(n, blocks):
    upper = sorted((min(b) for b in map(sorted, blocks)
                    if all(v > 0 for v in b)), reverse=True)
    lower = sorted((min(-v for v in b) for b in blocks
                    if all(v < 0 for v in b)), reverse=True)
    return tuple(upper), tuple(lower)


def as_blockset(tangle):
    return frozenset(frozenset(b) for b in tangle.blocks)
