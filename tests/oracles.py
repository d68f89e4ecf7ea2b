"""Independent brute-force oracles used by the test suite.

Everything here works on raw block lists and avoids the package's own code
paths, so the tests compare two genuinely different computations.  The
exceptions, `replay_translate`, `replay_check` and `flat_push`, name the
package results they build on.
"""

from fractions import Fraction
from math import comb


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def dagger_letters(letters):
    """The dagger image of a word: reversed, with L_i and R_i exchanged."""
    from tlmonoid import letter

    swap = {"L": "R", "R": "L", "E": "E"}
    return tuple(letter(swap[c.alphabet], c.index) for c in reversed(letters))


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
        elif len(boundary) == 2:
            blocks.append(frozenset(boundary))
        else:
            raise AssertionError(f"a string of the product meets the "
                                 f"boundary at {sorted(boundary)}")
    return frozenset(blocks), loops


def naive_generator(n, alphabet, i):
    """Blocks of the generator diagram of the letter `alphabet``i`."""
    if alphabet == "E":
        blocks = [(j, -j) for j in range(1, n + 1) if j not in (i, i + 1)]
        return blocks + [(i, i + 1), (-i, -(i + 1))]
    blocks = [(j, -j) for j in range(1, i)] + [(i, i + 1), (-(n - 1), -n)]
    blocks += [(j, -(j - 2)) for j in range(i + 2, n + 1)]
    if alphabet == "R":                 # the reflection of lambda
        blocks = [(-u, -v) for u, v in blocks]
    return blocks


def naive_evaluate(n, letters):
    """(frozenset of blocks, loops) of a word, one `naive_compose` per letter."""
    blocks, loops = [(j, -j) for j in range(1, n + 1)], 0
    for c in letters:
        got, k = naive_compose(n, blocks, naive_generator(n, c.alphabet, c.index))
        blocks, loops = [tuple(b) for b in got], loops + k
    return frozenset(frozenset(b) for b in blocks), loops


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


def segment_matchings(points):
    """Non-crossing matchings of consecutive boundary positions, in order.

    The Catalan recursion: the first position pairs with a position at odd
    offset, and the enclosed segment and the tail are matched recursively;
    for each offset the enclosed segment's matchings vary slowest.  This is
    the order `enumerate_TL` keeps.
    """
    if not points:
        return [()]
    first = points[0]
    return [((first, points[t]),) + inner + outer
            for t in range(1, len(points), 2)
            for inner in segment_matchings(points[1:t])
            for outer in segment_matchings(points[t + 1:])]


def enumeration_order(n):
    """Block sets of the degree-n diagrams in the order of the recursion.

    Boundary position p is the upper point +p for p <= n and the lower
    point -(2n + 1 - p) otherwise.
    """
    def point(p):
        return p if p <= n else p - 2 * n - 1

    return [frozenset(frozenset((point(p), point(q))) for p, q in m)
            for m in segment_matchings(tuple(range(1, 2 * n + 1)))]


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


def _e_sides(rid):
    name, _, rest = rid.partition("(")
    args = tuple(int(a) for a in rest.rstrip(")").split(","))
    if name == "E1":
        return (args[0], args[0]), (args[0],)
    if name == "E2":
        return args, args[::-1]
    if name == "E3":
        return (args[0], args[1], args[0]), (args[0],)
    raise ValueError(f"not an E relation id: {rid!r}")


def replay_translate(w, deriv=None):
    """Xi certificate of an E-word by replaying every step on the whole word.

    The reference for the translation in `normal_form_E`: it expands each
    hook through its telescope, then replays every step of every Omega
    relation's template at its offset on the full E-word, matching each one
    before applying it.  It shares only the lifted Omega certificate and the
    template table with the package.  `deriv` is the Omega certificate to
    translate, by default the normal form certificate of the lifted word.
    Returns (steps, end indices).
    """
    from tlmonoid import (Step, hooks_to_pairs, normal_form, relation_by_id,
                          xi_template)

    n = w.n
    word = [c.index for c in w.letters]
    steps = []

    def emit(pos, rid, forward):
        lhs, rhs = _e_sides(rid)
        src, dst = (lhs, rhs) if forward else (rhs, lhs)
        if pos < 0 or tuple(word[pos:pos + len(src)]) != src:
            raise AssertionError(f"{rid} does not match at {pos}")
        word[pos:pos + len(src)] = dst
        steps.append(Step(pos, rid, forward))

    def hat(letters):
        out = []
        for c in letters:
            span = range(c.index, n)
            out.extend(span if c.alphabet == "L" else reversed(span))
        return out

    # E_i -> E_i .. E_{n-1} E_{n-1} .. E_i, rightmost hook first
    for p in range(len(word) - 1, -1, -1):
        while word[p] != n - 1:
            emit(p, f"E3({word[p]},{word[p] + 1})", False)
            p += 1
        emit(p, f"E1({n - 1})", False)

    if deriv is None:
        deriv = normal_form(hooks_to_pairs(w))[1]
    if word != hat(deriv.start):
        raise AssertionError("hook expansion does not reach the lifted word")
    lr = list(deriv.start)
    for st in deriv.steps:
        offset = len(hat(lr[:st.pos]))
        tmpl = xi_template(n, st.rid)
        if not st.forward:
            tmpl = [Step(s.pos, s.rid, not s.forward) for s in reversed(tmpl)]
        for s in tmpl:
            emit(s.pos + offset, s.rid, s.forward)
        rel = relation_by_id(n, st.rid)
        src, dst = (rel.lhs, rel.rhs) if st.forward else (rel.rhs, rel.lhs)
        lr[st.pos:st.pos + len(src)] = dst
    if word != hat(lr):
        raise AssertionError("replay does not end on the hat image")
    return steps, tuple(word)


def replay_check(d, family):
    """`check_derivation` as one relation lookup and tuple compare per step.

    The reference for the verdicts and messages of the package's replay,
    which resolves each relation id once.  Returns the end word.
    """
    from tlmonoid import (BadStep, EndMismatch, FamilyViolation, Word,
                          evaluate, relation_index)

    if family not in ("Omega", "Xi"):
        raise FamilyViolation(f"unknown relation family {family!r}")
    index = relation_index(d.n, family)
    word = list(d.start)
    for i, st in enumerate(d.steps):
        rel = index.get(st.rid)
        if rel is None:
            raise FamilyViolation(
                f"step {i} uses {st.rid}, not a {family} relation at n={d.n}")
        src, dst = (rel.lhs, rel.rhs) if st.forward else (rel.rhs, rel.lhs)
        p = st.pos
        if p < 0 or tuple(word[p:p + len(src)]) != src:
            found = " ".join(map(str, word[p:p + len(src)])) or "1"
            raise BadStep(i, f"{st.rid} expected "
                             f"{' '.join(map(str, src))} at {p}, found {found}")
        word[p:p + len(src)] = dst
    if tuple(word) != d.end:
        raise EndMismatch("replay did not reach the recorded end word")
    if evaluate(Word(d.n, d.start))[0] != evaluate(Word(d.n, d.end))[0]:
        raise EndMismatch("start and end words evaluate to different diagrams")
    return Word(d.n, d.end)


def flat_push(n, p, j):
    """The push of L_j leftwards through the rho indices `p`, as flat tuples.

    The recursion that `rewrite._push` replaced with one loop, kept as it
    was: each state stores its own step tuple, built from its sub-pushes'
    tuples with the second shifted by hand.  Returns (lambda, residue,
    steps) with positions relative to the start of P; builds `Step`s.
    """
    from tlmonoid import Step

    memo = {}

    def push(p, j):
        hit = memo.get((p, j))
        if hit is not None:
            return hit
        if not p:
            res = (j,), (), ()
        else:
            q = p[:-1]
            i = p[-1]
            lam1, q1, s1 = push(q, n - 1)
            if abs(i - j) <= 1:
                res = lam1, q1, (Step(len(q), f"RL2({i},{j})", True),) + s1
            else:
                if j <= i - 2:
                    rid, j2, i2 = f"RL1({i},{j})", j, i - 2
                else:
                    rid, j2, i2 = f"RL3({i},{j})", j - 2, i
                lam2, q2, s2 = push(q1, j2)
                res = (lam1 + lam2, q2 + (i2,),
                       (Step(len(q), rid, True),) + s1
                       + tuple(Step(s.pos + len(lam1), s.rid, s.forward)
                               for s in s2))
        memo[p, j] = res
        return res

    return push(tuple(p), j)
