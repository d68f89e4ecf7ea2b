"""A proof, not a sample: every `normal_form` certificate at n <= 9 replays.

`normal_form` sweeps a word letter by letter through `rewrite._sweep_step`,
a finite transducer on states (x, v): x is the folded lambda tuple and v
the reduced rho suffix, with x and reversed(v) in T_n.  The steps one
letter c adds depend only on (x, v, c) and stay inside `L_x R_v c`, and
the balancing steps depend only on the final state.  A block that replays
on a prefix replays unchanged on any extension of it.  So checking, at
degree n,

  * every state and letter: the sweep block replays under Omega from
    `L_x R_v c` to `L_x' R_v'`, and (x', v') is again a state;
  * every state: the balance block replays from `L_x R_v` to the balanced
    word of the `boundary_tuples` of that word's diagram;

proves by induction on the word that `normal_form`'s certificate of every
word of degree n replays to the word's canonical form.  Criterion 4 proves
every Omega relation sound at these degrees.  Only the fold memo is
shared across states: it is a cache whose values depend only on its keys,
so sharing it gives each transition the block `normal_form` gives it.
"""

from math import comb

import pytest

from tlmonoid import Word, boundary_tuples, enumerate_tuples, evaluate
from tlmonoid.relations import replay
from tlmonoid.rewrite import _balance, _sweep_step
from tlmonoid.words import L, R


def prove_degree(n: int) -> dict:
    """Check every sweep transition and balance block at degree n.

    Returns the counts: states, transitions, block steps (summed over the
    transitions), the largest sweep block and the largest balance block.
    """
    tuples = [t.entries for t in enumerate_tuples(n)]
    # each state (x, v) and its word L_x R_v
    states = {(x, y[::-1]): [*map(L, x), *map(R, reversed(y))]
              for x in tuples for y in tuples}
    letters = [*map(L, range(1, n)), *map(R, range(1, n))]
    fold_memo: dict = {}
    steps = largest = largest_balance = 0
    for (x, v), head in states.items():
        for c in letters:
            out: list = []
            x2, v2 = _sweep_step(n, x, v, c, out, fold_memo)
            end = states.get((x2, v2))
            assert end is not None, (n, x, v, c, x2, v2)
            assert replay(n, head + [c], out, "Omega") == end, (n, x, v, c)
            steps += len(out)
            largest = max(largest, len(out))
        out = []
        xb, vb = _balance(n, x, v, out, fold_memo)
        upper, lower = boundary_tuples(evaluate(Word(n, tuple(head)))[0])
        assert (xb, vb[::-1]) == (upper.entries, lower.entries), (n, x, v)
        assert replay(n, list(head), out, "Omega") == \
            [*map(L, xb), *map(R, vb)], (n, x, v)
        largest_balance = max(largest_balance, len(out))
    return {"states": len(states), "transitions": len(states) * len(letters),
            "block_steps": steps, "largest_block": largest,
            "largest_balance_block": largest_balance}


@pytest.mark.parametrize("n", range(3, 10))
def test_every_sweep_step_and_balance_block_replays(n):
    counts = prove_degree(n)
    # |T_n| = C(n, n // 2), so these are all the states there are
    assert counts["states"] == comb(n, n // 2) ** 2
