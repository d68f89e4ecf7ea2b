"""Golden corpus: the exact certificate text of seeded derivations.

Each group below hashes the `derivation_to_text` output of a fixed, seeded
set of inputs.  The digests were recorded from the unmemoised rewriting code,
so any change to the push/fold pipeline that alters a single step of a
certificate (its position, relation or direction) fails here.  Regenerate a
digest only when a certificate format change is intended.
"""

import hashlib
import random

import pytest

from tlmonoid import (
    derivation_to_text,
    normal_form,
    normal_form_E,
    push_lambda,
    reduce_one_sided,
    separate,
    word_from_text,
)


def _word(rng, n, alphabet, max_len):
    toks = [f"{rng.choice(alphabet)}{rng.randint(1, n - 1)}"
            for _ in range(rng.randint(0, max_len))]
    return word_from_text(n, " ".join(toks) or "1")


def _lr_normal_forms(n):
    rng = random.Random(1000 + n)
    for _ in range(30):
        yield normal_form(_word(rng, n, "LR", 40))[1]


def _e_normal_forms(n):
    rng = random.Random(2000 + n)
    for _ in range(30):
        yield normal_form_E(_word(rng, n, "E", 20))[2]


def _push_lambdas():
    rng = random.Random(3000)
    for n in (5, 9, 13, 21, 31):
        for _ in range(60):
            p = _word(rng, n, "R", 12)
            yield push_lambda(p, rng.randint(1, n - 1))[2]


def _separations():
    rng = random.Random(4000)
    for n in (5, 9, 13, 21):
        for _ in range(30):
            yield separate(_word(rng, n, "LR", 30))[2]


def _one_sided():
    rng = random.Random(5000)
    for n in (5, 9, 13, 21):
        for alphabet in "LR":
            for _ in range(30):
                yield reduce_one_sided(_word(rng, n, alphabet, 30))[1]


GOLDEN = {
    "lr_n9": (lambda: _lr_normal_forms(9),
              "f43fd8457c8192ef6498c8562662960cd72ffba6f4e4247cdc823da455fc03b7"),
    "lr_n13": (lambda: _lr_normal_forms(13),
               "2354bd711f277c32b94773608e0077e3a2bc9a10f7345378630fc4565a91c835"),
    "lr_n21": (lambda: _lr_normal_forms(21),
               "cbf8f8cb547b3790504000a1b0c6624458e313f51f05c416a81de8b879ebac41"),
    "lr_n31": (lambda: _lr_normal_forms(31),
               "e4f325b7c597ee403fbf227fffe6b411151698e7eeeaee78879f69b7247f6944"),
    "e_n9": (lambda: _e_normal_forms(9),
             "f64e2c6f08a580ffab5e35168fbf371073d0935b474fa468032afbc21c647323"),
    "e_n12": (lambda: _e_normal_forms(12),
              "d0da3c89657a126368a11b9461b8324ce16ffec981b1b47dda55cbf4d54d0595"),
    "push_lambda": (_push_lambdas,
                    "88563f5ec96eea026e77367cfb4ecad2348f6a86c4710c0bc11954b92142d8a8"),
    "separate": (_separations,
                 "994c260b81a0c028a9c0b880d81e788415b633d0888ee87a2a70b62c32c499b6"),
    "reduce_one_sided": (_one_sided,
                         "53509ca284aeaf5e0b62666df3e9e22992e10128c8893c3b131d9f1239d676fb"),
}


def _digest(derivations):
    h = hashlib.sha256()
    for d in derivations:
        h.update(derivation_to_text(d).encode())
    return h.hexdigest()


@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_certificate_text_matches_golden_digest(group):
    make, expected = GOLDEN[group]
    assert _digest(make()) == expected
