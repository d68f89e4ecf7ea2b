"""Batch command-line front end.

Exit codes: 0 success (or `eq` decided equal), 1 `eq` decided not-equal,
2 usage or parse error, 3 a verification or certificate check failed or
rewriting ran out of its step budget (`rewrite.MAX_PUSH_STEPS`), 4 internal
error (an unexpected exception, reported on one line).
Words are single quoted arguments in the token grammar `L<i> R<i> E<i>`
(case-insensitive, `1` for the empty word); tangles travel in their
one-line text format.  `--n <degree>` is required by the commands that
read words or tuples (`eval`, `nf`, `eq`, `build`, `alg`, `check-cert`),
accepted by no other, and held to the degree rule, so at most
`tuples.MAX_DEGREE`, before the command runs.  `--format doc` switches
to structured JSON output on every command but `render` and `check-cert`.

Each command returns its exit code and two deferred renderings of its
result, a document and a text; `main` builds the one asked for and is the
only writer of stdout, so nothing is printed unless the command completed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import alg_eval_word, element_to_text, rational
from .errors import BudgetExceeded, TLError
from .relations import FAMILY_NAMES
from .etranslate import certify
from .rewrite import check_derivation, derivation_from_text, derivation_to_text
from .tangles import (
    compose,
    dagger,
    factorize,
    tangle_from_text,
    tangle_to_doc,
    tangle_to_text,
)
from .tuples import _canonical_int, _check_degree, check_tuple, entries_from_text
from .verify import enumerate_TL, fuzz_words, verify_presentation
from .words import (balanced_word, build_tangle, evaluate, hat, word_from_text,
                    word_to_text)

USAGE_ERROR = 2
CHECK_FAILED = 3
INTERNAL_ERROR = 4


def _read_tangle_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return tangle_from_text(fh.read().strip())


def _tangle(t, **extra):
    # (doc, text) of a tangle followed by `key=value` lines
    return (lambda: {"tangle": tangle_to_doc(t), **extra},
            lambda: "\n".join([tangle_to_text(t),
                               *(f"{k}={v}" for k, v in extra.items())]))


def _cmd_eval(args):
    t, m = evaluate(word_from_text(args.n, args.word))
    return (0, *_tangle(t, m=m))


def _cmd_nf(args):
    w = word_from_text(args.n, args.word)
    _check_degree(args.n, 3)
    x, y = factorize(evaluate(w)[0])   # by the normal-form theorem
    word = balanced_word(x, y)
    if args.cert:                       # rewriting runs only for a certificate
        text = derivation_to_text(certify(w)[1])   # a refused word: no file
        with open(args.cert, "w", encoding="utf-8") as fh:
            fh.write(text)
    canonical = hat(word) if w.letters and w.alphabets() <= {"E"} else word
    return (0,
            lambda: {"x": list(x.entries), "y": list(y.entries),
                     "word": word_to_text(word),
                     "canonical": word_to_text(canonical)},
            lambda: f"x={x} y={y}")


def _cmd_eq(args):
    w1, w2 = (word_from_text(args.n, w) for w in (args.word1, args.word2))
    _check_degree(args.n, 3)
    witness = evaluate(w1)[0], evaluate(w2)[0]
    if witness[0] == witness[1]:        # by the normal-form theorem
        return 0, lambda: {"equal": True}, lambda: "equal"
    return (1,
            lambda: {"equal": False,
                     "witness": [tangle_to_doc(t) for t in witness]},
            lambda: "\n".join(["not-equal", *map(tangle_to_text, witness)]))


def _cmd_mul(args):
    t, m = compose(_read_tangle_file(args.left), _read_tangle_file(args.right))
    return (0, *_tangle(t, m=m))


def _cmd_dagger(args):
    return (0, *_tangle(dagger(_read_tangle_file(args.tangle))))


def _cmd_factorize(args):
    x, y = factorize(_read_tangle_file(args.tangle))
    return (0, lambda: {"x": list(x.entries), "y": list(y.entries)},
            lambda: f"x={x} y={y}")


def _cmd_build(args):
    x = check_tuple(args.n, entries_from_text(args.x))
    y = check_tuple(args.n, entries_from_text(args.y))
    return (0, *_tangle(build_tangle(x, y)))


def _cmd_enumerate(args):
    tangles = enumerate_TL(args.degree)
    return (0,
            lambda: {"n": args.degree, "count": len(tangles),
                     "tangles": [tangle_to_doc(t) for t in tangles]},
            lambda: "\n".join(map(tangle_to_text, tangles)))


def _cmd_verify(args):
    reports = {"presentation": verify_presentation(args.degree)}
    if args.fuzz:
        reports["fuzz"] = fuzz_words(args.degree, args.fuzz,
                                     max_len=args.max_len, seed=args.seed)
    ok = all(r.passed for r in reports.values())
    return (0 if ok else CHECK_FAILED,
            lambda: {k: r.to_doc(timings=args.timings)
                     for k, r in reports.items()},
            lambda: "\n".join(r.to_text(timings=args.timings)
                              for r in reports.values()))


def _cmd_alg(args):
    elem = alg_eval_word(word_from_text(args.n, args.word), args.delta)
    return (0,
            lambda: {"delta": str(args.delta), "n": elem.n,
                     "terms": [{"coeff": str(c), "tangle": tangle_to_doc(t)}
                               for t, c in elem.items_sorted()]},
            lambda: element_to_text(elem, args.delta).rstrip("\n"))


def _cmd_render(args):
    text = args.tangle
    t = (tangle_from_text(text) if text.lstrip().startswith("n=")
         else _read_tangle_file(text))
    return 0, None, lambda: render_tangle(t)


def _cmd_check_cert(args):
    with open(args.cert, "r", encoding="utf-8") as fh:
        text = fh.read()
    deriv = derivation_from_text(text, word_from_text(args.n, args.word))
    try:
        end = check_derivation(deriv, args.family)
    except TLError as exc:
        print(f"certificate rejected: {exc}", file=sys.stderr)
        return CHECK_FAILED, None, None
    return 0, None, lambda: f"ok: end={word_to_text(end)}"


# -- ascii arc rendering -------------------------------------------------------

def render_tangle(t) -> str:
    """Two label rows with the arcs drawn as brackets between them.

    Presentation only: the output is not parsed back.  Slanted through
    strings are listed on a legend line since brackets cannot show them.
    """
    n = t.n
    cw = len(str(n)) + 2
    width = (n - 1) * cw + len(str(n)) + 1

    def col(i):
        return (i - 1) * cw

    def label_row(prime=""):
        return "".join(f"{i}{prime}".ljust(cw)
                       for i in range(1, n + 1)).rstrip()

    uppers, lowers, throughs = [], [], []
    for u, v in t.blocks:           # u comes first in boundary order
        if u > 0 and v > 0:
            uppers.append((u, v))
        elif u < 0 and v < 0:
            lowers.append((-v, -u))
        else:
            throughs.append((u, -v))

    base = [" "] * width
    for i, _ in throughs:
        base[col(i)] = "|"

    def arc_rows(arcs):
        # row d draws the arcs enclosed by d others, those open at its left end
        rows, ends = [], []
        for a, b in sorted(arcs):
            while ends and ends[-1] < a:
                ends.pop()
            if len(ends) == len(rows):
                rows.append(base[:])
            x, y = col(a), col(b)
            rows[len(ends)][x:y + 1] = "[" + "-" * (y - x - 1) + "]"
            ends.append(b)
        return ["".join(row).rstrip() for row in rows]

    lines = [label_row(), *arc_rows(uppers)]
    if throughs:
        if all(i == j for i, j in throughs):
            lines.append("".join(base).rstrip())
        else:
            lines.append("strings: " +
                         " ".join(f"{i}-{j}'" for i, j in sorted(throughs)))
    lines += reversed(arc_rows(lowers))
    lines.append(label_row("'"))
    return "\n".join(lines)


def integer(text):
    """An integer option, read only in the spelling `str(int)` gives it."""
    v = _canonical_int(text)
    if v is None:
        raise ValueError(text)      # argparse names the option and `text`
    return v


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tln",
        description="Temperley-Lieb diagram calculus, normal forms and checks")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help, *positionals, n=False, doc=True):
        # `degree` is the one integer positional
        p = sub.add_parser(name, help=help)
        for pos in positionals:
            p.add_argument(pos, type=integer if pos == "degree" else str)
        if n:
            p.add_argument("--n", type=integer, required=True, help="degree")
        if doc:
            p.add_argument("--format", choices=("text", "doc"), default="text")
        p.set_defaults(fn=fn, format="text")
        return p

    command("eval", _cmd_eval, "evaluate a word to a diagram and loop count",
            "word", n=True)
    p = command("nf", _cmd_nf, "normal form of a word", "word", n=True)
    p.add_argument("--cert", help="write the derivation certificate here")
    command("eq", _cmd_eq, "decide equivalence of two words",
            "word1", "word2", n=True)
    command("mul", _cmd_mul, "multiply two tangle files", "left", "right")
    command("dagger", _cmd_dagger, "reflect a tangle file", "tangle")
    command("factorize", _cmd_factorize, "arc tuples of a tangle file",
            "tangle")
    command("build", _cmd_build,
            "tangle of a balanced tuple pair, each like (5,3,2) or ()",
            "x", "y", n=True)
    command("enumerate", _cmd_enumerate, "all tangles of a degree", "degree")
    p = command("verify", _cmd_verify, "presentation checks, optional fuzzing",
                "degree")
    p.add_argument("--fuzz", type=integer, default=0, metavar="N")
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--max-len", type=integer, default=50)
    p.add_argument("--timings", action="store_true",
                   help="include elapsed times (not byte-reproducible)")
    p = command("alg", _cmd_alg, "algebra element of a hook word", "word",
                n=True)
    p.add_argument("--delta", type=rational, required=True,
                   help="rational, e.g. 2 or 1/3")
    command("render", _cmd_render,
            "ascii arc diagram of tangle text or of a file containing it",
            "tangle", doc=False)
    p = command("check-cert", _cmd_check_cert,
                "replay a certificate from the start word it claims",
                "cert", "word", n=True, doc=False)
    p.add_argument("--family", choices=sorted(FAMILY_NAMES), default=None)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "n" in vars(args):
            _check_degree(args.n)
        code, doc, text = args.fn(args)
        if args.format == "doc":
            out = json.dumps(doc(), sort_keys=True)
        else:
            out = text() if text else None
    except (TLError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILED if isinstance(exc, BudgetExceeded) else USAGE_ERROR
    except Exception as exc:
        # never exit 1, which means "not equal", on a failure of our own
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    if out is not None:
        print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
