"""Batch command-line front end.

Exit codes: 0 success (or `eq` decided equal), 1 `eq` decided not-equal,
2 usage or parse error, 3 a verification or certificate check failed,
4 internal error (an unexpected exception, reported on one line).
Words are single quoted arguments in the token grammar `L<i> R<i> E<i>`
(case-insensitive, `1` for the empty word); tangles travel in their
one-line text format.  `--format doc` switches to structured JSON output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .algebra import alg_eval_word, element_to_text
from .errors import TLError
from .rewrite import (
    check_derivation,
    derivation_from_text,
    derivation_to_text,
    equal_words,
    normal_form,
    normal_form_E,
)
from .tangles import (
    boundary_tuples,
    build_tangle,
    compose,
    dagger,
    factorize,
    tangle_from_text,
    tangle_to_doc,
    tangle_to_text,
)
from .tuples import check_tuple
from .verify import enumerate_TL, fuzz_words, verify_presentation
from .words import Word, evaluate, word_from_text, word_to_text

USAGE_ERROR = 2
CHECK_FAILED = 3
INTERNAL_ERROR = 4


def _parse_word(n, text):
    if n is None:
        raise SystemExit(_usage("this command needs --n <degree>"))
    return word_from_text(n, text)


def _usage(msg):
    print(f"error: {msg}", file=sys.stderr)
    return USAGE_ERROR


def _read_tangle_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return tangle_from_text(fh.read().strip())


def _parse_entries(text):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad tuple token {text!r}; expected like (5,3,2) or ()")
    body = text[1:-1].strip()
    return [int(tok) for tok in body.split(",")] if body else []


def _emit_tangle(t, fmt, extra=None):
    if fmt == "doc":
        doc = {"tangle": tangle_to_doc(t)}
        if extra:
            doc.update(extra)
        print(json.dumps(doc, sort_keys=True))
    else:
        print(tangle_to_text(t))
        for k, v in (extra or {}).items():
            print(f"{k}={v}")


def _nf_line(x, y):
    return f"x={x} y={y}"


def _cmd_eval(args):
    w = _parse_word(args.n, args.word)
    t, m = evaluate(w)
    _emit_tangle(t, args.format, {"m": m})
    return 0


def _cmd_nf(args):
    w = _parse_word(args.n, args.word)
    if w.letters and w.alphabets() <= {"E"}:
        nf, canonical, deriv = normal_form_E(w)
    else:
        nf, deriv = normal_form(w)
        canonical = nf.word
    if args.cert:
        with open(args.cert, "w", encoding="utf-8") as fh:
            fh.write(derivation_to_text(deriv))
    if args.format == "doc":
        print(json.dumps({
            "x": list(nf.x.entries), "y": list(nf.y.entries),
            "word": word_to_text(nf.word),
            "canonical": word_to_text(canonical),
        }, sort_keys=True))
    else:
        print(_nf_line(nf.x, nf.y))
    return 0


def _cmd_eq(args):
    w1 = _parse_word(args.n, args.word1)
    w2 = _parse_word(args.n, args.word2)
    res = equal_words(w1, w2)
    if args.format == "doc":
        doc = {"equal": res.equal}
        if res.witness:
            doc["witness"] = [tangle_to_doc(t) for t in res.witness]
        print(json.dumps(doc, sort_keys=True))
    elif res.equal:
        print("equal")
    else:
        print("not-equal")
        for t in res.witness:
            print(tangle_to_text(t))
    return 0 if res.equal else 1


def _cmd_mul(args):
    a = _read_tangle_file(args.left)
    b = _read_tangle_file(args.right)
    t, m = compose(a, b)
    _emit_tangle(t, args.format, {"m": m})
    return 0


def _cmd_dagger(args):
    _emit_tangle(dagger(_read_tangle_file(args.tangle)), args.format)
    return 0


def _cmd_factorize(args):
    x, y = factorize(_read_tangle_file(args.tangle))
    if args.format == "doc":
        print(json.dumps({"x": list(x.entries), "y": list(y.entries)},
                         sort_keys=True))
    else:
        print(_nf_line(x, y))
    return 0


def _cmd_build(args):
    if args.n is None:
        return _usage("build needs --n <degree>")
    x = check_tuple(args.n, _parse_entries(args.x))
    y = check_tuple(args.n, _parse_entries(args.y))
    _emit_tangle(build_tangle(x, y), args.format)
    return 0


def _cmd_enumerate(args):
    tangles = enumerate_TL(args.degree)
    if args.format == "doc":
        print(json.dumps({"n": args.degree, "count": len(tangles),
                          "tangles": [tangle_to_doc(t) for t in tangles]},
                         sort_keys=True))
    else:
        for t in tangles:
            print(tangle_to_text(t))
    return 0


def _cmd_verify(args):
    report = verify_presentation(args.degree)
    ok = report.passed
    if args.format == "doc":
        docs = {"presentation": report.to_doc(timings=args.timings)}
        if args.fuzz:
            fr = fuzz_words(args.degree, args.fuzz,
                            max_len=args.max_len, seed=args.seed)
            docs["fuzz"] = fr.to_doc(timings=args.timings)
            ok = ok and fr.passed
        print(json.dumps(docs, sort_keys=True))
    else:
        print(report.to_text(timings=args.timings))
        if args.fuzz:
            fr = fuzz_words(args.degree, args.fuzz,
                            max_len=args.max_len, seed=args.seed)
            print(fr.to_text(timings=args.timings))
            ok = ok and fr.passed
    return 0 if ok else CHECK_FAILED


def _cmd_alg(args):
    w = _parse_word(args.n, args.word)
    delta = Fraction(args.delta)
    elem = alg_eval_word(w, delta)
    if args.format == "doc":
        print(json.dumps({
            "delta": str(delta), "n": elem.n,
            "terms": [{"coeff": str(c), "tangle": tangle_to_doc(t)}
                      for t, c in elem.items_sorted()],
        }, sort_keys=True))
    else:
        sys.stdout.write(element_to_text(elem, delta))
    return 0


def _cmd_render(args):
    text = args.tangle
    if not text.lstrip().startswith("n="):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    print(render_tangle(tangle_from_text(text)))
    return 0


def _cmd_check_cert(args):
    with open(args.cert, "r", encoding="utf-8") as fh:
        text = fh.read()
    start = _parse_word(args.n, args.word)
    deriv = derivation_from_text(text, start)
    try:
        end = check_derivation(deriv, args.family)
    except TLError as exc:
        print(f"certificate rejected: {exc}", file=sys.stderr)
        return CHECK_FAILED
    print(f"ok: end={word_to_text(end)}")
    return 0


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
        row = [" "] * width
        for i in range(1, n + 1):
            for k, ch in enumerate(str(i) + prime):
                if col(i) + k < width:
                    row[col(i) + k] = ch
        return "".join(row).rstrip()

    uppers, lowers, throughs = [], [], []
    for u, v in t.blocks:
        if u > 0 and v > 0:
            uppers.append((min(u, v), max(u, v)))
        elif u < 0 and v < 0:
            lowers.append((min(-u, -v), max(-u, -v)))
        else:
            throughs.append((u, -v))

    def depth_rows(arcs):
        rows = {}
        for a, b in sorted(arcs):
            d = sum(1 for c, e in arcs if c < a and b < e)
            rows.setdefault(d, []).append((a, b))
        return [rows[d] for d in sorted(rows)]

    def arc_row(arcs):
        row = [" "] * width
        for i, _ in throughs:
            row[col(i)] = "|"
        for a, b in arcs:
            row[col(a)] = "["
            row[col(b)] = "]"
            for c in range(col(a) + 1, col(b)):
                row[c] = "-"
        return "".join(row).rstrip()

    lines = [label_row()]
    for arcs in depth_rows(uppers):
        lines.append(arc_row(arcs))
    if throughs:
        if all(i == j for i, j in throughs):
            row = [" "] * width
            for i, _ in throughs:
                row[col(i)] = "|"
            lines.append("".join(row).rstrip())
        else:
            lines.append("strings: " +
                         " ".join(f"{i}-{j}'" for i, j in sorted(throughs)))
    for arcs in reversed(depth_rows(lowers)):
        lines.append(arc_row(arcs))
    lines.append(label_row("'"))
    return "\n".join(lines)


def _add_word_flags(p):
    p.add_argument("--n", type=int, default=None, help="degree of the word")
    p.add_argument("--format", choices=("text", "doc"), default="text")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tln",
        description="Temperley-Lieb diagram calculus, normal forms and checks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a word to a diagram and loop count")
    p.add_argument("word")
    _add_word_flags(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("nf", help="normal form of a word")
    p.add_argument("word")
    p.add_argument("--cert", help="write the derivation certificate here")
    _add_word_flags(p)
    p.set_defaults(fn=_cmd_nf)

    p = sub.add_parser("eq", help="decide equivalence of two words")
    p.add_argument("word1")
    p.add_argument("word2")
    _add_word_flags(p)
    p.set_defaults(fn=_cmd_eq)

    p = sub.add_parser("mul", help="multiply two tangle files")
    p.add_argument("left")
    p.add_argument("right")
    _add_word_flags(p)
    p.set_defaults(fn=_cmd_mul)

    p = sub.add_parser("dagger", help="reflect a tangle file")
    p.add_argument("tangle")
    _add_word_flags(p)
    p.set_defaults(fn=_cmd_dagger)

    p = sub.add_parser("factorize", help="arc tuples of a tangle file")
    p.add_argument("tangle")
    _add_word_flags(p)
    p.set_defaults(fn=_cmd_factorize)

    p = sub.add_parser("build", help="tangle of a balanced tuple pair")
    p.add_argument("x", help="like (5,3,2) or ()")
    p.add_argument("y")
    _add_word_flags(p)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("enumerate", help="all tangles of a degree")
    p.add_argument("degree", type=int)
    _add_word_flags(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", help="presentation checks, optional fuzzing")
    p.add_argument("degree", type=int)
    p.add_argument("--fuzz", type=int, default=0, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=int, default=50)
    p.add_argument("--timings", action="store_true",
                   help="include elapsed times (not byte-reproducible)")
    _add_word_flags(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("alg", help="algebra element of a hook word")
    p.add_argument("word")
    p.add_argument("--delta", required=True, help="rational, e.g. 2 or 1/3")
    _add_word_flags(p)
    p.set_defaults(fn=_cmd_alg)

    p = sub.add_parser("render", help="ascii arc diagram of a tangle")
    p.add_argument("tangle", help="tangle text or a file containing it")
    _add_word_flags(p)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("check-cert", help="replay a derivation certificate")
    p.add_argument("cert")
    p.add_argument("word", help="the start word the certificate claims")
    p.add_argument("--family", choices=("Omega", "Xi"), default=None)
    _add_word_flags(p)
    p.set_defaults(fn=_cmd_check_cert)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except (TLError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        # never exit 1, which means "not equal", on a failure of our own
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
