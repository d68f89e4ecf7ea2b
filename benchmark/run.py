"""Benchmark of tlmonoid's certify and algebra paths.

    python3 benchmark/run.py --workload lr_certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from `src/` of
that checkout and from nowhere else.  One caller runs items in a closed
loop, one at a time, in this process: the next item starts when the last
one has finished.  Every output is checked against `oracle.py`, untimed.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
untraced phase and then a traced phase over the count set, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the lines
before it repeat every metric with its unit, the error rate, the sample
count, and the machine, Python, revision and seed.  A record of the run
(and the spans of a traced run) is written under `benchmark/out/`.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_ITEMS = 100         # ten samples beyond the 90th percentile
SETUP_RUNS = 9          # fresh interpreters per run; setup_s is their median
IMPORT_RUNS = 5
CLI_WORDS = 6
# Claims of a gain are confirmed on this seed, which development never used.
HELD_OUT_SEED = 7207

END_TO_END = {
    "setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
    "item_p90_ms": "ms", "peak_rss_mb": "MB", "cert_bytes_per_item": "B",
}
RELATIONS = ("L1", "L2", "L3", "R1", "R2", "R3", "RL1", "RL2", "RL3", "A",
             "E1", "E2", "E3")
# per-layer time metric -> the span it sums, as a mean per count-set item
SPAN_MS = {
    "tangles.compose_ms": "tangles.compose",
    "words.evaluate_ms": "words.evaluate",
    "rewrite.normal_form_ms": "rewrite.normal_form",
    "rewrite.separate_ms": "rewrite.separate",
    "rewrite.normal_form_E_ms": "rewrite.normal_form_E",
    "rewrite.to_text_ms": "rewrite.derivation_to_text",
    "rewrite.from_text_ms": "rewrite.derivation_from_text",
    "rewrite.check_derivation_ms": "rewrite.check_derivation",
    "etranslate.e_certificate_ms": "etranslate.e_certificate",
    "etranslate.lifted_nf_ms": "etranslate.lifted_nf",
    "trace.item_self_ms": "item",
}


def load_package():
    """Import tlmonoid from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "tlmonoid", "__init__.py")):
        sys.exit(f"error: no tlmonoid package under {SRC}")
    sys.path.insert(0, SRC)
    import tlmonoid
    if not os.path.abspath(tlmonoid.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: tlmonoid was imported from {tlmonoid.__file__}")


def attempt(wl, inp, span=None):
    try:
        return (wl.item(inp, span) if span else wl.item(inp)), None
    except Exception as exc:        # any exception fails the item
        return None, f"{type(exc).__name__}: {exc}"


class Phase:
    """Outcome of running items: latencies, failures and count-set counts.

    The first output of each distinct input is checked against the oracle
    when it appears, untimed; only its small key is kept, and every later
    output of that input must have the same key.  A phase given a
    `reference` checks its outputs against the reference's keys instead.
    """

    def __init__(self, reference=None):
        self.reference = reference
        self.latencies = []
        self.scaled = []            # latencies scaled to nominal speed
        self.factors = []           # speed scale factor of each item
        self.failures = []          # (item number, reason)
        self.counts = []            # per count-set item, None if it failed
        self.keys = {}              # input index -> key of its checked output
        self.caches = None

    def record(self, wl, inputs, i, out, err):
        idx = i % len(inputs)
        if err is None:
            try:
                err = self._verify(wl, inputs[idx], idx, out)
            except Exception as exc:    # a malformed output fails the item
                err = f"checking the output raised {type(exc).__name__}: {exc}"
        if err is not None:
            self.failures.append((i, err))
        if i < wl.count_set:
            self.counts.append(None if err else wl.counts(inputs[idx], out))

    def _verify(self, wl, inp, idx, out):
        key = wl.key(out)
        keys = self.keys if self.reference is None else self.reference.keys
        if idx not in keys and self.reference is None:
            if not wl.check(inp, out):
                return "output differs from the oracle"
            keys[idx] = key
        if keys.get(idx) != key:
            return "output differs from the checked output of its input"
        return None


def cache_snapshot():
    from tlmonoid import relation_by_id, relation_index, xi_template
    return {name: fn.cache_info()._asdict() for name, fn in (
        ("relation_index", relation_index), ("relation_by_id", relation_by_id),
        ("xi_template", xi_template))}


def untraced_phase(wl, inputs, seconds):
    """Closed loop for `seconds` of item time, and over the count set at least.

    Checks and counting between items are not item time.
    """
    ph = Phase()
    need = max(MIN_ITEMS, wl.count_set)
    sp = speed.Speed()
    busy = 0.0
    i = 0
    while i < need or busy < seconds:
        inp = inputs[i % len(inputs)]
        t0 = time.perf_counter()
        out, err = attempt(wl, inp)
        t = time.perf_counter() - t0
        ph.latencies.append(t)
        busy += t
        ph.record(wl, inputs, i, out, err)
        i += 1
        if i == wl.count_set:
            ph.caches = cache_snapshot()
        sp.tick(i, t)
    ph.factors = sp.factors(i)
    ph.scaled = [t * f for t, f in zip(ph.latencies, ph.factors)]
    return ph


def traced_phase(wl, inputs, tracer, reference):
    """The count set again, with spans around every call, then the probes."""
    ph = Phase(reference)
    probe = Counter()
    sp = speed.Speed()
    for i in range(wl.count_set):
        inp = inputs[i % len(inputs)]
        t0 = time.perf_counter()
        with tracer.span("item", i):
            out, err = attempt(wl, inp, tracer.span)
        ph.record(wl, inputs, i, out, err)
        if err is None:
            probe += wl.probes(inp, out, lambda name: tracer.span(name, i))
        sp.tick(i + 1, time.perf_counter() - t0)
    ph.factors = sp.factors(wl.count_set)
    return ph, probe


def total_counts(counts):
    tot = Counter()
    for c in counts:
        tot += c or Counter()
    return tot


def fresh_seconds(argv, env=None):
    """Wall time of one fresh interpreter running `argv`; it must exit 0."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable] + argv, capture_output=True,
                          text=True, cwd=ROOT, env=env, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:2]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}")
    return elapsed, proc.stdout


def scaled_seconds(argv, env=None):
    """`fresh_seconds`, scaled to nominal speed; (seconds, stdout)."""
    (t, out), f = speed.around(lambda: fresh_seconds(argv, env))
    return t * f, out


def setup_seconds(name):
    """Medians over fresh interpreters of import plus warm-up, timed inside.

    Returns (scaled to nominal speed, as measured).
    """
    probe = os.path.join(HERE, "setup_probe.py")
    runs = [speed.around(lambda: float(fresh_seconds([probe, name])[1]))
            for _ in range(SETUP_RUNS)]
    return (statistics.median(t * f for t, f in runs),
            statistics.median(t for t, _ in runs))


def import_ms():
    """Median fresh `import tlmonoid` minus a bare interpreter, in ms."""
    env = dict(os.environ, PYTHONPATH=SRC)
    bare, full = [], []
    for _ in range(IMPORT_RUNS):
        bare.append(scaled_seconds(["-c", "pass"], env)[0])
        full.append(scaled_seconds(["-c", "import tlmonoid"], env)[0])
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def cli_roundtrip(wl, inputs, reference, tag):
    """`tln nf --cert` then `tln check-cert`, one at a time; (ms, failures)."""
    from tlmonoid import word_to_text
    env = dict(os.environ, PYTHONPATH=SRC)
    cert = os.path.join(OUT, f"{tag}.cert")
    times, failures = [], []
    for idx in range(CLI_WORDS):
        w = inputs[idx]
        text, n = word_to_text(w), str(w.n)
        x, y, end = reference.keys[idx][:3]
        want = (f"x=({','.join(map(str, x))}) y=({','.join(map(str, y))})\n",
                f"ok: end={end}\n")
        try:
            t_nf, got_nf = scaled_seconds(
                ["-m", "tlmonoid", "nf", "--n", n, text, "--cert", cert], env)
            t_ck, got_ck = scaled_seconds(
                ["-m", "tlmonoid", "check-cert", cert, "--n", n, text], env)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            failures.append((idx, f"cli: {exc}"))
            continue
        if (got_nf, got_ck) != want:
            failures.append((idx, "cli output differs from the oracle"))
        times.append((t_nf + t_ck) * 1e3)
    if os.path.exists(cert):
        os.remove(cert)
    return (statistics.median(times) if times else 0.0), failures


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def counts_match_earlier_runs(wl, seed, counts):
    """Compare count-set counts with those of earlier runs of the same code.

    The first run of a workload and seed, traced or not, leaves a digest of
    its counts under `benchmark/out/`, keyed by the package source and the
    workload code; every later run of the same code must match it.
    """
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "tlmonoid", "*.py"))) + [
            os.path.join(HERE, "workloads.py")]:
        with open(path, "rb") as fh:
            h.update(fh.read())
    path = os.path.join(OUT, f"counts-{wl.name}-seed{seed}-"
                             f"{h.hexdigest()[:16]}.json")
    digest = hashlib.sha256(json.dumps(
        [sorted(c.items()) if c else None for c in counts]).encode()
    ).hexdigest()
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["digest"] == digest
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"digest": digest}, fh)
    return True


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(wl, ph, lat, rss_mb, setup_s):
    tot = total_counts(ph.counts)
    return {
        "setup_s": setup_s,
        "items_per_s": len(lat) / sum(lat),
        "item_p50_ms": statistics.median(lat) * 1e3,
        "item_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "peak_rss_mb": rss_mb,
        "cert_bytes_per_item": tot["cert_bytes"] / wl.count_set,
    }


def per_layer(wl, untraced, traced, probe, tracer, warm_factor, extra):
    m = wl.count_set

    def factor(item):               # warm-up spans have no item
        return warm_factor if item is None else traced.factors[item]

    span_s = tracer.per_name(factor)
    ms = {k: span_s.get(v, 0.0) * 1e3 / m for k, v in SPAN_MS.items()}
    tot = total_counts(traced.counts)
    steps = [c["cert_steps"] for c in traced.counts if c]
    alg = {d: [(s[2] - s[1]) * factor(s[4]) for s in tracer.spans
               if s[0] == f"algebra.alg_mul.delta_{d}"] for d in ("2", "1-3")}
    alg_total_ms = sum(map(sum, alg.values())) * 1e3 / m
    caches = untraced.caches
    rel_hits = sum(caches[k]["hits"] for k in ("relation_index",
                                               "relation_by_id"))
    rel_calls = rel_hits + sum(caches[k]["misses"] for k in (
        "relation_index", "relation_by_id"))
    xi = caches["xi_template"]
    items = [(s[2] - s[1]) * factor(s[4]) for s in tracer.spans
             if s[0] == "item"]
    out = {
        "tangles.compose_ms": ms["tangles.compose_ms"],
        "tangles.compose_calls": probe["compose_calls"],
        "tangles.loops_closed": probe["loops_closed"],
        "algebra.alg_mul_ms.delta_2": ratio(sum(alg["2"]) * 1e3, len(alg["2"])),
        "algebra.alg_mul_ms.delta_1-3": ratio(sum(alg["1-3"]) * 1e3,
                                              len(alg["1-3"])),
        "algebra.self_ms": alg_total_ms - ms["tangles.compose_ms"]
        if alg_total_ms else 0.0,
        "algebra.merge_ratio": ratio(tot["output_terms"], tot["pairs"]),
        "words.evaluate_ms": ms["words.evaluate_ms"],
        "words.letters_evaluated": probe["letters_evaluated"],
    }
    out.update({f"relations.steps.{r}": tot[r] for r in RELATIONS})
    out["relations.cache_hit_ratio"] = ratio(rel_hits, rel_calls)
    out.update({k: ms[k] for k in (
        "rewrite.normal_form_ms", "rewrite.separate_ms")})
    out["rewrite.balance_ms"] = (ms["rewrite.normal_form_ms"]
                                 - ms["rewrite.separate_ms"])
    out["rewrite.cert_steps_mean"] = ratio(sum(steps), len(steps))
    out["rewrite.cert_steps_max"] = max(steps, default=0)
    out.update({k: ms[k] for k in (
        "rewrite.normal_form_E_ms", "rewrite.to_text_ms",
        "rewrite.from_text_ms", "rewrite.check_derivation_ms",
        "etranslate.e_certificate_ms", "etranslate.lifted_nf_ms")})
    out["etranslate.template_hit_ratio"] = ratio(
        xi["hits"], xi["hits"] + xi["misses"])
    out["verify.enumerate_TL_ms"] = span_s.get("verify.enumerate_TL", 0.0) * 1e3
    out.update(extra)
    out["trace.overhead_ratio"] = sum(untraced.scaled[:m]) / sum(items)
    out["trace.item_self_ms"] = ms["trace.item_self_ms"]
    return out


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if "_ms" in name:
        return "ms"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    load_package()
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"pick from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    os.makedirs(OUT, exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "revision": git_revision(), "seed": args.seed,
           "held_out_seed": HELD_OUT_SEED, "workload": wl.name}

    tracer = Tracer()
    if args.trace:
        with tracer.span("warm_up"):
            _, warm_factor = speed.around(lambda: wl.warm_up(tracer.span))
    else:
        wl.warm_up()
    inputs = wl.inputs(args.seed)
    gc.collect()
    gc.freeze()     # keep the inputs out of the collector's scans
    setup_s = None if args.trace else setup_seconds(wl.name)

    untraced = untraced_phase(wl, inputs, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(untraced.latencies)
    failures = list(untraced.failures)
    counts_agree = counts_match_earlier_runs(wl, args.seed, untraced.counts)
    if args.trace:
        traced, probe = traced_phase(wl, inputs, tracer, untraced)
        counts_agree &= traced.counts == untraced.counts
        attempted += wl.count_set
        failures += traced.failures
        extra = {"cli.import_ms": import_ms(), "cli.nf_check_roundtrip_ms": 0.0}
        if wl.name == "lr_certify":
            ms, cli_fail = cli_roundtrip(wl, inputs, untraced, tag)
            extra["cli.nf_check_roundtrip_ms"] = ms
            attempted += CLI_WORDS
            failures += cli_fail
        metrics = per_layer(wl, untraced, traced, probe, tracer, warm_factor,
                            extra)
        tracer.dump(os.path.join(OUT, f"{tag}-spans.json"))
        unscaled = {}
    else:
        metrics = end_to_end(wl, untraced, untraced.scaled, rss_mb, setup_s[0])
        unscaled = end_to_end(wl, untraced, untraced.latencies, rss_mb,
                              setup_s[1])

    counts = total_counts(untraced.counts)
    record = {"env": env, "samples": len(untraced.latencies),
              "error_rate": len(failures) / attempted,
              "counts_agree": counts_agree, "counts": dict(sorted(counts.items())),
              "failures": failures[:20],
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in metrics.items()},
              "unscaled_metrics": unscaled,
              "speed_factor_median": statistics.median(untraced.factors)}
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# samples={record['samples']} attempted={attempted} "
          f"failed={len(failures)} error_rate={record['error_rate']:.4g}")
    if not counts_agree:
        print("# deterministic counts differ between phases or from an "
              "earlier run of the same code and seed")
    for idx, why in failures[:5]:
        print(f"# failed item {idx}: {why}")
    print(f"# times are scaled to nominal speed; median factor "
          f"{record['speed_factor_median']:.4g}")
    for k, v in record["metrics"].items():
        raw = f" (unscaled {unscaled[k]:.6g})" if k in unscaled else ""
        print(f"# {k} = {v['value']:.6g} {v['unit']}{raw}")
    print(json.dumps({"correct": not failures and counts_agree,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
