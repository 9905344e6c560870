"""The towercodes benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src`
directory.  It runs passes until S seconds have gone by, each pass a fresh
worker process (workloads.py) that times and checks every request of the
workload's seeded list.  Only whole passes count, so every run measures the
same mix of requests.  Before each pass it times set-up: fresh interpreters,
each measured from launch until it has imported towercodes and built the
CLI parser.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and prints the per-layer breakdown
from the traced ones, the tracing overhead, and checks that the exact work
counts repeat from pass to pass.  The last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Any failed check makes the
exit code 1; a checkout without the package source makes it 2.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("enumerate", "closed_form", "sweep", "gauss_norms")
# Outputs of every pass of seed 1 are digested and compared to these.
DIGEST_SEED = 1
# set-up launches before every pass, so they sample the whole run
SETUP_LAUNCHES_PER_PASS = 2
PASS_TIMEOUT_S = 150
# request_s_tail needs this many samples; fewer and it is not reported
TAIL_MIN_SAMPLES = 20

SETUP_SNIPPET = ("import towercodes.cli as cli; cli._parser(); "
                 "print(cli.__file__, flush=True)")

# Share of traced request time that may fall outside the package's layers:
# the benchmark's call into the package plus the wrappers' own overhead.
UNATTRIBUTED_MAX = 0.05

class BenchError(Exception):
    """The benchmark itself cannot go on (missing source, broken worker)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def time_setup(launches):
    """Seconds from interpreter launch to an imported package and a built
    parser, for each of `launches` fresh interpreters."""
    samples = []
    for _ in range(launches):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                env=child_env(), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise BenchError(f"set-up failed: {err.strip()[-300:]}")
        if not Path(line.strip()).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"towercodes imported from {line.strip()}, "
                             f"not from {SRC}")
        samples.append(ready - start)
    return samples


def run_pass(workload, seed, size, traced):
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(seed),
           size, "1" if traced else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, seed, size, seconds, trace):
    """Whole passes until `seconds` have gone by, each after a few set-up
    launches.  With tracing, untraced and traced passes alternate, with at
    least two traced ones so that the work counts can be compared.

    Returns the passes as (traced, worker result) and the set-up samples.
    """
    passes, setup = [], []
    start = time.perf_counter()
    while True:
        setup += time_setup(SETUP_LAUNCHES_PER_PASS)
        traced = trace and len(passes) % 2 == 1
        passes.append((traced, run_pass(workload, seed, size, traced)))
        n_traced = sum(t for t, _ in passes)
        enough = n_traced >= 2 if trace else len(passes) >= 2
        if enough and time.perf_counter() - start >= seconds:
            return passes, setup


def load_digests():
    return json.loads((HERE / "reference" / "digests.json").read_text())


def check_passes(workload, seed, size, passes):
    """Failed request count and the reasons, over all passes, including the
    pass-level checks: outputs equal across passes and, for seed 1, equal to
    the stored digest."""
    failed = 0
    reasons = []
    digests = {p["digest"] for _, p in passes}
    want = load_digests()[size][workload] if seed == DIGEST_SEED else None
    for _, p in passes:
        bad = len(p["failures"])
        if want is not None and p["digest"] != want:
            bad = len(p["latencies"])
            reasons.append("output digest differs from the stored one")
        elif len(digests) > 1:
            bad = len(p["latencies"])
            reasons.append("outputs differ between passes of one seed")
        failed += bad
        reasons.extend(p["failures"])
    return failed, reasons


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------


def tail(latencies):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value), or None when the run holds too few samples."""
    n = len(latencies)
    if n < TAIL_MIN_SAMPLES:
        return None
    ordered = sorted(latencies)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def items_per_s(passes):
    """Items completed per second of request time."""
    return (sum(p["items"] for p in passes)
            / sum(sum(p["latencies"]) for p in passes))


def end_to_end(passes, setup_s):
    results = [p for _, p in passes]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "request_s_p50": (statistics.median(
            x for p in results for x in p["latencies"]), "s"),
        "items_per_s": (items_per_s(results), "1/s"),
        "peak_rss_mb": (max(p["rss_mb"] for p in results), "MB"),
    }


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric name -> span whose self time it reports
SELF_TIMES = {
    "field.build_s": "field.build",
    "field.subtable_s": "field.subtable",
    "field.zero_indicator_s": "field.zero_indicator",
    "field.abs_trace_s": "field.abs_trace",
    "codes.defining_set_s": "codes.defining_set",
    "codes.zero_counts_s": "codes.zero_counts",
    "codes.distribution_s": "codes.distribution",
    "codes.puncture_s": "codes.puncture",
    "cyclotomic.gauss_sum_s": "cyclotomic.gauss_sum",
    "cyclotomic.mul_s": "cyclotomic.mul",
    "cyclotomic.canonical_s": "cyclotomic.canonical",
    "cyclotomic.arith_s": "cyclotomic.arith",
    "theory.coset_sums_s": "theory.coset_sums",
    "theory.predicted_s": "theory.predicted",
    "theory.report_s": "theory.report",
}
# Exact work counts; each must repeat from pass to pass of one seed.
COUNTS = ("field.builds", "field.subtable_calls", "codes.cells",
          "cyclotomic.gauss_sums", "cyclotomic.muls", "cyclotomic.mul_coeffs",
          "cyclotomic.reductions", "cyclotomic.objects")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_figures(trace):
    """Per-layer figures of one traced pass."""
    own, counts = trace["self_s"], trace["counts"]
    out = {}
    for metric, span in SELF_TIMES.items():
        out[metric] = (own.get(span, 0.0), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(v for k, v in own.items()
                                      if k.split(".")[0] == layer), "s")
    for name in COUNTS:
        out[name] = (counts.get(name, 0), "count")
    gets = counts.get("field.gets", 0)
    out["field.cache_hit_ratio"] = (
        _ratio(gets - counts.get("field.builds", 0), gets), "ratio")
    out["codes.cells_per_s"] = (_ratio(counts.get("codes.cells", 0),
                                       own.get("codes.zero_counts", 0.0)),
                                "1/s")
    out["theory.coset_cache_hit_ratio"] = (
        _ratio(counts.get("theory.coset_hits", 0),
               counts.get("theory.coset_calls", 0)), "ratio")
    out["trace.request_s"] = (sum(d for d, _, _ in trace["requests"]), "s")
    out["trace.unattributed_s"] = (sum(g for _, _, g in trace["requests"]),
                                   "s")
    return out


def check_trace(traced):
    """Problems with the traced passes: work counts that differ between
    passes, and requests whose layer self times do not account for them."""
    problems = []
    first = traced[0]["trace"]["counts"]
    for p in traced[1:]:
        for name in COUNTS:
            if p["trace"]["counts"].get(name, 0) != first.get(name, 0):
                problems.append(f"{name} differs between passes: "
                                f"{first.get(name, 0)} vs "
                                f"{p['trace']['counts'].get(name, 0)}")
    for p in traced:
        requests = p["trace"]["requests"]
        for dur, layered, glue in requests:
            if abs(dur - layered - glue) > 1e-6 * max(dur, 1e-3):
                problems.append(f"request of {dur:.6f} s: layers account "
                                f"for {layered:.6f} s, its root for "
                                f"{glue:.6f} s")
                break
        # the root's own time, benchmark code around the call, must stay
        # small against the requests it wraps
        glue = sum(g for _, _, g in requests)
        if glue > UNATTRIBUTED_MAX * sum(d for d, _, _ in requests):
            problems.append(f"{glue:.6f} s of request time outside the "
                            f"package's layers")
    return problems


def per_layer(passes):
    traced = [p for t, p in passes if t]
    plain = [p for t, p in passes if not t]
    figures = [layer_figures(p["trace"]) for p in traced]
    out = {}
    for name, (value, unit) in figures[0].items():
        if unit != "count":  # counts repeat exactly; check_trace sees to it
            value = statistics.median(f[name][0] for f in figures)
        out[name] = (value, unit)
    out["trace.overhead_items_per_s"] = (
        items_per_s(traced) - items_per_s(plain), "1/s")
    return out, check_trace(traced)


# ---------------------------------------------------------------------------


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DIGEST_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own self-test")
    args = ap.parse_args(argv)
    size = "tiny" if args.tiny else "full"

    if not (SRC / "towercodes" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'towercodes'}",
              file=sys.stderr)
        return 2
    try:
        passes, setup_s = run_passes(args.workload, args.seed, size,
                                     args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed, reasons = check_passes(args.workload, args.seed, size, passes)
    attempted = sum(len(p["latencies"]) for _, p in passes)
    print(f"workload {args.workload}  seed {args.seed}  size {size}  "
          f"passes {len(passes)}  requests {attempted}")
    if args.trace:
        metrics, problems = per_layer(passes)
        reasons.extend(problems)
    else:
        metrics = end_to_end(passes, setup_s)
        latencies = [x for _, p in passes for x in p["latencies"]]
        top = tail(latencies)
        if top:
            print(f"request_s_tail {fmt(top[1])} s  "
                  f"(p{top[0]:.1f}, {len(latencies)} samples, 10 beyond)")
        else:
            print(f"request_s_tail not reported: {len(latencies)} samples, "
                  f"needs {TAIL_MIN_SAMPLES}")
        print(f"failed_frac {fmt(failed / attempted)} ratio "
              f"({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {fmt(value)} {unit}")
    for reason in reasons[:20]:
        print(f"FAILED: {reason}", file=sys.stderr)
    correct = not reasons and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
