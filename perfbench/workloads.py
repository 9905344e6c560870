"""Workloads of the towercodes benchmark: seeded request lists, the output
check of every request, and one timed pass over a list.

Run as a script, this file is the worker that run.py starts in a fresh
interpreter for every pass, so each pass begins with every package cache
(`get_field`, `coset_sums`, ring data) empty:

    python3 perfbench/workloads.py WORKLOAD SEED SIZE TRACE

It prints one JSON line: per-request latencies, items completed, failures
with their reasons, a digest of all outputs, peak resident memory and, when
TRACE is 1, the span summary of the pass.

Workloads (why each exists is in README.md):
  enumerate    `towercodes code` on towers with q^k in [2^12, 2^14]
  closed_form  `predicted_distribution` on towers with large middle fields
  sweep        `towercodes search --budget 4096`, CSV against a reference
  gauss_norms  G(psi_j) * conj(G(psi_j)) == p^m over every field p^m <= 2^10
"""

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from math import gcd
from pathlib import Path

# Entry points are looked up on the package at call time, so that the
# tracer's wrappers, installed on the package, see every call.
import towercodes
from towercodes import cli, theory

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

WORKLOADS = ("enumerate", "closed_form", "sweep", "gauss_norms")
SIZES = ("full", "tiny")

# Each pass holds few requests, so their costs are chosen to put several
# towers of nearly equal cost around the median request: then the median
# averages over them instead of following one request, and it moves with
# the code rather than with the machine's momentary speed.

# Towers (p, e, f, k): q^k in [2^12, 2^14], f in {2, 3}, k > f, and
# N = (q^f - 1)/(q - 1) <= 7, so enumeration dominates and the coset sums
# stay small.
ENUMERATE_TOWERS = {
    "full": ((2, 1, 2, 12), (2, 1, 2, 14), (2, 1, 3, 12), (2, 2, 2, 6),
             (3, 1, 2, 8), (5, 1, 2, 6)),
    "tiny": ((2, 1, 2, 4), (2, 1, 2, 6), (2, 2, 2, 4), (3, 1, 2, 4),
             (2, 1, 3, 6)),
}

# Towers with k/f >= 2 whose coset sums need real Gauss-sum products: three
# with large middle fields (N = 85, 63, 40) above the median, five of about
# equal cost around it, and three cheap ones below.  The f = 2 and binary
# f = 3 towers also have a family display to compare against.  Towers that
# share a top field come after the one that builds it.
CLOSED_FORM_TOWERS = {
    "full": ((2, 1, 6, 12), (3, 1, 4, 8), (2, 2, 4, 8), (2, 1, 5, 15),
             (2, 1, 2, 16), (5, 1, 3, 6), (2, 1, 5, 10), (3, 1, 2, 10),
             (3, 1, 3, 9), (2, 1, 3, 15), (2, 4, 2, 4)),
    "tiny": ((2, 1, 2, 4), (2, 1, 3, 6), (3, 1, 2, 4), (2, 2, 2, 4),
             (2, 1, 4, 8)),
}

SWEEP_BUDGET = {"full": 4096, "tiny": 64}

GAUSS_MAX_ORDER = {"full": 1 << 10, "tiny": 1 << 5}
GAUSS_PRIMES = (2, 3, 5, 7)


def _shifts(tower):
    """Every request variant of a tower as (a, punctured)."""
    p, e, f, k = tower
    q = p ** e
    out = [(0, False)]
    if q > 2:
        out.append((0, True))
    if gcd(k // f, q - 1) == 1:
        out.extend((a, False) for a in range(1, q))
    return out


def make_requests(workload, seed, size):
    """The request list of one pass.  Same arguments, same list.

    Where a pass holds only a few requests, the order is fixed and the seed
    draws values that leave the cost of each request unchanged (the nonzero
    shift; the variant of a closed-form tower), so that the figures of
    different seeds are comparable.
    """
    rng = random.Random(f"{workload}:{seed}")
    reqs = []
    if workload == "enumerate":
        # each tower: the a = 0 code, one seeded nonzero shift, and the
        # punctured a = 0 code where q > 2 makes puncturing shrink it
        for tower in ENUMERATE_TOWERS[size]:
            q = tower[0] ** tower[1]
            reqs.append({"tower": tower, "a": 0, "punctured": False})
            reqs.append({"tower": tower, "a": rng.randrange(1, q),
                         "punctured": False})
            if q > 2:
                reqs.append({"tower": tower, "a": 0, "punctured": True})
    elif workload == "closed_form":
        # one request per tower, so each pays its own coset sums; every
        # variant of a tower costs the same
        for tower in CLOSED_FORM_TOWERS[size]:
            a, punctured = rng.choice(_shifts(tower))
            reqs.append({"tower": tower, "a": a, "punctured": punctured})
    elif workload == "sweep":
        return [{"budget": SWEEP_BUDGET[size]}]
    elif workload == "gauss_norms":
        # the seed fixes the order; thousands of requests per pass keep the
        # order's effect on field-cache misses out of the median
        for p in GAUSS_PRIMES:
            m = 1
            while p ** m <= GAUSS_MAX_ORDER[size]:
                reqs.extend({"p": p, "m": m, "j": j}
                            for j in range(1, p ** m - 1))
                m += 1
        rng.shuffle(reqs)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return reqs


# ---------------------------------------------------------------------------
# running one request
# ---------------------------------------------------------------------------


def code_argv(req):
    p, e, f, k = req["tower"]
    argv = ["code", "--p", str(p), "--e", str(e), "--f", str(f),
            "--k", str(k), "--a", str(req["a"])]
    return argv + ["--punctured"] if req["punctured"] else argv


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def execute(workload, req):
    """Run one request against the package; return its raw result."""
    if workload == "enumerate":
        return _cli(code_argv(req))
    if workload == "sweep":
        return _cli(["search", "--budget", str(req["budget"])])
    if workload == "closed_form":
        return towercodes.predicted_distribution(
            towercodes.TowerSpec(*req["tower"]), req["a"],
            punctured=req["punctured"])
    p, m, j = req["p"], req["m"], req["j"]
    g = towercodes.gauss_sum(towercodes.get_field(p, m), j)
    norm = g * g.conj()
    return norm == p ** m, norm


# ---------------------------------------------------------------------------
# output checks: each returns (items completed, output text for the digest,
# list of problems); an empty list means the request passed
# ---------------------------------------------------------------------------


def check_distribution(q, n, dim, counts):
    """Invariants every weight distribution of a linear [n, dim] code over
    F_q without zero coordinates satisfies; `counts` maps weight to count,
    the zero word included."""
    problems = []
    if counts.get(0) != 1:
        problems.append(f"zero word counted {counts.get(0)} times")
    if sum(counts.values()) != q ** dim:
        problems.append(f"codeword total {sum(counts.values())} != q^dim")
    weights = [w for w, c in counts.items() if w and c]
    if not weights or max(weights) > n or min(weights) < 1:
        problems.append("weights outside [1, n]")
        return problems
    if n - dim - min(weights) + 1 < 0:
        problems.append("Singleton bound violated")
    moment = sum(w * c for w, c in counts.items())
    if moment != n * (q - 1) * q ** (dim - 1):
        problems.append(f"first Pless moment {moment} != n(q-1)q^(dim-1)")
    return problems


def check_code_output(req, rc, stdout, stderr):
    """`towercodes code` JSON output for request `req`."""
    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()[:200]}"]
    try:
        doc = json.loads(stdout)
        params, verdicts = doc["params"], doc["theory"]
        n, dim, dmin = doc["n"], doc["dim"], doc["dmin"]
        slack = verdicts["singleton_slack"]
        applicable, match = verdicts["applicable"], verdicts["match"]
        counts = {0: 1}
        for row in doc["weights"]:
            counts[row["w"]] = counts.get(row["w"], 0) + row["count"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    p, e, f, k = req["tower"]
    want = {"p": p, "e": e, "f": f, "k": k, "a": req["a"],
            "punctured": req["punctured"]}
    problems = [f"params {key} = {params.get(key)!r}, asked {val!r}"
                for key, val in want.items() if params.get(key) != val]
    q = p ** e
    problems += check_distribution(q, n, dim, counts)
    weights = [w for w, c in counts.items() if w and c]
    if weights and dmin != min(weights):
        problems.append(f"dmin {dmin} != least weight {min(weights)}")
    if slack != n - dim - dmin + 1:
        problems.append("singleton_slack disagrees with n, dim, dmin")
    if applicable and match is not True:
        problems.append("closed form disagrees with enumeration")
    return problems


def family_display(tower, a, punctured):
    """The specialized closed display of this code, if one exists."""
    p, e, f, k = tower
    q = p ** e
    if a == 0:
        if f == 2 and k > 2:
            if punctured:
                return theory.dist_zero_shift_f2_punctured(q, k)
            return theory.dist_zero_shift_f2(q, k)
        return None
    if f == 2:
        return theory.dist_nonzero_shift(q, f, k)[0]
    if q == 2 and f == 3 and k > 3:
        return theory.dist_binary_cubic(k)
    return None


def check_predicted(req, dist):
    p, e, f, k = req["tower"]
    q = p ** e
    n = theory.code_length(towercodes.TowerSpec(p, e, f, k), req["a"])
    if req["punctured"]:
        n //= q - 1
    problems = []
    if (dist.n, dist.dim) != (n, k):
        problems.append(f"[n, dim] = [{dist.n}, {dist.dim}], want [{n}, {k}]")
    problems += check_distribution(q, dist.n, dist.dim, dist.counts)
    family = family_display(req["tower"], req["a"], req["punctured"])
    if family is not None and family != dist:
        problems.append("differs from the family display")
    return problems


def load_reference_csv(budget):
    return (REFERENCE / f"search_{budget}.csv").read_text()


def check(workload, req, result, reference=None):
    """Check one request's result: (items, digest text, problems)."""
    if workload in ("enumerate", "sweep"):
        rc, stdout, stderr = result
        if workload == "enumerate":
            return 1, stdout, check_code_output(req, rc, stdout, stderr)
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if stdout != reference:
            got, want = stdout.splitlines(), reference.splitlines()
            bad = next((i for i, (x, y) in enumerate(zip(got, want))
                        if x != y), min(len(got), len(want)))
            problems.append(f"CSV differs from the reference at line {bad + 1}"
                            f" ({len(got)} lines, reference {len(want)})")
        return stdout.count("\n") - 1, stdout, problems
    if workload == "closed_form":
        text = f"{result.n} {result.dim} {sorted(result.counts.items())}\n"
        return 1, text, check_predicted(req, result)
    ok, norm = result
    p, m, j = req["p"], req["m"], req["j"]
    text = f"{p} {m} {j} {norm.as_int() if ok else None}\n"
    return 1, text, [] if ok else [f"G(psi_{j}) conj(G) != {p}^{m}"]


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


def run_pass(workload, seed, size, trace):
    """Run the whole request list once, checking every output.

    Only the call into the package is timed; checks run between requests.
    """
    reqs = make_requests(workload, seed, size)
    reference = (load_reference_csv(SWEEP_BUDGET[size])
                 if workload == "sweep" else None)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    latencies, failures, items = [], [], 0
    digest = hashlib.sha256()
    try:
        for rid, req in enumerate(reqs):
            start = time.perf_counter()
            try:
                if tracer:
                    result = tracer.request(rid, lambda: execute(workload, req))
                else:
                    result = execute(workload, req)
            except Exception as exc:  # a raising request is a failed one
                latencies.append(time.perf_counter() - start)
                failures.append(f"{req}: raised {exc!r}")
                digest.update(f"raised {exc!r}\n".encode())
                continue
            latencies.append(time.perf_counter() - start)
            try:
                done, text, problems = check(workload, req, result,
                                             reference)
            except Exception as exc:  # output the checks cannot read
                done, text, problems = 0, "", [f"check raised {exc!r}"]
            digest.update(text.encode())
            if problems:
                failures.append(f"{req}: {'; '.join(problems)}")
            else:
                items += done
    finally:
        if tracer:
            tracer.restore()
    out = {
        "latencies": latencies,
        "items": items,
        "failures": failures,
        "digest": digest.hexdigest(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        by_name, counts, requests = tracer.summary()
        out["trace"] = {"self_s": by_name, "counts": counts,
                        "requests": [requests[rid] for rid in sorted(requests)]}
    return out


def main(argv):
    workload, seed, size, trace = argv
    if workload not in WORKLOADS or size not in SIZES:
        raise SystemExit(f"usage: workloads.py {{{','.join(WORKLOADS)}}} "
                         f"SEED {{{','.join(SIZES)}}} {{0,1}}")
    print(json.dumps(run_pass(workload, int(seed), size, trace == "1")))


if __name__ == "__main__":
    main(sys.argv[1:])
