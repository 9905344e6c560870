"""Command-line interface.

Subcommands:
  field    table facts for F_{p^(e*k)}
  code     one code: exact weight distribution plus the closed-form verdicts
  gauss    one Gauss sum, exact, with its norm
  verify   run a self-check suite (examples | lemmas | grid)
  search   sweep admissible parameters and emit one CSV row per code

Exit codes: 0 on success, 1 when a verification or consistency check
fails, 2 for usage errors (bad flags or invalid parameters).
"""

import argparse
import json
import sys
from functools import lru_cache
from typing import List, Optional

from .codes import brute_weight_distribution, build_defining_set, puncture
from .cyclotomic import gauss_sum, MultChar
from .field import MAX_FIELD_ORDER, TowerSpec, check_field_budget, get_field
from .theory import TheoryReport
from .verify import grid_towers, run_suite

_CSV_HEADER = ("p,e,f,k,a,n,dim,dmin,weights,freqs,"
               "griesmer_met,singleton_slack,ss_ok,theory_match")


def _bool_str(v) -> str:
    if v is None:
        return "na"
    return "true" if v else "false"


def _code_facts(tower: TowerSpec, a_index: int, punctured: bool,
                workers: int):
    ds = build_defining_set(tower, a_index)
    if punctured:
        ds = puncture(ds)
    brute = brute_weight_distribution(ds, workers=workers)
    report = TheoryReport(tower, a_index, punctured=punctured)
    return ds, brute, report


def _code_json(tower: TowerSpec, a_index: int, punctured: bool,
               brute, report) -> str:
    n, dim, dmin = brute.params()
    verdicts = report.verdicts(brute)
    doc = {
        "params": {
            "p": tower.p, "e": tower.e, "f": tower.f, "k": tower.k,
            "q": tower.q, "a": a_index, "punctured": punctured,
        },
        "n": n,
        "dim": dim,
        "dmin": dmin,
        "weights": [{"w": w, "count": c} for w, c in brute.pairs() if w],
        "theory": {
            "applicable": report.applicable,
            "reason": report.reason,
            "match": report.matches(brute),
            "dmin_bound": report.bound,
            "griesmer_met": verdicts["griesmer_met"],
            "griesmer_verdict": verdicts["griesmer_verdict"],
            "singleton_slack": verdicts["singleton_slack"],
            "ss_ok": verdicts["ss_ok"],
        },
    }
    return json.dumps(doc, indent=2)


def _code_csv_row(tower: TowerSpec, a_index: int, brute, report) -> str:
    n, dim, dmin = brute.params()
    verdicts = report.verdicts(brute)
    nonzero = [(w, c) for w, c in brute.pairs() if w]
    return ",".join([
        str(tower.p), str(tower.e), str(tower.f), str(tower.k),
        str(a_index), str(n), str(dim), str(dmin),
        "|".join(str(w) for w, _ in nonzero),
        "|".join(str(c) for _, c in nonzero),
        _bool_str(verdicts["griesmer_met"]),
        str(verdicts["singleton_slack"]),
        _bool_str(verdicts["ss_ok"]),
        _bool_str(report.matches(brute)),
    ])


def _cmd_field(args) -> int:
    m = args.e * args.k
    field = get_field(args.p, m)
    doc = {
        "p": args.p,
        "e": args.e,
        "k": args.k,
        "m": m,
        "order": field.order,
        "modulus": list(field.modulus),
        "subfield_degrees": [d for d in range(1, m + 1) if m % d == 0],
    }
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_code(args) -> int:
    check_field_budget(args.p, args.e * args.k)
    tower = TowerSpec(args.p, args.e, args.f, args.k)
    if not 0 <= args.a < tower.q:
        raise ValueError(f"a must be in [0, q) = [0, {tower.q})")
    ds, brute, report = _code_facts(tower, args.a, args.punctured,
                                    args.workers)
    if args.format == "json":
        print(_code_json(tower, args.a, args.punctured, brute, report))
    else:
        print(_CSV_HEADER)
        print(_code_csv_row(tower, args.a, brute, report))
    if report.matches(brute) is False:
        print("closed-form distribution disagrees with enumeration",
              file=sys.stderr)
        return 1
    return 0


def _cmd_gauss(args) -> int:
    m = args.e * args.k
    field = get_field(args.p, m)
    psi = MultChar(field, args.j)
    g = gauss_sum(field, args.j)
    norm = g * g.conj()
    if not norm.is_scalar:
        raise RuntimeError("G * conj(G) is not a rational integer")
    want = 1 if psi.order == 1 else field.order
    if norm.as_int() != want:
        raise RuntimeError(
            f"G * conj(G) = {norm.as_int()}, expected {want}")
    doc = {
        "p": args.p,
        "m": m,
        "j": args.j,
        "char_order": psi.order,
        "root_order": g.n,
        "terms": [[e, c] for e, c in g.support_terms()],
        "scalar": g.as_int() if g.is_scalar else None,
        "norm": norm.as_int(),
    }
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, workers=args.workers)
    failed = 0
    for r in results:
        mark = "ok  " if r.ok else "FAIL"
        line = f"{mark} {r.name}"
        if r.detail:
            line += f"  [{r.detail}]"
        print(line)
        failed += 0 if r.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def _search_rows(budget: int, workers: int) -> List[str]:
    rows = []
    for tower in sorted(grid_towers(budget),
                        key=lambda t: (t.p, t.e, t.f, t.k)):
        shifts = [1] if tower.f == 1 else [0, 1]
        for a_index in shifts:
            ds, brute, report = _code_facts(tower, a_index, False, workers)
            rows.append(_code_csv_row(tower, a_index, brute, report))
    return rows


def _cmd_search(args) -> int:
    if args.budget < 1:
        raise ValueError(f"--budget must be at least 1, got {args.budget}")
    if args.budget > MAX_FIELD_ORDER:
        raise ValueError(f"--budget {args.budget} exceeds the field budget "
                         f"{MAX_FIELD_ORDER}")
    print(_CSV_HEADER)
    for row in _search_rows(args.budget, args.workers):
        print(row)
    return 0


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process: parsing leaves it
    unchanged, and every call gets a fresh namespace."""
    top = argparse.ArgumentParser(
        prog="towercodes",
        description="trace-defined linear codes over subfield towers")
    sub = top.add_subparsers(dest="command", required=True)

    q_help = "base subfield is F_{p^e}; the code field is F_{p^(e*k)}"
    workers_help = ("threads for the enumeration kernel, at most one per "
                    "CPU; they split the shifts it sums (one per F_q^* "
                    "translate and q-Frobenius class of the q^f - 1 "
                    "residues) and start only when q^f - 1 >= 4096")

    fp = sub.add_parser("field", help="field table facts")
    fp.add_argument("--p", type=int, required=True, help="characteristic")
    fp.add_argument("--e", type=int, required=True, help=q_help)
    fp.add_argument("--k", type=int, required=True, help="tower height")
    fp.set_defaults(func=_cmd_field)

    cp = sub.add_parser("code", help="weight distribution of one code")
    cp.add_argument("--p", type=int, required=True)
    cp.add_argument("--e", type=int, required=True, help=q_help)
    cp.add_argument("--f", type=int, required=True,
                    help="middle extension degree (f divides k)")
    cp.add_argument("--k", type=int, required=True)
    cp.add_argument("--a", type=int, default=0,
                    help="shift index in [0, q); 0 selects the kernel code")
    cp.add_argument("--punctured", action="store_true",
                    help="quotient out the F_q^* scaling (a = 0 only)")
    cp.add_argument("--workers", type=int, default=1,
                    help=workers_help)
    cp.add_argument("--format", choices=("json", "csv"), default="json")
    cp.set_defaults(func=_cmd_code)

    gp = sub.add_parser("gauss", help="one exact Gauss sum")
    gp.add_argument("--p", type=int, required=True)
    gp.add_argument("--e", type=int, required=True, help=q_help)
    gp.add_argument("--k", type=int, required=True)
    gp.add_argument("--j", type=int, required=True,
                    help="multiplicative character index")
    gp.set_defaults(func=_cmd_gauss)

    vp = sub.add_parser("verify", help="run a self-check suite")
    vp.add_argument("--suite", choices=("examples", "lemmas", "grid"),
                    default="examples")
    vp.add_argument("--workers", type=int, default=1,
                    help=workers_help)
    vp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("search", help="sweep parameters, CSV to stdout")
    sp.add_argument("--budget", type=int, default=4096,
                    help="largest field size q^k to enumerate, at most "
                    f"{MAX_FIELD_ORDER}")
    sp.add_argument("--workers", type=int, default=1,
                    help=workers_help)
    sp.set_defaults(func=_cmd_search)
    return top


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:
            raise ValueError(
                f"--workers must be at least 1, got {args.workers}")
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a failed internal consistency check
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
