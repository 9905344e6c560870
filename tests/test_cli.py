"""Command-line entry points, exercised in-process through main()."""

import json
import subprocess
import sys
import textwrap

import pytest

from towercodes import cli
from towercodes.cli import main
from towercodes.cyclotomic import CycloInt


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_json(capsys):
    code, out, err = run(capsys, "field", "--p", "2", "--e", "1", "--k", "4")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc == {
        "p": 2, "e": 1, "k": 4, "m": 4, "order": 16,
        "modulus": [1, 1, 0, 0, 1],
        "subfield_degrees": [1, 2, 4],
    }


def test_code_json_golden(capsys):
    code, out, err = run(capsys, "code", "--p", "2", "--e", "2", "--f", "2",
                         "--k", "4", "--a", "0")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["params"] == {"p": 2, "e": 2, "f": 2, "k": 4, "q": 4,
                             "a": 0, "punctured": False}
    assert (doc["n"], doc["dim"], doc["dmin"]) == (51, 4, 36)
    assert doc["weights"] == [{"w": 36, "count": 204}, {"w": 48, "count": 51}]
    th = doc["theory"]
    assert th["applicable"] is True and th["match"] is True
    assert th["dmin_bound"] == 28
    assert th["griesmer_verdict"] == "almost_optimal_checked"
    assert th["ss_ok"] is False
    assert th["singleton_slack"] == 12


def test_code_punctured_json(capsys):
    code, out, _ = run(capsys, "code", "--p", "2", "--e", "2", "--f", "2",
                       "--k", "4", "--punctured")
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["dim"], doc["dmin"]) == (17, 4, 12)
    assert doc["theory"]["griesmer_met"] is True
    assert doc["theory"]["griesmer_verdict"] == "optimal"
    assert doc["theory"]["dmin_bound"] == 9


def test_code_csv(capsys):
    code, out, _ = run(capsys, "code", "--p", "2", "--e", "1", "--f", "2",
                       "--k", "4", "--a", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("p,e,f,k,a,n,dim,dmin,weights,freqs,"
                        "griesmer_met,singleton_slack,ss_ok,theory_match")
    assert lines[1] == "2,1,2,4,1,10,4,4,4|6,5|10,false,3,true,true"


def test_gauss_golden(capsys):
    code, out, _ = run(capsys, "gauss", "--p", "3", "--e", "1", "--k", "2",
                       "--j", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "p": 3, "m": 2, "j": 2, "char_order": 4, "root_order": 12,
        "terms": [[0, -3]], "scalar": -3, "norm": 9,
    }


def test_gauss_irrational(capsys):
    code, out, _ = run(capsys, "gauss", "--p", "2", "--e", "1", "--k", "2",
                       "--j", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["scalar"] == 2 and doc["norm"] == 4


@pytest.mark.parametrize("corrupt, message", [
    (lambda g: g + 1, "G * conj(G) = 4, expected 9"),  # G = -3 here
    (lambda g: g + CycloInt.root(5), "G * conj(G) is not a rational integer"),
], ids=["wrong-integer", "irrational"])
def test_gauss_bad_norm_exits_1(capsys, monkeypatch, corrupt, message):
    honest = cli.gauss_sum
    monkeypatch.setattr(cli, "gauss_sum",
                        lambda field, j: corrupt(honest(field, j)))
    code, out, err = run(capsys, "gauss", "--p", "3", "--e", "1", "--k",
                         "2", "--j", "2")
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_gauss_trivial_character_norm_is_one(capsys):
    for argv in (("--p", "3", "--e", "1", "--k", "2", "--j", "0"),
                 ("--p", "2", "--e", "1", "--k", "1", "--j", "0")):
        code, out, _ = run(capsys, "gauss", *argv)
        assert code == 0
        doc = json.loads(out)
        assert (doc["char_order"], doc["scalar"], doc["norm"]) == (1, -1, 1)


def test_verify_examples(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "examples")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("ok  ") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_search_csv(capsys):
    code, out, _ = run(capsys, "search", "--budget", "64")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("p,e,f,k,a,")
    # deterministic lexicographic parameter order
    assert lines[1].startswith("2,1,1,1,1,")
    keys = [tuple(map(int, line.split(",")[:5])) for line in lines[1:]]
    assert keys == sorted(keys)
    assert "2,1,2,4,1,10,4,4,4|6,5|10,false,3,true,true" in lines
    assert "2,1,2,4,0,5,4,2,2|4,10|5,true,0,false,true" in lines


def test_search_is_byte_stable(capsys):
    _, first, _ = run(capsys, "search", "--budget", "128")
    _, second, _ = run(capsys, "search", "--budget", "128")
    assert first == second


def test_workers_flag_is_invisible_in_output(capsys, pool_sizes):
    _, one, _ = run(capsys, "search", "--budget", "128", "--workers", "1")
    _, four, _ = run(capsys, "search", "--budget", "128", "--workers", "4")
    assert one == four
    _, c1, _ = run(capsys, "code", "--p", "3", "--e", "1", "--f", "2",
                   "--k", "8", "--a", "1", "--workers", "1")
    _, c4, _ = run(capsys, "code", "--p", "3", "--e", "1", "--f", "2",
                   "--k", "8", "--a", "1", "--workers", "4")
    assert c1 == c4
    assert pool_sizes == []  # q^f - 1 < 4096: one thread whatever the flag
    # q^f - 1 = 6560: --workers 4 splits the shifts over the two CPUs
    _, b1, _ = run(capsys, "code", "--p", "3", "--e", "1", "--f", "8",
                   "--k", "8", "--a", "1", "--workers", "1")
    assert pool_sizes == []
    _, b4, _ = run(capsys, "code", "--p", "3", "--e", "1", "--f", "8",
                   "--k", "8", "--a", "1", "--workers", "4")
    assert b1 == b4 and pool_sizes == [2]


def test_parameter_errors_exit_2(capsys):
    code, _, err = run(capsys, "code", "--p", "4", "--e", "1", "--f", "2",
                       "--k", "4")
    assert code == 2 and "p must be prime" in err
    code, _, err = run(capsys, "code", "--p", "2", "--e", "1", "--f", "2",
                       "--k", "4", "--a", "2")
    assert code == 2 and "a must be in [0, q)" in err
    code, _, err = run(capsys, "code", "--p", "2", "--e", "1", "--f", "1",
                       "--k", "3", "--a", "0")
    assert code == 2 and "k > f > 1" in err
    code, _, err = run(capsys, "code", "--p", "2", "--e", "1", "--f", "2",
                       "--k", "4", "--a", "1", "--punctured")
    assert code == 2 and "a = 0" in err


@pytest.mark.parametrize("argv", [
    ("code", "--p", "2", "--e", "1", "--f", "2", "--k", "4"),
    ("verify", "--suite", "examples"),
    ("search", "--budget", "16"),
])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2(capsys, argv, workers):
    code, out, err = run(capsys, *argv, "--workers", workers)
    assert code == 2 and out == ""
    assert err == f"error: --workers must be at least 1, got {workers}\n"


def test_failed_consistency_check_exits_1(capsys, monkeypatch):
    from towercodes import codes
    honest = codes.zero_trace_counts

    def corrupt(ds, workers=1):
        zeros = honest(ds, workers)
        zeros[0] += 1
        return zeros

    monkeypatch.setattr(codes, "zero_trace_counts", corrupt)
    code, out, err = run(capsys, "code", "--p", "2", "--e", "1", "--f", "2",
                         "--k", "4", "--a", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: first Pless moment fails")
    assert "Traceback" not in err


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "towercodes", "field",
         "--p", "3", "--e", "1", "--k", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["modulus"] == [2, 1, 1]


def test_search_budget_over_field_budget_exits_2_before_work(capsys,
                                                             monkeypatch):
    from towercodes import field
    built = []
    init = field.Field.__init__

    def counting_init(self, p, m):
        built.append((p, m))
        init(self, p, m)

    monkeypatch.setattr(field.Field, "__init__", counting_init)
    code, out, err = run(capsys, "search", "--budget", "2097152")
    assert code == 2 and out == ""
    assert err == "error: --budget 2097152 exceeds the field budget 1048576\n"
    assert built == []


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_search_budget_below_one_exits_2_before_work(capsys, monkeypatch,
                                                     budget):
    def no_rows(*args):
        raise AssertionError("search started on a refused budget")

    monkeypatch.setattr(cli, "_search_rows", no_rows)
    code, out, err = run(capsys, "search", "--budget", budget)
    assert code == 2 and out == ""
    assert err == f"error: --budget must be at least 1, got {budget}\n"


@pytest.mark.parametrize("argv", [
    ("field", "--p", "2305843009213693951", "--e", "1", "--k", "1"),
    ("code", "--p", "2305843009213693951", "--e", "1", "--f", "1",
     "--k", "1"),
    ("gauss", "--p", "2305843009213693951", "--e", "1", "--k", "1",
     "--j", "1"),
    ("field", "--p", "3", "--e", "1", "--k", "100000000"),
    ("code", "--p", "3", "--e", "100000", "--f", "1", "--k", "1000",
     "--a", "1"),
    ("gauss", "--p", "3", "--e", "1", "--k", "100000000", "--j", "1"),
], ids=[f"{cmd}-huge-{what}" for what in ("p", "m")
        for cmd in ("field", "code", "gauss")])
def test_huge_fields_exceed_budget_before_any_work(argv):
    # a prime p near 2^61 or an exponent near 10^8 is refused without
    # testing p for primality or forming p^m
    proc = subprocess.run([sys.executable, "-m", "towercodes", *argv],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "exceeds budget" in proc.stderr


def test_parser_is_built_once_and_reused(capsys):
    assert cli._parser() is cli._parser()
    argv = ("code", "--p", "2", "--e", "1", "--f", "2", "--k", "4")
    first = run(capsys, *argv)
    assert first[0] == 0 and first[2] == ""
    # an argparse usage error, an `error: ...` exit, and other flag values
    # in between leave nothing behind in the shared parser
    with pytest.raises(SystemExit) as exc:
        main(["code", "--p", "2", "--k", "4"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *argv) == first
    code, _, err = run(capsys, *argv, "--a", "2")
    assert code == 2 and err.startswith("error: a must be in [0, q)")
    assert run(capsys, *argv) == first
    code, out, _ = run(capsys, "code", "--p", "2", "--e", "2", "--f", "2",
                       "--k", "4", "--punctured", "--format", "csv")
    assert code == 0 and out.startswith("p,e,f,k,a,")
    assert run(capsys, *argv) == first


def test_requests_import_no_further_modules():
    # once the parser is built, a code or search request loads no module:
    # a lazily imported one (numpy.ma, say) would cost every fresh process
    script = textwrap.dedent("""
        import contextlib, io, sys
        from towercodes import cli
        cli._parser()
        before = set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (
                    ["code", "--p", "3", "--e", "1", "--f", "2", "--k", "4"],
                    ["code", "--p", "3", "--e", "1", "--f", "2", "--k", "4",
                     "--punctured"],
                    ["code", "--p", "3", "--e", "1", "--f", "2", "--k", "4",
                     "--a", "2"],
                    ["search", "--budget", "64"]):
                assert cli.main(argv) == 0, argv
        print(sorted(set(sys.modules) - before))
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
