import json
import re
import subprocess
import sys
import time
import tokenize

import pytest

from genuskit import acceptance
from genuskit.acceptance import CheckResult
from genuskit.cli import main
from genuskit.orders import order_spec_to_dict, pullback_spec


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestScalarVerbs:
    def test_totient(self, capsys):
        status, out, err = run(capsys, "totient", "1")
        assert (status, out.strip(), err) == (0, "1", "")

    def test_totient_json(self, capsys):
        status, out, _ = run(capsys, "totient", "24", "--json")
        payload = json.loads(out)
        assert payload["verb"] == "totient"
        assert payload["inputs"] == {"m": 24}
        assert payload["result"] == 8
        assert isinstance(payload["elapsedMs"], int)

    def test_gl_order(self, capsys):
        status, out, _ = run(capsys, "gl-order", "2", "3")
        assert (status, out.strip()) == (0, "48")

    def test_stable_image(self, capsys):
        status, out, _ = run(capsys, "stable-image", "2", "5")
        assert (status, out.strip()) == (0, "240")

    def test_genus_pullback(self, capsys):
        status, out, _ = run(capsys, "genus-pullback", "24")
        assert (status, out.strip()) == (0, "brute=4 formula=4")

    def test_genus_atom(self, capsys):
        status, out, _ = run(capsys, "genus-atom", "A(6)@10")
        assert (status, out.strip()) == (0, "1")
        status, out, _ = run(capsys, "genus-atom", "A(1)@10")
        assert (status, out.strip()) == (0, "4")


class TestSpecFileVerbs:
    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "pullback24.json"
        path.write_text(json.dumps(order_spec_to_dict(pullback_spec(24))))
        return str(path)

    def test_genus_order(self, capsys, spec_path):
        status, out, _ = run(capsys, "genus-order", spec_path)
        assert status == 0
        assert out.strip() == "total=4 relative=4 bound=16"

    def test_double_cosets(self, capsys, spec_path):
        status, out, _ = run(capsys, "double-cosets", spec_path)
        assert (status, out.strip()) == (0, "4")

    def test_missing_file(self, capsys):
        status, out, err = run(capsys, "genus-order", "/no/such/file.json")
        assert status == 1
        assert err

    @pytest.mark.parametrize("verb", ["genus-order", "double-cosets"])
    def test_level_past_int64_is_resource_limit(self, capsys, tmp_path, verb):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(order_spec_to_dict(pullback_spec(2**63))))
        status, out, err = run(capsys, verb, str(path))
        assert (status, out) == (2, "")
        assert err.startswith("resource limit:")
        assert "Traceback" not in err

    def test_subring_past_int64_index_is_resource_limit(self, capsys, tmp_path):
        # e_{i,i+1} in Mat_9(Z/5), i < 8, generate 5^37 elements, all of
        # them lifts of the factor 5, which the kernel's guard refuses
        gens = [[[int((p, q) == (i, i + 1)) for p in range(9) for q in range(9)]]
                for i in range(8)]
        path = tmp_path / "triangular.json"
        path.write_text(json.dumps({"m": 5, "blocks": [9], "generators": gens}))
        status, out, err = run(capsys, "genus-order", str(path), "--cap",
                               str(10**40), "--json")
        message = f"{5**37} elements at level 5 are past the int64 range"
        assert status == 2
        assert err == f"resource limit: {message}\n"
        assert json.loads(out) == {"verb": "genus-order", "error": {
            "message": message, "phase": "enumeration", "needed": 5**37,
            "cap": 2**63 - 1, "lowerBound": False}}

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        status, _, err = run(capsys, "genus-order", str(path))
        assert status == 1
        assert "JSON" in err


class TestTableA:
    def test_rows(self, capsys):
        status, out, _ = run(capsys, "table-A")
        assert status == 0
        lines = out.strip().splitlines()
        assert len(lines) == 13  # header + 12 rows
        rows = [line.split() for line in lines[1:]]
        assert rows[0] == ["1", "1", "24", "4", "4"]
        assert rows[8] == ["9", "3", "8", "2", "2"]
        assert rows[11] == ["12", "12", "2", "1", "1"]
        for row in rows:
            assert row[3] == row[4]

    def test_json_rows(self, capsys):
        status, out, _ = run(capsys, "table-A", "--json")
        payload = json.loads(out)
        assert payload["result"][0] == {
            "v": 1, "d": 1, "m": 24, "gBrute": 4, "gFormula": 4,
        }


class TestErrorPaths:
    def test_unknown_verb(self, capsys):
        status, _, err = run(capsys, "frobnicate")
        assert status == 1
        assert err

    def test_unknown_flag(self, capsys):
        status, _, err = run(capsys, "totient", "5", "--frob")
        assert status == 1
        assert err

    def test_invalid_atom(self, capsys):
        status, _, err = run(capsys, "genus-atom", "A(6)10")
        assert status == 1
        assert "position" in err

    def test_invalid_argument_value(self, capsys):
        status, _, err = run(capsys, "totient", "0")
        assert status == 1
        assert err

    def test_resource_limit_exit_code(self, capsys):
        status, _, err = run(capsys, "gl-order", "3", "24")
        assert status == 2
        assert "resource limit" in err

    def test_pullback_level_above_cap_fails_fast(self, capsys):
        # the subring holds the m multiples of the identity, so m > cap
        # is refused before the closure starts
        status, _, err = run(capsys, "genus-pullback", "3000000")
        assert status == 2
        assert "3000000" in err and "2000000" in err

    def test_totient_past_the_cap_fails_fast(self, capsys):
        # the prime 2^61 - 1 would take trial divisors up to 1518500249;
        # they stop at the cap of 2000000
        start = time.perf_counter()
        status, out, err = run(capsys, "totient", str(2**61 - 1), "--json")
        assert time.perf_counter() - start < 2.0
        assert status == 2 and "resource limit" in err
        assert json.loads(out) == {"verb": "totient", "error": {
            "message": "factoring 2305843009213693951 needs trial divisors up "
                       "to 1518500249, above the cap of 2000000",
            "phase": "factorization", "needed": 1518500249, "cap": 2000000,
            "lowerBound": False}}

    @pytest.mark.parametrize("m, phi", [
        (99999999999999999999, 58301444908800000000),  # small prime factors
        (10**12 + 39, 10**12 + 38),  # a prime whose root is below the cap
        (2_000_000, 800_000),
    ])
    def test_totient_within_the_cap_answers(self, capsys, m, phi):
        status, out, _ = run(capsys, "totient", str(m))
        assert (status, out) == (0, f"{phi}\n")

    def test_help_exits_zero(self, capsys):
        status, out, _ = run(capsys, "--help")
        assert status == 0
        assert "genuskit" in out


# exit code and stdout of each argument form, as the argparse front end
# gave them; a dict is the --json object without elapsedMs, and check's
# per-criterion time is left out
TOTIENT_24 = {"inputs": {"m": 24}, "result": 8, "verb": "totient"}
PARITY = [
    (["--json", "totient", "24"], 1, ""),
    (["totient", "--json", "24"], 0, TOTIENT_24),
    (["totient", "24", "--js"], 0, TOTIENT_24),
    (["totient", "--", "24"], 0, "8\n"),
    (["totient", "--", "24", "--json"], 1, ""),
    (["totient", "1_000"], 0, "400\n"),
    (["gl-order", "2", "3", "--cap=100"], 0, "48\n"),
    (["gl-order", "--ca", "100", "2", "3"], 0, "48\n"),
    (["gl-order", "2", "3", "--cap", "-5"], 2, ""),
    (["totient", "-5"], 1, ""),
    (["totient"], 1, ""),
    (["totient", "5", "6"], 1, ""),
    (["totient", "x"], 1, ""),
    (["--cap", "x"], 1, ""),
    (["genus-pullback", "12", "--only", "x"], 1, ""),
    (["frob"], 1, ""),
    ([], 1, ""),
    (["check", "--on", "atom-table"], 0,
     "PASS atom-table: expected g(A(v)) = 4 if gcd(v,24)=1, 2 if gcd in {2,3}, "
     "else 1; got all 12 cases agree\n1/1 checks passed\n"),
]


class TestArgumentForms:
    @pytest.mark.parametrize("argv, status, expected", PARITY,
                             ids=[" ".join(argv) or "(none)" for argv, _, _ in PARITY])
    def test_same_exit_code_and_stdout(self, capsys, argv, status, expected):
        got, out, err = run(capsys, *argv)
        assert got == status
        if isinstance(expected, dict):
            out = json.loads(out)
            out.pop("elapsedMs")
        else:
            out = re.sub(r" \(\d+\.\d+s\)", "", out)
        assert out == expected
        assert bool(err) == (status != 0)

    @pytest.mark.parametrize("argv", [["-h"], ["totient", "--he"]])
    def test_help_names_every_verb(self, capsys, argv):
        status, out, err = run(capsys, *argv)
        assert (status, err) == (0, "")
        for verb in ("totient", "gl-order", "stable-image", "double-cosets",
                     "genus-order", "genus-pullback", "genus-atom", "table-A",
                     "check"):
            assert f"\n  {verb} " in out


class TestCap:
    def test_flag_cap(self, capsys):
        status, _, err = run(capsys, "gl-order", "2", "5", "--cap", "100")
        assert status == 2

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("GENUSKIT_CAP", "100")
        status, _, _ = run(capsys, "gl-order", "2", "5")
        assert status == 2

    def test_flag_wins_over_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GENUSKIT_CAP", "100")
        status, out, _ = run(capsys, "gl-order", "2", "5", "--cap", "2000000")
        assert (status, out.strip()) == (0, "480")

    def test_bad_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("GENUSKIT_CAP", "lots")
        status, _, err = run(capsys, "gl-order", "2", "5")
        assert status == 1
        assert "GENUSKIT_CAP" in err

    @pytest.mark.parametrize("verb", ["gl-order", "stable-image"])
    def test_cap_boundary_is_scan_size(self, capsys, verb):
        # the scan of 2x2 matrices mod 5 has 5^4 = 625 candidates
        status, _, err = run(capsys, verb, "2", "5", "--cap", "624")
        assert status == 2
        assert err.startswith("resource limit:")
        status, _, _ = run(capsys, verb, "2", "5", "--cap", "625")
        assert status == 0

    def test_order_verbs_build_no_group(self, capsys, monkeypatch):
        import genuskit.kernel as kernel

        def no_group(*args):
            raise AssertionError("a MatModM carrier was built")

        monkeypatch.setattr(kernel, "_group", no_group)
        assert run(capsys, "gl-order", "2", "3")[:2] == (0, "48\n")
        assert run(capsys, "stable-image", "2", "5")[:2] == (0, "240\n")

    def test_gl_order_scans_nothing(self, capsys, monkeypatch):
        import genuskit.kernel as kernel

        def no_scan(*args):
            raise AssertionError("the GL scan ran")

        monkeypatch.setattr(kernel, "_gl_flat", no_scan)
        assert run(capsys, "gl-order", "3", "3")[:2] == (0, "11232\n")

    def test_stable_image_searches_nothing(self, capsys, monkeypatch):
        import genuskit.kernel as kernel

        def no_search(*args):
            raise AssertionError("the stable-image search ran")

        monkeypatch.setattr(kernel, "_stable_flat", no_search)
        assert run(capsys, "stable-image", "3", "3")[:2] == (0, "11232\n")

    @pytest.mark.parametrize("verb", ["gl-order", "stable-image"])
    @pytest.mark.parametrize("r", [100, 2000])
    def test_huge_r_is_a_resource_limit_at_once(self, capsys, verb, r):
        # 10^(r^2) is past Python's 4,300-digit limit for printing an int
        start = time.perf_counter()
        status, out, err = run(capsys, verb, str(r), "10")
        assert time.perf_counter() - start < 1.0
        assert (status, out) == (2, "")
        assert err == (f"resource limit: enumerating {r}x{r} matrices mod 10 "
                       f"needs a scan of 10^{r * r} candidates, above the cap "
                       "of 2000000\n")


class TestJsonLimits:
    def test_scan_limit(self, capsys):
        status, out, err = run(capsys, "gl-order", "2", "5", "--cap", "624", "--json")
        message = ("enumerating 2x2 matrices mod 5 needs a scan of 625 "
                   "candidates, above the cap of 624")
        assert status == 2
        assert err == f"resource limit: {message}\n"
        assert json.loads(out) == {
            "verb": "gl-order",
            "error": {"message": message, "phase": "scan", "needed": 625,
                      "cap": 624, "lowerBound": False},
        }

    def test_huge_r_limit_is_a_lower_bound(self, capsys):
        status, out, err = run(capsys, "stable-image", "2000", "10", "--json")
        assert status == 2
        payload = json.loads(out)
        assert payload["verb"] == "stable-image"
        assert err == f"resource limit: {payload['error']['message']}\n"
        assert payload["error"] == {
            "message": "enumerating 2000x2000 matrices mod 10 needs a scan of "
                       "10^4000000 candidates, above the cap of 2000000",
            "phase": "scan", "needed": 10**4299, "cap": 2_000_000,
            "lowerBound": True,
        }

    def test_without_json_stdout_stays_empty(self, capsys):
        status, out, _ = run(capsys, "gl-order", "2", "5", "--cap", "624")
        assert (status, out) == (2, "")


class TestJsonStability:
    def test_identical_runs_differ_only_in_elapsed(self, capsys):
        _, out1, _ = run(capsys, "genus-pullback", "12", "--json")
        _, out2, _ = run(capsys, "genus-pullback", "12", "--json")
        a, b = json.loads(out1), json.loads(out2)
        a.pop("elapsedMs"), b.pop("elapsedMs")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestRepeatedCalls:
    def test_cap_flag_does_not_persist(self, capsys):
        # the subring of pullback_spec(12) has 12 elements
        assert run(capsys, "genus-pullback", "12", "--cap", "5")[0] == 2
        assert run(capsys, "genus-pullback", "12")[:2] == (0, "brute=2 formula=2\n")

    def test_env_cap_is_read_on_every_call(self, capsys, monkeypatch):
        monkeypatch.setenv("GENUSKIT_CAP", "5")
        assert run(capsys, "genus-pullback", "12")[0] == 2
        monkeypatch.delenv("GENUSKIT_CAP")
        assert run(capsys, "genus-pullback", "12")[0] == 0
        monkeypatch.setenv("GENUSKIT_CAP", "5")
        assert run(capsys, "genus-pullback", "12")[0] == 2

    def test_usage_error_then_good_call(self, capsys):
        assert run(capsys, "totient", "5", "--frob")[0] == 1
        assert run(capsys, "totient")[0] == 1
        status, out, err = run(capsys, "totient", "5", "--json")
        assert (status, err) == (0, "")
        assert json.loads(out)["result"] == 4
        # --json of the previous call does not carry over
        assert run(capsys, "totient", "5") == (0, "4\n", "")

    def test_help_then_good_call(self, capsys):
        status, out, _ = run(capsys, "--help")
        assert status == 0 and "genuskit" in out
        assert run(capsys, "gl-order", "--help")[0] == 0
        assert run(capsys, "gl-order", "2", "3") == (0, "48\n", "")


class TestEntryPoint:
    def test_python_dash_m_invocation(self, subprocess_env):
        proc = subprocess.run(
            [sys.executable, "-m", "genuskit", "genus-pullback", "8"],
            capture_output=True,
            text=True,
            env=subprocess_env,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "brute=2 formula=2"

    def test_import_loads_no_argparse(self, subprocess_env):
        # argparse and the other modules genuskit's import has no use for;
        # -S skips site, whose .pth files may import typing before genuskit
        heavy = {"argparse", "gettext", "dataclasses", "inspect", "ast", "dis",
                 "tokenize", "typing", "numpy"}
        code = (f"import sys, genuskit, genuskit.cli; "
                f"print(sorted({heavy!r} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, env=subprocess_env)
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

    def test_start_path_loads_no_oracle(self, subprocess_env):
        # the generic engine, the oracle criteria and the row kernel load on
        # first use: a fresh process that imports the CLI and runs a catalog
        # check compiles none of them, and every public name still resolves
        code = """
import contextlib, io, sys
import genuskit, genuskit.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert genuskit.cli.main(["check", "--only", "atom-table", "--json"]) == 0
lazy = {"genuskit.cosets", "genuskit.oracle_checks", "genuskit.kernel"}
assert not lazy & set(sys.modules), sorted(lazy & set(sys.modules))
assert sorted(genuskit.rings.unit_group(12)) == [1, 5, 7, 11]
import genuskit.cosets
assert genuskit.FiniteGroup is genuskit.cosets.FiniteGroup
names = {}
exec("from genuskit import *", names)
assert all(names[n] is getattr(genuskit, n) for n in genuskit.__all__)
"""
        env = dict(subprocess_env, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    def test_start_path_modules_stay_small(self, subprocess_env):
        """Every module that ``import genuskit, genuskit.cli`` loads is at
        most 2,500 tokens long, comments and blank lines not counted: about
        the size of atoms.py, the first that the import compiles.

        With no bytecode cache, as in a fresh checkout, Python compiles each
        module it imports, and the resident set stays at the high-water mark
        of the largest compile.  Traced in a fresh ``python -S`` on x86_64
        under Python 3.11, a compile after that of atoms.py (2,427 tokens)
        raised the peak by 536 kB for the 3,425-token orders.py and by 356
        kB for the 2,648-token acceptance.py; once both were split below
        this bound, the import peaked about 0.6 MB lower."""
        code = ("import sys, genuskit, genuskit.cli; print('\\n'.join("
                "m.__file__ for n, m in sys.modules.items() if n.startswith('genuskit')))")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, env=subprocess_env)
        assert proc.returncode == 0, proc.stderr
        sizes = {}
        for path in proc.stdout.split():
            with open(path, "rb") as source:
                sizes[path] = sum(tok.type not in (tokenize.ENCODING, tokenize.COMMENT,
                                                   tokenize.NL)
                                  for tok in tokenize.tokenize(source.readline))
        assert len(sizes) >= 8
        assert {path: n for path, n in sizes.items() if n > 2500} == {}

    @pytest.mark.parametrize("argv, status", [([], 1), (["--help"], 0)])
    def test_arguments_come_from_sys_argv(self, subprocess_env, argv, status):
        proc = subprocess.run([sys.executable, "-m", "genuskit", *argv],
                              capture_output=True, text=True, env=subprocess_env)
        assert proc.returncode == status


class TestCheckVerb:
    def test_filtered_check_passes(self, capsys):
        status, out, _ = run(capsys, "check", "--only", "pullback-oracle")
        assert status == 0
        assert out.startswith("PASS pullback-oracle")
        assert "1/1 checks passed" in out

    def test_unknown_filter(self, capsys):
        status, _, err = run(capsys, "check", "--only", "nonsense")
        assert status == 1
        assert "no acceptance check" in err

    def test_fault_injection_fails_check(self, capsys, monkeypatch):
        # a deliberately broken stable-image scan must flip the check to FAIL
        import genuskit.kernel as kernel

        real = kernel._stable_flat

        def broken(r, m):
            return real(r, m)[1:]  # one matrix short

        monkeypatch.setattr(kernel, "_stable_flat", broken)
        status, out, _ = run(capsys, "check", "--only", "stable-image")
        assert status == 1
        assert out.startswith("FAIL stable-image")

    def test_json_check_payload(self, capsys, monkeypatch):
        fake = CheckResult("demo", True, "x", "x", 0.0)
        monkeypatch.setattr(
            acceptance, "CRITERIA", (("demo", lambda cap: fake),)
        )
        status, out, _ = run(capsys, "check", "--json")
        payload = json.loads(out)
        assert status == 0
        assert payload["result"]["passed"] is True
        assert payload["result"]["checks"][0]["name"] == "demo"
