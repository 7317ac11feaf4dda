import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kochnet import _kernels, build, centrality, cli, current_flow_betweenness, format_label, verify
from kochnet.analytics import apl_closed_form
from kochnet.cli import main


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "kochnet.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc


class TestVerifyModule:
    def test_k11_all_green(self):
        result = verify.run(1, 1)
        assert result.exit_code == 0
        for suite in result.suites:
            assert suite.n_fail == 0

    def test_paper_discrepancies_flagged_not_failed(self):
        result = verify.run(1, 1, suites=("centrality",))
        suite = result.suites[0]
        flagged = {c.id for c in suite.checks if c.status == verify.DISCREPANCY}
        assert "centrality/printed-vertex-formula" in flagged
        assert "centrality/printed-edge-formula" in flagged
        assert result.exit_code == 0

    def test_m2_firstorder_marked_discrepancy(self):
        result = verify.run(2, 1, suites=("centrality",))
        suite = result.suites[0]
        row = next(c for c in suite.checks if c.id == "centrality/firstorder-young")
        assert row.status == verify.DISCREPANCY
        assert result.exit_code == 0

    def test_centrality_suite_builds_no_labels(self, label_count):
        verify.centrality_suite(build(1, 3))
        assert label_count() == 0

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            verify.run(1, 1, suites=("nope",))

    def test_exit_code_mapping(self):
        failing = verify.VerifyRun(
            m=1,
            t=1,
            suites=[
                verify.VerifySuiteResult(
                    "labels",
                    [verify.CheckResult("x", "desc", verify.FAIL, "")],
                )
            ],
        )
        assert failing.exit_code == 1
        rendered = verify.render(failing)
        assert "RESULT: FAIL" in rendered and "[FAIL]" in rendered

    @pytest.mark.parametrize("m,t", [(1, 2), (2, 2), (3, 1)])
    def test_core_suites_clean(self, m, t):
        result = verify.run(m, t, suites=("labels", "routing", "electrical", "stats"))
        assert result.exit_code == 0
        for suite in result.suites:
            assert suite.n_fail == 0
            assert suite.n_discrepancy == 0

    def test_one_distance_sweep_per_run(self, monkeypatch):
        # centrality/sum-rule and stats/apl-exact share the graph's cached total
        calls = []
        sweep = _kernels.all_distance_total

        def counted(indptr, indices):
            calls.append(1)
            return sweep(indptr, indices)

        monkeypatch.setattr(_kernels, "all_distance_total", counted)
        result = verify.run(1, 3)
        assert result.exit_code == 0
        assert len(calls) == 1

    def test_no_distance_sweep_above_oracle_cap(self, monkeypatch):
        # K(1,6) has 8193 vertices: the sum rule and the APL check use the structural total alone
        def refused(indptr, indices):
            raise AssertionError("BFS distance sweep above APL_EXACT_MAX_N")

        monkeypatch.setattr(_kernels, "all_distance_total", refused)
        result = verify.run(1, 6, suites=("centrality", "stats"))
        assert result.exit_code == 0
        checks = {c.id: c for suite in result.suites for c in suite.checks}
        assert checks["stats/apl-exact"].description == (
            "structural average path length equals the closed form exactly"
        )
        assert checks["centrality/sum-rule"].status == verify.PASS


class TestCli:
    def test_generate_edgelist_line_count(self):
        proc = run_cli("generate", "--m", "1", "--t", "1", "--format", "edgelist")
        assert proc.returncode == 0
        assert len(proc.stdout.splitlines()) == 12

    def test_generate_json(self):
        proc = run_cli("generate", "--m", "1", "--t", "1", "--format", "json")
        doc = json.loads(proc.stdout)
        assert list(doc) == ["m", "t", "vertices", "edges"]

    def test_generate_to_file(self, tmp_path):
        out = tmp_path / "g.txt"
        proc = run_cli("generate", "--m", "1", "--t", "0", "-o", str(out))
        assert proc.returncode == 0
        assert out.read_text() == "0 1\n0 2\n1 2\n"

    def test_decode(self):
        proc = run_cli("decode", "--m", "1", "--t", "2", "100.3")
        doc = json.loads(proc.stdout)
        assert doc["father"] == "10.2"
        assert doc["companion"] == "100.4"
        assert doc["degree"] == 2

    def test_decode_bad_label_is_usage_error(self):
        proc = run_cli("decode", "--m", "1", "--t", "2", "10.3")
        assert proc.returncode == 2
        assert "l_max" in proc.stderr

    def test_route_with_oracle(self):
        proc = run_cli("route", "--m", "1", "--t", "1", "10.1", "20.1", "--oracle")
        lines = proc.stdout.splitlines()
        assert lines[:4] == ["10.1", "1", "2", "20.1"]
        summary = json.loads(lines[4])
        assert summary["length"] == 3
        assert summary["oracle_length"] == 3
        assert summary["ops"] <= 5

    def test_route_accepts_ids(self):
        proc = run_cli("route", "--m", "1", "--t", "1", "#3", "#5")
        assert proc.stdout.splitlines()[:4] == ["10.1", "1", "2", "20.1"]

    def test_decode_rejects_label_born_too_late(self):
        proc = run_cli("decode", "--m", "1", "--t", "1", "100.1")
        assert proc.returncode == 2

    def test_route_accepts_ids_for_electrical(self):
        proc = run_cli(
            "electrical", "--m", "1", "--t", "0", "--source", "#0", "--target", "#1", "--gap"
        )
        doc = json.loads(proc.stdout)
        assert abs(doc["gap"] - 0.5) < 1e-12

    def test_stats_json_shape(self):
        proc = run_cli("stats", "--m", "2", "--t", "1", "--empirical")
        doc = json.loads(proc.stdout)
        assert list(doc) == ["closed_form", "empirical", "audit"]
        assert doc["audit"]["apl_matches"] is True

    def test_stats_empirical_apl_is_exact_above_oracle_cap(self):
        proc = run_cli("stats", "--m", "1", "--t", "6", "--empirical")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["empirical"]["apl"] == str(apl_closed_form(1, 6)) == doc["closed_form"]["apl"]
        assert doc["empirical"]["apl_stderr"] is None
        assert doc["audit"]["apl_matches"] is True

    def test_electrical_cfb_prints_structural_values(self):
        proc = run_cli("electrical", "--m", "2", "--t", "5", "--cfb")
        assert proc.returncode == 0, proc.stderr
        graph = build(2, 5)
        values = current_flow_betweenness(graph).tolist()
        texts = [format_label(graph.label_of(v)) for v in range(graph.n_vertices)]
        expected = [f"{text},{value!r}" for text, value in zip(texts, values)]
        assert proc.stdout.splitlines() == ["label,current_flow_betweenness"] + expected

    def test_stats_csv(self):
        proc = run_cli("stats", "--m", "2", "--t", "2", "--csv")
        lines = proc.stdout.splitlines()
        assert lines[0] == "degree,count_closed_form"
        assert "2,84" in lines

    def test_betweenness_compare(self):
        proc = run_cli("betweenness", "--m", "1", "--t", "1")
        lines = proc.stdout.splitlines()
        assert lines[0] == "label,birth,degree,exact,paper,firstorder"
        audit = json.loads(lines[-1])
        assert audit["eq9_matches"] is False

    def test_betweenness_edges(self):
        proc = run_cli("betweenness", "--m", "1", "--t", "1", "--edges", "--mode", "exact")
        lines = proc.stdout.splitlines()
        assert lines[0] == "u,v,class,exact"
        assert len(lines) == 13

    def test_electrical_profile_keys(self):
        proc = run_cli(
            "electrical", "--m", "1", "--t", "1",
            "--source", "10.1", "--target", "20.1", "--profile",
        )
        doc = json.loads(proc.stdout)
        assert list(doc) == [
            "d", "R_eff", "path_voltages", "companion_voltages",
            "support_edges", "max_offpath_current", "thm6", "thm7", "thm8",
        ]
        assert doc["d"] == 3 and doc["thm6"] and doc["thm7"] and doc["thm8"]

    def test_verify_exit_zero(self):
        proc = run_cli("verify", "--m", "1", "--t", "1", "--suite", "stats")
        assert proc.returncode == 0
        assert "RESULT: OK" in proc.stdout

    def test_exit_code_usage(self):
        proc = run_cli("route", "--m", "1")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv,env",
        [
            (("stats", "--m", "0", "--t", "1"), {}),
            (("verify", "--m", "1", "--t", "-1"), {}),
            (("generate", "--m", "0", "--t", "1"), {}),
            (("generate", "--m", "1", "--t", "1"), {"KOCH_MAX_VERTICES": "abc"}),
            (("stats", "--m", "1", "--t", "1"), {"KOCH_MAX_VERTICES": "9" * 5000}),
            (("route", "--m", "0", "--t", "1", "1", "2"), {}),
            (("decode", "--m", "1", "--t", "-1", "1"), {}),
            (("verify", "--m", "1", "--t", "5", "--pairs", "0", "--suite", "routing"), {}),
            (("verify", "--m", "1", "--t", "1", "--pairs", "-5"), {}),
            (("verify", "--m", "1", "--t", "1", "--electrical-pairs", "0"), {}),
            (("electrical", "--m", "2", "--t", "3", "--cfb", "--pairs", "0"), {}),
            (("electrical", "--m", "2", "--t", "3", "--cfb", "--pairs", "1"), {}),
            (("generate", "--m", "1", "--t", "1", "-o", os.devnull + "/x"), {}),  # a path under a file
            (("electrical", "--m", "2", "--t", "3", "--cfb", "--seed", "-1"), {}),
            (("verify", "--m", "1", "--t", "2", "--seed", "-1"), {}),
            (("stats", "--m", "1", "--t", "6", "--empirical", "--seed", "-5"), {}),
            # above MAX_PAIRS: refused before any pair array is allocated
            (("verify", "--m", "1", "--t", "5", "--pairs", "1000000000"), {}),
            (("electrical", "--m", "2", "--t", "3", "--cfb", "--pairs", "1000000000"), {}),
            # an index of more digits than int() converts, and a label with a trailing newline
            (("decode", "--m", "1", "--t", "2", "10." + "9" * 5000), {}),
            (("route", "--m", "1", "--t", "2", "10." + "9" * 5000, "10.1"), {}),
            (("decode", "--m", "1", "--t", "3", "10.1\n"), {}),
            # a vertex id is '#' and ASCII digits only: no digit-group underscore, space, sign,
            # other script's digit or trailing newline, all of which int() takes
            (("decode", "--m", "1", "--t", "2", "#1_0"), {}),
            (("decode", "--m", "1", "--t", "2", "# 3"), {}),
            (("decode", "--m", "1", "--t", "2", "#+3"), {}),
            (("decode", "--m", "1", "--t", "2", "#\u0663"), {}),
            (("decode", "--m", "1", "--t", "2", "#3\n"), {}),
            (("route", "--m", "1", "--t", "2", "#1_0", "#1"), {}),
            # current-flow betweenness is over all pairs: an endpoint is refused, not ignored
            (("electrical", "--m", "1", "--t", "2", "--cfb", "--source", "10.1"), {}),
            (("electrical", "--m", "1", "--t", "2", "--cfb", "--target", "#3"), {}),
        ],
        ids=[
            "stats-m0", "verify-t-1", "generate-m0", "cap-abc", "cap-5000-digits", "route-m0",
            "decode-t-1",
            "verify-pairs0", "verify-pairs-5", "verify-electrical-pairs0", "electrical-pairs0",
            "electrical-pairs1", "generate-unwritable-output", "electrical-seed-1",
            "verify-seed-1", "stats-seed-5", "verify-pairs-1e9", "electrical-pairs-1e9",
            "decode-index-5000-digits", "route-index-5000-digits", "decode-trailing-newline",
            "decode-id-underscore", "decode-id-space", "decode-id-plus", "decode-id-arabic-indic",
            "decode-id-trailing-newline", "route-id-underscore", "electrical-cfb-source",
            "electrical-cfb-target",
        ],
    )
    def test_bad_input_is_usage_error(self, argv, env):
        proc = subprocess.run(
            [sys.executable, "-m", "kochnet.cli", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, **env),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "error" in proc.stderr and "Traceback" not in proc.stderr

    def test_exit_code_size_cap(self):
        env = dict(os.environ, KOCH_MAX_VERTICES="10")
        proc = subprocess.run(
            [sys.executable, "-m", "kochnet.cli", "generate", "--m", "1", "--t", "2"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 3
        assert "size error" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("stats", "--m", "1", "--t", "1000"),
            ("stats", "--m", "1", "--t", "5000", "--csv"),
            ("decode", "--m", "1", "--t", "100000", "1"),
            ("generate", "--m", "1", "--t", "100000"),
        ],
        ids=["stats-t1000", "stats-t5000", "decode-t100000", "generate-t100000"],
    )
    def test_size_cap_before_any_work(self, argv):
        # closed forms and label arithmetic never build, but are held to the build's cap
        proc = run_cli(*argv)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("size error:") and proc.stderr.count("\n") == 1

    def test_huge_t_is_size_error_at_once(self, capsys, monkeypatch):
        # the size check compares magnitudes first: 2*4^99999999999+1 is never computed
        monkeypatch.delenv("KOCH_MAX_VERTICES", raising=False)
        start = time.perf_counter()
        code = main(["stats", "--m", "1", "--t", "99999999999"])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == (
            "size error: K_{1,99999999999} has 2*4^99999999999+1 vertices, exceeding the cap of 10000000\n"
        )
        assert elapsed < 0.5

    def test_closed_form_past_print_limit_is_size_error(self):
        # the exact clustering of K(1,1000) has more digits than Python converts to text
        proc = subprocess.run(
            [sys.executable, "-m", "kochnet.cli", "stats", "--m", "1", "--t", "1000"],
            capture_output=True,
            text=True,
            env=dict(os.environ, KOCH_MAX_VERTICES=str(10**700)),
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("size error:") and proc.stderr.count("\n") == 1

    def test_build_past_address_space_is_size_error(self):
        # a cap raised past what numpy can address: the build's allocation fails at once
        proc = subprocess.run(
            [sys.executable, "-m", "kochnet.cli", "generate", "--m", "1", "--t", "30", "-o", os.devnull],
            capture_output=True,
            text=True,
            env=dict(os.environ, KOCH_MAX_VERTICES=str(10**20)),
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("size error:") and proc.stderr.count("\n") == 1

    def test_stats_above_default_cap_with_raised_cap(self):
        env = dict(os.environ, KOCH_MAX_VERTICES=str(10**13))
        proc = subprocess.run(
            [sys.executable, "-m", "kochnet.cli", "stats", "--m", "1", "--t", "20"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["closed_form"]["vertices"] == 2 * 4**20 + 1

    def test_commands_load_no_scipy(self):
        # scipy is a test-only oracle: neither the import nor any of these commands loads it,
        # nor numpy.ma, which a plain np.unique imports on first use (exhaustive and sampled
        # verify branches both)
        argvs = [
            ["generate", "--m", "2", "--t", "2", "--format", "json"],
            ["verify", "--m", "1", "--t", "4", "--suite", "all"],
            ["verify", "--m", "1", "--t", "5", "--suite", "all"],
            ["electrical", "--m", "2", "--t", "3", "--cfb"],
            ["electrical", "--m", "2", "--t", "3", "--source", "2011.5", "--target", "#3", "--profile"],
            ["stats", "--m", "2", "--t", "3", "--empirical"],
        ]
        code = (
            "import io, sys, contextlib, kochnet.cli\n"
            "def loaded():\n"
            "    return [n for n in sys.modules if n.split('.')[0] == 'scipy' or n in ('numpy.f2py', 'numpy.ma')]\n"
            "print('import', loaded())\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = kochnet.cli.main(argv)\n"
            "    print(argv[0], code, loaded())\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        want = ["import []"] + [f"{argv[0]} 0 []" for argv in argvs]
        assert proc.stdout.splitlines() == want

    def test_cli_import_skips_sparse_linalg(self):
        code = (
            "import sys, kochnet.cli; "
            "print([name in sys.modules for name in ('scipy.sparse', 'scipy.sparse.linalg', 'numpy.f2py')])"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[False, False, False]"

    def test_generate_skips_sparse(self):
        code = (
            "import io, sys, contextlib, kochnet.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = kochnet.cli.main(['generate', '--m', '2', '--t', '2', '--format', 'json'])\n"
            "print(code, 'scipy.sparse' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 False"

    def test_main_callable_inprocess(self, capsys):
        assert main(["route", "--m", "1", "--t", "1", "1", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["1", "2"]

    @pytest.mark.parametrize("mode", ["formula", "exact", "compare"])
    @pytest.mark.parametrize("edges", [False, True])
    def test_betweenness_builds_no_labels(self, mode, edges, label_count, capsys):
        argv = ["betweenness", "--m", "2", "--t", "3", "--mode", mode] + ["--edges"] * edges
        assert main(argv) == 0
        assert capsys.readouterr().out.count("\n") == 1 + (1029 if edges else 687) + (mode == "compare")
        assert label_count() == 0

    def test_electrical_by_label_builds_no_labels(self, label_count, capsys):
        assert main(["electrical", "--m", "2", "--t", "3", "--source", "2011.5", "--target", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["thm6"] is True
        assert label_count() == 2  # the two parsed end labels

    @pytest.mark.parametrize(
        "argv,builds",
        [
            (("route", "--m", "2", "--t", "3", "#5", "#300", "--oracle"), 1),
            (("route", "--m", "2", "--t", "3", "#5", "2011.5"), 1),
            (("route", "--m", "2", "--t", "3", "10.3", "2011.5", "--oracle"), 1),
            (("route", "--m", "2", "--t", "3", "10.3", "2011.5"), 0),
            (("decode", "--m", "2", "--t", "3", "#5"), 1),
            (("decode", "--m", "2", "--t", "3", "2011.5"), 0),
        ],
        ids=["route-ids-oracle", "route-id", "route-oracle", "route-labels", "decode-id", "decode-label"],
    )
    def test_labels_resolve_through_at_most_one_build(self, argv, builds, monkeypatch, capsys):
        made = []

        def counted(m, t):
            made.append((m, t))
            return build(m, t)

        monkeypatch.setattr(cli, "build", counted)
        assert main(list(argv)) == 0
        assert len(made) == builds
        if builds:  # an id prints what its label does
            by_id = capsys.readouterr().out
            graph = build(2, 3)
            texts = [str(graph.label_of(int(x[1:]))) if x.startswith("#") else x for x in argv]
            assert main(texts) == 0
            assert capsys.readouterr().out == by_id

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
    @pytest.mark.parametrize(
        "argv",
        [
            ("stats", "--m", "1", "--t", "1"),
            ("verify", "--m", "1", "--t", "1"),
            ("generate", "--m", "1", "--t", "3", "-o", "/dev/full"),
        ],
        ids=["stats", "verify", "generate-to-file"],
    )
    def test_failed_write_is_one_error_line(self, argv):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "kochnet.cli", *argv], stdout=full, stderr=subprocess.PIPE, text=True
            )
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write output: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
    def test_failed_write_is_not_retried_at_exit(self):
        # the pure-Python io keeps the bytes a failed flush could not write, so
        # the interpreter's flush at exit fails again unless stdout is dropped
        script = (
            "import _pyio, sys\n"
            "sys.stdout = _pyio.TextIOWrapper(_pyio.BufferedWriter(_pyio.FileIO(1, 'w', closefd=False)))\n"
            "from kochnet.cli import main\n"
            "sys.exit(main(['stats', '--m', '1', '--t', '1']))\n"
        )
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-c", script], stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write output: No space left on device\n"

    def test_verify_byte_identical(self):
        a = run_cli("verify", "--m", "1", "--t", "2", "--suite", "all", "--seed", "0")
        b = run_cli("verify", "--m", "1", "--t", "2", "--suite", "all", "--seed", "0")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout.encode() == b.stdout.encode()


# sha256 of stdout for outputs made of integers, labels, exact Fractions and
# floats computed from those by plain IEEE arithmetic, so the digests do not
# depend on the BLAS build; a refactor that changes any byte of them fails here
PINNED_STDOUT = {
    ("generate", "--m", "2", "--t", "3", "--format", "edgelist"):
        "3e607392e18e331b569c874a3efc4cd0c40325438c631bbe276e20df0799af5f",
    ("generate", "--m", "2", "--t", "3", "--format", "json"):
        "84b2096d0d7df1083f6d08627156b5a62001af94d71ec99a1f512f570024d581",
    ("generate", "--m", "2", "--t", "3", "--format", "dot"):
        "26b11bc52ab87aff60b3a5a7f4077e06d734a829b963ab0094613bef662d88a8",
    ("betweenness", "--m", "2", "--t", "2", "--mode", "formula", "--edges"):
        "825e3a5bc75dfdb8f07762b8533ad569a691016eeab48dc13f12da914a0b596f",
    ("stats", "--m", "2", "--t", "2", "--empirical"):
        "450a9c375861011c6a1aa68d26ea8a61194b77923ae043b8ff6327d0ae65240a",
    ("decode", "--m", "2", "--t", "3", "2011.5"):
        "0dacc06d6ea6a5b505271c08a8444d07156d095b844c4e499b0c92561cbdfdef",
    ("route", "--m", "2", "--t", "3", "2011.5", "#100", "--oracle"):
        "aa0e9c437af6d22db24d7ed543bef8d9f53713188425a2c77ed78ae5585408f9",
    ("verify", "--m", "2", "--t", "2", "--suite", "labels"):
        "848a23510bc77e42e59ed921cc7aadcd7ab55c2f8d7e8e3c802748e82939bd25",
    ("verify", "--m", "2", "--t", "2", "--suite", "routing"):
        "7efe083195843f5f02487f11c8a6b2cc96c010f072fa69cd76e7cd8c525be0cf",
    ("verify", "--m", "2", "--t", "2", "--suite", "stats"):
        "4928eaa70e09cea063fa64c25d283e903c2bd0fe4e1e5e4bc2b9265d829fedcc",
    ("verify", "--m", "2", "--t", "2", "--suite", "centrality"):
        "5a9c30650740ab4fe1c73483f595bcc95f7804ab04b8842c28ebe5cb29e79333",
    ("betweenness", "--m", "2", "--t", "2", "--mode", "exact", "--edges"):
        "3d8dcc5371a83e277a63b8e7ae7427471fb246c981a6392c63d1c9d986c8693f",
    ("betweenness", "--m", "2", "--t", "2", "--mode", "formula"):
        "8733c81915b168aa5424d504a36b579038219ce030463ae619ecece82017e232",
    ("betweenness", "--m", "2", "--t", "2", "--mode", "exact"):
        "8933d87c203ca6c7e13f3303d3ef7be50c348e8b211f130c4378b637e4c0b89b",
    # at t = 2 there is no scaling fit, so the audit line has no LAPACK bits
    ("betweenness", "--m", "2", "--t", "2", "--mode", "compare", "--edges"):
        "8b712ac1fbbc2d860813f9ce21703c70286a4eab3798e67c4de1daef5201c11d",
    ("electrical", "--m", "2", "--t", "3", "--cfb"):
        "bfe75c92747cd6bbb5d2b52cdfaf9e5780c0c538d2d6860e543485c60d3803be",
    # edge values that print in exponent form (9.447219667636576e-05)
    ("betweenness", "--m", "2", "--t", "4", "--mode", "exact", "--edges"):
        "2ebbd21ec6d00e78630ba396a5344eecc95723a03e13012c94e9f49be4948871",
    # a negative paper column (-0.5)
    ("betweenness", "--m", "1", "--t", "0", "--mode", "formula"):
        "fe4a6dfa85beb98723614493a355c3fa144dd77b7e53724580d0113f1e00c457",
    # K(2,6), N = 235299: many export chunks, ids and indexes of up to 6 digits
    ("generate", "--m", "2", "--t", "6", "--format", "edgelist"):
        "b871de0d98d5d03921f4333ed86dff38426f236590be6c0c7e06cd10b5aa0c0b",
    ("generate", "--m", "2", "--t", "6", "--format", "json"):
        "8bcb90490a31f49ce675fc12418c0aa636e8c8df934b53b68a9ec0835af3c92d",
    ("generate", "--m", "2", "--t", "6", "--format", "dot"):
        "bbd3225e80f6ff5caa339fc8b1c3db7227c381286308dc2a6699e977204b63f4",
    ("betweenness", "--m", "2", "--t", "6", "--mode", "exact", "--edges"):
        "d1c48fc63f42957f4591568f31d8b8e95a0128578a9f215db971ed2be551a689",
    ("betweenness", "--m", "2", "--t", "6", "--mode", "exact"):
        "2512829e12daef3f8d9d1a06c720c708837fdbeca77f5c15829231f080aeee8d",
    # pair profiles and a voltage spectrum: unit-drop voltages and raw off-path currents
    ("electrical", "--m", "1", "--t", "3", "--source", "#5", "--target", "#120"):
        "9a0c58e91faebe0a953e56f1aaac5caecfc32bfc8aa68eb6890ce1bbe1bb2e6a",
    ("electrical", "--m", "1", "--t", "3", "--source", "#5", "--target", "#120", "--gap"):
        "d48d8845b2843376dea969fefc3a94819f21b195483f068fc4e5d4be76889844",
    ("electrical", "--m", "2", "--t", "4", "--source", "#7", "--target", "#4000"):
        "7839771b9aa8ed44457833ac91b358c9dbf5175337eb2008051f18f519b32597",
    # K(1,8): vertices born at steps 7 and 8, whose growth bits and degree exponents pass
    # what an 8-bit shift or power holds
    ("verify", "--m", "1", "--t", "8", "--seed", "3"):
        "4c4a5746ea2e042a58b1efc6d12008966557688cab8cb8ce9056874995f8b1c3",
    # the benchmark's two verify runs: every suite, the routing pairs exhaustive on K(1,4) and
    # sampled on K(1,5), the 50 probe fields in one column block on K(1,4) and in blocks of 31 and
    # 19 on K(1,5), and K(1,4)'s Laplacian cfb oracle
    ("verify", "--m", "1", "--t", "4", "--seed", "1"):
        "1a8a2773bef14a0791abe9aa9b711929314c7a503325ec0541b7d3c9af0d6696",
    ("verify", "--m", "1", "--t", "5", "--seed", "1"):
        "ef2c47e4a22e58ed60911c5814a5b9b5ab8b9ed62a288899904b4a15db4388cb",
    ("generate", "--m", "1", "--t", "8", "--format", "dot"):
        "0ebf8edc414569bff1996e9ee834d8100ac0100c5dfbc39abc93fefe46af22e5",
    # and their birth and degree columns, and the edge rows, in the other two formats
    ("generate", "--m", "1", "--t", "8", "--format", "json"):
        "d355f45a81b1bc5222292f58edacf543dc49215be6ab9e354d1dc36d64e2b7c4",
    ("generate", "--m", "1", "--t", "8", "--format", "edgelist"):
        "eca599ce67966c28d93339ff7ed852cb91d72d2fe0eb37b5e1b58e5c474bf672",
}


def test_pinned_stdout_digests():
    changed = []
    for argv, digest in PINNED_STDOUT.items():
        proc = subprocess.run([sys.executable, "-m", "kochnet.cli", *argv], capture_output=True)
        assert proc.returncode == 0, (argv, proc.stderr)
        if hashlib.sha256(proc.stdout).hexdigest() != digest:
            changed.append(" ".join(argv))
    assert changed == []


@pytest.mark.parametrize(
    "argv",
    [
        ("betweenness", "--m", "2", "--t", "2", "--mode", "exact"),
        ("betweenness", "--m", "2", "--t", "4", "--mode", "exact", "--edges"),
    ],
)
def test_exact_mode_reads_the_counts_alone(argv, monkeypatch, capsys):
    """`betweenness --mode exact` evaluates no per-step closed form and fits no slope."""

    def refused(*args, **kwargs):
        raise AssertionError("exact mode evaluated a closed form or a fit")

    monkeypatch.setattr(centrality, "step_forms", refused)
    monkeypatch.setattr(np, "polyfit", refused)
    # and of the counts, only the kind it writes: vertex counts without --edges, edge counts with
    other = "vertex_betweenness_counts" if "--edges" in argv else "edge_betweenness_counts"
    monkeypatch.setattr(centrality, other, refused)
    assert main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINNED_STDOUT[argv]


def test_pinned_compare_stdout():
    """`betweenness --mode compare` rows by sha256; the audit line by value.

    gamma_hat is a least-squares slope whose last bits follow the LAPACK
    build, so it is held to the audit's own rel_tol instead of a digest.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "kochnet.cli", "betweenness", "--m", "1", "--t", "3", "--mode", "compare"],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    *rows, audit_line = proc.stdout.splitlines(keepends=True)
    digest = hashlib.sha256(b"".join(rows)).hexdigest()
    assert digest == "cfa322c5e712477d385bb94c7e91cbe98579b0f867d32a41d40e4efc3ed0e65b"
    audit = json.loads(audit_line)
    gamma_hat = audit.pop("gamma_hat")
    assert audit == {"eq9_matches": False, "eq12_matches": False, "max_rel_gap": 62.5}
    assert math.isclose(gamma_hat, 2.2611248158251636, rel_tol=1e-9)


# a small grammar of argv: a command, --m and --t, the command's own options and positionals
# (flag None), each value a (good, bad) pair of lists, a bad one now and then, and now and then
# another command's option; _SWITCH marks an option that takes no value
_SIZES = {"--m": (["1", "2", "3"], ["0", "-1", "x", "", "1e3", "9" * 25]), "--t": (["0", "1", "2", "3"], ["-1", "x"])}
_LABELS = (
    ["1", "3", "10.1", "20.2", "101.2", "#0", "#5", "#70"],
    ["4", "10.0", "10.99", "1.", ".1", "", "#-1", "#99999", "#1_0", "#x", "10." + "9" * 5000, "10.1\n"],
)
_COUNTS = (["1", "3"], ["0", "-1", "1000001", "x"])
# KOCH_MAX_VERTICES: 130 builds K(1,3) and K(2,2) and refuses K(3,2); unset, the largest graph
# the sizes above make is K(3,3), N = 2001
_CAPS = (["130"], ["10", "", "0", "abc", "9" * 5000])
_SWITCH = ([], [])
_OPTIONS = {
    "generate": [
        ("--format", (["edgelist", "json", "dot"], ["csv"])),
        ("-o", ([os.devnull], [os.devnull + "/x", tempfile.gettempdir()])),
    ],
    "decode": [(None, _LABELS)],
    "route": [(None, _LABELS), (None, _LABELS), ("--oracle", _SWITCH)],
    "stats": [("--empirical", _SWITCH), ("--csv", _SWITCH)],
    "betweenness": [("--mode", (["formula", "exact", "compare"], ["x"])), ("--edges", _SWITCH)],
    "electrical": [("--source", _LABELS), ("--target", _LABELS), ("--cfb", _SWITCH), ("--gap", _SWITCH)],
    "verify": [
        ("--suite", (["all", *verify.SUITE_ORDER], ["x"])),
        ("--seed", _COUNTS),
        ("--pairs", _COUNTS),
        ("--electrical-pairs", _COUNTS),
    ],
}


@st.composite
def _argv(draw) -> tuple[list[str], str]:
    def value(values):
        good, bad = values
        return draw(st.sampled_from(bad if rarely() else good))

    def rarely():  # one draw in ten, away from the ends of the range that hypothesis favours
        return draw(st.integers(0, 9)) == 5

    command = draw(st.sampled_from([*_OPTIONS, "nope"]))
    argv = [command]
    for flag, values in _SIZES.items():
        if not rarely():
            argv += [flag, value(values)]
    for flag, values in _OPTIONS.get(command, []):
        if flag is None:
            if not rarely():
                argv.append(value(values))
        elif draw(st.booleans()):
            argv += [flag, value(values)] if values is not _SWITCH else [flag]
    if rarely():
        argv.append(draw(st.sampled_from([flag for options in _OPTIONS.values() for flag, _ in options if flag])))
    return argv, value(_CAPS)


@settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_every_argv_exits_with_a_documented_code(argv_and_cap):
    # in-process: argparse's own errors are a SystemExit, and any other exception fails the test
    argv, cap = argv_and_cap
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("KOCH_MAX_VERTICES", cap)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
