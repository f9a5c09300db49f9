import json

import pytest

from pcsp import cli, ratlp
from pcsp import random_instances as ri
from pcsp.consistency import parse_strategy
from pcsp.core import (
    Signature,
    Structure,
    complete_graph,
    cycle,
    exactly_template,
    load_structure,
    nae_template,
    path,
    save_structure,
)
from pcsp.coloring import Coloring, random_planted_graph, validate_coloring
from pcsp.polymorphisms import is_wnu, parse_operation
from pcsp.sherali_adams import parse_certificate


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, s in [
        ("k2", complete_graph(2)),
        ("k3", complete_graph(3)),
        ("k5", complete_graph(5)),
        ("c4", cycle(4)),
        ("c5", cycle(5)),
        ("two_in_four", exactly_template(2, 4)),
        ("nae4", nae_template(4)),
    ]:
        p = tmp_path / (name + ".struct")
        save_structure(s, str(p))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


class TestAnalyze:
    def test_k3_k5(self, files, capsys):
        assert cli.main(["analyze", "--left", files["k3"],
                         "--right", files["k5"]]) == 0
        assert "NoSublinearWidth" in capsys.readouterr().out

    def test_json(self, files, capsys):
        assert cli.main(["analyze", "--left", files["two_in_four"],
                         "--right", files["nae4"], "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "NoSublinearWidth"

    def test_malformed_file(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.struct"
        bad.write_text("structure x\ndomain notanumber\n")
        assert cli.main(["analyze", "--left", str(bad),
                         "--right", files["k3"]]) == 2

    def test_missing_file(self, files):
        assert cli.main(["analyze", "--left", "/nonexistent",
                         "--right", files["k3"]]) == 2


class TestConsistency:
    def test_negative(self, files):
        assert cli.main(["consistency", "--instance", files["c5"],
                         "--template", files["k2"], "--k", "3"]) == 1

    def test_positive_with_strategy(self, files, tmp_path):
        out = tmp_path / "strategy.txt"
        assert cli.main(["consistency", "--instance", files["c4"],
                         "--template", files["k2"], "--k", "3",
                         "--emit-strategy", str(out)]) == 0
        strategy = parse_strategy(out.read_text())
        assert strategy

    def test_budget(self, files, monkeypatch):
        monkeypatch.setenv("PCSP_BUDGET_NODES", "1")
        code = cli.main(["consistency", "--instance", files["c5"],
                         "--template", files["k2"], "--k", "3"])
        assert code == 3

    def test_zero_budget_is_a_zero_budget(self, files, monkeypatch):
        monkeypatch.setenv("PCSP_BUDGET_NODES", "0")
        code = cli.main(["consistency", "--instance", files["c4"],
                         "--template", files["k2"], "--k", "2"])
        assert code == 3


class TestSa:
    def test_infeasible(self, files):
        assert cli.main(["sa", "--instance", files["c5"],
                         "--template", files["k2"], "--level", "3"]) == 1

    def test_feasible_certificate(self, files, tmp_path):
        cert = tmp_path / "cert.txt"
        assert cli.main(["sa", "--instance", files["c4"],
                         "--template", files["k2"], "--level", "2",
                         "--certificate", str(cert)]) == 0
        point = parse_certificate(cert.read_text())
        assert point

    def test_failed_self_check_is_an_internal_error(self, files, monkeypatch,
                                                    capsys):
        monkeypatch.setattr(ratlp, "check_point", lambda lp, point: False)
        assert cli.main(["sa", "--instance", files["c4"],
                         "--template", files["k2"], "--level", "2"]) == 4
        err = capsys.readouterr().err
        assert err == "internal error: simplex point fails a constraint\n"


class TestNullaryRelation:
    """An instance holding the nullary tuple, against a template whose
    nullary relation is empty, read back from files."""

    @pytest.mark.parametrize("argv, out", [
        (["sa", "--level", "2"], "sa_2: infeasible\n"),
        (["consistency", "--k", "2"], "leq_2: false (0 maps)\n"),
    ], ids=["sa", "consistency"])
    def test_rejected(self, tmp_path, capsys, argv, out):
        sig = Signature((("Z", 0), ("E", 2)))
        paths = []
        for name, s in [("inst", Structure(sig, 3, (("Z", ((),)), ("E", ((0, 1),))))),
                        ("tmpl", Structure(sig, 2, (("Z", ()), ("E", ((0, 1), (1, 0))))))]:
            paths.append(str(tmp_path / (name + ".struct")))
            save_structure(s, paths[-1])
            assert load_structure(paths[-1]) == s
        assert cli.main(argv + ["--instance", paths[0], "--template", paths[1]]) == 1
        assert capsys.readouterr().out == out


class TestInternalErrors:
    def test_unexpected_exception_is_exit_4(self, files, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli.cons, "compute_strategy", broken)
        assert cli.main(["consistency", "--instance", files["c4"],
                         "--template", files["k2"], "--k", "2"]) == 4
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


class TestPolymorph:
    def test_wnu_found(self, files, tmp_path):
        out = tmp_path / "wnu.op"
        assert cli.main(["polymorph", "--left", files["two_in_four"],
                         "--right", files["nae4"], "--arity", "3",
                         "--wnu", "--out", str(out)]) == 0
        assert is_wnu(parse_operation(out.read_text()))

    def test_wnu_absent(self, files):
        assert cli.main(["polymorph", "--left", files["k3"],
                         "--right", files["k3"], "--arity", "3",
                         "--wnu"]) == 1

    def test_enumerate(self, files, capsys):
        assert cli.main(["polymorph", "--left", files["k2"],
                         "--right", files["k2"], "--arity", "1"]) == 0
        assert "2 polymorphisms" in capsys.readouterr().out


class TestSample:
    def test_deterministic_file(self, tmp_path):
        a = tmp_path / "a.struct"
        b = tmp_path / "b.struct"
        for p in (a, b):
            assert cli.main(["sample", "--n", "10", "--r", "2", "--d", "3",
                             "--seed", "7", "--out", str(p)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert load_structure(str(a)).n == 10

    def test_rational_d(self, tmp_path):
        out = tmp_path / "s.struct"
        assert cli.main(["sample", "--n", "6", "--r", "2", "--d", "5/2",
                         "--seed", "0", "--out", str(out)]) == 0

    def test_bad_probability(self, tmp_path):
        out = tmp_path / "s.struct"
        assert cli.main(["sample", "--n", "4", "--r", "2", "--d", "100",
                         "--seed", "0", "--out", str(out)]) == 2


class TestHard:
    def test_report_header(self, files, tmp_path):
        report = tmp_path / "report.csv"
        code = cli.main(["hard", "--left", files["k3"], "--right", files["k2"],
                         "--n", "12", "--seed", "1", "--attempts", "50",
                         "--d", "5", "--report", str(report),
                         "--out", str(tmp_path / "inst.struct")])
        lines = report.read_text().splitlines()
        assert lines[0] == "# pcsp-lab v1"
        assert lines[1] == "attempt,hom_found,sparse,exact,reason"
        assert code in (0, 1)

    def test_failed_conditions_go_to_stderr(self, files, capsys):
        # with d = 1/2, C6 (1 <= d <= n^(r-1)) fails as well as the recipe's
        # C3 and C7; stdout carries only the verdict
        code = cli.main(["hard", "--left", files["k3"], "--right", files["k2"],
                         "--n", "12", "--seed", "1", "--attempts", "5",
                         "--d", "1/2"])
        out, err = capsys.readouterr()
        assert out == ("found\n" if code == 0 else "no instance in 5 attempts\n")
        assert err == "warning: conditions not met: C3, C6, C7\n"

    def test_conditions_are_evaluated_once_under_d(self, files, monkeypatch):
        calls = []

        def counted(ps):
            calls.append(ps.d)
            return check(ps)

        check = ri.check_conditions
        monkeypatch.setattr(ri, "check_conditions", counted)
        cli.main(["hard", "--left", files["k3"], "--right", files["k2"],
                  "--n", "12", "--attempts", "1", "--d", "5"])
        assert calls == [5]

    def test_zero_attempts(self, files, tmp_path):
        assert cli.main(["hard", "--left", files["k3"], "--right", files["k2"],
                         "--n", "12", "--attempts", "0", "--d", "5"]) == 1


class TestColor:
    def _planted(self, tmp_path, n=40, prob=0.25, seed=4):
        g, classes = random_planted_graph(n, prob, seed=seed)
        gpath = tmp_path / "g.struct"
        save_structure(g, str(gpath))
        ppath = tmp_path / "planted.txt"
        ppath.write_text("".join("%d %d\n" % (v, c)
                                 for v, c in sorted(classes.items())))
        return g, gpath, ppath

    def _read_coloring(self, path):
        colors = {}
        for ln in path.read_text().splitlines():
            v, c = ln.split()
            colors[int(v)] = int(c)
        return colors

    def test_wigderson(self, tmp_path):
        g, gpath, ppath = self._planted(tmp_path)
        out = tmp_path / "col.txt"
        assert cli.main(["color", "--graph", str(gpath), "--mode", "wigderson",
                         "--planted", str(ppath), "--out", str(out)]) == 0
        colors = self._read_coloring(out)
        assert validate_coloring(g, Coloring(colors, max(colors.values()) + 1))

    def test_general_with_trace(self, tmp_path):
        g, gpath, ppath = self._planted(tmp_path, n=60)
        out = tmp_path / "col.txt"
        trace = tmp_path / "trace.csv"
        assert cli.main(["color", "--graph", str(gpath), "--mode", "general",
                         "--epsilon", "0.3", "--planted", str(ppath),
                         "--out", str(out), "--trace", str(trace)]) == 0
        assert trace.read_text().splitlines()[0] == "# pcsp-lab v1"
        colors = self._read_coloring(out)
        assert validate_coloring(g, Coloring(colors, max(colors.values()) + 1))

    def test_baseline_exact_oracle(self, tmp_path):
        g, gpath, _ = self._planted(tmp_path, n=20)
        out = tmp_path / "col.txt"
        assert cli.main(["color", "--graph", str(gpath), "--mode", "baseline",
                         "--epsilon", "0.5", "--out", str(out)]) == 0

    def test_baseline_exact_oracle_on_a_long_path(self, tmp_path):
        gpath = tmp_path / "p3000.struct"
        save_structure(path(3000), str(gpath))
        out = tmp_path / "col.txt"
        assert cli.main(["color", "--graph", str(gpath), "--mode", "baseline",
                         "--epsilon", "0.01", "--out", str(out)]) == 0
        colors = self._read_coloring(out)
        assert validate_coloring(path(3000), Coloring(colors, max(colors.values()) + 1))

    @pytest.mark.parametrize("mode", ["general", "baseline"])
    def test_rational_epsilon(self, tmp_path, capsys, mode):
        # --epsilon is read as a rational, like `pcsp hard --eps`
        _, gpath, ppath = self._planted(tmp_path, n=60)
        printed = []
        for eps in ("1/4", "0.25"):
            assert cli.main(["color", "--graph", str(gpath), "--mode", mode,
                             "--epsilon", eps, "--planted", str(ppath),
                             "--out", "-"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and "palette:" in printed[0]

    def test_promise_violation(self, tmp_path):
        k5 = complete_graph(5)
        gpath = tmp_path / "k5.struct"
        save_structure(k5, str(gpath))
        out = tmp_path / "col.txt"
        assert cli.main(["color", "--graph", str(gpath),
                         "--mode", "wigderson", "--out", str(out)]) == 1


    @pytest.mark.parametrize("mode", ["wigderson", "general", "baseline"])
    def test_improper_planted_map_is_an_input_error(self, tmp_path, capsys, mode):
        gpath = tmp_path / "k4.struct"
        save_structure(complete_graph(4), str(gpath))
        ppath = tmp_path / "planted.txt"
        ppath.write_text("0 0\n1 1\n2 2\n3 0\n")
        out = tmp_path / "col.txt"
        assert cli.main(["color", "--graph", str(gpath), "--mode", mode,
                         "--planted", str(ppath), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: planted map is not a proper 3-coloring of the graph\n"
        assert not out.exists()

    def test_improper_result_is_an_internal_error(self, tmp_path, capsys,
                                                  monkeypatch):
        # a coloring routine that returns the K4 map 0 0, 1 1, 2 2, 3 0
        gpath = tmp_path / "k4.struct"
        save_structure(complete_graph(4), str(gpath))
        monkeypatch.setattr(cli.col, "wigderson_color",
                            lambda g, oracle: Coloring({0: 0, 1: 1, 2: 2, 3: 0}, 3))
        out = tmp_path / "col.txt"
        assert cli.main(["color", "--graph", str(gpath), "--mode", "wigderson",
                         "--out", str(out)]) == 4
        assert capsys.readouterr() == \
            ("", "internal error: wigderson coloring is not proper\n")
        assert not out.exists()


class TestBench:
    def test_empty_sweep(self, files, tmp_path):
        out = tmp_path / "bench.csv"
        assert cli.main(["bench", "--left", files["two_in_four"],
                         "--right", files["nae4"], "--nmin", "4",
                         "--nmax", "6", "--seeds", "0",
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# pcsp-lab v1"
        assert len(lines) == 2  # header comment + column header

    def test_byte_identical_reruns(self, files, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["bench", "--left", files["two_in_four"],
                "--right", files["nae4"], "--nmin", "5", "--nmax", "7",
                "--step", "2", "--seeds", "2", "--k", "2", "--sa", "1",
                "--d", "2"]
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[1] == "n,seed,leq_k2,leq_sa1,hom"
        assert len(lines) == 2 + 2 * 2


class TestUsage:
    def test_no_subcommand(self):
        assert cli.main([]) == 2

    def test_unknown_flag(self, files):
        assert cli.main(["analyze", "--left", files["k3"],
                         "--bogus", "x"]) == 2

    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == 0
