"""Command line front end: config parsing, outputs, exit codes."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qdelta import cli, localdens
from qdelta.cli import ConfigError, build_instance, config_sha256, main, parse_config
from qdelta.expsums import sqc_values
from qdelta.modarith import primes_up_to

HYP_CFG = """\
# hyperboloid test instance
a11 = 1
a22 = 1
a33 = -1
m0 = 1
p0 = 5
h = 1
L = 1
lambda = 0,0,0
weight_center = 1.25, 0.5, 0.9013878188659973
weight_radius = 0.6
"""

# x^2 + y^2 + z^2 = 4 N: the density at 2 is uncertified (the certificate is
# conservative there), its value 3/4 right all the same
SPHERE4_CFG = """\
a11 = 1
a22 = 1
a33 = 1
m0 = 4
p0 = 5
weight_center = 1.1547005383792517, 1.1547005383792517, 1.1547005383792517
weight_radius = 0.6
"""


@pytest.fixture
def cfg_file(tmp_path: Path) -> Path:
    path = tmp_path / "inst.cfg"
    path.write_text(HYP_CFG)
    return path


class TestConfigParsing:
    def test_parse_and_hash(self, cfg_file):
        cfg = parse_config(str(cfg_file))
        assert cfg["a33"] == "-1"
        assert cfg["lambda"] == "0,0,0"
        assert len(config_sha256(cfg)) == 64

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# full comment\n\na11 = 1  # trailing\n")
        assert parse_config(str(p)) == {"a11": "1"}

    def test_missing_field_named(self, cfg_file):
        cfg = parse_config(str(cfg_file))
        del cfg["m0"]
        with pytest.raises(ConfigError, match="m0"):
            build_instance(cfg)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("this is not a key value line\n")
        with pytest.raises(ConfigError):
            parse_config(str(p))

    def test_build_instance(self, cfg_file):
        inst = build_instance(parse_config(str(cfg_file)))
        assert inst.N == 25
        assert inst.form.coefficients()[:3] == (1, 1, -1)


class TestSubcommands:
    def test_count(self, cfg_file, tmp_path, capsys):
        rc = main(["count", "--config", str(cfg_file), "--out", str(tmp_path), "--deterministic"])
        assert rc == 0
        doc = json.loads((tmp_path / "count.json").read_text())
        assert doc["raw_count"] == 6
        assert doc["wall_time"] == 0.0
        assert "strategy" not in doc
        assert "config_sha256" in doc

    def test_count_deterministic_byte_identical(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["count", "--config", str(cfg_file), "--out", str(out1), "--deterministic"]) == 0
        assert main(["count", "--config", str(cfg_file), "--out", str(out2), "--deterministic"]) == 0
        assert (out1 / "count.json").read_bytes() == (out2 / "count.json").read_bytes()

    def test_compare_deterministic_byte_identical(self, cfg_file, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(cfg_file.read_text() + "quad_max_nodes = 48\n")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        codes = [main(["compare", "--config", str(p), "--out", str(out), "--deterministic"])
                 for out in (out1, out2)]
        # at a 48-node cap the identity check may fail (exit 1); both runs agree
        assert codes[0] == codes[1] and codes[0] in (0, 1)
        assert (out1 / "compare.json").read_bytes() == (out2 / "compare.json").read_bytes()
        doc = json.loads((out1 / "compare.json").read_text())
        (check,) = doc["identity_checks"]
        assert check["capped_q"][0] == 1
        # the singular integral's evidence: the coarea cross-check, solved
        # along x3 here, and the mollifier ladder at the 48-node cap
        report = doc["report"]
        assert report["coarea_axis"] == 2
        assert report["singular_integral_ladder"] == [
            {"eps": 0.2, "nodes": 48}, {"eps": 0.1, "nodes": 48}, {"eps": 0.05, "nodes": 48}]
        assert report["singular_integral_converged"] in (True, False)
        assert abs(report["coarea_value"] - report["singular_integral"]) <= (
            report["coarea_error"] + report["singular_integral_error"] + 1e-9)
        assert all(check["nodes_per_q"][q - 1] == 48 for q in check["capped_q"])
        # the (q, c) terms evaluated per q: S_q(c)'s support sub-cube in the
        # window, at most the whole window, and 0 where a q is skipped
        terms = check["terms_per_q"]
        assert len(terms) == check["q_max"] == len(check["nodes_per_q"])
        assert all(0 <= t <= (2 * check["c_max"] + 1) ** 3 for t in terms)
        assert 0 < sum(terms) < check["q_max"] * (2 * check["c_max"] + 1) ** 3

    def test_compare_lists_skipped_identity_checks(self, cfg_file, tmp_path, capsys):
        # h_max = 4 crosses the N = 400 cap of the expansion side at h = 2
        p = tmp_path / "c.cfg"
        p.write_text(cfg_file.read_text() + "h_max = 4\nquad_max_nodes = 48\nq_max = 2\nc_max = 2\n")
        code = main(["compare", "--config", str(p), "--out", str(tmp_path), "--deterministic"])
        assert code in (0, 1)
        doc = json.loads((tmp_path / "compare.json").read_text())
        assert [c["h"] for c in doc["identity_checks"]] == [1]
        assert doc["identity_skipped"] == [
            {"h": h, "N": 5 ** (2 * h), "reason": "N > 400"} for h in (2, 3, 4)
        ]
        out = capsys.readouterr().out
        for h in (2, 3, 4):
            assert f"h={h}: identity check skipped (N > 400, N = {5 ** (2 * h)})" in out

    def test_expsum_csv_schema(self, cfg_file, tmp_path):
        cfg = cfg_file.read_text() + "q_range = 1:50\nc_list = 0,0,0\n"
        p = tmp_path / "e.cfg"
        p.write_text(cfg)
        assert main(["expsum", "--config", str(p), "--out", str(tmp_path)]) == 0
        with (tmp_path / "expsum.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        assert set(rows[0]) == {"q", "q1", "q2", "c1", "c2", "c3", "re", "im", "abs", "class"}
        assert all(r["class"] == "zero" for r in rows)
        assert float(rows[0]["re"]) == 1.0

    def test_expsum_rows_match_one_c_values(self, cfg_file, tmp_path):
        # qdelta expsum computes each q's values as one batch; every value
        # must equal sqc_values called for that c alone
        cfg = cfg_file.read_text().replace("h = 1", "h = 2")
        cfg += "q_range = 198:206\nc_list = 1,2,0; 0,0,0; -3,1,4\n"
        p = tmp_path / "e.cfg"
        p.write_text(cfg)
        assert main(["expsum", "--config", str(p), "--out", str(tmp_path)]) == 0
        with (tmp_path / "expsum.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9 * 3
        inst = build_instance(parse_config(str(p)))
        for r in rows:
            q, c = int(r["q"]), (int(r["c1"]), int(r["c2"]), int(r["c3"]))
            (val,) = sqc_values(inst, q, [c])
            assert (r["re"], r["im"]) == (repr(val.real), repr(val.imag)), (q, c)

    def test_density_csv_schema(self, cfg_file, tmp_path):
        cfg = cfg_file.read_text() + "p_max_density = 100\n"
        p = tmp_path / "d.cfg"
        p.write_text(cfg)
        assert main(["density", "--config", str(p), "--out", str(tmp_path)]) == 0
        with (tmp_path / "density.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["p", "k_star", "count", "density_num", "density_den",
                                 "euler_factor", "method", "certified"]
        assert [int(r["p"]) for r in rows] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                               41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
        for r in rows:
            assert int(r["density_den"]) > 0
            assert r["certified"] == "True"

    def test_density_flags_uncertified(self, tmp_path):
        p = tmp_path / "d.cfg"
        p.write_text(SPHERE4_CFG + "p_max_density = 13\n")
        assert main(["density", "--config", str(p), "--out", str(tmp_path)]) == 0
        with (tmp_path / "density.csv").open() as fh:
            rows = {int(r["p"]): r for r in csv.DictReader(fh)}
        assert (rows[2]["density_num"], rows[2]["density_den"]) == ("3", "4")
        assert {q: r["certified"] for q, r in rows.items()} == {
            q: str(q != 2) for q in primes_up_to(13)}

    def test_compare_one_main_term_and_uncertified_primes(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text(SPHERE4_CFG + "P_max = 30\nquad_max_nodes = 24\nq_max = 1\nc_max = 1\n")
        code = main(["compare", "--config", str(p), "--out", str(tmp_path), "--deterministic"])
        assert code in (0, 1)
        doc = json.loads((tmp_path / "compare.json").read_text())
        assert doc["report"]["uncertified_primes"] == [2]
        assert list(doc["report"]["predictions"]) == ["main_sqrtN_lvalue"]
        assert doc["secondary"]["main_term"] == "main_sqrtN_lvalue"
        assert "main term: main_sqrtN_lvalue" in capsys.readouterr().out

    def test_density_method_column(self, cfg_file, tmp_path):
        # hyperboloid, det = -1, m0 = 1, L = 1: p = 2 climbs the ladder, p0 = 5
        # takes the cone recurrence, every other prime is clean
        p = tmp_path / "d.cfg"
        p.write_text(cfg_file.read_text() + "p_max_density = 30\n")
        assert main(["density", "--config", str(p), "--out", str(tmp_path)]) == 0
        with (tmp_path / "density.csv").open() as fh:
            methods = {int(r["p"]): r["method"] for r in csv.DictReader(fh)}
        series = localdens.singular_series(build_instance(parse_config(str(p))), 30)
        assert methods == {d.p: d.method for d in series.densities}
        assert methods == {2: "ladder", 5: "cone-recurrence",
                           **{q: "gauss-character" for q in primes_up_to(30) if q not in (2, 5)}}

    def test_density_computes_each_sigma_p_once(self, cfg_file, tmp_path, monkeypatch):
        calls = []
        real = localdens.sigma_p

        def counting(instance, p):
            calls.append(p)
            return real(instance, p)

        monkeypatch.setattr(localdens, "sigma_p", counting)
        monkeypatch.setattr(cli, "sigma_p", counting, raising=False)
        p = tmp_path / "d.cfg"
        p.write_text(cfg_file.read_text() + "p_max_density = 60\n")
        assert main(["density", "--config", str(p), "--out", str(tmp_path)]) == 0
        assert calls == [q for q in primes_up_to(60) if q != 5]

    def test_density_rows_stop_at_p_max(self, cfg_file, tmp_path):
        # the cone factor at p0 = 13 enters the series but not the table
        cfg = cfg_file.read_text().replace("p0 = 5", "p0 = 13") + "p_max_density = 11\n"
        p = tmp_path / "d.cfg"
        p.write_text(cfg)
        assert main(["density", "--config", str(p), "--out", str(tmp_path)]) == 0
        with (tmp_path / "density.csv").open() as fh:
            assert [int(r["p"]) for r in csv.DictReader(fh)] == [2, 3, 5, 7, 11]

    def test_delta_check_csv(self, cfg_file, tmp_path):
        cfg = cfg_file.read_text() + "Q_list = 5,10\nn_range = -5:5\n"
        p = tmp_path / "dc.cfg"
        p.write_text(cfg)
        assert main(["delta-check", "--config", str(p), "--out", str(tmp_path)]) == 0
        with (tmp_path / "delta.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 22
        assert set(rows[0]) == {"n", "Q", "value", "deviation"}
        nonzero = [r for r in rows if r["n"] != "0"]
        assert all(float(r["deviation"]) < 1e-10 for r in nonzero)

    def test_exit_code_2_on_config_error(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("a11 = 1\n")  # missing nearly everything
        rc = main(["count", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert "missing config field" in capsys.readouterr().err

    def test_exit_code_2_on_non_integer_c_list(self, cfg_file, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text(cfg_file.read_text() + "q_range = 1:3\nc_list = 1,x,0\n")
        rc = main(["expsum", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert "c_list" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["quad_nodes_per_cycle", "quad_nodes_per_feature"])
    def test_exit_code_2_on_retired_quad_key(self, cfg_file, tmp_path, capsys, key):
        p = tmp_path / "q.cfg"
        p.write_text(cfg_file.read_text() + f"{key} = 7\n")
        rc = main(["compare", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "compare.json").exists()

    @pytest.mark.parametrize("value", ["sliced", "triple"])
    def test_exit_code_2_on_retired_strategy_key(self, cfg_file, tmp_path, capsys, value):
        # the count has one enumeration route; the key is refused, not ignored
        p = tmp_path / "s.cfg"
        p.write_text(cfg_file.read_text() + f"strategy = {value}\n")
        rc = main(["count", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert "strategy" in capsys.readouterr().err
        assert not (tmp_path / "count.json").exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("quad_max_nodes = 0\n", "at least 1"),
            ("quad_max_nodes = -5\n", "at least 1"),
            ("quad_base_nodes = 0\n", "at least 1"),
            ("quad_base_nodes = 100\nquad_max_nodes = 48\n", "exceeds max_nodes"),
        ],
        ids=["max_0", "max_neg", "base_0", "base_above_max"],
    )
    def test_exit_code_2_on_impossible_node_count(self, cfg_file, tmp_path, capsys, extra, message):
        # a node count below 1 is a config error, not leggauss's failure
        # reported as a resource bound; a base above the cap is one too, not
        # a silent clamp of every q to the cap
        p = tmp_path / "q.cfg"
        p.write_text(cfg_file.read_text() + extra)
        rc = main(["compare", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not (tmp_path / "compare.json").exists()

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_exit_code_2_on_invalid_tolerance(self, cfg_file, tmp_path, capsys, value):
        # a tolerance no error can meet, or any error meets, is refused
        # before any work rather than reported as a failed identity check
        p = tmp_path / "t.cfg"
        p.write_text(cfg_file.read_text() + f"tolerance = {value}\n")
        rc = main(["compare", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "tolerance" in err
        assert not (tmp_path / "compare.json").exists()

    @pytest.mark.parametrize(
        "extra",
        ["Q_list = 1\n", "kernel_tempering = -1\n", "kernel_skew = 1\n"],
        ids=["Q_1", "tempering_neg", "skew_1"],
    )
    def test_exit_code_2_on_invalid_kernel(self, cfg_file, tmp_path, capsys, extra):
        # a kernel the config cannot build is a config error, not a resource
        # bound, and delta.csv is not opened
        p = tmp_path / "k.cfg"
        p.write_text(cfg_file.read_text() + extra)
        rc = main(["delta-check", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "delta.csv").exists()

    @pytest.mark.parametrize(
        "command, extra, output",
        [
            ("expsum", "q_range = 5:1\n", "expsum.csv"),
            ("delta-check", "n_range = 3:-3\n", "delta.csv"),
        ],
        ids=["q_range", "n_range"],
    )
    def test_exit_code_2_on_empty_range(self, cfg_file, tmp_path, capsys, command, extra, output):
        p = tmp_path / "r.cfg"
        p.write_text(cfg_file.read_text() + extra)
        rc = main([command, "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert extra.split()[0] in capsys.readouterr().err
        assert not (tmp_path / output).exists()

    @pytest.mark.parametrize("q_range", ["0:3", "-2:5"])
    def test_exit_code_2_on_nonpositive_q(self, cfg_file, tmp_path, capsys, q_range):
        # a q range reaching below 1 is a config error, refused before
        # expsum.csv is opened
        p = tmp_path / "q.cfg"
        p.write_text(cfg_file.read_text() + f"q_range = {q_range}\n")
        rc = main(["expsum", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert "q_range" in capsys.readouterr().err
        assert not (tmp_path / "expsum.csv").exists()

    @pytest.mark.parametrize(
        "extra",
        ["c_max = -1\n", "q_max = 0\n", "q_max = -3\n", "h_min = -1\n"],
        ids=["c_max_neg", "q_max_0", "q_max_neg", "h_min_neg"],
    )
    def test_exit_code_2_on_invalid_window_or_h(self, cfg_file, tmp_path, capsys, extra):
        # an impossible window or h is a config error naming its field, not
        # a crash, an empty expansion reported as FAIL, or a resource bound
        p = tmp_path / "w.cfg"
        p.write_text(cfg_file.read_text() + extra)
        rc = main(["compare", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and extra.split()[0] in err
        assert not (tmp_path / "compare.json").exists()

    def test_exit_code_2_on_absent_file(self, tmp_path, capsys):
        rc = main(["count", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert rc == 2

    def test_exit_code_3_on_resource_bound(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file.read_text().replace("h = 1", "h = 12")
        p = tmp_path / "big.cfg"
        p.write_text(cfg)
        rc = main(["count", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 3
        assert "resource bound" in capsys.readouterr().err

    def test_exit_code_3_on_unstabilized_density(self, tmp_path, capsys):
        # m0 = 7^4: the density at 7 is stable only from level 5, past the
        # enumeration bound, so it is refused rather than read too early
        p = tmp_path / "d.cfg"
        p.write_text(SPHERE4_CFG.replace("m0 = 4", "m0 = 2401"))
        assert main(["density", "--config", str(p), "--out", str(tmp_path)]) == 3
        assert "p=7 " in capsys.readouterr().err

    def test_exit_code_3_on_expansion_memory(self, cfg_file, tmp_path, capsys, monkeypatch):
        # at c_max = 400 the q = 1 grid asks for 4846 nodes per axis (about
        # 1 TiB); the preflight refuses it before the main-term work starts
        p = tmp_path / "huge.cfg"
        p.write_text(cfg_file.read_text() + "quad_max_nodes = 5000\nc_max = 400\n")

        def unreached(*args, **kwargs):
            raise AssertionError("main-term work ran before the memory preflight")

        monkeypatch.setattr(cli, "predict_main", unreached)
        rc = main(["compare", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "resource bound" in err and "4846 nodes per axis" in err
        assert not (tmp_path / "compare.json").exists()

    def test_exit_code_3_on_classifier_range(self, cfg_file, tmp_path, capsys, monkeypatch):
        # m0 det F*(c) at |c|_inf = 30 is outside the int64 classifier's
        # range; the plan refuses it before the main-term work starts
        cfg = cfg_file.read_text()
        for old, new in (("a11 = 1\n", "a11 = 1000\n"), ("a22 = 1\n", "a22 = 1000\n"),
                         ("a33 = -1\n", "a33 = 1000\n"), ("m0 = 1\n", "m0 = 10\n"),
                         ("p0 = 5\n", "p0 = 7\n")):
            cfg = cfg.replace(old, new)
        p = tmp_path / "range.cfg"
        p.write_text(cfg + "q_max = 1\nc_max = 30\n")

        def unreached(*args, **kwargs):
            raise AssertionError("main-term work ran before the classifier's range check")

        monkeypatch.setattr(cli, "predict_main", unreached)
        rc = main(["compare", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 3
        assert "int64 classifier" in capsys.readouterr().err
        assert not (tmp_path / "compare.json").exists()

    def test_exit_code_3_on_int64_overflow(self, cfg_file, tmp_path, capsys):
        # the box fits the per-axis bound; the x3-discriminant does not fit int64
        cfg = cfg_file.read_text().replace("h = 1", "h = 5")
        for name in ("a11", "a22"):
            cfg = cfg.replace(f"{name} = 1", f"{name} = 1000000")
        p = tmp_path / "wide.cfg"
        p.write_text(cfg.replace("a33 = -1", "a33 = -1000000"))
        rc = main(["count", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 3
        assert "2^62" in capsys.readouterr().err
        assert not (tmp_path / "count.json").exists()


def test_runtime_imports_neither_sympy_nor_scipy():
    """The cold start stays numpy-only: the command line, the pipeline, the
    kernel mass and L(1, psi0) run without importing sympy or scipy."""
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import qdelta.cli, qdelta.pipeline\n"
        "from qdelta.arch import DeltaKernel\n"
        "from qdelta.localdens import L_one_psi0\n"
        "from qdelta.qform import QForm\n"
        "DeltaKernel(Q=5).omega(np.linspace(0.4, 1.1, 8))\n"
        "L_one_psi0(QForm.diagonal(1, 1, 1), 1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('sympy', 'scipy')))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
