"""Command line front end: config parsing, outputs, exit codes."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from qdelta import cli, localdens
from qdelta.cli import ConfigError, build_instance, config_sha256, main, parse_config
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
        (check,) = json.loads((out1 / "compare.json").read_text())["identity_checks"]
        assert check["capped_q"][0] == 1
        assert all(check["nodes_per_q"][q - 1] == 48 for q in check["capped_q"])

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

    def test_density_csv_schema(self, cfg_file, tmp_path):
        cfg = cfg_file.read_text() + "p_max_density = 100\n"
        p = tmp_path / "d.cfg"
        p.write_text(cfg)
        assert main(["density", "--config", str(p), "--out", str(tmp_path)]) == 0
        with (tmp_path / "density.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"p", "k_star", "count", "density_num", "density_den", "euler_factor"}
        assert [int(r["p"]) for r in rows] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                               41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
        for r in rows:
            assert int(r["density_den"]) > 0

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
