"""Tests for configuration parsing, the CLI verbs and their artifacts."""

import io
import json

import numpy as np
import pytest

from minflux import cli
from minflux.errors import ConfigError

CONFIG = """
[domain]
r_inner = 0.5
r_outer = 2.0

[initial]
catalog = catenoid

[driver]
name = flux_to_zero

[run]
t_samples = 64
seed = 7
"""


def write_config(tmp_path, text=CONFIG, extra=""):
    path = tmp_path / "config.ini"
    path.write_text(text + extra)
    return str(path)


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(args, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_run")
    cfg = write_config(tmp)
    code, _, err = run_cli(["run", "--config", cfg, "--out", str(tmp / "out")])
    assert code == 0, err
    return tmp


class TestConfigParsing:
    def test_sections_and_comments(self):
        m = cli.parse_config_text("# top\n[a]\nx = 1 # tail\n[b]\nx = 2\n")
        assert m == {"a.x": "1", "b.x": "2"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config_text("[a]\nx = 1\nx = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config_text("[a]\njust a line\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            cli.config_from_mapping({"driver.name": "flux_to_zero",
                                     "initial.catalog": "catenoid",
                                     "run.frobnicate": "1"})

    def test_negative_tolerance_names_field(self):
        with pytest.raises(ConfigError, match="tol_flux"):
            cli.config_from_mapping({"initial.catalog": "catenoid",
                                     "run.tol_flux": "-1e-8"})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["tol_flux", "tol_period"])
    def test_nonfinite_tolerance_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            cli.config_from_mapping({"initial.catalog": "catenoid",
                                     f"run.{name}": value})

    @pytest.mark.parametrize("mesh", ["0, 0", "1, 96", "24", "24, 96, 3"])
    def test_bad_mesh_rejected(self, mesh):
        with pytest.raises(ConfigError, match="mesh"):
            cli.config_from_mapping({"initial.catalog": "catenoid",
                                     "run.mesh": mesh})

    def test_prescribe_flux_requires_target(self):
        with pytest.raises(ConfigError, match="target_flux"):
            cli.config_from_mapping({"initial.catalog": "catenoid",
                                     "driver.name": "prescribe_flux"})


class TestExitCodes:
    def test_negative_tolerance_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, extra="tol_flux = -1e-8\n")
        code, _, err = run_cli(["run", "--config", cfg])
        assert code == 1
        assert "tol_flux" in err

    def test_nan_tolerance_exit_1(self, tmp_path):
        cfg = write_config(tmp_path)
        code, _, err = run_cli(["run", "--config", cfg, "--tol-period", "nan"])
        assert code == 1
        assert "tol_period" in err

    def test_empty_mesh_exit_1_writes_nothing(self, tmp_path):
        cfg = write_config(tmp_path, extra="mesh = 0, 0\n")
        out = tmp_path / "o"
        code, _, err = run_cli(["export", "--config", cfg, "--out", str(out)])
        assert code == 1
        assert "mesh" in err
        assert not list(tmp_path.glob("**/*.obj"))

    def test_core_outside_domain_exit_1(self, tmp_path):
        text = CONFIG.replace(
            "name = flux_to_zero", "name = complete_step\ncore = 0.1, 0.3"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        code, _, err = run_cli(["run", "--config", cfg, "--out", str(out)])
        assert code == 1
        assert err.startswith("configuration error:") and "core" in err
        assert "Traceback" not in err
        assert not (out / "report.txt").exists()

    def test_missing_config_exit_1(self):
        code, _, err = run_cli(["run", "--config", "/no/such/file.ini"])
        assert code == 1

    def test_unknown_catalog_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, CONFIG.replace("catenoid", "bogusoid"))
        code, _, err = run_cli(["run", "--config", cfg])
        assert code == 1
        assert "catalog" in err

    def test_bad_verb_exit_1(self, tmp_path):
        cfg = write_config(tmp_path)
        code, _, _ = run_cli(["frobnicate", "--config", cfg])
        assert code == 1

    def test_unreachable_tolerance_exit_2(self, tmp_path, run_dir):
        # an absurd period tolerance turns a passing run into a failure
        cfg = write_config(tmp_path)
        work = tmp_path / "w"
        work.mkdir()
        name = "family_coefficients.json"
        (work / name).write_bytes((run_dir / "out" / name).read_bytes())
        code, _, err = run_cli(
            ["verify", "--config", cfg, "--out", str(work),
             "--tol-period", "1e-30"]
        )
        assert code == 2


class TestRunArtifacts:
    def test_trace_last_row_flux_small(self, run_dir):
        rows = (run_dir / "out" / "trace.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        last = dict(zip(header, rows[-1].split(",")))
        flux = np.array([float(last["im_p1"]), float(last["im_p2"]),
                         float(last["im_p3"])])
        assert float(last["t"]) == 1.0
        assert np.linalg.norm(flux) <= 1e-8
        assert float(last["real_period_residual"]) <= 1e-9

    def test_report_passes(self, run_dir):
        text = (run_dir / "out" / "report.txt").read_text()
        assert "overall = PASS" in text
        assert "check conformality = pass" in text

    def test_coefficients_round_trip(self, run_dir):
        fam = cli.load_family(run_dir / "out" / "family_coefficients.json")
        assert len(fam) == 64
        assert np.linalg.norm(fam.flux_trace[-1]) <= 1e-8
        doc = json.loads(
            (run_dir / "out" / "family_coefficients.json").read_text()
        )
        assert doc["members"][0] is None  # the anchored input member

    def test_determinism_byte_identical(self, run_dir, tmp_path):
        cfg = write_config(tmp_path)
        code, _, _ = run_cli(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        a = (run_dir / "out" / "trace.csv").read_bytes()
        b = (tmp_path / "o" / "trace.csv").read_bytes()
        assert a == b

    def test_verify_verb_from_artifacts(self, run_dir, tmp_path):
        cfg = write_config(tmp_path)
        code, _, err = run_cli(
            ["verify", "--config", cfg, "--out", str(run_dir / "out")]
        )
        assert code == 0, err

    def test_prescribe_flux_run(self, tmp_path):
        extra = ""
        text = CONFIG.replace(
            "name = flux_to_zero",
            "name = prescribe_flux\ntarget_flux = 0, 0, %.17g" % (4 * np.pi),
        )
        cfg = write_config(tmp_path, text, extra)
        code, _, err = run_cli(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0, err
        rows = (tmp_path / "o" / "trace.csv").read_text().strip().splitlines()
        last = dict(zip(rows[0].split(","), rows[-1].split(",")))
        assert abs(float(last["im_p3"]) - 4 * np.pi) <= 1e-8


class TestClassify:
    def test_catenoid_class_consistent_across_seeds(self, tmp_path):
        cfg = write_config(tmp_path)
        outputs = set()
        for seed in range(1, 6):
            code, out, err = run_cli(
                ["classify", "--config", cfg, "--seed", str(seed)]
            )
            assert code == 0, err
            outputs.add(out)
        assert len(outputs) == 1
        text = outputs.pop()
        assert "generator 0: class 1" in text
        assert "component (1) in (Z_2)^1" in text


class TestExport:
    def test_obj_mesh_layout(self, run_dir, tmp_path):
        cfg = write_config(tmp_path)
        code, _, err = run_cli(
            ["export", "--config", cfg, "--out", str(run_dir / "out")]
        )
        assert code == 0, err
        objs = sorted((run_dir / "out").glob("mesh_t*.obj"))
        assert len(objs) == 2
        lines = objs[0].read_text().splitlines()
        assert lines[0].startswith("# t = ")
        n_v = sum(1 for l in lines if l.startswith("v "))
        faces = [l.split()[1:] for l in lines if l.startswith("f ")]
        assert n_v == 24 * 96
        assert len(faces) == 2 * 23 * 96
        idx = np.array([[int(i) for i in f] for f in faces])
        assert idx.min() >= 1 and idx.max() <= n_v

    def test_vertices_finite_and_catenoid_like(self, run_dir, tmp_path):
        from minflux import weierstrass as wz

        verts = cli.surface_grid(wz.catalog("catenoid"), n_r=16, n_th=64)
        assert np.all(np.isfinite(verts))
        # the catenoid grid is rotationally symmetric about the x3 axis:
        # radii about each circle are constant
        rad = np.hypot(verts[..., 0] - verts[..., 0].mean(),
                       verts[..., 1] - verts[..., 1].mean())
        for i in range(verts.shape[0]):
            assert np.ptp(rad[i]) <= 1e-6 * max(1.0, rad[i].max())


class TestCompleteStepRun:
    def test_run_writes_labyrinth_csv(self, tmp_path):
        text = CONFIG.replace(
            "name = flux_to_zero", "name = complete_step\ndelta = 0.5\ncore = 0.8, 1.3"
        )
        cfg = write_config(tmp_path, text)
        code, _, err = run_cli(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0, err
        lab = (tmp_path / "o" / "labyrinth_polygons.csv").read_text().splitlines()
        assert lab[0] == "hole,band,set,vertex,re,im"
        assert len(lab) > 100
        report = (tmp_path / "o" / "report.txt").read_text()
        assert "overall = PASS" in report
        rows = (tmp_path / "o" / "trace.csv").read_text().strip().splitlines()
        last = dict(zip(rows[0].split(","), rows[-1].split(",")))
        # flux is invariant under the completeness step
        assert float(last["flux_target_residual"]) <= 1e-10
