"""Tests for configuration parsing, the CLI verbs and their artifacts."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minflux import cli
from minflux import isotopy as iso
from minflux import riemann as rm
from minflux import weierstrass as wz
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


# The keys config_from_mapping accepts, and value text for the config fuzz
# test: non-finite, non-integral and out-of-range numbers, and names.
CONFIG_KEYS = (
    "domain.r_inner", "domain.r_outer", "initial.catalog",
    "initial.coefficients", "driver.name", "driver.delta",
    "driver.target_flux", "driver.core", "run.t_samples", "run.seed",
    "run.out", "run.tol_flux", "run.tol_period", "run.export_t", "run.mesh",
)
NUMBER_TEXT = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "2.5", "0", "-1", "24",
                     "1_0", "0x10", "catenoid", "flux_to_zero", ""]),
    st.floats().map(repr),
    st.integers(-10**30, 10**30).map(str),
)


def _as_sections(lines):
    """Config text from (section.name, value) pairs, one header per key."""
    out = []
    for key, value in lines:
        section, _, name = key.partition(".")
        out.append(f"[{section}]\n{name} = {value}")
    return "\n".join(out)


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

    @pytest.mark.parametrize(
        "mesh", ["0, 0", "1, 96", "24", "24, 96, 3", "nan, 3", "inf, 3", "2.5, 3"]
    )
    def test_bad_mesh_rejected(self, mesh):
        with pytest.raises(ConfigError, match="mesh"):
            cli.config_from_mapping({"initial.catalog": "catenoid",
                                     "run.mesh": mesh})

    @pytest.mark.parametrize(
        "key, value",
        [("driver.delta", "nan"), ("driver.target_flux", "inf 0 0"),
         ("domain.r_outer", "inf"), ("run.export_t", "0 nan"),
         ("run.seed", "-1")],
    )
    def test_out_of_range_number_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            cli.config_from_mapping({"initial.catalog": "catenoid",
                                     "driver.name": "prescribe_flux",
                                     "driver.target_flux": "0 0 1", key: value})

    @given(
        st.dictionaries(st.sampled_from(CONFIG_KEYS),
                        st.lists(NUMBER_TEXT, min_size=1, max_size=4),
                        max_size=6),
        st.lists(st.text(max_size=16), max_size=1),
    )
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_generated_config_text(self, tmp_path, entries, junk):
        # load_config returns a config of finite numbers and integral mesh
        # sizes, or raises ConfigError; it never raises anything else
        entries = {"initial.catalog": ["catenoid"], **entries}
        text = _as_sections((k, " , ".join(v)) for k, v in entries.items())
        text = "\n".join([text, *junk])
        path = tmp_path / "fuzz.ini"
        path.write_text(text, encoding="utf-8")
        try:
            cfg = cli.load_config(path)
        except ConfigError:
            return
        for name in ("r_inner", "r_outer", "delta", "tol_flux", "tol_period"):
            assert math.isfinite(getattr(cfg, name))
        for name in ("target_flux", "core", "export_t", "mesh"):
            assert all(math.isfinite(v) for v in getattr(cfg, name))
        assert all(isinstance(v, int) for v in cfg.mesh)
        assert min(cfg.mesh) >= 2 and cfg.t_samples >= 2 and cfg.seed >= 0

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

    def test_empty_export_t_exit_1_writes_nothing(self, tmp_path):
        # an empty list would otherwise export no mesh and still exit 0
        cfg = write_config(tmp_path, extra="export_t =\n")
        out = tmp_path / "o"
        code, _, err = run_cli(["export", "--config", cfg, "--out", str(out)])
        assert code == 1
        assert err.startswith("configuration error:") and "run.export_t" in err
        assert not out.exists()

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


PRESCRIBED = CONFIG.replace(
    "name = flux_to_zero", "name = prescribe_flux\ntarget_flux = 0, 0, %.17g"
).replace("t_samples = 64", "t_samples = 16")

COEFFS = "family_coefficients.json"


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A 16-sample prescribe_flux run directory and its config text."""
    tmp = tmp_path_factory.mktemp("small_run")
    text = PRESCRIBED % (3 * np.pi)
    cfg = write_config(tmp, text)
    code, _, err = run_cli(["run", "--config", cfg, "--out", str(tmp / "out")])
    assert code == 0, err
    return tmp / "out", text


def verify_with_doc(tmp_path, doc, config_text):
    """Exit code and stderr of `verify` on a coefficients document."""
    work = tmp_path / "w"
    work.mkdir(exist_ok=True)
    (work / COEFFS).write_text(json.dumps(doc))
    cfg = write_config(tmp_path, config_text)
    code, _, err = run_cli(["verify", "--config", cfg, "--out", str(work)])
    return code, err


def _json_paths(node, path=()):
    """Paths of every node below the root of a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


class TestBadCoefficientsFile:
    @pytest.mark.parametrize(
        "key",
        ["basepoint", "catalog", "driver", "members", "notice", "r_inner",
         "r_outer", "theta", "ts"],
    )
    def test_dropped_top_level_key(self, small_run, tmp_path, key):
        out, text = small_run
        doc = json.loads((out / COEFFS).read_text())
        assert key in doc
        del doc[key]
        code, err = verify_with_doc(tmp_path, doc, text)
        if key in ("driver", "notice"):
            # informational only: the family still loads and verifies
            assert code == 0, err
        else:
            assert code == 1
            assert err.startswith("configuration error:") and key in err

    @pytest.mark.parametrize(
        "path, value",
        [
            (("members", 1, "a"), None),
            (("members", 1, "b", "coeffs", 0), [1.0]),
            (("members", 2, "parity"), "1"),
            (("members", 3, "center"), [0.0, float("nan")]),
            (("members", 3, "center"), [0.5, 0.0]),
            (("ts",), [0.0, 1.0]),
            (("theta",), "dw"),
            (("r_outer",), 0.25),
        ],
    )
    def test_bad_entry_exit_1(self, small_run, tmp_path, path, value):
        out, text = small_run
        doc = json.loads((out / COEFFS).read_text())
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        code, err = verify_with_doc(tmp_path, doc, text)
        assert code == 1
        assert err.startswith("configuration error:")

    @pytest.mark.parametrize("moved", [[1.0, 1e-9], [2.0, 0.0]])
    def test_basepoint_off_generator_exit_1(self, small_run, tmp_path, moved):
        # the family's basepoint is its annulus's generator point, here 1
        out, text = small_run
        doc = json.loads((out / COEFFS).read_text())
        assert doc["basepoint"] == [1.0, 0.0]
        doc["basepoint"] = moved
        code, err = verify_with_doc(tmp_path, doc, text)
        assert code == 1
        assert err == ("configuration error: coefficients file: basepoint "
                       "must be the generator point [1, 0] of the annulus\n")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("verb", ["verify", "export", "run", "classify"])
    def test_non_finite_member_exit_2(self, small_run, tmp_path, verb):
        # a zero spinor block makes g = b/a infinite; every verb that reads
        # the member must stop with a typed failure, not a LinAlgError or an
        # adaptive quadrature that splits NaN intervals 2^24 times
        out, text = small_run
        doc = json.loads((out / COEFFS).read_text())
        doc["members"][-1]["a"]["coeffs"] = [[0.0, 0.0]]
        work = tmp_path / "w"
        work.mkdir()
        (work / COEFFS).write_text(json.dumps(doc))
        if verb in ("run", "classify"):
            text = text.replace(
                "catalog = catenoid", f"coefficients = {work / COEFFS}"
            )
        cfg = write_config(tmp_path, text)
        code, _, err = run_cli([verb, "--config", cfg, "--out", str(work)])
        assert code == 2
        assert "NonFiniteValues" in err

    @pytest.mark.parametrize("verb", ["export", "run", "classify"])
    def test_huge_last_member_exit_2_quietly(self, small_run, tmp_path, verb):
        # export integrates the last member, run starts from it and classify
        # samples its loop: each rejects its overflow to inf as
        # NonFiniteValues, with no RuntimeWarning on the way (classify's
        # loop is finite, but its squares are not)
        out, text = small_run
        doc = json.loads((out / COEFFS).read_text())
        doc["members"][-1]["b"]["coeffs"][32][1] = 1e154
        work = tmp_path / "w"
        work.mkdir()
        (work / COEFFS).write_text(json.dumps(doc))
        if verb in ("run", "classify"):
            text = text.replace(
                "catalog = catenoid", f"coefficients = {work / COEFFS}"
            )
        cfg = write_config(tmp_path, text)
        code, _, err = run_cli([verb, "--config", cfg, "--out", str(work)])
        assert code == 2
        assert "NonFiniteValues" in err

    @pytest.mark.parametrize("member", [1, 8, 15])
    def test_all_zero_member_exit_2(self, small_run, tmp_path, member):
        # both spinor blocks 0: the member reads 0 on the rims and has no
        # Gauss map b/a, so loading rejects it as not finite, quietly
        out, text = small_run
        doc = json.loads((out / COEFFS).read_text())
        for block in ("a", "b"):
            doc["members"][member][block]["coeffs"] = [[0.0, 0.0]]
        code, err = verify_with_doc(tmp_path, doc, text)
        assert code == 2
        assert "NonFiniteValues" in err

    @pytest.mark.parametrize("member", [1, 8, 15])
    @pytest.mark.parametrize(
        "leaf, value",
        [(leaf, value)
         for leaf in [("a", "coeffs", 0, 0), ("b", "coeffs", 32, 1)]
         for value in [1e300, 1e154, -1.8e308]]
        + [(("scale",), 5e-324)],
    )
    def test_huge_coefficient_exits_quietly(self, small_run, tmp_path,
                                            member, leaf, value):
        # a huge finite coefficient, or a scale whose reciprocal is not
        # finite, overflows to inf on the rims, which verify's finiteness
        # checks reject, with no RuntimeWarning on the way (pyproject.toml
        # turns them into errors)
        out, text = small_run
        doc = json.loads((out / COEFFS).read_text())
        node = doc["members"][member]
        for step in leaf[:-1]:
            node = node[step]
        node[leaf[-1]] = value
        code, err = verify_with_doc(tmp_path, doc, text)
        assert code in (1, 2)
        assert "Traceback" not in err
        assert "Warning" not in err

    @given(data=st.data())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_mutated_file_never_tracebacks(self, small_run, tmp_path, data):
        # contract: a corrupted file ends in exit 1 or 2 (0 only if the
        # mutation left a family that still verifies), never in a traceback;
        # a huge drawn coefficient overflows to inf on the way, which the
        # finiteness checks then reject
        out, text = small_run
        doc = json.loads((out / COEFFS).read_text())
        paths = list(_json_paths(doc))
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_json_values)
        code, err = verify_with_doc(tmp_path, doc, text)
        assert code in (0, 1, 2)
        assert "Traceback" not in err


class TestVerifyFluxTarget:
    def test_wrong_target_fails(self, small_run, tmp_path):
        out, _ = small_run
        doc = json.loads((out / COEFFS).read_text())
        code, err = verify_with_doc(tmp_path, doc, PRESCRIBED % (3 * np.pi + 1e-3))
        assert code == 2, err
        report = (tmp_path / "w" / "report.txt").read_text()
        assert "check flux_target = FAIL" in report
        assert "overall = FAIL" in report

    def test_right_target_passes_byte_identical(self, small_run, tmp_path):
        out, text = small_run
        doc = json.loads((out / COEFFS).read_text())
        reports = []
        for _ in range(2):
            code, err = verify_with_doc(tmp_path, doc, text)
            assert code == 0, err
            reports.append((tmp_path / "w" / "report.txt").read_bytes())
        assert reports[0] == reports[1]
        lines = reports[0].decode().splitlines()
        assert "check flux_target = pass" in lines
        residual = [ln for ln in lines if ln.startswith("flux_end_residual = ")]
        assert len(residual) == 1
        assert float(residual[0].split(" = ")[1]) <= 1e-8

    def test_run_and_verify_report_one_residual(self, small_run, tmp_path):
        # both verbs report the flux recomputed by isotopy.verify
        out, text = small_run
        doc = json.loads((out / COEFFS).read_text())
        code, err = verify_with_doc(tmp_path, doc, text)
        assert code == 0, err

        def residual_line(report):
            return [ln for ln in report.read_text().splitlines()
                    if ln.startswith("flux_end_residual = ")]

        run_line = residual_line(out / "report.txt")
        assert len(run_line) == 1
        assert run_line == residual_line(tmp_path / "w" / "report.txt")


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

    def test_coefficients_round_trip(self, run_dir, tmp_path):
        path = run_dir / "out" / "family_coefficients.json"
        fam = cli.load_family(path)
        assert len(fam) == 64
        assert np.linalg.norm(fam.flux_trace[-1]) <= 1e-8
        text = path.read_text()
        assert json.loads(text)["members"][0] is None  # the anchored input
        # the format keeps a centre entry on each other member, the origin
        assert text.count('"center": [\n    0.0,\n    0.0\n   ]') == 63
        # loading and writing again reproduces the file byte for byte
        cfg = cli.load_config(write_config(tmp_path))
        cli.write_coefficients(tmp_path / "again.json", fam, cfg)
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

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

    def test_two_exports_write_identical_meshes(self, run_dir, tmp_path):
        cfg = write_config(tmp_path)
        out = run_dir / "out"
        written = []
        for _ in range(2):
            code, _, err = run_cli(["export", "--config", cfg, "--out", str(out)])
            assert code == 0, err
            written.append({p.name: p.read_bytes()
                            for p in sorted(out.glob("mesh_t*.obj"))})
        assert len(written[0]) == 2
        assert written[0] == written[1]

    def test_write_obj_matches_line_by_line_writer(self, tmp_path):
        def reference(path, verts, t):
            # the line-by-line writer write_obj replaced
            n_r, n_th, _ = verts.shape
            lines = [f"# t = {cli._fmt(t)}",
                     f"# polar grid {n_r} x {n_th}, right-handed"]
            for i in range(n_r):
                for j in range(n_th):
                    x, y, z = verts[i, j]
                    lines.append(f"v {cli._fmt(x)} {cli._fmt(y)} {cli._fmt(z)}")

            def vid(i, j):
                return i * n_th + (j % n_th) + 1

            for i in range(n_r - 1):
                for j in range(n_th):
                    a, b = vid(i, j), vid(i, j + 1)
                    c, d = vid(i + 1, j + 1), vid(i + 1, j)
                    lines.append(f"f {a} {b} {c}")
                    lines.append(f"f {a} {c} {d}")
            path.write_text("\n".join(lines) + "\n")

        verts = np.random.default_rng(3).normal(size=(5, 7, 3))
        verts[0, 0] = [-0.0, 1e-300, 1e300]
        verts[4, 6] = [0.1, -1e-300, -1e300]
        for shape in ((5, 7), (1, 7)):
            v = verts[: shape[0]]
            cli.write_obj(tmp_path / "got.obj", v, 0.5)
            reference(tmp_path / "want.obj", v, 0.5)
            got = (tmp_path / "got.obj").read_bytes()
            assert got == (tmp_path / "want.obj").read_bytes()
        assert b"v -0 1e-300 1.0000000000000001e+300\n" in got

    def test_catenoid_vertices_match_closed_form(self):
        # u(z) = Re(-(1/z + z)/2, i(z - 1/z)/2, log z), shifted so that the
        # innermost vertex on the positive real axis is the origin
        def exact(z):
            return np.stack(
                [-0.5 * (1 / z + z), 0.5j * (z - 1 / z), np.log(z)], axis=-1
            ).real

        verts = cli.surface_grid(wz.catalog("catenoid"))
        radii = wz._open_radii(0.5, 2.0, 24)
        z = wz.PolarGrid(radii, 96).points.reshape(24, 96)
        want = exact(z) - exact(complex(radii[0]))
        assert np.max(np.abs(verts - want)) <= 1e-13

    @pytest.mark.parametrize("driver", ["flux_to_zero", "prescribe_flux"])
    def test_wide_domain_mesh_matches_quadrature(self, tmp_path, driver):
        # r_outer / r_inner = 10: the vertices on the positive real axis
        # of each exported mesh equal Gauss-Legendre sums of Re(f theta)
        # from ring to ring
        text = (
            CONFIG.replace("r_inner = 0.5", "r_inner = 0.3")
            .replace("r_outer = 2.0", "r_outer = 3.0")
            .replace("t_samples = 64", "t_samples = 16")
            .replace("name = flux_to_zero", f"name = {driver}\n"
                     "target_flux = 0.3 -0.5 9.0")
        )
        if driver == "flux_to_zero":
            text = text.replace("target_flux = 0.3 -0.5 9.0", "")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        for verb in ("run", "export"):
            code, _, err = run_cli([verb, "--config", cfg, "--out", str(out)])
            assert code == 0, err
        fam = cli.load_family(out / "family_coefficients.json")
        radii = wz._open_radii(0.3, 3.0, 24)
        nodes, weights = np.polynomial.legendre.leggauss(24)
        for k in (0, len(fam) - 1):
            lines = (out / f"mesh_t{k:03d}.obj").read_text().splitlines()
            verts = np.array([[float(x) for x in l.split()[1:]]
                              for l in lines if l.startswith("v ")])
            axis = verts.reshape(24, 96, 3)[:, 0]
            want = [np.zeros(3)]
            for lo, hi in zip(radii[:-1], radii[1:]):
                x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
                step = weights @ fam.members[k].f_theta(x)
                want.append(want[-1] + 0.5 * (hi - lo) * step.real)
            assert np.max(np.abs(axis - np.array(want))) <= 1e-10

    def test_member_picked_twice_exported_once(self, tmp_path, monkeypatch):
        # complete_step exports its input alone, so both default export_t
        # values 0 and 1 pick member 0
        text = CONFIG.replace(
            "name = flux_to_zero", "name = complete_step\ndelta = 0.5\ncore = 0.8, 1.3"
        )
        cfg = write_config(tmp_path, text)
        calls = []
        surface_grid = cli.surface_grid

        def counted(*args, **kwargs):
            calls.append(args)
            return surface_grid(*args, **kwargs)

        monkeypatch.setattr(cli, "surface_grid", counted)
        out = tmp_path / "o"
        code, _, err = run_cli(["export", "--config", cfg, "--out", str(out)])
        assert code == 0, err
        assert len(calls) == 1
        assert [p.name for p in out.glob("mesh_t*.obj")] == ["mesh_t000.obj"]

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


class TestStoredFamilyDriver:
    """verify and export read only a family that the configured flux driver
    stored."""

    def test_complete_step_verify_exit_1(self, small_run, tmp_path):
        # a flux family left in the directory is not the step's output
        out, _ = small_run
        work = tmp_path / "w"
        work.mkdir()
        (work / COEFFS).write_bytes((out / COEFFS).read_bytes())
        cfg = write_config(tmp_path, COMPLETE_STEP)
        code, _, err = run_cli(["verify", "--config", cfg, "--out", str(work)])
        assert code == 1
        assert err == "configuration error: driver complete_step stores no family\n"
        assert sorted(p.name for p in work.iterdir()) == [COEFFS]

    def test_driver_mismatch_exit_1(self, small_run, tmp_path):
        out, _ = small_run
        doc = json.loads((out / COEFFS).read_text())
        assert doc["driver"] == "prescribe_flux"
        for verb in ("verify", "export"):
            work = tmp_path / verb
            work.mkdir()
            (work / COEFFS).write_text(json.dumps(doc))
            cfg = write_config(tmp_path, CONFIG)
            code, _, err = run_cli([verb, "--config", cfg, "--out", str(work)])
            assert code == 1
            assert "records driver 'prescribe_flux'" in err
            assert "names 'flux_to_zero'" in err
            assert sorted(p.name for p in work.iterdir()) == [COEFFS]


#: a 16-sample prescribe_flux run on a domain other than the default
WIDE = (PRESCRIBED % (3 * np.pi)).replace(
    "r_inner = 0.5\nr_outer = 2.0", "r_inner = 0.4\nr_outer = 2.5"
)

#: flux_to_zero from a coefficients file, under the default [domain]
CHAINED = CONFIG.replace(
    "catalog = catenoid", "coefficients = {}"
).replace("t_samples = 64", "t_samples = 16")


@pytest.fixture(scope="module")
def wide_run(tmp_path_factory):
    """The WIDE run directory, and its report.txt as run wrote it."""
    tmp = tmp_path_factory.mktemp("wide_run")
    cfg = write_config(tmp, WIDE)
    code, _, err = run_cli(["run", "--config", cfg, "--out", str(tmp / "out")])
    assert code == 0, err
    return tmp / "out", (tmp / "out" / "report.txt").read_text()


@pytest.fixture(scope="module")
def chained_run(tmp_path_factory, wide_run):
    """A flux_to_zero run whose input is the WIDE run's coefficients file."""
    tmp = tmp_path_factory.mktemp("chained_run")
    cfg = write_config(tmp, CHAINED.format(wide_run[0] / COEFFS))
    code, _, err = run_cli(["run", "--config", cfg, "--out", str(tmp / "out")])
    assert code == 0, err
    return tmp / "out", cfg


class TestCoefficientsDomain:
    """Coefficients files keep the family's annulus and its anchor member."""

    def test_run_and_verify_reports_agree(self, wide_run, tmp_path):
        out, run_report = wide_run
        work = tmp_path / "w"
        work.mkdir()
        (work / COEFFS).write_bytes((out / COEFFS).read_bytes())
        cfg = write_config(tmp_path, WIDE)
        code, _, err = run_cli(["verify", "--config", cfg, "--out", str(work)])
        assert code == 0, err
        verify_lines = (work / "report.txt").read_text().splitlines()
        assert "t_samples = 16" in verify_lines
        assert set(verify_lines) <= set(run_report.splitlines())

    def test_anchored_member_takes_the_file_radii(self, wide_run):
        fam = cli.load_family(wide_run[0] / COEFFS)
        assert fam.members[0].spinor is None
        assert {(m.r_inner, m.r_outer) for m in fam.members} == {(0.4, 2.5)}

    def test_chained_run_verifies_and_exports(self, chained_run):
        out, cfg = chained_run
        for verb in ("verify", "export"):
            code, _, err = run_cli([verb, "--config", cfg, "--out", str(out)])
            assert code == 0, err
        assert "overall = PASS" in (out / "report.txt").read_text()
        assert (out / "mesh_t000.obj").exists()

    def test_chained_file_records_the_members(self, wide_run, chained_run):
        doc = json.loads((chained_run[0] / COEFFS).read_text())
        fam = cli.load_family(chained_run[0] / COEFFS)
        assert (doc["r_inner"], doc["r_outer"]) == (0.4, 2.5)
        assert {(m.r_inner, m.r_outer) for m in fam.members} == {(0.4, 2.5)}
        # member 0 is stored: the input file's last member, coefficient for
        # coefficient
        assert doc["members"][0] is not None
        assert doc["members"][0] == json.loads(
            (wide_run[0] / COEFFS).read_text())["members"][-1]

    def test_unanchored_member_without_catalog_rejected(self, wide_run,
                                                        tmp_path):
        fam = cli.load_family(wide_run[0] / COEFFS)
        fam.meta["catalog"] = ""
        cfg = cli.load_config(write_config(tmp_path, WIDE))
        with pytest.raises(ValueError, match="member 0 has no extension"):
            cli.write_coefficients(tmp_path / COEFFS, fam, cfg)


    def test_block_zero_on_grid_input_runs(self, tmp_path):
        # a stored input whose spinor block a = z - x vanishes at the point
        # x of the admission grid, where b does not: the drivers read it
        # from its blocks, as verify does, and admit it
        x = wz._open_radii(0.5, 2.0, 64)[40]
        a = wz.LaurentSeries([-x, 1.0], 0)
        b = wz.LaurentSeries([1j, 0.0, -0.5j * x**2], -1)
        member, period = iso._spinor_member(rm.LaurentMap(a, b), "dz",
                                            0.5, 2.0)
        text = PRESCRIBED.replace("0, 0, %.17g", "0, 4, 2").replace(
            "catalog = catenoid", f"coefficients = {tmp_path / COEFFS}"
        )
        cfg = write_config(tmp_path, text)
        fam = iso.ImmersionFamily(ts=np.zeros(1), members=[member],
                                  periods=period[None, :])
        cli.write_coefficients(tmp_path / COEFFS, fam, cli.load_config(cfg))
        code, _, err = run_cli(["run", "--config", cfg,
                                "--out", str(tmp_path / "out")])
        assert code == 0, err
        assert "overall = PASS" in (tmp_path / "out" / "report.txt").read_text()


COMPLETE_STEP = CONFIG.replace(
    "name = flux_to_zero", "name = complete_step\ndelta = 0.5\ncore = 0.8, 1.3"
)


@pytest.fixture(scope="module")
def complete_step_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("complete_step")
    text = COMPLETE_STEP
    cfg = write_config(tmp, text)
    code, _, err = run_cli(["run", "--config", cfg, "--out", str(tmp / "o")])
    assert code == 0, err
    return tmp


class TestCompleteStepRun:
    def test_run_writes_labyrinth_csv(self, complete_step_dir):
        out = complete_step_dir / "o"
        lab = (out / "labyrinth_polygons.csv").read_text().splitlines()
        assert lab[0] == "hole,band,set,vertex,re,im"
        assert len(lab) > 100
        report = (out / "report.txt").read_text()
        assert "overall = PASS" in report
        rows = (out / "trace.csv").read_text().strip().splitlines()
        last = dict(zip(rows[0].split(","), rows[-1].split(",")))
        # flux is invariant under the completeness step
        assert float(last["flux_target_residual"]) <= 1e-10

    def test_report_names_the_surrogate(self, complete_step_dir):
        lines = (complete_step_dir / "o" / "report.txt").read_text().splitlines()
        notice = [line for line in lines if line.startswith("notice = ")]
        assert notice == [
            "notice = transformed members are the piecewise gauge surrogate "
            "g*(1 + lambda*t) on the walls and are not holomorphic; anchoring, "
            "third_components, flux_traces and core_approximation hold by "
            "construction"
        ]
