"""Command-line entry point: configuration, run orchestration, exporters.

Configuration is flat key = value text with [section] headers.  Verbs:

  run       execute the configured driver and write all artifacts
  verify    recompute residuals for a stored family and write the report
  classify  print the Z2 class of each homology generator
  export    write OBJ meshes of the family at selected t values

Exit codes: 0 all checks pass, 1 usage or configuration error, 2 a
verification check or a library invariant failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import isotopy as iso
from . import labyrinth as lb
from . import loops as lp
from . import nullquadric as nq
from . import riemann as rm
from . import weierstrass as wz
from .errors import ConfigError, MinfluxError, UnknownName
from .riemann import LaurentMap
from .weierstrass import LaurentSeries

DRIVERS = ("flux_to_zero", "prescribe_flux", "complete_step", "classify")

_FLOAT = "%.17g"


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    r_inner: float = 0.5
    r_outer: float = 2.0
    catalog: str = ""
    coefficients: str = ""
    driver: str = "flux_to_zero"
    target_flux: tuple = ()
    delta: float = 0.5
    core: tuple = (0.8, 1.3)
    t_samples: int = 64
    seed: int = 7
    out: str = "."
    tol_flux: float = iso.TOL_FLUX
    tol_period: float = iso.TOL_PERIOD
    export_t: tuple = (0.0, 1.0)
    mesh: tuple = (24, 96)

    def validate(self):
        for name in ("tol_flux", "tol_period"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"run.{name} must be finite and positive")
        if len(self.mesh) != 2 or min(self.mesh) < 2:
            raise ConfigError("run.mesh must give two sizes, each at least 2")
        if not self.export_t:
            raise ConfigError("run.export_t must give at least one t value")
        if self.t_samples < 2:
            raise ConfigError("run.t_samples must be at least 2")
        if self.seed < 0:
            raise ConfigError("run.seed must be non-negative")
        if not (0 < self.r_inner < self.r_outer):
            raise ConfigError("domain.r_inner must lie in (0, domain.r_outer)")
        if self.driver not in DRIVERS:
            raise ConfigError(
                f"driver.name must be one of {', '.join(DRIVERS)}"
            )
        if not self.catalog and not self.coefficients:
            raise ConfigError("initial.catalog or initial.coefficients required")
        if self.driver == "prescribe_flux" and len(self.target_flux) != 3:
            raise ConfigError(
                "driver.target_flux must give three components for prescribe_flux"
            )
        if self.driver == "complete_step":
            if self.delta <= 0:
                raise ConfigError("driver.delta must be positive")
            if len(self.core) != 2:
                raise ConfigError("driver.core must give two moduli")
        return self


def parse_config_text(text):
    """Flat key = value pairs under [section] headers, '#' comments."""
    out = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        full = f"{section}.{key.strip()}" if section else key.strip()
        if full in out:
            raise ConfigError(f"line {lineno}: duplicate key {full}")
        out[full] = value.strip()
    return out


def _floats(value, name):
    try:
        vals = tuple(float(p) for p in value.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"{name} must be a list of numbers") from None
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"{name} must be finite")
    return vals


def config_from_mapping(mapping):
    cfg = RunConfig()
    scalar = {
        "domain.r_inner": ("r_inner", float),
        "domain.r_outer": ("r_outer", float),
        "initial.catalog": ("catalog", str),
        "initial.coefficients": ("coefficients", str),
        "driver.name": ("driver", str),
        "driver.delta": ("delta", float),
        "run.t_samples": ("t_samples", int),
        "run.seed": ("seed", int),
        "run.out": ("out", str),
        "run.tol_flux": ("tol_flux", float),
        "run.tol_period": ("tol_period", float),
    }
    vector = {
        "driver.target_flux": "target_flux",
        "driver.core": "core",
        "run.export_t": "export_t",
        "run.mesh": "mesh",
    }
    for key, value in mapping.items():
        if key in scalar:
            attr, typ = scalar[key]
            try:
                value = typ(value)
            except ValueError:
                raise ConfigError(f"{key} must be of type {typ.__name__}") from None
            if typ is float and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite")
            setattr(cfg, attr, value)
        elif key in vector:
            vals = _floats(value, key)
            if key == "run.mesh":
                if any(v != int(v) for v in vals):
                    raise ConfigError(f"{key} must give integer sizes")
                vals = tuple(int(v) for v in vals)
            setattr(cfg, vector[key], vals)
        else:
            raise ConfigError(f"unknown configuration key {key}")
    return cfg.validate()


def load_config(path):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return config_from_mapping(parse_config_text(text))


def initial_data(cfg):
    if cfg.catalog:
        try:
            data = wz.catalog(cfg.catalog)
        except UnknownName as exc:
            raise ConfigError(f"initial.catalog: {exc}") from None
        data.r_inner, data.r_outer = cfg.r_inner, cfg.r_outer
        return data
    fam = load_family(cfg.coefficients)
    return fam.members[-1]


# ---------------------------------------------------------------------------
# artifact writers


def _fmt(x):
    return _FLOAT % float(x)


def write_trace_csv(path, family, target=None):
    """Flux/period trace: one row per (t, generator)."""
    header = (
        "t,generator,re_p1,im_p1,re_p2,im_p2,re_p3,im_p3,"
        "real_period_residual,flux_target_residual"
    )
    lines = [header]
    flux_end = np.asarray(
        family.flux_trace[-1] if target is None else target, dtype=float
    )
    ts = np.asarray(family.ts, dtype=float)
    ramp = (
        (1.0 - ts)[:, None] * family.flux_trace[0][None, :]
        + ts[:, None] * flux_end[None, :]
    )
    for k, t in enumerate(ts):
        p = family.periods[k]
        real_res = float(np.linalg.norm(p.real))
        flux_res = float(np.linalg.norm(p.imag - ramp[k]))
        cells = [_fmt(t), "0"]
        for comp in p:
            cells += [_fmt(comp.real), _fmt(comp.imag)]
        cells += [_fmt(real_res), _fmt(flux_res)]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def _series_dict(series):
    return {
        "k_min": int(series.k_min),
        "coeffs": [[c.real, c.imag] for c in series.coeffs],
    }


def write_coefficients(path, family, cfg):
    members = []
    for ext in family.lmaps:
        if ext is None:
            members.append(None)
            continue
        members.append(
            {
                "a": _series_dict(ext.a),
                "b": _series_dict(ext.b),
                "center": [ext.center.real, ext.center.imag],
                "parity": int(ext.parity),
                "scale": float(ext.scale),
            }
        )
    doc = {
        "basepoint": [family.basepoint.real, family.basepoint.imag],
        "catalog": cfg.catalog,
        "driver": cfg.driver,
        "members": members,
        "notice": family.notice,
        "r_inner": cfg.r_inner,
        "r_outer": cfg.r_outer,
        "theta": family.members[0].theta,
        "ts": [float(t) for t in family.ts],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _entry(doc, key, where="", kind=None):
    """doc[key] of the coefficients file, of the given JSON type if any."""
    if not isinstance(doc, dict) or key not in doc:
        raise ConfigError(f"coefficients file lacks {where}{key}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(
            f"coefficients file: {where}{key} must be a JSON {kind.__name__}"
        )
    return value


def _number(value, where):
    """A finite JSON number of the coefficients file, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"coefficients file: {where} must be a number")
    if not math.isfinite(value):
        raise ConfigError(f"coefficients file: {where} must be finite")
    return float(value)


def _complex(value, where):
    """A [re, im] pair of the coefficients file, as a complex number."""
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"coefficients file: {where} must be [re, im]")
    return complex(_number(value[0], where), _number(value[1], where))


def _integer(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"coefficients file: {where} must be an integer")
    return value


def _series(doc, where):
    k_min = _integer(_entry(doc, "k_min", where), where + "k_min")
    coeffs = _entry(doc, "coeffs", where, list)
    if not coeffs:
        raise ConfigError(f"coefficients file: {where}coeffs is empty")
    return LaurentSeries(
        np.array([_complex(c, f"{where}coeffs") for c in coeffs]), k_min
    )


def _extension(entry, where):
    """The LaurentMap of one stored member."""
    parity = _integer(_entry(entry, "parity", where), where + "parity")
    scale = _number(_entry(entry, "scale", where), where + "scale")
    if parity not in (0, 1) or scale <= 0:
        raise ConfigError(
            f"coefficients file: {where}parity must be 0 or 1 and "
            f"{where}scale positive"
        )
    center = _complex(_entry(entry, "center", where), where + "center")
    if center != 0:
        raise ConfigError(
            f"coefficients file: {where}center must be 0 (the chart is centered)"
        )
    return LaurentMap(
        _series(_entry(entry, "a", where), f"{where}a."),
        _series(_entry(entry, "b", where), f"{where}b."),
        center=center,
        parity=parity,
        scale=scale,
    )


def load_family(path):
    """The ImmersionFamily stored by write_coefficients.

    A missing or ill-typed entry, a non-finite number, an unknown catalog
    name, or an out-of-range theta, radius, parity or scale raises
    ConfigError.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read coefficients file: {exc}") from None
    theta = _entry(doc, "theta")
    if theta not in ("dz", "dz/z"):
        raise ConfigError("coefficients file: theta must be 'dz' or 'dz/z'")
    r_in = _number(_entry(doc, "r_inner"), "r_inner")
    r_out = _number(_entry(doc, "r_outer"), "r_outer")
    if not 0 < r_in < r_out:
        raise ConfigError("coefficients file: need 0 < r_inner < r_outer")
    catalog = _entry(doc, "catalog", kind=str)
    entries = _entry(doc, "members", kind=list)
    ts = [_number(t, "ts") for t in _entry(doc, "ts", kind=list)]
    if not entries or len(ts) != len(entries):
        raise ConfigError(
            "coefficients file: members and ts must be nonempty and of one length"
        )
    basepoint = _complex(_entry(doc, "basepoint"), "basepoint")
    notice = doc.get("notice", "")
    if not isinstance(notice, str):
        raise ConfigError("coefficients file: notice must be a JSON str")
    try:
        base = wz.catalog(catalog) if catalog else None
    except UnknownName as exc:
        raise ConfigError(f"coefficients file: catalog: {exc}") from None
    chart = rm.homology_basis(rm.annulus(r_in, r_out))[0]
    members, lmaps, periods = [], [], []
    for k, entry in enumerate(entries):
        if entry is None:
            if base is None:
                raise ConfigError("coefficients file lacks the anchor member")
            members.append(base)
            lmaps.append(None)
            loop = iso.restrict_data(base, chart)
            periods.append(lp.period(loop))
            continue
        ext = _extension(entry, f"members[{k}].")
        members.append(iso._member_from_extension(ext, theta, r_in, r_out))
        lmaps.append(ext)
        periods.append(iso._extension_period(ext, theta))
    return iso.ImmersionFamily(
        ts=np.array(ts, dtype=float),
        members=members,
        lmaps=lmaps,
        periods=np.array(periods),
        basepoint=basepoint,
        chart=chart,
        notice=notice,
    )


def write_report(path, items, passes):
    lines = [f"{k} = {v}" for k, v in sorted(items.items())]
    lines += [f"check {k} = {'pass' if v else 'FAIL'}" for k, v in sorted(passes.items())]
    ok = all(passes.values())
    lines.append(f"overall = {'PASS' if ok else 'FAIL'}")
    Path(path).write_text("\n".join(lines) + "\n")
    return ok


def surface_grid(data, n_r=24, n_th=96):
    """Vertices u(r_i, theta_j) of the immersion on a polar grid.

    Anchors each circle on the positive real axis by adaptive path
    integration, then integrates Re(f theta) around the circle spectrally;
    the closing mismatch around each circle is the (verified small) real
    period of the data.
    """
    radii = np.linspace(data.r_inner, data.r_outer, n_r + 2)[1:-1]
    u0 = np.array(
        [
            wz.integrate_immersion(data, radii[0], np.zeros(3), complex(r))
            for r in radii
        ]
    )
    x = np.arange(n_th) / n_th
    verts = np.empty((n_r, n_th, 3))
    for i, r in enumerate(radii):
        z = r * np.exp(2j * np.pi * x)
        # du/dx along the circle; its mean is the (near-zero) real period
        integ = (data.f_theta(z) * (2j * np.pi * z)[:, None]).real
        mean = integ.mean(axis=0)
        verts[i] = u0[i] + lp.antiderivative(integ) + x[:, None] * mean[None, :]
    return verts


def write_obj(path, verts, t):
    """Triangulated polar grid, right-handed orientation, t in the header."""
    n_r, n_th, _ = verts.shape
    lines = [f"# t = {_fmt(t)}", f"# polar grid {n_r} x {n_th}, right-handed"]
    for i in range(n_r):
        for j in range(n_th):
            x, y, z = verts[i, j]
            lines.append(f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}")

    def vid(i, j):
        return i * n_th + (j % n_th) + 1

    for i in range(n_r - 1):
        for j in range(n_th):
            a, b = vid(i, j), vid(i, j + 1)
            c, d = vid(i + 1, j + 1), vid(i + 1, j)
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_labyrinth_csv(path, result):
    """Wall outlines in physical coordinates: hole, band, set, vertex, re, im."""
    lines = ["hole,band,set,vertex,re,im"]
    for lab in result.labyrinths:
        end = lab.band.end
        for s, poly in zip(lab.sets, lab.polygons()):
            z = end.from_chart(poly)
            for v, p in enumerate(z):
                lines.append(
                    f"{lab.band.hole},{lab.band.k},{s.n},{v},"
                    f"{_fmt(p.real)},{_fmt(p.imag)}"
                )
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# verbs


def _family_for(cfg):
    data = initial_data(cfg)
    if cfg.driver == "flux_to_zero":
        return iso.flux_to_zero(
            data, n_t=cfg.t_samples, tol_flux=cfg.tol_flux,
            tol_period=cfg.tol_period, seed=cfg.seed,
        )
    if cfg.driver == "prescribe_flux":
        return iso.prescribe_flux(
            data, np.asarray(cfg.target_flux, dtype=float), n_t=cfg.t_samples,
            tol_flux=cfg.tol_flux, tol_period=cfg.tol_period, seed=cfg.seed,
        )
    raise ConfigError(f"driver {cfg.driver} does not produce a stored family")


def _target_flux(cfg):
    """Flux the configured driver must reach at t = 1 (None: no driver target)."""
    if cfg.driver == "flux_to_zero":
        return np.zeros(3)
    if cfg.driver == "prescribe_flux":
        return np.asarray(cfg.target_flux, dtype=float)
    return None


def _run_family(cfg, outdir):
    fam = _family_for(cfg)
    target = _target_flux(cfg)
    write_coefficients(outdir / "family_coefficients.json", fam, cfg)
    write_trace_csv(outdir / "trace.csv", fam, target=target)
    rep = iso.verify(fam, tol_flux=cfg.tol_flux, tol_period=cfg.tol_period,
                     target_flux=target)
    items = {
        "driver": cfg.driver,
        "flux_end_residual": _fmt(rep.flux_end_residual),
        "max_conformality": _fmt(rep.max_conformality),
        "max_real_period": _fmt(rep.max_real_period),
        "min_density": _fmt(rep.min_density),
        "notice": fam.notice or "none",
        "pi1_classes": " ".join(str(c) for c in sorted(set(rep.pi1_classes))),
        "t_samples": len(fam),
    }
    ok = write_report(outdir / "report.txt", items, rep.passes)
    return 0 if ok else 2


def _run_complete_step(cfg, outdir):
    data = initial_data(cfg)
    result = lb.complete_step(
        data, core=tuple(cfg.core), delta=cfg.delta,
        ts=np.linspace(0.0, 1.0, cfg.t_samples),
    )
    write_labyrinth_csv(outdir / "labyrinth_polygons.csv", result)
    circle = wz.homology_radius(data)
    periods = np.array(
        [wz.loop_period(m, circle) for m in result.members]
    )
    fam = iso.ImmersionFamily(
        ts=result.ts, members=result.members, lmaps=[None] * len(result.members),
        periods=periods, basepoint=complex(circle),
    )
    write_trace_csv(outdir / "trace.csv", fam, target=periods[0].imag)
    items = {
        k: (_fmt(v) if isinstance(v, float) else v)
        for k, v in result.report.items()
        if k != "passes"
    }
    items["driver"] = cfg.driver
    ok = write_report(outdir / "report.txt", items, result.report["passes"])
    return 0 if ok else 2


def _classify(cfg, stream):
    data = initial_data(cfg)
    dom = rm.annulus(data.r_inner, data.r_outer)
    charts = rm.homology_basis(dom)
    rng = np.random.default_rng(cfg.seed)
    classes = []
    for i, chart in enumerate(charts):
        n = 2 ** int(rng.integers(7, 11))  # 128 .. 1024 samples
        loop = iso.restrict_data(data, chart, n=n)
        vals = np.roll(loop.values, int(rng.integers(n)), axis=0)
        cls = nq.pi1_class(vals)
        classes.append(cls)
        stream.write(f"generator {i}: class {cls}\n")
    label = "(" + ", ".join(str(c) for c in classes) + ")"
    stream.write(f"component {label} in (Z_2)^{len(classes)}\n")
    return 0


def _export(cfg, outdir):
    if cfg.driver in ("flux_to_zero", "prescribe_flux"):
        coeff = outdir / "family_coefficients.json"
        fam = load_family(coeff) if coeff.exists() else _family_for(cfg)
        members, ts = fam.members, np.asarray(fam.ts)
    else:
        data = initial_data(cfg)
        members, ts = [data], np.array([0.0])
    n_r, n_th = cfg.mesh
    for want in cfg.export_t:
        k = int(np.argmin(np.abs(ts - want)))
        verts = surface_grid(members[k], n_r=n_r, n_th=n_th)
        write_obj(outdir / f"mesh_t{k:03d}.obj", verts, ts[k])
    return 0


def _verify(cfg, outdir):
    coeff = outdir / "family_coefficients.json"
    fam = load_family(coeff) if coeff.exists() else _family_for(cfg)
    rep = iso.verify(fam, tol_flux=cfg.tol_flux, tol_period=cfg.tol_period,
                     target_flux=_target_flux(cfg))
    items = {
        "max_conformality": _fmt(rep.max_conformality),
        "max_real_period": _fmt(rep.max_real_period),
        "min_density": _fmt(rep.min_density),
        "t_samples": len(fam),
    }
    if rep.flux_end_residual is not None:
        items["flux_end_residual"] = _fmt(rep.flux_end_residual)
    ok = write_report(outdir / "report.txt", items, rep.passes)
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    p = _Parser(prog="minflux", description=__doc__, add_help=True)
    p.add_argument("verb", choices=("run", "verify", "classify", "export"))
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--t-samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol-flux", type=float, default=None)
    p.add_argument("--tol-period", type=float, default=None)
    return p


def main(argv=None, stdout=None, stderr=None):
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config)
        if args.out is not None:
            cfg.out = args.out
        if args.t_samples is not None:
            cfg.t_samples = args.t_samples
        if args.seed is not None:
            cfg.seed = args.seed
        if args.tol_flux is not None:
            cfg.tol_flux = args.tol_flux
        if args.tol_period is not None:
            cfg.tol_period = args.tol_period
        cfg.validate()
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        stderr.write(f"configuration error: {exc}\n")
        return 1
    try:
        if args.verb == "classify" or cfg.driver == "classify":
            return _classify(cfg, stdout)
        if args.verb == "run":
            if cfg.driver == "complete_step":
                return _run_complete_step(cfg, outdir)
            return _run_family(cfg, outdir)
        if args.verb == "verify":
            return _verify(cfg, outdir)
        return _export(cfg, outdir)
    except ConfigError as exc:
        stderr.write(f"configuration error: {exc}\n")
        return 1
    except MinfluxError as exc:
        stderr.write(f"verification failure ({type(exc).__name__}): {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
