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
#: the drivers whose run stores a family in family_coefficients.json
FLUX_DRIVERS = DRIVERS[:2]

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


def _input(cfg):
    """The configured input data and the catalog name its family records
    ("" for none); data read from a coefficients file carries its spinor."""
    if cfg.catalog:
        try:
            data = wz.catalog(cfg.catalog)
        except UnknownName as exc:
            raise ConfigError(f"initial.catalog: {exc}") from None
        data.r_inner, data.r_outer = cfg.r_inner, cfg.r_outer
        return data, cfg.catalog
    src = load_family(cfg.coefficients)
    return src.members[-1], src.meta["catalog"]


def initial_data(cfg):
    return _input(cfg)[0]


# ---------------------------------------------------------------------------
# artifact writers


def _fmt(x):
    return _FLOAT % float(x)


def write_trace_csv(path, family, target):
    """Flux/period trace: one row per (t, generator), with |Re p| and the
    distance of Im p from the flux schedule, the imaginary part of
    iso.period_schedule from the period at t = 0 to the flux target."""
    header = (
        "t,generator,re_p1,im_p1,re_p2,im_p2,re_p3,im_p3,"
        "real_period_residual,flux_target_residual"
    )
    lines = [header]
    ts = np.asarray(family.ts, dtype=float)
    ramp = iso.period_schedule(ts, family.periods[0], target).imag
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
    """The family as JSON, one entry per member's spinor; a null member
    stands for the catalog member family.meta["catalog"] on the family's
    annulus."""
    catalog = family.meta.get("catalog", "")
    members = []
    for k, member in enumerate(family.members):
        ext = member.spinor
        if ext is None:
            if not catalog:
                raise ValueError(
                    f"member {k} has no extension and the family names no "
                    "catalog member"
                )
            members.append(None)
            continue
        members.append(
            {
                "a": _series_dict(ext.a),
                "b": _series_dict(ext.b),
                # charts are centred at 0; the entry keeps the file format
                "center": [0.0, 0.0],
                "parity": int(ext.parity),
                "scale": float(ext.scale),
            }
        )
    doc = {
        "basepoint": [family.basepoint.real, family.basepoint.imag],
        "catalog": catalog,
        "driver": cfg.driver,
        "members": members,
        "notice": family.notice,
        "r_inner": family.members[0].r_inner,
        "r_outer": family.members[0].r_outer,
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
    if _complex(_entry(entry, "center", where), where + "center") != 0:
        raise ConfigError(
            f"coefficients file: {where}center must be 0 (the chart is centered)"
        )
    return LaurentMap(
        _series(_entry(entry, "a", where), f"{where}a."),
        _series(_entry(entry, "b", where), f"{where}b."),
        parity=parity,
        scale=scale,
    )


def load_family(path, driver=None):
    """The ImmersionFamily stored by write_coefficients.

    A missing or ill-typed entry, a non-finite number, an unknown catalog
    name, an out-of-range theta, radius, parity or scale, a basepoint off
    the annulus's generator point, or a recorded driver other than the
    given driver raises ConfigError.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read coefficients file: {exc}") from None
    if driver is not None and isinstance(doc, dict):
        recorded = doc.get("driver", driver)
        if recorded != driver:
            raise ConfigError(
                f"coefficients file records driver {recorded!r}, the "
                f"configuration names {driver!r}"
            )
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
    chart = rm.homology_basis(rm.annulus(r_in, r_out))[0]
    if _complex(_entry(doc, "basepoint"), "basepoint") != chart.radius:
        raise ConfigError(
            f"coefficients file: basepoint must be the generator point "
            f"[{_fmt(chart.radius)}, 0] of the annulus"
        )
    notice = doc.get("notice", "")
    if not isinstance(notice, str):
        raise ConfigError("coefficients file: notice must be a JSON str")
    try:
        base = wz.catalog(catalog) if catalog else None
    except UnknownName as exc:
        raise ConfigError(f"coefficients file: catalog: {exc}") from None
    if base is not None:
        base.r_inner, base.r_outer = r_in, r_out
    members, periods = [], []
    for k, entry in enumerate(entries):
        if entry is None:
            if base is None:
                raise ConfigError("coefficients file lacks the anchor member")
            member, period = base, lp.period(iso.restrict_data(base, chart))
        else:
            ext = _extension(entry, f"members[{k}].")
            # a huge coefficient or a scale near 0 overflows the spinor
            # product; verify and the drivers' admission then reject the
            # member as not finite
            with np.errstate(over="ignore", invalid="ignore"):
                member, period = iso._spinor_member(ext, theta, r_in, r_out)
        members.append(member)
        periods.append(period)
    return iso.ImmersionFamily(
        ts=np.array(ts, dtype=float),
        members=members,
        periods=np.array(periods),
        notice=notice,
        meta={"catalog": catalog},
    )


def write_report(path, items, passes):
    lines = [f"{k} = {v}" for k, v in sorted(items.items())]
    lines += [f"check {k} = {'pass' if v else 'FAIL'}" for k, v in sorted(passes.items())]
    ok = all(passes.values())
    lines.append(f"overall = {'PASS' if ok else 'FAIL'}")
    Path(path).write_text("\n".join(lines) + "\n")
    return ok


def surface_grid(data, n_r=24, n_th=96):
    """Vertices u(r_i e^(2 pi i j / n_th)) of the immersion on a polar grid,
    shape (n_r, n_th, 3), with u = 0 at the innermost radius on the
    positive real axis.

    One integrate_immersion call evaluates the exact primitive on the whole
    grid; past the negative real axis its log term takes the principal
    branch, which moves u by the real period only, checked below
    TOL_PERIOD.
    """
    grid = wz.annulus_grid(data.r_inner, data.r_outer, n_r, n_th)
    u = wz.integrate_immersion(data, grid.radii[0], np.zeros(3), grid)
    # the grid's FFT and Horner's scheme at the basepoint differ by rounding
    return (u - u[0]).reshape(n_r, n_th, 3)


def write_obj(path, verts, t):
    """Triangulated polar grid, right-handed orientation, t in the header."""
    n_r, n_th, _ = verts.shape
    head = f"# t = {_fmt(t)}\n# polar grid {n_r} x {n_th}, right-handed\n"
    # quad (i, j) has the 1-based vertex ids a, b (j + 1, wrapping round),
    # b + n_th and a + n_th, and splits into two faces
    i, j = np.divmod(np.arange((n_r - 1) * n_th), n_th)
    a = i * n_th + j + 1
    b = i * n_th + (j + 1) % n_th + 1
    faces = np.stack([a, b, b + n_th, a, b + n_th, a + n_th], axis=-1)
    vline = f"v {_FLOAT} {_FLOAT} {_FLOAT}\n"
    fline = "f %d %d %d\nf %d %d %d\n"
    Path(path).write_text(
        head
        + vline * (n_r * n_th) % tuple(verts.ravel().tolist())
        + fline * len(a) % tuple(faces.ravel().tolist())
    )


def write_labyrinth_csv(path, result):
    """Wall outlines in physical coordinates: hole, band, set, vertex, re, im."""
    lines = ["hole,band,set,vertex,re,im"]
    for lab in result.labyrinths:
        end = lab.band.end
        for s, poly in zip(lab.sets, lab.polygons()):
            z = end.to_chart(poly)  # an involution: chart to physical
            for v, p in enumerate(z):
                lines.append(
                    f"{lab.band.hole},{lab.band.k},{s.n},{v},"
                    f"{_fmt(p.real)},{_fmt(p.imag)}"
                )
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# verbs


def _family_for(cfg):
    """The family of the configured flux driver, one of FLUX_DRIVERS.

    Members the driver anchors to the input (member 0, or every member of a
    constant family) are the input itself, with its spinor if it has one.
    """
    data, catalog = _input(cfg)
    if cfg.driver == "flux_to_zero":
        fam = iso.flux_to_zero(
            data, n_t=cfg.t_samples, tol_flux=cfg.tol_flux,
            tol_period=cfg.tol_period,
        )
    else:
        fam = iso.prescribe_flux(
            data, np.asarray(cfg.target_flux, dtype=float), n_t=cfg.t_samples,
            tol_flux=cfg.tol_flux, tol_period=cfg.tol_period,
        )
    fam.meta["catalog"] = catalog
    return fam


def _target_flux(cfg):
    """Flux the configured flux driver must reach at t = 1."""
    if cfg.driver == "flux_to_zero":
        return np.zeros(3)
    return np.asarray(cfg.target_flux, dtype=float)


def _stored_family(cfg, outdir):
    """The family of family_coefficients.json in outdir, else a driver rerun.

    Only the flux drivers store a family, and the file must record the
    configured driver; otherwise ConfigError.
    """
    if cfg.driver not in FLUX_DRIVERS:
        raise ConfigError(f"driver {cfg.driver} stores no family")
    coeff = outdir / "family_coefficients.json"
    if coeff.exists():
        return load_family(coeff, driver=cfg.driver)
    return _family_for(cfg)


def _verify_family(cfg, fam):
    """verify's report on the family, and the report items run and verify
    share."""
    rep = iso.verify(fam, tol_flux=cfg.tol_flux, tol_period=cfg.tol_period,
                     target_flux=_target_flux(cfg))
    items = {
        "continuity": _fmt(rep.continuity),
        "max_conformality": _fmt(rep.max_conformality),
        "max_real_period": _fmt(rep.max_real_period),
        "min_density": _fmt(rep.min_density),
        "t_samples": len(fam),
        "flux_end_residual": _fmt(rep.flux_end_residual),
    }
    return rep, items


def _run_family(cfg, outdir):
    fam = _family_for(cfg)
    write_coefficients(outdir / "family_coefficients.json", fam, cfg)
    write_trace_csv(outdir / "trace.csv", fam, target=_target_flux(cfg))
    rep, items = _verify_family(cfg, fam)
    items.update(
        driver=cfg.driver,
        notice=fam.notice or "none",
        pi1_classes=" ".join(str(c) for c in sorted(set(rep.pi1_classes))),
    )
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
    periods = np.array([wz.loop_period(m, circle) for m in result.members])
    fam = iso.ImmersionFamily(ts=result.ts, members=result.members,
                              periods=periods)
    write_trace_csv(outdir / "trace.csv", fam, target=periods[0].imag)
    items = {
        k: (_fmt(v) if isinstance(v, float) else v)
        for k, v in result.report.items()
        if k != "passes"
    }
    items["driver"] = cfg.driver
    items["notice"] = lb.SURROGATE_NOTICE
    ok = write_report(outdir / "report.txt", items, result.report["passes"])
    return 0 if ok else 2


def _classify(cfg, stream):
    data = initial_data(cfg)
    (chart,) = rm.homology_basis(rm.annulus(data.r_inner, data.r_outer))
    rng = np.random.default_rng(cfg.seed)
    n = 2 ** int(rng.integers(7, 11))  # 128 .. 1024 samples
    loop = iso.restrict_data(data, chart, n=n)
    vals = np.roll(loop.values, int(rng.integers(n)), axis=0)
    cls = nq.pi1_class(vals)
    # the annulus has one homology generator
    stream.write(f"generator 0: class {cls}\n")
    stream.write(f"component ({cls}) in (Z_2)^1\n")
    return 0


def _export(cfg, outdir):
    if cfg.driver in FLUX_DRIVERS:
        fam = _stored_family(cfg, outdir)
        members, ts = fam.members, np.asarray(fam.ts)
    else:
        data = initial_data(cfg)
        members, ts = [data], np.array([0.0])
    n_r, n_th = cfg.mesh
    picks = [int(np.argmin(np.abs(ts - want))) for want in cfg.export_t]
    # export_t values that pick the same member write its mesh once
    for k in dict.fromkeys(picks):
        verts = surface_grid(members[k], n_r=n_r, n_th=n_th)
        write_obj(outdir / f"mesh_t{k:03d}.obj", verts, ts[k])
    return 0


def _verify(cfg, outdir):
    rep, items = _verify_family(cfg, _stored_family(cfg, outdir))
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
