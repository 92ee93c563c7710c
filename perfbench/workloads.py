"""The four benchmark workloads: seeded inputs, ops and output gates.

Each workload is built from a seed and yields an endless sequence of ops.
An op is a callable that runs one unit of user-visible work through the
public minflux API, checks its outputs against the acceptance thresholds,
and returns the seconds spent in its named parts.  A missed threshold
raises GateMissed; library errors propagate unchanged.  The runner counts
either as a failed op.

Inputs come only from the seed (and, for labyrinth_step, from the frozen
endpoint stored next to this file); the library sees generated arrays,
never the seed.
"""

from __future__ import annotations

import io
import json
import shutil
from pathlib import Path

import numpy as np

from hostspeed import clock
from minflux import cli
from minflux import isotopy as iso
from minflux import labyrinth as lb
from minflux import loops as lp
from minflux import nullquadric as nq
from minflux import riemann as rm
from minflux import sprays as sp
from minflux import weierstrass as wz

HERE = Path(__file__).resolve().parent
STORED_ENDPOINT = HERE / "stored_endpoint.json"
STORED_PROVENANCE = HERE / "stored_endpoint_provenance.json"
GOLDEN = (5**0.5 - 1) / 2


class GateMissed(Exception):
    """An op finished but its output missed an acceptance threshold."""


def _gate(ok, message):
    if not ok:
        raise GateMissed(message)


def random_targets(rng):
    """Flux targets (U(-1,1), U(-1,1), 2 pi U(0.5, 3)), one after another.

    The third component sets how much continuation work an op takes (up to
    a quarter more at the top of its range), so it is stratified: a
    golden-ratio sequence from a seeded start.  Each value is still uniform,
    but any few ops in a row spread evenly over the range, so runs of
    different seeds do about the same work.
    """
    u = rng.uniform()
    while True:
        u = (u + GOLDEN) % 1.0
        yield np.array(
            [rng.uniform(-1, 1), rng.uniform(-1, 1), 2 * np.pi * (0.5 + 2.5 * u)]
        )


def random_immersed_circle(rng, n=512):
    """Unit circle plus harmonics k = 2..4 of amplitude 0.08 / k^2."""
    x = np.arange(n) / n
    curve = np.stack(
        [np.cos(2 * np.pi * x), np.sin(2 * np.pi * x), np.zeros(n)], axis=1
    )
    for k in range(2, 5):
        amp = 0.08 / k**2
        for c in range(3):
            curve[:, c] += amp * (
                rng.normal() * np.cos(2 * np.pi * k * x)
                + rng.normal() * np.sin(2 * np.pi * k * x)
            )
    return curve


def rotated_catenoid_family(rng, n=512, n_t=32):
    """Catenoid boundary loops rotated in the 1-2 plane at a seeded rate."""
    x = np.arange(n) / n
    w = np.exp(2j * np.pi * x)
    base = 2j * np.pi * np.stack(
        [0.5 * (1.0 / w - w), 0.5j * (1.0 / w + w), np.ones(n, complex)], axis=1
    )
    rate = rng.uniform(0.02, 0.1)
    offset = rng.uniform(0.0, 2.0 * np.pi)
    out = []
    for k in range(n_t):
        c, s = np.cos(offset + rate * k), np.sin(offset + rate * k)
        v = base.copy()
        v[:, 0] = c * base[:, 0] - s * base[:, 1]
        v[:, 1] = s * base[:, 0] + c * base[:, 1]
        out.append(v)
    return out


def _warm_up():
    """First calls through numpy/scipy paths every minflux run pays."""
    data = wz.catalog("catenoid")
    chart = rm.homology_basis(rm.annulus(data.r_inner, data.r_outer))[0]
    loop = iso.restrict_data(data, chart)
    rm.runge_extend(loop, rm.annulus(data.r_inner, data.r_outer))
    nq.pi1_class(loop.values)
    wz.metric_density(data, data.grid())


# ---------------------------------------------------------------------------
# flux_isotopy


class FluxIsotopy:
    """flux_to_zero, then seeded prescribe_flux targets; each op + verify."""

    name = "flux_isotopy"
    cycle = 2
    samples = {"family": "family", "verify": "verify"}
    main, second = "family", "verify"
    n_t = 64

    def __init__(self, seed, workdir):
        self.seed = seed
        self.data = wz.catalog("catenoid")

    def _family(self, target):
        t0 = clock()
        if target is None:
            target = np.zeros(3)
            fam = iso.flux_to_zero(self.data, n_t=self.n_t)
        else:
            fam = iso.prescribe_flux(self.data, target, n_t=self.n_t)
        t1 = clock()
        rep = iso.verify(fam)
        t2 = clock()
        failed = sorted(k for k, v in rep.passes.items() if not v)
        _gate(rep.ok, f"verify failed: {', '.join(failed)}")
        res = float(np.linalg.norm(fam.flux_trace[-1] - target))
        _gate(res <= 1e-8, f"flux residual {res:.3g} > 1e-8")
        return {"family": t2 - t0, "verify": t2 - t1}

    def ops(self):
        targets = random_targets(np.random.default_rng(self.seed))
        yield "flux_to_zero", lambda: self._family(None)
        for target in targets:
            yield "prescribe_flux", lambda t=target: self._family(t)

    def checks(self):
        return {}


# ---------------------------------------------------------------------------
# labyrinth_step


def load_stored_endpoint():
    """The frozen t = 1 member, loaded the way the CLI loads coefficients."""
    fam = cli.load_family(STORED_ENDPOINT)
    recorded = np.array(json.loads(STORED_PROVENANCE.read_text())["flux"])
    return fam.members[-1], fam.flux_trace[-1], recorded


class LabyrinthStep:
    """complete_step at CLI defaults on the stored endpoint and the catalog
    catenoid, alternately."""

    name = "labyrinth_step"
    # stored, catalog, stored: two samples of the shorter op per pass
    cycle = 3
    samples = {"catalog": "step_catalog", "stored": "step_stored"}
    main, second = "catalog", "stored"
    delta = 0.5
    core = (0.8, 1.3)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.inputs = {"catalog": wz.catalog("catenoid")}
        self.inputs["stored"], self.loaded_flux, self.recorded_flux = (
            load_stored_endpoint()
        )

    def _step(self, kind, seed):
        t0 = clock()
        res = lb.complete_step(
            self.inputs[kind], core=self.core, delta=self.delta, seed=seed,
            ts=np.linspace(0.0, 1.0, 64),
        )
        t1 = clock()
        failed = sorted(k for k, v in res.report["passes"].items() if not v)
        _gate(res.ok, f"checks failed: {', '.join(failed)}")
        _gate(res.final_distance > 1.0 / self.delta,
              f"final distance {res.final_distance:.4g} <= 1/delta")
        return {kind: t1 - t0}

    def ops(self):
        rng = np.random.default_rng(self.seed)
        while True:
            for kind in ("stored", "catalog"):
                seed = int(rng.integers(2**31))
                yield f"step_{kind}", lambda k=kind, s=seed: self._step(k, s)

    def checks(self):
        dev = float(np.max(np.abs(self.loaded_flux - self.recorded_flux)))
        return {"stored_endpoint_flux": (dev <= 1e-12, f"max deviation {dev:.3g}")}


# ---------------------------------------------------------------------------
# pair_spray


class PairSpray:
    """Zero-period pairs on seeded circles, alternating spin class, between
    spray ops (build_spray and build_spray_fixed_third, each + solve_w)."""

    name = "pair_spray"
    cycle = 4
    samples = {"pair": "pair", "spray": "spray"}
    main, second = "pair", "spray"
    segment = lp.Segment(0.0, 0.25)

    def __init__(self, seed, workdir):
        self.seed = seed

    def _pair(self, curve, want):
        t0 = clock()
        pair = lp.make_zero_period_pair(curve, spin_class=want)
        t1 = clock()
        orth, norm = pair.residuals()
        per = float(np.linalg.norm(pair.g.mean(axis=0)))
        worst = max(float(orth.max()), float(norm.max()), per)
        _gate(worst <= 1e-10, f"pair residual {worst:.3g} > 1e-10")
        got = nq.pi1_class(pair.hprime + 1j * pair.g)
        _gate(got == want, f"spin class {got}, requested {want}")
        return {"pair": t1 - t0}

    def _spray(self, family, w_scales):
        spent = []
        for build, w_scale in zip((sp.build_spray, sp.build_spray_fixed_third),
                                  w_scales):
            t0 = clock()
            spray = build(family, self.segment)
            t1 = clock()
            # a reachable ramp: periods along a straight control path
            w_star = w_scale[: spray.dim_w]
            fracs = np.linspace(0.0, 1.0, spray.n_t)
            targets = np.stack(
                [spray.periods(k, f * w_star) for k, f in enumerate(fracs)]
            )
            t2 = clock()
            path = sp.solve_w(spray, sp.PeriodTargets(targets))
            t3 = clock()
            rows = 2 if spray.fixed_third else 3
            res = max(
                float(np.linalg.norm(
                    spray.periods(k, path[k])[:, :rows] - targets[k][:, :rows]
                ))
                for k in range(spray.n_t)
            )
            _gate(res <= sp.TOL_PERIOD,
                  f"solve_w residual {res:.3g} > {sp.TOL_PERIOD:g}")
            spent.append((t1 - t0) + (t3 - t2))
        # one spray build plus solve_w, averaged over the two spray kinds
        return {"spray": sum(spent) / len(spent)}

    def ops(self):
        rng = np.random.default_rng(self.seed)
        i = 0
        while True:
            curve = random_immersed_circle(rng)
            yield f"pair_class{i % 2}", lambda c=curve, w=i % 2: self._pair(c, w)
            family = rotated_catenoid_family(rng)
            w_scales = [
                0.02 * (rng.normal(size=3) + 1j * rng.normal(size=3))
                for _ in range(2)
            ]
            yield "spray", lambda f=family, w=w_scales: self._spray(f, w)
            i += 1

    def checks(self):
        return {}


# ---------------------------------------------------------------------------
# cli_roundtrip

CONFIG = """\
[domain]
r_inner = 0.5
r_outer = 2.0

[initial]
catalog = catenoid

[driver]
name = prescribe_flux
target_flux = {0!r} {1!r} {2!r}

[run]
t_samples = 16
export_t = 0 0.5 1
mesh = 24 96
"""


class CliRoundtrip:
    """In-process CLI sessions: run, verify, export, classify."""

    name = "cli_roundtrip"
    cycle = 1
    samples = {
        "session": "cli_session",
        "run": "cli_run",
        "verify": "cli_verify",
        "export": "cli_export",
        "classify": "cli_classify",
    }
    main, second = "session", "run"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.root = Path(workdir) / "cli"
        self.first_run = None  # bytes written by the first run verb

    def _verb(self, verb, config, out):
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = clock()
        code = cli.main([verb, "--config", str(config), "--out", str(out)],
                        stdout=stdout, stderr=stderr)
        t1 = clock()
        _gate(code == 0, f"{verb} exited {code}: {stderr.getvalue().strip()}")
        return t1 - t0, stdout.getvalue()

    def _overall(self, out, verb):
        text = (out / "report.txt").read_text()
        _gate("overall = PASS" in text.splitlines(), f"{verb} report is not PASS")

    def _artifacts(self, out):
        return {n: (out / n).read_bytes()
                for n in ("report.txt", "family_coefficients.json")}

    def _session(self, index, target):
        out = self.root / f"session{index:05d}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        config = out / "config.ini"
        config.write_text(CONFIG.format(*(float(v) for v in target)))
        try:
            spent = {}
            spent["run"], _ = self._verb("run", config, out)
            self._overall(out, "run")
            if self.first_run is None:
                self.first_run = (config.read_text(), self._artifacts(out))
            spent["verify"], _ = self._verb("verify", config, out)
            self._overall(out, "verify")
            spent["export"], _ = self._verb("export", config, out)
            meshes = sorted(out.glob("mesh_t*.obj"))
            _gate(len(meshes) == 3 and all(m.stat().st_size > 0 for m in meshes),
                  f"export wrote {len(meshes)} meshes, expected 3")
            spent["classify"], text = self._verb("classify", config, out)
            _gate("component (1) in (Z_2)^1" in text,
                  f"classify printed {text.strip()!r}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        spent["session"] = sum(spent.values())
        return spent

    def ops(self):
        targets = random_targets(np.random.default_rng(self.seed))
        for i, target in enumerate(targets):
            yield "session", lambda i=i, t=target: self._session(i, t)

    def checks(self):
        """Rerunning the first session's run verb gives identical bytes."""
        if self.first_run is None:
            return {"rerun_identical": (False, "no run verb completed")}
        text, first = self.first_run
        out = self.root / "rerun"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        try:
            config = out / "config.ini"
            config.write_text(text)
            self._verb("run", config, out)
            same = self._artifacts(out) == first
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return {"rerun_identical": (same, "report.txt and coefficients")}


WORKLOADS = {w.name: w for w in (FluxIsotopy, LabyrinthStep, PairSpray, CliRoundtrip)}


def make(name, seed, workdir):
    """The workload's inputs, generated from the seed, with lazy set-up warm."""
    wl = WORKLOADS[name](seed, workdir)
    _warm_up()
    return wl
