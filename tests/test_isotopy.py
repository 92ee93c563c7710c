"""Tests for the end-to-end flux-steering drivers and verification."""

import copy
import dataclasses
import io
import re
import types
import warnings

import numpy as np
import pytest
from scipy import optimize, special

from minflux import cli
from minflux import isotopy as iso
from minflux import labyrinth as lb
from minflux import loops as lp
from minflux import nullquadric as nq
from minflux import riemann as rm
from minflux import weierstrass as wz
from minflux.errors import (
    ApproximationBudgetExceeded,
    ContinuationStalled,
    EstimateNotMet,
    FlatInput,
    GaussMapVanishes,
    NonFiniteValues,
)
from minflux.riemann import TOL_RUNGE
from minflux.weierstrass import PolarGrid, _open_radii

#: a prescribe_flux target off the catenoid's vertical axis
PRESCRIBED_TARGET = np.array([0.3, -0.2, 4.0 * np.pi])


@pytest.fixture(scope="module")
def catenoid():
    return wz.MinimalImmersion(wz.catalog("catenoid"))


@pytest.fixture(scope="module")
def fam_zero(catenoid):
    return iso.flux_to_zero(catenoid)


def member_steps(fam):
    """max|f(t_k+1) - f(t_k)| / max|f(t_k)| on a 32 x 128 grid, and the
    last member's max|f|."""
    fvs = [m.f(PolarGrid(_open_radii(m.r_inner, m.r_outer, 32), 128))
           for m in fam.members]
    steps = [np.max(np.abs(b - a)) / np.max(np.abs(a))
             for a, b in zip(fvs, fvs[1:])]
    return np.array(steps), float(np.max(np.abs(fvs[-1])))


def ramp(fam, target):
    """The scheduled periods of a family, from its period at t = 0 to the
    period i target."""
    return iso.period_schedule(fam.ts, fam.periods[0], target)


class TestMemberExtension:
    @pytest.fixture(scope="class")
    def fam_prescribed(self, catenoid):
        return iso.prescribe_flux(catenoid, PRESCRIBED_TARGET, n_t=16)

    @pytest.mark.parametrize("which", ["flux_to_zero", "prescribe_flux"])
    def test_period_within_sup_error_of_ramp(self, which, fam_zero,
                                             fam_prescribed):
        fam, target = {
            "flux_to_zero": (fam_zero, np.zeros(3)),
            "prescribe_flux": (fam_prescribed, PRESCRIBED_TARGET),
        }[which]
        bound = min(TOL_RUNGE, 0.1 * fam.meta["tol_period"])
        sched = ramp(fam, target)
        for k in range(1, len(fam)):
            sup = fam.members[k].spinor.meta["sup_error"]
            assert sup <= bound
            assert np.max(np.abs(fam.periods[k] - sched[k])) <= sup + 1e-12

    def test_period_miss_beyond_bound_raises(self, catenoid):
        data = catenoid.data
        dom = rm.annulus(data.r_inner, data.r_outer)
        loop = iso.restrict_data(data, rm.homology_basis(dom)[0])
        period = lp.period(loop)
        member, got = iso._pin_extension(loop.values, dom, data.theta, period,
                                         tol=1e-10)
        sup = member.spinor.meta["sup_error"]
        assert np.max(np.abs(got - period)) <= sup + 1e-12
        with pytest.raises(EstimateNotMet, match=r"misses the ramp by 1e-09"
                           r".*above the bound"):
            iso._pin_extension(loop.values, dom, data.theta, period + 1e-9,
                               tol=1e-10)

    def test_unreachable_period_tolerance_typed(self, catenoid):
        # no degree up to DEGREE_MAX extends to 1e-17
        with pytest.raises(ApproximationBudgetExceeded,
                           match=r"sup error \S+ above 1e-17 at degree 512"):
            iso.flux_to_zero(catenoid, n_t=4, tol_period=1e-16)

    def test_unreachable_period_tolerance_exits_2(self, tmp_path):
        cfg = tmp_path / "config.ini"
        cfg.write_text("[initial]\ncatalog = catenoid\n"
                       "[driver]\nname = flux_to_zero\n"
                       "[run]\nt_samples = 4\n")
        err = io.StringIO()
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path),
                         "--tol-period", "1e-16"],
                        stdout=io.StringIO(), stderr=err)
        assert code == 2
        assert re.search(r"ApproximationBudgetExceeded.*sup error \S+ "
                         r"above 1e-17", err.getvalue())


class TestFluxToZero:
    def test_periods_are_exact_spinor_periods(self, fam_zero):
        for m, per in zip(fam_zero.members[1:], fam_zero.periods[1:]):
            _, again = iso._spinor_member(m.spinor, "dz/z", m.r_inner,
                                          m.r_outer)
            assert again.tobytes() == per.tobytes()

    def test_rerun_bit_identical(self, catenoid, fam_zero):
        again = iso.flux_to_zero(catenoid)
        assert again.periods.tobytes() == fam_zero.periods.tobytes()
        for m1, m2 in zip(fam_zero.members[1:], again.members[1:]):
            e1, e2 = m1.spinor, m2.spinor
            assert e1.parity == e2.parity
            for s1, s2 in ((e1.a, e2.a), (e1.b, e2.b)):
                assert s1.k_min == s2.k_min
                assert s1.coeffs.tobytes() == s2.coeffs.tobytes()

    def test_endpoint_flux_vanishes(self, fam_zero):
        assert np.linalg.norm(fam_zero.flux_trace[-1]) <= 1e-8

    def test_t0_member_is_input_object(self, catenoid, fam_zero):
        assert fam_zero.members[0] is catenoid.data

    def test_flux_trace_is_linear_ramp(self, catenoid, fam_zero):
        ts = fam_zero.ts
        expect = (1.0 - ts)[:, None] * catenoid.flux[None, :]
        assert np.max(np.abs(fam_zero.flux_trace - expect)) <= 1e-9

    def test_members_are_minimal_immersions(self, fam_zero):
        for k in (1, len(fam_zero) // 2, len(fam_zero) - 1):
            imm = wz.MinimalImmersion(fam_zero.members[k])
            assert np.isfinite(imm.flux).all()

    def test_full_complex_periods_vanish_at_end(self, fam_zero):
        assert np.linalg.norm(fam_zero.periods[-1]) <= 1e-9

    def test_null_curve_emitted(self, fam_zero):
        F, defect = fam_zero.null_curve()
        assert defect <= 1e-8
        z = np.array([1.3 + 0.2j, 0.7 - 0.4j])
        vals = F(z)
        # real part integrates the endpoint immersion from the basepoint
        target = wz.integrate_immersion(
            fam_zero.members[-1], fam_zero.basepoint, np.zeros(3), z[0]
        )
        assert np.linalg.norm(vals[0].real - target) <= 1e-9
        # F vanishes at the basepoint by construction
        assert np.linalg.norm(F(np.array([fam_zero.basepoint]))[0]) <= 1e-12

    def test_zero_flux_input_constant_family(self):
        enn = wz.MinimalImmersion(wz.catalog("enneper_annulus"))
        fam = iso.flux_to_zero(enn)
        assert fam.notice
        assert all(m is enn.data for m in fam.members)
        assert np.linalg.norm(fam.flux_trace[-1]) <= 1e-12

    def test_flat_input_constant_family_with_notice(self):
        fl = wz.MinimalImmersion(wz.catalog("flat_exponential"))
        fam = iso.flux_to_zero(fl)
        assert "flat" in fam.notice
        assert np.linalg.norm(fam.flux_trace[-1]) <= 1e-12
        assert iso.verify(fam).ok

    def test_continuous_under_refinement(self, catenoid, fam_zero):
        # the normalisation rows keep the path on one branch up to t = 1:
        # no member step jumps, and the endpoint does not move with n_t
        coarse = iso.flux_to_zero(catenoid, n_t=32)
        s64, end64 = member_steps(fam_zero)
        s32, end32 = member_steps(coarse)
        assert max(s64.max(), s32.max()) <= 0.1
        assert abs(end64 - end32) <= 0.05 * end64
        assert iso.verify(coarse).ok

    @pytest.mark.parametrize("lam", [0.7, 1.5])
    def test_second_input_passes_verify(self, lam):
        # g = lam z, f3 = 1, theta = dz/z carries nonzero flux for lam != 1
        data = wz.WeierstrassData(wz.LaurentSeries([lam], 1),
                                  wz.LaurentSeries([1.0], 0), theta="dz/z")
        fam = iso.flux_to_zero(data, n_t=32)
        rep = iso.verify(fam, target_flux=np.zeros(3))
        assert np.linalg.norm(rep.flux_table[0]) > 1.0
        assert rep.ok, rep.passes


class TestMemberSpinor:
    """A driven member carries its spinor (a, b): f theta/d(zeta) is
    (a^2 - b^2, i (a^2 + b^2), 2ab) times (z/scale)^parity."""

    #: the radii on which F4's windings were taken (ROADMAP)
    RADII = (0.52, 0.6, 0.7, 0.8, 0.9, 1.0, 1.2, 1.4, 1.6, 1.8, 1.95)

    def test_density_from_spinor(self, fam_zero):
        # |f|^2 = 2 (|a|^2 + |b|^2)^2 |z/scale|^(2 parity), and
        # f theta/dz = f theta/d(zeta) / (2 pi i z)
        for m in fam_zero.members[1:]:
            s = m.spinor
            grid = PolarGrid(_open_radii(m.r_inner, m.r_outer, 32), 128)
            z = np.abs(grid.points)
            want = ((np.abs(s.a(grid)) ** 2 + np.abs(s.b(grid)) ** 2) ** 2
                    * (z / s.scale) ** (2 * s.parity) / (4 * np.pi**2 * z**2))
            got = wz.metric_density(m, grid)
            assert np.max(np.abs(got - want) / want) <= 1e-12

    def test_windings_add_up(self, fam_zero):
        # f3 = 2ab (z/scale)^parity / (2 pi i) and g = b/a
        for m in fam_zero.members[1:]:
            s = m.spinor
            for r in self.RADII:
                z = wz.circle(r, 4096)
                wa, wb = (rm.winding_number(c(z)) for c in (s.a, s.b))
                assert rm.winding_number(m.f3(z)) == wa + wb + s.parity
                assert rm.winding_number(m.g(z)) == wb - wa


def reference_f(m, z):
    """f at plain points z from g and f3, by the null triple formulas."""
    g, f3 = m.g(z), m.f3(z)
    return np.stack([0.5 * (1.0 / g - g) * f3, 0.5j * (1.0 / g + g) * f3, f3],
                    axis=-1)


def reference_loop(m, chart, n):
    """f theta/d(zeta) at the chart's n points, from g and f3."""
    z = wz.circle(chart.radius, n)
    fac = 2j * np.pi * (np.ones_like(z) if m.theta == "dz/z" else z)
    return reference_f(m, z) * fac[:, None]


def reference_density(m, z):
    """0.25 |f3 theta/dz|^2 (|g| + 1/|g|)^2 at plain points z."""
    g = np.abs(m.g(z))
    f3_theta = m.f3(z) / (z if m.theta == "dz/z" else 1.0)
    return 0.25 * np.abs(f3_theta) ** 2 * (g + 1.0 / g) ** 2


def without_spinors(fam):
    """fam with every member read from g and f3 only."""
    out = copy.copy(fam)
    out.members = [dataclasses.replace(m, spinor=None) for m in fam.members]
    return out


def parity_zero_family():
    """Three hand-built members with parity-0 spinors, theta = dz."""
    members, periods = [], []
    for t in (0.0, 0.5, 1.0):
        ext = rm.LaurentMap(
            wz.LaurentSeries([0.3, 1.0, 0.2 + 0.1j * t], -1),
            wz.LaurentSeries([0.5, 0.1j, 0.25 - 0.05 * t], -1),
        )
        member, period = iso._spinor_member(ext, "dz", 0.5, 2.0)
        members.append(member)
        periods.append(period)
    return iso.ImmersionFamily(ts=np.array([0.0, 0.5, 1.0]), members=members,
                               periods=np.array(periods))


@pytest.fixture(scope="module", params=[
    "flux_to_zero-16", "flux_to_zero-64", "prescribe_flux-16",
    "prescribe_flux-64", "loaded", "parity_zero",
])
def spinor_family(request, catenoid, tmp_path_factory):
    """Families whose members (all but a catalog member 0) carry spinors."""
    name = request.param
    if name == "parity_zero":
        return parity_zero_family()
    if name == "loaded":
        fam = iso.prescribe_flux(catenoid, PRESCRIBED_TARGET, n_t=16)
        fam.meta["catalog"] = "catenoid"
        path = tmp_path_factory.mktemp("loaded") / "family.json"
        cli.write_coefficients(
            path, fam, types.SimpleNamespace(driver="prescribe_flux")
        )
        return cli.load_family(path)
    driver, n_t = name.split("-")
    if driver == "flux_to_zero":
        return iso.flux_to_zero(catenoid, n_t=int(n_t))
    return iso.prescribe_flux(catenoid, PRESCRIBED_TARGET, n_t=int(n_t))


class TestSpinorReading:
    """verify reads a member with a spinor from its blocks on polar grids;
    the references are the g and f3 formulas on plain points."""

    def test_rims_loop_and_density_match_g_and_f3(self, spinor_family):
        fam = spinor_family
        first, chart = fam.members[0], fam.chart
        rims = PolarGrid([first.r_inner, first.r_outer], 1024)
        grid = PolarGrid(_open_radii(first.r_inner, first.r_outer, 64), 256)
        for m in fam.members:
            if m.spinor is None:
                continue
            want = reference_f(m, rims.points)
            err = np.max(np.abs(m.f(rims) - want)) / np.max(np.abs(want))
            assert err <= 1e-12
            want = reference_loop(m, chart, 1024)
            got = iso.restrict_data(m, chart, n=1024).values
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            want = reference_density(m, grid.points)
            got = wz.metric_density(m, grid)
            assert np.max(np.abs(got - want) / want) <= 1e-12

    def test_sampled_class_is_the_parity(self, spinor_family):
        chart = spinor_family.chart
        for m in spinor_family.members:
            if m.spinor is not None:
                loop = reference_loop(m, chart, 1024)
                assert nq.pi1_class(loop) == m.spinor.parity

    def test_report_matches_g_and_f3_reading(self, spinor_family):
        rep = iso.verify(spinor_family, target_flux=np.zeros(3))
        ref = iso.verify(without_spinors(spinor_family),
                         target_flux=np.zeros(3))
        assert rep.passes == ref.passes
        assert rep.pi1_classes == ref.pi1_classes
        assert rep.flat_flags == ref.flat_flags
        scale = max(1.0, float(np.max(np.abs(ref.flux_table))))
        assert np.max(np.abs(rep.flux_table - ref.flux_table)) <= 1e-12 * scale
        for name in ("min_density", "continuity"):
            assert getattr(rep, name) == pytest.approx(getattr(ref, name),
                                                       rel=1e-12)
        # residuals at rounding level agree absolutely
        for name in ("max_conformality", "max_real_period",
                     "flux_end_residual"):
            assert abs(getattr(rep, name) - getattr(ref, name)) <= 1e-12 * scale

    def test_catalog_loop_keeps_horner_bits(self, catenoid):
        # the drivers' input loop from catalog data is read by Horner's
        # scheme at the chart's points, bit for bit
        data, chart = catenoid.data, rm.homology_basis(rm.annulus())[0]
        z = wz.circle(chart.radius, 512)
        want = data.f(z) * (2j * np.pi * z / z)[:, None]
        got = iso.restrict_data(data, chart, n=512).values
        assert got.tobytes() == want.tobytes()

    def test_no_point_evaluation_beyond_member_0(self, fam_zero, monkeypatch):
        series, quotients, densities, classes = [], [], [], []
        series_call = wz.LaurentSeries.__call__
        quotient_call = wz.LaurentQuotient.__call__
        metric_density = wz.metric_density
        pi1_class = nq.pi1_class

        def on_series(self, z):
            series.append((self, isinstance(z, PolarGrid)))
            return series_call(self, z)

        def on_quotient(self, z):
            quotients.append(self)
            return quotient_call(self, z)

        def on_density(data, points):
            densities.append(data)
            return metric_density(data, points)

        def on_class(loop):
            classes.append(loop)
            return pi1_class(loop)

        monkeypatch.setattr(wz.LaurentSeries, "__call__", on_series)
        monkeypatch.setattr(wz.LaurentQuotient, "__call__", on_quotient)
        monkeypatch.setattr(wz, "metric_density", on_density)
        monkeypatch.setattr(nq, "pi1_class", on_class)
        iso.verify(fam_zero)
        m0 = fam_zero.members[0]
        assert m0.spinor is None
        assert all(m.spinor is not None for m in fam_zero.members[1:])
        plain = [s for s, polar in series if not polar]
        assert plain and all(s is m0.g or s is m0.f3 for s in plain)
        assert all(q is m0.g for q in quotients)
        assert [id(d) for d in densities] == [id(m) for m in fam_zero.members]
        # the other members' classes are their spinors' parities
        assert len(classes) == 1

    def test_zero_block_a_rejected(self):
        ext = rm.LaurentMap(wz.LaurentSeries([0.0]), wz.LaurentSeries([1.0]))
        with pytest.raises(NonFiniteValues, match="block a is zero"):
            iso._spinor_member(ext, "dz", 0.5, 2.0)

    def test_member_zero_on_the_rims_reads_infinite_step(self, fam_zero):
        # a zero spinor reads 0 on both circles, so the next step is
        # unbounded, not a ZeroDivisionError
        zero = rm.LaurentMap(wz.LaurentSeries([0.0]), wz.LaurentSeries([0.0]),
                             parity=1)
        bad = copy.copy(fam_zero)
        bad.members = list(fam_zero.members)
        bad.members[10] = dataclasses.replace(bad.members[10], spinor=zero)
        rep = iso.verify(bad)
        assert rep.continuity == np.inf
        assert not rep.passes["continuity"]
        assert not rep.passes["metric_density"]


class TestNoRetry:
    @pytest.fixture
    def stalled(self, monkeypatch):
        calls = []
        continuation = lp._period_continuation

        def counted(*args):
            calls.append(args)
            return continuation(*args)

        monkeypatch.setattr(lp, "_newton", lambda *args, **kw: None)
        monkeypatch.setattr(lp, "_period_continuation", counted)
        return calls

    def test_stall_raises_after_one_continuation(self, catenoid, stalled):
        with pytest.raises(ContinuationStalled, match="step 1 of 64"):
            iso.flux_to_zero(catenoid)
        assert len(stalled) == 1

    def test_stall_exits_2(self, tmp_path, stalled):
        cfg = tmp_path / "config.ini"
        cfg.write_text("[initial]\ncatalog = catenoid\n"
                       "[driver]\nname = flux_to_zero\n")
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)],
                        stdout=io.StringIO(), stderr=io.StringIO())
        assert code == 2
        assert len(stalled) == 1

    def test_one_shared_continuation_per_driver(self, catenoid, monkeypatch):
        # the flux drivers and solve_w share loops._continue
        calls, continue_ = [], lp._continue

        def counted(*args, **kwargs):
            calls.append(args)
            return continue_(*args, **kwargs)

        monkeypatch.setattr(lp, "_continue", counted)
        iso.flux_to_zero(catenoid, n_t=8)
        assert len(calls) == 1


class TestPrescribeFlux:
    def test_target_reached(self, catenoid):
        p = np.array([0.0, 0.0, 4.0 * np.pi])
        fam = iso.prescribe_flux(catenoid, p)
        assert np.linalg.norm(fam.flux_trace[-1] - p) <= 1e-8

    def test_zero_target_consistent_with_flux_to_zero(self, catenoid, fam_zero):
        fam = iso.prescribe_flux(catenoid, np.zeros(3))
        assert np.linalg.norm(fam.flux_trace[-1]) <= 1e-8
        assert (
            np.linalg.norm(fam.flux_trace[-1] - fam_zero.flux_trace[-1]) <= 1e-8
        )

    def test_current_flux_target_constant_family(self, catenoid):
        fam = iso.prescribe_flux(catenoid, catenoid.flux)
        assert all(m is catenoid.data for m in fam.members)

    def test_flat_input_with_foreign_target_rejected(self):
        fl = wz.MinimalImmersion(wz.catalog("flat_exponential"))
        with pytest.raises(FlatInput):
            iso.prescribe_flux(fl, np.array([0.0, 0.0, 1.0]))

    def test_one_flow_sweep_per_newton_point(self, catenoid, monkeypatch):
        # the continuation deforms the loop once at each point its Newton
        # solves visit, per resolution: a solve ends at its last residual
        # point, which is the next solve's first point at that resolution.
        # The coarse point reads the full readout to rounding, so the full
        # solve confirms each step with one sweep and no Jacobian
        points, sweeps, jacobians, reads, inside = set(), [], [], [], []
        newton, deform, read_out = lp._newton, lp._flow_deform, lp.read_out
        jacobian, continuation = lp._flow_jacobian, lp._period_continuation

        def traced_newton(residual, *args):
            def recorded(x):
                out = residual(x)
                if inside:
                    # the residual read the readout at its sample count
                    points.add((reads[-1], x.tobytes()))
                return out

            return newton(recorded, *args)

        def traced_read_out(weights, samples):
            reads.append(weights.shape[1])
            return read_out(weights, samples)

        def traced_deform(values, controls, w):
            sweeps.append((len(values), w.tobytes()))
            return deform(values, controls, w)

        def traced_jacobian(tape, weights):
            jacobians.append(weights.shape[1])
            return jacobian(tape, weights)

        def traced_continuation(*args):
            inside.append(True)
            try:
                return continuation(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(lp, "_newton", traced_newton)
        monkeypatch.setattr(lp, "_flow_deform", traced_deform)
        monkeypatch.setattr(lp, "_flow_jacobian", traced_jacobian)
        monkeypatch.setattr(lp, "read_out", traced_read_out)
        monkeypatch.setattr(lp, "_period_continuation", traced_continuation)
        n_t = 16
        iso.prescribe_flux(catenoid, np.array([0.3, -0.2, 4.0 * np.pi]), n_t=n_t)
        n = iso.N_S_DEFAULT
        assert len(points) > n_t - 1
        assert len(sweeps) == len(points)
        assert set(sweeps) == points
        assert sum(s[0] == n for s in sweeps) == n_t - 1
        assert {s[0] for s in sweeps} == {lp.COARSE_SAMPLES, n}
        assert jacobians and set(jacobians) == {lp.COARSE_SAMPLES}


class TestCoarseContinuation:
    TARGET = np.array([0.3, -0.2, 4.0 * np.pi])

    def test_coarse_stall_falls_back_to_full(self, catenoid, monkeypatch):
        # a zero coarse Jacobian stalls every coarse solve; each step then
        # takes the full solve from the previous w
        full, jacobian = [], lp._flow_jacobian

        def coarse_stalls(tape, weights):
            out = jacobian(tape, weights)
            if weights.shape[1] == lp.COARSE_SAMPLES:
                return np.zeros_like(out)
            full.append(weights.shape[1])
            return out

        monkeypatch.setattr(lp, "_flow_jacobian", coarse_stalls)
        fam = iso.prescribe_flux(catenoid, self.TARGET, n_t=16)
        assert len(full) >= 15
        assert iso.verify(fam, target_flux=self.TARGET).ok
        assert np.linalg.norm(fam.flux_trace[-1] - self.TARGET) <= 1e-8

    def test_flux_to_zero_one_full_sweep_per_step(self, catenoid, monkeypatch):
        # the coarse point meets the full readout to 1e-12 up to t = 1, so
        # the full solve confirms each step at its first residual point
        sizes, deform, jacobian = [], lp._flow_deform, lp._flow_jacobian

        def traced_deform(values, controls, w):
            sizes.append(len(values))
            return deform(values, controls, w)

        def traced_jacobian(tape, weights):
            sizes.append(-weights.shape[1])
            return jacobian(tape, weights)

        monkeypatch.setattr(lp, "_flow_deform", traced_deform)
        monkeypatch.setattr(lp, "_flow_jacobian", traced_jacobian)
        fam = iso.flux_to_zero(catenoid, n_t=64)
        assert sizes.count(iso.N_S_DEFAULT) == 63
        assert -iso.N_S_DEFAULT not in sizes
        assert iso.verify(fam).ok

    def test_members_match_full_resolution_solve(self, catenoid, monkeypatch):
        # the coarse level changes how each step is reached, not where:
        # before the ill-conditioned endpoint (ROADMAP F11) the members
        # agree with a full-resolution continuation to rounding
        fams = [iso.prescribe_flux(catenoid, self.TARGET, n_t=16)]
        monkeypatch.setattr(lp, "COARSE_SAMPLES", None)
        fams.append(iso.prescribe_flux(catenoid, self.TARGET, n_t=16))
        first = fams[0].members[0]
        rims = PolarGrid([first.r_inner, first.r_outer], iso.N_S_DEFAULT)
        for a, b in zip(*(f.members[:-1] for f in fams)):
            fa, fb = a.f(rims), b.f(rims)
            assert np.max(np.abs(fa - fb)) <= 1e-10 * np.max(np.abs(fa))


class TestDriverInput:
    @pytest.mark.parametrize(
        "kw, name",
        [
            ({"n_t": 1}, "n_t"),
            ({"n_t": 0}, "n_t"),
            ({"p": [0.0, 0.0, float("nan")]}, "target"),
            ({"p": [0.0, float("inf"), 1.0]}, "target"),
            ({"p": [0.0, 1.0]}, "target"),
        ],
    )
    def test_bad_input_typed(self, catenoid, kw, name):
        with pytest.raises(ValueError, match=name):
            if "p" in kw:
                iso.prescribe_flux(catenoid, n_t=8, **kw)
            else:
                iso.flux_to_zero(catenoid, **kw)



#: a radius of the admission grid (the default annulus_grid of 1/2 < |z| < 2),
#: whose point at angle 0 is a grid point
GRID_X = _open_radii(0.5, 2.0, 64)[40]


@pytest.fixture(scope="module")
def grid_zero_member():
    """A member whose spinor block a = z - x vanishes at the grid point x,
    where b = i/z - (i x^2 / 2) z is -0.82i: a and b have no common zero,
    so it immerses, and its exact period (0, 4.18i, 2i) has no real part."""
    x = GRID_X
    a = wz.LaurentSeries([-x, 1.0], 0)
    b = wz.LaurentSeries([1j, 0.0, -0.5j * x**2], -1)
    return iso._spinor_member(rm.LaurentMap(a, b), "dz", 0.5, 2.0)[0]


class TestAdmission:
    """The drivers admit an input as verify reads a member: on PolarGrids,
    a spinor member from its blocks, never through g = b/a."""

    def test_block_zero_on_grid_admitted(self, grid_zero_member):
        m = grid_zero_member
        assert m.spinor.a(np.array([GRID_X]))[0] == 0
        u = wz.MinimalImmersion(m)
        assert np.allclose(u.flux, [0.0, 4.18272189, 2.0], atol=1e-8)

    @pytest.mark.parametrize("driver", ["prescribe_flux", "flux_to_zero"])
    def test_block_zero_on_grid_families_verify(self, grid_zero_member,
                                                driver):
        if driver == "prescribe_flux":
            target = np.array([0.0, 4.0, 2.0])
            fam = iso.prescribe_flux(grid_zero_member, target, n_t=16)
        else:
            target = np.zeros(3)
            fam = iso.flux_to_zero(grid_zero_member, n_t=16)
        rep = iso.verify(fam, target_flux=target)
        assert rep.passes == dict.fromkeys(rep.passes, True)

    @pytest.mark.parametrize("pole, reader", [
        (GRID_X, "MinimalImmersion"), (GRID_X, "verify"),
        (1.0, "MinimalImmersion"), (1.0, "verify"),
        (2.0, "integrate_immersion"),
    ])
    def test_quotient_pole_not_finite(self, pole, reader):
        # a Gauss map without a spinor, with a pole at a point of the
        # admission grid, of the homology circle or of the outer rim: a
        # typed error, with no divide-by-zero warning
        g = wz.LaurentQuotient(wz.LaurentSeries([1.0, 0.0, 0.5], -1),
                               wz.LaurentSeries([-pole, 1.0], 0))
        data = wz.WeierstrassData(g, 1.0, theta="dz")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValues, match="not finite"):
                if reader == "MinimalImmersion":
                    wz.MinimalImmersion(data)
                elif reader == "verify":
                    iso.verify(iso.ImmersionFamily(
                        ts=np.zeros(1), members=[data],
                        periods=np.zeros((1, 3), complex),
                    ))
                else:
                    wz.integrate_immersion(data, 1.0, np.zeros(3), 1.5)

class TestVerify:
    def test_residuals_within_thresholds(self, fam_zero):
        rep = iso.verify(fam_zero)
        assert rep.ok
        assert rep.max_conformality <= 1e-9
        assert rep.max_real_period <= 1e-9
        assert rep.min_density > 0.0
        assert not any(rep.flat_flags)
        assert set(rep.pi1_classes) == {1}

    def test_constant_family_matches_catalog_flux(self, catenoid):
        fam = iso.prescribe_flux(catenoid, catenoid.flux)
        rep = iso.verify(fam)
        assert np.max(np.abs(rep.flux_table - catenoid.flux)) <= 1e-10

    def test_monotone_under_refinement(self, fam_zero):
        r1 = iso.verify(fam_zero, resolution=1)
        r2 = iso.verify(fam_zero, resolution=2)
        floor = 1e-15
        assert r2.max_conformality <= 10 * max(r1.max_conformality, floor)
        assert r2.max_real_period <= 10 * max(r1.max_real_period, floor)

    def test_empty_family_raises(self):
        fam = iso.ImmersionFamily(
            ts=np.array([]), members=[], periods=np.zeros((0, 3)),
        )
        with pytest.raises(ValueError, match="empty family"):
            iso.verify(fam)

    def test_family_of_members_alone_verifies(self, fam_zero):
        # the family derives its generator circle from its members' annulus
        fam = iso.ImmersionFamily(
            ts=fam_zero.ts, members=fam_zero.members, periods=fam_zero.periods,
        )
        rep = iso.verify(fam, target_flux=np.zeros(3))
        assert rep.ok
        again = iso.verify(fam_zero, target_flux=np.zeros(3))
        assert rep.flux_table.tobytes() == again.flux_table.tobytes()
        assert rep.continuity == again.continuity

    def test_members_on_two_annuli_rejected(self, fam_zero):
        last = fam_zero.members[-1]
        wide = wz.WeierstrassData(last.g, last.f3, theta=last.theta,
                                  r_inner=0.4, r_outer=2.5)
        with pytest.raises(ValueError,
                           match=r"two annuli, \(0\.5, 2\.0\) and "
                                 r"\(0\.4, 2\.5\)"):
            iso.ImmersionFamily(
                ts=fam_zero.ts, members=[*fam_zero.members[:-1], wide],
                periods=fam_zero.periods,
            )

    @pytest.mark.parametrize("n_ts, n_members, periods_shape", [
        (4, 3, (3, 3)), (2, 4, (4, 3)), (4, 4, (2, 3)), (3, 3, (3,)),
        (3, 3, (3, 2)),
    ])
    def test_mismatched_lengths_rejected(self, n_ts, n_members,
                                         periods_shape):
        # verify would zip the shorter list and write_trace_csv index past
        # the periods
        cat = wz.catalog("catenoid")
        want = (f"{n_ts} ts and {n_members} members, and periods of shape "
                f"{periods_shape}")
        with pytest.raises(ValueError, match=re.escape(want)):
            iso.ImmersionFamily(
                ts=np.linspace(0.0, 1.0, n_ts), members=[cat] * n_members,
                periods=np.zeros(periods_shape, complex),
            )

    def test_generator_derived_from_annulus(self, fam_zero):
        names = [f.name for f in dataclasses.fields(iso.ImmersionFamily)]
        assert names == ["ts", "members", "periods", "notice", "meta"]
        assert fam_zero.chart.radius == wz.homology_radius(fam_zero.members[0])
        assert fam_zero.basepoint == complex(fam_zero.chart.radius)

    def test_spin_class_gated(self, fam_zero):
        class OffQuadric(wz.WeierstrassData):
            def f(self, z):
                return super().f(z) + np.array([0.05, 0.0, 0.0])

        z = wz.LaurentSeries([1.0], 1)
        # g = z, f3 = z, theta = dz/z is a valid member whose boundary loop
        # has class 0, against the catenoid's 1; off the quadric, the class
        # is undefined
        for member, cls in ((wz.WeierstrassData(z, z, theta="dz/z"), 0),
                            (OffQuadric(z, 1.0, theta="dz/z"), None)):
            bad = copy.copy(fam_zero)
            bad.members = list(fam_zero.members)
            bad.members[10] = member
            rep = iso.verify(bad)
            assert rep.pi1_classes[10] == cls
            assert not rep.passes["spin_class"]

    def test_continuity_gated(self, fam_zero):
        rep = iso.verify(fam_zero)
        assert rep.continuity <= rep.thresholds["continuity"]
        # a scaled copy is still a conformal minimal immersion with zero
        # periods, but the family jumps to it at the last step
        last = fam_zero.members[-1]
        bad = copy.copy(fam_zero)
        bad.members = list(fam_zero.members)
        bad.members[-1] = wz.WeierstrassData(
            last.g, last.f3 * wz.LaurentSeries([3.0], 0), theta=last.theta,
            r_inner=last.r_inner, r_outer=last.r_outer,
        )
        rep = iso.verify(bad)
        assert rep.continuity > rep.thresholds["continuity"]
        assert not rep.passes["continuity"]
        assert rep.passes["conformality"] and rep.passes["real_period"]

    def test_nonflat_gated(self, fam_zero):
        bad = copy.copy(fam_zero)
        bad.members = list(fam_zero.members)
        bad.members[10] = wz.catalog("vertical_plane")
        rep = iso.verify(bad)
        assert rep.flat_flags[10]
        assert not rep.passes["nonflat"]

    def test_fault_injection_flagged(self, fam_zero):
        class Corrupt:
            def __init__(self, d):
                self._d = d

            def __getattr__(self, k):
                return getattr(self._d, k)

            def f(self, z):
                v = np.array(self._d.f(z))
                v[..., 0] += 0.05
                return v

        bad = copy.copy(fam_zero)
        bad.members = list(fam_zero.members)
        bad.members[10] = Corrupt(fam_zero.members[10])
        rep = iso.verify(bad)
        assert not rep.ok
        assert not rep.passes["conformality"]

    @pytest.mark.parametrize("resolution", [0, -1, 1.5, float("nan")])
    def test_bad_resolution_typed(self, fam_zero, resolution):
        with pytest.raises(ValueError, match=f"resolution .* {resolution!r}"):
            iso.verify(fam_zero, resolution=resolution)

    @staticmethod
    def with_value_at_grid_point(fam, k, name, value):
        """fam with member k's g or f3 set to value at one point of the
        verification grid (64 x 256 points) only."""
        m = fam.members[k]
        fun = getattr(m, name)

        def bad(z):
            v = fun(z)
            if v.size == 64 * 256:
                v[1000] = value
            return v

        parts = {"g": m.g, "f3": m.f3, name: bad}
        out = copy.copy(fam)
        out.members = list(fam.members)
        out.members[k] = wz.WeierstrassData(
            parts["g"], parts["f3"], theta=m.theta, r_inner=m.r_inner,
            r_outer=m.r_outer,
        )
        return out

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_member_named(self, fam_zero, value):
        # the density is read from g and f3 on the grid; an inf density
        # must not slip past its min()
        t = float(fam_zero.ts[7])
        for name in ("g", "f3"):
            bad = self.with_value_at_grid_point(fam_zero, 7, name, value)
            with pytest.raises(NonFiniteValues,
                               match=f"t = {t:g} is not finite"):
                iso.verify(bad)

    def test_vanishing_gauss_map_raises(self, fam_zero):
        bad = self.with_value_at_grid_point(fam_zero, 7, "g", 0.0)
        with pytest.raises(GaussMapVanishes):
            iso.verify(bad)


class TestContinuityOnBoundaryCircles:
    @pytest.fixture(scope="class")
    def fam16(self, catenoid):
        return iso.flux_to_zero(catenoid, n_t=16)

    @staticmethod
    def on_grid(fam, radii, n_th):
        """Member values on PolarGrid(radii(member), n_th)."""
        return [m.f(PolarGrid(radii(m), n_th)) for m in fam.members]

    @staticmethod
    def steps(fvs):
        return np.array([np.max(np.abs(b - a)) / np.max(np.abs(a))
                         for a, b in zip(fvs, fvs[1:])])

    def test_equals_dense_grid_maximum(self, fam16):
        dense = self.on_grid(
            fam16, lambda m: np.linspace(m.r_inner, m.r_outer, 128), 1024
        )
        want = self.steps(dense).max() * (len(fam16) - 1)
        assert iso.verify(fam16).continuity == pytest.approx(want, rel=1e-6)

    def test_sups_at_least_interior_grid(self, fam16):
        # maximum modulus: each member's sup and each step's sup on the
        # boundary circles bound those on the old interior grid (64 x 256).
        # Their ratio need not: it falls here, from 1.7838 to 1.7352.
        rims = self.on_grid(fam16, lambda m: [m.r_inner, m.r_outer], 1024)
        inner = self.on_grid(
            fam16, lambda m: _open_radii(m.r_inner, m.r_outer, 64), 256
        )
        for a, b, c, d in zip(rims, rims[1:], inner, inner[1:]):
            assert np.max(np.abs(a)) >= np.max(np.abs(c))
            assert np.max(np.abs(b - a)) >= np.max(np.abs(d - c))
        rep = iso.verify(fam16)
        assert rep.continuity == pytest.approx(
            self.steps(rims).max() * (len(fam16) - 1), rel=1e-15
        )


class TestFlatGaussMap:
    """The catalog catenoid with g flattened to the constant C, stored as a
    LaurentSeries and as the LaurentQuotient (C a) / a."""

    C = 0.6 + 0.3j
    A = wz.LaurentSeries([0.1, 1.0, 0.1], -1)

    @pytest.fixture(params=["series", "quotient"])
    def flat_g(self, request):
        if request.param == "series":
            return wz.LaurentSeries([self.C])
        return wz.LaurentQuotient(self.A * self.C, self.A)

    def test_family_fails_nonflat(self, fam_zero, flat_g):
        bad = copy.copy(fam_zero)
        bad.members = list(fam_zero.members)
        bad.members[10] = dataclasses.replace(fam_zero.members[0], g=flat_g)
        rep = iso.verify(bad)
        assert rep.flat_flags == [k == 10 for k in range(len(bad))]
        assert not rep.passes["nonflat"]

    def test_drivers_reject(self, flat_g):
        # with theta = dz/z a constant g leaves the real period
        # -2 pi Im null_triple(C, 1) (RealPeriodNonzero first); with
        # theta = dz the data are an immersion with zero flux
        flat = dataclasses.replace(wz.catalog("catenoid"), g=flat_g,
                                   theta="dz")
        with pytest.raises(FlatInput):
            iso.prescribe_flux(flat, np.array([0.0, 0.0, 1.0]))

    def test_complete_step_rejects(self, flat_g):
        flat = dataclasses.replace(wz.catalog("catenoid"), g=flat_g)
        with pytest.raises(FlatInput):
            lb.complete_step(flat, core=(0.8, 1.3), delta=0.5)


class TestBesselOracle:
    """A closed-form flux isotopy of the catenoid (ROADMAP F5).

    g = z e^(kappa (z + 1/z)) and f3 = e^(kappa (z - 1/z)) with
    theta = dz/z have no zeros, vanishing real period and the flux
    (0, 0, 2 pi J0(2 kappa)), by the Bessel generating functions (DLMF
    10.12.1, 10.35.1).  kappa = 0 is the catalog catenoid, and the flux
    vanishes at KAPPA_STAR.  The oracle needs none of the code it checks.
    """

    #: first zero of J0, halved
    KAPPA_STAR = special.jn_zeros(0, 1)[0] / 2.0

    @staticmethod
    def member(kappa, degree=40):
        """The data, with the coefficients I_n(2 kappa) of g / z and
        J_n(2 kappa) of f3 for |n| <= degree."""
        n = np.arange(-degree, degree + 1)
        g = wz.LaurentSeries(special.iv(n, 2.0 * kappa), 1 - degree)
        f3 = wz.LaurentSeries(special.jv(n, 2.0 * kappa), -degree)
        return wz.WeierstrassData(g, f3, theta="dz/z")

    @staticmethod
    def oracle_flux(kappa):
        return np.array([0.0, 0.0, 2.0 * np.pi * special.j0(2.0 * kappa)])

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, KAPPA_STAR])
    def test_flux_is_bessel(self, kappa):
        data = self.member(kappa)
        got = wz.flux(data, wz.homology_radius(data))
        assert np.max(np.abs(got - self.oracle_flux(kappa))) <= 1e-12

    def test_smoothstep_family_verifies(self):
        # the flux schedule 2 pi (1 - s(t)) with s = 3t^2 - 2t^3: kappa(t)
        # solves J0(2 kappa) = 1 - s(t), so kappa grows like t at t = 0
        ts = np.linspace(0.0, 1.0, 64)
        sched = 3.0 * ts**2 - 2.0 * ts**3
        kappas = [0.0, *(
            optimize.brentq(lambda k: special.j0(2.0 * k) - (1.0 - s), 0.0,
                            self.KAPPA_STAR, xtol=1e-15)
            for s in sched[1:-1]
        ), self.KAPPA_STAR]
        members = [self.member(k) for k in kappas]
        oracle = np.array([self.oracle_flux(k) for k in kappas])
        fam = iso.ImmersionFamily(ts=ts, members=members, periods=1j * oracle)
        rep = iso.verify(fam, target_flux=np.zeros(3))
        assert rep.passes == dict.fromkeys(rep.passes, True)
        assert "flux_target" in rep.passes
        assert np.max(np.abs(rep.flux_table - oracle)) <= 1e-12
