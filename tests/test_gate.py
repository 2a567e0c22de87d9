import dataclasses
import math

import numpy as np
import pytest

from oracles import central_difference, reference_gate
from spherefit import (
    EllipseObservation,
    GateReport,
    InvalidCovariance,
    SceneConfig,
    Sphere,
    classify_spherical,
    classify_view,
    default_ellipse_cov,
    generate_scene,
    perturb_observations,
    project_sphere,
    tau,
    tau_jacobian,
)
from spherefit.gate import _tau_and_gradient
from spherefit.projection import PIXEL_LIMIT

F, PX, PY = 1000.0, 500.0, 500.0


def ellipse(a, b, x, y, cov=None):
    return EllipseObservation("", "e", x, y, a, b, 0.0, cov=cov)


def view_arrays(ellipses):
    """The (params, cov, has_cov) arrays ``classify_view`` takes, in input
    order, as ``EllipseTable.of`` gathers them."""
    params = np.array([(e.x_ce, e.y_ce, e.a_e, e.b_e) for e in ellipses]).reshape(-1, 4)
    cov = np.array([np.zeros((4, 4)) if e.cov is None else e.cov for e in ellipses])
    has_cov = np.array([e.cov is not None for e in ellipses], dtype=bool)
    return params, cov.reshape(-1, 4, 4), has_cov


def gate_reports(ellipses, f, px, py, k=2.0, **kwargs):
    """``classify_view`` of ``ellipses`` as one ``GateReport`` per row."""
    rows = zip(*classify_view(*view_arrays(ellipses), f, px, py, k=k, **kwargs))
    return [GateReport(float(t), float(s), float(k), bool(a)) for t, s, a in rows]


def tau_of_params(params):
    a, b, x, y, px, py, f = params
    return tau(ellipse(a, b, x, y), f, px, py)


def random_configuration(rng):
    b = rng.uniform(50.0, 300.0)
    a = b * rng.uniform(1.001, 3.0)
    f = rng.uniform(800.0, 4000.0)
    px, py = rng.uniform(400.0, 2000.0, 2)
    x = px + rng.uniform(-0.8, 0.8) * f
    y = py + rng.uniform(-0.8, 0.8) * f
    return np.array([a, b, x, y, px, py, f])


class TestTau:
    def test_zero_for_true_silhouettes(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            z = rng.uniform(3.0, 40.0)
            x, y = rng.uniform(-0.6, 0.6, 2) * z
            r = rng.uniform(0.1, z / 3.5)
            f = rng.uniform(500.0, 4000.0)
            e = project_sphere(Sphere([x, y, z], r, frame="camera"), f, PX, PY)
            assert abs(tau(e, f, PX, PY)) < 1e-12

    def test_zero_for_circle_at_principal_point(self):
        assert tau(ellipse(100.0, 100.0, PX, PY), F, PX, PY) == 0.0

    def test_major_axis_inflation_shifts_tau(self):
        e = project_sphere(Sphere([1, 0, 10], 1.0, frame="camera"), F, PX, PY)
        inflated = ellipse(e.a_e * 1.01, e.b_e, e.x_ce, e.y_ce)
        assert math.isclose(tau(inflated, F, PX, PY), 1.0 - 1.0 / 1.01, rel_tol=1e-9)


class TestTauJacobian:
    def test_major_axis_component_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b, x, y, px, py, f = random_configuration(rng)
            e = ellipse(a, b, x, y)
            jac = tau_jacobian(e, f, px, py)
            t = tau(e, f, px, py)
            assert math.isclose(jac[0], (1.0 - t) / a, rel_tol=1e-12)

    def test_offset_components_vanish_at_principal_point(self):
        jac = tau_jacobian(ellipse(120.0, 100.0, PX, PY), F, PX, PY)
        assert jac[2] == jac[3] == jac[4] == jac[5] == 0.0

    def test_documented_configuration_against_finite_differences(self):
        params = np.array([120.0, 100.0, 700.0, 400.0, 500.0, 500.0, 1000.0])
        jac = tau_jacobian(ellipse(*params[:4]), params[6], params[4], params[5])
        fd = central_difference(tau_of_params, params)
        assert np.all(np.abs(jac - fd) <= 1e-6 * np.maximum(np.abs(fd), 1e-12))

    def test_matches_finite_differences_everywhere(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            params = random_configuration(rng)
            jac = tau_jacobian(ellipse(*params[:4]), params[6], params[4], params[5])
            fd = central_difference(tau_of_params, params)
            scale = np.maximum(np.abs(fd), 1e-9)
            assert np.all(np.abs(jac - fd) / scale < 1e-6)


def tau_variance(e, cov, iop_cov):
    """The gate's first-order variance of tau, with ``cov`` on the ellipse."""
    return classify_spherical(dataclasses.replace(e, cov=cov), F, PX, PY,
                              iop_cov=iop_cov).sigma_tau ** 2


class TestTauVariance:
    def test_zero_jacobian_gives_zero_variance(self):
        # At the principal point tau does not depend on the ellipse center
        # or on (px, py); a covariance on those alone gives zero variance.
        e = ellipse(120.0, 100.0, PX, PY)
        assert tau_variance(e, np.diag([0.0, 0.0, 1.0, 1.0]),
                            np.diag([1.0, 1.0, 0.0])) == 0.0

    def test_identity_covariance_gives_squared_norm(self):
        e = ellipse(120.0, 100.0, 700.0, 400.0)
        jac = tau_jacobian(e, F, PX, PY)
        assert math.isclose(tau_variance(e, np.eye(4), np.eye(3)),
                            float(jac @ jac), rel_tol=1e-12)

    def test_matches_monte_carlo_variance(self):
        sig = np.array([0.2, 0.2, 0.1, 0.1])
        params = np.array([120.0, 100.0, 700.0, 400.0])
        e = ellipse(*params)
        var_lin = tau_variance(e, np.diag(sig ** 2), np.zeros((3, 3)))
        rng = np.random.default_rng(8)
        draws = rng.normal(0.0, 1.0, (1_000_000, 4)) * sig
        a = params[0] + draws[:, 0]
        b = params[1] + draws[:, 1]
        x = params[2] + draws[:, 2]
        y = params[3] + draws[:, 3]
        taus = 1.0 - (b / a) * np.sqrt(((x - PX) ** 2 + (y - PY) ** 2)
                                       / (F ** 2 + b ** 2) + 1.0)
        assert abs(var_lin - taus.var()) <= 0.05 * taus.var()

    def test_rejects_indefinite_covariance(self):
        e = ellipse(120.0, 100.0, 700.0, 400.0)
        with pytest.raises(ValueError, match="cov"):  # checked where it is built
            tau_variance(e, np.diag([1.0, 1.0, 1.0, -1.0]), np.zeros((3, 3)))
        with pytest.raises(InvalidCovariance):
            tau_variance(e, np.eye(4), -np.eye(3))

    def test_symmetric_under_axis_exchange(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = 150.0, 110.0
            dx, dy = rng.uniform(-800.0, 800.0, 2)
            cov = np.diag(rng.uniform(0.01, 0.5, 4))
            e1 = ellipse(a, b, PX + dx, PY + dy)
            swapped_cov = cov.copy()
            swapped_cov[[2, 3]] = swapped_cov[[3, 2]]
            swapped_cov[:, [2, 3]] = swapped_cov[:, [3, 2]]
            e2 = ellipse(a, b, PX + dy, PY + dx)
            v1 = tau_variance(e1, cov, np.zeros((3, 3)))
            v2 = tau_variance(e2, swapped_cov, np.zeros((3, 3)))
            assert math.isclose(v1, v2, rel_tol=1e-12)


class TestClassify:
    def test_exact_silhouette_always_accepted(self):
        e = project_sphere(Sphere([2, 1, 15], 0.8, frame="camera"), F, PX, PY)
        for sigma in (0.01, 0.5, 5.0):
            report = classify_spherical(dataclasses.replace(e, cov=default_ellipse_cov(sigma)),
                                        F, PX, PY)
            assert report.accepted
            assert abs(report.tau) < 1e-12

    @pytest.mark.parametrize("sigma", [-0.5, math.nan, math.inf])
    def test_default_cov_rejects_invalid_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            default_ellipse_cov(sigma)

    def test_zero_tolerance_rejects_nonzero_tau(self):
        e = ellipse(200.0, 100.0, PX, PY, cov=np.zeros((4, 4)))  # tau = 0.5, exact
        report = classify_spherical(e, F, PX, PY, iop_cov=np.zeros((3, 3)))
        assert report.sigma_tau == 0.0
        assert not report.accepted

    def test_acceptance_rate_with_truthful_covariance(self):
        rng = np.random.default_rng(7)
        sigma = 0.5
        cov = default_ellipse_cov(sigma)
        accepted = 0
        trials = 10_000
        for _ in range(trials):
            x = rng.uniform(2.0, 5.0) * rng.choice([-1.0, 1.0])
            y = rng.uniform(2.0, 5.0) * rng.choice([-1.0, 1.0])
            z = rng.uniform(8.0, 15.0)
            r = rng.uniform(0.8, 1.5)
            e = project_sphere(Sphere([x, y, z], r, frame="camera"), F, PX, PY)
            da, db, dx, dy = rng.normal(0.0, sigma, 4)
            a, b = e.a_e + da, e.b_e + db
            if b > a:
                a, b = b, a
            noisy = ellipse(a, b, e.x_ce + dx, e.y_ce + dy, cov=cov)
            accepted += classify_spherical(noisy, F, PX, PY, k=2.0).accepted
        assert 0.93 <= accepted / trials <= 0.97

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a, b, x, y, px, py, f = random_configuration(rng)
            e = ellipse(a, b, x, y)
            previous = None
            for k in (0.5, 1.0, 2.0, 4.0):
                accepted = classify_spherical(e, f, px, py, k=k).accepted
                if previous is not None and previous:
                    assert accepted
                previous = accepted

    def test_uses_observation_covariance_when_present(self):
        e = project_sphere(Sphere([1, 1, 12], 0.6, frame="camera"), F, PX, PY)
        wrapped = EllipseObservation(e.image_id, e.ellipse_id, e.x_ce, e.y_ce,
                                     e.a_e, e.b_e, e.theta,
                                     cov=default_ellipse_cov(0.1))
        via_field = classify_spherical(wrapped, F, PX, PY)
        via_default = gate_reports([e], F, PX, PY, default_sigma=0.1)[0]
        assert via_field.sigma_tau == via_default.sigma_tau
        # The observation's covariance wins over the default sigma.
        assert gate_reports([wrapped], F, PX, PY, default_sigma=5.0) == [via_field]

    def test_view_gate_equals_per_ellipse_reference(self):
        config = SceneConfig(n_cameras=6, placement="ring", clutter_per_image=10,
                             clutter_inflation=1.02, seed=2)
        noisy = perturb_observations(generate_scene(config), 0.5, 2)
        iop_cov = np.diag([0.5, 0.5, 2.0])
        fallback = default_ellipse_cov(0.7)
        accepted = 0
        for view in noisy.views:
            # Half the rows keep their own covariance, half take the fallback.
            observed = [e if i % 2 else dataclasses.replace(e, cov=None)
                        for i, e in enumerate(noisy.observations[view.image_id])]
            covs = [e.cov if i % 2 else fallback for i, e in enumerate(observed)]
            for iop in (np.zeros((3, 3)), iop_cov):
                reports = gate_reports(observed, view.f, view.px, view.py,
                                       iop_cov=iop, k=2.0, default_sigma=0.7)
                for e, cov, report in zip(observed, covs, reports):
                    t, sigma_tau, ok = reference_gate(e, view.f, view.px, view.py, cov, iop, 2.0)
                    assert report.accepted == ok
                    assert math.isclose(report.tau, t, rel_tol=1e-12, abs_tol=1e-300)
                    assert math.isclose(report.sigma_tau, sigma_tau, rel_tol=1e-12)
                    accepted += ok
        assert 0 < accepted < 2 * 6 * 19

    def test_view_gate_defaults_and_order(self):
        e = project_sphere(Sphere([1, 1, 12], 0.6, frame="camera"), F, PX, PY)
        own = EllipseObservation("", "own", e.x_ce, e.y_ce, e.a_e * 1.001, e.b_e,
                                 e.theta, cov=default_ellipse_cov(0.1))
        bare = ellipse(120.0, 100.0, 700.0, 400.0)
        reports = gate_reports([own, bare], F, PX, PY)
        assert reports == [classify_spherical(own, F, PX, PY),
                           classify_spherical(bare, F, PX, PY)]
        tau_, sigma_tau, accepted = classify_view(*view_arrays([]), F, PX, PY)
        assert tau_.shape == sigma_tau.shape == accepted.shape == (0,)
        assert accepted.dtype == bool

    def test_view_gate_checks_every_covariance(self):
        # Ellipse covariances are checked when the observation is built
        # (test_projection); the gate checks the raw IOP covariance and the
        # default sigma, the latter even with no ellipses.
        good = ellipse(120.0, 100.0, 700.0, 400.0)
        with pytest.raises(InvalidCovariance):
            classify_view(*view_arrays([good]), F, PX, PY, iop_cov=-np.eye(3))
        with pytest.raises(InvalidCovariance):
            classify_view(*view_arrays([good]), F, PX, PY, iop_cov=np.eye(2))
        with pytest.raises(ValueError, match="sigma"):
            classify_view(*view_arrays([]), F, PX, PY, default_sigma=math.nan)

    def test_view_gate_takes_interior_orientation_per_row(self):
        # f, px, py and iop_cov may be given one per row; each row then gates
        # as it does alone.  Every distinct covariance is checked, so one
        # indefinite matrix among PSD ones raises.
        rows = [ellipse(120.0, 100.0, 700.0, 400.0), ellipse(90.0, 80.0, 300.0, 650.0),
                ellipse(60.0, 59.0, 510.0, 480.0)]
        f, px, py = np.array([F, 1.2 * F, 0.9 * F]), np.array([PX, 480.0, 520.0]), np.full(3, PY)
        iop = np.array([np.eye(3), np.zeros((3, 3)), np.diag([4.0, 1.0, 9.0])])
        got = classify_view(*view_arrays(rows), f, px, py, iop_cov=iop)
        want = [classify_view(*view_arrays([e]), *view, iop_cov=m)
                for e, *view, m in zip(rows, f, px, py, iop)]
        assert [a.tobytes() for a in got] == [np.concatenate(a).tobytes() for a in zip(*want)]
        iop[1] = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(InvalidCovariance, match="PSD"):
            classify_view(*view_arrays(rows), f, px, py, iop_cov=iop)
        with pytest.raises(InvalidCovariance, match="3x3"):
            classify_view(*view_arrays(rows[:2]), f[:2], px[:2], py[:2], iop_cov=iop)

    @pytest.mark.parametrize("covs", ["every", "none", "some"])
    def test_exact_interior_orientation_equals_the_seven_column_path(self, covs):
        # Without iop_cov the gate needs only the ellipse block of the
        # gradient; it gives the bits of the full 7-component gradient's
        # first four columns, with the fallback covariance where a row has
        # none, on rows that take f, px and py per row or as scalars.
        config = SceneConfig(n_cameras=4, clutter_per_image=5, clutter_inflation=1.02, seed=3)
        noisy = perturb_observations(generate_scene(config), 0.5, 3)
        ellipses = [e if covs == "every" or (covs == "some" and i % 2)
                    else dataclasses.replace(e, cov=None) for view in noisy.views
                    for i, e in enumerate(noisy.observations[view.image_id])]
        params, cov, has_cov = view_arrays(ellipses)
        n = len(ellipses)
        assert has_cov.sum() == {"every": n, "none": 0, "some": n // 2}[covs]
        per_row = np.array([(v.f, v.px, v.py) for v in noisy.views
                            for _ in noisy.observations[v.image_id]]).T
        x, y, a, b = params.T
        for f, px, py in (per_row, (F, PX, PY)):
            got = classify_view(params, cov, has_cov, f, px, py, default_sigma=0.7)
            t, jacobians = _tau_and_gradient(a, b, x, y, f, px, py)
            j_e = jacobians[:, :4]
            covs_used = np.where(has_cov[:, None, None], cov, default_ellipse_cov(0.7))
            sigma_tau = np.sqrt(np.maximum(np.einsum("ni,nij,nj->n", j_e, covs_used, j_e), 0.0))
            want = (t, sigma_tau, np.abs(t) <= 2.0 * sigma_tau)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_answers_stay_finite_up_to_the_pixel_limit(self):
        # An ellipse centered at 1e308 px overflowed the gate (inf tau, nan
        # sigma), and one with a semi-minor length of 1e-300 px divided by
        # zero; such rows are now rejected, and the extreme valid ones gate
        # without a warning, an error under the suite's filter.
        with pytest.raises(ValueError, match=r"2\^200 px"):
            ellipse(120.0, 100.0, 1e308, 400.0)
        with pytest.raises(ValueError, match=r"2\^-200 px"):
            ellipse(1e-300, 1e-300, 400.0, 400.0)
        for a, b, x, y in [(120.0, 100.0, PIXEL_LIMIT, 400.0),
                           (PIXEL_LIMIT, 100.0, 700.0, -PIXEL_LIMIT),
                           (PIXEL_LIMIT, 1e-6, PIXEL_LIMIT, PIXEL_LIMIT),
                           (PIXEL_LIMIT, PIXEL_LIMIT, -PIXEL_LIMIT, PIXEL_LIMIT),
                           (1.0 / PIXEL_LIMIT, 1.0 / PIXEL_LIMIT, 0.0, 0.0),
                           (1.0, 1.0 / PIXEL_LIMIT, PIXEL_LIMIT, -PIXEL_LIMIT)]:
            e = ellipse(a, b, x, y, cov=default_ellipse_cov(0.5))
            for iop_cov in (None, np.eye(3)):
                report = classify_spherical(e, F, PX, PY, iop_cov=iop_cov)
                assert math.isfinite(report.tau) and math.isfinite(report.sigma_tau)

    def test_very_elongated_ellipse_has_finite_sigma(self):
        # b_e / a_e = 1e-17 made m = 1 - tau cancel to 0, and sigma_tau
        # divided by it ("divide by zero", an error under the suite's filter).
        e = EllipseObservation("", "e", 600.0, 500.0, 100.0, 1e-15, 0.0)
        report = classify_spherical(e, F, PX, PY)
        t, sigma_tau, _ = reference_gate(e, F, PX, PY, default_ellipse_cov(), np.zeros((3, 3)),
                                         2.0)
        assert report.tau == t == 1.0 and not report.accepted
        assert math.isclose(report.sigma_tau, sigma_tau, rel_tol=1e-12)

    def test_rejects_nonpositive_threshold(self):
        e = ellipse(120.0, 100.0, 700.0, 400.0)
        with pytest.raises(ValueError, match="multiplier"):
            classify_spherical(e, F, PX, PY, k=0.0)
        with pytest.raises(ValueError, match="multiplier"):  # would accept everything
            classify_spherical(e, F, PX, PY, k=math.inf)
