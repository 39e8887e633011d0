"""The trajectory cross-checks: the three-leg harness and the suites that run it."""

import dataclasses
import math

import numpy as np
import pytest

from riemdyn import dynamics_hamilton as dh
from riemdyn import dynamics_lagrange as dl
from riemdyn import dynamics_newton as dn
from riemdyn import manifold, normal_shift, verification
from riemdyn.extended_fields import TangentPoint

# Each chart's domain cut down around the suites' start state, with its sample box left alone.
_NARROW_DOMAINS = {
    "polar2d": lambda x: 0.0 < x[0] < 1.52,
    "sphere2d": lambda x: 0.9 < x[0] < 1.05,
}


@pytest.mark.parametrize("chart_name", sorted(_NARROW_DOMAINS))
def test_a_suite_fails_on_runs_that_leave_the_chart_early(monkeypatch, chart_name):
    """Every leg leaves the narrowed chart at t ~ 0.1 of 1; every check, EL ones included, reads inf."""
    builtin_chart = manifold.builtin_chart

    def narrowed(name, **params):
        chart = builtin_chart(name, **params)
        return dataclasses.replace(chart, domain_fn=_NARROW_DOMAINS[name])

    monkeypatch.setattr(manifold, "builtin_chart", narrowed)
    report = verification.run_suite("threeway", chart_name)
    assert not report["passed"]
    assert report["checks"]
    assert all(check["value"] == math.inf for check in report["checks"])


def test_all_suites_integrate_each_scenario_once(monkeypatch):
    """threeway's one three_legs pass is the only classical leg that run_suite("all") integrates."""
    families = []
    integrate = dl.integrate_lagrangian

    def counting(chart, lag, *args, **kwargs):
        families.append(lag.family)
        return integrate(chart, lag, *args, **kwargs)

    monkeypatch.setattr(dl, "integrate_lagrangian", counting)
    monkeypatch.setattr(verification, "_EL_PAIRS", (("kinetic-potential", "euclidean2"),))
    assert verification.run_suite("all", "euclidean2")["passed"]
    assert families == ["kinetic-potential"]


def test_theorem81_fails_when_the_conformal_flow_stops_early(monkeypatch):
    check = normal_shift.conformal_geodesic_check

    def stopped(*args):
        return dataclasses.replace(check(*args), force_status="left_chart")

    assert verification.run_suite("theorem81", "euclidean2")["passed"]
    monkeypatch.setattr(normal_shift, "conformal_geodesic_check", stopped)
    report = verification.run_suite("theorem81", "euclidean2")
    flow = [c for c in report["checks"] if c["name"].startswith("conformal_flow")]
    assert len(flow) == 2 and all(c["value"] == math.inf for c in flow)
    assert not report["passed"]


def _faulty_christoffel(chart):
    """chart with its Christoffel hook's Gamma^0_11 scaled by 1 + 1e-6."""
    hook = chart.christoffel_fn

    def christoffel(x):
        gamma = hook(x)
        gamma[0, 1, 1] *= 1.0 + 1e-6
        return gamma

    return dataclasses.replace(chart, christoffel_fn=christoffel)


@pytest.mark.parametrize(
    "family,chart_name",
    [pair for pair in verification._EL_PAIRS if pair[1] != "euclidean2"],
)
def test_a_planted_christoffel_fault_separates_the_newtonian_leg(family, chart_name):
    """Only the Newtonian leg reads Gamma, so only its gaps see the fault."""
    chart = _faulty_christoffel(manifold.builtin_chart(chart_name))
    q0 = TangentPoint(*verification._STARTS[chart_name])
    config = dn.IntegratorConfig(method="rk4", dt=1e-3, t_span=(0.0, 1.0), record_every=10)
    legs = verification.three_legs(chart, verification._system(family), q0, config)
    assert [leg.trajectory.status for leg in legs.values()] == ["completed"] * 3
    gaps = verification.leg_gaps(legs)
    assert gaps["newton_vs_lagrange"] >= 1e-8
    assert gaps["newton_vs_hamilton"] >= 1e-8
    assert gaps["lagrange_vs_hamilton"] <= 1e-13


def _scaled_term(hook, index):
    """hook with the index-th array of the tuple it returns scaled by 1 + 1e-6."""

    def faulty(chart, point):
        terms = list(hook(chart, point))
        terms[index] = terms[index] * (1.0 + 1e-6)
        return tuple(terms)

    return faulty


_FIBERWISE_PAIRS = [pair for pair in verification._EL_PAIRS if pair[0] == "fiberwise-phi"]


def _fiberwise_gaps(lag, chart_name):
    q0 = TangentPoint(*verification._STARTS[chart_name])
    config = dn.IntegratorConfig(method="rk4", dt=1e-3, t_span=(0.0, 1.0), record_every=10)
    legs = verification.three_legs(manifold.builtin_chart(chart_name), lag, q0, config)
    assert [leg.trajectory.status for leg in legs.values()] == ["completed"] * 3
    return verification.leg_gaps(legs)


@pytest.mark.parametrize("index", [0, 1], ids=["dx", "dp"])
@pytest.mark.parametrize("family,chart_name", _FIBERWISE_PAIRS)
def test_a_planted_h_jet_fault_separates_the_hamiltonian_leg(
    monkeypatch, family, chart_name, index
):
    """Only the canonical leg reads the jet of H, so only its gaps see the fault."""
    build = dh._fiberwise_h_field

    def faulty(lag):
        field = build(lag)
        return dataclasses.replace(field, jet_fn=_scaled_term(field.jet_fn, index))

    monkeypatch.setattr(dh, "_fiberwise_h_field", faulty)
    gaps = _fiberwise_gaps(verification._system(family), chart_name)
    assert gaps["newton_vs_hamilton"] >= 1e-8
    assert gaps["lagrange_vs_hamilton"] >= 1e-8
    assert gaps["newton_vs_lagrange"] <= 1e-13


@pytest.mark.parametrize("index", [0, 2, 3], ids=["dldx", "M", "A"])
@pytest.mark.parametrize("family,chart_name", _FIBERWISE_PAIRS)
def test_a_planted_el_terms_fault_separates_the_lagrangian_leg(family, chart_name, index):
    """Only the classical leg reads el_terms_fn, so only its gaps see the fault."""
    lag = verification._system(family)
    lag = dataclasses.replace(lag, el_terms_fn=_scaled_term(lag.el_terms_fn, index))
    gaps = _fiberwise_gaps(lag, chart_name)
    assert gaps["newton_vs_lagrange"] >= 1e-8
    assert gaps["lagrange_vs_hamilton"] >= 1e-8
    assert gaps["newton_vs_hamilton"] <= 1e-13


def test_three_legs_refuses_a_family_without_a_newtonian_force():
    chart = manifold.builtin_chart("euclidean2")
    lag = dataclasses.replace(dl.kinetic_lagrangian(), family="bespoke")
    q0 = TangentPoint(*verification._STARTS["euclidean2"])
    config = dn.IntegratorConfig(method="rk4", dt=1e-2, t_span=(0.0, 0.1))
    with pytest.raises(ValueError, match="bespoke"):
        verification.three_legs(chart, lag, q0, config)

