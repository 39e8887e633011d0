"""Acceptance gate: one test per shipped guarantee, one printed line each.

Every test runs a named verification suite end to end and asserts that
all of its checks pass at their stated tolerances.  Criteria 02, 03 and
06 read their groups of checks from one shared run of the threeway
suite, which integrates each scenario once; its elapsed time is that
run's.  The summary lines are printed with capture suspended so they
stay visible in plain pytest runs.
"""

import pytest

from riemdyn import dynamics_lagrange, verification


@pytest.fixture
def announce(capsys):
    def _print(line):
        with capsys.disabled():
            print(line, flush=True)

    return _print


@pytest.fixture(scope="module")
def threeway():
    """One timed threeway report; the force extracted from a Lagrangian raises, so no leg may use it."""

    def refuse(*args):
        raise AssertionError("the force extracted from the Lagrangian was called")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics_lagrange, "force_from_lagrangian", refuse)
        return verification.elapsed_run("threeway")


def _grade(number, suite, checks, elapsed, announce, budget=None):
    good = sum(1 for c in checks if c["pass"])
    ratios = [
        abs(c["value"] - (c.get("target") or 0.0)) / c["tolerance"]
        for c in checks
        if c["tolerance"] > 0
    ]
    passed = good == len(checks)
    announce(
        f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'} suite={suite}"
        f" checks={good}/{len(checks)} worst/tol={max(ratios):.1e}"
        f" elapsed={elapsed:.1f}s"
    )
    assert passed, f"suite {suite}: {len(checks) - good} checks failed"
    if budget is not None:
        assert elapsed < budget, f"suite {suite} took {elapsed:.1f}s, budget {budget}s"


def _run(number, suite, announce, budget=None):
    report, elapsed = verification.elapsed_run(suite)
    _grade(number, suite, report["checks"], elapsed, announce, budget)
    return report


def _threeway_group(number, threeway, prefixes, size, announce, budget=None):
    """Grade the checks of the shared threeway report whose names start with one of prefixes."""
    report, elapsed = threeway
    checks = [c for c in report["checks"] if c["name"].startswith(prefixes)]
    assert len(checks) == size
    _grade(number, "threeway", checks, elapsed, announce, budget)


def test_criterion_01_structural_identities(announce):
    """Duality, chain-rule, and energy identities across the Lagrangian
    catalog on flat, polar, and spherical charts; residuals below 1e-6
    at 50 seeded regular states per system and chart, within 10 s."""
    _run(1, "identities", announce, budget=10.0)


def test_criterion_02_euler_lagrange_equivalence(announce, threeway):
    """Covariant and classical Euler-Lagrange residuals both vanish to
    1e-5 along the classical leg of every threeway scenario over a unit
    of time, within 30 s for the shared threeway run."""
    _threeway_group(2, threeway, ("el_",), 16, announce, budget=30.0)


def test_criterion_03_three_formulations_agree(announce, threeway):
    """Newtonian, Lagrangian, and Hamiltonian integrations from matched
    initial data stay pairwise within 1e-5 over a unit of time, on the
    eight (family, chart) scenarios of threeway. The Newtonian leg
    integrates each family's own force (geodesic, potential, conformal,
    spherical), never the force extracted from the Lagrangian, and a leg
    that stops early fails its checks."""
    _threeway_group(3, threeway, ("newton_vs_", "lagrange_vs_"), 24, announce)


def test_criterion_04_conformal_flow_is_a_normal_shift(announce):
    """The shift force with profile |v| e^(-f) equals the conformal
    force to 1e-10, and its flow traces geodesics of the rescaled
    metric to 1e-6 (flat chart) and 1e-5 (sphere)."""
    _run(4, "theorem81", announce)


def test_criterion_05_projectors_and_closed_form_inverse(announce):
    """Q/P projector algebra to 1e-12, the closed-form B inverting the
    fiber Hessian to 1e-10, and the closed-form Hessian matching finite
    differences to 1e-6."""
    _run(5, "projectors", announce)


def test_criterion_06_conserved_quantities(announce, threeway):
    """Energy drift below 1e-6 per unit time on the threeway scenarios on
    all three legs: energy_h on the Newtonian and classical Lagrangian
    legs, H on the canonical leg; speed drift below 1e-8 on free
    geodesics. The Newtonian leg integrates each family's own force."""
    _threeway_group(6, threeway, ("energy_drift_", "speed_drift_"), 26, announce)


def test_criterion_07_legendre_roundtrips(announce):
    """Velocity -> momentum -> velocity round trips below 1e-9 at 100
    random regular states per system, with the Newton solve converging
    in at most 10 iterations from the default guess."""
    report = _run(7, "legendre", announce)
    iteration_checks = [c for c in report["checks"] if "iterations" in c["name"]]
    assert iteration_checks
    assert all(c["value"] <= 10 for c in iteration_checks)


def test_criterion_08_covariant_momentum_cancellation(announce):
    """The symmetric Christoffel contractions of the covariant momentum
    equation cancel below 1e-8 at 50 random states on the curved charts."""
    _run(8, "cancellation", announce)


def test_criterion_09_chain_rule_along_curves(announce):
    """Computed spatial plus fiber gradients reproduce d/dt of field
    values along 20 seeded curves per chart for scalar, vector, and
    covector fields, to 1e-5."""
    _run(9, "chainrules", announce)


def test_criterion_10_integrator_order(announce):
    """Fixed-step endpoint errors on a sphere geodesic halve by 2^4 when
    the step halves: measured convergence exponent within [3.7, 4.3]."""
    report = _run(10, "rk4order", announce)
    exponent = next(c for c in report["checks"] if "exponent" in c["name"])
    assert 3.7 <= exponent["value"] <= 4.3
