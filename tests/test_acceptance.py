"""End-to-end checks for the whole package.

Each test here pins one headline guarantee: the bundled flight-control
experiment reproduces, the analytic certificates agree with brute-force
oracles over large randomized suites, the detector is consistent and sound,
and the numerical kernel keeps its contracts.  The randomized suites are
built once per session from a fixed seed so every criterion sees the same
instances.
"""

import time

import numpy as np
import pytest

from ltisec import (
    AttackSequence,
    Decision,
    DetectorConfig,
    LtiSystem,
    NoModes,
    NotExtensible,
    SideInformation,
    Tol,
    batch_decide,
    certify_undetectable,
    extension_verdict,
    io_matrix,
    is_zero_state_inducing,
    null_space,
    numerical_rank,
    obs_matrix,
    projector,
    simulate,
    weakly_unobservable,
    weakly_unobservable_iterates,
    zero_state_attack_exists,
)
from ltisec.reports import AIRCRAFT_MODE_G, AIRCRAFT_MODE_LAMBDA, repro_aircraft
from ltisec.synthesis import (
    extend_attack,
    find_zero_dynamics_modes,
    undetectable_from_theta,
    zero_state_synthesize,
)

from oracles import (
    extension_brute_oracle,
    null_omega_meet_v,
    rand_side,
    rand_system,
    undetectable_oracle,
    zero_state_oracle,
)

SUITE_SEED = 987654321


def _draw_theta(rng, side, v):
    cands = null_omega_meet_v(side.omega, v.basis)
    if cands.shape[1] == 0:
        return None
    theta = cands @ rng.standard_normal(cands.shape[1])
    norm = np.linalg.norm(theta)
    return None if norm < 1e-9 else theta / norm


@pytest.fixture(scope="session")
def suite3():
    """200 (system, side, attack, certified) tuples, half engineered to be
    undetectable and half dense random."""
    rng = np.random.default_rng(SUITE_SEED)
    out = []
    while len(out) < 200:
        sys = rand_system(rng)
        side = rand_side(rng, sys.n)
        t = int(rng.integers(sys.n, 2 * sys.n + 1))
        engineered = len(out) % 2 == 0
        if engineered:
            theta = _draw_theta(rng, side, weakly_unobservable(sys))
            if theta is None:
                continue
            try:
                attack = undetectable_from_theta(sys, side, theta, t)
            except Exception:
                continue
        else:
            attack = AttackSequence(rng.standard_normal((t + 1, sys.s)))
        cert = certify_undetectable(sys, side, attack)
        out.append((sys, side, attack, cert.undetectable))
    return out


@pytest.fixture(scope="session")
def suite4():
    """200 systems for the output-nulling existence check, plus a
    synthesized witness attack whenever one exists."""
    rng = np.random.default_rng(SUITE_SEED + 1)
    out = []
    for _ in range(200):
        sys = rand_system(rng)
        witness = None
        if zero_state_attack_exists(sys):
            try:
                witness = zero_state_synthesize(sys, 2 * sys.n)
            except Exception:
                witness = None
        out.append((sys, witness))
    return out


@pytest.fixture(scope="session")
def suite5():
    """Extension suite: 50 attacks whose forever-extension verdict is
    positive, 20 engineered so the verdict is negative."""
    rng = np.random.default_rng(SUITE_SEED + 2)
    positives = []
    negatives = []
    guard = 0
    while (len(positives) < 50 or len(negatives) < 20) and guard < 20000:
        guard += 1
        sys = rand_system(rng)
        side = rand_side(rng, sys.n)
        if len(positives) < 50:
            theta = _draw_theta(rng, side, weakly_unobservable(sys))
            if theta is not None:
                try:
                    attack = undetectable_from_theta(sys, side, theta, sys.n)
                except Exception:
                    attack = None
                if attack is not None and np.linalg.norm(attack.stacked) > 1e3:
                    # with a unit theta, a 1e3+ attack means the stacked map
                    # is near singular; cancellation noise then exceeds the
                    # certification threshold, for this and any verifier
                    attack = None
                if attack is not None:
                    cert = certify_undetectable(sys, side, attack)
                    if cert.undetectable:
                        verdict = extension_verdict(sys, side, attack, cert)
                        if verdict.extensible_forever:
                            positives.append((sys, side, attack, cert))
                            continue
        if len(negatives) < 20:
            # a terminal pulse in ker D is silent over the recorded window
            # but can park the state outside V, killing every continuation
            kd = null_space(sys.d)
            if kd.dim == 0:
                continue
            v = weakly_unobservable(sys)
            direction = None
            for j in range(kd.dim):
                w = sys.b @ kd.basis[:, j]
                if v.residual_outside(w) > 1e-6 * max(1.0, np.linalg.norm(w)):
                    direction = kd.basis[:, j]
                    break
            if direction is None:
                continue
            frames = np.zeros((sys.n + 1, sys.s))
            frames[-1] = direction
            attack = AttackSequence(frames)
            cert = certify_undetectable(sys, side, attack)
            if not cert.undetectable:
                continue
            verdict = extension_verdict(sys, side, attack, cert)
            if not verdict.extensible_forever:
                negatives.append((sys, side, attack, cert))
    assert len(positives) == 50
    assert len(negatives) == 20
    return positives, negatives


def test_criterion_1_aircraft_reproduction():
    start = time.perf_counter()
    report = repro_aircraft()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    by_name = {e.name: e.passed for e in report.expectations}
    assert by_name["no_side_never_fires"]
    assert by_name["side_first_epoch_decision"]
    assert by_name["side_residual_ratio_1e3"]
    assert by_name["certificate_no_side_undetectable"]
    assert by_name["certificate_side_detectable"]
    assert report.passed
    # binary outcomes, independent of the report bookkeeping
    none_series = report.series["detect_no_side"]
    side_series = report.series["detect_side"]
    assert all(d == 0 for _, d, _ in none_series)
    assert side_series[0][1] == 1


def test_criterion_2_pencil_certificate(aircraft_sys):
    lam = AIRCRAFT_MODE_LAMBDA
    g = np.asarray(AIRCRAFT_MODE_G, dtype=float)
    n = aircraft_sys.n
    # published channel direction, state part re-solved from it
    theta = np.linalg.lstsq(lam * np.eye(n) - aircraft_sys.a,
                            aircraft_sys.b @ g, rcond=None)[0]
    pencil = np.vstack([
        np.hstack([lam * np.eye(n) - aircraft_sys.a, -aircraft_sys.b]),
        np.hstack([aircraft_sys.c, aircraft_sys.d]),
    ])
    resid = np.linalg.norm(pencil @ np.concatenate([theta, g]))
    assert resid <= 1e-3 * (np.linalg.norm(theta) + np.linalg.norm(g))

    modes = find_zero_dynamics_modes(aircraft_sys, lambda_hints=[lam])
    mode = [m for m in modes if abs(m.lam - lam) < 1e-12][0]
    joint = np.concatenate([mode.theta, mode.g])
    resolved = np.linalg.norm(pencil.astype(complex) @ joint)
    assert resolved <= 1e-8 * (np.linalg.norm(mode.theta) + np.linalg.norm(mode.g))
    assert mode.pencil_residual <= 1e-8


def test_criterion_3_certificate_oracle_equivalence(suite3):
    assert len(suite3) == 200
    agree = 0
    for sys, side, attack, certified in suite3:
        want = undetectable_oracle(sys, side.omega, attack)
        assert certified == want
        agree += 1
    assert agree == 200


def test_criterion_4_existence_oracle_equivalence(suite4):
    assert len(suite4) == 200
    agree = 0
    for sys, witness in suite4:
        got = zero_state_attack_exists(sys)
        want = zero_state_oracle(sys)
        assert got == want
        if witness is not None:
            assert got
            assert is_zero_state_inducing(sys, witness)
            assert not witness.is_zero
        agree += 1
    assert agree == 200


def test_criterion_5_extension_constructive(suite5):
    positives, negatives = suite5
    for sys, side, attack, cert in positives:
        t_prime = attack.horizon_t + sys.n
        longer = extend_attack(sys, side, attack, cert, t_prime)
        assert longer.horizon_t == t_prime
        assert np.array_equal(longer.frames[: attack.horizon_t + 1], attack.frames)
        assert certify_undetectable(sys, side, longer).undetectable
    for sys, side, attack, cert in negatives:
        t_prime = attack.horizon_t + sys.n
        with pytest.raises(NotExtensible):
            extend_attack(sys, side, attack, cert, t_prime)
        assert not extension_brute_oracle(sys, side.omega, attack, t_prime)


def test_criterion_6_no_false_alarms(rng):
    alarms = 0
    for _ in range(1000):
        sys = rand_system(rng)
        side = rand_side(rng, sys.n)
        x0 = 3.0 * rng.standard_normal(sys.n)
        t = sys.n + int(rng.integers(2, 8))
        traj = simulate(sys, x0, AttackSequence.zeros(sys.s, t), side)
        cfg = DetectorConfig(window_len_l=sys.n + 1, omega=side, tol=Tol())
        verdict, _ = batch_decide(sys, cfg, traj.side_value, traj)
        if verdict is not Decision.NO_ATTACK:
            alarms += 1
    assert alarms == 0


def test_criterion_7_detector_matches_certificates(suite3, suite4, suite5):
    rng = np.random.default_rng(SUITE_SEED + 3)
    cases = list(suite3)
    for sys, witness in suite4:
        if witness is not None:
            side = rand_side(rng, sys.n)
            cert = certify_undetectable(sys, side, witness)
            cases.append((sys, side, witness, cert.undetectable))
    positives, negatives = suite5
    for sys, side, attack, cert in positives + negatives:
        cases.append((sys, side, attack, cert.undetectable))

    checked = 0
    for sys, side, attack, certified in cases:
        x0 = rng.standard_normal(sys.n)
        traj = simulate(sys, x0, attack, side)
        cfg = DetectorConfig(window_len_l=sys.n + 1, omega=side, tol=Tol())
        verdict, _ = batch_decide(sys, cfg, traj.side_value, traj)
        assert (verdict is Decision.NO_ATTACK) == certified
        checked += 1
    assert checked >= 270


def test_criterion_8_side_information_extremes(rng):
    # full-rank side information: undetectable means invisible outright
    for i in range(100):
        sys = rand_system(rng)
        q, _ = np.linalg.qr(rng.standard_normal((sys.n, sys.n)))
        full = SideInformation(q)
        t = 2 * sys.n
        if i % 2 == 0:
            try:
                attack = zero_state_synthesize(sys, t)
            except Exception:
                attack = AttackSequence.zeros(sys.s, t)
        else:
            attack = AttackSequence(rng.standard_normal((t + 1, sys.s)))
        cert = certify_undetectable(sys, full, attack)
        assert cert.undetectable == is_zero_state_inducing(sys, attack)

    # no side information: the certificate collapses to feasibility of the
    # stacked identity over the weakly unobservable subspace alone
    for i in range(100):
        sys = rand_system(rng)
        none = SideInformation.none(sys.n)
        t = 2 * sys.n
        if i % 2 == 0:
            v = weakly_unobservable(sys)
            if v.dim > 0:
                theta = v.basis @ rng.standard_normal(v.dim)
                try:
                    attack = undetectable_from_theta(sys, none, theta, t)
                except Exception:
                    attack = AttackSequence(rng.standard_normal((t + 1, sys.s)))
            else:
                attack = AttackSequence(rng.standard_normal((t + 1, sys.s)))
        else:
            attack = AttackSequence(rng.standard_normal((t + 1, sys.s)))
        cert = certify_undetectable(sys, none, attack)

        v = weakly_unobservable(sys)
        if v.dim == 0:
            want = is_zero_state_inducing(sys, attack)
        else:
            lhs = obs_matrix(sys, t) @ v.basis
            rhs = -(io_matrix(sys, t) @ attack.stacked)
            coef = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
            resid = np.linalg.norm(lhs @ coef - rhs)
            want = resid <= 1e-8 * max(1.0, np.linalg.norm(rhs))
        assert cert.undetectable == want


def test_criterion_9_kernel_contracts(rng):
    for _ in range(100):
        # projectors are only defined for full-column-rank stacks
        cols = int(rng.integers(1, 5))
        k = rng.standard_normal((cols + int(rng.integers(1, 4)), cols))
        p = projector(k)
        assert np.linalg.norm(p @ p - p) <= 1e-10
        assert np.linalg.norm(p - p.T) <= 1e-10
        assert np.linalg.norm(p @ k - k) <= 1e-10 * max(1.0, np.linalg.norm(k))

        m = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        if rng.random() < 0.4:
            r = int(rng.integers(1, min(m.shape) + 1))
            m = m[:, :r] @ rng.standard_normal((r, m.shape[1]))
        ker = null_space(m)
        if ker.dim:
            assert np.linalg.norm(m @ ker.basis) <= 1e-10 * max(1.0, np.linalg.norm(m))
        assert numerical_rank(m) + ker.dim == m.shape[1]

    for _ in range(100):
        sys = rand_system(rng)
        iterates = weakly_unobservable_iterates(sys)
        fixed = iterates[-1]
        again = weakly_unobservable(sys)
        assert fixed.dim == again.dim
        for j in range(fixed.dim):
            assert again.residual_outside(fixed.basis[:, j]) <= 1e-9
        # one more recursion sweep must not move the fixed point
        if len(iterates) >= 2:
            assert iterates[-2].dim == fixed.dim
        comp = np.eye(sys.n) - fixed.basis @ fixed.basis.T
        for j in range(fixed.dim):
            x = fixed.basis[:, j]
            lhs = np.vstack([sys.d, comp @ sys.b])
            rhs = -np.concatenate([sys.c @ x, comp @ (sys.a @ x)])
            coef = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
            assert np.linalg.norm(lhs @ coef - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))
