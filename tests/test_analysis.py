import time

import numpy as np
import pytest

from ltisec import (
    AttackSequence,
    HorizonTooShort,
    LtiSystem,
    NonFinite,
    NotUndetectable,
    SideInformation,
    Tol,
    certify_undetectable,
    classify,
    extension_verdict,
    is_zero_state_inducing,
    weakly_unobservable,
)
from ltisec.synthesis import (
    find_zero_dynamics_modes,
    undetectable_from_theta,
    zero_dynamics_attack,
    zero_state_synthesize,
)

from oracles import (
    SHAPES,
    extension_brute_oracle,
    null_omega_meet_v,
    rand_shaped_system,
    rand_side,
    rand_system,
    stack_ctrl,
    undetectable_oracle,
)

PRINT_TOL = Tol(residual_rel=5e-3)


@pytest.fixture(scope="module")
def aircraft_mode(request):
    scn = request.getfixturevalue("aircraft")
    modes = find_zero_dynamics_modes(scn.system, lambda_hints=[0.9779])
    return [m for m in modes if abs(m.lam - 0.9779) < 1e-12][0]


def test_zero_attack_certificate(aircraft_sys, aircraft_side):
    cert = certify_undetectable(aircraft_sys, aircraft_side, AttackSequence.zeros(4, 6))
    assert cert.undetectable
    assert cert.residual == 0.0
    assert np.allclose(cert.induced_state, 0.0)


def test_horizon_guard(aircraft_sys, aircraft_side):
    with pytest.raises(HorizonTooShort):
        certify_undetectable(aircraft_sys, aircraft_side, AttackSequence.zeros(4, 2))


def test_aircraft_printed_attack_unprotected(aircraft_sys, aircraft_attack):
    # the bundled frames carry four significant digits, so the residual
    # sits at print precision and needs the loosened tolerance
    no_info = SideInformation.none(4)
    cert = certify_undetectable(aircraft_sys, no_info, aircraft_attack, PRINT_TOL)
    assert cert.undetectable
    assert cert.theta_in_v
    assert cert.theta_in_null_omega


def test_aircraft_printed_attack_with_side_info(aircraft_sys, aircraft_side, aircraft_attack):
    cert = certify_undetectable(aircraft_sys, aircraft_side, aircraft_attack, PRINT_TOL)
    assert not cert.undetectable


def test_aircraft_resolved_attack_unprotected(aircraft_sys, aircraft_mode):
    attack = zero_dynamics_attack(aircraft_mode, 30, 10.0)
    no_info = SideInformation.none(4)
    cert = certify_undetectable(aircraft_sys, no_info, attack)
    assert cert.undetectable
    assert cert.residual <= 1e-8
    want = 10.0 * aircraft_mode.theta.real
    assert np.linalg.norm(cert.induced_state - want) <= 1e-6 * np.linalg.norm(want)


def test_aircraft_resolved_attack_with_side_info(aircraft_sys, aircraft_side, aircraft_mode):
    attack = zero_dynamics_attack(aircraft_mode, 30, 10.0)
    cert = certify_undetectable(aircraft_sys, aircraft_side, attack)
    assert not cert.undetectable


def test_zero_state_inducing_flags(aircraft_sys, aircraft_attack, aircraft_mode):
    assert is_zero_state_inducing(aircraft_sys, AttackSequence.zeros(4, 6))
    # the published attack rides a nonzero internal state, so it is not
    # output nulling from rest
    assert not is_zero_state_inducing(aircraft_sys, aircraft_attack)
    synth = zero_state_synthesize(aircraft_sys, 8)
    assert is_zero_state_inducing(aircraft_sys, synth)
    assert not synth.is_zero


def test_no_side_info_reduces_to_subspace_test(rng):
    # with an empty constraint the certificate must agree with plain
    # feasibility of the shift inside V
    for _ in range(40):
        sys = rand_system(rng)
        no_info = SideInformation.none(sys.n)
        t = 2 * sys.n
        if rng.random() < 0.5:
            attack = AttackSequence(rng.standard_normal((t + 1, sys.s)))
        else:
            v = weakly_unobservable(sys)
            if v.dim == 0:
                attack = AttackSequence.zeros(sys.s, t)
            else:
                theta = v.basis @ rng.standard_normal(v.dim)
                try:
                    attack = undetectable_from_theta(sys, no_info, theta, t)
                except Exception:
                    continue
        cert = certify_undetectable(sys, no_info, attack)
        want = undetectable_oracle(sys, np.zeros((1, sys.n)), attack)
        assert cert.undetectable == want


def test_full_rank_side_info_forces_zero_shift(rng):
    # an invertible constraint pins the initial state, leaving only
    # attacks with identically zero output signature
    for _ in range(40):
        sys = rand_system(rng)
        full = SideInformation(np.eye(sys.n))
        t = 2 * sys.n
        if rng.random() < 0.5:
            attack = AttackSequence(rng.standard_normal((t + 1, sys.s)))
        else:
            try:
                attack = zero_state_synthesize(sys, t)
            except Exception:
                attack = AttackSequence.zeros(sys.s, t)
        cert = certify_undetectable(sys, full, attack)
        assert cert.undetectable == is_zero_state_inducing(sys, attack)
        if cert.undetectable:
            assert np.linalg.norm(cert.induced_state) <= 1e-6


def test_verdict_follows_the_tol_of_the_call(aircraft_sys):
    # Omega has two nearly equal rows: a V^perp direction plus 1e-8 of one
    # V basis vector, and the same row plus 1e-8 of a random vector; theta
    # is another V basis vector.  At rank_rel = 1e-6 the rows are one row
    # that misses V, so theta is admissible; at the default they are two.
    # The Tol given to SideInformation decides nothing: when it cut ker(Omega)
    # at its own rank_rel, this certificate came out detectable (residual
    # 2.11) under the default and undetectable (1.69e-8) under 1e-6.
    sys = aircraft_sys
    v = weakly_unobservable(sys).basis
    perp = np.linalg.svd(v.T)[2][-1]
    row = perp + 1e-8 * v[:, 0]
    omega = np.vstack([row, row + 1e-8 * np.random.default_rng(0).standard_normal(4)])
    attack = undetectable_from_theta(sys, SideInformation.none(4), v[:, 1], 10)
    loose = Tol(rank_rel=1e-6)
    for call_tol, want in ((loose, True), (Tol(), False)):
        certs = [certify_undetectable(sys, SideInformation(omega, side_tol), attack, call_tol)
                 for side_tol in (Tol(), loose)]
        assert [c.undetectable for c in certs] == [want, want]
        assert certs[0].residual == certs[1].residual


def test_truncation_preserves_undetectability(rng):
    # dropping trailing frames keeps the same explaining state valid
    hits = 0
    for _ in range(40):
        sys = rand_system(rng)
        side = rand_side(rng, sys.n)
        t = 2 * sys.n + 1
        cands = null_omega_meet_v(side.omega, weakly_unobservable(sys).basis)
        if cands.shape[1] == 0:
            continue
        theta = cands[:, 0]
        try:
            attack = undetectable_from_theta(sys, side, theta, t)
        except Exception:
            continue
        assert certify_undetectable(sys, side, attack).undetectable
        shorter = attack.truncated(sys.n)
        assert certify_undetectable(sys, side, shorter).undetectable
        hits += 1
    assert hits >= 5


def test_explaining_state_is_unique(rng):
    # observability makes the explaining state unique, so the certificate
    # must hand back the state the attack was built from
    hits = 0
    for _ in range(25):
        sys = rand_system(rng)
        side = SideInformation.none(sys.n)
        v = weakly_unobservable(sys)
        if v.dim == 0:
            continue
        theta = v.basis @ rng.standard_normal(v.dim)
        try:
            attack = undetectable_from_theta(sys, side, theta, 2 * sys.n)
        except Exception:
            continue
        cert = certify_undetectable(sys, side, attack)
        assert cert.undetectable
        assert np.linalg.norm(cert.induced_state - theta) <= 1e-6 * max(1.0, np.linalg.norm(theta))
        hits += 1
    assert hits >= 5


def test_extension_requires_certificate(aircraft_sys, aircraft_side, aircraft_attack):
    cert = certify_undetectable(aircraft_sys, aircraft_side, aircraft_attack, PRINT_TOL)
    assert not cert.undetectable
    with pytest.raises(NotUndetectable):
        extension_verdict(aircraft_sys, aircraft_side, aircraft_attack, cert, PRINT_TOL)


def test_extension_always_granted_when_blind(rng):
    # with no sensing every state lives in V, so any undetectable attack
    # extends forever
    sys = LtiSystem(a=np.array([[0.5, 0.2], [0.0, 0.4]]), b=np.eye(2),
                    c=np.zeros((1, 2)), d=np.zeros((1, 2)))
    side = SideInformation.none(2)
    for _ in range(10):
        attack = AttackSequence(rng.standard_normal((5, 2)))
        cert = certify_undetectable(sys, side, attack)
        assert cert.undetectable
        verdict = extension_verdict(sys, side, attack, cert)
        assert verdict.extensible_forever
        assert verdict.membership_residual <= 1e-10


def test_extension_aircraft_mode(aircraft_sys, aircraft_side, aircraft_mode):
    attack = zero_dynamics_attack(aircraft_mode, 30, 10.0)
    no_info = SideInformation.none(4)
    cert = certify_undetectable(aircraft_sys, no_info, attack)
    verdict = extension_verdict(aircraft_sys, no_info, attack, cert)
    assert verdict.extensible_forever
    assert verdict.test_vector.shape == (4,)


def test_classify_zero_attack(aircraft_sys, aircraft_side):
    cls = classify(aircraft_sys, aircraft_side, AttackSequence.zeros(4, 6))
    assert cls.undetectable_under_omega
    assert cls.undetectable_under_zero_omega
    assert cls.zero_state_inducing
    assert cls.zero_dynamics_form is None


def test_classify_printed_attack(aircraft_sys, aircraft_side, aircraft_attack):
    cls = classify(aircraft_sys, aircraft_side, aircraft_attack, PRINT_TOL)
    assert cls.zero_dynamics_form == "real"
    assert cls.undetectable_under_zero_omega
    assert not cls.undetectable_under_omega
    assert not cls.zero_state_inducing


def test_classify_dense_random(rng, aircraft_sys, aircraft_side):
    attack = AttackSequence(rng.standard_normal((10, 4)))
    cls = classify(aircraft_sys, aircraft_side, attack)
    assert not cls.undetectable_under_omega
    assert not cls.undetectable_under_zero_omega
    assert not cls.zero_state_inducing
    assert cls.zero_dynamics_form is None


def test_classify_oscillatory_mode(aircraft_sys, aircraft_side):
    modes = find_zero_dynamics_modes(aircraft_sys, lambda_hints=[0.9779])
    pair = [m for m in modes if abs(m.lam.imag) > 1e-6][0]
    attack = zero_dynamics_attack(pair, 20, 5.0)
    cls = classify(aircraft_sys, aircraft_side, attack)
    assert cls.zero_dynamics_form == "pair"


@pytest.mark.parametrize("shape", SHAPES)
def test_certificate_and_extension_match_oracles_moderate_horizon(shape):
    # horizons of 20-40 steps (8-12 for unstable A), side information of
    # every kind, engineered and dense random attacks
    rng = np.random.default_rng(30 + SHAPES.index(shape))
    certified = 0
    for i in range(16):
        sys = rand_shaped_system(rng, shape)
        side = rand_side(rng, sys.n, ("mixed", "zero", "full")[i % 3])
        t = int(rng.integers(8, 13) if shape == "unstable" else rng.integers(20, 41))
        cands = null_omega_meet_v(side.omega, weakly_unobservable(sys).basis)
        if i % 2 == 0 and cands.shape[1]:
            theta = cands @ rng.standard_normal(cands.shape[1])
            attack = undetectable_from_theta(sys, side, theta, t)
        else:
            attack = AttackSequence(rng.standard_normal((t + 1, sys.s)))
        cert = certify_undetectable(sys, side, attack)
        assert cert.undetectable == undetectable_oracle(sys, side.omega, attack)
        certified += cert.undetectable
        if not cert.undetectable:
            continue
        verdict = extension_verdict(sys, side, attack, cert)
        a_pow = np.linalg.matrix_power(sys.a, t + 1)
        want = stack_ctrl(sys.a, sys.b, t) @ attack.stacked + a_pow @ cert.induced_state
        assert np.linalg.norm(verdict.test_vector - want) <= 1e-9 * max(1.0, np.linalg.norm(want))
        # n+1 appended frames decide membership in V
        brute = extension_brute_oracle(sys, side.omega, attack, t + sys.n + 1)
        assert verdict.extensible_forever == brute
    if shape != "tall":  # generic tall plants have V = {0}
        assert certified >= 3


def test_long_horizon_aircraft_certificates(aircraft_sys, aircraft_side, aircraft_mode):
    # T=2000 is out of reach for dense M_T (2.1 s and 190 MB for the matrix
    # alone); the recursion makes it a few milliseconds
    attack = zero_dynamics_attack(aircraft_mode, 2000, 10.0)
    start = time.perf_counter()
    blind = certify_undetectable(aircraft_sys, SideInformation.none(4), attack)
    pinned = certify_undetectable(aircraft_sys, aircraft_side, attack)
    zero_state = is_zero_state_inducing(aircraft_sys, attack)
    elapsed = time.perf_counter() - start
    assert blind.undetectable
    want = 10.0 * aircraft_mode.theta.real
    assert np.linalg.norm(blind.induced_state - want) <= 1e-6 * np.linalg.norm(want)
    assert not pinned.undetectable
    assert not zero_state
    assert elapsed < 1.0


def test_attack_whose_norm_overflows_is_not_decided():
    # finite frames up to 6e202 and a last frame of 1e200 leave a last
    # output near -6e202; the stacked norms overflow, and against an
    # infinite scale every residual would pass
    sys = LtiSystem(a=np.array([[5.0, 1.0], [0.0, 0.5]]), b=np.eye(2),
                    c=np.array([[1.0, 0.0]]), d=np.array([[0.0, 1.0]]))
    frames = zero_state_synthesize(sys, 300).frames.copy()
    frames[-1] = 1e200
    attack = AttackSequence(frames)
    # the norms overflow by construction; the verdict is what is tested
    with np.errstate(over="ignore"):
        with pytest.raises(NonFinite):
            is_zero_state_inducing(sys, attack)
        with pytest.raises(NonFinite):
            certify_undetectable(sys, SideInformation.none(2), attack)
