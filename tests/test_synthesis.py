import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ltisec.synthesis

from ltisec import (
    AttackSequence,
    DimensionMismatch,
    HorizonTooShort,
    LtiSystem,
    NoModes,
    NonFinite,
    NotExtensible,
    NotSynthesizable,
    SideInformation,
    ThetaNotFeasible,
    Tol,
    certify_undetectable,
    classify,
    extension_verdict,
    is_zero_state_inducing,
    numerical_rank,
    weakly_unobservable,
    zero_state_attack_exists,
)
from ltisec.reports import analyze_report
from ltisec.scenario import Scenario
from ltisec.subspaces import _nulling_factors, weakly_unobservable_iterates
from ltisec.synthesis import (
    _LAMBDA_CAP,
    ZeroDynamicsMode,
    _canonical_phase,
    _nulling_frames,
    _pencil,
    extend_attack,
    find_zero_dynamics_modes,
    undetectable_from_theta,
    zero_dynamics_attack,
    zero_state_synthesize,
)

from oracles import (
    SHAPES,
    ill_conditioned,
    pencil,
    pencil_modes_oracle,
    rank_has_margin,
    pencil_zero_candidates,
    rand_shaped_system,
    rand_system,
    scan_candidates,
    scanned_modes_oracle,
    stack_io,
    stack_obs,
    undetectable_oracle,
)

# published numbers for the bundled flight-control scenario, rounded to the
# four digits they were released with
AIR_LAMBDA = 0.9779
AIR_G = np.array([0.032392, -0.001184, -0.639577, 0.300692])
AIR_THETA = np.array([0.639577, -0.300692, 0.000015, 0.0])


@pytest.fixture(scope="module")
def square_plant():
    # transfer function (z - 0.4) / ((z - 0.5)(z - 0.3)): one finite zero
    return LtiSystem(
        a=np.array([[0.5, 1.0], [0.0, 0.3]]),
        b=np.array([[0.0], [1.0]]),
        c=np.array([[0.1, 1.0]]),
        d=np.array([[0.0]]),
    )


def test_no_modes_without_actuation():
    sys = LtiSystem(a=np.array([[0.5, 1.0], [0.0, 0.3]]), b=np.zeros((2, 1)),
                    c=np.eye(2), d=np.array([[1.0], [1.0]]))
    with pytest.raises(NoModes):
        find_zero_dynamics_modes(sys)


def test_square_planted_zero(square_plant):
    modes = find_zero_dynamics_modes(square_plant)
    assert len(modes) == 1
    mode = modes[0]
    assert abs(mode.lam - 0.4) <= 1e-9
    assert mode.pencil_residual <= 1e-12
    # the state direction solves (lam I - A) theta = B g with C theta = 0
    lhs = (mode.lam * np.eye(2) - square_plant.a) @ mode.theta - square_plant.b @ mode.g
    assert np.linalg.norm(lhs) <= 1e-12
    assert abs(square_plant.c @ mode.theta.real)[0] <= 1e-12


def test_tall_planted_zero_found(square_plant):
    # duplicate sensing with a row orthogonal to the zero direction keeps
    # the mode alive; it is not an eigenvalue of A, so a scan of eig(A)
    # would miss it, and the eigenproblem on V finds it
    tall = LtiSystem(a=square_plant.a, b=square_plant.b,
                     c=np.array([[0.1, 1.0], [1.0, 10.0]]), d=np.zeros((2, 1)))
    modes = find_zero_dynamics_modes(tall)
    assert any(abs(m.lam - 0.4) <= 1e-6 for m in modes)


def test_zero_beyond_cap_dropped(square_plant):
    # a feedthrough of 1e-8 adds a zero near -1e8, which tends to infinity
    # as the feedthrough vanishes; it carries no usable attack and is dropped
    sys = LtiSystem(a=square_plant.a, b=square_plant.b, c=square_plant.c,
                    d=np.array([[1e-8]]))
    modes = find_zero_dynamics_modes(sys)
    assert len(modes) == 1
    assert abs(modes[0].lam - 0.4) <= 1e-6


@pytest.fixture(scope="module")
def repeated_rows_plant():
    # p = s = 2 with both output rows equal: the transfer matrix has rank 1,
    # so a state's nulling input is not unique and the pencil has a null
    # vector at every lambda
    return LtiSystem(a=np.array([[0.5, 1.0], [0.0, 0.3]]), b=np.eye(2),
                     c=np.array([[1.0, 0.0], [1.0, 0.0]]),
                     d=np.array([[0.0, 1.0], [0.0, 1.0]]))


def _pencil_residual_ok(sys, mode):
    top = np.hstack([mode.lam * np.eye(sys.n) - sys.a, -sys.b])
    pencil = np.vstack([top, np.hstack([sys.c, sys.d])])
    v = np.concatenate([mode.theta, mode.g])
    return np.linalg.norm(pencil @ v) <= 1e-8 * max(1.0, np.linalg.norm(v))


def test_repeated_rows_plant_is_scanned(repeated_rows_plant):
    sys = repeated_rows_plant
    # a stable hint away from eig(A) yields a verified mode
    modes = find_zero_dynamics_modes(sys, lambda_hints=[0.2])
    assert any(abs(m.lam - 0.2) <= 1e-12 for m in modes)
    # an unstable hint is filtered unless allow_unstable is set
    kept = find_zero_dynamics_modes(sys, lambda_hints=[0.2, 1.5])
    assert all(abs(m.lam) <= 1.0 for m in kept)
    opened = find_zero_dynamics_modes(sys, lambda_hints=[0.2, 1.5], allow_unstable=True)
    assert any(abs(m.lam - 1.5) <= 1e-12 for m in opened)
    for m in modes + kept + opened:
        assert _pencil_residual_ok(sys, m)


def test_wide_unstable_candidate_filtered():
    wide = LtiSystem(a=np.diag([0.5, 0.3]), b=np.eye(2),
                     c=np.array([[1.0, 1.0]]), d=np.zeros((1, 2)))
    kept = find_zero_dynamics_modes(wide, lambda_hints=[1.5])
    assert all(abs(m.lam) <= 1.0 + 1e-6 for m in kept)
    opened = find_zero_dynamics_modes(wide, lambda_hints=[1.5], allow_unstable=True)
    assert any(abs(m.lam - 1.5) <= 1e-9 for m in opened)


def test_aircraft_mode_matches_published_vector(aircraft_sys):
    modes = find_zero_dynamics_modes(aircraft_sys, lambda_hints=[AIR_LAMBDA])
    match = [m for m in modes if abs(m.lam - AIR_LAMBDA) < 1e-12]
    assert len(match) == 1
    mode = match[0]
    assert np.allclose(mode.g.real, AIR_G, atol=2e-3)
    assert np.allclose(mode.g.imag, 0.0, atol=1e-12)
    assert np.allclose(mode.theta.real, AIR_THETA, atol=2e-3)
    assert mode.pencil_residual <= 1e-12


def test_aircraft_modes_sorted_and_deduped(aircraft_sys):
    modes = find_zero_dynamics_modes(aircraft_sys, lambda_hints=[AIR_LAMBDA, AIR_LAMBDA])
    lams = [m.lam for m in modes]
    assert len(set(round(l.real, 9) + 1j * round(l.imag, 9) for l in lams)) == len(lams)
    keys = [(l.real, l.imag) for l in lams]
    assert keys == sorted(keys)
    assert all(l.imag >= -1e-15 for l in lams)


def test_attack_frames_follow_geometric_law(square_plant):
    mode = find_zero_dynamics_modes(square_plant)[0]
    attack = zero_dynamics_attack(mode, 6, scale=2.0)
    assert attack.horizon_t == 6
    for k in range(7):
        want = 2.0 * (0.4 ** k) * mode.g.real
        assert np.allclose(attack.frames[k], want, atol=1e-12)


def test_attack_at_lambda_zero_is_impulse():
    wide = LtiSystem(a=np.diag([0.5, 0.3]), b=np.eye(2),
                     c=np.array([[1.0, 1.0]]), d=np.zeros((1, 2)))
    modes = find_zero_dynamics_modes(wide, lambda_hints=[0.0])
    mode = [m for m in modes if abs(m.lam) < 1e-12][0]
    attack = zero_dynamics_attack(mode, 4)
    assert np.allclose(attack.frames[0], mode.g.real)
    assert np.allclose(attack.frames[1:], 0.0)


def test_aircraft_attack_matches_published_frames(aircraft_sys, aircraft_attack):
    modes = find_zero_dynamics_modes(aircraft_sys, lambda_hints=[AIR_LAMBDA])
    mode = [m for m in modes if abs(m.lam - AIR_LAMBDA) < 1e-12][0]
    attack = zero_dynamics_attack(mode, 30, scale=10.0)
    assert attack.frames.shape == aircraft_attack.frames.shape
    assert np.allclose(attack.frames, aircraft_attack.frames, atol=0.02)


def test_mode_attacks_certify_round_trip(rng):
    # restrict to moderate |lambda|: frames grow like |lambda|**k, and once
    # the dynamic range eats the 52-bit mantissa no verifier can cancel the
    # stacked response in double precision
    hits = 0
    for _ in range(40):
        sys = rand_system(rng)
        try:
            modes = find_zero_dynamics_modes(sys)
        except NoModes:
            continue
        usable = [m for m in modes if abs(m.lam) <= 2.0]
        if not usable:
            continue
        attack = zero_dynamics_attack(usable[0], 2 * sys.n)
        no_info = SideInformation.none(sys.n)
        cert = certify_undetectable(sys, no_info, attack)
        assert cert.undetectable
        assert undetectable_oracle(sys, np.zeros((1, sys.n)), attack)
        hits += 1
    assert hits >= 10


def test_zero_state_synthesize_aircraft(aircraft_sys):
    attack = zero_state_synthesize(aircraft_sys, 10, scale=3.0)
    assert not attack.is_zero
    assert attack.horizon_t == 10
    assert abs(np.linalg.norm(attack.frames[0]) - 3.0) <= 1e-9
    assert is_zero_state_inducing(aircraft_sys, attack)


def test_zero_state_attack_beats_full_rank_side_info(aircraft_sys):
    # knowing x(0) exactly does not help against an output-nulling attack
    attack = zero_state_synthesize(aircraft_sys, 10)
    full = SideInformation(np.eye(4))
    cert = certify_undetectable(aircraft_sys, full, attack)
    assert cert.undetectable
    assert np.linalg.norm(cert.induced_state) <= 1e-8


def test_zero_state_synthesize_blocked():
    sys = LtiSystem(a=np.eye(2), b=np.eye(2), c=np.eye(2), d=np.eye(2))
    with pytest.raises(NotSynthesizable):
        zero_state_synthesize(sys, 6)


def test_zero_state_synthesize_overflow_is_not_synthesizable():
    # the nulling gain leaves the closed loop an eigenvalue near 4.77: the
    # frames stay finite at T=20 and overflow long before T=500
    sys = LtiSystem(a=np.array([[5.0, 1.0], [0.0, 0.5]]), b=np.eye(2),
                    c=np.array([[1.0, 0.0]]), d=np.array([[0.0, 1.0]]))
    attack = zero_state_synthesize(sys, 20)
    assert np.isfinite(attack.frames).all()
    assert is_zero_state_inducing(sys, attack)
    with pytest.raises(NotSynthesizable):
        zero_state_synthesize(sys, 500)


def test_zero_state_synthesize_planted():
    # two actuators, one of which is invisible to the sensor for one step
    sys = LtiSystem(a=np.array([[0.5, 0.2], [0.1, 0.4]]),
                    b=np.array([[1.0, 0.0], [0.0, 1.0]]),
                    c=np.array([[0.0, 1.0]]),
                    d=np.array([[0.0, 1.0]]))
    attack = zero_state_synthesize(sys, 6)
    assert is_zero_state_inducing(sys, attack)
    assert np.linalg.norm(attack.frames[0]) > 0.0


def test_undetectable_from_theta_zero_is_zero(aircraft_sys, aircraft_side):
    attack = undetectable_from_theta(aircraft_sys, aircraft_side, np.zeros(4), 8)
    assert attack.is_zero
    assert attack.horizon_t == 8


def test_undetectable_from_theta_round_trip(aircraft_sys):
    no_info = SideInformation.none(4)
    modes = find_zero_dynamics_modes(aircraft_sys, lambda_hints=[AIR_LAMBDA])
    theta = [m for m in modes if abs(m.lam - AIR_LAMBDA) < 1e-12][0].theta.real * 5.0
    attack = undetectable_from_theta(aircraft_sys, no_info, theta, 12)
    cert = certify_undetectable(aircraft_sys, no_info, attack)
    assert cert.undetectable
    assert np.linalg.norm(cert.induced_state - theta) <= 1e-6 * np.linalg.norm(theta)


def test_undetectable_from_theta_rejects_visible_state(aircraft_sys, aircraft_side):
    modes = find_zero_dynamics_modes(aircraft_sys, lambda_hints=[AIR_LAMBDA])
    theta = [m for m in modes if abs(m.lam - AIR_LAMBDA) < 1e-12][0].theta.real
    assert abs(aircraft_side.omega @ theta)[0] > 0.1
    with pytest.raises(ThetaNotFeasible):
        undetectable_from_theta(aircraft_sys, aircraft_side, theta, 12)


def test_undetectable_from_theta_rejects_outside_v(aircraft_sys):
    v = weakly_unobservable(aircraft_sys)
    comp = np.eye(4) - v.basis @ v.basis.T
    norms = np.linalg.norm(comp, axis=0)
    outside = comp[:, int(np.argmax(norms))]
    outside /= np.linalg.norm(outside)
    no_info = SideInformation.none(4)
    with pytest.raises(ThetaNotFeasible):
        undetectable_from_theta(aircraft_sys, no_info, outside, 12)


def test_undetectable_from_theta_horizon_guard(aircraft_sys, aircraft_side):
    with pytest.raises(HorizonTooShort):
        undetectable_from_theta(aircraft_sys, aircraft_side, np.zeros(4), 2)


def test_undetectable_from_theta_rejects_malformed_theta(aircraft_sys, aircraft_side):
    with pytest.raises(DimensionMismatch):
        undetectable_from_theta(aircraft_sys, aircraft_side, np.zeros(3), 8)
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFinite):
            undetectable_from_theta(aircraft_sys, aircraft_side, np.array([0.0, bad, 0.0, 0.0]), 8)


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
def test_synthesis_rejects_a_non_finite_scale(aircraft_sys, scale):
    mode = find_zero_dynamics_modes(aircraft_sys, lambda_hints=[AIR_LAMBDA])[0]
    with pytest.raises(NonFinite):
        zero_dynamics_attack(mode, 8, scale)
    with pytest.raises(NonFinite):
        zero_state_synthesize(aircraft_sys, 8, scale=scale)


def test_extend_zero_attack(aircraft_sys, aircraft_side):
    attack = AttackSequence.zeros(4, 6)
    cert = certify_undetectable(aircraft_sys, aircraft_side, attack)
    longer = extend_attack(aircraft_sys, aircraft_side, attack, cert, 9)
    assert longer.horizon_t == 9
    assert longer.is_zero


def test_extend_aircraft_mode_attack(aircraft_sys):
    no_info = SideInformation.none(4)
    modes = find_zero_dynamics_modes(aircraft_sys, lambda_hints=[AIR_LAMBDA])
    mode = [m for m in modes if abs(m.lam - AIR_LAMBDA) < 1e-12][0]
    attack = zero_dynamics_attack(mode, 30, 10.0)
    cert = certify_undetectable(aircraft_sys, no_info, attack)
    longer = extend_attack(aircraft_sys, no_info, attack, cert, 34)
    assert longer.horizon_t == 34
    # the original frames survive bit for bit
    assert np.array_equal(longer.frames[:31], attack.frames)
    cert2 = certify_undetectable(aircraft_sys, no_info, longer)
    assert cert2.undetectable
    assert np.linalg.norm(cert2.induced_state - cert.induced_state) <= 1e-8


def test_extend_computes_the_iterates_once(aircraft_sys, isa_runs):
    # extend_attack decides extensibility against V and runs its tail
    # recursion over the iterates of the same ISA run that certification
    # started on this system
    no_info = SideInformation.none(4)
    modes = find_zero_dynamics_modes(aircraft_sys, lambda_hints=[AIR_LAMBDA])
    mode = [m for m in modes if abs(m.lam - AIR_LAMBDA) < 1e-12][0]
    attack = zero_dynamics_attack(mode, 30, 10.0)
    want = extend_attack(aircraft_sys, no_info, attack,
                         certify_undetectable(aircraft_sys, no_info, attack), 34)
    fresh = LtiSystem(a=aircraft_sys.a, b=aircraft_sys.b, c=aircraft_sys.c, d=aircraft_sys.d)
    isa_runs.clear()
    cert = certify_undetectable(fresh, no_info, attack)
    longer = extend_attack(fresh, no_info, attack, cert, 34)
    assert len(isa_runs) == 1
    assert np.array_equal(longer.frames, want.frames)


def test_entry_points_run_the_isa_once_per_tol(aircraft, isa_runs):
    fresh = LtiSystem(a=aircraft.system.a, b=aircraft.system.b,
                      c=aircraft.system.c, d=aircraft.system.d)
    scenario = Scenario(fresh, aircraft.side, None, None)
    tols = (Tol(), Tol(residual_rel=1e-6))
    for tol in tols:
        no_info = SideInformation.none(4, tol)
        modes = find_zero_dynamics_modes(fresh, tol, lambda_hints=[AIR_LAMBDA])
        attack = zero_dynamics_attack(modes[0], 30)
        cert = certify_undetectable(fresh, no_info, attack, tol)
        classify(fresh, aircraft.side, attack, tol)
        extension_verdict(fresh, no_info, attack, cert, tol)
        extend_attack(fresh, no_info, attack, cert, 34, tol)
        undetectable_from_theta(fresh, no_info, cert.induced_state, 30, tol)
        zero_state_synthesize(fresh, 30, tol)
        analyze_report(scenario, tol)
    assert isa_runs == list(tols)


def test_extend_rejects_terminal_kernel_pulse(aircraft_sys, aircraft_side):
    # a final-frame pulse in ker D is silent over the original window but
    # parks the state outside V, so no silent continuation exists
    frames = np.zeros((7, 4))
    frames[-1, 0] = 1.0
    attack = AttackSequence(frames)
    cert = certify_undetectable(aircraft_sys, aircraft_side, attack)
    assert cert.undetectable
    with pytest.raises(NotExtensible):
        extend_attack(aircraft_sys, aircraft_side, attack, cert, 10)


def test_extend_requires_longer_horizon(aircraft_sys, aircraft_side):
    attack = AttackSequence.zeros(4, 6)
    cert = certify_undetectable(aircraft_sys, aircraft_side, attack)
    with pytest.raises(ValueError):
        extend_attack(aircraft_sys, aircraft_side, attack, cert, 6)


def test_extended_attacks_stay_undetectable(rng):
    hits = 0
    for _ in range(30):
        sys = rand_system(rng)
        no_info = SideInformation.none(sys.n)
        v = weakly_unobservable(sys)
        if v.dim == 0:
            continue
        theta = v.basis @ rng.standard_normal(v.dim)
        try:
            attack = undetectable_from_theta(sys, no_info, theta, sys.n)
        except ThetaNotFeasible:
            continue
        cert = certify_undetectable(sys, no_info, attack)
        if not cert.undetectable:
            continue
        try:
            longer = extend_attack(sys, no_info, attack, cert, sys.n + 4)
        except NotExtensible:
            continue
        assert certify_undetectable(sys, no_info, longer).undetectable
        assert np.array_equal(longer.frames[: sys.n + 1], attack.frames)
        hits += 1
    assert hits >= 8


def _dense_min_norm(sys, x0, t):
    """Minimum-norm E with M_t E = -O_t x0 from the oracle stacking, or None
    when the dense problem is not decided with a margin.

    Margin rule: no singular value of M_t lies in (1e-12, 1e-6] times the
    largest (so the rank is not a rounding call and the minimizer's
    condition number is below 1e6), and the minimizer leaves a relative
    residual of at most 1e-10, a hundred times below the package's default
    ``residual_rel``.  Non-minimum-phase draws whose exact attack needs
    |z|^t growth fail the second clause, because their tiny singular values
    fall below the cut.
    """
    m = stack_io(sys.a, sys.b, sys.c, sys.d, t)
    rhs = -stack_obs(sys.a, sys.c, t) @ x0
    u, sv, vh = np.linalg.svd(m, full_matrices=False)
    if not rank_has_margin(sv):
        return None
    r = int(np.sum(sv > 1e-6 * sv[0]))
    e = vh[:r].T @ ((u[:, :r].T @ rhs) / sv[:r])
    if np.linalg.norm(m @ e - rhs) > 1e-10 * max(1.0, np.linalg.norm(rhs)):
        return None
    return e.reshape(t + 1, sys.s)


def _assert_matches_dense(frames, dense):
    # a condition number below 1e6 bounds the rounding of either solve by
    # about 1e6 * 1e-16 per unit of norm; 1e-8 leaves a factor 100 for
    # the stacking and the recursion's accumulation
    want = float(np.linalg.norm(dense))
    assert np.linalg.norm(frames - dense) <= 1e-8 * want
    # the dense minimizer is the smallest solution: the recursion may not
    # beat it, nor exceed it beyond rounding
    assert np.linalg.norm(frames) <= (1.0 + 1e-9) * want


@settings(derandomize=True, max_examples=60, deadline=None)
@given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**32 - 1), t=st.integers(0, 40))
def test_nulling_frames_match_dense_min_norm(shape, seed, t):
    # any start in the iterate V_{t+1} admits t+1 nulled outputs; short
    # horizons reach the tall plants, whose fixed point is V = {0}
    rng = np.random.default_rng(seed)
    sys = rand_shaped_system(rng, shape)
    iterates = weakly_unobservable_iterates(sys)
    start = iterates[min(t + 1, len(iterates) - 1)]
    assume(start.dim > 0)
    x0 = start.basis @ rng.standard_normal(start.dim)
    dense = _dense_min_norm(sys, x0, t)
    assume(dense is not None)
    frames = _nulling_frames(sys, x0, t, Tol())
    assert frames is not None
    _assert_matches_dense(frames, dense)


def _frames_with_cost_to_go(sys, x0, t):
    """``_nulling_frames`` with the cost-to-go P formed at every step, read
    or not: the reference for the recursion that skips it."""
    nulling = _nulling_factors(sys, Tol())
    last = len(nulling) - 1
    gains = np.empty((t + 1, sys.s, sys.n))
    p = np.zeros((sys.n, sys.n))
    for k in range(t, -1, -1):
        gain, null = nulling[min(t - k, last)]
        closed, bn = sys.a + sys.b @ gain, sys.b @ null
        if null.shape[1]:
            pbn = p @ bn
            z = np.linalg.solve(np.eye(null.shape[1]) + bn.T @ pbn, pbn.T @ closed)
            gain = gain - null @ z
            closed = closed - bn @ z
        p = closed.T @ p @ closed + gain.T @ gain
        gains[k] = gain
    frames = np.empty((t + 1, sys.s))
    x = x0
    for k in range(t + 1):
        frames[k] = gains[k] @ x
        x = sys.a @ x + sys.b @ frames[k]
    return frames


@settings(derandomize=True, max_examples=60, deadline=None)
@given(shape=st.sampled_from(("square", "tall")), seed=st.integers(0, 2**32 - 1),
       t=st.integers(0, 40))
def test_nulling_frames_without_free_inputs_skip_the_cost_to_go(shape, seed, t):
    # no factor in use has a free input, so the gains never read P: the
    # frames are the reference's bit for bit
    rng = np.random.default_rng(seed)
    if shape == "square":
        sys = rand_system(rng)
        assume(sys.p == sys.s)
    else:
        sys = rand_shaped_system(rng, "tall")
    nulling = _nulling_factors(sys, Tol())
    assume(not any(null.shape[1] for _, null in nulling[: t + 1]))
    iterates = weakly_unobservable_iterates(sys)
    start = iterates[min(t + 1, len(iterates) - 1)]
    assume(start.dim > 0)
    x0 = start.basis @ rng.standard_normal(start.dim)
    frames = _nulling_frames(sys, x0, t, Tol())
    assert frames is not None
    assert np.array_equal(frames, _frames_with_cost_to_go(sys, x0, t))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 36))
def test_undetectable_from_theta_matches_dense_min_norm(shape, seed, extra):
    rng = np.random.default_rng(seed)
    sys = rand_shaped_system(rng, shape)
    t = sys.n - 1 + extra
    v = weakly_unobservable(sys)
    assume(v.dim > 0)
    theta = v.basis @ rng.standard_normal(v.dim)
    dense = _dense_min_norm(sys, theta, t)
    assume(dense is not None)
    attack = undetectable_from_theta(sys, SideInformation.none(sys.n), theta, t)
    _assert_matches_dense(attack.frames, dense)


def test_from_theta_on_rotated_relative_degree_2_plant_is_min_norm():
    # companion form with a zero at 0.5 and relative degree 2, so V has
    # dimension 1.  CB = 0 puts B in V_1 = ker C, and the input block
    # [D; RB] of V_1 is rounding noise: a rank cut relative to its own
    # largest singular value took it for rank 1, and gave a gain near 1e15
    # and frames up to 50 times the minimum norm
    rng = np.random.default_rng(2)
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.1, -0.2, 0.3]])
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        sys = LtiSystem(a=q @ a @ q.T, b=q[:, 2:], c=np.array([[-0.5, 1.0, 0.0]]) @ q.T,
                        d=np.zeros((1, 1)))
        v = weakly_unobservable(sys)
        assert v.dim == 1
        for t in (2, 3):
            dense = _dense_min_norm(sys, v.basis[:, 0], t)
            assert dense is not None
            attack = undetectable_from_theta(sys, SideInformation.none(3), v.basis[:, 0], t)
            _assert_matches_dense(attack.frames, dense)


def test_cached_plant_leaves_synthesis_nothing_to_factorize(aircraft_sys, monkeypatch):
    # the nulling factors are kept with the iterates, so once a plant's
    # iterates are cached the tail recursions need no factorization
    no_info = SideInformation.none(4)
    modes = find_zero_dynamics_modes(aircraft_sys, lambda_hints=[AIR_LAMBDA])
    mode = [m for m in modes if abs(m.lam - AIR_LAMBDA) < 1e-12][0]
    attack = zero_dynamics_attack(mode, 30, 10.0)
    cert = certify_undetectable(aircraft_sys, no_info, attack)
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    undetectable_from_theta(aircraft_sys, no_info, mode.theta.real, 12)
    extend_attack(aircraft_sys, no_info, attack, cert, 34)
    assert calls == []
    numerical_rank(aircraft_sys.b)
    assert len(calls) == 1


def _mode_lambdas(sys, hints=None, allow_unstable=False):
    try:
        return [m.lam for m in find_zero_dynamics_modes(sys, lambda_hints=hints,
                                                        allow_unstable=allow_unstable)]
    except NoModes:
        return []


@settings(derandomize=True, max_examples=150, deadline=None)
@given(shape=st.sampled_from(("any", "tall", "no_feedthrough", "unstable")),
       seed=st.integers(0, 2**32 - 1),
       log10_cond=st.integers(0, 7))
def test_modes_match_pencil_oracle(shape, seed, log10_cond):
    """Modes of plants with s <= p against the QZ search of the oracle.

    A draw is a random plant, rescaled in state space by a diagonal T with
    cond(T) = 10**log10_cond (``oracles.ill_conditioned``; cond(A) grows up
    to cond(T)**2).  Zeros are invariant under the rescaling, and the
    oracle's unbalanced QZ loses accuracy on a badly scaled pencil, so the
    reference is always the oracle on the unscaled plant.

    Margin rules: drop a draw when an oracle candidate zero lies within a
    factor 3 of ``_LAMBDA_CAP`` (which side of the cap it falls on is a
    rounding call), or when the rescaled plant's weakly unobservable
    subspace has another dimension than the unscaled one's (the exact
    subspaces are similar, so a different dimension means the recursion's
    rank cuts were decided by rounding at that scaling).
    """
    rng = np.random.default_rng(seed)
    base = rand_system(rng) if shape == "any" else rand_shaped_system(rng, shape)
    assume(base.s <= base.p)
    sys = ill_conditioned(base, rng, log10_cond) if log10_cond else base
    assume(all(not _LAMBDA_CAP / 3 <= abs(z) <= 3 * _LAMBDA_CAP
               for z in pencil_zero_candidates(base)))
    assume(weakly_unobservable(sys).dim == weakly_unobservable(base).dim)
    want = pencil_modes_oracle(base, cap=_LAMBDA_CAP)
    got = _mode_lambdas(sys)
    assert len(got) == len(want)
    for lam, ref in zip(got, want):
        assert abs(lam - ref) <= 1e-7 * (1.0 + abs(ref))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(shape=st.sampled_from(("any", "wide", "no_feedthrough", "unstable")),
       seed=st.integers(0, 2**32 - 1),
       hints=st.lists(st.complex_numbers(max_magnitude=1.5, allow_nan=False), max_size=3),
       allow_unstable=st.booleans())
def test_scanned_modes_match_scan_oracle(shape, seed, hints, allow_unstable):
    """Modes of plants whose pencil has a null vector at every lambda (free
    inputs on V, so ``zero_state_attack_exists``) against one pencil SVD per
    candidate lambda.

    Margin rule: drop a draw when the pencil at some candidate has a
    singular value in (1e-12, 1e-6] times its largest
    (``oracles.rank_has_margin``), so the count of null vectors there is a
    rounding call.
    """
    rng = np.random.default_rng(seed)
    sys = rand_system(rng) if shape == "any" else rand_shaped_system(rng, shape)
    assume(zero_state_attack_exists(sys))
    assume(all(rank_has_margin(np.linalg.svd(pencil(sys, lam), compute_uv=False))
               for lam in scan_candidates(sys, hints, allow_unstable)))
    want = scanned_modes_oracle(sys, hints, allow_unstable)
    got = _mode_lambdas(sys, hints, allow_unstable)
    assert len(got) == len(want)
    for lam, ref in zip(got, want):
        assert abs(lam - ref) <= 1e-12 * (1.0 + abs(ref))


def _pencil_svds(monkeypatch, sys):
    """Record the lambda of every SVD of a pencil-shaped matrix."""
    calls = []
    svd = np.linalg.svd

    def counted(m, *args, **kwargs):
        if m.shape == (sys.n + sys.p, sys.n + sys.s):
            calls.append(complex(m[0, 0] + sys.a[0, 0]))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _assert_scan_matches_oracle(sys, hints, monkeypatch):
    # no candidate lies on an eigenvalue of Abar, so none takes the pencil SVD
    for allow_unstable in (False, True):
        calls = _pencil_svds(monkeypatch, sys)
        got = _mode_lambdas(sys, hints, allow_unstable)
        monkeypatch.undo()
        assert calls == []
        want = scanned_modes_oracle(sys, hints, allow_unstable)
        assert want and got == want


def test_wide_bench_shaped_plant_matches_scan_oracle(monkeypatch):
    # p=2, s=3, D=0 and A = 0.95 Q: V = ker C, one free input on it
    g = np.random.default_rng(60)
    q, _ = np.linalg.qr(g.standard_normal((60, 60)))
    sys = LtiSystem(a=0.95 * q, b=g.standard_normal((60, 3)) / np.sqrt(60),
                    c=g.standard_normal((2, 60)) / np.sqrt(60), d=np.zeros((2, 3)))
    _assert_scan_matches_oracle(sys, [0.93], monkeypatch)


def test_repeated_rows_plant_matches_scan_oracle(repeated_rows_plant, monkeypatch):
    _assert_scan_matches_oracle(repeated_rows_plant, [0.2, 1.5], monkeypatch)


def test_hint_on_an_eigenvalue_of_abar_takes_the_pencil_svd(aircraft_sys, monkeypatch):
    # an eigenvalue mu of V^T (A + BG) V: (lambda I - Abar) is singular at
    # the hint, so dividing by lambda - mu is not defined there
    v = weakly_unobservable(aircraft_sys)
    gain, _ = _nulling_factors(aircraft_sys, Tol())[-1]
    mus = np.linalg.eig(v.basis.T @ (aircraft_sys.a + aircraft_sys.b @ gain) @ v.basis)[0]
    mu = complex(mus[np.argmin(np.abs(mus - AIR_LAMBDA))])
    assert abs(mu - AIR_LAMBDA) < 1e-3 and mu.imag == 0.0
    calls = _pencil_svds(monkeypatch, aircraft_sys)
    modes = find_zero_dynamics_modes(aircraft_sys, lambda_hints=[mu])
    assert calls == [mu]
    at_mu = [m for m in modes if m.lam == mu]
    assert len(at_mu) == 1 and at_mu[0].pencil_residual <= 1e-12
    monkeypatch.undo()
    assert [m.lam for m in modes] == scanned_modes_oracle(aircraft_sys, [mu], False)


def _defective_plant(n):
    # D = [1 0] nulls the output with G = -[C; 0], and B G = 0, so V is the
    # whole space and Abar = A, a Jordan block at 0.5: X is ill-conditioned
    # (n = 2, cond ~ 1e16) or exactly singular (n = 25)
    a = 0.5 * np.eye(n) + np.eye(n, k=1)
    b = np.zeros((n, 2))
    b[-1, 1] = 1.0
    return LtiSystem(a=a, b=b, c=np.eye(1, n), d=np.array([[1.0, 0.0]]))


@pytest.mark.parametrize("n", [2, 25])
def test_defective_abar_takes_the_pencil_svd(n, monkeypatch):
    # the eigenvector formula fails at the hint 0.2, and both candidates
    # take the SVD
    sys = _defective_plant(n)
    calls = _pencil_svds(monkeypatch, sys)
    got = _mode_lambdas(sys, [0.2])
    assert sorted(calls, key=lambda z: z.real) == [0.2, 0.5]
    monkeypatch.undo()
    assert got == scanned_modes_oracle(sys, [0.2], False) == [0.2, 0.5]


def _reference_mode(sys, lam, v, tol):
    """One candidate verified as a product with the whole pencil."""
    v = _canonical_phase(v)
    if np.max(np.abs(v.imag)) <= 1e-12 and abs(lam.imag) <= 1e-12:
        v, lam = v.real.astype(complex), complex(lam.real)
    theta, g = v[: sys.n], v[sys.n :]
    if np.linalg.norm(g) <= 1e-8 or np.linalg.norm(theta) <= 1e-8:
        return None
    resid = float(np.linalg.norm(_pencil(sys, lam) @ v))
    ok = resid <= tol.residual_rel * max(1.0, np.linalg.norm(theta) + np.linalg.norm(g))
    return ZeroDynamicsMode(lam, g, theta, resid) if ok else None


def _verified_batches(monkeypatch):
    """Record the input and the output of every ``_verified`` call."""
    batches = []
    verified = ltisec.synthesis._verified

    def recorded(sys, lam, w, tol):
        out = verified(sys, lam, w, tol)
        batches.append((lam.copy(), w.copy(), out))
        return out

    monkeypatch.setattr(ltisec.synthesis, "_verified", recorded)
    return batches


def _plants_to_verify():
    rng = np.random.default_rng(17)
    draws = [(rand_shaped_system(rng, shape), [0.3, 0.7 + 0.2j]) for shape in SHAPES for _ in range(6)]
    draws += [(rand_system(rng), [0.5]) for _ in range(12)]
    return draws


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [2, 25])
def test_batched_verification_matches_pencil_products(n, monkeypatch,
                                                      repeated_rows_plant, nonminimum_phase_plant):
    # every candidate of the eigenvector path (s <= p) and of the scanned
    # path, the pencil SVD fallback included, against one product with the
    # whole pencil per candidate: the same kept set, lambda, theta and g,
    # and residuals equal up to rounding
    tol = Tol()
    plants = [(_defective_plant(n), [0.2]), (repeated_rows_plant, [0.2, 1.5]),
              (nonminimum_phase_plant, None)] + (_plants_to_verify() if n == 2 else [])
    batches = _verified_batches(monkeypatch)
    paths = set()
    for sys, hints in plants:
        batches.clear()
        try:
            find_zero_dynamics_modes(sys, tol, hints, allow_unstable=True)
        except NoModes:
            pass
        for lam, w, out in batches:
            assert np.isfinite(w).all()
            paths.add(zero_state_attack_exists(sys))
            scale = 1.0 + float(np.max(np.abs(lam), initial=0.0)) + np.linalg.norm(
                np.block([[sys.a, sys.b], [sys.c, sys.d]]), 2)
            for j, got in enumerate(out):
                want = _reference_mode(sys, complex(lam[j]), w[:, j], tol)
                assert (got is None) == (want is None)
                if got is None:
                    continue
                assert got.lam == want.lam
                assert np.array_equal(got.theta, want.theta) and np.array_equal(got.g, want.g)
                assert abs(got.pencil_residual - want.pencil_residual) <= 1e-14 * scale
    # both the eigenvector path and the scanned path were checked
    assert paths == {False, True}


@pytest.fixture(scope="module")
def nonminimum_phase_plant():
    # (z - 4.5)(z - 0.5) / ((z - 0.2)(z - 0.3)(z - 0.4)) in controllable
    # form, D = 0: V is the two-dimensional zero-dynamics subspace, and
    # output-nulling attacks along the z = 4.5 direction grow like 4.5^k
    den = np.poly([0.2, 0.3, 0.4])
    a = np.zeros((3, 3))
    a[:-1, 1:] = np.eye(2)
    a[-1] = -den[:0:-1]
    return LtiSystem(a=a, b=np.array([[0.0], [0.0], [1.0]]),
                     c=np.array([np.poly([4.5, 0.5])[::-1]]), d=np.zeros((1, 1)))


# At T = 12 the verified residuals of both constructions sit within 10 % of
# the threshold (0.91x and 1.08x here), so that horizon is decided by
# rounding; T = 14 is already 15x above it.  By T = 300 the cost-to-go of
# the recursion overflows, and by T = 600 so would the frames.
@pytest.mark.parametrize("t", [14, 60, 300, 600])
def test_nonminimum_phase_theta_rejected(nonminimum_phase_plant, t):
    sys = nonminimum_phase_plant
    theta = weakly_unobservable(sys).basis @ np.array([0.6, 0.8])
    no_info = SideInformation.none(3)
    # short horizons are realized and certified
    short = undetectable_from_theta(sys, no_info, theta, 8)
    assert certify_undetectable(sys, no_info, short).undetectable
    with pytest.raises(ThetaNotFeasible):
        undetectable_from_theta(sys, no_info, theta, t)


@pytest.mark.parametrize("t_prime", [14, 60, 300, 600])
def test_nonminimum_phase_extension_rejected(nonminimum_phase_plant, t_prime):
    sys = nonminimum_phase_plant
    no_info = SideInformation.none(3)
    mode = [m for m in find_zero_dynamics_modes(sys) if abs(m.lam - 4.5) < 1e-6][0]
    attack = zero_dynamics_attack(mode, 2)
    cert = certify_undetectable(sys, no_info, attack)
    longer = extend_attack(sys, no_info, attack, cert, 8)
    assert certify_undetectable(sys, no_info, longer).undetectable
    with pytest.raises(NotExtensible):
        extend_attack(sys, no_info, attack, cert, t_prime)


def test_long_horizon_aircraft_synthesis(aircraft_sys):
    # dense M_T took 24 s for T=1000; the recursion is O(T)
    no_info = SideInformation.none(4)
    modes = find_zero_dynamics_modes(aircraft_sys, lambda_hints=[AIR_LAMBDA])
    mode = [m for m in modes if abs(m.lam - AIR_LAMBDA) < 1e-12][0]
    theta = 5.0 * mode.theta.real
    start = time.perf_counter()
    attack = undetectable_from_theta(aircraft_sys, no_info, theta, 1000)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    cert = certify_undetectable(aircraft_sys, no_info, attack)
    assert cert.undetectable
    assert np.linalg.norm(cert.induced_state - theta) <= 1e-6 * np.linalg.norm(theta)

    base = zero_dynamics_attack(mode, 300, 10.0)
    base_cert = certify_undetectable(aircraft_sys, no_info, base)
    start = time.perf_counter()
    longer = extend_attack(aircraft_sys, no_info, base, base_cert, 1000)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert longer.horizon_t == 1000
    assert np.array_equal(longer.frames[:301], base.frames)
    cert2 = certify_undetectable(aircraft_sys, no_info, longer)
    assert cert2.undetectable
    assert np.linalg.norm(cert2.induced_state - base_cert.induced_state) <= 1e-8
