import dataclasses
import importlib
import pkgutil
import types

import numpy as np
import pytest

import ltisec
from ltisec import (
    AttackClass,
    AttackSequence,
    DetectorConfig,
    DetectorSession,
    DimensionMismatch,
    EpochDecision,
    HorizonTooShort,
    LtiSystem,
    NonFinite,
    NotUndetectable,
    SideInformation,
    Tol,
    Trajectory,
    UndetectabilityCertificate,
    ValidationReport,
    aircraft_path,
    certify_undetectable,
    classify,
    ctrl_matrix,
    extension_verdict,
    load_scenario,
    run_detector,
    io_matrix,
    obs_matrix,
    output_nulling_reachable,
    propagate,
    simulate,
    solve_min_norm,
    validate,
    weakly_unobservable,
)
from ltisec.model import _markov_from_obs
from ltisec.subspaces import _null_omega_meet_v
from ltisec.synthesis import (
    extend_attack,
    find_zero_dynamics_modes,
    undetectable_from_theta,
    zero_dynamics_attack,
    zero_state_synthesize,
)

from oracles import SHAPES, rand_shaped_system, rand_system, stack_io


def test_validate_aircraft(aircraft_sys):
    report = validate(aircraft_sys)
    assert report.observable
    assert report.bd_injective
    assert report.ok
    sv = np.linalg.svd(np.vstack([aircraft_sys.b, aircraft_sys.d]), compute_uv=False)
    assert sv[-1] > 1e-10 * sv[0]


def test_validate_unobservable_pair():
    sys = LtiSystem(
        a=np.zeros((2, 2)), b=np.array([[1.0], [0.0]]),
        c=np.array([[1.0, 0.0]]), d=np.array([[0.0]]),
    )
    assert not validate(sys).observable


def test_validate_duplicate_input_column():
    sys = LtiSystem(
        a=np.eye(2), b=np.array([[1.0, 1.0], [1.0, 1.0]]),
        c=np.array([[1.0, 0.0]]), d=np.array([[0.0, 0.0]]),
    )
    assert not validate(sys).bd_injective


def test_system_shape_checks():
    with pytest.raises(DimensionMismatch):
        LtiSystem(a=np.zeros((2, 3)), b=np.zeros((2, 1)), c=np.zeros((1, 2)), d=np.zeros((1, 1)))
    with pytest.raises(DimensionMismatch):
        LtiSystem(a=np.eye(2), b=np.zeros((3, 1)), c=np.zeros((1, 2)), d=np.zeros((1, 1)))
    with pytest.raises(DimensionMismatch):
        LtiSystem(a=np.eye(2), b=np.zeros((2, 1)), c=np.zeros((1, 2)), d=np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch, match=r"^C must have 2 columns, got \(1, 3\)$"):
        LtiSystem(a=np.eye(2), b=np.zeros((2, 1)), c=np.zeros((1, 3)), d=np.zeros((1, 1)))


def test_obs_matrix_horizon_zero(aircraft_sys):
    assert np.array_equal(obs_matrix(aircraft_sys, 0), aircraft_sys.c)


def test_obs_matrix_identity_dynamics():
    sys = LtiSystem(a=np.eye(2), b=np.zeros((2, 1)), c=np.array([[1.0, 2.0]]), d=np.zeros((1, 1)))
    stacked = obs_matrix(sys, 3)
    assert np.allclose(stacked, np.vstack([sys.c] * 4))


def test_obs_matrix_aircraft_rank(aircraft_sys):
    m = obs_matrix(aircraft_sys, 3)
    assert m.shape == (12, 4)
    assert np.linalg.matrix_rank(m) == 4


def test_io_matrix_horizon_zero(aircraft_sys):
    assert np.array_equal(io_matrix(aircraft_sys, 0), aircraft_sys.d)


def test_io_matrix_no_sensing_is_block_diagonal():
    sys = LtiSystem(
        a=np.array([[0.5, 0.1], [0.0, 0.2]]), b=np.eye(2),
        c=np.zeros((2, 2)), d=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    m = io_matrix(sys, 2)
    expect = np.kron(np.eye(3), sys.d)
    assert np.allclose(m, expect)


def test_io_matrix_block_layout(rng):
    sys = rand_system(rng)
    t = 3
    m = io_matrix(sys, t)
    p, s = sys.p, sys.s
    for i in range(t + 1):
        for j in range(t + 1):
            block = m[i * p : (i + 1) * p, j * s : (j + 1) * s]
            if j > i:
                assert np.allclose(block, 0.0)
            elif j == i:
                assert np.allclose(block, sys.d)
            else:
                expect = sys.c @ np.linalg.matrix_power(sys.a, i - j - 1) @ sys.b
                assert np.allclose(block, expect)


def test_io_matrix_nested_in_longer_horizon(rng):
    sys = rand_system(rng)
    t = 2
    small = io_matrix(sys, t)
    big = io_matrix(sys, t + 1)
    p, s = sys.p, sys.s
    assert np.array_equal(big[: p * (t + 1), : s * (t + 1)], small)
    assert np.allclose(big[: p * (t + 1), s * (t + 1) :], 0.0)


def test_ctrl_matrix_horizon_zero(aircraft_sys):
    assert np.array_equal(ctrl_matrix(aircraft_sys, 0), aircraft_sys.b)


def test_ctrl_matrix_nilpotent_case():
    sys = LtiSystem(a=np.zeros((2, 2)), b=np.array([[1.0], [2.0]]),
                    c=np.eye(2), d=np.zeros((2, 1)))
    m = ctrl_matrix(sys, 2)
    assert np.allclose(m[:, :2], 0.0)
    assert np.allclose(m[:, 2:], sys.b)


def test_ctrl_obs_transpose_duality(rng):
    sys = rand_system(rng)
    t = 3
    ctrl = ctrl_matrix(sys, t)
    dual = LtiSystem(a=sys.a.T, b=np.zeros((sys.n, 1)), c=sys.b.T, d=np.zeros((sys.s, 1)))
    stacked = obs_matrix(dual, t).T  # [B, AB, ..., A^t B]
    s = sys.s
    for j in range(t + 1):
        assert np.allclose(ctrl[:, j * s : (j + 1) * s], stacked[:, (t - j) * s : (t - j + 1) * s])


def test_simulate_zero_everything(aircraft_sys, aircraft_side):
    attack = AttackSequence.zeros(aircraft_sys.s, 5)
    traj = simulate(aircraft_sys, np.zeros(4), attack, aircraft_side)
    assert np.allclose(traj.outputs, 0.0)
    assert np.allclose(traj.side_value, 0.0)


def test_simulate_unattacked_matches_obs_stack(rng):
    sys = rand_system(rng)
    side = SideInformation.none(sys.n)
    x0 = rng.standard_normal(sys.n)
    attack = AttackSequence.zeros(sys.s, 6)
    traj = simulate(sys, x0, attack, side)
    assert np.allclose(traj.outputs.reshape(-1), obs_matrix(sys, 6) @ x0, atol=1e-9)


def test_simulate_stacking_identity(rng):
    for _ in range(30):
        sys = rand_system(rng)
        t = int(rng.integers(1, 8))
        attack = AttackSequence(rng.standard_normal((t + 1, sys.s)))
        x0 = rng.standard_normal(sys.n)
        side = SideInformation(rng.standard_normal((2, sys.n)))
        traj = simulate(sys, x0, attack, side)
        expect = obs_matrix(sys, t) @ x0 + io_matrix(sys, t) @ attack.stacked
        scale = max(1.0, np.linalg.norm(expect))
        assert np.linalg.norm(traj.outputs.reshape(-1) - expect) <= 1e-9 * scale
        assert np.allclose(traj.side_value, side.omega @ x0)


def test_simulate_shape_checks(aircraft_sys, aircraft_side):
    with pytest.raises(DimensionMismatch):
        simulate(aircraft_sys, np.zeros(3), AttackSequence.zeros(4, 2), aircraft_side)
    with pytest.raises(DimensionMismatch):
        simulate(aircraft_sys, np.zeros(4), AttackSequence.zeros(2, 2), aircraft_side)


def test_ctrl_matrix_matches_recursion(aircraft_sys, aircraft_attack, aircraft_side):
    # state reached from rest equals the stacked product
    traj_state = np.zeros(4)
    for k in range(aircraft_attack.horizon_t + 1):
        traj_state = aircraft_sys.a @ traj_state + aircraft_sys.b @ aircraft_attack.frames[k]
    stacked = ctrl_matrix(aircraft_sys, aircraft_attack.horizon_t) @ aircraft_attack.stacked
    assert np.allclose(traj_state, stacked, atol=1e-9)


def test_aircraft_stacked_identity_printed_attack(aircraft_sys, aircraft_attack):
    # the bundled frames are rounded to 4 digits, so the best explaining
    # shift leaves a residual at print precision, well under 1e-3 relative
    t = aircraft_attack.horizon_t
    rhs = -(io_matrix(aircraft_sys, t) @ aircraft_attack.stacked)
    theta, res = solve_min_norm(obs_matrix(aircraft_sys, t), -rhs)
    assert res <= 1e-3 * np.linalg.norm(rhs)


def test_aircraft_stacked_identity_resolved_mode(aircraft_sys):
    # rebuilding the attack from a machine-precision mode tightens the same
    # residual to 1e-6 relative and far beyond
    mode = [m for m in find_zero_dynamics_modes(aircraft_sys, lambda_hints=[0.9779])
            if abs(m.lam - 0.9779) < 1e-12][0]
    attack = zero_dynamics_attack(mode, 30, 10.0)
    theta = 10.0 * mode.theta.real
    lhs = io_matrix(aircraft_sys, 30) @ attack.stacked + obs_matrix(aircraft_sys, 30) @ theta
    rhs_norm = np.linalg.norm(io_matrix(aircraft_sys, 30) @ attack.stacked)
    assert np.linalg.norm(lhs) <= 1e-6 * max(1.0, rhs_norm)


def test_attack_sequence_helpers():
    a = AttackSequence(np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]]))
    assert a.s == 2
    assert a.horizon_t == 2
    assert np.array_equal(a.stacked, [1.0, 0.0, 0.0, 2.0, 3.0, 0.0])
    assert not a.is_zero
    assert AttackSequence.zeros(2, 4).is_zero
    assert np.array_equal(a.stacked.reshape(-1, a.s), a.frames)
    assert AttackSequence(a.frames[:2]).horizon_t == 1
    with pytest.raises(DimensionMismatch):
        AttackSequence(np.zeros((0, 2)))


def _feedthrough_plant(n: int) -> LtiSystem:
    # D = 1 nulls the output from every state, so V is the whole space and
    # ker(Omega) meet V is ker(Omega)
    return LtiSystem(a=0.5 * np.eye(n, k=1), b=np.ones((n, 1)), c=np.eye(1, n), d=np.eye(1))


def test_side_information_kernel():
    sys, tol = _feedthrough_plant(4), Tol()
    assert weakly_unobservable(sys).dim == 4
    side = SideInformation(np.array([[1.0, 0.0, 0.0, 0.0]]))
    assert side.q == 1
    assert _null_omega_meet_v(sys, side, tol).dim == 3
    assert _null_omega_meet_v(sys, SideInformation(np.eye(4)), tol).dim == 0
    assert _null_omega_meet_v(sys, SideInformation.none(4), tol).dim == 4
    with pytest.raises(DimensionMismatch):
        _null_omega_meet_v(sys, SideInformation.none(3), tol)


def test_side_value_of_a_state_of_the_wrong_length(aircraft_side):
    # the message propagate gives for the same x0
    with pytest.raises(DimensionMismatch, match=r"^x0 has length 3, expected 4$"):
        aircraft_side.value_for(np.zeros(3))
    assert aircraft_side.value_for(np.ones((4, 1))).shape == (1,)


def test_side_value_of_a_non_finite_state(aircraft_side):
    with pytest.raises(NonFinite, match="x0"):
        aircraft_side.value_for(np.array([0.0, np.nan, 0.0, 0.0]))


# Every matrix the package accepts passes numlin._as_matrix, every length-n
# vector numlin._as_vector and every count numlin._as_count; each names the
# argument it refused.

@pytest.mark.parametrize("name", ["A", "Omega", "attack frames", "outputs"])
def test_a_three_dimensional_array_is_refused(aircraft, name):
    sys, side, attack = aircraft.system, aircraft.side, aircraft.attack
    build = {
        "A": lambda: LtiSystem(sys.a[:, :, None], sys.b, sys.c, sys.d),
        "Omega": lambda: SideInformation(side.omega[:, :, None]),
        "attack frames": lambda: AttackSequence(attack.frames[:, :, None]),
        "outputs": lambda: Trajectory(np.zeros((3, 2, 1)), np.zeros(4), np.zeros(1)),
    }[name]
    with pytest.raises(DimensionMismatch, match=f"^{name} must be two-dimensional"):
        build()


@pytest.mark.parametrize("name, build", [
    ("attack frames", lambda sc: AttackSequence([[1, 2, 3, 4], [1]])),
    ("B", lambda sc: LtiSystem(sc.system.a, [[1.0], [1.0, 2.0], [0.0], [0.0]], sc.system.c,
                               sc.system.d)),
    ("Omega", lambda sc: SideInformation([[1.0, "x", 0.0, 0.0]])),
    ("x0", lambda sc: propagate(sc.system, [0.0, [1.0], 0.0, 0.0], sc.attack)),
    ("scale", lambda sc: zero_state_synthesize(sc.system, 8, scale="x")),
    ("theta", lambda sc: undetectable_from_theta(sc.system, sc.side, {"a": 1}, 8)),
    ("lambda hint", lambda sc: find_zero_dynamics_modes(sc.system, lambda_hints=["abc"])),
    # numbers written as text, which numpy would parse
    ("scale", lambda sc: zero_state_synthesize(sc.system, 3, scale="2")),
    ("Omega", lambda sc: SideInformation([["1", "0", "0", "0"]])),
    ("theta", lambda sc: undetectable_from_theta(sc.system, sc.side, np.array(["0", "0", "0", "0"]), 8)),
    ("lambda hint", lambda sc: find_zero_dynamics_modes(sc.system, lambda_hints=["0.9779"])),
    ("output frame", lambda sc: DetectorSession(sc.system, DetectorConfig(5, sc.side), [0.0]).push(
        ["1", "0", "0"])),
    # complex data where real numbers belong: an array used to lose its
    # imaginary part behind a ComplexWarning
    ("Omega", lambda sc: SideInformation(np.array([[1 + 2j, 0, 0, 0]]))),
    ("Omega", lambda sc: SideInformation([[1 + 2j, 0, 0, 0]])),
    ("x0", lambda sc: propagate(sc.system, np.zeros(4, dtype=complex), sc.attack)),
], ids=["frames", "B", "Omega", "x0", "scale", "theta", "lambda_hint", "scale_text", "Omega_text",
        "theta_text", "lambda_hint_text", "output_frame_text", "Omega_complex_array", "Omega_complex_list",
        "x0_complex"])
def test_a_ragged_or_non_numeric_array_is_refused(aircraft, name, build):
    with pytest.raises(DimensionMismatch, match=f"^{name} is not a numeric array"):
        build(aircraft)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_propagate_refuses_a_non_finite_state(aircraft_sys, aircraft_attack, bad):
    # a NaN used to run through to a NaN final state, an infinity to a warning
    with pytest.raises(NonFinite, match="^x0 contains NaN or infinite entries$"):
        propagate(aircraft_sys, np.array([bad, 0.0, 0.0, 0.0]), aircraft_attack)


def test_a_vector_of_the_wrong_length_is_named(aircraft):
    sys, side, attack = aircraft.system, aircraft.side, aircraft.attack
    wrong = r"^{} has length {}, expected {}$"
    with pytest.raises(DimensionMismatch, match=wrong.format("theta", 3, 4)):
        undetectable_from_theta(sys, side, np.zeros(3), 8)
    cert = UndetectabilityCertificate(True, np.zeros(3), 0.0, True, True)
    with pytest.raises(DimensionMismatch, match=wrong.format("theta", 3, 4)):
        extension_verdict(sys, side, attack, cert)
    with pytest.raises(DimensionMismatch, match=wrong.format("x0", 3, 4)):
        propagate(sys, np.zeros(3), attack)
    with pytest.raises(DimensionMismatch, match=wrong.format("x0", 5, 4)):
        simulate(sys, np.zeros(5), attack, side)
    with pytest.raises(DimensionMismatch, match=wrong.format("y_omega", 2, 1)):
        DetectorSession(sys, DetectorConfig(5, side), np.zeros(2))


# every call that takes a count: its name, a non-integer, and the least
# count it accepts on the bundled aircraft (n = 4, attack horizon 30)
_COUNTS = {
    "zero_dynamics_attack": ("t", 2.5, 0, lambda sc, v: zero_dynamics_attack(_aircraft_mode(sc), v)),
    "zero_state_synthesize": ("t", 2.5, 1, lambda sc, v: zero_state_synthesize(sc.system, v)),
    "undetectable_from_theta": ("t", 10.5, 3, lambda sc, v: undetectable_from_theta(
        sc.system, sc.side, np.zeros(4), v)),
    "extend_attack": ("t_prime", 40.5, 31, lambda sc, v: extend_attack(
        sc.system, sc.side, sc.attack, certify_undetectable(sc.system, sc.side, sc.attack), v)),
    "obs_matrix": ("t", 2.5, 0, lambda sc, v: obs_matrix(sc.system, v)),
    "io_matrix": ("t", 2.5, 0, lambda sc, v: io_matrix(sc.system, v)),
    "ctrl_matrix": ("t", 2.5, 0, lambda sc, v: ctrl_matrix(sc.system, v)),
    "output_nulling_reachable": ("k", 2.5, 1, lambda sc, v: output_nulling_reachable(sc.system, v)),
    "DetectorConfig": ("window_len_l", 5.5, 5, lambda sc, v: DetectorConfig(v, sc.side)),
    "AttackSequence.zeros": ("horizon_t", 2.5, 0, lambda sc, v: AttackSequence.zeros(sc.system.s, v)),
    "AttackSequence.zeros(s)": ("s", 2.5, 0, lambda sc, v: AttackSequence.zeros(v, 3)),
}


@pytest.mark.parametrize("name, value, call", [
    (name, value, call) for name, value, _, call in _COUNTS.values()
] + [
    ("t", "30", _COUNTS["zero_state_synthesize"][3]),
    ("t", 30.0, _COUNTS["zero_dynamics_attack"][3]),
    # operator.index takes True for 1
    ("t", True, _COUNTS["zero_state_synthesize"][3]),
    ("s", True, _COUNTS["AttackSequence.zeros(s)"][3]),
    ("s", np.True_, _COUNTS["AttackSequence.zeros(s)"][3]),
], ids=[*_COUNTS, "string", "integral_float", "boolean", "boolean_s", "numpy_boolean"])
def test_a_non_integer_count_is_refused(aircraft, name, value, call):
    # 2.5 used to give a T = 3 attack, a TypeError or, for a window, a
    # config that every session refused
    with pytest.raises(DimensionMismatch, match=f"^{name} must be an integer, got {value!r}$"):
        call(aircraft, value)


@pytest.mark.parametrize("name, least, call", [
    (name, least, call) for name, _, least, call in _COUNTS.values()
], ids=list(_COUNTS))
def test_a_count_below_its_least_is_refused(aircraft, name, least, call):
    # the count rule owns every lower bound; certification keeps the
    # paper's T >= n-1 message
    with pytest.raises(HorizonTooShort) as refused:
        call(aircraft, least - 1)
    assert str(refused.value) in (f"{name} is {least - 1}, must be at least {least}",
                                  f"horizon {least - 1} < {least}; undetectability needs T >= n-1")
    try:
        call(aircraft, least)
    except NotUndetectable:
        # past the count, the bundled 4-digit attack is refused as detectable
        # at the default tolerance
        assert name == "t_prime"


def test_an_integer_count_of_any_integer_type_is_an_int(aircraft):
    attack = zero_dynamics_attack(_aircraft_mode(aircraft), np.int64(3))
    assert attack.horizon_t == 3
    config = DetectorConfig(np.int64(5), aircraft.side)
    assert type(config.window_len_l) is int and config == DetectorConfig(5, aircraft.side)
    assert obs_matrix(aircraft.system, np.int32(2)).shape == (3 * aircraft.system.p, 4)


def _aircraft_mode(scenario):
    return find_zero_dynamics_modes(scenario.system, lambda_hints=[0.9779])[0]


def test_trajectory_stacked():
    traj = Trajectory(outputs=np.array([[1.0, 2.0], [3.0, 4.0]]),
                      initial_state=np.zeros(2), side_value=np.zeros(1))
    assert np.array_equal(traj.outputs.reshape(-1), [1.0, 2.0, 3.0, 4.0])
    assert traj.horizon_t == 1


@pytest.mark.parametrize("shape", SHAPES)
def test_propagate_equals_dense_stacked_products(shape):
    # outputs = O_T x0 + M_T E and final state = A^{T+1} x0 + C_T E, up to
    # summation order, relative to the magnitudes of the summed terms
    rng = np.random.default_rng(SHAPES.index(shape))
    for _ in range(8):
        sys = rand_shaped_system(rng, shape)
        for t in (0, 1, 7, 25):
            attack = AttackSequence(rng.standard_normal((t + 1, sys.s)))
            x0 = rng.standard_normal(sys.n)
            ys, x_end = propagate(sys, x0, attack)
            assert ys.shape == (t + 1, sys.p)
            o, m = obs_matrix(sys, t), io_matrix(sys, t)
            scale = np.linalg.norm(np.abs(o) @ np.abs(x0) + np.abs(m) @ np.abs(attack.stacked))
            assert np.linalg.norm(ys.reshape(-1) - (o @ x0 + m @ attack.stacked)) <= 1e-12 * scale
            ap = np.linalg.matrix_power(sys.a, t + 1)
            ct = ctrl_matrix(sys, t)
            want = ap @ x0 + ct @ attack.stacked
            scale = np.linalg.norm(np.abs(ap) @ np.abs(x0) + np.abs(ct) @ np.abs(attack.stacked))
            assert np.linalg.norm(x_end - want) <= 1e-12 * scale


@pytest.mark.parametrize("shape", SHAPES)
def test_io_matrix_matches_oracle_stacking(shape):
    rng = np.random.default_rng(10 + SHAPES.index(shape))
    for _ in range(4):
        sys = rand_shaped_system(rng, shape)
        for t in (0, 1, 12):
            m = io_matrix(sys, t)
            want = stack_io(sys.a, sys.b, sys.c, sys.d, t)
            assert m.flags.writeable
            assert np.allclose(m, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
            assert np.array_equal(_markov_from_obs(sys, obs_matrix(sys, t)), m[:, : sys.s])


@pytest.mark.parametrize("shape", SHAPES)
def test_markov_column_brackets_io_norm(shape):
    # every block column of M_T is a truncated shift of its first, h_T, so
    # ||h_T|| <= ||M_T|| <= sqrt(T+1) ||h_T||; h_T as the zero-state rule
    # reads it from O_T
    rng = np.random.default_rng(20 + SHAPES.index(shape))
    for _ in range(4):
        sys = rand_shaped_system(rng, shape)
        for t in (0, 3, 20):
            h = np.linalg.norm(_markov_from_obs(sys, obs_matrix(sys, t)), 2)
            m = np.linalg.norm(io_matrix(sys, t), 2)
            assert h <= m * (1 + 1e-12)
            assert m <= np.sqrt(t + 1) * h * (1 + 1e-12)


def test_lti_system_holds_read_only_copies(aircraft_sys):
    a = np.array(aircraft_sys.a)
    sys = LtiSystem(a=a, b=aircraft_sys.b, c=aircraft_sys.c, d=aircraft_sys.d)
    a[:] = 0.0
    assert np.array_equal(sys.a, aircraft_sys.a)
    v, want = weakly_unobservable(sys), weakly_unobservable(aircraft_sys)
    assert v.dim == want.dim
    assert np.allclose(v.basis @ v.basis.T, want.basis @ want.basis.T, atol=1e-12)
    for m in (sys.a, sys.b, sys.c, sys.d):
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


def test_side_information_holds_a_read_only_copy():
    om = np.array([[1.0, 0.0]])
    side = SideInformation(om)
    om[:] = [[0.0, 1.0]]
    assert np.array_equal(side.omega, [[1.0, 0.0]])
    meet = _null_omega_meet_v(_feedthrough_plant(2), side, Tol()).basis
    assert meet.shape == (2, 1) and abs(meet[1, 0]) == 1.0
    with pytest.raises(ValueError):
        side.omega[0, 0] = 2.0


def test_trajectory_holds_read_only_copies():
    ys, x0, y_omega = np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2), np.zeros(1)
    traj = Trajectory(outputs=ys, initial_state=x0, side_value=y_omega)
    ys[1, 0], x0[0], y_omega[0] = np.nan, np.inf, np.nan
    assert np.array_equal(traj.outputs, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(traj.initial_state, [0.0, 0.0])
    assert np.array_equal(traj.side_value, [0.0])
    for m in (traj.outputs, traj.initial_state, traj.side_value):
        with pytest.raises(ValueError):
            m[0] = np.nan


def test_attack_sequence_holds_a_read_only_copy():
    f = np.array([[1.0, 0.0], [0.0, 2.0]])
    attack = AttackSequence(f)
    f[:] = np.nan
    assert np.array_equal(attack.frames, [[1.0, 0.0], [0.0, 2.0]])
    for m in (attack.frames, attack.stacked):
        with pytest.raises(ValueError):
            m[0] = 3.0


def test_side_information_compares_by_the_shape_and_bytes_of_omega():
    om = np.array([[1.0, 2.0, 0.0, 0.0]])
    side = SideInformation(om, Tol(residual_rel=1e-3))
    # tol decides nothing, so it takes no part
    assert side == SideInformation(om.copy()) and hash(side) == hash(SideInformation(om.copy()))
    assert side != SideInformation(om.reshape(2, 2))
    assert side != SideInformation(-om)
    assert SideInformation.none(4) == SideInformation(np.zeros((1, 4)))
    assert len({side, SideInformation(om.copy()), SideInformation.none(4)}) == 2


def _one_of_each_record() -> dict:
    """A fresh instance of every dataclass the package exports, keyed by type."""
    sc = load_scenario(aircraft_path())
    sys, side, attack = sc.system, sc.side, sc.attack
    quiet = AttackSequence.zeros(sys.s, attack.horizon_t)
    cert = certify_undetectable(sys, side, quiet)
    traj = simulate(sys, np.zeros(sys.n), attack, side)
    config = DetectorConfig(5, SideInformation(side.omega.copy()), Tol())
    trace = run_detector(sys, config, traj.side_value, traj.outputs)
    mode = find_zero_dynamics_modes(sys, lambda_hints=[0.9779])[0]
    records = [sc, sys, side, attack, traj, validate(sys), Tol(), weakly_unobservable(sys), cert,
               extension_verdict(sys, side, quiet, cert), classify(sys, side, attack), mode,
               config, trace, trace.epochs[0]]
    return {type(r): r for r in records}


def test_no_record_raises_on_equality_or_hash():
    # records that hold arrays compare by identity; the others by value
    first, second = _one_of_each_record(), _one_of_each_record()
    assert set(first) == {t for t in vars(ltisec).values()
                          if isinstance(t, type) and dataclasses.is_dataclass(t)}
    by_value = {SideInformation, DetectorConfig, Tol, ValidationReport, AttackClass, EpochDecision}
    for kind, a in first.items():
        b = second[kind]
        assert a is not b and a == a and hash(a) == hash(a)
        assert (a == b) == (kind in by_value), kind
        assert a in [b, a] and len({a, b}) == (1 if kind in by_value else 2)


def test_package_exports_each_module_all():
    # each public name is declared once, in its module's __all__; the package
    # re-exports every module but the command-line front end
    library = ["analysis", "detector", "errors", "model", "numlin", "scenario", "subspaces",
               "synthesis"]
    found = {m.name for m in pkgutil.iter_modules(ltisec.__path__)}
    assert found - set(library) == {"cli", "reports"}
    declared = set()
    for module in (importlib.import_module(f"ltisec.{name}") for name in library):
        assert hasattr(module, "__all__"), module.__name__
        assert all(hasattr(module, name) for name in module.__all__), module.__name__
        declared |= set(module.__all__)
    public = {name for name, v in vars(ltisec).items()
              if not name.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == declared
