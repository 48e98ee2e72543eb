import numpy as np
import pytest

from ltisec import (
    AttackSequence,
    DimensionMismatch,
    LtiSystem,
    SideInformation,
    Tol,
    Trajectory,
    ctrl_matrix,
    io_matrix,
    markov_column,
    obs_matrix,
    propagate,
    simulate,
    solve_min_norm,
    validate,
    weakly_unobservable,
)
from ltisec.subspaces import _null_omega_meet_v
from ltisec.synthesis import find_zero_dynamics_modes, zero_dynamics_attack

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
    assert np.allclose(traj.stacked, obs_matrix(sys, 6) @ x0, atol=1e-9)


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
        assert np.linalg.norm(traj.stacked - expect) <= 1e-9 * scale
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
    b = AttackSequence.from_stacked(a.stacked, 2)
    assert np.array_equal(b.frames, a.frames)
    assert a.truncated(1).horizon_t == 1
    with pytest.raises(DimensionMismatch):
        AttackSequence.from_stacked(np.ones(5), 2)


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


def test_trajectory_stacked():
    traj = Trajectory(outputs=np.array([[1.0, 2.0], [3.0, 4.0]]),
                      initial_state=np.zeros(2), side_value=np.zeros(1))
    assert np.array_equal(traj.stacked, [1.0, 2.0, 3.0, 4.0])
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
            assert np.array_equal(markov_column(sys, t), m[:, : sys.s])


@pytest.mark.parametrize("shape", SHAPES)
def test_markov_column_brackets_io_norm(shape):
    # every block column of M_T is a truncated shift of h_T, so
    # ||h_T|| <= ||M_T|| <= sqrt(T+1) ||h_T||
    rng = np.random.default_rng(20 + SHAPES.index(shape))
    for _ in range(4):
        sys = rand_shaped_system(rng, shape)
        for t in (0, 3, 20):
            h = np.linalg.norm(markov_column(sys, t), 2)
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
