import numpy as np
import pytest

from ltisec import (
    LtiSystem,
    io_matrix,
    obs_matrix,
    output_nulling_reachable,
    solve_min_norm,
    weakly_unobservable,
    weakly_unobservable_iterates,
    zero_state_attack_exists,
)
from ltisec.numlin import orth_columns
from ltisec.synthesis import find_zero_dynamics_modes

from oracles import rand_system, stack_io, zero_state_oracle


def test_v_trivial_observable_no_feedthrough():
    # with no way to inject anything, V collapses to the unobservable
    # subspace, which is {0} for an observable pair
    sys = LtiSystem(a=np.array([[0.9, 1.0], [0.0, 0.8]]), b=np.zeros((2, 1)),
                    c=np.array([[1.0, 0.0]]), d=np.zeros((1, 1)))
    assert weakly_unobservable(sys).dim == 0


def test_v_trivial_blind_system():
    sys = LtiSystem(a=np.eye(3), b=np.ones((3, 1)), c=np.zeros((1, 3)), d=np.zeros((1, 1)))
    assert weakly_unobservable(sys).dim == 3


def test_v_aircraft_dimension(aircraft_sys):
    assert weakly_unobservable(aircraft_sys).dim == 3


def test_v_contains_zero_dynamics_state(aircraft_sys, tol):
    v = weakly_unobservable(aircraft_sys)
    mode = [m for m in find_zero_dynamics_modes(aircraft_sys, lambda_hints=[0.9779])
            if abs(m.lam - 0.9779) < 1e-12][0]
    theta = mode.theta.real
    assert v.residual_outside(theta) <= 1e-8 * np.linalg.norm(theta)


def test_v_basis_vectors_admit_silent_inputs(rng, tol):
    # each basis direction of V must be explainable away over n steps
    for _ in range(40):
        sys = rand_system(rng)
        v = weakly_unobservable(sys)
        if v.dim == 0:
            continue
        t = sys.n - 1
        obs = obs_matrix(sys, t)
        io = io_matrix(sys, t)
        for j in range(v.dim):
            rhs = -(obs @ v.basis[:, j])
            _, res = solve_min_norm(io, rhs)
            assert res <= 1e-8 * max(1.0, np.linalg.norm(rhs))


def test_v_one_step_invariance(rng, tol):
    # V is the largest subspace where some input keeps the output at zero
    # and the successor state inside V
    for _ in range(30):
        sys = rand_system(rng)
        v = weakly_unobservable(sys)
        if v.dim == 0:
            continue
        comp = np.eye(sys.n) - v.basis @ v.basis.T
        for j in range(v.dim):
            x = v.basis[:, j]
            lhs = np.vstack([sys.d, comp @ sys.b])
            rhs = -np.concatenate([sys.c @ x, comp @ (sys.a @ x)])
            _, res = solve_min_norm(lhs, rhs)
            assert res <= 1e-8 * max(1.0, np.linalg.norm(rhs))


def test_v_iterates_nested_and_stabilize(rng):
    for _ in range(25):
        sys = rand_system(rng)
        iterates = weakly_unobservable_iterates(sys)
        dims = [it.dim for it in iterates]
        assert dims[0] == sys.n
        assert all(d1 >= d2 for d1, d2 in zip(dims, dims[1:]))
        assert dims[-1] == weakly_unobservable(sys).dim
        # each iterate contains the next
        for big, small in zip(iterates, iterates[1:]):
            for j in range(small.dim):
                assert big.residual_outside(small.basis[:, j]) <= 1e-9


def test_w1_zero_when_feedthrough_injective():
    sys = LtiSystem(a=np.eye(2), b=np.eye(2), c=np.eye(2), d=np.eye(2))
    assert output_nulling_reachable(sys, 1).dim == 0


def test_w1_full_input_range_when_no_feedthrough():
    sys = LtiSystem(a=np.zeros((2, 2)), b=np.array([[1.0, 0.0], [0.0, 1.0]]),
                    c=np.eye(2), d=np.zeros((2, 2)))
    w1 = output_nulling_reachable(sys, 1)
    assert w1.dim == 2


def test_w1_aircraft(aircraft_sys):
    # feedthrough hits only the last two channels, so one step of silent
    # forcing reaches exactly the span of the first two actuator columns
    w1 = output_nulling_reachable(aircraft_sys, 1)
    assert w1.dim == 2
    target = orth_columns(aircraft_sys.b[:, :2])
    for j in range(2):
        assert w1.residual_outside(target.basis[:, j]) <= 1e-10


def test_wk_nested(rng):
    for _ in range(25):
        sys = rand_system(rng)
        dims = [output_nulling_reachable(sys, k).dim for k in range(1, sys.n + 2)]
        assert all(d1 <= d2 for d1, d2 in zip(dims, dims[1:]))
        prev = None
        for k in range(1, sys.n + 2):
            wk = output_nulling_reachable(sys, k)
            if prev is not None:
                for j in range(prev.dim):
                    assert wk.residual_outside(prev.basis[:, j]) <= 1e-9
            prev = wk


def test_zero_state_attack_exists_aircraft(aircraft_sys):
    assert zero_state_attack_exists(aircraft_sys)


def test_zero_state_attack_trivial_cases():
    blocked = LtiSystem(a=np.eye(2), b=np.eye(2), c=np.eye(2), d=np.eye(2))
    assert not zero_state_attack_exists(blocked)
    blind = LtiSystem(a=np.eye(2), b=np.eye(2), c=np.zeros((1, 2)), d=np.zeros((1, 2)))
    assert zero_state_attack_exists(blind)


def test_zero_state_attack_matches_stacked_oracle(rng):
    agree = 0
    for _ in range(60):
        sys = rand_system(rng)
        got = zero_state_attack_exists(sys)
        want = zero_state_oracle(sys)
        assert got == want
        agree += 1
    assert agree == 60


def rotated_relative_degree_2(rng) -> LtiSystem:
    # B = e1, C = e2^T, D = 0 with CB = 0 and CAB != 0: relative degree 2 in
    # two states, so V = {0}; a random orthogonal change of state keeps it so
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    a = np.array([[0.5, 0.2], [0.7, 0.3]])
    return LtiSystem(a=q @ a @ q.T, b=q @ np.array([[1.0], [0.0]]),
                     c=np.array([[0.0, 1.0]]) @ q.T, d=np.zeros((1, 1)))


def test_v_of_rotated_relative_degree_2_plant_is_zero():
    # every kernel direction of the last ISA step is a pure input, so the
    # x-block of the kernel basis is rounding noise and must not pass as a
    # subspace
    rng = np.random.default_rng(77)
    for _ in range(100):
        sys = rotated_relative_degree_2(rng)
        assert weakly_unobservable(sys).dim == 0
        assert not zero_state_oracle(sys)
        assert not zero_state_attack_exists(sys)


def test_output_nulling_reachable_rejects_bad_horizon(aircraft_sys):
    with pytest.raises(ValueError):
        output_nulling_reachable(aircraft_sys, 0)


def test_v_annihilates_stacked_response(rng):
    # states in V produce outputs that the input matrix can cancel over
    # any horizon, checked against an independently stacked system
    for _ in range(20):
        sys = rand_system(rng)
        v = weakly_unobservable(sys)
        if v.dim == 0:
            continue
        t = sys.n
        io = stack_io(sys.a, sys.b, sys.c, sys.d, t)
        obs = obs_matrix(sys, t)
        x = v.basis @ np.arange(1.0, v.dim + 1.0)
        rhs = -(obs @ x)
        coef = np.linalg.lstsq(io, rhs, rcond=None)[0]
        assert np.linalg.norm(io @ coef - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))
