import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ltisec.subspaces

from ltisec import (
    LtiSystem,
    SideInformation,
    Tol,
    io_matrix,
    obs_matrix,
    output_nulling_reachable,
    solve_min_norm,
    weakly_unobservable,
    weakly_unobservable_iterates,
    zero_state_attack_exists,
)
from ltisec.numlin import orth_columns
from ltisec.subspaces import _null_omega_meet_v
from ltisec.synthesis import find_zero_dynamics_modes

from oracles import (SHAPES, meet_has_margin, null_omega_meet_v, rand_shaped_system, rand_side,
                     rand_system, rank_has_margin, stack_io, zero_state_oracle)


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
    # each basis direction of V must be explainable away over n steps; draws
    # whose M_t has no rank margin are skipped, since there the lstsq residual
    # of a correct basis is decided by rounding (the rule of _dense_min_norm)
    for _ in range(40):
        sys = rand_system(rng)
        v = weakly_unobservable(sys)
        if v.dim == 0:
            continue
        t = sys.n - 1
        obs = obs_matrix(sys, t)
        io = io_matrix(sys, t)
        if not rank_has_margin(np.linalg.svd(io, compute_uv=False)):
            continue
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


def _draws(rng, n_rand: int, per_shape: int):
    """``n_rand`` ``rand_system`` draws, then ``per_shape`` draws of every
    ``rand_shaped_system`` shape."""
    return ([rand_system(rng) for _ in range(n_rand)]
            + [rand_shaped_system(rng, shape) for shape in SHAPES for _ in range(per_shape)])


def test_wk_nested(rng):
    for sys in _draws(rng, 25, 10):
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
    for sys in _draws(rng, 60, 15):
        assert zero_state_attack_exists(sys) == zero_state_oracle(sys)


def _noisy_zeros(sys: LtiSystem, rng) -> LtiSystem | None:
    """The plant with every exact-zero feedthrough entry set to +-1e-20, or
    None when D has no zero entry."""
    d = sys.d.copy()
    zero = d == 0.0
    if not zero.any():
        return None
    d[zero] = rng.choice([-1e-20, 1e-20], size=int(zero.sum()))
    return LtiSystem(a=sys.a, b=sys.b, c=sys.c, d=d)


def test_rounding_noise_in_feedthrough_is_not_rank():
    # ker D and the W_k kernels are cut at the plant's scale, so entries of
    # 1e-20 where D has exact zeros change no dimension and no verdict
    rng = np.random.default_rng(5)
    checked = 0
    for sys in _draws(rng, 60, 15):
        noisy = _noisy_zeros(sys, rng)
        if noisy is None:
            continue
        checked += 1
        assert zero_state_attack_exists(noisy) == zero_state_attack_exists(sys)
        for k in range(1, sys.n + 2):
            assert output_nulling_reachable(noisy, k).dim == output_nulling_reachable(sys, k).dim
    assert checked >= 30


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


def test_w2_of_rotated_relative_degree_2_plant_is_the_state_space():
    # CB = 0, so the first step's kernel holds both (w, 0) and (0, u); in
    # rotated coordinates CB is rounding noise and must not pass as rank
    rng = np.random.default_rng(77)
    for _ in range(100):
        sys = rotated_relative_degree_2(rng)
        assert output_nulling_reachable(sys, 1).dim == 1
        assert output_nulling_reachable(sys, 2).dim == 2


def _lopsided(s: float) -> LtiSystem:
    # B = e1, C = e2^T, D = 0 and A = s e2 e1^T: W_1 = span e1 and W_2 is the
    # whole plane, however large s makes A against B
    return LtiSystem(a=np.array([[0.0, 0.0], [s, 0.0]]), b=np.array([[1.0], [0.0]]),
                     c=np.array([[0.0, 1.0]]), d=np.zeros((1, 1)))


@pytest.mark.parametrize("s", [1.0, 1e9, 1e11, 1e12])
def test_wk_keeps_directions_when_a_dwarfs_b(s):
    # the new directions are cut at ||[A B]||_2, not against the norm-1
    # columns of W_1 stacked beside columns of size s
    sys = _lopsided(s)
    w1, w2 = output_nulling_reachable(sys, 1), output_nulling_reachable(sys, 2)
    assert (w1.dim, w2.dim) == (1, 2)
    assert w2.residual_outside(w1.basis[:, 0]) <= 1e-12
    assert np.allclose(w2.basis.T @ w2.basis, np.eye(2), atol=1e-12)


def test_wk_stops_at_its_fixed_point(monkeypatch):
    # W_2 is the whole plane, so the step from W_2 adds nothing and no
    # further step is taken, whatever k
    sys = _lopsided(1.0)
    assert output_nulling_reachable(sys, 1).dim == 1  # the ISA runs here, once
    calls = []
    kernel = ltisec.subspaces.null_space
    monkeypatch.setattr(ltisec.subspaces, "null_space", lambda *a: calls.append(1) or kernel(*a))
    assert output_nulling_reachable(sys, 50).dim == 2
    assert len(calls) == 2


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


def _draw_omega(rng, kind: str, v: np.ndarray) -> np.ndarray:
    n, d = v.shape
    if kind in ("mixed", "zero", "full"):
        return rand_side(rng, n, kind).omega
    q = int(rng.integers(1, n + 1))
    if kind == "inside_v":
        return rng.standard_normal((q, d)) @ v.T
    return rng.standard_normal((q, n)) @ (np.eye(n) - v @ v.T)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(shape=st.sampled_from(("any",) + SHAPES),
       kind=st.sampled_from(("mixed", "zero", "full", "inside_v", "perp_v")),
       seed=st.integers(0, 2**32 - 1))
def test_null_omega_meet_v_matches_stacked_projectors(shape, kind, seed):
    """ker(Omega) meet V from one SVD of Omega V against the oracle's kernel
    of stacked complement projectors, for Omega with mixed rows, zero, of
    full rank (q = n), with rows inside V, and with rows inside V^perp.

    Margin rule: drop a draw when a rank decision of either computation has
    a singular value in (1e-12, 1e-6] times its scale
    (``oracles.meet_has_margin``)."""
    rng = np.random.default_rng(seed)
    sys = rand_system(rng) if shape == "any" else rand_shaped_system(rng, shape)
    v = weakly_unobservable(sys).basis
    omega = _draw_omega(rng, kind, v)
    assume(meet_has_margin(omega, v))
    want = null_omega_meet_v(omega, v)
    got = _null_omega_meet_v(sys, SideInformation(omega), Tol())
    assert got.dim == want.shape[1]
    assert np.linalg.norm(got.basis @ got.basis.T - want @ want.T, 2) <= 1e-8


def test_null_omega_meet_v_is_kept_per_omega_and_tol(aircraft_sys, aircraft_side):
    tol = Tol()
    meet = _null_omega_meet_v(aircraft_sys, aircraft_side, tol)
    assert not meet.basis.flags.writeable
    # an equal Omega in another object finds the kept basis
    assert _null_omega_meet_v(aircraft_sys, SideInformation(aircraft_side.omega.copy()), tol) is meet
    assert _null_omega_meet_v(aircraft_sys, aircraft_side, Tol(rank_rel=1e-6)) is not meet
