import numpy as np
import pytest

from ltisec import (
    AttackSequence,
    Decision,
    DetectionTrace,
    DetectorConfig,
    DetectorSession,
    DimensionMismatch,
    LtiSystem,
    NonFinite,
    RankDeficient,
    SideInformation,
    Tol,
    batch_decide,
    run_detector,
    simulate,
)
from ltisec.synthesis import find_zero_dynamics_modes, zero_dynamics_attack

from oracles import full_projection_decide, rand_side, rand_system

PRINT_TOL = Tol(residual_rel=5e-3)


@pytest.fixture()
def attacked_traj(aircraft_sys, aircraft_side, aircraft_attack):
    return simulate(aircraft_sys, np.zeros(4), aircraft_attack, aircraft_side)


def test_unattacked_streams_stay_quiet(rng):
    for _ in range(50):
        sys = rand_system(rng)
        side = rand_side(rng, sys.n)
        x0 = rng.standard_normal(sys.n)
        t = sys.n + 6
        traj = simulate(sys, x0, AttackSequence.zeros(sys.s, t), side)
        cfg = DetectorConfig(window_len_l=sys.n + 1, omega=side, tol=Tol())
        verdict, trace = batch_decide(sys, cfg, traj.side_value, traj)
        assert verdict == Decision.NO_ATTACK
        assert all(e.decision == Decision.NO_ATTACK for e in trace.epochs)


def test_aircraft_attack_invisible_without_side_info(aircraft_sys, aircraft_attack):
    no_info = SideInformation.none(4)
    traj = simulate(aircraft_sys, np.zeros(4), aircraft_attack, no_info)
    cfg = DetectorConfig(window_len_l=5, omega=no_info, tol=PRINT_TOL)
    verdict, trace = batch_decide(aircraft_sys, cfg, traj.side_value, traj)
    assert verdict == Decision.NO_ATTACK
    assert len(trace.epochs) == 27


def test_aircraft_attack_caught_at_first_epoch(aircraft_sys, aircraft_side, attacked_traj):
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=PRINT_TOL)
    verdict, trace = batch_decide(aircraft_sys, cfg, attacked_traj.side_value, attacked_traj)
    assert verdict == Decision.ATTACK
    assert trace.first_detection() == 4
    first = trace.epochs[0]
    assert first.k == 4
    assert first.decision == Decision.ATTACK
    assert abs(first.residual - 5.2937557265) <= 1e-9
    # once the window no longer overlaps the pinned start, every later
    # window is a plausible free response on its own
    assert all(e.decision == Decision.NO_ATTACK for e in trace.epochs[1:])


def test_corrupted_sample_fires(aircraft_sys, aircraft_side):
    x0 = np.array([1.0, -1.0, 0.5, 2.0])
    traj = simulate(aircraft_sys, x0, AttackSequence.zeros(4, 20), aircraft_side)
    outputs = traj.outputs.copy()
    outputs[12, 1] += 1.0
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=Tol())
    trace = run_detector(aircraft_sys, cfg, traj.side_value, outputs)
    fired = [e.k for e in trace.epochs if e.decision == Decision.ATTACK]
    # the bad sample pollutes exactly the windows that contain it
    assert fired == [12, 13, 14, 15, 16]


def test_minimal_stream_yields_single_epoch(aircraft_sys, aircraft_side):
    traj = simulate(aircraft_sys, np.zeros(4), AttackSequence.zeros(4, 4), aircraft_side)
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=Tol())
    trace = run_detector(aircraft_sys, cfg, traj.side_value, traj.outputs)
    assert len(trace.epochs) == 1
    assert trace.epochs[0].k == 4


def test_stream_shorter_than_window_raises(aircraft_sys, aircraft_side):
    traj = simulate(aircraft_sys, np.zeros(4), AttackSequence.zeros(4, 3), aircraft_side)
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=Tol())
    with pytest.raises(DimensionMismatch):
        run_detector(aircraft_sys, cfg, traj.side_value, traj.outputs)


def test_streaming_matches_batch(aircraft_sys, aircraft_side, attacked_traj):
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=PRINT_TOL)
    session = DetectorSession(aircraft_sys, cfg, attacked_traj.side_value)
    manual = []
    for k, y in enumerate(attacked_traj.outputs):
        epoch = session.push(y)
        if k < 4:
            assert epoch is None
        else:
            manual.append(epoch)
    _, trace = batch_decide(aircraft_sys, cfg, attacked_traj.side_value, attacked_traj)
    assert len(manual) == len(trace.epochs)
    for a, b in zip(manual, trace.epochs):
        assert a.k == b.k
        assert a.decision == b.decision
        assert a.residual == b.residual
        assert a.window_norm == b.window_norm


def test_sliding_window_matches_full_projection(rng):
    # window length n+1 pins the state at each window start, so scanning
    # windows decides exactly what one full-horizon projection decides
    checked = 0
    for _ in range(60):
        sys = rand_system(rng)
        side = rand_side(rng, sys.n)
        t = 2 * sys.n + 3
        x0 = rng.standard_normal(sys.n)
        roll = rng.random()
        if roll < 0.4:
            attack = AttackSequence.zeros(sys.s, t)
        elif roll < 0.8:
            attack = AttackSequence(0.5 * rng.standard_normal((t + 1, sys.s)))
        else:
            try:
                modes = find_zero_dynamics_modes(sys)
            except Exception:
                continue
            usable = [m for m in modes if abs(m.lam) <= 1.5]
            if not usable:
                continue
            attack = zero_dynamics_attack(usable[0], t)
        traj = simulate(sys, x0, attack, side)
        cfg = DetectorConfig(window_len_l=sys.n + 1, omega=side, tol=Tol(residual_rel=1e-6))
        verdict, _ = batch_decide(sys, cfg, traj.side_value, traj)
        want = full_projection_decide(sys, side.omega, traj.side_value,
                                      traj.outputs, rtol=1e-6)
        assert verdict.value == want
        checked += 1
    assert checked >= 40


def test_window_shorter_than_state_rejected(aircraft_side):
    with pytest.raises(ValueError):
        DetectorConfig(window_len_l=4, omega=aircraft_side, tol=Tol())


def test_unobservable_pair_rejected(aircraft_side):
    sys = LtiSystem(a=np.zeros((4, 4)), b=np.zeros((4, 1)),
                    c=np.array([[1.0, 0.0, 0.0, 0.0]]), d=np.zeros((1, 1)))
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=Tol())
    with pytest.raises(RankDeficient):
        DetectorSession(sys, cfg, np.zeros(1))


def test_side_value_length_checked(aircraft_sys, aircraft_side):
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=Tol())
    with pytest.raises(DimensionMismatch):
        DetectorSession(aircraft_sys, cfg, np.zeros(3))


def test_trace_verdict_folding():
    trace = DetectionTrace()
    assert trace.first_detection() is None
    cfg_decisions = [Decision.NO_ATTACK, Decision.ATTACK, Decision.NO_ATTACK]
    from ltisec.detector import EpochDecision
    for k, d in enumerate(cfg_decisions):
        trace.epochs.append(EpochDecision(k=k + 4, decision=d, residual=0.0, window_norm=1.0))
    assert trace.verdict == Decision.ATTACK
    assert trace.first_detection() == 5


def test_detector_accepts_matrix_pair(aircraft_sys, aircraft_side, attacked_traj):
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=PRINT_TOL)
    verdict_sys, trace_sys = batch_decide(aircraft_sys, cfg,
                                          attacked_traj.side_value, attacked_traj)
    pair = (aircraft_sys.a, aircraft_sys.c)
    verdict_pair, trace_pair = batch_decide(pair, cfg,
                                            attacked_traj.side_value, attacked_traj)
    assert verdict_sys == verdict_pair
    assert [e.residual for e in trace_sys.epochs] == [e.residual for e in trace_pair.epochs]


# an infinity in the window meets inf - inf in the projection first
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("k_bad", [1, 4, 9])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_frame_raises(aircraft_sys, aircraft_side, k_bad, bad):
    # before the window fills (k=1, reported at the first epoch k=4), at the
    # first epoch (k=4) and later (k=9, reported at once)
    x0 = np.array([1.0, -1.0, 0.5, 2.0])
    traj = simulate(aircraft_sys, x0, AttackSequence.zeros(4, 12), aircraft_side)
    outputs = traj.outputs.copy()
    outputs[k_bad, 0] = bad
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=Tol())
    session = DetectorSession(aircraft_sys, cfg, traj.side_value)
    raised_at = None
    for k, y in enumerate(outputs):
        try:
            session.push(y)
        except NonFinite:
            raised_at = k
            break
    assert raised_at == max(k_bad, 4)


def test_non_finite_side_value_rejected(aircraft_sys, aircraft_side):
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=Tol())
    with pytest.raises(NonFinite):
        DetectorSession(aircraft_sys, cfg, np.array([np.inf]))
