import numpy as np
import pytest

import ltisec.detector
from hypothesis import given, settings
from hypothesis import strategies as st

from ltisec import (
    AttackSequence,
    Decision,
    DetectionTrace,
    DetectorConfig,
    DetectorSession,
    DimensionMismatch,
    HorizonTooShort,
    LtiSystem,
    NonFinite,
    RankDeficient,
    SideInformation,
    Tol,
    Trajectory,
    batch_decide,
    run_detector,
    simulate,
)
from ltisec.detector import _BLOCK
from ltisec.synthesis import find_zero_dynamics_modes, zero_dynamics_attack

from oracles import SHAPES, full_projection_decide, rand_shaped_system, rand_side, rand_system

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
    # batch_decide makes push's BLAS calls window by window, so every epoch,
    # residual and window norm is the streamed one bit for bit
    assert trace.epochs == manual


def _streamed(sys, cfg, y_omega, outputs):
    session = DetectorSession(sys, cfg, y_omega)
    return [e for e in map(session.push, outputs) if e is not None]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    seed=st.integers(0, 2**32 - 1),
    extra=st.integers(0, 3),
    length=st.integers(0, 40),
    switch_on=st.one_of(st.none(), st.integers(0, 60)),
)
def test_batch_matches_streaming_decisions(shape, seed, extra, length, switch_on):
    rng = np.random.default_rng(seed)
    sys = rand_shaped_system(rng, shape)
    side = rand_side(rng, sys.n)
    l = sys.n + 1 + extra
    t = l - 1 + length
    frames = np.zeros((t + 1, sys.s))
    if switch_on is not None and switch_on <= t:
        frames[switch_on:] = rng.standard_normal((t + 1 - switch_on, sys.s))
    traj = simulate(sys, rng.standard_normal(sys.n), AttackSequence(frames), side)
    cfg = DetectorConfig(window_len_l=l, omega=side, tol=Tol())
    streamed = _streamed(sys, cfg, traj.side_value, traj.outputs)
    # no margin rule: the residuals are the streamed ones bit for bit, so
    # even a residual at its threshold is decided as push decides it
    verdict, trace = batch_decide(sys, cfg, traj.side_value, traj)
    assert trace.epochs == streamed
    fired = [e.k for e in streamed if e.decision is Decision.ATTACK]
    assert trace.first_detection() == (fired[0] if fired else None)
    assert verdict is (Decision.ATTACK if fired else Decision.NO_ATTACK)


def test_batch_indices_across_block_edges(aircraft_sys, aircraft_side):
    # a log of more than two blocks, with corrupted samples whose windows
    # straddle both block edges and the end of the log
    l = 5
    n_frames = 2 * _BLOCK + 40
    x0 = np.array([1.0, -1.0, 0.5, 2.0])
    clean = simulate(aircraft_sys, x0, AttackSequence.zeros(4, n_frames - 1), aircraft_side)
    # later epoch k sits in block (k - l) // _BLOCK, so the first epoch of
    # block b is k = b * _BLOCK + l
    bad = [_BLOCK + l - 2, 2 * _BLOCK + l - 3, n_frames - 2]
    outputs = clean.outputs.copy()
    outputs[bad, 1] += 1.0
    traj = Trajectory(outputs, x0, clean.side_value)
    cfg = DetectorConfig(window_len_l=l, omega=aircraft_side, tol=Tol())
    verdict, trace = batch_decide(aircraft_sys, cfg, traj.side_value, traj)
    assert [e.k for e in trace.epochs] == list(range(l - 1, n_frames))
    fired = [e.k for e in trace.epochs if e.decision is Decision.ATTACK]
    assert fired == [k for j in bad for k in range(j, min(j + l, n_frames))]
    assert verdict is Decision.ATTACK
    streamed = _streamed(aircraft_sys, cfg, traj.side_value, traj.outputs)
    assert [e.decision for e in trace.epochs] == [e.decision for e in streamed]


def test_batch_rejects_wrong_frame_width(aircraft_sys, aircraft_side, attacked_traj):
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=Tol())
    wide = Trajectory(np.hstack([attacked_traj.outputs, attacked_traj.outputs[:, :1]]),
                      np.zeros(4), attacked_traj.side_value)
    with pytest.raises(DimensionMismatch):
        batch_decide(aircraft_sys, cfg, wide.side_value, wide)


def test_batch_rejects_trajectory_shorter_than_window(aircraft_sys, aircraft_side):
    traj = simulate(aircraft_sys, np.zeros(4), AttackSequence.zeros(4, 3), aircraft_side)
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=Tol())
    with pytest.raises(DimensionMismatch):
        batch_decide(aircraft_sys, cfg, traj.side_value, traj)


def test_batch_propagates_rank_deficiency(aircraft_side):
    sys = LtiSystem(a=np.zeros((4, 4)), b=np.zeros((4, 1)),
                    c=np.array([[1.0, 0.0, 0.0, 0.0]]), d=np.zeros((1, 1)))
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=Tol())
    traj = Trajectory(np.zeros((8, 1)), np.zeros(4), np.zeros(1))
    with pytest.raises(RankDeficient):
        batch_decide(sys, cfg, traj.side_value, traj)


def test_sliding_window_matches_full_projection(rng):
    # a window of l >= n+1 frames pins the state at its start, so scanning
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
        want = full_projection_decide(sys, side.omega, traj.side_value,
                                      traj.outputs, rtol=1e-6)
        for l in range(sys.n + 1, sys.n + 5):
            cfg = DetectorConfig(window_len_l=l, omega=side, tol=Tol(residual_rel=1e-6))
            verdict, _ = batch_decide(sys, cfg, traj.side_value, traj)
            assert verdict.value == want
            assert run_detector(sys, cfg, traj.side_value, traj.outputs).verdict.value == want
        checked += 1
    assert checked >= 40


def test_window_shorter_than_state_rejected(aircraft_side):
    with pytest.raises(HorizonTooShort, match=r"^window_len_l is 4, must be at least 5$"):
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
    empty = DetectionTrace(k=[], attack=[], residual=[], window_norm=[])
    assert empty.first_detection() is None
    assert empty.verdict == Decision.NO_ATTACK
    decisions = [Decision.NO_ATTACK, Decision.ATTACK, Decision.NO_ATTACK]
    trace = DetectionTrace(
        k=np.arange(4, 7),
        attack=[d is Decision.ATTACK for d in decisions],
        residual=np.zeros(3),
        window_norm=np.ones(3),
    )
    assert trace.verdict == Decision.ATTACK
    assert trace.first_detection() == 5
    assert [e.decision for e in trace.epochs] == decisions


def test_whole_log_path_builds_no_records(monkeypatch, aircraft_sys, aircraft_side, attacked_traj):
    def refuse(*args):
        raise AssertionError("an EpochDecision was built")

    monkeypatch.setattr(ltisec.detector, "EpochDecision", refuse)
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=PRINT_TOL)
    verdict, trace = batch_decide(aircraft_sys, cfg, attacked_traj.side_value, attacked_traj)
    assert verdict is trace.verdict is Decision.ATTACK
    assert trace.first_detection() == 4


def test_trace_columns_are_read_only_copies(aircraft_sys, aircraft_side, attacked_traj):
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=PRINT_TOL)
    trace = run_detector(aircraft_sys, cfg, attacked_traj.side_value, attacked_traj.outputs)
    for column in (trace.k, trace.attack, trace.residual, trace.window_norm):
        assert len(column) == len(trace.epochs)
        with pytest.raises(ValueError):
            column[0] = 0
    k = np.arange(3)
    built = DetectionTrace(k=k, attack=np.zeros(3, bool), residual=np.zeros(3), window_norm=np.ones(3))
    k[0] = 9
    assert built.k.tolist() == [0, 1, 2]
    with pytest.raises(DimensionMismatch):
        DetectionTrace(k=k, attack=[True], residual=np.zeros(3), window_norm=np.ones(3))


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
        except NonFinite as exc:
            raised_at, streamed = k, exc
            break
    assert raised_at == max(k_bad, 4)
    # the whole-log path names the same epoch with the same message
    with pytest.raises(NonFinite) as got:
        run_detector(aircraft_sys, cfg, traj.side_value, outputs)
    assert str(got.value) == str(streamed)


@pytest.mark.parametrize("k_bad", [1, 4, 9])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_batch_non_finite_output_raises(aircraft_sys, aircraft_side, k_bad, bad):
    # a trajectory refuses a non-finite output when built, so such a log
    # reaches the whole-log path only as an array
    x0 = np.array([1.0, -1.0, 0.5, 2.0])
    traj = simulate(aircraft_sys, x0, AttackSequence.zeros(4, 12), aircraft_side)
    outputs = traj.outputs.copy()
    outputs[k_bad, 0] = bad
    with pytest.raises(NonFinite):
        Trajectory(outputs, x0, traj.side_value)
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=Tol())
    with pytest.raises(NonFinite, match=f"k={max(k_bad, 4)} ") as got:
        run_detector(aircraft_sys, cfg, traj.side_value, outputs)
    assert str(got.value) == str(_push_error(aircraft_sys, cfg, traj.side_value, outputs))


def test_window_whose_norm_overflows_raises(aircraft_sys, aircraft_side):
    # 1e200 is finite, but the norm of every window holding it overflows;
    # both paths name the first such window
    x0 = np.array([1.0, -1.0, 0.5, 2.0])
    clean = simulate(aircraft_sys, x0, AttackSequence.zeros(4, 12), aircraft_side)
    outputs = clean.outputs.copy()
    outputs[9, 0] = 1e200
    traj = Trajectory(outputs, x0, clean.side_value)
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=Tol())
    session = DetectorSession(aircraft_sys, cfg, traj.side_value)
    with np.errstate(over="ignore"):
        for y in traj.outputs[:9]:
            session.push(y)
        with pytest.raises(NonFinite, match="k=9 is finite but its norm overflows") as streamed:
            session.push(traj.outputs[9])
    # the whole-log paths let no numpy warning escape, which would fail here,
    # and give push's message
    with pytest.raises(NonFinite) as got:
        batch_decide(aircraft_sys, cfg, traj.side_value, traj)
    assert str(got.value) == str(streamed.value)
    with pytest.raises(NonFinite) as got:
        run_detector(aircraft_sys, cfg, traj.side_value, traj.outputs)
    assert str(got.value) == str(streamed.value)


def test_session_copies_each_frame(aircraft_sys, aircraft_side):
    # a caller that writes every frame into one buffer gets the decisions
    # of fresh frames, bit for bit
    x0 = np.array([1.0, -1.0, 0.5, 2.0])
    traj = simulate(aircraft_sys, x0, AttackSequence.zeros(4, 12), aircraft_side)
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=Tol())
    fresh = run_detector(aircraft_sys, cfg, traj.side_value, traj.outputs)
    buf = np.empty(3)

    def reused():
        for y in traj.outputs:
            buf[:] = y
            yield buf

    assert fresh.verdict is Decision.NO_ATTACK
    assert _streamed(aircraft_sys, cfg, traj.side_value, reused()) == fresh.epochs
    # a length-1 frame would broadcast into a row of the ring
    session = DetectorSession(aircraft_sys, cfg, traj.side_value)
    with pytest.raises(DimensionMismatch):
        session.push(np.array([1.0]))


def _fresh(sys):
    return LtiSystem(sys.a, sys.b, sys.c, sys.d)


def test_range_bases_factorized_once_per_plant_and_config(aircraft_sys, aircraft_side,
                                                         attacked_traj, monkeypatch):
    sys = _fresh(aircraft_sys)
    calls = []
    orth = ltisec.detector.orth_columns

    def counted(m, tol):
        calls.append(m.shape)
        return orth(m, tol)

    monkeypatch.setattr(ltisec.detector, "orth_columns", counted)
    y_omega = attacked_traj.side_value
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=PRINT_TOL)
    first = _streamed(sys, cfg, y_omega, attacked_traj.outputs)
    # an equal config built afresh, as each call site builds its own
    again = DetectorConfig(5, SideInformation(aircraft_side.omega.copy()), PRINT_TOL)
    assert _streamed(sys, again, y_omega, attacked_traj.outputs) == first
    _, trace = batch_decide(sys, cfg, y_omega, attacked_traj)
    assert trace.epochs[0] == first[0]
    assert calls == [(16, 4), (15, 4)]
    assert _streamed(aircraft_sys, cfg, y_omega, attacked_traj.outputs) == first


def test_each_omega_gets_its_own_first_epoch_basis(aircraft_sys, aircraft_side, attacked_traj):
    # the attack is caught at k=4 with the aircraft's Omega and invisible
    # without side information, whose Omega has the same shape
    sys = _fresh(aircraft_sys)
    y_omega, outputs = attacked_traj.side_value, attacked_traj.outputs
    with_side = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=PRINT_TOL)
    no_side = DetectorConfig(window_len_l=5, omega=SideInformation.none(4), tol=PRINT_TOL)
    assert no_side.omega.omega.shape == aircraft_side.omega.shape
    caught = _streamed(sys, with_side, y_omega, outputs)
    missed = _streamed(sys, no_side, np.zeros(1), outputs)
    assert caught[0].decision is Decision.ATTACK
    assert missed == _streamed(_fresh(aircraft_sys), no_side, np.zeros(1), outputs)
    assert all(e.decision is Decision.NO_ATTACK for e in missed)


def test_rank_deficiency_raised_on_every_construction(aircraft_side):
    sys = LtiSystem(a=np.zeros((4, 4)), b=np.zeros((4, 1)),
                    c=np.array([[1.0, 0.0, 0.0, 0.0]]), d=np.zeros((1, 1)))
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=Tol())
    for _ in range(2):
        with pytest.raises(RankDeficient):
            DetectorSession(sys, cfg, np.zeros(1))


def test_non_finite_side_value_rejected(aircraft_sys, aircraft_side):
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=Tol())
    with pytest.raises(NonFinite) as streamed:
        DetectorSession(aircraft_sys, cfg, np.array([np.inf]))
    outputs = _quiet_log(aircraft_sys, aircraft_side, 13).outputs
    with pytest.raises(NonFinite) as got:
        run_detector(aircraft_sys, cfg, np.array([np.inf]), outputs)
    assert str(got.value) == str(streamed.value)


def _push_all(sys, cfg, y_omega, outputs):
    """The streamed epochs of ``outputs`` up to the error that stopped the
    stream, and that error, or None."""
    session = DetectorSession(sys, cfg, y_omega)
    epochs = []
    # push lets numpy warn about a window it then refuses
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for y in outputs:
                epoch = session.push(y)
                if epoch is not None:
                    epochs.append(epoch)
        except (DimensionMismatch, NonFinite) as exc:
            return epochs, exc
    return epochs, None


def _push_error(sys, cfg, y_omega, outputs):
    return _push_all(sys, cfg, y_omega, outputs)[1]


def _quiet_log(sys, side, n_frames):
    x0 = np.array([1.0, -1.0, 0.5, 2.0])
    return simulate(sys, x0, AttackSequence.zeros(4, n_frames - 1), side)


def test_run_detector_takes_any_sequence_of_frames(aircraft_sys, aircraft_side):
    traj = _quiet_log(aircraft_sys, aircraft_side, 13)
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=Tol())
    streamed = _streamed(aircraft_sys, cfg, traj.side_value, traj.outputs)
    ys = traj.outputs
    for outputs in (ys, list(ys), tuple(ys), ys.tolist()):
        assert run_detector(aircraft_sys, cfg, traj.side_value, outputs).epochs == streamed


@pytest.mark.parametrize("frame", [np.array([1.0]), 2.0, np.ones(4), "x", [1, [2], 3]],
                         ids=["len1", "scalar", "len4", "string", "ragged"])
@pytest.mark.parametrize("k_bad", [0, 2, 7])
def test_run_detector_rejects_a_frame_as_push_does(aircraft_sys, aircraft_side, frame, k_bad):
    # a frame that push refuses must not broadcast into p columns: frames of
    # unequal lengths make no (N, p) array, and a log of them is refused
    traj = _quiet_log(aircraft_sys, aircraft_side, 13)
    outputs = list(traj.outputs)
    outputs.insert(k_bad, frame)
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=Tol())
    assert isinstance(_push_error(aircraft_sys, cfg, traj.side_value, outputs), DimensionMismatch)
    with pytest.raises(DimensionMismatch, match="^outputs is not a numeric array"):
        run_detector(aircraft_sys, cfg, traj.side_value, outputs)
    # a log of such frames, all alike, is no (N, p) array either, nor is a
    # column of frames
    for alike in ([frame] * 13, traj.outputs[:, :, None]):
        with pytest.raises(DimensionMismatch):
            run_detector(aircraft_sys, cfg, traj.side_value, alike)


@pytest.mark.parametrize("k_bad", [1, 4, 9, 12])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_run_detector_refuses_a_window_where_push_does(aircraft_sys, aircraft_side, k_bad, bad):
    # before the window fills, at the first epoch k = l-1 = 4, later and last
    traj = _quiet_log(aircraft_sys, aircraft_side, 13)
    outputs = traj.outputs.copy()
    outputs[k_bad, 1] = bad
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=Tol())
    want = _push_error(aircraft_sys, cfg, traj.side_value, outputs)
    assert f"k={max(k_bad, 4)} " in str(want)
    with pytest.raises(NonFinite) as got:
        run_detector(aircraft_sys, cfg, traj.side_value, outputs)
    assert str(got.value) == str(want)


def test_run_detector_reports_the_first_refusal(aircraft_sys, aircraft_side):
    # push stops at the first window it cannot decide, whichever the reason
    traj = _quiet_log(aircraft_sys, aircraft_side, 13)
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=Tol())
    nan_first = traj.outputs.copy()
    nan_first[5, 0] = np.nan
    nan_first[8, 0] = 1e200
    overflow_first = traj.outputs.copy()
    overflow_first[6, 0] = 1e200
    overflow_first[8, 0] = np.nan
    for outputs, k in ((nan_first, 5), (overflow_first, 6)):
        want = _push_error(aircraft_sys, cfg, traj.side_value, outputs)
        assert f"k={k} " in str(want)
        with pytest.raises(NonFinite) as got:
            run_detector(aircraft_sys, cfg, traj.side_value, outputs)
        assert str(got.value) == str(want)


@pytest.mark.parametrize("n_frames", [0, 1, 4])
def test_run_detector_stream_shorter_than_window(aircraft_sys, aircraft_side, n_frames):
    traj = _quiet_log(aircraft_sys, aircraft_side, 5)
    cfg = DetectorConfig(window_len_l=5, omega=aircraft_side, tol=Tol())
    frames = traj.outputs[:n_frames]
    # a log of no records loads as a (0, 0) array
    for outputs in (frames, list(frames) if n_frames else np.empty((0, 0))):
        with pytest.raises(DimensionMismatch, match="^stream shorter than the window length 5$"):
            run_detector(aircraft_sys, cfg, traj.side_value, outputs)


def test_run_detector_across_block_edges(aircraft_sys, aircraft_side):
    # a log of more than two blocks, with bad frames in windows that straddle
    # both block edges; later epoch k sits in block (k - l) // _BLOCK
    l = 5
    n_frames = 2 * _BLOCK + 40
    traj = _quiet_log(aircraft_sys, aircraft_side, n_frames)
    cfg = DetectorConfig(window_len_l=l, omega=aircraft_side, tol=Tol())
    bad = [_BLOCK + l - 2, _BLOCK + l, 2 * _BLOCK + l - 3, 2 * _BLOCK + l + 1, n_frames - 1]
    outputs = traj.outputs.copy()
    outputs[bad, 1] += 1.0
    trace = run_detector(aircraft_sys, cfg, traj.side_value, outputs)
    assert trace.epochs == _streamed(aircraft_sys, cfg, traj.side_value, outputs)
    fired = [e.k for e in trace.epochs if e.decision is Decision.ATTACK]
    assert fired == sorted({k for j in bad for k in range(j, min(j + l, n_frames))})
    for k_bad in bad:
        for value in (np.nan, 1e200):
            broken = traj.outputs.copy()
            broken[k_bad, 0] = value
            want = _push_error(aircraft_sys, cfg, traj.side_value, broken)
            with pytest.raises(NonFinite) as got:
                run_detector(aircraft_sys, cfg, traj.side_value, broken)
            assert str(got.value) == str(want)


@pytest.mark.parametrize("shape", SHAPES)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.integers(0, 3),
    length=st.one_of(st.integers(0, 40), st.integers(_BLOCK - 2, _BLOCK + 2)),
    switch_on=st.one_of(st.none(), st.integers(0, 60)),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
)
def test_run_detector_equals_streaming_bit_for_bit(shape, seed, extra, length, switch_on, scale):
    # the blocked path makes push's BLAS calls row by row, so no margin rule:
    # every residual and window norm must be the streamed one exactly
    rng = np.random.default_rng(seed)
    sys = rand_shaped_system(rng, shape)
    side = rand_side(rng, sys.n)
    l = sys.n + 1 + extra
    t = l - 1 + length
    frames = np.zeros((t + 1, sys.s))
    if switch_on is not None and switch_on <= t:
        frames[switch_on:] = rng.standard_normal((t + 1 - switch_on, sys.s))
    x0 = scale * rng.standard_normal(sys.n)
    traj = simulate(sys, x0, AttackSequence(scale * frames), side)
    cfg = DetectorConfig(window_len_l=l, omega=side, tol=Tol())
    streamed, error = _push_all(sys, cfg, traj.side_value, traj.outputs)
    if error is not None:
        # an unstable plant's long log outgrows the float range of the norms
        with pytest.raises(NonFinite) as got:
            run_detector(sys, cfg, traj.side_value, traj.outputs)
        assert str(got.value) == str(error)
        with pytest.raises(NonFinite) as got:
            batch_decide(sys, cfg, traj.side_value, traj)
        assert str(got.value) == str(error)
        return
    assert run_detector(sys, cfg, traj.side_value, traj.outputs).epochs == streamed
    assert batch_decide(sys, cfg, traj.side_value, traj)[1].epochs == streamed
