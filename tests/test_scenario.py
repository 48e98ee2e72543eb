import json

import numpy as np
import pytest

from ltisec import (
    AssumptionViolated,
    AttackSequence,
    DimensionMismatch,
    NonFinite,
    ParseError,
    SideInformation,
    Trajectory,
    aircraft_path,
    load_attack,
    load_log,
    load_scenario,
    save_attack,
    save_log,
    simulate,
)

AIR_A = [
    [0.992, 0.030, -0.003, -0.977],
    [0.025, 0.684, 1.847, -0.041],
    [0.054, -0.100, 0.381, -0.025],
    [0.003, -0.006, 0.068, 0.999],
]
AIR_B = [
    [0.001, 0.025, 0.0, 0.0],
    [-3.224, -0.035, 0.0, 0.0],
    [-1.995, -0.021, 0.0, 0.0],
    [-0.115, -0.001, 0.0, 0.0],
]
AIR_C = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
AIR_D = [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]


def small_scenario_dict():
    return {
        "n": 2, "p": 1, "s": 1, "q": 1,
        "A": [[0.5, 1.0], [0.0, 0.3]],
        "B": [[0.0], [1.0]],
        "C": [[0.1, 1.0]],
        "D": [[0.0]],
        "Omega": [[1.0, 0.0]],
    }


def test_aircraft_scenario_contents(aircraft):
    sys = aircraft.system
    assert (sys.n, sys.p, sys.s) == (4, 3, 4)
    assert aircraft.side.q == 1
    assert np.array_equal(sys.a, AIR_A)
    assert np.array_equal(sys.b, AIR_B)
    assert np.array_equal(sys.c, AIR_C)
    assert np.array_equal(sys.d, AIR_D)
    assert np.array_equal(aircraft.side.omega, [[1.0, 0.0, 0.0, 0.0]])
    assert aircraft.attack is not None
    assert aircraft.attack.horizon_t == 30
    assert aircraft.attack.frames.shape == (31, 4)
    assert aircraft.x0 is None


def test_bundled_copy_matches_checked_in_file():
    import pathlib

    packaged = aircraft_path().read_bytes()
    root = pathlib.Path(__file__).resolve().parents[1]
    assert (root / "scenarios" / "aircraft.json").read_bytes() == packaged


def test_load_rejects_unobservable(tmp_path):
    obj = small_scenario_dict()
    obj["A"] = [[0.0, 0.0], [0.0, 0.0]]
    obj["C"] = [[1.0, 0.0]]
    obj["B"] = [[1.0], [0.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(AssumptionViolated, match="observab"):
        load_scenario(path)


def test_load_rejects_rank_deficient_input(tmp_path):
    obj = small_scenario_dict()
    obj["s"] = 2
    obj["B"] = [[1.0, 1.0], [1.0, 1.0]]
    obj["D"] = [[0.0, 0.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(AssumptionViolated, match="injectivity"):
        load_scenario(path)


def test_load_rejects_truncated_file(tmp_path):
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(small_scenario_dict())[:40])
    with pytest.raises(ParseError):
        load_scenario(path)


def test_load_rejects_missing_matrix(tmp_path):
    obj = small_scenario_dict()
    del obj["D"]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match="D"):
        load_scenario(path)


def test_load_rejects_missing_dims(tmp_path):
    obj = small_scenario_dict()
    del obj["q"]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError):
        load_scenario(path)


def test_load_rejects_wrong_shape(tmp_path):
    obj = small_scenario_dict()
    obj["Omega"] = [[1.0, 0.0, 0.0]]
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DimensionMismatch):
        load_scenario(path)


def test_load_accepts_flat_row_major(tmp_path):
    obj = small_scenario_dict()
    obj["A"] = [0.5, 1.0, 0.0, 0.3]
    obj["x0"] = [1.0, 2.0]
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(obj))
    scn = load_scenario(path)
    assert np.array_equal(scn.system.a, [[0.5, 1.0], [0.0, 0.3]])
    assert np.array_equal(scn.x0, [1.0, 2.0])


def test_load_rejects_bad_x0_length(tmp_path):
    obj = small_scenario_dict()
    obj["x0"] = [1.0, 2.0, 3.0]
    path = tmp_path / "x0.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DimensionMismatch):
        load_scenario(path)


def test_attack_round_trip(tmp_path, rng):
    attack = AttackSequence(rng.standard_normal((7, 3)))
    path = tmp_path / "attack.json"
    save_attack(path, attack)
    back = load_attack(path, 3)
    assert np.array_equal(back.frames, attack.frames)
    with pytest.raises(DimensionMismatch):
        load_attack(path, 2)


def test_attack_rejects_frame_count_mismatch(tmp_path):
    path = tmp_path / "attack.json"
    path.write_text(json.dumps({"T": 3, "frames": [[0.0], [0.0]]}))
    with pytest.raises(DimensionMismatch):
        load_attack(path, 1)


def test_log_round_trip(tmp_path, aircraft_sys, aircraft_side, aircraft_attack):
    traj = simulate(aircraft_sys, np.zeros(4), aircraft_attack, aircraft_side)
    path = tmp_path / "log.jsonl"
    save_log(path, traj)
    y_omega, outputs = load_log(path)
    assert np.array_equal(y_omega, traj.side_value)
    assert len(outputs) == 31
    assert np.array_equal(np.vstack(outputs), traj.outputs)


def test_log_records_sorted_on_load(tmp_path):
    lines = [json.dumps({"y_omega": [0.0]})]
    for k in (2, 0, 1):
        lines.append(json.dumps({"k": k, "y": [float(k)]}))
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(lines))
    _, outputs = load_log(path)
    assert [o[0] for o in outputs] == [0.0, 1.0, 2.0]


def test_log_missing_header(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(json.dumps({"k": 0, "y": [1.0]}) + "\n")
    with pytest.raises(ParseError, match="y_omega"):
        load_log(path)


def test_log_duplicate_index(tmp_path):
    lines = [
        json.dumps({"y_omega": [0.0]}),
        json.dumps({"k": 0, "y": [1.0]}),
        json.dumps({"k": 0, "y": [2.0]}),
    ]
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(lines))
    with pytest.raises(ParseError, match="missing or duplicate"):
        load_log(path)


def test_log_empty_file(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text("")
    with pytest.raises(ParseError, match="empty"):
        load_log(path)


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "nope.json")
    with pytest.raises(ParseError):
        load_attack(tmp_path / "nope.json", 1)
    with pytest.raises(ParseError):
        load_log(tmp_path / "nope.jsonl")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_log_rejects_non_finite_output(tmp_path, bad):
    lines = [json.dumps({"y_omega": [0.0]})]
    lines += [json.dumps({"k": k, "y": [bad if k == 2 else 1.0, 0.0]}) for k in range(4)]
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(lines))
    with pytest.raises(NonFinite, match="k=2"):
        load_log(path)


def test_log_rejects_non_finite_side_value(tmp_path):
    lines = [json.dumps({"y_omega": [float("nan")]}), json.dumps({"k": 0, "y": [1.0]})]
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(lines))
    with pytest.raises(NonFinite, match="y_omega"):
        load_log(path)
