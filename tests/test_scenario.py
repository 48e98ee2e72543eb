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


def _write_scenario(tmp_path, **fields):
    obj = small_scenario_dict()
    obj.update(fields)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    return path


def test_load_rejects_nested_x0(tmp_path):
    # four entries for n=4 would flatten into a valid-looking vector
    obj = small_scenario_dict()
    obj["n"] = 4
    obj["A"] = np.diag([0.5, 0.4, 0.3, 0.2]).tolist()
    obj["B"] = [[1.0], [1.0], [1.0], [1.0]]
    obj["C"] = [[1.0, 1.0, 1.0, 1.0]]
    obj["Omega"] = [[1.0, 0.0, 0.0, 0.0]]
    obj["x0"] = [[1.0, 2.0], [3.0, 4.0]]
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DimensionMismatch):
        load_scenario(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_load_rejects_non_finite_x0(tmp_path, bad):
    with pytest.raises(NonFinite):
        load_scenario(_write_scenario(tmp_path, x0=[1.0, bad]))


def test_load_rejects_non_numeric_x0(tmp_path):
    with pytest.raises(ParseError):
        load_scenario(_write_scenario(tmp_path, x0=[1.0, "two"]))


@pytest.mark.parametrize("field, value, name", [
    ("Omega", [["1", "0"]], "Omega"),
    ("A", [[0.5, 1.0], [0.0, "0.3"]], "A"),
    ("x0", ["1", "2"], "x0"),
    ("attack", {"T": 1, "frames": [["0"], ["0"]]}, "attack frames"),
], ids=["Omega", "A", "x0", "attack"])
def test_load_rejects_numbers_written_as_strings(tmp_path, field, value, name):
    # numpy parses "1" as 1.0, so these used to load
    with pytest.raises(ParseError, match=f"{name} is not a numeric array: it holds text$"):
        load_scenario(_write_scenario(tmp_path, **{field: value}))


def test_load_attack_rejects_frames_written_as_strings(tmp_path):
    path = tmp_path / "attack.json"
    path.write_text(json.dumps({"T": 1, "frames": [["0"], [0.0]]}))
    with pytest.raises(ParseError, match="^malformed attack object: attack frames is not a numeric array"):
        load_attack(path, 1)


def test_log_rejects_a_side_value_written_as_strings(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(json.dumps({"y_omega": ["1"]}) + "\n" + json.dumps({"k": 0, "y": [1.0]}) + "\n")
    with pytest.raises(ParseError, match="y_omega is not a numeric array: it holds text$"):
        load_log(path)


@pytest.mark.parametrize("field", ["n", "q"])
def test_load_rejects_a_nonpositive_dimension(tmp_path, field):
    with pytest.raises(ParseError, match="has nonpositive dimensions$"):
        load_scenario(_write_scenario(tmp_path, **{field: 0}))


@pytest.mark.parametrize("horizon", [1.7, "1", True])
def test_load_rejects_non_integer_attack_horizon(tmp_path, horizon):
    # a fractional T used to be truncated to fit the frames
    path = _write_scenario(tmp_path, attack={"T": horizon, "frames": [[0.0], [0.0]]})
    with pytest.raises(ParseError):
        load_scenario(path)


def test_load_accepts_integral_float_horizon(tmp_path):
    scn = load_scenario(_write_scenario(tmp_path, attack={"T": 1.0, "frames": [[0.0], [0.0]]}))
    assert scn.attack.horizon_t == 1


def test_load_rejects_fractional_dimension(tmp_path):
    with pytest.raises(ParseError):
        load_scenario(_write_scenario(tmp_path, n=2.5))


def test_attack_round_trip(tmp_path, rng):
    attack = AttackSequence(rng.standard_normal((7, 3)))
    path = tmp_path / "attack.json"
    save_attack(path, attack)
    back = load_attack(path, 3)
    assert np.array_equal(back.frames, attack.frames)
    with pytest.raises(DimensionMismatch):
        load_attack(path, 2)


# a JSON integer beyond the range of a float: numpy and float() raise
# OverflowError on it, which must surface as a ParseError
BIG = 10**400
# and one beyond Python's digit limit for integer parsing, where json.loads
# itself raises a plain ValueError
HUGE = "1" + "0" * 5000


@pytest.mark.parametrize("field, value", [
    ("n", BIG),
    ("A", [[0.5, BIG], [0.0, 0.3]]),
    ("Omega", [[BIG, 0.0]]),
    ("x0", [1.0, BIG]),
    ("attack", {"T": BIG, "frames": [[0.0], [0.0]]}),
    ("attack", {"T": 1, "frames": [[0.0], [BIG]]}),
], ids=["n", "A", "Omega", "x0", "attack_T", "attack_frame"])
def test_load_rejects_integers_beyond_float_range(tmp_path, field, value):
    with pytest.raises(ParseError):
        load_scenario(_write_scenario(tmp_path, **{field: value}))


def test_load_attack_rejects_integers_beyond_float_range(tmp_path):
    path = tmp_path / "attack.json"
    for text in (json.dumps({"T": 1, "frames": [[0.0], [BIG]]}),
                 '{"T": 1, "frames": [[0.0], [%s]]}' % HUGE):
        path.write_text(text)
        with pytest.raises(ParseError):
            load_attack(path, 1)


def test_load_scenario_rejects_an_integer_beyond_the_digit_limit(tmp_path):
    path = _write_scenario(tmp_path)
    path.write_text(path.read_text().replace('"n": 2', '"n": ' + HUGE))
    with pytest.raises(ParseError):
        load_scenario(path)


@pytest.mark.parametrize("header, record", [
    ({"y_omega": [BIG]}, {"k": 0, "y": [1.0]}),
    ({"y_omega": [0.0]}, {"k": 0, "y": [1, 2, BIG]}),
    ({"y_omega": [0.0]}, {"k": BIG, "y": [1.0]}),
], ids=["y_omega", "output", "index"])
def test_log_rejects_integers_beyond_float_range(tmp_path, header, record):
    path = tmp_path / "log.jsonl"
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ParseError):
        load_log(path)


def test_log_index_beyond_float_range_is_reported_alike_by_both_readers(tmp_path):
    # the first log is read in one parse, the second (a "{" inside a string)
    # line by line; both name the index, not a gap in the time indices
    messages = []
    for first in (_record(0, [1.0]), '{"k": 0, "y": [1.0], "s": "{"}'):
        path = tmp_path / "log.jsonl"
        path.write_text("\n".join([json.dumps({"y_omega": [0.0]}), first, _record(BIG, [2.0])]) + "\n")
        with pytest.raises(ParseError) as exc:
            load_log(path)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "record index k" in messages[0] and "must be an integer" in messages[0]


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


def _json_dumps_log(trajectory):
    """A log written record by record with json.dumps: the reference bytes."""
    lines = [json.dumps({"y_omega": trajectory.side_value.tolist()})]
    lines += [json.dumps({"k": k, "y": y.tolist()}) for k, y in enumerate(trajectory.outputs)]
    return "\n".join(lines) + "\n"


def test_save_log_writes_json_dumps_bytes(tmp_path):
    edge = np.array([[-0.0, 5e-324, 1e308], [0.1, 3.0, -1e-308]])
    rng = np.random.default_rng(12)
    long = rng.standard_normal((4097, 3)) * 10.0 ** rng.integers(-300, 300, (4097, 3))
    long[::7] = np.round(long[::7])
    for traj in (Trajectory(edge, np.zeros(2), np.array([0.5, -0.0])),
                 Trajectory(long, np.zeros(2), np.array([1e-300]))):
        path = tmp_path / "log.jsonl"
        save_log(path, traj)
        assert path.read_text() == _json_dumps_log(traj)


def _load_log_line_by_line(path):
    """The reading of one json.loads per record line, its records sorted and
    stacked into one array: the reference.  A number written as a JSON
    string is refused, not parsed."""
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    y_omega = np.asarray(json.loads(lines[0])["y_omega"], dtype=float).reshape(-1)
    records = []
    for ln in lines[1:]:
        try:
            rec = json.loads(ln)
            k = rec["k"]
            if type(k) not in (int, float) or not float(k).is_integer():
                raise ParseError(f"record index k in log {path} must be an integer, got {k!r}")
            y = rec["y"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ParseError(f"malformed log record in {path}: {exc}") from exc
        try:
            if any(isinstance(v, str) for v in np.asarray(y).flat):
                raise TypeError("it holds text")
            records.append((int(k), np.asarray(y, dtype=float).reshape(-1)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed log record in {path}: y is not a numeric array: {exc}") from exc
    lengths = sorted({len(y) for _, y in records})
    if len(lengths) > 1:
        raise ParseError(f"log {path} has outputs of unequal lengths {lengths}")
    records.sort(key=lambda r: r[0])
    if [k for k, _ in records] != list(range(len(records))):
        raise ParseError(f"log {path} has missing or duplicate time indices")
    outputs = np.array([y for _, y in records]).reshape(len(records), lengths[0] if records else 0)
    for k, y in records:
        if not np.all(np.isfinite(y)):
            raise NonFinite(f"log {path} has a non-finite output at k={k}")
    return y_omega, outputs


def _record(k, y):
    return json.dumps({"k": k, "y": y})


LOG_RECORDS = {
    "well_formed": [_record(k, [k, -k, 0.5]) for k in range(5)],
    "two_records_on_one_line": [_record(0, [1.0]), _record(1, [2.0]) + " " + _record(2, [3.0])],
    "two_records_with_a_comma": [_record(0, [1.0]) + ", " + _record(1, [2.0]), _record(2, [3.0])],
    "non_object_line": [_record(0, [1.0]), "[1.0, 2.0]", _record(2, [3.0])],
    "unequal_lengths": [_record(0, [1.0, 2.0]), _record(1, [3.0]), _record(2, [4.0, 5.0])],
    "float_index": [_record(0, [1.0]), '{"k": 1, "y": [2.0]}', '{"k": 2.0, "y": [3.0]}'],
    "fractional_index": [_record(0, [1.0]), '{"k": 1.5, "y": [2.0]}'],
    "string_index": ['{"k": "1", "y": [2.0]}', '{"k": 0, "y": [1.0]}'],
    "boolean_index": [_record(0, [1.0]), '{"k": true, "y": [2.0]}'],
    "nan_at_2": [_record(k, [float("nan") if k == 2 else 1.0, 0.0]) for k in range(4)],
    "unsorted": [_record(k, [float(k)]) for k in (2, 0, 3, 1)],
    # as many lines as "{", but the second line starts inside a record
    "one_record_over_two_lines": ['{"k": 0', '"y": [1.0]}', _record(1, [2.0]) + ", " + _record(2, [3.0])],
    # every line starts with "{", but the first ends inside a record
    "nested_values_over_two_lines": [_record(0, [1.0]) + ', {"k": 1, "y": [2.0], "z": [{}', '{}]}'],
    # one "{" per line, each at its start, but the second line closes the first record
    "record_closed_on_next_line": ['{"k": 0, "y": [1.0, 2.0], "z": [0', '{}]}'],
    "brace_in_a_string": ['{"k": 0, "y": [1.0], "s": "{"}', _record(1, [2.0])],
    "oversized_output": [_record(0, [1.0, 2.0]), _record(1, [1.0, 10**400])],
    "scalar_outputs": ['{"k": 0, "y": 1.5}', '{"k": 1, "y": 2.5}'],
    "nested_outputs": ['{"k": 0, "y": [[1.0, 2.0]]}', '{"k": 1, "y": [[3.0], [4.0]]}'],
    # numbers written as JSON strings are text, which numpy would parse
    "string_outputs": [_record(0, [1.0, 2.0]), '{"k": 1, "y": ["1", "2"]}'],
    "string_among_numbers": [_record(0, [1.0, 2.0]), '{"k": 1, "y": [3.0, "4"]}'],
    "all_string_outputs": ['{"k": 0, "y": ["1", "2", "3"]}', '{"k": 1, "y": ["4", "5", "6"]}'],
    "no_records": [],
}


@pytest.mark.parametrize("name", sorted(LOG_RECORDS))
def test_load_log_reads_as_line_by_line(tmp_path, name):
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join([json.dumps({"y_omega": [1.0]})] + LOG_RECORDS[name]) + "\n")
    try:
        want = _load_log_line_by_line(path)
    except (ParseError, NonFinite) as exc:
        with pytest.raises(type(exc)) as got:
            load_log(path)
        assert str(got.value) == str(exc)
        return
    y_omega, outputs = load_log(path)
    assert np.array_equal(y_omega, want[0])
    y, w = outputs, want[1]
    assert type(y) is np.ndarray and y.dtype == w.dtype and y.shape == w.shape
    assert y.tobytes() == w.tobytes()


def test_log_of_unequal_frames_is_refused_at_load(tmp_path):
    records = [_record(k, [0.0] * (2 if k == 6 else 3)) for k in range(10)]
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join([json.dumps({"y_omega": [0.0]})] + records) + "\n")
    with pytest.raises(ParseError, match="unequal lengths \\[2, 3\\]$") as got:
        load_log(path)
    assert str(path) in str(got.value)


def test_header_only_log_has_no_outputs(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(json.dumps({"y_omega": [0.5]}) + "\n")
    y_omega, outputs = load_log(path)
    assert np.array_equal(y_omega, [0.5])
    assert outputs.shape == (0, 0) and outputs.dtype == float
