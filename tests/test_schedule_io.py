import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from occsim.conf import read_step_values, write_step_values
from occsim.diary_ingest import DAY_TYPES, N_STEPS, ActivityState
from occsim.household import EVENT, EVENT_COLUMNS, HouseholdResult
from occsim.occupant_sim import SimCalendar
from occsim.schedule_io import (
    MODULATED_END_USES,
    SCHEDULE_COLUMNS,
    HouseholdScheduleYear,
    ScheduleError,
    assemble_schedule,
    load_bundle,
    load_reference_dir,
    rasterize_events,
    read_schedule_file,
    write_bundle,
    write_schedule_file,
)
from occsim.synth import default_bundle, default_reference

C = EVENT_COLUMNS.index
NO_EVENTS = np.zeros(0, dtype=EVENT)


def _events(*rows):
    return np.array(list(rows), dtype=EVENT)


def _accumulate(series, start, duration, magnitude):
    """Reference for rasterize_events: one event row, one step at a time."""
    if duration <= 0:
        return
    horizon = series.shape[0] * 15.0
    end = min(start + duration, horizon)
    start = max(start, 0.0)
    if end <= start:
        return
    first = int(start // 15)
    last = min(int(math.ceil(end / 15)) - 1, series.shape[0] - 1)
    for j in range(first, last + 1):
        overlap = min(end, (j + 1) * 15.0) - max(start, j * 15.0)
        series[j] += overlap * magnitude


def _reference_rasterize(appliance_events, water_events, n_days):
    channels = {name: np.zeros(n_days * N_STEPS) for name in EVENT_COLUMNS}
    for ev in [*appliance_events, *water_events]:
        series = channels[EVENT_COLUMNS[ev["column"]]]
        _accumulate(series, float(ev["start"]), float(ev["duration"]), float(ev["magnitude"]))
    return channels


def _one_row(start, duration, magnitude):
    """One day's cooking_range series from a single event row."""
    raw = rasterize_events(_events((C("cooking_range"), start, duration, magnitude)), NO_EVENTS, 1)
    return raw[C("cooking_range")]


def test_accumulate_proportional_overlap():
    # 20 minutes at magnitude 2 starting at minute 10: 5 min in step 0,
    # 15 min in step 1
    s = _one_row(10.0, 20.0, 2.0)
    assert s[0] == pytest.approx(10.0)
    assert s[1] == pytest.approx(30.0)
    assert np.all(s[2:] == 0)


def test_accumulate_aligned_and_interior():
    s = _one_row(15.0, 15.0, 3.0)
    assert s[1] == pytest.approx(45.0)
    assert s.sum() == pytest.approx(45.0)
    s2 = _one_row(22.0, 40.0, 1.0)  # minutes 22..62 span steps 1..4
    assert s2[1] == pytest.approx(8.0)
    assert s2[2] == pytest.approx(15.0)
    assert s2[3] == pytest.approx(15.0)
    assert s2[4] == pytest.approx(2.0)


def test_accumulate_clips_at_horizon():
    s = _one_row(1430.0, 100.0, 1.0)  # one-day horizon
    assert s[-1] == pytest.approx(10.0)
    assert s.sum() == pytest.approx(10.0)
    s = _one_row(-10.0, 20.0, 1.0)  # clipped at zero
    assert s[0] == pytest.approx(10.0)
    assert s.sum() == pytest.approx(10.0)


def test_accumulate_conserves_event_mass():
    rng = np.random.default_rng(2)
    rows = []
    total = 0.0
    for _ in range(50):
        start = float(rng.uniform(0, 96 * 2 * 15 - 200))
        dur = float(rng.uniform(1, 180))
        mag = float(rng.uniform(0.1, 3))
        rows.append((C("cooking_range"), start, dur, mag))
        total += dur * mag
    raw = rasterize_events(_events(*rows), NO_EVENTS, 2)
    assert raw[C("cooking_range")].sum() == pytest.approx(total)
    assert np.delete(raw, C("cooking_range"), axis=0).sum() == 0.0


def test_rasterize_events_routes_channels():
    appl = _events(
        (C("cooking_range"), 0.0, 30.0, 1.0),
        (C("dishwasher_power"), 60.0, 45.0, 0.5),
        (C("dishwasher_water"), 60.0, 10.0, 2.0),
        (C("clothes_dryer_power"), 120.0, 15.0, 1.0),
    )
    water = _events(
        (C("showers"), 600.0, 10.0, 8.0),
        (C("sinks"), 600.0, 2.0, 3.0),
    )
    raw = rasterize_events(appl, water, 1)
    assert raw.shape == (len(EVENT_COLUMNS), N_STEPS)
    assert raw[C("cooking_range")].sum() == pytest.approx(30.0)
    assert raw[C("dishwasher_power")].sum() == pytest.approx(22.5)
    assert raw[C("dishwasher_water")].sum() == pytest.approx(20.0)
    assert raw[C("clothes_dryer_power")][8] == pytest.approx(15.0)
    assert raw[C("showers")][40] == pytest.approx(80.0)
    assert raw[C("sinks")][40] == pytest.approx(6.0)
    assert raw[C("baths")].sum() == 0.0


_HORIZON_STEPS = 2 * N_STEPS
# Starts anywhere around a two-day horizon, on step edges, one ulp beside
# them, or stacked on a few shared minutes.
_STARTS = st.one_of(
    st.floats(-100.0, _HORIZON_STEPS * 15.0 + 100.0),
    st.integers(-2, _HORIZON_STEPS + 2).map(lambda k: k * 15.0),
    st.builds(
        lambda k, toward: float(np.nextafter(k * 15.0, toward)),
        st.integers(-1, _HORIZON_STEPS + 1),
        st.sampled_from([-np.inf, np.inf]),
    ),
    st.sampled_from([600.0, 607.5, 614.0]),
)
_DURATIONS = st.one_of(st.floats(-10.0, 400.0), st.sampled_from([0.0, 15.0, 1e-9]))
_ROWS = st.lists(
    st.tuples(st.integers(0, len(EVENT_COLUMNS) - 1), _STARTS, _DURATIONS, st.floats(-5.0, 10.0)),
    max_size=60,
)


@given(appliance=_ROWS, water=_ROWS, n_days=st.integers(1, 2))
def test_rasterize_matches_reference_loop_property(appliance, water, n_days):
    appl, wat = _events(*appliance), _events(*water)
    got = rasterize_events(appl, wat, n_days)
    want = _reference_rasterize(appl, wat, n_days)
    assert got.shape == (len(EVENT_COLUMNS), n_days * N_STEPS)
    for name in EVENT_COLUMNS:
        assert got[C(name)].tobytes() == want[name].tobytes(), name


def _day_result(present, appliance_events=NO_EVENTS, water_events=NO_EVENTS):
    """A two-occupant HouseholdResult whose present fraction is `present`
    (each step 0, 0.5 or 1), whole days of steps."""
    present = np.asarray(present, dtype=np.float64)
    home = np.stack([present > 0, present >= 1])
    states = np.where(home, int(ActivityState.HOME_ACTIVE), int(ActivityState.AWAY)).astype(np.int8)
    return HouseholdResult(0, 2, [], states, appliance_events, water_events)


def test_assemble_schedule_normalizes_rows():
    ref = np.broadcast_to(np.linspace(1, 2, N_STEPS), (len(MODULATED_END_USES), len(DAY_TYPES), N_STEPS))
    cooking = _events((C("cooking_range"), 45.0, 15.0, 0.8), (C("cooking_range"), 150.0, 15.0, 0.4))
    cal = SimCalendar(start_weekday=0, n_days=1)
    sched = assemble_schedule(_day_result(np.full(N_STEPS, 0.5), cooking), ref, cal, modulation="present")
    assert sched.values.shape == (len(SCHEDULE_COLUMNS), N_STEPS)
    assert sched.n_days == 1
    assert sched.peaks["cooking_range"] == 12.0
    assert sched.columns["cooking_range"][3] == 1.0
    assert sched.columns["cooking_range"][10] == 0.5
    # occupants pass through and record no peak
    assert np.all(sched.columns["occupants"] == 0.5)
    assert "occupants" not in sched.peaks
    # all-zero channel stays zero with a zero peak
    assert sched.peaks["baths"] == 0.0
    assert np.all(sched.columns["baths"] == 0.0)
    assert sched.columns["lighting"].max() == 1.0
    assert list(sched.columns) == list(SCHEDULE_COLUMNS)
    for i, row in enumerate(sched.columns.values()):
        assert np.shares_memory(row, sched.values) and np.array_equal(row, sched.values[i])
    with pytest.raises(TypeError):
        sched.columns["sinks"] = np.zeros(N_STEPS)


def test_schedule_year_validation():
    n = len(SCHEDULE_COLUMNS)
    for shape in [(n - 1, N_STEPS), (n, 10), (n, 0), (N_STEPS,), (n, N_STEPS, 1)]:
        with pytest.raises(ScheduleError, match="over whole days"):
            HouseholdScheduleYear(np.zeros(shape), {})


def test_schedule_file_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    sched = HouseholdScheduleYear(
        rng.uniform(0, 1, (len(SCHEDULE_COLUMNS), 2 * N_STEPS)),
        {name: float(rng.uniform(0, 5)) for name in SCHEDULE_COLUMNS[1:]},
    )
    path = tmp_path / "h0.schedule.csv"
    write_schedule_file(path, sched)
    text = path.read_text()
    lines = text.splitlines()
    n_comments = sum(1 for l in lines if l.startswith("#"))
    assert n_comments == len(SCHEDULE_COLUMNS) - 1
    assert len(lines) - n_comments == 1 + 2 * N_STEPS  # header + rows
    back = read_schedule_file(path)
    assert back.n_days == 2
    assert np.abs(back.values - sched.values).max() <= 5e-7
    for name, peak in sched.peaks.items():
        assert back.peaks[name] == pytest.approx(peak, rel=1e-8)


def _reference_schedule_bytes(schedule):
    """The per-value formatter that `write_schedule_file` must match byte for byte."""
    lines = [f"# peak,{name},{schedule.peaks[name]:.9g}" for name in SCHEDULE_COLUMNS if name != "occupants"]
    lines.append(",".join(SCHEDULE_COLUMNS))
    for row in schedule.values.T:
        lines.append(",".join(f"{v:.6f}" for v in row))
    return ("\n".join(lines) + "\n").encode()


def _schedule_cycling(values):
    """A one-day schedule whose cells cycle through `values`, row by row."""
    data = np.resize(np.asarray(values, dtype=np.float64), (N_STEPS, len(SCHEDULE_COLUMNS)))
    return HouseholdScheduleYear(data.T, {name: 0.75 for name in SCHEDULE_COLUMNS[1:]})


def _assert_writes_reference_bytes(directory, schedule):
    path = directory / "h.csv"
    write_schedule_file(path, schedule)
    assert path.read_bytes() == _reference_schedule_bytes(schedule)


@pytest.mark.parametrize(
    "value",
    [0.0, 1.0, -0.0, 5e-7, 1.5e-6, 0.1234565, 0.9999995, 0.9999996, 1e-300,
     -0.25, -1e-9, 1.5, 1e300, np.nan, np.inf, -np.inf],
)
def test_schedule_writer_matches_per_value_format(tmp_path, value):
    _assert_writes_reference_bytes(tmp_path, _schedule_cycling([0.25, value, 0.7]))


# Values whose scaled form lies on, or one ulp beside, a 6-decimal rounding tie.
_NEAR_TIES = st.one_of(
    st.integers(0, 999_999).map(lambda k: (k + 0.5) / 1e6),
    st.builds(
        lambda k, toward: float(np.nextafter((k + 0.5) / 1e6, toward)),
        st.integers(0, 999_999),
        st.sampled_from([0.0, 2.0]),
    ),
)


@given(
    unit=st.lists(st.one_of(st.floats(0.0, 1.0), _NEAR_TIES), min_size=1, max_size=40),
    anywhere=st.lists(st.floats(), max_size=3),
)
def test_schedule_writer_matches_per_value_format_property(tmp_path_factory, unit, anywhere):
    _assert_writes_reference_bytes(tmp_path_factory.mktemp("w"), _schedule_cycling(unit + anywhere))


def _written_schedule(directory, values=(0.25, 0.5, 1.0, 0.0, 0.1234565)):
    path = directory / "h.csv"
    write_schedule_file(path, _schedule_cycling(values))
    return path


def test_read_schedule_cells_equal_float_of_each_token(tmp_path):
    rng = np.random.default_rng(5)
    path = _written_schedule(tmp_path, rng.uniform(0, 1, 400))
    rows = [line.split(",") for line in path.read_text().splitlines()[len(SCHEDULE_COLUMNS) :]]
    want = np.array([[float(token) for token in row] for row in rows])
    got = read_schedule_file(path).values
    assert got.shape == (len(SCHEDULE_COLUMNS), N_STEPS)
    assert np.ascontiguousarray(got.T).tobytes() == want.tobytes()


def test_read_schedule_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ScheduleError, match="header"):
        read_schedule_file(path)


def test_read_schedule_rejects_partial_day(tmp_path):
    path = _written_schedule(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ScheduleError, match="h.csv: .*over whole days"):
        read_schedule_file(path)


def _replace_line(text, index, make):
    lines = text.splitlines()
    lines[index] = make(lines[index])
    return "\n".join(lines) + "\n"


HEAD = len(SCHEDULE_COLUMNS)  # peak comments plus the header
BAD_SCHEDULE_FILES = {
    "ragged_row": (lambda t: _replace_line(t, HEAD + 5, lambda l: l.rsplit(",", 1)[0]), "number of columns"),
    "non_number": (lambda t: _replace_line(t, HEAD + 7, lambda l: "abc" + l[8:]), "string 'abc'"),
    "peak_two_fields": (lambda t: _replace_line(t, 2, lambda l: l.rsplit(",", 1)[0]), "bad peak line"),
    "peak_non_number": (lambda t: _replace_line(t, 0, lambda l: l + "x"), "bad peak line"),
    "twelve_columns": (
        lambda t: "\n".join(l.rsplit(",", 1)[0] if i >= HEAD else l for i, l in enumerate(t.splitlines())),
        f"needs {len(SCHEDULE_COLUMNS)} columns",
    ),
    "no_rows": (lambda t: "\n".join(t.splitlines()[:HEAD]) + "\n\n", "no schedule data"),
    "empty": (lambda t: "", "missing or unexpected column header"),
}


@pytest.mark.parametrize("case", BAD_SCHEDULE_FILES)
def test_read_schedule_rejects_bad_file_naming_it(tmp_path, case):
    corrupt, message = BAD_SCHEDULE_FILES[case]
    path = _written_schedule(tmp_path)
    path.write_text(corrupt(path.read_text()))
    with pytest.raises(ScheduleError, match=f"h.csv: .*{message}"):
        read_schedule_file(path)


@pytest.mark.parametrize("blank_lines", [0, 2])
def test_read_schedule_error_names_the_file_line(tmp_path, blank_lines):
    """File lines count from 1 over peaks, header and blank lines alike."""
    path = _written_schedule(tmp_path)  # one day: data rows on lines 14..109
    lines = path.read_text().splitlines()
    lines[HEAD:HEAD] = [""] * blank_lines
    for index, make, message in [
        (20, lambda line: "abc" + line[8:], "could not convert string 'abc' to float"),
        (25, lambda line: line.rsplit(",", 1)[0], f"number of columns is 12, expected {len(SCHEDULE_COLUMNS)}"),
    ]:
        index += blank_lines
        path.write_text(_replace_line("\n".join(lines), index, make))
        with pytest.raises(ScheduleError) as exc:
            read_schedule_file(path)
        assert str(exc.value) == f"{path}: line {index + 1}: {message}"


def _reference_dir(directory):
    for use in MODULATED_END_USES:
        for dt in ("wd", "we"):
            write_step_values(directory / f"{use}.{dt}.ref", default_reference(use, dt.upper()))
    return directory


def test_reference_file_round_trip(tmp_path):
    values = np.linspace(0.2, 1.0, N_STEPS)
    path = tmp_path / "lighting.wd.ref"
    write_step_values(path, values)
    back = read_step_values(path)
    assert np.abs(back - values).max() <= 1e-12


def test_reference_file_rejects_all_zero(tmp_path):
    write_step_values(_reference_dir(tmp_path) / "lighting.we.ref", np.zeros(N_STEPS))
    with pytest.raises(ScheduleError, match="lighting.we.ref: reference schedule is all zero"):
        load_reference_dir(tmp_path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_reference_file_rejects_non_finite(tmp_path, bad):
    path = _reference_dir(tmp_path) / "ceiling_fan.wd.ref"
    lines = path.read_text().splitlines()
    lines[7] = f"7,{bad}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScheduleError, match="line 8: step 7 has non-finite value"):
        load_reference_dir(tmp_path)


def test_reference_file_rejects_short(tmp_path):
    (_reference_dir(tmp_path) / "plug_loads.wd.ref").write_text("0,1.0\n1,2.0\n")
    with pytest.raises(ScheduleError, match="expected 96"):
        load_reference_dir(tmp_path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("96,0.5", "step 96 outside 0..95"),
        ("-1,0.9", "step -1 outside 0..95"),
        ("3,0.5", "duplicate step 3"),
        ("40,0.5,1", "expected step,value, got 3 fields"),
        ("40", "expected step,value, got 1 fields"),
        ("4x,0.5", "invalid literal for int"),
        ("40,abc", "could not convert string to float"),
    ],
)
def test_step_values_reject_bad_line_naming_file_and_line(tmp_path, line, message):
    path = tmp_path / "x.profile"
    write_step_values(path, np.linspace(0.0, 1.0, N_STEPS))
    lines = path.read_text().splitlines()
    lines[40] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"x.profile: line 41: {message}"):
        read_step_values(path)


def test_step_values_skip_blank_lines_and_take_any_order(tmp_path):
    values = np.linspace(1.0, 2.0, N_STEPS)
    path = tmp_path / "r.ref"
    path.write_text("\n".join(f"{i},{float(values[i])!r}\n" for i in reversed(range(N_STEPS))))
    assert np.array_equal(read_step_values(path), values)


def test_load_reference_dir_names_missing_file(tmp_path):
    ref = load_reference_dir(_reference_dir(tmp_path))
    assert ref.shape == (len(MODULATED_END_USES), len(DAY_TYPES), N_STEPS)
    for u, use in enumerate(MODULATED_END_USES):
        for d, dt in enumerate(DAY_TYPES):
            assert np.abs(ref[u, d] - default_reference(use, dt)).max() <= 1e-12
    (tmp_path / "plug_loads.we.ref").unlink()
    with pytest.raises(ScheduleError, match="plug_loads.we.ref"):
        load_reference_dir(tmp_path)


def test_assemble_schedule_takes_reference_by_day_type():
    # each (use, day type) reference is a constant; WE doubles WD
    ref = np.ones((len(MODULATED_END_USES), len(DAY_TYPES), N_STEPS))
    ref *= np.arange(1, len(MODULATED_END_USES) + 1)[:, None, None]
    ref[:, DAY_TYPES.index("WE")] *= 2
    cal = SimCalendar(start_weekday=4, n_days=4)  # friday start: WD WE WE WD
    sched = assemble_schedule(_day_result(np.ones(4 * N_STEPS)), ref, cal, modulation="present")
    for u, use in enumerate(MODULATED_END_USES):
        assert sched.peaks[use] == 2.0 * (u + 1)
        row = sched.columns[use]
        assert np.all(row[:N_STEPS] == 0.5)
        assert np.all(row[N_STEPS : 3 * N_STEPS] == 1.0)
        assert np.all(row[3 * N_STEPS :] == 0.5)


def test_bundle_round_trip_and_missing(tmp_path):
    bundle = default_bundle()
    write_bundle(tmp_path / "b", bundle)
    back = load_bundle(tmp_path / "b")
    assert set(back) == set(bundle)
    dist = back["shower.duration"]
    assert np.allclose(dist.support, bundle["shower.duration"].support)
    assert np.allclose(dist.probs, bundle["shower.duration"].probs)
    assert dist.unit == bundle["shower.duration"].unit
    (tmp_path / "b" / "sink.flow").unlink()
    with pytest.raises(ScheduleError, match="sink.flow"):
        load_bundle(tmp_path / "b")
    with pytest.raises(ScheduleError, match="not found"):
        load_bundle(tmp_path / "nowhere")


def _two_day_result():
    """One occupant at home on day 0 and away on day 1, with two events."""
    present = np.ones(2 * N_STEPS)
    present[N_STEPS:] = 0.0  # day 1 empty
    appl = _events((C("cooking_range"), 30.0, 30.0, 1.0))
    water = _events((C("showers"), 600.0, 10.0, 8.0))
    return _day_result(present, appl, water)


def _default_reference_array():
    return np.array([[default_reference(use, dt) for dt in DAY_TYPES] for use in MODULATED_END_USES])


def test_assemble_schedule_end_to_end():
    cal = SimCalendar(start_weekday=0, n_days=2)
    result = _two_day_result()
    present = np.repeat([1.0, 0.0], N_STEPS)
    ref = _default_reference_array()
    sched = assemble_schedule(result, ref, cal, modulation="present")
    assert np.array_equal(sched.columns["occupants"], present)
    # day 0 lighting follows the weekday reference normalized by its own max
    wd = ref[MODULATED_END_USES.index("lighting"), DAY_TYPES.index("WD")]
    peak = sched.peaks["lighting"]
    assert np.allclose(sched.columns["lighting"][:N_STEPS], wd / peak)
    # empty day pins lighting at the daily minimum
    assert np.all(sched.columns["lighting"][N_STEPS:] == wd.min() / peak)
    assert sched.columns["cooking_range"].max() == 1.0
    assert sched.columns["showers"][40] == 1.0


def test_schedule_writer_negative_reference_matches_per_value_format(tmp_path):
    """A negative reference has a peak <= 0, so its column is written unscaled."""
    cal = SimCalendar(start_weekday=0, n_days=2)
    sched = assemble_schedule(_two_day_result(), -_default_reference_array(), cal, modulation="present")
    assert sched.peaks["lighting"] < 0 and sched.columns["lighting"].max() < 0
    _assert_writes_reference_bytes(tmp_path, sched)
