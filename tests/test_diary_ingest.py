import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from occsim.diary_ingest import (
    FULL_ALPHABET,
    N_MINUTES,
    N_STEPS,
    STATE_TOKENS,
    ActivityCodeMap,
    ActivityState,
    DiaryFormatError,
    RawDiary,
    StateSequence,
    ingest,
    load_sequences_any,
    parse_diaries,
    project_to_presence,
    read_sequences,
    resample_to_sequence,
    write_sequences,
)

CMAP = ActivityCodeMap(
    {
        "s": ActivityState.SLEEP,
        "a": ActivityState.AWAY,
        "h": ActivityState.HOME_ACTIVE,
        "c": ActivityState.COOKING,
    },
    ActivityState.AWAY,
)


def _diary_file(tmp_path, rows, header="respondent_id,day_type,weight,codes"):
    path = tmp_path / "d.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def test_parse_single_all_sleep(tmp_path):
    path = _diary_file(tmp_path, ["r1,WD,1.5," + ",".join(["s"] * N_MINUTES)])
    result = parse_diaries(path, CMAP)
    assert len(result.diaries) == 1
    d = result.diaries[0]
    assert d.respondent_id == "r1" and d.day_type == "WD" and d.weight == 1.5
    assert np.all(d.minutes == int(ActivityState.SLEEP))
    assert result.unknown_codes == 0


def test_parse_short_row_names_row(tmp_path):
    good = "r1,WD,1," + ",".join(["s"] * N_MINUTES)
    bad = "r2,WD,1," + ",".join(["s"] * (N_MINUTES - 1))
    path = _diary_file(tmp_path, [good, bad])
    with pytest.raises(DiaryFormatError, match="row 2"):
        parse_diaries(path, CMAP)


def test_parse_unknown_code_tallied(tmp_path):
    codes = ["s"] * N_MINUTES
    codes[100] = "t180101"
    path = _diary_file(tmp_path, ["r1,WD,1," + ",".join(codes)])
    result = parse_diaries(path, CMAP)
    # unmapped code falls back to the map default (Away here)
    assert result.diaries[0].minutes[100] == int(ActivityState.AWAY)
    assert result.unknown_codes == 1


def test_parse_negative_weight_rejected(tmp_path):
    path = _diary_file(tmp_path, ["r1,WD,-2," + ",".join(["s"] * N_MINUTES)])
    with pytest.raises(DiaryFormatError, match="row 1"):
        parse_diaries(path, CMAP)


def test_parse_bad_day_type_rejected(tmp_path):
    path = _diary_file(tmp_path, ["r1,XX,1," + ",".join(["s"] * N_MINUTES)])
    with pytest.raises(DiaryFormatError, match="day_type"):
        parse_diaries(path, CMAP)


def _diary_from_minutes(minutes, weight=1.0):
    return RawDiary("r", "WD", weight, np.asarray(minutes, dtype=np.int8))


def _resample_reference(minutes):
    """The `np.add.at` / `np.minimum.at` vote the bincount kernel replaced."""
    windows = np.asarray(minutes, dtype=np.int8).reshape(N_STEPS, 15)
    counts = np.zeros((N_STEPS, 7), dtype=np.int16)
    rows = np.repeat(np.arange(N_STEPS), 15)
    np.add.at(counts, (rows, windows.ravel()), 1)
    firsts = np.full((N_STEPS, 7), 15, dtype=np.int16)
    offsets = np.tile(np.arange(15, dtype=np.int16), N_STEPS)
    np.minimum.at(firsts, (rows, windows.ravel()), offsets)
    best = counts.max(axis=1)
    rank = np.where(counts == best[:, None], firsts, 16)
    return rank.argmin(axis=1).astype(np.int8)


# count patterns of a 15-minute window whose top counts tie
_TIED_PATTERNS = [(7, 7, 1), (5, 5, 5), (6, 6, 3), (4, 4, 4, 3), (3,) * 5, (2, 2, 2, 2, 2, 2, 3), (15,)]


@st.composite
def tied_windows(draw):
    """Minutes whose every window is a shuffled multiset with tied top counts."""
    rand = random.Random(draw(st.integers(0, 2**32 - 1)))
    minutes = []
    for _ in range(N_STEPS):
        pattern = rand.choice(_TIED_PATTERNS)
        states = rand.sample(range(7), len(pattern))
        window = [s for s, c in zip(states, pattern) for _ in range(c)]
        rand.shuffle(window)
        minutes.extend(window)
    return minutes


@given(tied_windows())
def test_resample_matches_reference_on_tied_windows(minutes):
    got = resample_to_sequence(_diary_from_minutes(minutes)).states
    assert np.array_equal(got, _resample_reference(minutes))


@pytest.mark.parametrize("state", [-1, 7, 100])
def test_raw_diary_rejects_state_out_of_range(state):
    minutes = np.zeros(N_MINUTES, dtype=np.int8)
    minutes[700] = state
    with pytest.raises(DiaryFormatError, match="state outside 0..6"):
        _diary_from_minutes(minutes)


def test_resample_majority():
    minutes = np.full(N_MINUTES, int(ActivityState.SLEEP), dtype=np.int8)
    # window 0: 8 minutes Cooking vs 7 Sleep -> Cooking
    minutes[:8] = int(ActivityState.COOKING)
    seq = resample_to_sequence(_diary_from_minutes(minutes))
    assert seq.states[0] == int(ActivityState.COOKING)
    assert np.all(seq.states[1:] == int(ActivityState.SLEEP))


def test_resample_tie_earliest_occurrence():
    minutes = np.full(N_MINUTES, int(ActivityState.HOME_ACTIVE), dtype=np.int8)
    # 7 Cooking (minutes 0-6), 7 Laundry (7-13), 1 HomeActive: tie goes to Cooking
    minutes[0:7] = int(ActivityState.COOKING)
    minutes[7:14] = int(ActivityState.LAUNDRY)
    seq = resample_to_sequence(_diary_from_minutes(minutes))
    assert seq.states[0] == int(ActivityState.COOKING)

    # same counts, Laundry first -> Laundry
    minutes[0:7] = int(ActivityState.LAUNDRY)
    minutes[7:14] = int(ActivityState.COOKING)
    seq = resample_to_sequence(_diary_from_minutes(minutes))
    assert seq.states[0] == int(ActivityState.LAUNDRY)


def test_resample_preserves_weight_and_day_type():
    d = RawDiary("x", "WE", 3.25, np.zeros(N_MINUTES, dtype=np.int8))
    seq = resample_to_sequence(d)
    assert (seq.respondent_id, seq.day_type, seq.weight) == ("x", "WE", 3.25)


@given(st.lists(st.integers(0, 6), min_size=N_MINUTES, max_size=N_MINUTES))
@example([0] * N_MINUTES)
@example([6] * N_MINUTES)
def test_resample_matches_counting_oracle(minutes):
    seq = resample_to_sequence(_diary_from_minutes(minutes))
    assert np.array_equal(seq.states, _resample_reference(minutes))
    for step in range(0, N_STEPS, 17):  # spot-check a spread of windows
        window = minutes[step * 15 : (step + 1) * 15]
        counts = Counter(window)
        best = max(counts.values())
        tied = {s for s, c in counts.items() if c == best}
        winner = next(s for s in window if s in tied)
        assert seq.states[step] == winner


@given(st.lists(st.integers(0, 6), min_size=N_STEPS, max_size=N_STEPS))
def test_projection_idempotent_and_total(states):
    seq = StateSequence("r", "WD", 1.0, np.array(states, dtype=np.int8))
    once = project_to_presence(seq)
    twice = project_to_presence(once)
    assert np.array_equal(once.states, twice.states)
    assert set(np.unique(once.states)) <= {0, 1, 2}


def test_projection_examples():
    states = np.full(N_STEPS, int(ActivityState.AWAY), dtype=np.int8)
    assert np.all(project_to_presence(StateSequence("r", "WD", 1, states)).states == 1)
    states[:3] = [int(ActivityState.COOKING), int(ActivityState.LAUNDRY), int(ActivityState.SLEEP)]
    out = project_to_presence(StateSequence("r", "WD", 1, states)).states
    assert list(out[:3]) == [2, 2, 0]


def test_sequence_length_enforced():
    with pytest.raises(DiaryFormatError):
        StateSequence("r", "WD", 1.0, np.zeros(95, dtype=np.int8))


def test_sequences_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    seqs = [
        StateSequence(f"r{i}", "WD" if i % 2 else "WE", float(w), rng.integers(0, 7, N_STEPS).astype(np.int8))
        for i, w in enumerate(rng.uniform(0.1, 5.0, 6))
    ]
    path = tmp_path / "seqs.csv"
    write_sequences(path, seqs)
    back = read_sequences(path)
    assert len(back) == 6
    for a, b in zip(seqs, back):
        assert a.respondent_id == b.respondent_id
        assert a.day_type == b.day_type
        assert abs(a.weight - b.weight) < 1e-12
        assert np.array_equal(a.states, b.states)


def test_read_sequences_names_row_and_unknown_token(tmp_path):
    seqs = [StateSequence(f"r{i}", "WD", 1.0, np.zeros(N_STEPS, dtype=np.int8)) for i in range(2)]
    path = tmp_path / "seqs.csv"
    write_sequences(path, seqs)
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[3 + 10] = "Napping"
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DiaryFormatError, match=r"seqs\.csv: row 2: unknown state token 'Napping'"):
        read_sequences(path)


def test_load_sequences_any_detects_both(tmp_path):
    raw = _diary_file(tmp_path, ["r1,WD,1," + ",".join(["s"] * N_MINUTES)])
    seqs, unknown = load_sequences_any(raw, CMAP)
    assert len(seqs) == 1 and unknown == 0
    assert np.all(seqs[0].states == int(ActivityState.SLEEP))

    resampled = tmp_path / "seqs.csv"
    write_sequences(resampled, seqs)
    seqs2, unknown2 = load_sequences_any(resampled)
    assert unknown2 == 0
    assert np.array_equal(seqs2[0].states, seqs[0].states)


def test_load_sequences_any_identity_map_default(tmp_path):
    tokens = [STATE_TOKENS[s] for s in FULL_ALPHABET]
    row = "r1,WE,2," + ",".join(tokens[i % 7] for i in range(N_MINUTES))
    raw = _diary_file(tmp_path, [row])
    seqs, unknown = load_sequences_any(raw, None)
    assert unknown == 0
    assert seqs[0].day_type == "WE"


def test_parse_maps_every_code_and_counts_unmapped(tmp_path):
    rng = np.random.default_rng(4)
    codes = ["s", "a", "h", "c", "zz", "", "S"]
    rows = []
    expected = []
    for i in range(3):
        picks = rng.integers(0, len(codes), N_MINUTES)
        rows.append(f"r{i},WE,1," + ",".join(codes[j] for j in picks))
        expected.append(picks)
    result = parse_diaries(_diary_file(tmp_path, rows), CMAP)
    lut = [int(CMAP.mapping[c]) if c in CMAP.mapping else int(CMAP.default_state) for c in codes]
    for diary, picks in zip(result.diaries, expected):
        assert np.array_equal(diary.minutes, np.array(lut)[picks])
    assert result.unknown_codes == sum(int(np.count_nonzero(p >= 4)) for p in expected)


def test_ingest_counts_unknown(tmp_path):
    codes = ["s"] * N_MINUTES
    codes[5] = "zz"
    codes[6] = "zz"
    path = _diary_file(tmp_path, ["r1,WD,1," + ",".join(codes)])
    seqs, unknown = ingest(path, CMAP)
    assert unknown == 2
    assert len(seqs) == 1
