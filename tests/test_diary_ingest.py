import itertools
import random
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from occsim import diary_ingest
from occsim.conf import OccsimError
from occsim.diary_ingest import (
    _BLOCK_ROWS,
    _ROW_BLOCK,
    DAY_TYPES,
    FULL_ALPHABET,
    N_MINUTES,
    N_STEPS,
    STATE_TOKENS,
    ActivityCodeMap,
    ActivityState,
    DIARY,
    SEQUENCE,
    ingest,
    load_sequences_any,
    parse_diaries,
    project_to_presence,
    read_sequences,
    resample_to_sequence,
    sequence_rows,
    sequence_table,
    write_sequences,
)
from occsim.synth import default_code_map, write_diaries, write_input_tree
from tests.helpers import row_loop_parse_diaries, row_loop_read_sequences

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
    assert result.diaries.dtype == DIARY and len(result.diaries) == 1
    rid, day_type, weight, minutes = result.diaries[0]
    assert rid == "r1" and day_type == "WD" and weight == 1.5
    assert np.all(minutes == int(ActivityState.SLEEP))
    assert result.unknown_codes == 0


def test_parse_short_row_names_row(tmp_path):
    good = "r1,WD,1," + ",".join(["s"] * N_MINUTES)
    bad = "r2,WD,1," + ",".join(["s"] * (N_MINUTES - 1))
    path = _diary_file(tmp_path, [good, bad])
    with pytest.raises(OccsimError, match="row 2"):
        parse_diaries(path, CMAP)


def test_parse_unknown_code_tallied(tmp_path):
    codes = ["s"] * N_MINUTES
    codes[100] = "t180101"
    path = _diary_file(tmp_path, ["r1,WD,1," + ",".join(codes)])
    result = parse_diaries(path, CMAP)
    # unmapped code falls back to the map default (Away here)
    assert result.diaries["minutes"][0, 100] == int(ActivityState.AWAY)
    assert result.unknown_codes == 1


def test_parse_negative_weight_rejected(tmp_path):
    path = _diary_file(tmp_path, ["r1,WD,-2," + ",".join(["s"] * N_MINUTES)])
    with pytest.raises(OccsimError, match="row 1"):
        parse_diaries(path, CMAP)


def test_parse_bad_day_type_rejected(tmp_path):
    path = _diary_file(tmp_path, ["r1,XX,1," + ",".join(["s"] * N_MINUTES)])
    with pytest.raises(OccsimError, match="day_type"):
        parse_diaries(path, CMAP)


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
# count patterns whose top count is a strict majority by the least margin, the
# last with all seven states
_MAJORITY_PATTERNS = [(8, 7), (8, 4, 3), (8, 2, 1, 1, 1, 1, 1)]
# tied patterns without a strict majority, which only the bincount vote decides
_NO_MAJORITY_PATTERNS = [pattern for pattern in _TIED_PATTERNS if max(pattern) < 8]


@st.composite
def pattern_windows(draw, patterns=tuple(_TIED_PATTERNS)):
    """Minutes whose every window is a shuffled multiset of one of the count `patterns`."""
    rand = random.Random(draw(st.integers(0, 2**32 - 1)))
    minutes = []
    for _ in range(N_STEPS):
        pattern = rand.choice(patterns)
        states = rand.sample(range(7), len(pattern))
        window = [s for s, c in zip(states, pattern) for _ in range(c)]
        rand.shuffle(window)
        minutes.extend(window)
    return minutes


@given(pattern_windows())
def test_resample_matches_reference_on_tied_windows(minutes):
    got = resample_to_sequence([minutes])[0]
    assert np.array_equal(got, _resample_reference(minutes))


@given(pattern_windows(_NO_MAJORITY_PATTERNS))
def test_resample_matches_reference_where_no_window_has_a_strict_majority(minutes):
    """Every window of the row goes through the bincount vote."""
    with mock.patch.object(diary_ingest, "_vote", wraps=diary_ingest._vote) as vote:
        got = resample_to_sequence([minutes])[0]
    assert sum(len(call.args[0]) for call in vote.call_args_list) == N_STEPS
    assert np.array_equal(got, _resample_reference(minutes))


@given(pattern_windows(_MAJORITY_PATTERNS + [(15,)]))
def test_strict_majority_windows_are_decided_by_counts_alone(minutes):
    """At the least margin too; the tied patterns above mix such windows
    with voted ones in one row."""
    with mock.patch.object(diary_ingest, "_vote", side_effect=AssertionError("a window went to the vote")):
        got = resample_to_sequence([minutes])[0]
    assert np.array_equal(got, _resample_reference(minutes))


@pytest.mark.parametrize("state", [-1, 7, 100])
def test_raw_diary_rejects_state_out_of_range(state):
    minutes = np.zeros((_ROW_BLOCK + 2, N_MINUTES), dtype=np.int8)
    minutes[_ROW_BLOCK + 1, 700] = state  # in the second block of rows
    with pytest.raises(OccsimError, match="state outside 0..6"):
        resample_to_sequence(minutes)


@pytest.mark.parametrize("shape", [(N_MINUTES,), (2, N_MINUTES - 1), (1, 2, N_MINUTES)])
def test_resample_rejects_a_matrix_not_n_by_1440(shape):
    with pytest.raises(OccsimError, match=r"minutes must be \(n, 1440\), got"):
        resample_to_sequence(np.zeros(shape, dtype=np.int8))


def test_resample_of_no_rows_is_no_rows():
    states = resample_to_sequence(np.zeros((0, N_MINUTES), dtype=np.int8))
    assert states.dtype == np.int8 and states.shape == (0, N_STEPS)


def test_resample_majority():
    minutes = np.full((1, N_MINUTES), int(ActivityState.SLEEP), dtype=np.int8)
    # window 0: 8 minutes Cooking vs 7 Sleep -> Cooking
    minutes[0, :8] = int(ActivityState.COOKING)
    states = resample_to_sequence(minutes)
    assert states.dtype == np.int8 and states.shape == (1, N_STEPS)
    assert states[0, 0] == int(ActivityState.COOKING)
    assert np.all(states[0, 1:] == int(ActivityState.SLEEP))


def test_resample_tie_earliest_occurrence():
    minutes = np.full((2, N_MINUTES), int(ActivityState.HOME_ACTIVE), dtype=np.int8)
    # 7 Cooking (minutes 0-6), 7 Laundry (7-13), 1 HomeActive: tie goes to Cooking
    minutes[0, 0:7] = int(ActivityState.COOKING)
    minutes[0, 7:14] = int(ActivityState.LAUNDRY)
    # same counts, Laundry first -> Laundry
    minutes[1, 0:7] = int(ActivityState.LAUNDRY)
    minutes[1, 7:14] = int(ActivityState.COOKING)
    assert resample_to_sequence(minutes)[:, 0].tolist() == [int(ActivityState.COOKING), int(ActivityState.LAUNDRY)]


def test_resample_preserves_weight_and_day_type(tmp_path):
    path = _diary_file(tmp_path, ["x,WE,3.25," + ",".join(["s"] * N_MINUTES)])
    table, _ = ingest(path, CMAP)
    assert table.dtype == SEQUENCE
    assert (table["id"][0], table["day_type"][0], table["weight"][0]) == ("x", "WE", 3.25)


@given(
    st.lists(st.lists(st.integers(0, 6), min_size=N_MINUTES, max_size=N_MINUTES), min_size=1, max_size=3),
    st.integers(1, 2 * _ROW_BLOCK + 1),
)
@example([[0] * N_MINUTES], 1)
@example([[6] * N_MINUTES, [0] * N_MINUTES], _ROW_BLOCK + 1)
def test_resample_matches_counting_oracle(rows, n):
    """`n` rows that repeat the drawn ones, across blocks of rows."""
    minutes = [rows[i % len(rows)] for i in range(n)]
    states = resample_to_sequence(minutes)
    assert states.shape == (n, N_STEPS)
    expected = [_resample_reference(row) for row in rows]
    for i in range(n):
        assert np.array_equal(states[i], expected[i % len(rows)])
    for row, row_states in zip(rows, states):
        for step in range(0, N_STEPS, 17):  # spot-check a spread of windows
            window = row[step * 15 : (step + 1) * 15]
            counts = Counter(window)
            best = max(counts.values())
            tied = {s for s, c in counts.items() if c == best}
            winner = next(s for s in window if s in tied)
            assert row_states[step] == winner


@given(st.lists(st.integers(0, 6), min_size=N_STEPS, max_size=N_STEPS))
def test_projection_idempotent_and_total(states):
    once = project_to_presence(np.array(states, dtype=np.int8))
    twice = project_to_presence(once)
    assert once.dtype == np.int8
    assert np.array_equal(once, twice)
    assert set(np.unique(once)) <= {0, 1, 2}


def test_projection_examples():
    states = np.full(N_STEPS, int(ActivityState.AWAY), dtype=np.int8)
    assert np.all(project_to_presence(states) == 1)
    states[:3] = [int(ActivityState.COOKING), int(ActivityState.LAUNDRY), int(ActivityState.SLEEP)]
    out = project_to_presence(np.stack([states, states]))
    assert out.shape == (2, N_STEPS)
    assert list(out[1, :3]) == [2, 2, 0]


def test_sequence_length_enforced():
    with pytest.raises(OccsimError, match="states must be"):
        sequence_table(["r"], "WD", 1.0, np.zeros((1, 95), dtype=np.int8))
    with pytest.raises(OccsimError, match="states must be"):
        sequence_table(["r", "q"], "WD", 1.0, np.zeros((1, N_STEPS), dtype=np.int8))


@pytest.mark.parametrize("day_types", ["WDX", ["WD", "W"], ["WE", "XX"]])
def test_sequence_table_rejects_day_type_before_truncating(day_types):
    # "WDX" would be stored as "WD" by the two-character column
    with pytest.raises(OccsimError, match="day_type must be one of"):
        sequence_table(["r", "q"], day_types, 1.0, np.zeros((2, N_STEPS), dtype=np.int8))


def test_sequence_table_columns_and_rows():
    states = np.arange(2 * N_STEPS).reshape(2, N_STEPS) % 7
    table = sequence_table(["a", "b"], ["WD", "WE"], [0.5, 2.0], states)
    assert table.dtype == SEQUENCE and len(table) == 2
    assert table["states"].dtype == np.int8 and np.array_equal(table["states"], states)
    rows = list(sequence_rows(table))
    assert rows[1][:3] == ("b", "WE", 2.0)
    assert rows[1][3] == states[1].tolist()
    assert [type(v) for v in rows[0]] == [str, str, float, list]


def test_sequences_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    weights = rng.uniform(0.1, 5.0, 6)
    seqs = sequence_table(
        [f"r{i}" for i in range(6)],
        ["WD" if i % 2 else "WE" for i in range(6)],
        weights,
        rng.integers(0, 7, (6, N_STEPS)),
    )
    path = tmp_path / "seqs.csv"
    write_sequences(path, seqs)
    back = read_sequences(path)
    assert back.dtype == SEQUENCE and len(back) == 6
    assert back["id"].tolist() == seqs["id"].tolist()
    assert back["day_type"].tolist() == seqs["day_type"].tolist()
    assert back["weight"].tolist() == weights.tolist()  # repr round-trips exactly
    assert np.array_equal(back["states"], seqs["states"])


def _reference_sequence_text(table):
    """The per-token formatter that `write_sequences` must match byte for byte."""
    lines = ["respondent_id,day_type,weight," + ",".join(f"s{i:02d}" for i in range(N_STEPS))]
    for rid, day_type, weight, states in sequence_rows(table):
        lines.append(f"{rid},{day_type},{weight!r}," + ",".join(STATE_TOKENS[s] for s in states))
    return "\n".join(lines) + "\n"


def test_write_sequences_matches_per_token_format_across_blocks(tmp_path):
    n = 2 * _BLOCK_ROWS + 7
    rng = np.random.default_rng(4)
    states = rng.integers(0, len(FULL_ALPHABET), (n, N_STEPS))
    # every four-state run, then every state at every step
    runs = np.array(list(itertools.product(range(len(FULL_ALPHABET)), repeat=4))).ravel()
    states.ravel()[: len(runs)] = runs
    states[-7:] = (np.arange(7)[:, None] + np.arange(N_STEPS)) % len(FULL_ALPHABET)
    weights = np.resize([1.0, 0.1, 1 / 3, 1e-300, 5e300, 123456789.123, 0.0, 2.5], n) * rng.uniform(1, 2, n)
    table = sequence_table([f"h{i}o{i % 3}" for i in range(n)], ["WD", "WE", "WE"] * (n // 3), weights, states)
    path = tmp_path / "seqs.csv"
    write_sequences(path, table)
    assert path.read_bytes() == _reference_sequence_text(table).encode()


@pytest.mark.parametrize("state", [-1, len(FULL_ALPHABET)])
def test_write_sequences_rejects_state_outside_alphabet(tmp_path, state):
    states = np.zeros((3, N_STEPS), dtype=np.int8)
    states[2, 95] = state
    with pytest.raises(OccsimError, match="state outside 0..6"):
        write_sequences(tmp_path / "seqs.csv", sequence_table(["a", "b", "c"], "WD", 1.0, states))
    assert not (tmp_path / "seqs.csv").exists()


def test_write_sequences_holds_less_than_the_file(tmp_path):
    n = 7300
    rng = np.random.default_rng(2)
    table = sequence_table(
        [f"h{i // 20}o{i % 20}" for i in range(n)], "WD", rng.uniform(0.1, 3, n), rng.integers(0, 7, (n, N_STEPS))
    )
    path = tmp_path / "seqs.csv"
    tracemalloc.start()
    try:
        write_sequences(path, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def test_read_sequences_empty_file_is_an_empty_table(tmp_path):
    path = tmp_path / "seqs.csv"
    write_sequences(path, sequence_table([], [], [], np.zeros((0, N_STEPS), dtype=np.int8)))
    back = read_sequences(path)
    assert back.dtype == SEQUENCE and back.shape == (0,)


@pytest.mark.parametrize("read", [lambda p: parse_diaries(p, CMAP), read_sequences])
def test_zero_byte_file_is_an_error(tmp_path, read):
    path = _diary_file(tmp_path, [])
    path.write_bytes(b"")
    with pytest.raises(OccsimError, match=r"d\.csv: empty file"):
        read(path)


def _zero_sequences(path, n=2):
    write_sequences(path, sequence_table([f"r{i}" for i in range(n)], "WD", 1.0, np.zeros((n, N_STEPS))))


@pytest.mark.parametrize(
    "field, value, message",
    [
        (2, "abc", "bad weight 'abc'"),
        (2, "nan", "bad weight 'nan'"),
        (2, "-5", "bad weight '-5'"),
        (2, "inf", "bad weight 'inf'"),
        (1, "XX", "bad day_type 'XX'"),
        (1, "WDX", "bad day_type 'WDX'"),
        (3, "Sleep,Sleep", f"expected {3 + N_STEPS} fields, got {4 + N_STEPS}"),
    ],
)
def test_read_sequences_checks_row_head(tmp_path, field, value, message):
    path = tmp_path / "seqs.csv"
    _zero_sequences(path)
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[field] = value
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(OccsimError, match=rf"seqs\.csv: row 2: {message}"):
        read_sequences(path)


@pytest.mark.parametrize("weight", ["abc", "nan", "inf", "-1"])
def test_parse_checks_weight_like_read_sequences(tmp_path, weight):
    path = _diary_file(tmp_path, [f"r1,WD,{weight}," + ",".join(["s"] * N_MINUTES)])
    with pytest.raises(OccsimError, match=f"d\\.csv: row 1: bad weight '{weight}'"):
        parse_diaries(path, CMAP)


@pytest.mark.parametrize(
    "read, width, code",
    [(lambda p: parse_diaries(p, CMAP).diaries, N_MINUTES, "s"), (read_sequences, N_STEPS, "Sleep")],
)
def test_row_numbers_count_blank_lines(tmp_path, read, width, code):
    rows = [f"r{i},WD,1," + ",".join([code] * width) for i in range(2)]
    path = _diary_file(tmp_path, [rows[0], "", rows[1], ""])
    assert len(read(path)) == 2
    path = _diary_file(tmp_path, [rows[0], "", "", "r2,WD,-1," + ",".join([code] * width)])
    with pytest.raises(OccsimError, match=r"d\.csv: row 4: bad weight '-1'"):
        read(path)


def test_read_sequences_names_row_after_blank_lines_and_unknown_token(tmp_path):
    path = _diary_file(tmp_path, ["", "r1,WD,1," + ",".join(["Sleep"] * (N_STEPS - 1) + ["Napping"])])
    with pytest.raises(OccsimError, match=r"d\.csv: row 2: unknown state token 'Napping'"):
        read_sequences(path)


def test_read_sequences_names_row_and_unknown_token(tmp_path):
    path = tmp_path / "seqs.csv"
    _zero_sequences(path)
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[3 + 10] = "Napping"
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(OccsimError, match=r"seqs\.csv: row 2: unknown state token 'Napping'"):
        read_sequences(path)


def test_load_sequences_any_detects_both(tmp_path):
    raw = _diary_file(tmp_path, ["r1,WD,1," + ",".join(["s"] * N_MINUTES)])
    seqs, unknown = load_sequences_any(raw, CMAP)
    assert len(seqs) == 1 and unknown == 0
    assert np.all(seqs["states"][0] == int(ActivityState.SLEEP))

    resampled = tmp_path / "seqs.csv"
    write_sequences(resampled, seqs)
    seqs2, unknown2 = load_sequences_any(resampled)
    assert unknown2 == 0
    assert np.array_equal(seqs2, seqs)


@pytest.mark.parametrize("blank", ["\n", "\n\n", "\r\n\r\n"])
def test_load_sequences_any_sniffs_the_first_row_after_blank_lines(tmp_path, blank):
    raw = tmp_path / "raw.csv"
    raw.write_text("respondent_id,day_type,weight,codes\n" + blank + "r1,WE,1," + ",".join(["c"] * N_MINUTES) + "\n")
    seqs, unknown = load_sequences_any(raw, CMAP)
    assert unknown == 0 and np.all(seqs["states"] == int(ActivityState.COOKING))
    resampled = tmp_path / "seqs.csv"
    write_sequences(resampled, seqs)
    lines = resampled.read_text().splitlines(keepends=True)
    resampled.write_text(lines[0] + blank + lines[1])
    assert np.array_equal(load_sequences_any(resampled)[0], seqs)


@pytest.mark.parametrize("body", ["", "\n", "\n \n\n"])
def test_load_sequences_any_without_rows_names_width_0(tmp_path, body):
    path = _diary_file(tmp_path, [])
    path.write_text("respondent_id,day_type,weight\n" + body)
    with pytest.raises(OccsimError, match=r"d\.csv: unrecognized record width 0; expected 99 \(sequences\)"):
        load_sequences_any(path)


def test_load_sequences_any_identity_map_default(tmp_path):
    tokens = [STATE_TOKENS[s] for s in FULL_ALPHABET]
    row = "r1,WE,2," + ",".join(tokens[i % 7] for i in range(N_MINUTES))
    raw = _diary_file(tmp_path, [row])
    seqs, unknown = load_sequences_any(raw, None)
    assert unknown == 0
    assert seqs["day_type"][0] == "WE"


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
    for minutes, picks in zip(result.diaries["minutes"], expected):
        assert np.array_equal(minutes, np.array(lut)[picks])
    assert result.unknown_codes == sum(int(np.count_nonzero(p >= 4)) for p in expected)


def test_ingest_counts_unknown(tmp_path):
    codes = ["s"] * N_MINUTES
    codes[5] = "zz"
    codes[6] = "zz"
    path = _diary_file(tmp_path, ["r1,WD,1," + ",".join(codes)])
    seqs, unknown = ingest(path, CMAP)
    assert unknown == 2
    assert len(seqs) == 1


# -- the blocked reader against the row loop ---------------------------------

_CODE_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789"
# What a case may do to a row: its field count, head, a separator, a code or a byte.
_FAULTS = (
    *("short", "long", "day_type", "nan_weight", "negative_weight"),
    *("separator", "empty_code", "comma_in_code", "bad_byte"),
)


def _distinct_codes(rand, widths, taken=()):
    """One ASCII code of each width, none of them in `taken` or repeated."""
    codes = []
    for w in widths:
        while (code := "".join(rand.choices(_CODE_CHARS, k=w))) in codes or code in taken:
            pass
        codes.append(code)
    return codes


def _file_bytes(rand, rows, *, blank_lines, crlf, faults) -> bytes:
    """A header, then one respondent_id,day_type,weight,<codes> line per row
    of codes, with blank lines at random places and each fault in a random row."""
    weights = ["1", "0.5", "2.25", "0"]
    lines = [[f"r{i}", rand.choice(DAY_TYPES), rand.choice(weights), *row] for i, row in enumerate(rows)]
    for fault in faults:
        _break_row(rand, rand.choice(lines), fault)
    text = [",".join(f) for f in lines]
    for _ in range(blank_lines):
        text.insert(rand.randrange(len(text) + 1), "")
    eol = "\r\n" if crlf else "\n"
    return (eol.join(["respondent_id,day_type,weight,codes", *text]) + eol).encode().replace(b"BAD", b"r\xff")


def _break_row(rand, fields, fault):
    if fault == "short":
        del fields[-1]
    elif fault == "long":
        fields.append(fields[-1])
    elif fault == "day_type":
        fields[1] = "XX"
    elif fault == "nan_weight":
        fields[2] = "nan"
    elif fault == "negative_weight":
        fields[2] = "-1"
    elif fault == "separator":  # same field count, the comma between two codes moved
        c = rand.randrange(3, len(fields) - 1)
        joined = fields[c] + fields[c + 1]
        k = rand.choice([k for k in range(len(joined) + 1) if k != len(fields[c])])
        fields[c], fields[c + 1] = joined[:k], joined[k:]
    elif fault == "empty_code":
        fields[rand.randrange(3, len(fields))] = ""
    elif fault == "comma_in_code":  # same line length, one more field
        c = rand.randrange(3, len(fields))
        j = rand.randrange(max(len(fields[c]), 1))
        fields[c] = fields[c][:j] + "," + fields[c][j + 1 :]
    elif fault == "bad_byte":
        fields[0] = "BAD"


def _random_rows(rand, pool, n, width):
    picks = np.random.default_rng(rand.getrandbits(32)).integers(0, len(pool), (n, width))
    return np.array(pool, dtype=object)[picks].tolist()


_FILE_SHAPES = {
    "n": st.integers(1, _ROW_BLOCK + 8),
    "blank_lines": st.integers(0, 3),
    "crlf": st.booleans(),
    "faults": st.lists(st.sampled_from(_FAULTS), max_size=2),
}


@st.composite
def diary_files(draw, widths=(1, 2, 3, 4, 5, 6, None), faults=_FILE_SHAPES["faults"]):
    """The bytes of a diary file and its code map: codes of one of `widths`
    1..6 or of mixed widths (None), some unmapped, some not ASCII, one of
    another width, with blank lines, CRLF line ends and rows malformed by
    `faults`, over up to more rows than one block."""
    rand = random.Random(draw(st.integers(0, 2**32 - 1)))
    w = draw(st.sampled_from(widths))
    mapped = _distinct_codes(rand, [w or rand.randint(1, 6) for _ in range(rand.randint(1, 7))])
    unmapped = _distinct_codes(rand, [w or rand.randint(1, 6) for _ in range(2)], mapped)
    if draw(st.booleans()):  # not ASCII, and of UTF-8 width w (when w > 1)
        (mapped if draw(st.booleans()) else unmapped).append("é" + "x" * max((w or 2) - 2, 0))
    shape = draw(st.fixed_dictionaries({**_FILE_SHAPES, "faults": faults}))
    rows = _random_rows(rand, mapped + unmapped * draw(st.integers(0, 1)), shape.pop("n"), N_MINUTES)
    if draw(st.booleans()):  # one code of another width
        rand.choice(rows)[rand.randrange(N_MINUTES)] = _distinct_codes(rand, [(w or 1) + 1], mapped)[0]
    code_map = ActivityCodeMap({code: rand.choice(FULL_ALPHABET) for code in mapped}, rand.choice(FULL_ALPHABET))
    return _file_bytes(rand, rows, **shape), code_map


# Unknown tokens: one without a state's first letter, and ones that share a
# state's first letter and differ later, in a byte, in length or in case.
_NEAR_TOKENS = ["Napping", "Sleeq", "Awa", "HomeActive2", "Cookinǵ", "PersonalHygienE"]


@st.composite
def sequence_files(draw):
    """The bytes of a sequence file, some of whose tokens may be unknown,
    with blank lines, CRLF line ends and malformed rows."""
    rand = random.Random(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.fixed_dictionaries(_FILE_SHAPES))
    pool = list(STATE_TOKENS.values()) + draw(st.lists(st.sampled_from(_NEAR_TOKENS), max_size=1))
    return _file_bytes(rand, _random_rows(rand, pool, shape.pop("n"), N_STEPS), **shape)


def _columns(table):
    return [table.dtype, *(table[name].tolist() for name in table.dtype.names)]


def _outcome(read, path):
    """What `read` gives for `path` as lists (its DIARY or SEQUENCE table
    first), or the message of its OccsimError."""
    try:
        result = read(path)
    except OccsimError as exc:
        return str(exc)
    table, *count = result if isinstance(result, tuple) else (result,)
    return [*_columns(table), *count]


def _parsed(code_map):
    def parse(path):
        result = parse_diaries(path, code_map)
        return result.diaries, result.unknown_codes

    return parse


# ATUS-style six-digit activity codes, one of them unmapped: the sorted
# search over codes of one width, which synth's one-letter codes never take
_ATUS_MAP = ActivityCodeMap(
    {
        "010101": ActivityState.SLEEP,
        "010201": ActivityState.PERSONAL_HYGIENE,
        "020201": ActivityState.COOKING,
        "020203": ActivityState.DISHWASHING,
        "120303": ActivityState.HOME_ACTIVE,
        "050101": ActivityState.AWAY,
    },
    ActivityState.HOME_ACTIVE,
)
_ATUS_CODES = [*_ATUS_MAP.mapping, "180101"]


def _atus_row(r):
    codes = [_ATUS_CODES[(r + m) % len(_ATUS_CODES)] for m in range(N_MINUTES)]
    return f"r{r},{DAY_TYPES[r % 2]},{r + 0.5}," + ",".join(codes) + "\n"


_ATUS_FILE = ("h\n" + "".join(map(_atus_row, range(3)))).encode()


@given(diary_files())
@example((b"h\n" + b"r0,WD,1," + b",".join([b"s"] * N_MINUTES) + b"\n", CMAP))
@example((_ATUS_FILE, _ATUS_MAP))
def test_parse_diaries_matches_the_row_loop(tmp_path_factory, case):
    _assert_parse_matches_the_row_loop(tmp_path_factory, case)


def _assert_parse_matches_the_row_loop(tmp_path_factory, case):
    data, code_map = case
    path = tmp_path_factory.mktemp("diaries") / "d.csv"
    path.write_bytes(data)
    assert _outcome(_parsed(code_map), path) == _outcome(lambda p: row_loop_parse_diaries(p, code_map), path)


# The faults that keep a one-byte row's length, which only the 16-bit word
# table's comma check finds: a comma moved between two codes, or a comma for a code.
_SAME_LENGTH_FAULTS = st.lists(st.sampled_from(["separator", "comma_in_code"]), min_size=1, max_size=2)


@given(diary_files(widths=(1,), faults=_SAME_LENGTH_FAULTS))
def test_parse_diaries_of_one_byte_codes_matches_the_row_loop(tmp_path_factory, case):
    _assert_parse_matches_the_row_loop(tmp_path_factory, case)


@given(sequence_files())
def test_read_sequences_matches_the_row_loop(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("sequences") / "s.csv"
    path.write_bytes(data)
    assert _outcome(read_sequences, path) == _outcome(row_loop_read_sequences, path)


def _sleep_away_rows(tmp_path, bad):
    """A sequence file of `_ROW_BLOCK` + 2 rows of Sleep and Away; `bad`
    maps a row to "Sleeq", a token that is no state but starts like Sleep,
    or to "-1", a bad weight."""
    rows = []
    for row in range(1, _ROW_BLOCK + 3):
        tokens = [("Sleep", "Away")[(row + i) % 2] for i in range(N_STEPS)]
        if bad.get(row) == "Sleeq":
            tokens[7] = "Sleeq"
        rows.append(f"r{row},WE,{'-1' if bad.get(row) == '-1' else row}," + ",".join(tokens))
    return _diary_file(tmp_path, rows)


def test_read_sequences_decodes_blocks_like_the_row_loop(tmp_path):
    path = _sleep_away_rows(tmp_path, {})
    assert _outcome(read_sequences, path) == _outcome(row_loop_read_sequences, path)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({3: "Sleeq", 5: "-1"}, "row 3: unknown state token 'Sleeq'"),
        ({3: "-1", 5: "Sleeq"}, "row 3: bad weight '-1'"),
        ({_ROW_BLOCK + 2: "Sleeq"}, f"row {_ROW_BLOCK + 2}: unknown state token 'Sleeq'"),
    ],
    ids=["token_then_weight", "weight_then_token", "second_block"],
)
def test_read_sequences_names_the_first_bad_row(tmp_path, bad, message):
    """A token that is no state sends its block to the row loop, so the
    block's first bad row is the one named."""
    path = _sleep_away_rows(tmp_path, bad)
    with pytest.raises(OccsimError) as exc:
        read_sequences(path)
    assert str(exc.value) == f"{path}: {message}"
    assert _outcome(row_loop_read_sequences, path) == str(exc.value)


def test_a_synth_tree_takes_only_the_fast_paths(tmp_path, monkeypatch):
    """Synth's one-byte codes and one-state windows, and the sequence file
    written from them, are read without the row loop or the bincount vote;
    the differential tests above compare results only, and would pass on a
    reader that always fell back."""
    layout = write_input_tree(tmp_path / "tree", n_per_day_type=2 * _ROW_BLOCK + 3, n_households=1, n_days=1)
    code_map = ActivityCodeMap.read(layout.code_map)
    diaries, unknown = row_loop_parse_diaries(layout.diaries, code_map)
    expected = sequence_table(
        diaries["id"], diaries["day_type"], diaries["weight"], [_resample_reference(row) for row in diaries["minutes"]]
    )
    sequences = tmp_path / "seqs.csv"
    write_sequences(sequences, expected)

    def slow_path(*args):
        raise AssertionError("a slow path ran")

    monkeypatch.setattr(diary_ingest, "_row_loop", slow_path)
    monkeypatch.setattr(diary_ingest, "_vote", slow_path)
    table, got_unknown = ingest(layout.diaries, code_map)
    assert got_unknown == unknown == 0
    assert _columns(table) == _columns(expected)
    assert _columns(read_sequences(sequences)) == _columns(expected)


def _traced_peak(read, path) -> int:
    tracemalloc.start()
    try:
        read(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _random_table(n, seed):
    rng = np.random.default_rng(seed)
    return sequence_table(
        [f"h{i // 20}o{i % 20}" for i in range(n)], "WD", rng.uniform(0.1, 3, n), rng.integers(0, 7, (n, N_STEPS))
    )


def test_read_sequences_traced_peak_stays_below_600_bytes_a_row(tmp_path):
    """The table itself takes about 500 B a row, and a block of rows is
    read and checked at a time: 512 B a row here."""
    n = 7300
    path = tmp_path / "seqs.csv"
    write_sequences(path, _random_table(n, 2))
    assert _traced_peak(read_sequences, path) < 600 * n


def test_parse_diaries_traced_peak_stays_below_4000_bytes_a_row(tmp_path):
    """The 1440 minutes of a row are held twice while the table is built,
    and a block of rows is mapped at a time: 3.3 KB a row here."""
    n = 2000
    path = tmp_path / "diaries.csv"
    write_diaries(path, _random_table(n, 3))
    assert _traced_peak(lambda p: parse_diaries(p, default_code_map()), path) < 4000 * n
