"""Time-use diary ingestion.

Raw diaries carry one activity code per minute over a 24-hour day that
starts at 4:00 a.m. (1440 minutes).  Ingestion maps raw codes onto the
canonical activity alphabet, resamples each diary to 96 fifteen-minute
steps by majority vote, and optionally projects the result onto the
3-state presence alphabet used for clustering.  A corpus of resampled days
is one `SEQUENCE` table from ingest to validation.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .conf import OccsimError, reading, write_lines

N_MINUTES = 1440
N_STEPS = 96
STEP_MINUTES = 15
DAY_TYPES = ("WD", "WE")


class ActivityState(enum.IntEnum):
    """Canonical activity alphabet; values index transition-matrix rows."""

    SLEEP = 0
    AWAY = 1
    HOME_ACTIVE = 2
    COOKING = 3
    DISHWASHING = 4
    LAUNDRY = 5
    PERSONAL_HYGIENE = 6


STATE_TOKENS = {
    ActivityState.SLEEP: "Sleep",
    ActivityState.AWAY: "Away",
    ActivityState.HOME_ACTIVE: "HomeActive",
    ActivityState.COOKING: "Cooking",
    ActivityState.DISHWASHING: "Dishwashing",
    ActivityState.LAUNDRY: "Laundry",
    ActivityState.PERSONAL_HYGIENE: "PersonalHygiene",
}
STATE_BY_TOKEN = {tok: st for st, tok in STATE_TOKENS.items()}
# Plain-int view of the same table for the sequence file reader, where a
# token it lacks is an error.
_INDEX_BY_TOKEN = {tok: int(st) for st, tok in STATE_TOKENS.items()}

FULL_ALPHABET = tuple(ActivityState)
PRESENCE_ALPHABET = (ActivityState.SLEEP, ActivityState.AWAY, ActivityState.HOME_ACTIVE)
# Activities simulated as discrete events with sampled durations.
EVENT_ACTIVITIES = (
    ActivityState.COOKING,
    ActivityState.DISHWASHING,
    ActivityState.LAUNDRY,
    ActivityState.PERSONAL_HYGIENE,
)


# What the diary reader maps a code without a state to; like every state
# index it fits in one byte.
_UNMAPPED = 255


@dataclass(frozen=True)
class ActivityCodeMap:
    """Mapping from raw diary codes to canonical states.

    Unknown codes fall back to `default_state`; callers receive a tally of
    how often that happened.
    """

    mapping: dict[str, ActivityState]
    default_state: ActivityState = ActivityState.HOME_ACTIVE

    @classmethod
    def read(cls, path: str | Path) -> "ActivityCodeMap":
        mapping: dict[str, ActivityState] = {}
        with reading(path) as lines:
            for line in lines:
                try:
                    code, token = line.split(",")
                except ValueError:
                    raise ValueError("expected raw_code,canonical_state") from None
                if token not in STATE_BY_TOKEN:
                    raise ValueError(f"unknown state token {token!r}")
                if code in mapping:
                    raise ValueError(f"duplicate code {code!r}")
                mapping[code] = STATE_BY_TOKEN[token]
            if "DEFAULT" not in mapping:
                raise ValueError("missing DEFAULT,<state> line")
        default = mapping.pop("DEFAULT")
        return cls(mapping, default)

    def write(self, path: str | Path) -> None:
        lines = [f"{code},{STATE_TOKENS[state]}" for code, state in self.mapping.items()]
        lines.append(f"DEFAULT,{STATE_TOKENS[self.default_state]}")
        write_lines(path, lines)


# One row per respondent-day resampled to 96 fifteen-minute steps.
SEQUENCE = np.dtype([("id", object), ("day_type", "U2"), ("weight", "f8"), ("states", "i1", (N_STEPS,))])
# One row per respondent-day of a diary file, at minute resolution.
DIARY = np.dtype([("id", object), ("day_type", "U2"), ("weight", "f8"), ("minutes", "i1", (N_MINUTES,))])


def sequence_table(ids, day_types, weights, states) -> np.ndarray:
    """A SEQUENCE table from its columns; `day_types` and `weights` may be one value for all rows."""
    for day_type in dict.fromkeys([day_types] if isinstance(day_types, str) else day_types):
        if day_type not in DAY_TYPES:  # checked before U2 could truncate it
            raise OccsimError(f"day_type must be one of {DAY_TYPES}, got {day_type!r}")
    states = np.asarray(states)
    if states.shape != (len(ids), N_STEPS):
        raise OccsimError(f"states must be ({len(ids)}, {N_STEPS}), got {states.shape}")
    table = np.empty(len(ids), dtype=SEQUENCE)
    table["id"], table["day_type"], table["weight"], table["states"] = ids, day_types, weights, states
    return table


def sequence_rows(table: np.ndarray):
    """Rows as Python (id, day_type, weight, states list), converting one row's states at a time."""
    columns = (table[name].tolist() for name in ("id", "day_type", "weight"))
    return zip(*columns, map(np.ndarray.tolist, table["states"]))


@dataclass
class ParseResult:
    diaries: np.ndarray  # DIARY rows
    unknown_codes: int = 0


def _row_head(path: str | Path, row: int, fields: list[str], width: int) -> tuple[str, str, float]:
    """Respondent id, day type and weight of a data row that must be `width`
    fields wide, with a finite weight >= 0."""
    if len(fields) != width:
        raise OccsimError(f"{path}: row {row}: expected {width} fields, got {len(fields)}")
    rid, day_type, weight_s = fields[:3]
    if day_type not in DAY_TYPES:
        raise OccsimError(f"{path}: row {row}: bad day_type {day_type!r}")
    try:
        weight = float(weight_s)
    except ValueError:
        weight = np.nan
    if not 0 <= weight < np.inf:
        raise OccsimError(f"{path}: row {row}: bad weight {weight_s!r}")
    return rid, day_type, weight


# Rows read and mapped at once, and rows resampled at once.  Small, since a
# block's codes take up to 8 bytes each while they are mapped.
_ROW_BLOCK = 64
_COMMA = ord(",")


def _cell_integers(cells: np.ndarray) -> np.ndarray:
    """Each row of w <= 8 bytes, zero-padded to 1, 2, 4 or 8 bytes, as one unsigned integer."""
    w = cells.shape[1]
    padded = np.zeros((len(cells), 1 << (w - 1).bit_length()), np.uint8)
    padded[:, :w] = cells
    return padded.view(f"u{padded.shape[1]}").ravel()


def _fixed_width_keys(lookup: dict[str, int]) -> tuple[int, np.ndarray, np.ndarray] | None:
    """For a lookup whose keys all take the same w <= 8 bytes in UTF-8: w,
    the keys as sorted `_cell_integers` and their values in that order.
    None for any other lookup."""
    encoded = [key.encode(errors="surrogatepass") for key in lookup]
    widths = set(map(len, encoded))
    if len(widths) != 1 or not 1 <= (w := widths.pop()) <= 8:
        return None
    keys = _cell_integers(np.frombuffer(b"".join(encoded), np.uint8).reshape(-1, w))
    order = np.argsort(keys)
    return w, keys[order], np.fromiter(lookup.values(), np.uint8, len(lookup))[order]


def _map_block(bodies: list[str], width: int, fixed_keys: tuple[int, np.ndarray, np.ndarray]) -> np.ndarray | None:
    """The codes of row bodies mapped through `_fixed_width_keys` output,
    a miss to `_UNMAPPED`; None unless every body is `width` codes of w
    bytes joined by commas."""
    w, keys, values = fixed_keys
    encoded = [body.encode() for body in bodies]
    if any(len(body) != width * (w + 1) - 1 for body in encoded):
        return None
    cells = np.frombuffer(b",".join(encoded) + b",", np.uint8).reshape(-1, w + 1)
    if not (cells[:, w] == _COMMA).all() or (cells[:, :w] == _COMMA).any():  # a comma ends each code
        return None
    codes = _cell_integers(cells[:, :w])
    index = np.searchsorted(keys, codes)
    np.minimum(index, len(keys) - 1, out=index)
    mapped = values[index]
    mapped[keys[index] != codes] = _UNMAPPED
    return mapped


def _byte_table(lookup: dict[str, int]) -> tuple[np.ndarray, int]:
    """For a lookup whose keys are one ASCII character each: a table indexed
    by two bytes read as one little-endian `uint16` word, and the byte `bad`
    that no code maps to.  The word of an ASCII character other than a
    comma, then a comma, gives the character's value, or `_UNMAPPED` when
    `lookup` lacks it; every other word gives `bad`.  So one gather over a
    body's two-byte cells maps each code and checks the comma after it."""
    bad = min(set(range(256)) - {*lookup.values(), _UNMAPPED})  # at most 129 values are taken
    table = np.full(1 << 16, bad, np.uint8)
    table[(_COMMA << 8) + np.delete(np.arange(128), _COMMA)] = _UNMAPPED
    for code, value in lookup.items():
        if code != ",":  # a field is never a comma
            table[(_COMMA << 8) + ord(code)] = value
    return table, bad


def _map_byte_block(bodies: list[str], width: int, table: np.ndarray, bad: int) -> np.ndarray | None:
    """The codes of row bodies mapped through `_byte_table` output; None
    unless every body is `width` one-byte codes joined by commas."""
    if any(len(body) != 2 * width - 1 for body in bodies):
        return None
    data = (",".join(bodies) + ",").encode()
    if len(data) != 2 * width * len(bodies):  # a character outside ASCII
        return None
    mapped = table.take(np.frombuffer(data, "<u2"))
    return None if (mapped == bad).any() else mapped


def _block_mapper(lookup: dict[str, int]):
    """How `_read_rows` maps a block's diary row bodies through `lookup`, a
    miss to `_UNMAPPED`, as a function of (bodies, width) that gives the
    codes or None: one table gather when every key is one ASCII character,
    a sorted search when every key takes the same w <= 8 bytes.  None for
    any other lookup."""
    if all(len(code) == 1 and code.isascii() for code in lookup):
        table, bad = _byte_table(lookup)
        return partial(_map_byte_block, table=table, bad=bad)
    fixed_keys = _fixed_width_keys(lookup)
    return fixed_keys and partial(_map_block, fixed_keys=fixed_keys)


def _row_loop(path: str | Path, block: list[tuple[int, str]], width: int, get, heads: list, codes: bytearray):
    """Append each row's head and codes, `get` mapping one code at a time;
    the first bad row of the block raises its OccsimError."""
    for row, line in block:
        fields = line.split(",")
        heads.append(_row_head(path, row, fields, 3 + width))
        try:
            codes.extend(bytes(map(get, fields[3:])))
        except KeyError as exc:
            raise OccsimError(f"{path}: row {row}: unknown state token {exc.args[0]!r}") from None


def _read_rows(path: str | Path, lookup: dict[str, int], width: int, dtype: np.dtype, map_block) -> np.ndarray:
    """The `dtype` table of a file with a header line, then rows of
    respondent_id,day_type,weight and `width` codes, each code mapped
    through `lookup`.  Blank lines are skipped but counted in the row
    numbers that errors name; a code `lookup` raises KeyError for is an
    OccsimError naming its row, as are bytes that are not UTF-8.

    Rows go `_ROW_BLOCK` at a time through `map_block(bodies, width)`,
    which returns their codes, as `lookup` maps them, or None; a block it
    does not map, and every block when `map_block` is None, goes through
    `_row_loop`, which builds every error message."""
    heads, codes, block = [], bytearray(), []

    def take_block():
        parts = [line.split(",", 3) for _, line in block] if map_block else []
        mapped = None
        if parts and all(len(head_body) == 4 for head_body in parts):
            mapped = map_block([head_body[3] for head_body in parts], width)
        if mapped is None:
            _row_loop(path, block, width, lookup.__getitem__, heads, codes)
        else:  # each row is its three head fields and a body of `width` codes
            heads.extend(_row_head(path, row, head_body, 4) for (row, _), head_body in zip(block, parts))
            codes.extend(mapped)
        block.clear()

    try:
        with open(path) as fh:
            if not fh.readline():
                raise OccsimError(f"{path}: empty file")
            for row, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if line:
                    block.append((row, line))
                    if len(block) == _ROW_BLOCK:
                        take_block()
    except UnicodeDecodeError as exc:
        take_block()  # the rows read before the bad byte are checked first
        raise OccsimError(f"{path}: {exc}") from None
    take_block()
    table = np.empty(len(heads), dtype=dtype)
    table["id"], table["day_type"], table["weight"] = zip(*heads) if heads else ((), (), ())
    table[dtype.names[3]] = np.frombuffer(codes, np.int8).reshape(-1, width)
    return table


def parse_diaries(path: str | Path, code_map: ActivityCodeMap) -> ParseResult:
    """Parse a diary CSV: header, then respondent_id,day_type,weight,<1440 codes>.

    Raises OccsimError naming the offending data row on malformed
    records; unknown codes map to the code map's default state and are
    tallied in the result.
    """
    lookup = defaultdict(lambda: _UNMAPPED, ((code, int(state)) for code, state in code_map.mapping.items()))
    diaries = _read_rows(path, lookup, N_MINUTES, DIARY, _block_mapper(lookup))
    minutes = diaries["minutes"]
    unmapped = minutes.view(np.uint8) == _UNMAPPED
    minutes[unmapped] = int(code_map.default_state)
    return ParseResult(diaries, int(np.count_nonzero(unmapped)))


_N_STATES = len(FULL_ALPHABET)
# 1 << 4·s: summed over a window, state s's count takes nibble s, and a
# count of 15 still fits
_NIBBLES = np.array([1 << 4 * s for s in range(_N_STATES)], np.uint32)
# the top bit of each nibble, in state order: set where a state has 8 or
# more of a window's 15 minutes, which makes it the window's strict majority
_MAJORITY_BITS = _NIBBLES << 3


def _vote(windows: np.ndarray) -> np.ndarray:
    """The majority state of each row of (m, 15) minute states by counting;
    ties go to the state that occurs earliest within the window."""
    m = len(windows)
    # flat (window, state) cells
    cells = np.arange(m).reshape(m, 1) * _N_STATES + windows
    counts = np.bincount(cells.ravel(), minlength=m * _N_STATES)
    firsts = np.full(m * _N_STATES, STEP_MINUTES, dtype=np.int16)
    # latest offset first, so each cell keeps the earliest offset it occurs at
    for offset in range(STEP_MINUTES - 1, -1, -1):
        firsts[cells[:, offset]] = offset
    # Highest count wins; among tied states, the earliest first occurrence.
    # States that occur have distinct first offsets, so the key has one maximum.
    key = counts * (STEP_MINUTES + 1) - firsts
    return key.reshape(m, _N_STATES).argmax(axis=1)


def resample_to_sequence(minutes: np.ndarray) -> np.ndarray:
    """Collapse (n, 1440) minute states to (n, 96) int8 steps by per-window
    majority vote, `_ROW_BLOCK` rows at a time.

    Ties go to the state that occurs earliest within the window.  A window
    whose top state has 8 or more of its minutes is decided by its nibble
    counts alone; only the others go through `_vote`.
    """
    minutes = np.asarray(minutes, dtype=np.int8)
    if minutes.ndim != 2 or minutes.shape[1] != N_MINUTES:
        raise OccsimError(f"minutes must be (n, {N_MINUTES}), got {minutes.shape}")
    # the nibble table has a row for each state only
    if minutes.size and minutes.view(np.uint8).max() >= _N_STATES:
        raise OccsimError(f"state outside 0..{_N_STATES - 1}")
    states = np.empty((len(minutes), N_STEPS), dtype=np.int8)
    for lo in range(0, len(minutes), _ROW_BLOCK):
        windows = minutes[lo : lo + _ROW_BLOCK].reshape(-1, STEP_MINUTES)
        counts = _NIBBLES.take(windows.view(np.uint8)).sum(axis=1, dtype=np.uint32)
        # the bit of the one state with 8 or more minutes, or 0
        majority = counts & np.bitwise_or.reduce(_MAJORITY_BITS)
        steps = np.zeros(len(windows), np.int8)
        for bit in _MAJORITY_BITS[:-1]:  # state s's bit is above s of them
            steps += majority > bit
        undecided = np.flatnonzero(majority == 0)
        if undecided.size:
            steps[undecided] = _vote(windows[undecided])
        states[lo : lo + _ROW_BLOCK] = steps.reshape(-1, N_STEPS)
    return states


def project_to_presence(states: np.ndarray) -> np.ndarray:
    """Project states onto {Sleep, Away, HomeActive}; event activities imply HomeActive."""
    return np.minimum(states, np.int8(ActivityState.HOME_ACTIVE))


def ingest(path: str | Path, code_map: ActivityCodeMap) -> tuple[np.ndarray, int]:
    """Parse and resample a diary file into a SEQUENCE table in one pass."""
    parsed = parse_diaries(path, code_map)
    diaries = parsed.diaries
    states = resample_to_sequence(diaries["minutes"])
    return sequence_table(diaries["id"], diaries["day_type"], diaries["weight"], states), parsed.unknown_codes


# -- resampled-sequence artifact -------------------------------------------

_SEQ_HEADER = "respondent_id,day_type,weight," + ",".join(f"s{i:02d}" for i in range(N_STEPS))
_BLOCK_ROWS = 1024
_PAIR_TOKENS = [f"{a},{b}" for a in STATE_TOKENS.values() for b in STATE_TOKENS.values()]
# The tokens of four consecutive states, at the index that reads them as a base-7 number.
_RUN_TOKENS = np.array([f"{a},{b}" for a in _PAIR_TOKENS for b in _PAIR_TOKENS], dtype=object)
_RUN_PLACES = _N_STATES ** np.arange(3, -1, -1)
# The state of a token by its first byte, the seven first letters being
# distinct; `_UNMAPPED` for any other byte.
_STATE_BY_FIRST_BYTE = np.full(256, _UNMAPPED, np.uint8)
_STATE_BY_FIRST_BYTE[[ord(token[0]) for token in _INDEX_BY_TOKEN]] = list(_INDEX_BY_TOKEN.values())


def _sequence_bodies(states: np.ndarray) -> list[str]:
    """Each row of (n, 96) states in 0..6 as its tokens joined by commas,
    four states at a time."""
    return [",".join(runs) for runs in _RUN_TOKENS[states.reshape(len(states), -1, 4) @ _RUN_PLACES].tolist()]


def write_sequences(path: str | Path, table: np.ndarray) -> None:
    """Write a SEQUENCE table `_BLOCK_ROWS` rows at a time, each row's
    states through `_sequence_bodies`; a state outside the alphabet raises."""
    states = table["states"]
    if states.size and not 0 <= states.min() <= states.max() < _N_STATES:
        raise OccsimError(f"{path}: state outside 0..{_N_STATES - 1}")
    with open(path, "w") as fh:
        fh.write(_SEQ_HEADER + "\n")
        for lo in range(0, len(table), _BLOCK_ROWS):
            block = table[lo : lo + _BLOCK_ROWS]
            bodies = _sequence_bodies(block["states"])
            rows = zip(block["id"].tolist(), block["day_type"].tolist(), block["weight"].tolist(), bodies)
            # repr round-trips the float exactly
            fh.write("".join([f"{rid},{day_type},{weight!r},{body}\n" for rid, day_type, weight, body in rows]))


def _decode_sequence_block(bodies: list[str], width: int) -> np.ndarray | None:
    """The states of sequence row bodies, each token read by its first byte;
    None unless `_sequence_bodies` of those states gives the bodies back,
    which it does exactly when every body is `width` state tokens joined
    by commas."""
    data = np.frombuffer(("," + ",".join(bodies)).encode(), np.uint8)
    starts = np.flatnonzero(data[:-1] == _COMMA) + 1  # a token starts after each comma
    if len(starts) != width * len(bodies):
        return None
    states = _STATE_BY_FIRST_BYTE[data[starts]]
    if (states == _UNMAPPED).any():
        return None
    states = states.reshape(-1, width)
    return states.ravel() if _sequence_bodies(states) == bodies else None


def read_sequences(path: str | Path) -> np.ndarray:
    """Read a sequence file into a SEQUENCE table; a malformed row or an
    unknown state token is an OccsimError naming the file and row."""
    return _read_rows(path, _INDEX_BY_TOKEN, N_STEPS, SEQUENCE, _decode_sequence_block)


def load_sequences_any(path: str | Path, code_map: ActivityCodeMap | None = None) -> tuple[np.ndarray, int]:
    """Load either a resampled-sequence file or a raw diary file.

    The two formats are distinguished by field count.  Raw diaries are
    ingested with `code_map` (canonical-token identity map when omitted).
    Returns (SEQUENCE table, unknown_code_tally); the tally is zero for
    already-resampled input.
    """
    path = Path(path)
    with path.open(errors="replace") as fh:  # the reader names a bad byte's file
        fh.readline()
        first = next((line for line in fh if line.strip()), "")  # the first data row
    n_fields = len(first.rstrip("\n").split(",")) if first else 0
    if n_fields == 3 + N_STEPS:
        return read_sequences(path), 0
    if n_fields == 3 + N_MINUTES:
        return ingest(path, code_map or ActivityCodeMap(dict(STATE_BY_TOKEN)))
    raise OccsimError(
        f"{path}: unrecognized record width {n_fields}; expected "
        f"{3 + N_STEPS} (sequences) or {3 + N_MINUTES} (raw diaries)"
    )
