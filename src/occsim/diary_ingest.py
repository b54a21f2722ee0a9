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
from pathlib import Path

import numpy as np

from .conf import reading

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


class DiaryFormatError(ValueError):
    """Malformed diary, code map, or sequence file."""


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
        with reading(path, DiaryFormatError) as lines:
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
        Path(path).write_text("\n".join(lines) + "\n")


# One row per respondent-day resampled to 96 fifteen-minute steps.
SEQUENCE = np.dtype([("id", object), ("day_type", "U2"), ("weight", "f8"), ("states", "i1", (N_STEPS,))])
# One row per respondent-day of a diary file, at minute resolution.
DIARY = np.dtype([("id", object), ("day_type", "U2"), ("weight", "f8"), ("minutes", "i1", (N_MINUTES,))])


def sequence_table(ids, day_types, weights, states) -> np.ndarray:
    """A SEQUENCE table from its columns; `day_types` and `weights` may be one value for all rows."""
    for day_type in dict.fromkeys([day_types] if isinstance(day_types, str) else day_types):
        if day_type not in DAY_TYPES:  # checked before U2 could truncate it
            raise DiaryFormatError(f"day_type must be one of {DAY_TYPES}, got {day_type!r}")
    states = np.asarray(states)
    if states.shape != (len(ids), N_STEPS):
        raise DiaryFormatError(f"states must be ({len(ids)}, {N_STEPS}), got {states.shape}")
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
        raise DiaryFormatError(f"{path}: row {row}: expected {width} fields, got {len(fields)}")
    rid, day_type, weight_s = fields[:3]
    if day_type not in DAY_TYPES:
        raise DiaryFormatError(f"{path}: row {row}: bad day_type {day_type!r}")
    try:
        weight = float(weight_s)
    except ValueError:
        weight = np.nan
    if not 0 <= weight < np.inf:
        raise DiaryFormatError(f"{path}: row {row}: bad weight {weight_s!r}")
    return rid, day_type, weight


def _read_rows(path: str | Path, lookup: dict[str, int], width: int, dtype: np.dtype) -> np.ndarray:
    """The `dtype` table of a file with a header line, then rows of
    respondent_id,day_type,weight and `width` codes, each code mapped
    through `lookup`.  Blank lines are skipped but counted in the row
    numbers that errors name; a code `lookup` does not hold is a
    DiaryFormatError naming its row, as are bytes that are not UTF-8."""
    get = lookup.__getitem__
    heads, codes = [], bytearray()
    try:
        with open(path) as fh:
            if not fh.readline():
                raise DiaryFormatError(f"{path}: empty file")
            for row, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                fields = line.split(",")
                heads.append(_row_head(path, row, fields, 3 + width))
                try:
                    codes += bytes(map(get, fields[3:]))
                except KeyError as exc:
                    raise DiaryFormatError(f"{path}: row {row}: unknown state token {exc.args[0]!r}") from None
    except UnicodeDecodeError as exc:
        raise DiaryFormatError(f"{path}: {exc}") from None
    table = np.empty(len(heads), dtype=dtype)
    table["id"], table["day_type"], table["weight"] = zip(*heads) if heads else ((), (), ())
    table[dtype.names[3]] = np.frombuffer(codes, np.int8).reshape(-1, width)
    return table


def parse_diaries(path: str | Path, code_map: ActivityCodeMap) -> ParseResult:
    """Parse a diary CSV: header, then respondent_id,day_type,weight,<1440 codes>.

    Raises DiaryFormatError naming the offending data row on malformed
    records; unknown codes map to the code map's default state and are
    tallied in the result.
    """
    lookup = defaultdict(lambda: _UNMAPPED, ((code, int(state)) for code, state in code_map.mapping.items()))
    diaries = _read_rows(path, lookup, N_MINUTES, DIARY)
    minutes = diaries["minutes"]
    unmapped = minutes.view(np.uint8) == _UNMAPPED
    minutes[unmapped] = int(code_map.default_state)
    return ParseResult(diaries, int(np.count_nonzero(unmapped)))


_N_STATES = len(FULL_ALPHABET)
# flat (step, state) cell index of state 0 in each window
_WINDOW_CELLS = np.arange(N_STEPS)[:, None] * _N_STATES


def resample_to_sequence(minutes: np.ndarray) -> np.ndarray:
    """Collapse 1440 minute states to 96 int8 steps by per-window majority vote.

    Ties go to the state that occurs earliest within the window.
    """
    minutes = np.asarray(minutes, dtype=np.int8)
    # votes count in flat (step, state) cells, where a state out of range
    # would count toward a neighbouring step
    if minutes.view(np.uint8).max() >= _N_STATES:
        raise DiaryFormatError(f"state outside 0..{_N_STATES - 1}")
    cells = _WINDOW_CELLS + minutes.reshape(N_STEPS, STEP_MINUTES)
    counts = np.bincount(cells.ravel(), minlength=N_STEPS * _N_STATES)
    firsts = np.full(N_STEPS * _N_STATES, STEP_MINUTES, dtype=np.int16)
    # latest offset first, so each cell keeps the earliest offset it occurs at
    for offset in range(STEP_MINUTES - 1, -1, -1):
        firsts[cells[:, offset]] = offset
    # Highest count wins; among tied states, the earliest first occurrence.
    # States that occur have distinct first offsets, so the key has one maximum.
    key = counts * (STEP_MINUTES + 1) - firsts
    return key.reshape(N_STEPS, _N_STATES).argmax(axis=1).astype(np.int8)


def project_to_presence(states: np.ndarray) -> np.ndarray:
    """Project states onto {Sleep, Away, HomeActive}; event activities imply HomeActive."""
    return np.minimum(states, np.int8(ActivityState.HOME_ACTIVE))


def ingest(path: str | Path, code_map: ActivityCodeMap) -> tuple[np.ndarray, int]:
    """Parse and resample a diary file into a SEQUENCE table in one pass."""
    parsed = parse_diaries(path, code_map)
    diaries = parsed.diaries
    states = np.array([resample_to_sequence(m) for m in diaries["minutes"]], dtype=np.int8).reshape(-1, N_STEPS)
    return sequence_table(diaries["id"], diaries["day_type"], diaries["weight"], states), parsed.unknown_codes


# -- resampled-sequence artifact -------------------------------------------

_SEQ_HEADER = "respondent_id,day_type,weight," + ",".join(f"s{i:02d}" for i in range(N_STEPS))
_BLOCK_ROWS = 1024
_PAIR_TOKENS = [f"{a},{b}" for a in STATE_TOKENS.values() for b in STATE_TOKENS.values()]
# The tokens of four consecutive states, at the index that reads them as a base-7 number.
_RUN_TOKENS = np.array([f"{a},{b}" for a in _PAIR_TOKENS for b in _PAIR_TOKENS], dtype=object)
_RUN_PLACES = _N_STATES ** np.arange(3, -1, -1)


def write_sequences(path: str | Path, table: np.ndarray) -> None:
    """Write a SEQUENCE table `_BLOCK_ROWS` rows at a time, a row's states as
    24 `_RUN_TOKENS` entries; a state outside the alphabet raises."""
    states = table["states"]
    if states.size and not 0 <= states.min() <= states.max() < _N_STATES:
        raise DiaryFormatError(f"{path}: state outside 0..{_N_STATES - 1}")
    with open(path, "w") as fh:
        fh.write(_SEQ_HEADER + "\n")
        for lo in range(0, len(table), _BLOCK_ROWS):
            block = table[lo : lo + _BLOCK_ROWS]
            tokens = _RUN_TOKENS[block["states"].reshape(len(block), -1, 4) @ _RUN_PLACES].tolist()
            rows = zip(block["id"].tolist(), block["day_type"].tolist(), block["weight"].tolist(), tokens)
            # repr round-trips the float exactly
            lines = [f"{rid},{day_type},{weight!r},{','.join(runs)}\n" for rid, day_type, weight, runs in rows]
            fh.write("".join(lines))


def read_sequences(path: str | Path) -> np.ndarray:
    """Read a sequence file into a SEQUENCE table; a malformed row or an
    unknown state token is a DiaryFormatError naming the file and row."""
    return _read_rows(path, _INDEX_BY_TOKEN, N_STEPS, SEQUENCE)


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
        first = fh.readline()
    n_fields = len(first.rstrip("\n").split(",")) if first.strip() else 0
    if n_fields == 3 + N_STEPS:
        return read_sequences(path), 0
    if n_fields == 3 + N_MINUTES:
        return ingest(path, code_map or ActivityCodeMap(dict(STATE_BY_TOKEN)))
    raise DiaryFormatError(
        f"{path}: unrecognized record width {n_fields}; expected "
        f"{3 + N_STEPS} (sequences) or {3 + N_MINUTES} (raw diaries)"
    )
