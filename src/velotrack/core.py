"""Shared domain types: frames, matching vectors, trajectories, and file IO.

A video is a FrameSequence, per-frame arrays of 2D detection positions.
The optimization variable is the MatchingVector, a per-frame-pair map
sending each object of frame k to an object of frame k+1 or to the
DISAPPEAR sentinel. One MatchingVector per consecutive pair determines
the full association; assemble_trajectories turns that into a
TrajectorySet, the engine's output.

Indices are 0-based in memory. External text formats are 1-based with
-1 for DISAPPEAR (see write_matchings / read_matchings).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Iterator, Sequence

import numpy as np

DISAPPEAR = -1
# largest coordinate magnitude accepted: squared distances, velocity
# changes and gated totals stay far from float overflow
COORD_LIMIT = 1e100
# most frames an input file may span: its readers keep one per frame index
MAX_FRAMES = 1_000_000


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class InvalidConfigError(ValueError):
    """A configuration value is outside its admissible range."""


def _shown(value) -> str:
    """repr(value), or the size of an int too long for repr."""
    try:
        return repr(value)
    except ValueError:
        return f"an integer of about {value.bit_length() * math.log10(2):.0f} digits"


def _config_int(value, what: str, lo: int) -> int:
    """value as an int when it is an integer of at least lo; any other
    value (a fraction, an infinity, nan or a non-number) raises
    InvalidConfigError."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or n < lo:
        raise InvalidConfigError(f"{what} must be an integer of at least {lo}, got {_shown(value)}")
    return n


# rules for _config_float: their wording, and their test of a float
_POSITIVE = ("positive and finite", lambda x: 0.0 < x < math.inf)
_NONPOSITIVE = ("finite and nonpositive", lambda x: -math.inf < x <= 0.0)
_FRACTION = ("strictly between 0 and 1", lambda x: 0.0 < x < 1.0)


def _config_float(value, what: str, rule=_POSITIVE) -> float:
    """value as a float when it is a real number that passes rule's test;
    any other value (a string, None, nan, a number past the float range
    or one that breaks the rule) raises InvalidConfigError."""
    wording, ok = rule
    try:
        x = math.nan if isinstance(value, (str, bytes)) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    # every rule's test is a comparison, which nan fails
    if not ok(x):
        raise InvalidConfigError(f"{what} must be {wording}, got {_shown(value)}")
    return x


class ParseError(ValueError):
    """A malformed input file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SpaceCapError(RuntimeError):
    """A construction would exceed its size cap: a candidate space, the
    hidden positions of a simulation, or the frames of an input file."""


class JsonConfig:
    """Flat JSON storage for frozen dataclass configs.

    The admissible keys are the dataclass fields; unknown keys, malformed
    JSON and values of the wrong type all raise InvalidConfigError.
    """

    @classmethod
    def from_json(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError as e:
            raise InvalidConfigError(f"config file is not valid JSON: {e}") from None
        if not isinstance(data, dict):
            raise InvalidConfigError("config file must hold a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except InvalidConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as e:
            raise InvalidConfigError(f"bad config value: {e}") from None

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass(frozen=True)
class MatchingVector:
    """Association of the objects of frame k with those of frame k+1.

    entries[i] is the 0-based index of the target of object i in frame
    k+1, or DISAPPEAR. Non-sentinel entries are distinct, so each target
    is claimed at most once. n_next is the object count of frame k+1.
    """

    entries: tuple[int, ...]
    n_next: int

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))
        object.__setattr__(self, "n_next", int(self.n_next))
        if self.n_next < 0:
            raise InvalidInputError("n_next must be nonnegative")
        seen = set()
        for e in self.entries:
            if e == DISAPPEAR:
                continue
            if not 0 <= e < self.n_next:
                raise InvalidInputError(
                    f"target {e} out of range for n_next={self.n_next}"
                )
            if e in seen:
                raise InvalidInputError(f"target {e} claimed by two objects")
            seen.add(e)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def n_disappeared(self) -> int:
        return sum(1 for e in self.entries if e == DISAPPEAR)

    @property
    def n_matched(self) -> int:
        return len(self.entries) - self.n_disappeared

    @property
    def n_appeared(self) -> int:
        """Objects of frame k+1 that no entry claims."""
        return self.n_next - self.n_matched

    def inverse(self) -> dict[int, int]:
        """Map from claimed target index back to source index."""
        return {e: i for i, e in enumerate(self.entries) if e != DISAPPEAR}


@dataclass(frozen=True, eq=False)
class FrameSequence:
    """Ordered frames of 2D detections plus the frame interval dt."""

    frames: tuple[np.ndarray, ...]
    dt: float = 1.0

    def __post_init__(self):
        dt = float(self.dt)
        if not math.isfinite(dt) or dt <= 0:
            raise InvalidInputError("dt must be a positive finite number")
        frames = []
        for k, f in enumerate(self.frames):
            a = np.array(f, dtype=np.float64)
            if a.size == 0:
                a = a.reshape(0, 2)
            if a.ndim != 2 or a.shape[1] != 2:
                raise InvalidInputError(f"frame {k} is not an (n, 2) array")
            # the maximum of a NaN is NaN, which fails the comparison
            if not np.maximum.reduce(np.abs(a), axis=None, initial=0.0) <= COORD_LIMIT:
                raise InvalidInputError(
                    f"frame {k} has a coordinate that is not finite or beyond +-{COORD_LIMIT:g}"
                )
            a.flags.writeable = False
            frames.append(a)
        object.__setattr__(self, "frames", tuple(frames))
        object.__setattr__(self, "dt", dt)

    def __len__(self) -> int:
        return len(self.frames)

    def n_objects(self, k: int) -> int:
        return self.frames[k].shape[0]

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.frames)

    @property
    def total_detections(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class TrajectorySet:
    """Reconstructed paths, each a run of (frame index, object index).

    Tracks are stored in canonical sorted order, so equality of two sets
    is plain dataclass equality. Each detection belongs to at most one
    track and frame indices within a track are consecutive.
    """

    tracks: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        canon = []
        used = set()
        for tr in self.tracks:
            t = tuple((int(f), int(i)) for f, i in tr)
            if not t:
                raise InvalidInputError("empty track")
            for a, b in zip(t, t[1:]):
                if b[0] != a[0] + 1:
                    raise InvalidInputError("frame indices within a track must be consecutive")
            for fo in t:
                if fo in used:
                    raise InvalidInputError(f"detection {fo} appears in more than one track")
                used.add(fo)
            canon.append(t)
        canon.sort()
        object.__setattr__(self, "tracks", tuple(canon))

    def __len__(self) -> int:
        return len(self.tracks)

    @property
    def total_length(self) -> int:
        return sum(len(t) for t in self.tracks)


def assemble_trajectories(
    seq: FrameSequence, matchings: Sequence[MatchingVector]
) -> TrajectorySet:
    """Turn per-pair matching vectors into a trajectory set.

    A track starts at every frame-0 object and at every later object no
    entry claims; it ends at a DISAPPEAR entry or at the last frame.
    Every detection ends up in exactly one track.
    """
    if len(matchings) != len(seq) - 1:
        raise InvalidInputError(
            f"need {len(seq) - 1} matching vectors for {len(seq)} frames, got {len(matchings)}"
        )
    for k, m in enumerate(matchings):
        if len(m) != seq.n_objects(k) or m.n_next != seq.n_objects(k + 1):
            raise InvalidInputError(f"matching {k} inconsistent with frame sizes")
    done: list[list[tuple[int, int]]] = []
    active = {i: [(0, i)] for i in range(seq.n_objects(0))}
    for k, m in enumerate(matchings):
        nxt: dict[int, list[tuple[int, int]]] = {}
        for i, tr in active.items():
            j = m.entries[i]
            if j == DISAPPEAR:
                done.append(tr)
            else:
                tr.append((k + 1, j))
                nxt[j] = tr
        for j in range(seq.n_objects(k + 1)):
            if j not in nxt:
                nxt[j] = [(k + 1, j)]
        active = nxt
    done.extend(active.values())
    return TrajectorySet(tuple(tuple(t) for t in done))


def matchings_from_trajectories(seq: FrameSequence, trajs: TrajectorySet) -> list[MatchingVector]:
    """Inverse of assemble_trajectories for a complete trajectory set of seq's detections."""
    entries = [[DISAPPEAR] * seq.n_objects(k) for k in range(len(seq) - 1)]
    for tr in trajs.tracks:
        for f, i in tr:
            if not (0 <= f < len(seq) and 0 <= i < seq.n_objects(f)):
                raise InvalidInputError(f"detection {(f, i)} is not in the sequence")
        for (f0, i0), (_, i1) in zip(tr, tr[1:]):
            entries[f0][i0] = i1
    return [
        MatchingVector(tuple(e), n_next=seq.n_objects(k + 1))
        for k, e in enumerate(entries)
    ]


def _lex_keys(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The rows of an integer matrix packed into int64 sort keys.

    Shifted to start at 0, the entries are digits in the radix of their
    range, and as many columns as fit are packed into each key: column c
    adds its digit times place[c] to key c // per_key. Returns the keys,
    shape (n_keys, n_rows), place and per_key. Packing keeps the order,
    so sorting by key 0, then key 1, ... sorts the rows by column 0,
    then column 1, ... A row with the same entries in another order, as
    a row with two entries exchanged, takes the same radix, so its keys
    follow from the place values alone.
    """
    n_rows, width = rows.shape
    place = np.ones(width, dtype=np.int64)
    if not (n_rows and width):
        return np.empty((0, n_rows), dtype=np.int64), place, max(width, 1)
    lo = int(rows.min())
    radix = int(rows.max()) - lo + 1
    per_key = 1 if radix > 1 else width
    while per_key < width and radix ** (per_key + 1) <= 1 << 63:
        per_key += 1
    keys = np.empty((-(-width // per_key), n_rows), dtype=np.int64)
    for q, a in enumerate(range(0, width, per_key)):
        b = min(width, a + per_key)
        place[a:b] = [radix**p for p in range(b - a - 1, -1, -1)]
        keys[q] = (rows[:, a:b] - lo) @ place[a:b]
    return keys, place, per_key


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """np.lexsort's order of the rows of an integer matrix: by column 0,
    then 1, ...

    The columns are packed into fewer int64 keys (_lex_keys); packing
    keeps the order and the sort stays stable, so the order is
    np.lexsort's.
    """
    keys = _lex_keys(rows)[0]
    if not keys.shape[0]:
        return np.arange(rows.shape[0])
    # lexsort keys run last-to-first
    return np.lexsort(keys[::-1])


@dataclass(frozen=True, eq=False)
class CandidateSpace:
    """Deduplicated set of matching vectors for one frame pair, stored as
    its seeds and their exchanges.

    seeds holds the seed vectors, one per row (entries 0-based, -1 for
    DISAPPEAR), unique and sorted lexicographically. Row r of the space
    is swap_info[r] = (q, i, j): seeds[q] with entry positions i < j
    exchanged, or seeds[q] itself when i = j = -1. The rows are unique
    and sorted lexicographically, so the first argmax hit in a scan is
    the lexicographically smallest. A space takes O(S n + R) memory for
    S seeds and R rows; matrix materializes the rows.
    """

    n_next: int
    seeds: np.ndarray
    swap_info: np.ndarray

    @classmethod
    def build(cls, matrix: np.ndarray, n_next: int) -> "CandidateSpace":
        """Sort rows lexicographically and wrap them up, each row its own
        seed. A repeated row, or one that is no matching vector onto
        n_next targets, raises InvalidInputError."""
        a = np.asarray(matrix, dtype=np.int64)
        n_next = int(n_next)
        if a.ndim != 2:
            raise InvalidInputError("candidate matrix must be 2D")
        if n_next < 0:
            raise InvalidInputError("n_next must be nonnegative")
        if ((a < DISAPPEAR) | (a >= n_next)).any():
            raise InvalidInputError(f"candidate entries must lie in [-1, {n_next})")
        s = np.sort(a, axis=1)
        if ((s[:, 1:] == s[:, :-1]) & (s[:, 1:] != DISAPPEAR)).any():
            raise InvalidInputError("a candidate row claims one target twice")
        a = a[_lex_order(a)]  # a copy, so freezing it leaves the caller's array alone
        if (a[1:] == a[:-1]).all(axis=1).any():
            raise InvalidInputError("candidate rows must be unique")
        info = np.full((a.shape[0], 3), -1, dtype=np.int64)
        info[:, 0] = np.arange(a.shape[0])
        a.flags.writeable = False
        info.flags.writeable = False
        return cls(n_next=n_next, seeds=a, swap_info=info)

    @property
    def matrix(self) -> np.ndarray:
        """All R rows as an (R, n) array, built afresh on each access:
        O(R n) time and memory."""
        s, i, j = self.swap_info.T
        rows = self.seeds[s]
        at = np.flatnonzero(i >= 0)
        rows[at, i[at]] = self.seeds[s[at], j[at]]
        rows[at, j[at]] = self.seeds[s[at], i[at]]
        return rows

    @property
    def n_from(self) -> int:
        return self.seeds.shape[1]

    def __len__(self) -> int:
        return self.swap_info.shape[0]

    def __contains__(self, m: MatchingVector) -> bool:
        if len(m) != self.n_from or m.n_next != self.n_next:
            return False
        key = list(m.entries)
        seeds = self.seeds.tolist()
        if key in seeds:
            return True
        # otherwise a row only as a seed q with two entries i < j exchanged,
        # which keeps q's DISAPPEAR count
        n_dis = key.count(DISAPPEAR)
        q_of, i_of, j_of = self.swap_info.T
        for q, s in enumerate(seeds):
            if s.count(DISAPPEAR) != n_dis:
                continue
            diff = [p for p, (a, b) in enumerate(zip(s, key)) if a != b]
            if len(diff) == 2 and s[diff[0]] == key[diff[1]] and s[diff[1]] == key[diff[0]]:
                if ((q_of == q) & (i_of == diff[0]) & (j_of == diff[1])).any():
                    return True
        return False

    def vector_at(self, r: int) -> MatchingVector:
        q, i, j = self.swap_info[r].tolist()
        entries = self.seeds[q].tolist()
        if i >= 0:
            entries[i], entries[j] = entries[j], entries[i]
        return MatchingVector(tuple(entries), n_next=self.n_next)

    def vectors(self) -> Iterator[MatchingVector]:
        for r in range(len(self)):
            yield self.vector_at(r)


# ---------------------------------------------------------------------------
# File formats. Detections: "frame_index,x,y" rows, frame indices 0-based
# ascending. Tracks: "track_id,frame_index,x,y". Matching dump: one line per
# frame pair, 1-based entries space-separated, -1 for DISAPPEAR.
# ---------------------------------------------------------------------------

_DET_HEADER = "frame_index,x,y"
_TRACK_HEADER = "track_id,frame_index,x,y"


def _parse_float(s: str, what: str, ln: int) -> float:
    try:
        v = float(s)
    except ValueError:
        raise ParseError(f"bad {what} value {s!r}", ln) from None
    if not math.isfinite(v):
        raise ParseError(f"non-finite {what} value {s!r}", ln)
    return v


def _parse_int(s: str, what: str, ln: int) -> int:
    try:
        return int(s)
    except ValueError:
        raise ParseError(f"bad {what} value {s!r}", ln) from None


def _data_lines(fh, header: str):
    """(line number, stripped text) of each nonblank line of fh; the
    first nonblank line is skipped when it is the header."""
    first = True
    for ln, raw in enumerate(fh, start=1):
        s = raw.strip()
        if not s:
            continue
        if not (first and s.replace(" ", "").lower() == header):
            yield ln, s
        first = False


def _parse_frame(s: str, ln: int) -> int:
    k = _parse_int(s, "frame index", ln)
    if k < 0:
        raise ParseError("negative frame index", ln)
    if k >= MAX_FRAMES:
        raise SpaceCapError(f"line {ln}: frame index {k} exceeds the cap of {MAX_FRAMES} frames")
    return k


def read_detections(path, dt: float = 1.0) -> FrameSequence:
    """Read the detection format into a FrameSequence.

    Rows are frame_index,x,y with 0-based non-decreasing frame indices.
    An optional header row, the first nonblank line, is accepted. A
    skipped frame index denotes an empty frame. Raises ParseError
    naming the offending line otherwise, and SpaceCapError for a frame
    index of MAX_FRAMES or more.
    """
    by_frame: dict[int, list[tuple[float, float]]] = {}
    last = -1
    with open(path, "r", encoding="utf-8") as fh:
        for ln, s in _data_lines(fh, _DET_HEADER):
            parts = s.split(",")
            if len(parts) != 3:
                raise ParseError(f"expected 3 comma-separated fields, got {len(parts)}", ln)
            k = _parse_frame(parts[0], ln)
            if k < last:
                raise ParseError("frame indices must be non-decreasing", ln)
            last = k
            x = _parse_float(parts[1], "x", ln)
            y = _parse_float(parts[2], "y", ln)
            by_frame.setdefault(k, []).append((x, y))
    if not by_frame:
        raise ParseError("no detections found", 1)
    f = max(by_frame) + 1
    frames = [np.array(by_frame.get(k, []), dtype=np.float64).reshape(-1, 2) for k in range(f)]
    return FrameSequence(tuple(frames), dt=dt)


def write_detections(path, seq: FrameSequence) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_DET_HEADER + "\n")
        for k, frame in enumerate(seq.frames):
            for x, y in frame:
                # repr of a Python float round-trips exactly
                fh.write(f"{k},{float(x)!r},{float(y)!r}\n")


def write_tracks(path, trajs: TrajectorySet, seq: FrameSequence) -> None:
    """Write tracks as track_id,frame_index,x,y rows in canonical order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_TRACK_HEADER + "\n")
        for tid, tr in enumerate(trajs.tracks):
            for f, i in tr:
                x, y = seq.frames[f][i]
                fh.write(f"{tid},{f},{float(x)!r},{float(y)!r}\n")


def read_tracks(path) -> list[list[tuple[int, float, float]]]:
    """Read a track file as per-track lists of (frame, x, y).

    Rows of one track must be contiguous in frame order; tracks are
    returned sorted by their id. An optional header row, the first
    nonblank line, is accepted. A frame index of MAX_FRAMES or more
    raises SpaceCapError.
    """
    by_id: dict[int, list[tuple[int, float, float]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, s in _data_lines(fh, _TRACK_HEADER):
            parts = s.split(",")
            if len(parts) != 4:
                raise ParseError(f"expected 4 comma-separated fields, got {len(parts)}", ln)
            tid = _parse_int(parts[0], "track id", ln)
            k = _parse_frame(parts[1], ln)
            x = _parse_float(parts[2], "x", ln)
            y = _parse_float(parts[3], "y", ln)
            rows = by_id.setdefault(tid, [])
            if rows and k != rows[-1][0] + 1:
                raise ParseError(f"track {tid} frame indices not consecutive", ln)
            rows.append((k, x, y))
    return [by_id[tid] for tid in sorted(by_id)]


def write_matchings(path, matchings: Sequence[MatchingVector]) -> None:
    """Debug dump: one line per frame pair, 1-based entries, -1 sentinel."""
    with open(path, "w", encoding="utf-8") as fh:
        for m in matchings:
            fh.write(" ".join(str(e + 1 if e != DISAPPEAR else DISAPPEAR) for e in m.entries))
            fh.write("\n")


def read_matchings(path) -> list[list[int]]:
    """Read a matching dump back to 0-based entry lists (-1 kept).

    Target counts are not stored in the format, so the result is raw
    entry lists; pair them with a FrameSequence to build MatchingVector
    values.
    """
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            s = raw.strip()
            entries = []
            for tok in s.split():
                v = _parse_int(tok, "entry", ln)
                if v == 0 or v < DISAPPEAR:
                    raise ParseError(f"entry {v} is not 1-based or -1", ln)
                entries.append(DISAPPEAR if v == DISAPPEAR else v - 1)
            out.append(entries)
    return out
