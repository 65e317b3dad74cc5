"""Data structures and file formats."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from velotrack import (
    DISAPPEAR,
    CandidateSpace,
    FrameSequence,
    InvalidInputError,
    MatchingVector,
    ParseError,
    TrajectorySet,
    assemble_trajectories,
    matchings_from_trajectories,
    read_detections,
    read_matchings,
    read_tracks,
    write_detections,
    write_matchings,
    write_tracks,
)


def seq_of(*frames, dt=1.0):
    return FrameSequence(
        tuple(np.asarray(f, dtype=float).reshape(-1, 2) for f in frames), dt=dt
    )


@st.composite
def matching_vectors(draw, max_n=5):
    n_from = draw(st.integers(0, max_n))
    n_next = draw(st.integers(0, max_n))
    targets = list(draw(st.permutations(range(n_next))))
    entries = []
    it = iter(targets)
    for _ in range(n_from):
        if draw(st.booleans()):
            entries.append(next(it, DISAPPEAR))
        else:
            entries.append(DISAPPEAR)
    return MatchingVector(tuple(entries), n_next=n_next)


class TestMatchingVector:
    def test_counts(self):
        m = MatchingVector((2, DISAPPEAR, 0), n_next=4)
        assert m.n_matched == 2
        assert m.n_disappeared == 1
        assert m.n_appeared == 2
        assert len(m) == 3

    def test_inverse(self):
        m = MatchingVector((2, DISAPPEAR, 0), n_next=4)
        assert m.inverse() == {2: 0, 0: 2}

    def test_rejects_duplicate_target(self):
        with pytest.raises(InvalidInputError):
            MatchingVector((1, 1), n_next=3)

    def test_rejects_out_of_range_target(self):
        with pytest.raises(InvalidInputError):
            MatchingVector((3,), n_next=3)
        with pytest.raises(InvalidInputError):
            MatchingVector((-2,), n_next=3)

    @given(matching_vectors())
    def test_count_identities(self, m):
        assert m.n_matched + m.n_disappeared == len(m)
        assert m.n_matched + m.n_appeared == m.n_next
        assert len(m.inverse()) == m.n_matched


class TestFrameSequence:
    def test_counts(self):
        s = seq_of([(0, 0), (1, 1)], [(2, 2)], [])
        assert s.counts == (2, 1, 0)
        assert s.n_objects(2) == 0
        assert s.total_detections == 3
        assert len(s) == 3

    def test_frames_are_read_only(self):
        s = seq_of([(0, 0)])
        with pytest.raises(ValueError):
            s.frames[0][0, 0] = 5.0

    def test_rejects_overflowing_coordinates(self):
        # squared distances of coordinates near 1e200 overflow to inf
        for bad in (1e200, -1e101, float("inf"), float("nan")):
            with pytest.raises(InvalidInputError, match=r"1e\+100"):
                seq_of([(0, 0)], [(bad, 0)])
        s = seq_of([(1e100, -1e100)], [(-1e100, 1e100)])
        assert s.counts == (1, 1)

    def test_rejects_bad_dt(self):
        with pytest.raises(InvalidInputError):
            seq_of([(0, 0)], dt=0.0)
        with pytest.raises(InvalidInputError):
            seq_of([(0, 0)], dt=float("nan"))


class TestTrajectories:
    def test_assembly(self):
        # object 0 survives, object 1 disappears, one appearance
        s = seq_of([(0, 0), (5, 5)], [(0, 1), (9, 9)])
        m = MatchingVector((0, DISAPPEAR), n_next=2)
        trajs = assemble_trajectories(s, [m])
        assert trajs.tracks == (
            ((0, 0), (1, 0)),
            ((0, 1),),
            ((1, 1),),
        )

    def test_every_detection_appears_once(self):
        s = seq_of([(0, 0), (1, 0)], [(0, 0)], [(0, 0), (1, 0), (2, 0)])
        ms = [
            MatchingVector((0, DISAPPEAR), n_next=1),
            MatchingVector((2,), n_next=3),
        ]
        trajs = assemble_trajectories(s, ms)
        used = [fo for tr in trajs.tracks for fo in tr]
        assert sorted(used) == [(0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (2, 2)]
        assert trajs.total_length == len(used)

    def test_matching_roundtrip(self, rng):
        for _ in range(25):
            counts = rng.integers(0, 4, size=4)
            frames = [rng.normal(size=(int(n), 2)) for n in counts]
            s = FrameSequence(tuple(frames))
            ms = [_random_matching(rng, int(counts[k]), int(counts[k + 1])) for k in range(3)]
            trajs = assemble_trajectories(s, ms)
            assert matchings_from_trajectories(s, trajs) == ms

    @pytest.mark.parametrize(
        "track",
        [((0, 0), (1, 0), (2, 0)), ((0, 5), (1, 0)), ((3, 0), (4, 0)), ((0, -1), (1, 0)), ((5, 0),)],
        ids=["past-last-frame", "past-last-object", "frames-beyond", "negative-object", "lone-beyond"],
    )
    def test_track_outside_the_sequence(self, track):
        s = seq_of([(0, 0)], [(1, 1)])
        with pytest.raises(InvalidInputError, match="detection"):
            matchings_from_trajectories(s, TrajectorySet((track,)))

    def test_wrong_matching_count(self):
        s = seq_of([(0, 0)], [(1, 1)])
        with pytest.raises(InvalidInputError):
            assemble_trajectories(s, [])

    def test_track_validation(self):
        with pytest.raises(InvalidInputError):
            TrajectorySet((((0, 0), (2, 0)),))  # skipped frame
        with pytest.raises(InvalidInputError):
            TrajectorySet((((0, 0),), ((0, 0),)))  # reused detection

    def test_canonical_order(self):
        a = TrajectorySet((((1, 0),), ((0, 0), (1, 1))))
        b = TrajectorySet((((0, 0), (1, 1)), ((1, 0),)))
        assert a == b


def _random_matching(rng, n_from, n_next):
    targets = list(rng.permutation(n_next))
    entries = []
    for _ in range(n_from):
        if targets and rng.random() < 0.7:
            entries.append(int(targets.pop()))
        else:
            entries.append(DISAPPEAR)
    return MatchingVector(tuple(entries), n_next=n_next)


def _space_of(vectors, n_from, n_next):
    """A candidate space holding the given distinct vectors."""
    rows = np.array([m.entries for m in vectors], dtype=np.int64).reshape(len(vectors), n_from)
    return CandidateSpace.build(rows, n_next=n_next)


class TestCandidateSpace:
    def test_rows_sorted_and_unique(self):
        mat = np.array([[1, 0], [DISAPPEAR, 0], [0, 1]])
        sp = CandidateSpace.build(mat, n_next=2)
        assert [tuple(r) for r in sp.matrix] == [(-1, 0), (0, 1), (1, 0)]

    def test_duplicate_rows_raise(self):
        with pytest.raises(InvalidInputError, match="unique"):
            CandidateSpace.build(np.array([[0, 1], [1, 0], [0, 1]]), n_next=2)
        # every row of width 0 is the empty vector
        with pytest.raises(InvalidInputError, match="unique"):
            CandidateSpace.build(np.empty((2, 0), dtype=np.int64), n_next=2)

    @pytest.mark.parametrize(
        "rows, n_next",
        [
            ([[5]], 2),  # a target past n_next
            ([[2, -1]], 2),
            ([[-2]], 2),  # below DISAPPEAR
            ([[0, 0]], 2),  # one target claimed twice
            ([[-1, 1], [1, -1], [1, 1]], 2),
            ([[-1]], -1),  # a negative target count
        ],
    )
    def test_rows_must_be_matching_vectors(self, rows, n_next):
        with pytest.raises(InvalidInputError):
            CandidateSpace.build(np.array(rows), n_next=n_next)
        # only repeated DISAPPEARs may share a value
        sp = CandidateSpace.build(np.array([[-1, -1, 0], [1, -1, -1]]), n_next=2)
        assert len(sp) == 2

    def test_membership(self):
        sp = CandidateSpace.build(np.array([[0, 1], [1, 0]]), n_next=2)
        m = MatchingVector((1, 0), n_next=2)
        assert m in sp
        assert sp.vector_at(1) == m
        assert MatchingVector((0, DISAPPEAR), n_next=2) not in sp
        # wrong shape never matches
        assert MatchingVector((0,), n_next=2) not in sp

    def test_membership_agrees_with_row_index(self, rng):
        from velotrack.oracle import enumerate_space

        for n_from in range(4):
            for n_next in range(4):
                full = list(enumerate_space(n_from, n_next).vectors())
                keep = [m for m in full if rng.random() < 0.5]
                sp = _space_of(keep, n_from, n_next)
                rows = {tuple(r) for r in sp.matrix.tolist()}
                assert len(rows) == len(sp) == len(keep)
                for m in full:
                    assert (m in sp) == (m.entries in rows) == (m in keep)

    @given(st.data())
    def test_membership_equals_linear_scan(self, data):
        from velotrack.oracle import enumerate_space

        n_from, n_next = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        full = list(enumerate_space(n_from, n_next).vectors())
        sp = _space_of(data.draw(st.lists(st.sampled_from(full), unique=True)), n_from, n_next)
        # probes of the space's shape, and of any length and n_next
        m = data.draw(st.one_of(st.sampled_from(full), matching_vectors(max_n=4)))
        scan = any(
            len(m) == sp.n_from and m.n_next == sp.n_next and tuple(r) == m.entries
            for r in sp.matrix.tolist()
        )
        assert (m in sp) == scan

    def test_issubset(self):
        small = CandidateSpace.build(np.array([[0, 1]]), n_next=2)
        big = CandidateSpace.build(np.array([[0, 1], [1, 0]]), n_next=2)
        assert all(m in big for m in small.vectors())
        assert not all(m in small for m in big.vectors())

    def test_empty_and_zero_width(self):
        sp = CandidateSpace.build(np.empty((0, 3), dtype=np.int64), n_next=2)
        assert len(sp) == 0
        sp = CandidateSpace.build(np.empty((1, 0), dtype=np.int64), n_next=2)
        assert len(sp) == 1
        assert sp.vector_at(0) == MatchingVector((), n_next=2)

    @given(matching_vectors(max_n=4))
    def test_first_scan_hit_is_lex_smallest(self, m):
        sp = _space_of([m], len(m), m.n_next)
        rows = [tuple(r) for r in sp.matrix]
        assert rows == sorted(rows)


class TestFileFormats:
    def test_detection_roundtrip(self, tmp_path):
        s = seq_of([(0.25, -1.5), (3.0, 4.0)], [], [(1e-8, 2.0)])
        p = tmp_path / "det.csv"
        write_detections(p, s)
        back = read_detections(p)
        assert back.counts == s.counts
        for a, b in zip(back.frames, s.frames):
            np.testing.assert_array_equal(a, b)

    def test_detection_parse_errors(self, tmp_path):
        p = tmp_path / "det.csv"
        p.write_text("frame_index,x,y\n0,1.0\n")
        with pytest.raises(ParseError) as e:
            read_detections(p)
        assert e.value.line == 2
        p.write_text("0,1.0,2.0\n0,nan,2.0\n")
        with pytest.raises(ParseError):
            read_detections(p)
        p.write_text("1,0,0\n0,0,0\n")  # decreasing frame index
        with pytest.raises(ParseError):
            read_detections(p)
        p.write_text("")
        with pytest.raises(ParseError):
            read_detections(p)

    def test_track_roundtrip(self, tmp_path):
        s = seq_of([(0, 0), (5, 5)], [(0, 1), (9, 9)])
        trajs = assemble_trajectories(s, [MatchingVector((0, DISAPPEAR), n_next=2)])
        p = tmp_path / "tracks.csv"
        write_tracks(p, trajs, s)
        rows = read_tracks(p)
        assert len(rows) == len(trajs)
        flat = sorted((f, x, y) for tr in rows for f, x, y in tr)
        want = sorted(
            (f, float(s.frames[f][i][0]), float(s.frames[f][i][1]))
            for tr in trajs.tracks
            for f, i in tr
        )
        assert flat == want

    def test_header_on_first_nonblank_line(self, tmp_path):
        p = tmp_path / "det.csv"
        p.write_text("\n  \nframe_index, x, y\n0,1.0,2.0\n\n2,3.0,4.0\n")
        assert read_detections(p).counts == (1, 0, 1)
        p.write_text("\nframe_index,x,y\nframe_index,x,y\n")  # a header only once
        with pytest.raises(ParseError) as e:
            read_detections(p)
        assert e.value.line == 3
        p = tmp_path / "tracks.csv"
        p.write_text("\n\ntrack_id,frame_index,x,y\n0,0,1.0,2.0\n0,1,2.0,2.0\n")
        assert read_tracks(p) == [[(0, 1.0, 2.0), (1, 2.0, 2.0)]]
        p.write_text("0,0,1.0,2.0\ntrack_id,frame_index,x,y\n")
        with pytest.raises(ParseError) as e:
            read_tracks(p)
        assert e.value.line == 2

    def test_track_gap_rejected(self, tmp_path):
        p = tmp_path / "tracks.csv"
        p.write_text("track_id,frame_index,x,y\n0,0,0.0,0.0\n0,2,1.0,1.0\n")
        with pytest.raises(ParseError) as e:
            read_tracks(p)
        assert e.value.line == 3

    def test_matching_dump_is_one_based(self, tmp_path):
        ms = [
            MatchingVector((1, DISAPPEAR, 0), n_next=2),
            MatchingVector((), n_next=1),
        ]
        p = tmp_path / "m.txt"
        write_matchings(p, ms)
        assert p.read_text() == "2 -1 1\n\n"
        assert read_matchings(p) == [[1, DISAPPEAR, 0], []]

    def test_matching_dump_rejects_zero(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 0\n")
        with pytest.raises(ParseError):
            read_matchings(p)
