import pytest

from midilstm.corpus import (
    CorpusFile,
    build_vocab,
    encode_songs,
    format_song,
    load_corpus,
    make_windows,
    parse_note_token,
    parse_song_line,
    save_corpus,
    tokenize,
)
from midilstm.errors import BadCorpusFile, BadToken, IndexOutOfRange
from midilstm.score import NoteEvent, Piece


class TestTokens:
    def test_tokenize_chord_and_rest(self):
        piece = Piece(grid=12, events=[
            NoteEvent(0, 6, (60, 64)), NoteEvent(6, 12, ()),
        ])
        assert tokenize(piece) == (["60.64", "R"], [6, 12])

    def test_duration_clamped(self):
        piece = Piece(grid=12, events=[NoteEvent(0, 60, (60,))])
        assert tokenize(piece, max_dur=48) == (["60"], [48])

    def test_empty_piece(self):
        assert tokenize(Piece(grid=12, events=[])) == ([], [])

    def test_parse_note_token_round_trip(self):
        for pitches in [(), (0,), (60,), (60, 64, 67), (127,)]:
            from midilstm.corpus import note_token
            assert parse_note_token(note_token(pitches)) == pitches

    @pytest.mark.parametrize("bad", ["64.60", "60.60", "abc", "128", "60.", "", "07"])
    def test_parse_note_token_rejects(self, bad):
        with pytest.raises(BadToken):
            parse_note_token(bad)


class TestVocabulary:
    def test_note_vocab_lexicographic(self):
        vocab = build_vocab(["R", "60", "R", "62"])
        assert vocab.tokens == ("60", "62", "R")
        assert vocab.encode("60") == 0
        assert vocab.encode("62") == 1
        assert vocab.encode("R") == 2

    def test_duration_vocab_numeric(self):
        vocab = build_vocab([12, 6, 6])
        assert vocab.tokens == (6, 12)

    def test_empty(self):
        with pytest.raises(BadCorpusFile):
            build_vocab([])

    def test_decode_encode_identity(self):
        vocab = build_vocab(["60", "60.64", "R", "72"])
        for i, tok in enumerate(vocab.tokens):
            assert vocab.encode(tok) == i
            assert vocab.decode(i) == tok

    def test_permutation_invariance(self):
        tokens = ["R", "60", "62.65", "48", "60", "R"]
        a = build_vocab(tokens)
        b = build_vocab(list(reversed(tokens)))
        assert a == b

    def test_unknown_token(self):
        vocab = build_vocab(["60"])
        with pytest.raises(BadToken):
            vocab.encode("61")

    def test_decode_out_of_range(self):
        vocab = build_vocab(["60"])
        with pytest.raises(IndexOutOfRange):
            vocab.decode(1)


class TestWindows:
    def make(self, lengths, L):
        songs = [([str(60 + i % 4) for i in range(n)], [3] * n) for n in lengths]
        nv = build_vocab(t for s in songs for t in s[0])
        dv = build_vocab([3])
        return encode_songs(songs, nv, dv, window_len=L)

    def test_counts(self):
        windows, skipped = make_windows(self.make([55], 50))
        assert len(windows) == 5
        assert [off for _, off in windows] == [0, 1, 2, 3, 4]
        assert skipped == 0

    def test_song_of_exactly_window_length(self):
        windows, skipped = make_windows(self.make([50], 50))
        assert windows == []
        assert skipped == 1

    def test_stride_one_offsets(self):
        ds = self.make([52], 50)
        windows, _ = make_windows(ds)
        assert windows == [(0, 0), (0, 1)]
        # window 1 covers tokens [1, 51), target token 51
        assert ds.note_ids[0][1:51].shape == (50,)

    def test_total_across_songs(self):
        ds = self.make([55, 10, 80], 50)
        windows, skipped = make_windows(ds)
        assert len(windows) == 5 + 0 + 30
        assert skipped == 1

    def test_streams_stay_aligned(self):
        notes = ["60", "62", "64", "65", "67"]
        durs = [1, 2, 3, 4, 6]
        nv = build_vocab(notes)
        dv = build_vocab(durs)
        ds = encode_songs([(notes, durs)], nv, dv, window_len=2)
        windows, _ = make_windows(ds)
        for song, off in windows:
            assert nv.decode(ds.note_ids[song][off]) == notes[off]
            assert dv.decode(ds.dur_ids[song][off]) == durs[off]


class TestCorpusFile:
    def test_round_trip(self, tmp_path):
        corpus = CorpusFile(12, 50, 48, [
            (["60.64.67", "R", "62"], [6, 12, 3]),
            (["48"], [24]),
        ])
        path = tmp_path / "corpus.txt"
        save_corpus(path, corpus)
        loaded = load_corpus(path)
        assert loaded.grid == 12
        assert loaded.window_len == 50
        assert loaded.max_dur == 48
        assert loaded.songs == corpus.songs

    def test_header_line_format(self, tmp_path):
        path = tmp_path / "corpus.txt"
        save_corpus(path, CorpusFile(12, 50, 48, [(["60"], [6])]))
        first, second = path.read_text().splitlines()
        assert first == "#grid=12 L=50 max_dur=48"
        assert second == "60:6"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("60:6\n")
        with pytest.raises(BadCorpusFile):
            load_corpus(path)

    def test_duration_beyond_max_dur_rejected(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("#grid=12 L=50 max_dur=48\n60:49\n")
        with pytest.raises(BadCorpusFile):
            load_corpus(path)

    def test_bad_header_values_rejected(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("#grid=0 L=50 max_dur=48\n60:6\n")
        with pytest.raises(BadCorpusFile):
            load_corpus(path)

    def test_bad_field(self):
        with pytest.raises(BadCorpusFile):
            parse_song_line("60")
        with pytest.raises(BadCorpusFile):
            parse_song_line("60:x")
        with pytest.raises(BadCorpusFile):
            parse_song_line("60:0")
        with pytest.raises(BadToken):
            parse_song_line("64.60:3")

    def test_token_cache_keeps_every_check(self, tmp_path):
        path = tmp_path / "corpus.txt"
        lines = ["60:1 62:2 60:3", "64.60:2 60:1", "60:1 62:0", "60:1 60:x", "60:1 062:2",
                 "60:1 60:49"]
        errors = [BadToken, BadCorpusFile, BadCorpusFile, BadToken, BadCorpusFile]
        for bad, error in zip(lines[1:], errors):
            path.write_text(f"#grid=12 L=50 max_dur=48\n{lines[0]}\n{bad}\n")
            with pytest.raises(error):
                load_corpus(path)

    def test_repeated_malformed_token_fails_at_its_first_field(self, tmp_path):
        path = tmp_path / "corpus.txt"
        # the second line's own error (no ':') comes after the repeat
        path.write_text("#grid=12 L=50 max_dur=48\n60:1 64.60:2\n64.60:3 62\n")
        with pytest.raises(BadToken, match="64.60"):
            load_corpus(path)
        accepted: set = set()
        for _ in range(2):  # a rejected token never enters the cache
            with pytest.raises(BadToken):
                parse_song_line("60:1 64.60:2", accepted)
            assert accepted == {"60"}

    def test_cached_token_then_its_non_canonical_spelling(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("#grid=12 L=50 max_dur=48\n60:1 62:2 60:4\nR:2 060:3\n")
        with pytest.raises(BadToken, match="non-canonical"):
            load_corpus(path)

    def test_format_song(self):
        assert format_song(["60.64", "R"], [6, 12]) == "60.64:6 R:12"

    def test_vocabs_from_corpus(self):
        corpus = CorpusFile(12, 2, 48, [
            (["60", "R"], [6, 12]),
            (["62", "60"], [6, 3]),
        ])
        nv, dv = corpus.build_vocabs()
        assert nv.tokens == ("60", "62", "R")
        assert dv.tokens == (3, 6, 12)
        ds = corpus.to_dataset(nv, dv)
        assert len(ds.note_ids) == 2
        assert ds.window_len == 2
