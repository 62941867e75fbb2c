"""Unit tests for repro.codes.twonc and repro.codes.walsh."""

import json
import threading
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.codes import twonc
from repro.codes.properties import analyze_family, balance
from repro.codes.twonc import TwoNCFamily, twonc_codes
from repro.codes.walsh import WalshFamily, hadamard_matrix, walsh_codes


class TestTwoNC:
    def test_deterministic(self):
        """Tags and receiver must derive identical codes independently."""
        a = TwoNCFamily(4, 32).codes()
        b = TwoNCFamily(4, 32).codes()
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_balanced(self):
        """Every 2NC code has exactly half its chips set."""
        for code in twonc_codes(6, 32):
            assert balance(code) == 0.0

    def test_distinct(self):
        codes = twonc_codes(8, 32)
        assert len({tuple(c) for c in codes}) == 8

    def test_even_length_required(self):
        with pytest.raises(ValueError):
            TwoNCFamily(2, 31)

    @pytest.mark.parametrize("size,length", [(1, 0), (2, -2)])
    def test_length_below_two_rejected(self, size, length):
        with pytest.raises(ValueError, match="even and at least 2"):
            TwoNCFamily(size, length)

    def test_default_length(self):
        assert TwoNCFamily(4).length == 32
        assert TwoNCFamily(20).length == 40

    def test_index_bounds(self):
        fam = TwoNCFamily(3, 16)
        with pytest.raises(ValueError):
            fam.code(3)

    def test_count_bounds(self):
        with pytest.raises(ValueError):
            TwoNCFamily(3, 16).codes(4)

    def test_size_one_rejected_at_zero(self):
        with pytest.raises(ValueError):
            TwoNCFamily(0)

    def test_orthogonality_beats_random(self):
        """The searched family must out-perform a random balanced family."""
        report = analyze_family(twonc_codes(5, 32))
        rng = np.random.default_rng(123)
        base = np.array([1] * 16 + [0] * 16, dtype=np.uint8)
        random_family = [rng.permutation(base) for _ in range(5)]
        random_report = analyze_family(random_family)
        assert report.merit() <= random_report.merit()

    def test_len(self):
        assert len(TwoNCFamily(3, 16)) == 3


@pytest.fixture
def raw_searches(monkeypatch):
    """Every ``(size, length)`` the raw search runs for, from a cold memo."""
    calls = []
    search = twonc._raw_search

    def spy(size, length):
        calls.append((size, length))
        return search(size, length)

    monkeypatch.setattr(twonc, "_raw_search", spy)
    twonc._search_family.cache_clear()
    yield calls
    twonc._search_family.cache_clear()


def _book_doc() -> dict:
    text = resources.files("repro.codes").joinpath("twonc_book.json").read_text(encoding="utf-8")
    return json.loads(text)


class TestCodeBook:
    """Booked families are read, not searched; a book that does not
    match the search is refused, never served."""

    def test_booked_families_run_no_search(self, raw_searches):
        # perfbench's cold_caches() clears the memo before each set-up
        # and counts on these two families costing no search.
        assert len(twonc_codes(4, 32)) == 4
        assert len(twonc_codes(2, 32)) == 2
        assert raw_searches == []

    def test_unbooked_family_is_searched_once(self, raw_searches):
        assert (2, 14) not in twonc._load_book()
        first = twonc_codes(2, 14)
        second = twonc_codes(2, 14)
        assert raw_searches == [(2, 14)]
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_book_is_read_once_per_process(self):
        assert twonc._load_book() is twonc._load_book()

    def test_book_records_the_search_constants(self):
        assert _book_doc()["search"] == twonc._search_constants()

    @pytest.mark.parametrize(
        "name", ["seed", "candidate_pool", "anneal_iterations", "anneal_t0", "anneal_t1"]
    )
    def test_changed_search_constant_refused(self, name):
        doc = _book_doc()
        doc["search"][name] += 1
        with pytest.raises(ValueError, match=f"search constant '{name}'"):
            twonc._parse_book(doc)

    def test_wrong_code_count_refused(self):
        doc = _book_doc()
        doc["families"]["4x32"].pop()
        with pytest.raises(ValueError, match="entry '4x32': 3 codes"):
            twonc._parse_book(doc)

    def test_wrong_code_length_refused(self):
        doc = _book_doc()
        doc["families"]["2x32"][1] += "01"
        with pytest.raises(ValueError, match="entry '2x32'"):
            twonc._parse_book(doc)

    def test_unbalanced_code_refused(self):
        doc = _book_doc()
        code = doc["families"]["3x64"][2]
        doc["families"]["3x64"][2] = "1" + code[1:] if code[0] == "0" else "0" + code[1:]
        with pytest.raises(ValueError, match="entry '3x64': code .* is not balanced"):
            twonc._parse_book(doc)

    def test_non_binary_code_refused(self):
        doc = _book_doc()
        doc["families"]["1x4"] = ["01x1"]
        with pytest.raises(ValueError, match="entry '1x4'"):
            twonc._parse_book(doc)

    def test_malformed_key_refused(self):
        doc = _book_doc()
        doc["families"]["four-by-32"] = doc["families"].pop("4x32")
        with pytest.raises(ValueError, match="entry 'four-by-32'"):
            twonc._parse_book(doc)


def _score_matrix_by_rows(bipolar: np.ndarray) -> float:
    """Reference objective: one inverse FFT per row, as first written."""
    length = bipolar.shape[1]
    spec = np.fft.fft(bipolar, axis=1)
    worst_cross = worst_zero = worst_auto = 0.0
    for i in range(bipolar.shape[0]):
        mags = np.abs(np.fft.ifft(spec * np.conj(spec[i]), axis=1).real / length)
        ac = mags[i].copy()
        ac[0] = 0.0
        worst_auto = max(worst_auto, float(ac.max()))
        mags[i] = 0.0
        if bipolar.shape[0] > 1:
            worst_cross = max(worst_cross, float(mags.max()))
            worst_zero = max(worst_zero, float(mags[:, 0].max()))
    return worst_cross + 0.5 * worst_zero + 0.25 * worst_auto


class TestScoreMatrix:
    """The anneal's accept/reject decisions read these exact floats, so
    the batched objective must equal the per-row loop bit for bit."""

    @settings(max_examples=200, deadline=None)
    @example(n=1, length=8, seed=0)
    @example(n=1, length=128, seed=1)
    @given(
        n=st.integers(1, 11),
        length=st.integers(8, 128),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_row_loop(self, n, length, seed):
        bipolar = np.random.default_rng(seed).choice([-1.0, 1.0], size=(n, length))
        batched = twonc._score_matrix(bipolar.copy())
        assert batched == _score_matrix_by_rows(bipolar)  # repro-lint: disable=LNT003

    def test_single_code_scores_autocorrelation_only(self):
        code = np.array([[1.0, 1.0, -1.0, 1.0, -1.0, -1.0, -1.0, 1.0]])
        expected = 0.25 * twonc._max_offpeak_autocorr(code[0])
        assert twonc._score_matrix(code) == pytest.approx(expected)


def _call_with_timeout(fn, timeout_s: float):
    """Run *fn* on a daemon thread; fail the test if it does not return."""
    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as exc:  # handed back to the test thread
            box["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout_s)
    assert not worker.is_alive(), f"no return within {timeout_s}s"
    if "error" in box:
        raise box["error"]
    return box["value"]


class TestShortLengths:
    """Below length 12 there are fewer balanced patterns than the
    candidate pool; the search must shrink the pool, not spin.  The
    code book holds these families, so the search runs here."""

    @pytest.mark.parametrize(
        "count,length",
        # (3, 4): C(4, 2) = 6 balanced codes, so 3 fit in 4 chips.
        [(1, 4), (2, 4), (3, 4), (1, 6), (3, 6), (2, 8), (4, 8), (2, 10), (5, 10)],
    )
    def test_returns_distinct_balanced_codes(self, count, length):
        found = _call_with_timeout(lambda: twonc._raw_search(count, length), 20.0)
        codes = [np.array(code, dtype=np.uint8) for code in found]
        assert len(codes) == count
        assert all(c.size == length and int(c.sum()) == length // 2 for c in codes)
        assert len({c.tobytes() for c in codes}) == count

    def test_more_codes_than_balanced_patterns_rejected(self):
        with pytest.raises(ValueError, match="only 70 balanced codes of length 8"):
            _call_with_timeout(lambda: twonc_codes(71, 8), 20.0)


class TestHadamard:
    def test_orthogonal_rows(self):
        h = hadamard_matrix(16).astype(np.int64)
        assert np.array_equal(h @ h.T, 16 * np.eye(16, dtype=np.int64))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            hadamard_matrix(12)

    def test_order_one(self):
        assert hadamard_matrix(1).tolist() == [[1]]


class TestWalshCodes:
    def test_synchronous_orthogonality(self):
        """Bipolar Walsh codes are exactly orthogonal at zero lag."""
        codes = walsh_codes(6, 32)
        bipolar = [c.astype(np.float64) * 2 - 1 for c in codes]
        for i in range(len(bipolar)):
            for j in range(i + 1, len(bipolar)):
                assert abs(float(np.dot(bipolar[i], bipolar[j]))) < 1e-9

    def test_skips_all_ones_row(self):
        for code in walsh_codes(5, 32):
            assert 0 < int(code.sum()) < 32

    def test_capacity_limit(self):
        with pytest.raises(ValueError):
            walsh_codes(32, 32)

    def test_family_wrapper(self):
        fam = WalshFamily(4, 16)
        assert len(fam) == 4
        assert fam.code(0).size == 16
        with pytest.raises(ValueError):
            fam.code(4)
        with pytest.raises(ValueError):
            fam.codes(5)
