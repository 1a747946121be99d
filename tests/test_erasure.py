from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtseq import erasure
from crtseq.erasure import (
    PRIMITIVE_POLYS,
    CodeSpec,
    DecodeFailure,
    ErasureCode,
    GF,
    PayloadError,
    code_dimension,
    session_params,
    session_roundtrip,
)
from crtseq.core import CrtParams, Variant
from oracles import ScalarGF


class TestDimension:
    def test_reference_values(self):
        assert code_dimension(19, 19) == 182
        assert code_dimension(5, 5) == 14

    def test_positive_on_a_grid(self):
        for p in (3, 5, 7, 11, 13, 19):
            for k in range(p, 3 * p):
                assert code_dimension(p, k) > 0

    def test_rejects_k_below_p(self):
        with pytest.raises(ValueError):
            code_dimension(5, 4)

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            code_dimension(9, 9)


class TestSessionParams:
    def test_family_member(self):
        assert session_params(5, 5) == CrtParams(5, 26, Variant.MODIFIED)
        assert session_params(19, 19).L == 19 * 362

    @pytest.mark.parametrize("p, k", [(5, 4), (5, -1), (9, 9), (2, 2)])
    def test_rejects_parameters_outside_the_family(self, p, k):
        with pytest.raises(ValueError):
            session_params(p, k)


class TestField:
    @pytest.mark.parametrize("order", sorted(PRIMITIVE_POLYS))
    def test_tables_are_primitive(self, order):
        GF(order)  # construction itself verifies the multiplicative order

    def test_axioms_sampled(self):
        f = ScalarGF(32)
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b, c = (int(x) for x in rng.integers(0, 32, size=3))
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
            assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
            if a:
                assert f.mul(a, f.inv(a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            ScalarGF(32).inv(0)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            GF(48)


class TestCodeSpec:
    def test_protocol_shapes(self):
        spec = CodeSpec.for_protocol(5, 5)
        assert (spec.n, spec.dim, spec.field_order) == (26, 14, 32)
        assert spec.max_erasures == 12
        big = CodeSpec.for_protocol(19, 19)
        assert (big.n, big.dim, big.field_order) == (362, 182, 512)

    def test_validation(self):
        with pytest.raises(ValueError):
            CodeSpec(40, 10, 32)  # n beyond the field
        with pytest.raises(ValueError):
            CodeSpec(6, 7, 8)


SMALL = ErasureCode(CodeSpec(6, 3, 8))


class TestErasureCode:
    def test_round_trip_without_erasures(self):
        info = np.array([1, 5, 7])
        word = SMALL.encode(info)
        assert np.array_equal(word[:3], info)  # systematic
        assert np.array_equal(SMALL.decode(word, np.zeros(6, bool)), info)

    def test_every_full_weight_erasure_pattern_decodes(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            info = rng.integers(0, 8, size=3)
            word = SMALL.encode(info)
            for pattern in combinations(range(6), 3):
                erased = np.zeros(6, bool)
                erased[list(pattern)] = True
                got = SMALL.decode(np.where(erased, 0, word), erased)
                assert np.array_equal(got, info)

    def test_one_erasure_too_many_fails_loudly(self):
        word = SMALL.encode(np.array([2, 3, 4]))
        erased = np.zeros(6, bool)
        erased[:4] = True
        with pytest.raises(DecodeFailure):
            SMALL.decode(word, erased)

    def test_symbols_must_fit_the_field(self):
        with pytest.raises(ValueError, match=r"^symbol 9 outside GF\(8\)$"):
            SMALL.encode(np.array([1, 2, 9]))

    def test_symbol_is_checked_before_the_int64_cast(self):
        # 2**63 as uint64 would wrap to a negative int64
        with pytest.raises(ValueError, match=r"^symbol 9223372036854775808 outside GF\(8\)$"):
            SMALL.encode(np.array([1, 2**63, 3], dtype=np.uint64))

    @pytest.mark.parametrize(("info", "shape"), [([1, 2], "(2,)"), ([[1, 2, 3]], "(1, 3)")],
                             ids=["short", "2-D"])
    def test_information_word_must_be_dim_symbols(self, info, shape):
        with pytest.raises(ValueError) as raised:
            SMALL.encode(info)
        assert str(raised.value) == f"expected 3 symbols in a 1-D array, got shape {shape}"

    @pytest.mark.parametrize("bad", [-3, 8, 40])
    def test_received_symbols_must_fit_the_field(self, bad):
        erased = np.array([True, False, False, False, False, False])
        word = SMALL.encode(np.array([1, 2, 3]))
        SMALL.decode(np.where(erased, bad, word), erased)  # erased entries are ignored
        word[3] = bad
        with pytest.raises(ValueError):
            SMALL.decode(word, erased)

    # symbols the int64 cast would cut (1.7 to 1) or overflow on (2**70)
    @pytest.mark.parametrize("bad", [[1.7, 2.0, 3.0], [2**70, 2, 3]], ids=["float", "object"])
    def test_non_integer_symbols_are_rejected(self, bad):
        with pytest.raises(ValueError, match="symbols must be integers"):
            SMALL.encode(bad)
        word = SMALL.encode([1, 2, 3]).tolist()
        with pytest.raises(ValueError, match="symbols must be integers"):
            SMALL.decode(bad + word[3:], np.zeros(6, bool))

    # a bool cast would read every nonzero entry as an erasure
    @pytest.mark.parametrize("mask", [[0.5, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, -1]],
                             ids=["float", "two-and-minus-one"])
    def test_erasure_mask_outside_0_1_is_rejected(self, mask):
        word = SMALL.encode([1, 2, 3])
        with pytest.raises(ValueError, match="erasure mask must hold bools or the integers"):
            SMALL.decode(word, mask)

    @pytest.mark.parametrize("dtype", [np.uint8, bool])
    def test_erasure_mask_of_0_1_is_accepted(self, dtype):
        word = SMALL.encode([1, 2, 3])
        erased = np.array([1, 0, 1, 0, 0, 1], dtype=dtype)
        assert SMALL.decode(np.where(erased, 0, word), erased).tolist() == [1, 2, 3]

    def test_bool_symbols_are_accepted(self):
        word = SMALL.encode(np.array([True, False, True]))
        assert np.array_equal(word, SMALL.encode([1, 0, 1]))
        erased = np.array([True, False, False, False, False, False])
        # the zero codeword as bools
        assert np.array_equal(SMALL.decode(np.zeros(6, bool), erased), [0, 0, 0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_protocol_code_handles_budget_erasures(self, seed):
        code = protocol_code()
        rng = np.random.default_rng(seed)
        info = rng.integers(0, 32, size=14)
        word = code.encode(info)
        erased = np.zeros(26, bool)
        erased[rng.choice(26, size=12, replace=False)] = True
        assert np.array_equal(code.decode(np.where(erased, 0, word), erased), info)

    def test_boundary_patterns(self):
        code = protocol_code()
        info = np.arange(14) % 32
        word = code.encode(info)
        for pattern in (range(12), range(14, 26), range(7, 19)):
            erased = np.zeros(26, bool)
            erased[list(pattern)] = True
            assert np.array_equal(code.decode(np.where(erased, 0, word), erased), info)
        erased = np.zeros(26, bool)
        erased[:13] = True
        with pytest.raises(DecodeFailure):
            code.decode(word, erased)


def oracle_weight(f: ScalarGF, i: int, x: int, pts: list[int]) -> int:
    """Scalar Lagrange weight: value at x of the basis polynomial that is 1
    at pts[i] and 0 at the other points."""
    num, den = 1, 1
    for j, pj in enumerate(pts):
        if j == i:
            continue
        num = f.mul(num, x ^ pj)
        den = f.mul(den, pts[i] ^ pj)
    return f.mul(num, f.inv(den))


def oracle_interpolate(f: ScalarGF, pts: list[int], vals: list[int], x: int) -> int:
    acc = 0
    for i, v in enumerate(vals):
        acc ^= f.mul(oracle_weight(f, i, x, pts), v)
    return acc


def oracle_encode(spec: CodeSpec, info: list[int]) -> list[int]:
    f, pts = ScalarGF(spec.field_order), list(range(spec.dim))
    return info + [oracle_interpolate(f, pts, info, x) for x in range(spec.dim, spec.n)]


def oracle_decode(spec: CodeSpec, received: list[int], erased: list[bool]) -> list[int]:
    f = ScalarGF(spec.field_order)
    pts = [x for x in range(spec.n) if not erased[x]][: spec.dim]
    vals = [received[x] for x in pts]
    return [
        oracle_interpolate(f, pts, vals, x) if erased[x] else received[x]
        for x in range(spec.dim)
    ]


@st.composite
def coded_words(draw):
    """A small code over a field of order 8..512, a payload that often holds
    zero symbols, an erasure order over all n positions and an erasure
    count within the budget."""
    order = draw(st.sampled_from([o for o in sorted(PRIMITIVE_POLYS) if o <= 512]))
    n = draw(st.integers(1, min(order, 40)))
    spec = CodeSpec(n, draw(st.integers(1, n)), order)
    symbol = st.one_of(st.just(0), st.integers(0, order - 1))
    info = draw(st.lists(symbol, min_size=spec.dim, max_size=spec.dim))
    order_of_erasure = draw(st.permutations(range(n)))
    count = draw(st.integers(0, spec.max_erasures))
    return spec, info, order_of_erasure, count


class TestScalarOracle:
    @given(coded_words())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_lagrange(self, case):
        spec, info, order_of_erasure, count = case
        code = ErasureCode(spec)
        word = code.encode(info)
        assert word.tolist() == oracle_encode(spec, info)

        erased = np.zeros(spec.n, bool)
        erased[order_of_erasure[:count]] = True
        received = np.where(erased, 0, word)
        got = code.decode(received, erased)
        assert got.tolist() == oracle_decode(spec, received.tolist(), erased.tolist()) == info

        erased[order_of_erasure[: spec.max_erasures + 1]] = True
        with pytest.raises(DecodeFailure):
            code.decode(np.where(erased, 0, word), erased)


_PROTOCOL_CODE = None


def protocol_code() -> ErasureCode:
    global _PROTOCOL_CODE
    if _PROTOCOL_CODE is None:
        _PROTOCOL_CODE = ErasureCode(CodeSpec.for_protocol(5, 5))
    return _PROTOCOL_CODE


class TestSessionRoundtrip:
    def test_three_users_recover_everything(self):
        rng = np.random.default_rng(9)
        for trial in range(25):
            offsets = tuple(int(x) for x in rng.integers(0, 130, size=3))
            report = session_roundtrip(5, 5, (1, 2, 3), offsets, seed=trial)
            assert report.all_recovered
            assert report.info_throughput == Fraction(42, 130)
            assert max(report.erasure_counts.values()) <= report.spec.max_erasures

    def test_single_user_sees_no_erasures(self):
        report = session_roundtrip(5, 5, (2,), (17,))
        assert report.all_recovered
        assert report.erasure_counts == {2: 0}

    def test_explicit_payloads_round_trip(self):
        payloads = {1: np.arange(14) % 32, 4: (np.arange(14) * 3) % 32}
        report = session_roundtrip(5, 5, (1, 4), (0, 99), payloads=payloads)
        assert report.all_recovered
        assert np.array_equal(report.recovered[4], payloads[4])

    def test_four_users_hit_the_budget_exactly(self):
        # p=7, k=7: four active users, per-user budget 3*(k+1) = 24 of the
        # 50 packets; random offsets reach the budget and still decode
        spec = CodeSpec.for_protocol(7, 7)
        assert (spec.n, spec.dim, spec.field_order) == (50, 26, 64)
        rng = np.random.default_rng(3)
        worst = 0
        for trial in range(30):
            offsets = tuple(int(x) for x in rng.integers(0, 350, size=4))
            report = session_roundtrip(7, 7, (1, 3, 4, 6), offsets, seed=trial)
            assert report.all_recovered
            assert report.info_throughput == Fraction(52, 175)
            worst = max(worst, max(report.erasure_counts.values()))
        assert worst <= spec.max_erasures

    def test_large_instance_formula_level(self):
        # checked without simulation: dimension, field size and the exact
        # information throughput of ten active users
        spec = CodeSpec.for_protocol(19, 19)
        assert spec.dim == 182 and spec.field_order == 512
        throughput = Fraction(10 * spec.dim, 19 * 362)
        assert throughput == Fraction(1820, 6878)
        assert float(throughput) >= 0.25

    def test_margins_and_measured_throughput(self):
        report = session_roundtrip(5, 5, (1, 2, 3), (3, 40, 77))
        assert report.measured_throughput == report.info_throughput == Fraction(42, 130)
        assert report.margins == {g: 12 - e for g, e in report.erasure_counts.items()}
        assert min(report.margins.values()) >= 0

    def test_over_budget_user_lowers_measured_throughput(self, monkeypatch):
        # force dimension n - 1, a budget of one erasure per user, so that
        # colliding users fail while the formula still counts them
        monkeypatch.setattr(erasure, "code_dimension", lambda p, k: k * p)
        report = session_roundtrip(5, 5, (1, 2, 3), (3, 40, 77))
        failed = [g for g, ok in report.recovered_ok.items() if not ok]
        assert failed and not report.all_recovered
        assert report.info_throughput == Fraction(3 * 25, 130)
        assert report.measured_throughput == Fraction((3 - len(failed)) * 25, 130)
        assert report.measured_throughput < report.info_throughput
        for g in failed:
            assert report.margins[g] == 1 - report.erasure_counts[g] < 0

    def test_missing_payload_rejected(self):
        with pytest.raises(PayloadError, match="^no payload for generator 2$"):
            session_roundtrip(5, 5, (1, 2), (0, 9), payloads={1: np.arange(14)})

    def test_non_integer_payload_rejected(self):
        # a cast to int64 would send 1.7 as 1 and report a failed recovery
        with pytest.raises(PayloadError, match="^generator 1: symbols must be integers"):
            session_roundtrip(5, 5, (1, 2), (0, 9), payloads={1: [1.7] * 14, 2: np.arange(14)})

    # every payload defect that encode finds, named with its generator
    @pytest.mark.parametrize(("bad", "message"), [
        (np.arange(13), "generator 4: expected 14 symbols in a 1-D array, got shape (13,)"),
        (np.full(14, 32), "generator 4: symbol 32 outside GF(32)"),
        (np.full(14, -1), "generator 4: symbol -1 outside GF(32)"),
    ], ids=["size", "above-field", "negative"])
    def test_payload_rejected_by_encode_names_generator(self, bad, message):
        with pytest.raises(PayloadError) as raised:
            session_roundtrip(5, 5, (1, 4), (0, 9), payloads={1: np.arange(14), 4: bad})
        assert str(raised.value) == message

    def test_too_many_users_rejected(self):
        with pytest.raises(ValueError):
            session_roundtrip(5, 5, (1, 2, 3, 4), (0, 1, 2, 3))

    def test_mismatched_offsets_rejected(self):
        with pytest.raises(ValueError):
            session_roundtrip(5, 5, (1, 2), (0,))

    def test_generator_zero_rejected(self):
        with pytest.raises(ValueError):
            session_roundtrip(5, 5, (0, 1), (0, 1))

    @pytest.mark.parametrize(("offsets", "bad"), [((-1, 99999), -1), ((0, 130), 130)])
    def test_offset_outside_period_rejected(self, offsets, bad):
        with pytest.raises(ValueError, match=f"offset {bad} outside 0..129"):
            session_roundtrip(5, 5, (1, 2), offsets)
