import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crtseq.core import (
    BinarySequence,
    CrtParams,
    GridPoint,
    SequenceRecord,
    Variant,
    array_to_sequence,
    characteristic_set,
    crt_inverse,
    crt_map,
    generate_sequence,
    is_prime,
    multi_rate_characteristic_set,
    points_to_sequence,
    read_sequence_file,
    sequence_to_array,
    write_sequence_file,
)

P35 = CrtParams(3, 5)
M78 = CrtParams(7, 8, Variant.MODIFIED)

GRID = [
    CrtParams(3, 5),
    CrtParams(3, 8),
    CrtParams(5, 7),
    CrtParams(5, 4),
    CrtParams(7, 8, Variant.MODIFIED),
    CrtParams(5, 51, Variant.MODIFIED),
    CrtParams(11, 13),
    CrtParams(7, 4, Variant.MODIFIED),  # q < p
]


def test_prime_check():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestParams:
    def test_rejects_composite_p(self):
        with pytest.raises(ValueError, match="prime"):
            CrtParams(4, 5)

    def test_rejects_p_equal_2(self):
        with pytest.raises(ValueError, match="prime"):
            CrtParams(2, 5)

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError, match="coprime"):
            CrtParams(3, 6)

    def test_rejects_q_below_2(self):
        with pytest.raises(ValueError):
            CrtParams(3, 1)

    def test_gamma_autofilled(self):
        assert M78.gamma == 7  # 7*7 = 49 = 1 mod 8

    def test_gamma_is_derived(self):
        assert P35.gamma is None
        with pytest.raises(TypeError):
            CrtParams(7, 8, Variant.MODIFIED, gamma=7)

    def test_length(self):
        assert P35.L == 15 and M78.L == 56


class TestResidueMap:
    def test_known_images(self):
        assert crt_map(7, P35) == GridPoint(1, 2)
        assert crt_map(0, P35) == GridPoint(0, 0)
        assert crt_map(49, M78) == GridPoint(0, 7)  # 49 mod 7 = 0, 7*49 mod 8 = 7

    def test_known_preimages(self):
        assert crt_inverse(GridPoint(1, 2), P35) == 7
        assert crt_inverse(GridPoint(0, 0), P35) == 0
        assert crt_inverse(GridPoint(2, 4), P35) == 14
        assert type(crt_inverse(GridPoint(np.int64(1), np.int64(2)), P35)) is int

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            crt_map(15, P35)
        with pytest.raises(ValueError):
            crt_map(-1, P35)
        with pytest.raises(ValueError, match="index 15"):
            crt_map(np.array([[0, 3], [15, 2]]), P35)

    @pytest.mark.parametrize("params", GRID)
    def test_bijective(self, params):
        images = {crt_map(x, params) for x in range(params.L)}
        assert len(images) == params.L
        for x in range(params.L):
            assert crt_inverse(crt_map(x, params), params) == x
        xs = np.arange(params.L)
        rows, cols = crt_map(xs, params)
        assert [(int(r), int(c)) for r, c in zip(rows, cols)] == [
            crt_map(x, params) for x in range(params.L)
        ]
        assert np.array_equal(crt_inverse(GridPoint(rows, cols), params), xs)

    @pytest.mark.parametrize("params", GRID)
    def test_linear(self, params):
        L = params.L
        xs = range(0, L, max(1, L // 13))
        for x in xs:
            for y in xs:
                fx, fy = crt_map(x, params), crt_map(y, params)
                combined = GridPoint((fx.row + fy.row) % params.p, (fx.col + fy.col) % params.q)
                assert crt_map((x + y) % L, params) == combined
        x, y = np.meshgrid(xs, xs)
        fx, fy = crt_map(x, params), crt_map(y, params)
        fs = crt_map((x + y) % L, params)
        assert np.array_equal(fs.row, (fx.row + fy.row) % params.p)
        assert np.array_equal(fs.col, (fx.col + fy.col) % params.q)
        # the inverse is linear too, and accepts unreduced residues
        assert np.array_equal(
            crt_inverse(GridPoint(fx.row + fy.row, fx.col + fy.col), params), (x + y) % L
        )


class TestCharacteristicSets:
    def test_small_example(self):
        assert characteristic_set(0, P35).points == frozenset(
            {(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)}
        )
        assert characteristic_set(1, P35).points == frozenset(
            {(0, 0), (1, 1), (2, 2), (0, 3), (1, 4)}
        )
        assert characteristic_set(2, P35).points == frozenset(
            {(0, 0), (2, 1), (1, 2), (0, 3), (2, 4)}
        )

    def test_one_point_per_column(self):
        for params in GRID:
            for g in range(params.p):
                cols = [pt.col for pt in characteristic_set(g, params).points]
                assert sorted(cols) == list(range(params.q))

    def test_rejects_bad_generator(self):
        with pytest.raises(ValueError):
            characteristic_set(3, P35)


@st.composite
def params_and_generator(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 37]))
    q = draw(st.integers(2, 3 * p + 4).filter(lambda q: q % p))
    variant = draw(st.sampled_from(list(Variant)))
    return CrtParams(p, q, variant), draw(st.integers(0, p - 1))


class TestSequences:
    @given(params_and_generator())
    def test_ones_are_the_characteristic_set(self, case):
        params, g = case
        points = characteristic_set(g, params).points
        bits = generate_sequence(g, params).bits
        assert [int(b) for b in bits] == [
            int(crt_map(t, params) in points) for t in range(params.L)
        ]

    def test_small_example_bits(self):
        assert str(generate_sequence(0, P35)) == "100100100100100"
        assert str(generate_sequence(1, P35)) == "111110000000000"
        assert str(generate_sequence(2, P35)) == "100100010001001"

    def test_modified_support(self):
        assert list(generate_sequence(6, M78).support()) == [0, 49, 50, 51, 52, 53, 54, 55]

    @pytest.mark.parametrize("params", GRID)
    def test_weight_is_q(self, params):
        for g in range(params.p):
            assert generate_sequence(g, params).weight == params.q

    @pytest.mark.parametrize("params", GRID)
    def test_generator_zero_has_least_period_p(self, params):
        s = generate_sequence(0, params).bits
        L, p = params.L, params.p
        assert all(s[(t + p) % L] == s[t] for t in range(L))
        # p prime: the only smaller candidate period is 1
        assert not all(s[(t + 1) % L] == s[t] for t in range(L))

    @pytest.mark.parametrize("params", GRID)
    def test_one_hit_per_residue_class(self, params):
        p, q, L = params.p, params.q, params.L
        for g in range(p):
            s = generate_sequence(g, params).bits
            for i in range(q):
                assert sum(int(s[(i + k * q) % L]) for k in range(p)) == 1

    @pytest.mark.parametrize("params", [P35, CrtParams(5, 7), M78])
    def test_window_of_p_columns_is_permutation(self, params):
        p, q = params.p, params.q
        if q < p:
            pytest.skip("needs q >= p")
        for g in range(1, p):
            arr = sequence_to_array(generate_sequence(g, params), params)
            for start in range(q - p + 1):
                window = arr[:, start : start + p]
                assert np.all(window.sum(axis=0) == 1)
                assert np.all(window.sum(axis=1) == 1)


class TestMultiRate:
    def test_single_translate_is_identity(self):
        assert multi_rate_characteristic_set(2, 1, P35) == characteristic_set(2, P35).points

    def test_two_translates(self):
        pts = multi_rate_characteristic_set(1, 2, P35)
        assert len(pts) == 10
        assert points_to_sequence(pts, P35).weight == 10

    def test_duty_factor(self):
        from fractions import Fraction

        params = CrtParams(5, 7)
        pts = multi_rate_characteristic_set(0, 3, params)
        seq = points_to_sequence(pts, params)
        assert len(pts) == 21
        assert seq.duty_factor == Fraction(3, 5)

    def test_rejects_k_at_p(self):
        with pytest.raises(ValueError):
            multi_rate_characteristic_set(1, 3, P35)
        with pytest.raises(ValueError):
            multi_rate_characteristic_set(1, 0, P35)


class TestArrayView:
    def test_matches_characteristic_set(self):
        arr = sequence_to_array(generate_sequence(1, P35), P35)
        expect = np.array(
            [[1, 0, 0, 1, 0], [0, 1, 0, 0, 1], [0, 0, 1, 0, 0]], dtype=np.uint8
        )
        assert np.array_equal(arr, expect)

    def test_zero_maps_to_zero(self):
        zero = BinarySequence(np.zeros(15, dtype=np.uint8))
        assert not sequence_to_array(zero, P35).any()

    def test_cyclic_shift_commutes_with_row_and_column_shift(self):
        s2 = generate_sequence(2, P35)
        lhs = sequence_to_array(s2.shifted(1), P35)
        rhs = np.roll(sequence_to_array(s2, P35), (1, 1), axis=(0, 1))
        assert np.array_equal(lhs, rhs)

    @pytest.mark.parametrize("params", GRID)
    def test_round_trip(self, params):
        for g in range(params.p):
            seq = generate_sequence(g, params)
            assert array_to_sequence(sequence_to_array(seq, params), params) == seq

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sequence_to_array(BinarySequence(np.zeros(10, dtype=np.uint8)), P35)
        with pytest.raises(ValueError):
            array_to_sequence(np.zeros((3, 4)), P35)


class TestBinarySequence:
    def test_from_string_round_trip(self):
        s = BinarySequence.from_string("100100100100100")
        assert str(s) == "100100100100100"
        assert s.weight == 5

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BinarySequence(np.array([0, 1, 2]))

    def test_shift_moves_support(self):
        s = BinarySequence.from_support([0, 3], 6)
        assert list(s.shifted(2).support()) == [2, 5]

    @pytest.mark.parametrize(
        "support",
        [
            [5, 0, 3],
            {3, 5, 0},
            (t for t in (3, 0, 5)),
            np.array([5, 3, 0]),
            np.array([0, 3, 5], dtype=np.uint16),
        ],
        ids=["list", "set", "generator", "array", "uint16-array"],
    )
    def test_from_support_accepts_any_iterable_in_any_order(self, support):
        assert str(BinarySequence.from_support(support, 6)) == "100101"

    @pytest.mark.parametrize("support", [[], set(), iter(()), np.array([], dtype=np.int64)])
    def test_from_support_empty(self, support):
        assert str(BinarySequence.from_support(support, 4)) == "0000"

    @pytest.mark.parametrize("support", [[2, -1], np.array([6, 0]), {0, 7}])
    def test_from_support_rejects_out_of_range(self, support):
        with pytest.raises(ValueError, match="support index out of range"):
            BinarySequence.from_support(support, 6)

    def test_bits_are_read_only(self):
        s = generate_sequence(1, P35)
        with pytest.raises(ValueError):
            s.bits[0] = 0

    def test_points_to_sequence_rejects_duplicates(self):
        with pytest.raises(ValueError):
            points_to_sequence([GridPoint(0, 0), GridPoint(3, 5)], P35)


class TestSequenceFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "seqs.txt"
        records = [
            SequenceRecord(P35, g, generate_sequence(g, P35)) for g in range(3)
        ] + [SequenceRecord(M78, 6, generate_sequence(6, M78))]
        write_sequence_file(path, records)
        back = read_sequence_file(path)
        assert back == records
        text = path.read_text()
        assert "# p=3 q=5 variant=std g=1" in text
        assert "# p=7 q=8 variant=mod g=6" in text

    def test_rejects_orphan_lines(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("101010\n")
        with pytest.raises(ValueError):
            read_sequence_file(path)
        path.write_text("# p=3 q=5 variant=std g=1\n")
        with pytest.raises(ValueError):
            read_sequence_file(path)

    def test_rejects_wrong_length(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# p=3 q=5 variant=std g=1\n1010\n")
        with pytest.raises(ValueError, match="15 bits"):
            read_sequence_file(path)
