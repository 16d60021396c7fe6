import math
import statistics
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from namebasis.features import (
    ALG1_DEFAULT_WEIGHTS,
    ALG2_DEFAULT_WEIGHTS,
    FeatureVector,
    WeightSet,
    compute_features,
    cost_alg1,
    cost_alg2,
    demand_shares,
    select_best,
    tiling_cost,
)
from namebasis.segmenter import SequenceCandidate, enumerate_all, enumerate_with_basis


def fv(**overrides):
    base = dict(
        avg_len=3.0,
        len_var=2.0,
        demand_avg=1.0,
        new_freq_avg=None,
        syntax_avg=None,
        eta_new=0,
        eta_total=3,
        eta_joins=2,
        name_len=9,
    )
    base.update(overrides)
    return FeatureVector(**base)


class TestWeightSet:
    def test_defaults_are_valid(self):
        assert ALG1_DEFAULT_WEIGHTS.as_tuple() == (0.4, 0.2, 0.1, 0.3)
        assert ALG2_DEFAULT_WEIGHTS.as_tuple() == (0.4, 0.3, 0.3, 0.0)

    def test_sum_must_be_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            WeightSet(0.4, 0.3, 0.3, 0.3)

    def test_range_checked(self):
        with pytest.raises(ValueError, match="lie in"):
            WeightSet(1.2, -0.2, 0.0, 0.0)

    def test_parse(self):
        assert WeightSet.parse("0.4,0.2,0.1,0.3") == ALG1_DEFAULT_WEIGHTS
        with pytest.raises(ValueError):
            WeightSet.parse("0.5,0.5")


class TestDemandShares:
    def test_two_of_four_sequences(self):
        seqs = enumerate_all("abcd", min_segment=1, include_whole=False)
        assert len(seqs) == 7
        shares = demand_shares(seqs)
        # "ab" appears in ab|cd, ab|c|d -> 2 of 7
        assert shares["ab"] == pytest.approx(2 / 7)

    def test_repeat_counts_once_per_sequence(self):
        seqs = enumerate_with_basis("aa", {"a": (0, 1)})
        shares = demand_shares(seqs)
        assert shares["a"] == pytest.approx(1 / 2)  # in the split sequence only


class TestComputeFeatures:
    def test_ra_ma_kanth(self):
        seq = next(
            s
            for s in enumerate_with_basis(
                "ramakanth", {"ra": (0,), "ma": (2,), "kanth": (4,)}
            )
            if s.texts == ("ra", "ma", "kanth")
        )
        features = compute_features(
            seq, {"ra": 1.0, "ma": 1.0, "kanth": 1.0}, {}, {}
        )
        assert features.avg_len == 3.0
        assert features.len_var == 2.0
        assert features.eta_joins == 2
        assert features.new_freq_avg is None and features.syntax_avg is None

    def test_single_segment_degenerate(self):
        seq = enumerate_with_basis("mahesha", {})[0]
        features = compute_features(
            seq, {"mahesha": 0.25}, {"mahesha": 1.0}, {"mahesha": True}
        )
        assert features.avg_len == 7.0
        assert features.len_var == 0.0
        assert features.eta_joins == 0
        assert features.new_freq_avg == 1.0 and features.syntax_avg == 1.0

    def test_missing_demand_entry(self):
        seq = enumerate_with_basis("abc", {})[0]
        with pytest.raises(KeyError, match="demand"):
            compute_features(seq, {}, {}, {})

    def test_missing_syntax_entry(self):
        seq = enumerate_with_basis("abc", {})[0]
        with pytest.raises(KeyError, match="syntax"):
            compute_features(seq, {"abc": 1.0}, {"abc": 0.5}, {})

    def test_none_corpus_freq_leaves_feature_undefined(self):
        seq = enumerate_with_basis("abc", {})[0]
        features = compute_features(seq, {"abc": 1.0}, None, {"abc": True})
        assert features.new_freq_avg is None
        assert features.syntax_avg == 1.0

    @given(st.text(alphabet="abcd", min_size=1, max_size=8))
    def test_mean_length_times_count_is_name_length(self, name):
        for seq in enumerate_all(name, min_segment=1):
            features = compute_features(
                seq,
                {t: 1.0 for t in seq.texts},
                {t: 1.0 for t in seq.texts},
                {t: True for t in seq.texts},
            )
            assert features.avg_len == len(name) / features.eta_total
            assert math.isclose(
                features.avg_len * features.eta_total, len(name), rel_tol=1e-9
            )

    @given(st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=12))
    def test_len_var_equals_pvariance(self, lengths):
        cuts = tuple(accumulate(lengths))
        seq = SequenceCandidate.from_boundaries("a" * cuts[-1], cuts[:-1])
        features = compute_features(
            seq,
            {t: 1.0 for t in seq.texts},
            {t: 1.0 for t in seq.texts},
            {t: True for t in seq.texts},
        )
        assert features.len_var == statistics.pvariance(lengths)


class TestCostAlg1:
    def test_no_new_words(self):
        cost = cost_alg1(fv(), ALG1_DEFAULT_WEIGHTS)
        assert cost == pytest.approx(0.4 / 3 + 0.2 * 2 + 0.1 * 1, rel=1e-12)
        assert cost == pytest.approx(0.6333, abs=5e-5)

    def test_single_term_reduction(self):
        weights = WeightSet(1.0, 0.0, 0.0, 0.0)
        assert cost_alg1(fv(avg_len=7.0), weights) == pytest.approx(1 / 7)

    def test_new_word_term(self):
        vector = fv(eta_new=1, new_freq_avg=0.5, syntax_avg=1.0)
        cost = cost_alg1(vector, ALG1_DEFAULT_WEIGHTS)
        assert cost == pytest.approx(0.4 / 3 + 0.4 + 0.1 + 0.3 * 1 * (2 + 1), rel=1e-12)
        assert cost == pytest.approx(1.5333, abs=5e-5)

    def test_zero_averages_get_penalty(self):
        vector = fv(eta_new=2, new_freq_avg=0.0, syntax_avg=0.0)
        cost = cost_alg1(vector, ALG1_DEFAULT_WEIGHTS)
        assert cost == pytest.approx(0.4 / 3 + 0.4 + 0.1 + 0.3 * 2 * 2e6, rel=1e-12)

    def test_inverted_demand_flag(self):
        cost = cost_alg1(fv(demand_avg=0.5), ALG1_DEFAULT_WEIGHTS, pav_inverted=True)
        assert cost == pytest.approx(0.4 / 3 + 0.4 + 0.1 / 0.5, rel=1e-12)

    def test_new_words_never_free(self):
        # same shape features, one sequence introduces a new word: with
        # any weight on the new-word term it must cost strictly more
        settled = fv()
        with_new = fv(eta_new=1, new_freq_avg=1.0, syntax_avg=1.0)
        assert cost_alg1(with_new, ALG1_DEFAULT_WEIGHTS) > cost_alg1(
            settled, ALG1_DEFAULT_WEIGHTS
        )

    def test_monotonicity(self):
        base = fv(eta_new=1, new_freq_avg=0.5, syntax_avg=1.0)
        w = ALG1_DEFAULT_WEIGHTS
        assert cost_alg1(fv(avg_len=4.0, eta_new=1, new_freq_avg=0.5, syntax_avg=1.0), w) < cost_alg1(base, w)
        assert cost_alg1(fv(len_var=3.0, eta_new=1, new_freq_avg=0.5, syntax_avg=1.0), w) > cost_alg1(base, w)
        assert cost_alg1(fv(eta_new=2, new_freq_avg=0.5, syntax_avg=1.0), w) > cost_alg1(base, w)
        assert cost_alg1(fv(eta_new=1, new_freq_avg=0.9, syntax_avg=1.0), w) < cost_alg1(base, w)


class TestTilingCost:
    def test_is_cost_alg1_of_the_same_features(self):
        vector = fv(eta_new=2, new_freq_avg=0.25, syntax_avg=0.5, demand_avg=0.75)
        for inverted in (False, True):
            assert tiling_cost(3.0, 2.0, 0.75, 2, 0.25, 0.5, ALG1_DEFAULT_WEIGHTS, inverted) == (
                cost_alg1(vector, ALG1_DEFAULT_WEIGHTS, inverted)
            )

    def test_zero_extra_weight_never_reads_new_word_features(self):
        weights = WeightSet(0.4, 0.3, 0.3, 0.0)
        # undefined averages would cost ZERO_PENALTY if the term were evaluated
        assert tiling_cost(3.0, 2.0, 1.0, 2, None, None, weights, False) == (
            0.4 / 3.0 + 0.3 * 2.0 + 0.3 * 1.0
        )


class TestCostAlg2:
    def test_derived_value(self):
        weights = WeightSet(0.4, 0.3, 0.3, 0.0)
        vector = fv(avg_len=2.5, len_var=0.25, demand_avg=0.5)
        assert cost_alg2(vector, weights) == pytest.approx(0.385, rel=1e-12)

    def test_zero_syntax_weight_drops_term_entirely(self):
        weights = WeightSet(0.4, 0.3, 0.3, 0.0)
        vector = fv(avg_len=2.5, len_var=0.25, demand_avg=0.5, eta_new=2, syntax_avg=0.0)
        assert cost_alg2(vector, weights) == pytest.approx(0.385, rel=1e-12)

    def test_syntax_term(self):
        weights = WeightSet(0.4, 0.2, 0.2, 0.2)
        vector = fv(avg_len=2.0, len_var=0.0, demand_avg=0.5, eta_new=1, syntax_avg=0.5)
        assert cost_alg2(vector, weights) == pytest.approx(0.2 + 0.1 + 0.4, rel=1e-12)

    def test_zero_syntax_average_penalized(self):
        weights = WeightSet(0.4, 0.2, 0.2, 0.2)
        vector = fv(avg_len=2.0, len_var=0.0, demand_avg=0.5, eta_new=1, syntax_avg=0.0)
        assert cost_alg2(vector, weights) == pytest.approx(
            0.2 + 0.1 + 0.2 * 1e6, rel=1e-12
        )


class TestSelectBest:
    def seqs(self, name="abcd"):
        return enumerate_all(name, min_segment=1, include_whole=True)

    def test_argmin(self):
        seqs = self.seqs()[:3]
        assert select_best(seqs, [0.5, 0.3, 0.9]) is seqs[1]

    def test_tie_prefers_fewer_new_words(self):
        seqs = enumerate_with_basis("abcd", {"ab": (0,), "cd": (2,)})
        split = next(s for s in seqs if s.texts == ("ab", "cd"))  # eta_new == 0
        whole = next(s for s in seqs if s.texts == ("abcd",))  # eta_new == 1
        assert select_best([whole, split], [1.0, 1.0]) is split

    def test_tie_prefers_fewer_joins_then_leftmost(self):
        seqs = self.seqs()
        one_join = [s for s in seqs if s.eta_joins == 1]
        assert select_best(one_join, [1.0] * len(one_join)) is one_join[0]

    def test_single_candidate(self):
        seqs = self.seqs()[:1]
        assert select_best(seqs, [2.0]) is seqs[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_best([], [])

    def test_scale_invariance(self):
        seqs = self.seqs()
        costs = [0.75, 0.31, 0.31, 0.9, 1.2, 0.4, 0.5, 0.6]
        chosen = select_best(seqs, costs)
        assert select_best(seqs, [c * 2.0 for c in costs]) is chosen
        assert select_best(seqs, [c * 0.5 for c in costs]) is chosen
