import itertools

import numpy as np
import pytest

from twseg import io
from twseg.errors import InvalidValueError
from twseg.evaluate import hungarian_match
from twseg.synth import SynthSpec, generate

from reference_impl import (
    assignment_total,
    brute_force_assignment,
    brute_force_components,
)


def run_lengths(labels):
    return [len(list(g)) for _, g in itertools.groupby(labels)]


class TestGenerate:
    def test_plain_spec_run_count(self):
        seq, gt = generate(SynthSpec(k=4, n=400, sep=10.0, seed=0))
        assert seq.n == 400
        assert len(run_lengths(gt.labels)) == 4
        assert gt.labels.shape[0] == 400

    def test_repeat_pattern_runs_and_classes(self):
        seq, gt = generate(SynthSpec(k=3, n=120, repeat_pattern=("A", "B", "A"), seed=1))
        assert len(run_lengths(gt.labels)) == 3
        # Per-run labels: 3 distinct gt labels, 2 visual classes.
        assert gt.num_labels == 3
        a0 = seq.frames[gt.labels == 0].mean(axis=0)
        a2 = seq.frames[gt.labels == 2].mean(axis=0)
        b1 = seq.frames[gt.labels == 1].mean(axis=0)
        assert np.linalg.norm(a0 - a2) < np.linalg.norm(a0 - b1)

    def test_background_fraction(self):
        _, gt = generate(SynthSpec(k=4, n=500, background_frac=0.6, seed=2))
        frac = np.mean(gt.labels == gt.background_id)
        assert frac == pytest.approx(0.6, abs=0.02)

    def test_deterministic_per_seed(self):
        a_seq, a_gt = generate(SynthSpec(k=3, n=150, seed=9))
        b_seq, b_gt = generate(SynthSpec(k=3, n=150, seed=9))
        assert np.array_equal(a_seq.frames, b_seq.frames)
        assert np.array_equal(a_gt.labels, b_gt.labels)

    def test_min_run_length(self):
        for seed in range(5):
            _, gt = generate(SynthSpec(k=8, n=100, seed=seed))
            bg = gt.background_id
            for label_id, group in itertools.groupby(gt.labels):
                if label_id != bg:
                    assert len(list(group)) >= 2

    def test_pattern_length_must_match_k(self):
        with pytest.raises(InvalidValueError, match="repeat_pattern has 3 runs but k=2"):
            generate(SynthSpec(k=2, repeat_pattern=("A", "B", "A")))

    @pytest.mark.parametrize("field, value", [
        ("noise_sigma", -1.0), ("noise_sigma", float("nan")), ("noise_sigma", float("inf")),
        ("sep", float("nan")), ("sep", float("inf")),
    ])
    def test_bad_noise_or_sep_rejected(self, field, value):
        with pytest.raises(InvalidValueError, match="sep and noise_sigma must be finite"):
            SynthSpec(k=2, n=20, d=4, **{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidValueError, match="seed"):
            SynthSpec(k=2, n=20, d=4, seed=-1)

    def test_too_many_classes_for_dims(self):
        with pytest.raises(InvalidValueError, match="need d >= 5 for 5 class centers"):
            generate(SynthSpec(k=5, n=50, d=3))

    @pytest.mark.parametrize("label", ["", " BG", "BG ", "B\nG", "B\x85G"])
    def test_background_label_must_read_back(self, label):
        with pytest.raises(InvalidValueError, match="background_label must be one nonempty line"):
            SynthSpec(k=2, n=20, d=4, background_label=label)

    @pytest.mark.parametrize("cls", [" A", "A\t", "A\nB", "A\u2028B"])
    def test_pattern_class_must_read_back(self, cls):
        with pytest.raises(InvalidValueError, match="has surrounding whitespace or a line break"):
            SynthSpec(k=2, n=20, d=4, repeat_pattern=("B", cls))

    @pytest.mark.parametrize("pattern, label", [(None, "act1#1"), (None, "act0#0"),
                                                (("A", "B"), "A#0"), (("A", "A"), "A#1")])
    def test_background_label_must_not_name_a_run(self, pattern, label):
        with pytest.raises(InvalidValueError, match="is the label of a planted run"):
            SynthSpec(k=2, n=40, d=4, repeat_pattern=pattern, background_label=label,
                      background_frac=0.3)

    def test_background_label_like_a_run_label_of_no_run(self):
        # "act2#2" would be run 2's label, and "act0#1" is no run's.
        for label in ("act2#2", "act0#1"):
            _, gt = generate(SynthSpec(k=2, n=40, d=4, background_label=label,
                                       background_frac=0.3))
            assert gt.distinct_count(include_background=False) == 2

    def test_labels_round_trip_through_the_label_file(self, tmp_path):
        spec = SynthSpec(k=3, n=60, d=4, background_frac=0.2, repeat_pattern=("a b", "c", "a b"),
                         background_label="no action")
        _, gt = generate(spec)
        io.save_labels(gt, tmp_path / "s.txt")
        back = io.load_labels(tmp_path / "s.txt", spec.background_label)
        assert back.label_names == gt.label_names
        assert np.array_equal(back.labels, gt.labels)
        assert back.background_id is not None

    def test_center_separation_matches_spec(self):
        spec = SynthSpec(k=3, n=90, d=8, sep=6.0, noise_sigma=2.0, seed=4)
        seq, gt = generate(spec)
        means = [seq.frames[gt.labels == c].mean(axis=0) for c in range(3)]
        for a, b in itertools.combinations(means, 2):
            assert np.linalg.norm(np.asarray(a) - b) == pytest.approx(
                spec.sep * spec.noise_sigma, rel=0.25
            )


class TestBruteForceAssignment:
    def test_diagonal_dominant(self):
        m = brute_force_assignment(np.array([[9, 1], [2, 8]]))
        assert m == {0: 0, 1: 1}

    def test_single_row_picks_best_column(self):
        m = brute_force_assignment(np.array([[1, 5, 3]]))
        assert m == {0: 1}

    def test_agrees_with_hungarian_on_random(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            p, g = rng.integers(1, 6, size=2)
            ov = rng.integers(0, 20, size=(p, g))
            assert assignment_total(ov, brute_force_assignment(ov)) == assignment_total(
                ov, hungarian_match(ov)
            )

    def test_size_cap(self):
        with pytest.raises(InvalidValueError, match="brute force capped at 8x8 matrices"):
            brute_force_assignment(np.zeros((9, 9), dtype=int))


class TestBruteForceComponents:
    def test_chain(self):
        p = brute_force_components(3, [(0, 1), (1, 2)])
        assert p.labels.tolist() == [0, 0, 0]

    def test_two_pairs(self):
        p = brute_force_components(4, [(0, 1), (2, 3)])
        assert p.labels.tolist() == [0, 0, 1, 1]

    def test_labels_ordered_by_smallest_member(self):
        p = brute_force_components(5, [(3, 4), (0, 2)])
        assert p.labels.tolist() == [0, 1, 0, 2, 2]
