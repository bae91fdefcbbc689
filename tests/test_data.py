from collections import Counter

import pytest

from helpers import NEGATIVE_STRINGS, POSITIVE_STRINGS, eight_strings_dataset

from plkb.data import (
    Dataset,
    SeedSpec,
    balance,
    from_rows,
    generate_synthetic,
    label_synthetic,
    load_csv,
    load_seed_spec,
    load_synthetic,
    random_seed_spec,
    save_synthetic,
    split,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_minimal(self, tmp_path):
        p = write(tmp_path, "t.csv", "a1,lbl\n0,yes\n1,no\n")
        ds = load_csv(p, "lbl", "yes")
        assert ds.features == ("a1",)
        assert ds.domains == {"a1": frozenset({"0", "1"})}
        assert [i.label for i in ds.instances] == [True, False]

    def test_eight_strings_roundtrip(self, tmp_path):
        lines = ["a1,a2,a3,a4,label"]
        lines += [",".join(s) + ",yes" for s in POSITIVE_STRINGS]
        lines += [",".join(s) + ",no" for s in NEGATIVE_STRINGS]
        p = write(tmp_path, "s.csv", "\n".join(lines) + "\n")
        ds = load_csv(p, "label", "yes")
        assert len(ds) == 8
        assert ds.n_positive == 4

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path, "t.csv", "a1,lbl\n0,yes\n1\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(p, "lbl", "yes")

    def test_empty_cell(self, tmp_path):
        p = write(tmp_path, "t.csv", "a1,lbl\n,yes\n")
        with pytest.raises(ValueError, match="empty cell"):
            load_csv(p, "lbl", "yes")

    def test_missing_label_column(self, tmp_path):
        p = write(tmp_path, "t.csv", "a1,lbl\n0,yes\n")
        with pytest.raises(ValueError, match="label column"):
            load_csv(p, "other", "yes")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "lbl", "yes")

    @pytest.mark.parametrize(
        "header, message",
        [("a,a,lbl", "feature 'a' repeated"), ("a,lbl,lbl", "label column 'lbl' repeated")],
    )
    def test_repeated_column_refused(self, tmp_path, header, message):
        p = write(tmp_path, "t.csv", header + "\n0,1,yes\n")
        with pytest.raises(ValueError, match=message):
            load_csv(p, "lbl", "yes")

    @pytest.mark.parametrize("header, row", [("a1,lbl", "x,yes"), ("lbl,a1", "yes,x")])
    def test_byte_order_mark_is_skipped(self, tmp_path, header, row):
        # spreadsheet and editor "UTF-8" exports start with U+FEFF
        p = write(tmp_path, "t.csv", f"\ufeff{header}\n{row}\n")
        ds = load_csv(p, "lbl", "yes")
        assert ds.features == ("a1",)
        assert ds.instances[0].values == {"a1": "x"}

    def test_label_column_in_the_middle(self, tmp_path):
        p = write(tmp_path, "t.csv", "a1,lbl,a2\nx,yes,y\n")
        ds = load_csv(p, "lbl", "yes")
        assert ds.features == ("a1", "a2")
        assert ds.instances[0].values == {"a1": "x", "a2": "y"}


class TestDataset:
    def test_reserved_feature_name(self):
        with pytest.raises(ValueError, match="reserved"):
            from_rows(["pos"], [(("1",), True)])

    def test_repeated_feature(self):
        with pytest.raises(ValueError, match="feature 'b' repeated"):
            from_rows(["b", "a", "b"], [(("0", "1", "1"), True)])

    def test_unsafe_value(self):
        with pytest.raises(ValueError):
            from_rows(["a"], [(("x y",), True)])


class TestBalance:
    def test_already_balanced_unchanged(self):
        ds = eight_strings_dataset()
        assert balance(ds, 0) is ds

    def test_replicates_smaller_class(self):
        rows = [(("1",), True)] * 5 + [(("0",), False)] * 2
        ds = from_rows(["a"], rows)
        out = balance(ds, 3)
        assert out.n_positive == out.n_negative == 5
        originals = Counter(
            (tuple(sorted(i.values.items())), i.label) for i in ds.instances
        )
        for inst in out.instances:
            key = (tuple(sorted(inst.values.items())), inst.label)
            assert key in originals

    def test_deterministic(self):
        rows = [((str(i % 3),), i % 4 == 0) for i in range(11)]
        ds = from_rows(["a"], rows)
        a = balance(ds, 9)
        b = balance(ds, 9)
        assert [i.values for i in a.instances] == [i.values for i in b.instances]

    def test_empty_class_rejected(self):
        ds = from_rows(["a"], [(("1",), True), (("0",), True)])
        with pytest.raises(ValueError, match="non-empty"):
            balance(ds, 0)


class TestSplit:
    def test_seventy_thirty(self):
        rows = [((str(i),), i % 2 == 0) for i in range(10)]
        ds = from_rows(["a"], rows)
        train, test = split(ds, 0.7, 1)
        assert (len(train), len(test)) == (7, 3)

    def test_half_of_two(self):
        ds = from_rows(["a"], [(("0",), True), (("1",), False)])
        train, test = split(ds, 0.5, 1)
        assert (len(train), len(test)) == (1, 1)

    def test_exact_partition(self):
        rows = [((str(i),), i % 2 == 0) for i in range(10)]
        ds = from_rows(["a"], rows)
        train, test = split(ds, 0.7, 5)
        combined = sorted(i.values["a"] for i in train.instances + test.instances)
        assert combined == sorted(i.values["a"] for i in ds.instances)

    def test_deterministic(self):
        rows = [((str(i),), i % 2 == 0) for i in range(10)]
        ds = from_rows(["a"], rows)
        a = split(ds, 0.7, 5)
        b = split(ds, 0.7, 5)
        assert [i.values for i in a[0].instances] == [i.values for i in b[0].instances]

    def test_fraction_range(self):
        ds = from_rows(["a"], [(("0",), True), (("1",), False)])
        with pytest.raises(ValueError):
            split(ds, 1.0, 0)


SEED = SeedSpec("3232411132", 10, 4, 5)


class TestLabelSynthetic:
    def test_exactly_five_matches_is_positive(self):
        assert label_synthetic("3133421242", SEED) is True

    def test_six_matches_is_negative(self):
        assert label_synthetic("3133421232", SEED) is False

    def test_full_match_with_match_count_equal_length(self):
        spec = SeedSpec("3232411132", 10, 4, 10)
        assert label_synthetic(spec.seed, spec) is True

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            label_synthetic("123", SEED)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet"):
            label_synthetic("5133421242", SEED)


class TestSeedSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeedSpec("123", 4, 4, 2)  # wrong length
        with pytest.raises(ValueError):
            SeedSpec("1155", 4, 4, 2)  # symbol outside alphabet
        with pytest.raises(ValueError):
            SeedSpec("1122", 4, 4, 5)  # match_count > length
        with pytest.raises(ValueError):
            SeedSpec("1122", 4, 1, 2)  # degenerate alphabet

    def test_random_spec_deterministic(self):
        assert random_seed_spec(10, 4, 5, 7) == random_seed_spec(10, 4, 5, 7)


class TestGenerateSynthetic:
    def test_balanced_and_consistent(self):
        ds = generate_synthetic(SEED, 2000, 11)
        assert len(ds) == 2000
        assert ds.n_positive == 1000
        for inst in ds.instances:
            s = "".join(inst.values[f"a{i}"] for i in range(1, 11))
            assert label_synthetic(s, SEED) == inst.label

    def test_two_samples(self):
        ds = generate_synthetic(SEED, 2, 5)
        assert ds.n_positive == 1
        assert ds.n_negative == 1

    def test_deterministic(self):
        a = generate_synthetic(SEED, 50, 3)
        b = generate_synthetic(SEED, 50, 3)
        assert [i.values for i in a.instances] == [i.values for i in b.instances]

    def test_feature_names(self):
        ds = generate_synthetic(SEED, 4, 1)
        assert ds.features == tuple(f"a{i}" for i in range(1, 11))


class TestSyntheticRoundTrip:
    def test_save_and_load(self, tmp_path):
        ds = generate_synthetic(SEED, 20, 2)
        save_synthetic(ds, SEED, tmp_path / "syn")
        loaded, spec = load_synthetic(tmp_path / "syn")
        assert spec == SEED
        assert len(loaded) == 20
        assert [i.label for i in loaded.instances] == [i.label for i in ds.instances]
        assert [i.values for i in loaded.instances] == [i.values for i in ds.instances]

    def test_seed_file_with_a_byte_order_mark(self, tmp_path):
        p = write(tmp_path, "seed.json",
                  '\ufeff{"seed": "1212", "length": 4, "alphabet_size": 2, "match_count": 2}')
        assert load_seed_spec(p) == SeedSpec("1212", 4, 2, 2)

    @pytest.mark.parametrize("text, field", [
        ('{"seed": "1212", "length": "4", "alphabet_size": 2, "match_count": 2}', "'length'"),
        ('{"seed": "1212", "length": 4, "alphabet_size": 2, "match_count": 2.5}',
         "'match_count'"),
        ('{"seed": "1212", "length": 4, "alphabet_size": true, "match_count": 2}',
         "'alphabet_size'"),
        ('{"seed": 1212, "length": 4, "alphabet_size": 2, "match_count": 2}', "'seed'"),
        ('{"length": 4, "alphabet_size": 2, "match_count": 2}', "'seed'"),
        ('["1212", 4, 2, 2]', "not a JSON object"),
        ('{"seed": "1212", "length": 4, "alphabet_size": 2, "match_count": 9}',
         "match_count must be in [0, length]"),
    ])
    def test_malformed_seed_file_names_the_file_and_field(self, tmp_path, text, field):
        p = write(tmp_path, "seed.json", text)
        with pytest.raises(ValueError) as exc:
            load_seed_spec(p)
        assert str(exc.value).startswith(f"{p}: ") and field in str(exc.value)
