"""Flat key=value run configuration."""

from dataclasses import asdict

import pytest

from inkspread.config import RunConfig, load_config, parse_config_text


class TestDefaults:
    def test_baseline_is_valid(self):
        cfg = RunConfig()
        assert cfg.dataset == "f2"
        assert cfg.policy == "full"
        assert cfg.input_levels == 128

    def test_every_field_has_a_default(self):
        settings = asdict(RunConfig())
        assert settings["radius_in"] == 10.0
        assert settings["hw_R_off"] == 10000.0
        assert len(settings) >= 25


class TestValidation:
    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(dataset="mystery")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(policy="lazy")

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(train_count=0)
        with pytest.raises(ValueError):
            RunConfig(repetitions=-1)

    def test_level_floor(self):
        with pytest.raises(ValueError):
            RunConfig(input_levels=1)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(radius_in=-2.0)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            RunConfig(tolerance=float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            load_config(None, ["policy=error-gated", "tolerance=nan"])

    def test_half_open_bounds_pair(self):
        with pytest.raises(ValueError):
            RunConfig(input_min=1.0)


class TestParsing:
    def test_comments_and_blanks_ignored(self):
        values = parse_config_text(
            "# circles protocol\n\ndataset = circles  # generator\nseed=3\n")
        assert values == {"dataset": "circles", "seed": 3}

    def test_unknown_keys_collected_with_line_numbers(self):
        text = "dataset = f1\nshoe_size = 44\ncolour = green\n"
        with pytest.raises(ValueError) as err:
            parse_config_text(text, source="run.conf")
        msg = str(err.value)
        assert "shoe_size" in msg and "line 2" in msg
        assert "colour" in msg and "line 3" in msg

    def test_bad_numeric_value_diagnosed(self):
        with pytest.raises(ValueError, match="train_count"):
            parse_config_text("train_count = many\n")

    def test_empty_optional_bound_means_unset(self):
        values = parse_config_text("input_min =\ninput_max = 5\n")
        assert values["input_min"] is None
        assert values["input_max"] == 5.0

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match=":1:"):
            parse_config_text("dataset circles\n")


class TestLoadConfig:
    def test_file_plus_override_precedence(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("dataset = f2\nseed = 4\n")
        cfg = load_config(str(path), ["seed=9"])
        assert cfg.dataset == "f2"
        assert cfg.seed == 9

    def test_no_file_just_overrides(self):
        cfg = load_config(None, ["policy=merged", "radius_out=2.5"])
        assert cfg.policy == "merged"
        assert cfg.radius_out == 2.5

    def test_override_must_be_key_value(self):
        with pytest.raises(ValueError):
            load_config(None, ["policy"])

    def test_a_bad_override_value_names_its_key(self):
        with pytest.raises(ValueError, match="bad value 'abc' for seed"):
            load_config(None, ["seed=abc"])

    def test_an_override_keeps_a_hash(self):
        # a path may hold '#', so an override has no comment
        assert load_config(None, ["dataset_path=runs/#3.csv"]).dataset_path == "runs/#3.csv"

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ValueError, match="shoe_size"):
            load_config(None, ["shoe_size=44"])

    def test_suite_defaults_yield_to_explicit_keys(self):
        defaults = {"train_count": 300, "input_levels": 256}
        cfg = load_config(None, ["input_levels=64"], defaults=defaults)
        assert cfg.train_count == 300
        assert cfg.input_levels == 64

    def test_unknown_default_key_rejected(self):
        with pytest.raises(ValueError):
            load_config(None, None, defaults={"not_a_key": 1})
