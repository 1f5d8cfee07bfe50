"""Config parsing, override precedence, and fingerprint stability."""

import pytest

from coldstart.config import ExperimentConfig, build_config, parse_config_file
from coldstart.rng import rng_for


class TestConfigFile:
    def test_parse_basic(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("# comment\nd = 16\n\ntau=0.5\ntasks = Rg,Cp\n")
        vals = parse_config_file(f)
        assert vals == {"d": "16", "tau": "0.5", "tasks": "Rg,Cp"}

    def test_parse_error_names_line(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("d = 16\nnot a pair\n")
        with pytest.raises(ValueError, match=r":2:"):
            parse_config_file(f)

    def test_override_precedence(self):
        cfg = build_config({"d": "16", "tau": "0.5"}, {"tau": "0.9"})
        assert cfg.d == 16
        assert cfg.tau == 0.9  # CLI override beats file

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            build_config({"no_such_knob": "1"}, {})

    def test_types_follow_defaults(self):
        cfg = build_config({}, {"seed": "11", "c_frac": "0.3", "sampler": "random"})
        assert isinstance(cfg.seed, int)
        assert isinstance(cfg.c_frac, float)
        assert cfg.sampler == "random"

    def test_strict_booleans(self):
        for val, want in (("1", True), ("true", True), ("True", True),
                          ("0", False), ("false", False), ("False", False)):
            assert build_config({}, {"freeze_encoders": val}).freeze_encoders is want
        for bad in ("yes", "no", "TRUE", ""):
            with pytest.raises(ValueError, match="freeze_encoders"):
                build_config({}, {"freeze_encoders": bad})

    @pytest.mark.parametrize("overrides, keys", [
        ({"c_frac": "1.5"}, ["c_frac"]),
        ({"tasks": "Rg,Xx"}, ["tasks"]),
        ({"k_extrinsic": "0"}, ["k_extrinsic"]),
        ({"heads": "3", "d": "16"}, ["heads"]),
        ({"aug": "both", "subst_ratio": "0.6"}, ["subst_ratio", "delete_ratio"]),
    ])
    def test_bad_values_name_their_key(self, overrides, keys):
        with pytest.raises(ValueError) as err:
            build_config({}, overrides)
        for key in keys:
            assert repr(key) in str(err.value)

    def test_value_checks_keep_valid_configs(self):
        # heads only binds the walk tasks' transformer
        assert build_config({}, {"heads": "3", "d": "16", "tasks": "Rg,Cg"}).heads == 3
        cfg = build_config({}, {"aug": "both", "subst_ratio": "0.5", "delete_ratio": "0.5"})
        assert cfg.subst_ratio == cfg.delete_ratio == 0.5

    def test_task_list(self):
        cfg = build_config({}, {"tasks": "Rp,Cg"})
        assert cfg.task_list() == ["Rp", "Cg"]
        assert ExperimentConfig().task_list() == ["Rg", "Cg", "Rp", "Cp"]


class TestFingerprint:
    def test_stable_across_instances(self):
        assert ExperimentConfig().fingerprint() == ExperimentConfig().fingerprint()

    def test_sensitive_to_every_field(self):
        base = ExperimentConfig().fingerprint()
        for key, val in (("seed", "99"), ("d", "8"), ("tau", "0.11"),
                         ("tasks", "Rg"), ("sampler", "random")):
            assert build_config({}, {key: val}).fingerprint() != base, key

    def test_is_hex_digest(self):
        fp = ExperimentConfig().fingerprint()
        assert len(fp) == 64
        int(fp, 16)


class TestSeedStreams:
    def test_same_keys_same_stream(self):
        a = rng_for(7, "mask", "user", 3).integers(0, 2 ** 63, size=5)
        b = rng_for(7, "mask", "user", 3).integers(0, 2 ** 63, size=5)
        assert (a == b).all()

    def test_different_keys_differ(self):
        a = rng_for(7, "mask", "user", 3).integers(0, 2 ** 63, size=5)
        b = rng_for(7, "mask", "user", 4).integers(0, 2 ** 63, size=5)
        c = rng_for(8, "mask", "user", 3).integers(0, 2 ** 63, size=5)
        assert not (a == b).all()
        assert not (a == c).all()

    def test_key_order_matters(self):
        a = rng_for(7, "a", "b").integers(0, 2 ** 63, size=4)
        b = rng_for(7, "b", "a").integers(0, 2 ** 63, size=4)
        assert not (a == b).all()
