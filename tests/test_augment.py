import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskclip.augment import (
    ImageAugPolicy,
    TextAugPolicy,
    augment_image,
    augment_text,
    default_synonyms,
    load_synonyms,
)
from deskclip.errors import ConfigError, ContractError


def sample_image(seed=0, size=16):
    return np.random.default_rng(seed).uniform(0, 1, (3, size, size))


def test_identity_policy_is_exact():
    img = sample_image()
    identity = ImageAugPolicy(crop_scale=(1.0, 1.0), jitter_prob=0.0, grayscale_prob=0.0, blur_prob=0.0,
                              flip_prob=0.0)
    out = augment_image(img, identity, seed=123)
    assert np.array_equal(out, img)
    assert out is not img  # always a fresh buffer


def test_same_seed_same_view():
    img = sample_image()
    pol = ImageAugPolicy()
    a = augment_image(img, pol, seed=7)
    b = augment_image(img, pol, seed=7)
    assert np.array_equal(a, b)
    c = augment_image(img, pol, seed=8)
    assert not np.array_equal(a, c)


def test_forced_grayscale_equalizes_channels():
    pol = ImageAugPolicy(crop_scale=(1.0, 1.0), jitter_prob=0.0,
                         grayscale_prob=1.0, blur_prob=0.0, flip_prob=0.0)
    out = augment_image(sample_image(), pol, seed=3)
    assert np.allclose(out[0], out[1], atol=1e-12)
    assert np.allclose(out[1], out[2], atol=1e-12)


def test_forced_flip_mirrors_width():
    pol = ImageAugPolicy(crop_scale=(1.0, 1.0), jitter_prob=0.0,
                         grayscale_prob=0.0, blur_prob=0.0, flip_prob=1.0)
    img = sample_image()
    out = augment_image(img, pol, seed=3)
    assert np.allclose(out, img[:, :, ::-1], atol=1e-12)


def test_forced_blur_smooths():
    pol = ImageAugPolicy(crop_scale=(1.0, 1.0), jitter_prob=0.0,
                         grayscale_prob=0.0, blur_prob=1.0, blur_std=(1.5, 1.5),
                         flip_prob=0.0)
    img = sample_image()
    out = augment_image(img, pol, seed=3)
    tv = lambda x: np.abs(np.diff(x, axis=2)).mean()
    assert tv(out) < tv(img)


@given(st.integers(0, 10**9))
@settings(max_examples=1000, deadline=None)
def test_views_keep_shape_and_range(seed):
    img = sample_image(seed=1)
    out = augment_image(img, ImageAugPolicy(), seed=seed)
    assert out.shape == img.shape
    assert out.dtype == np.float64
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_policy_validation():
    with pytest.raises(ConfigError):
        ImageAugPolicy(crop_scale=(0.9, 0.2))
    with pytest.raises(ConfigError):
        ImageAugPolicy(jitter_prob=1.5)
    with pytest.raises(ContractError):
        augment_image(np.zeros((16, 16)), ImageAugPolicy(), seed=0)


# text ------------------------------------------------------------------------


def test_zero_rate_copies_tokens():
    pol = TextAugPolicy(rate=0.0)
    tokens = ["a", "red", "circle"]
    out = augment_text(tokens, pol, seed=0)
    assert out == tokens and out is not tokens


def test_empty_tokens_rejected():
    with pytest.raises(ContractError):
        augment_text([], TextAugPolicy(), seed=0)


def test_text_views_deterministic_per_seed():
    pol = TextAugPolicy(rate=0.3, synonyms=default_synonyms())
    tokens = "a photo of a red circle".split()
    assert augment_text(tokens, pol, 5) == augment_text(tokens, pol, 5)


def test_synonym_strategy_uses_table():
    pol = TextAugPolicy(strategies=("synonym_replacement",), rate=0.9,
                        synonyms={"photo": ("picture",)})
    out = augment_text(["photo"], pol, seed=1)
    assert out == ["picture"]


def test_swap_needs_two_tokens():
    pol = TextAugPolicy(strategies=("random_swap",), rate=0.9)
    assert augment_text(["solo"], pol, seed=2) == ["solo"]
    swapped = augment_text(["a", "b"], pol, seed=2)
    assert sorted(swapped) == ["a", "b"]


def test_deletion_never_empties():
    pol = TextAugPolicy(strategies=("random_deletion",), rate=0.99)
    for seed in range(50):
        out = augment_text(["x", "y", "z"], pol, seed=seed)
        assert len(out) >= 1


def test_policy_rejects_unknown_strategy():
    with pytest.raises(ConfigError):
        TextAugPolicy(strategies=("back_translation",))
    with pytest.raises(ConfigError):
        TextAugPolicy(rate=1.0)


def test_synonym_table_roundtrip(tmp_path):
    p = tmp_path / "syn.tsv"
    p.write_text("# comment\nphoto\tpicture, snapshot\n\n", encoding="utf-8")
    assert load_synonyms(p) == {"photo": ("picture", "snapshot")}
    bad = tmp_path / "bad.tsv"
    bad.write_text("nocolumn\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_synonyms(bad)


def test_default_table_covers_training_captions():
    table = default_synonyms()
    assert "photo" in table and all(len(v) > 0 for v in table.values())
