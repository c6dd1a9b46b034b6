import re

import numpy as np
import pytest

from deskclip.data import (
    CAPTION_TEMPLATES,
    END_ID,
    MASK_ID,
    PAD_ID,
    START_ID,
    UNK_ID,
    PairRecord,
    SyntheticSpec,
    Vocab,
    caption_for,
    check_images,
    check_labels,
    class_name,
    class_names,
    decode_caption,
    encode_batch,
    encode_caption,
    generate_synthetic,
    iter_batches,
    load_image,
    materialize,
    read_farbfeld,
    read_manifest,
    render_synthetic,
    tokenize_words,
    write_farbfeld,
    write_manifest,
)
from deskclip.errors import ConfigError, ContractError, ManifestError


def small_vocab():
    return Vocab.build(["a photo of a red circle", "the blue square here"], max_size=64)


# tokenization ---------------------------------------------------------------


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize_words("Hello, World!") == ["hello", ",", "world", "!"]
    assert tokenize_words("") == []
    assert tokenize_words("  spaced   out  ") == ["spaced", "out"]


def test_encode_empty_caption_is_start_end_pad():
    ids = encode_caption("", small_vocab(), 8)
    assert ids.tolist() == [START_ID, END_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID]


def test_encode_truncation_preserves_end_token():
    ids = encode_caption(" ".join(["red"] * 100), small_vocab(), 32)
    assert len(ids) == 32
    assert ids[0] == START_ID and ids[-1] == END_ID
    assert not (ids == PAD_ID).any()


def test_encode_unknown_words_map_to_unk():
    ids = encode_caption("zebra", small_vocab(), 8)
    assert ids[1] == UNK_ID


def test_roundtrip_known_caption():
    vocab = small_vocab()
    ids = encode_caption("A RED circle!?", vocab, 16)
    assert decode_caption(ids, vocab)[:2] == ["a", "red"]


def test_encode_batch_stacks():
    out = encode_batch(["a red circle", "the blue square"], small_vocab(), 12)
    assert out.shape == (2, 12)


def test_vocab_build_prefers_frequent_then_alphabetical():
    vocab = Vocab.build(["b b a a", "c a"], max_size=8)
    # a appears 3 times, b twice, c once; specials occupy ids 0-4
    assert vocab.id_for("a") == 5
    assert vocab.id_for("b") == 6
    assert vocab.id_for("c") == 7
    assert vocab.id_for("missing") == UNK_ID


def test_vocab_build_respects_max_size():
    vocab = Vocab.build(["a b c d e f g h"], max_size=7)
    assert len(vocab.token_to_id) == 7  # 5 specials + 2 words


def test_vocab_rejects_broken_reserved_rows():
    with pytest.raises(ConfigError):
        Vocab({"<pad>": 0, "<start>": 1, "<end>": 2, "<mask>": 3, "<unk>": 9})


# farbfeld -------------------------------------------------------------------


def test_farbfeld_roundtrip(tmp_path):
    img = np.random.default_rng(0).uniform(0, 1, (3, 5, 7))
    p = tmp_path / "x.ff"
    write_farbfeld(p, img)
    back = read_farbfeld(p)
    assert back.shape == img.shape
    assert np.abs(back - img).max() <= 1.0 / 65535


def test_farbfeld_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.ff"
    p.write_bytes(b"notfarbfeld" + b"\x00" * 20)
    with pytest.raises(ManifestError):
        read_farbfeld(p)


def test_farbfeld_rejects_truncation(tmp_path):
    img = np.zeros((3, 4, 4))
    p = tmp_path / "t.ff"
    write_farbfeld(p, img)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(ManifestError):
        read_farbfeld(p)


def test_write_farbfeld_validates_shape(tmp_path):
    with pytest.raises(ContractError):
        write_farbfeld(tmp_path / "y.ff", np.zeros((4, 4)))


def test_load_image_rejects_a_file_of_another_size(tmp_path):
    p = tmp_path / "small.ff"
    write_farbfeld(p, np.zeros((3, 16, 12)))
    with pytest.raises(ManifestError, match=re.escape(f"{p}: image is 12x16, expected 32x32")):
        load_image(PairRecord(str(p), "x"), image_size=32)
    write_farbfeld(p, np.zeros((3, 16, 16)))
    assert load_image(PairRecord(str(p), "x"), image_size=16).shape == (3, 16, 16)


@pytest.mark.parametrize("damage, message", [
    (lambda raw: raw, "image is 12x16, expected 16x16"),
    (lambda raw: raw[:-8], "expected 2064 bytes, found 2056"),
    (lambda raw: b"notfarbf" + raw[8:], "not a farbfeld image"),
    (lambda raw: raw[:10], "not a farbfeld image"),
], ids=["another-size", "truncated", "bad-magic", "shorter-than-the-header"])
def test_check_images_rejects_from_the_header_what_load_image_rejects(tmp_path, damage, message):
    good, bad = tmp_path / "good.ff", tmp_path / "bad.ff"
    write_farbfeld(good, np.zeros((3, 16, 16)))
    write_farbfeld(bad, np.zeros((3, 16, 12)) if message.startswith("image is") else np.zeros((3, 16, 16)))
    bad.write_bytes(damage(bad.read_bytes()))
    records = [PairRecord(str(good), "x"), *generate_synthetic(2, 1, seed=0), PairRecord(str(bad), "y")]
    check_images(records[:-1], 16)
    with pytest.raises(ManifestError, match=re.escape(f"{bad}: {message}")):
        check_images(records, 16)
    with pytest.raises(ManifestError, match=re.escape(f"{bad}: {message}")):
        load_image(records[-1], 16)


# synthetic dataset ----------------------------------------------------------


def test_spec_string_roundtrip():
    spec = SyntheticSpec(class_id=3, seed=17, template_id=2)
    assert SyntheticSpec.parse(str(spec)) == spec


def test_spec_parse_rejects_garbage():
    for bad in ("synthetic:", "synthetic:class=x;seed=1;template=0", "other:class=1"):
        with pytest.raises(ManifestError):
            SyntheticSpec.parse(bad)


@pytest.mark.parametrize("fields, message", [
    ("class=-1;seed=1;template=0", "class -1 outside [0, 16)"),
    ("class=16;seed=1;template=0", "class 16 outside [0, 16)"),
    ("class=0;seed=-5;template=0", "seed and template must be >= 0"),
    ("class=0;seed=1;template=-1", "seed and template must be >= 0"),
])
def test_spec_parse_rejects_out_of_range_values(fields, message):
    assert SyntheticSpec.parse("synthetic:class=15;seed=0;template=0").class_id == 15
    with pytest.raises(ManifestError, match=re.escape(message)):
        SyntheticSpec.parse(f"synthetic:{fields}")


def test_class_names_pair_color_with_shape():
    assert class_name(0) == "red circle"
    assert class_name(5) == "green square"
    assert len(set(class_names(16))) == 16
    with pytest.raises(ConfigError):
        class_names(17)


def test_render_is_deterministic():
    spec = SyntheticSpec(class_id=2, seed=5, template_id=0)
    a = render_synthetic(spec, 32)
    b = render_synthetic(spec, 32)
    assert np.array_equal(a, b)
    c = render_synthetic(SyntheticSpec(class_id=2, seed=6, template_id=0), 32)
    assert not np.array_equal(a, c)


def test_render_red_class_red_channel_dominates():
    img = render_synthetic(SyntheticSpec(class_id=0, seed=1, template_id=0), 32)
    assert img.shape == (3, 32, 32)
    assert 0.0 <= img.min() and img.max() <= 1.0
    # the red shape lifts the red channel mean well above green/blue
    assert img[0].mean() > img[1].mean() + 0.02
    assert img[0].mean() > img[2].mean() + 0.02


def test_caption_uses_template_and_label():
    spec = SyntheticSpec(class_id=1, seed=0, template_id=0)
    assert caption_for(spec) == CAPTION_TEMPLATES[0].format(label="green circle")


def test_generate_interleaves_classes():
    records = generate_synthetic(4, 3, seed=9)
    assert len(records) == 12
    assert [r.label for r in records[:4]] == [0, 1, 2, 3]
    again = generate_synthetic(4, 3, seed=9)
    assert [r.source for r in records] == [r.source for r in again]


# manifests ------------------------------------------------------------------


def test_manifest_roundtrip_with_labels(tmp_path):
    records = generate_synthetic(2, 2, seed=0)
    p = tmp_path / "m.tsv"
    write_manifest(p, records)
    back = read_manifest(p)
    assert [(r.source, r.caption, r.label) for r in back] == [
        (r.source, r.caption, r.label) for r in records
    ]


def test_manifest_error_names_offending_line(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("synthetic:class=0;seed=1;template=0\tok caption\nno tab here\n")
    with pytest.raises(ManifestError, match=r":2:"):
        read_manifest(p)


def test_manifest_rejects_empty_caption(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("synthetic:class=0;seed=1;template=0\t   \n")
    with pytest.raises(ManifestError, match=r":1:"):
        read_manifest(p)


def test_manifest_rejects_label_count_mismatch(tmp_path):
    p = tmp_path / "m.tsv"
    write_manifest(p, generate_synthetic(2, 2, seed=0))
    (tmp_path / "m.tsv.labels").write_text("0\n1\n")
    with pytest.raises(ManifestError, match="labels"):
        read_manifest(p)


@pytest.mark.parametrize("label, message", [
    ("x", "label 'x' is not an integer"), ("1.5", "label '1.5' is not an integer"),
    ("1 0", "label '1 0' is not an integer"), ("-1", "label -1 is negative"),
])
def test_label_sidecar_errors_name_the_file_and_line(tmp_path, label, message):
    p = tmp_path / "m.tsv"
    write_manifest(p, generate_synthetic(2, 2, seed=0))
    (tmp_path / "m.tsv.labels").write_text(f"0\n{label}\n0\n1\n")
    with pytest.raises(ManifestError, match=re.escape(f"m.tsv.labels:2: {message}")):
        read_manifest(p)


@pytest.mark.parametrize("target", ["m.tsv", "m.tsv.labels"])
def test_manifest_or_labels_that_are_not_utf8_are_manifest_errors(tmp_path, target):
    p = tmp_path / "m.tsv"
    write_manifest(p, generate_synthetic(2, 1, seed=0))
    with open(tmp_path / target, "ab") as f:
        f.write(b"\xff\n")
    with pytest.raises(ManifestError, match=f"cannot read .*{re.escape(target)}"):
        read_manifest(p)


def test_check_labels_rejects_missing_and_out_of_range_labels():
    records = generate_synthetic(2, 2, seed=0)
    check_labels(records, 2, "m.tsv")
    with pytest.raises(ManifestError, match=re.escape("m.tsv.labels: record 2 has label 1, outside [0, 1)")):
        check_labels(records, 1, "m.tsv")
    records[0].label = None
    with pytest.raises(ManifestError, match="no .labels sidecar"):
        check_labels(records, 2, "m.tsv")


def test_missing_manifest_is_manifest_error(tmp_path):
    with pytest.raises(ManifestError):
        read_manifest(tmp_path / "absent.tsv")


def test_materialize_renders_to_files(tmp_path):
    records = generate_synthetic(2, 1, seed=3)
    solid = materialize(records, tmp_path, image_size=16)
    direct = load_image(records[0], 16)
    from_file = load_image(solid[0], 16)
    assert np.abs(direct - from_file).max() <= 1.0 / 65535
    assert solid[0].label == records[0].label


# batching -------------------------------------------------------------------


def test_iter_batches_drops_partial_and_shuffles():
    records = generate_synthetic(2, 5, seed=0)  # 10 records
    batches = list(iter_batches(records, 4, seed=1, epoch=0))
    assert [len(b) for b in batches] == [4, 4]
    again = list(iter_batches(records, 4, seed=1, epoch=0))
    assert [[r.source for r in b] for b in batches] == [[r.source for r in b] for b in again]
    other_epoch = list(iter_batches(records, 4, seed=1, epoch=1))
    assert [[r.source for r in b] for b in batches] != [[r.source for r in b] for b in other_epoch]


def test_iter_batches_covers_every_record_when_divisible():
    records = generate_synthetic(2, 4, seed=0)
    seen = [r.source for b in iter_batches(records, 4, seed=0, epoch=2) for r in b]
    assert sorted(seen) == sorted(r.source for r in records)


def test_iter_batches_validates_batch_size():
    with pytest.raises(ConfigError):
        list(iter_batches([], 0, seed=0, epoch=0))
