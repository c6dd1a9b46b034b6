import numpy as np
import pytest

from deskclip import tensor as T
from deskclip.data import Vocab, class_names, encode_batch, generate_synthetic, load_images
from deskclip.encoders import ConvConfig, TextConfig, VitConfig
from deskclip.errors import ConfigError, ContractError, DegenerateInputError
from deskclip.trainer import TrainConfig, build_model
from deskclip.zeroshot import (
    PromptSet,
    build_classifier,
    classify,
    desk_prompts,
    evaluate,
    evaluation_report,
    full_prompts,
    top1_accuracy,
)

MICRO_IMAGE = VitConfig(image_size=16, patch_size=8, width=16, depth=1, heads=2, embed_dim=16)
MICRO_CONV = ConvConfig(image_size=16, stage_channels=(4, 8), embed_dim=16)
MICRO_TEXT = TextConfig(vocab_size=64, context_length=12, width=16, depth=1, heads=2, embed_dim=16)


class StubModel:
    """Text side returns a scripted embedding per caption; image side is identity."""

    def __init__(self, text_rows):
        self.text_rows = text_rows
        self.calls = 0

    def encode_text(self, ids):
        from deskclip.tensor import Tensor

        rows = self.text_rows[self.calls]
        self.calls += 1
        out = Tensor(np.asarray(rows, dtype=np.float64))
        return type("O", (), {"pooled": out})()

    def encode_image(self, chunk):
        from deskclip.tensor import Tensor

        flat = chunk.data.reshape(chunk.data.shape[0], -1)
        return type("O", (), {"pooled": Tensor(flat)})()


@pytest.fixture(scope="module")
def micro_model():
    return build_model(TrainConfig(variant="clip", seed=1), MICRO_IMAGE, MICRO_TEXT)


@pytest.fixture(scope="module")
def micro_vocab():
    return Vocab.build(["a photo of a red circle", "green square blue triangle yellow cross"], 64)


# ---------------------------------------------------------------- prompt sets


def test_prompt_set_fills_label():
    ps = PromptSet(("a photo of a {label}.", "{label} on a desk"))
    assert ps.fill("red circle") == ["a photo of a red circle.", "red circle on a desk"]
    assert PromptSet(("a {label} in {place}",)).fill("red circle") == ["a red circle in {place}"]


def test_prompt_set_rejects_empty_and_bad_templates():
    with pytest.raises(ConfigError):
        PromptSet(())
    with pytest.raises(ConfigError):
        PromptSet(("no placeholder here",))
    with pytest.raises(ConfigError):
        PromptSet(("{label} and {label} twice",))


def test_bundled_prompt_files_parse():
    assert len(desk_prompts().templates) >= 3
    assert len(full_prompts().templates) >= 50


def test_prompt_set_load_skips_blank_lines(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("a {label}\n\n  \nthe {label}\n")
    assert PromptSet.load(path).templates == ("a {label}", "the {label}")


# ---------------------------------------------------------------- classifier math


def test_classifier_rows_are_mean_then_renormalized():
    # two prompts per class, scripted text embeddings: [1,0] and [0,1]
    # mean [0.5, 0.5], renormalized to [sqrt2/2, sqrt2/2]
    rows_per_call = [
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        np.array([[0.0, 2.0], [0.0, 4.0]]),  # scale must wash out after renorm
    ]
    model = StubModel(rows_per_call)
    vocab = Vocab.build(["alpha beta"], 16)
    ps = PromptSet(("a {label}", "the {label}"))
    classifier = build_classifier(["alpha", "beta"], ps, model, vocab, 8)
    root_half = np.sqrt(0.5)
    assert np.allclose(classifier[0], [root_half, root_half], atol=1e-12)
    assert np.allclose(classifier[1], [0.0, 1.0], atol=1e-12)


def test_classifier_invariant_to_positive_prompt_rescale():
    base = np.array([[0.6, 0.8], [0.8, 0.6]])
    a = build_classifier(
        ["x"], PromptSet(("a {label}", "b {label}")),
        StubModel([base]), Vocab.build(["x"], 16), 8,
    )
    b = build_classifier(
        ["x"], PromptSet(("a {label}", "b {label}")),
        StubModel([base * 7.5]), Vocab.build(["x"], 16), 8,
    )
    assert np.allclose(a, b, atol=1e-12)


def test_classifier_rejects_cancelled_prompts():
    rows = [np.array([[1.0, 0.0], [-1.0, 0.0]])]
    with pytest.raises(DegenerateInputError):
        build_classifier(["x"], PromptSet(("a {label}", "b {label}")),
                         StubModel(rows), Vocab.build(["x"], 16), 8)


def test_a_non_finite_embedding_raises_naming_its_class_or_its_images():
    rows = [np.array([[0.6, 0.8], [0.8, 0.6]]), np.array([[1.0, 0.0], [np.nan, 0.0]])]
    with pytest.raises(DegenerateInputError, match="prompt embeddings for 'y' are not finite"):
        build_classifier(["x", "y"], PromptSet(("a {label}", "b {label}")), StubModel(rows), Vocab.build(["x y"], 16), 8)
    imgs = np.array([[0.9, 0.1], [0.1, 0.9], [np.inf, 0.5]]).reshape(3, 2, 1, 1)
    with pytest.raises(DegenerateInputError, match="embeddings of images 2-2 are not finite"):
        classify(imgs, np.eye(2), StubModel([]), batch_size=2)  # blocks of 2 and 1


def test_classifier_rejects_unusable_class_name():
    with pytest.raises(ContractError):
        build_classifier([" "], PromptSet(("a {label}",)), StubModel([]), Vocab.build(["x"], 16), 8)


def test_classify_argmax_and_tie_break():
    classifier = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = StubModel([])
    # identity image stub flattens (N,C,H,W); build inputs whose flattened dim is 2
    imgs = np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]]).reshape(3, 2, 1, 1)
    preds = classify(imgs, classifier, model, batch_size=2)
    assert preds.tolist() == [0, 1, 0]  # tie goes to the lowest class id


def test_classify_validates_shapes():
    model = StubModel([])
    with pytest.raises(ContractError):
        classify(np.zeros((1, 2, 1, 1)), np.zeros(3), model)
    with pytest.raises(ContractError):
        classify(np.zeros((1, 4, 1, 1)), np.zeros((2, 3)), model)


@pytest.mark.parametrize("batch_size", [0, -3])
def test_classify_rejects_a_batch_size_below_1(batch_size):
    with pytest.raises(ContractError, match=f"batch_size must be at least 1, got {batch_size}"):
        classify(np.zeros((3, 2, 1, 1)), np.eye(2), StubModel([]), batch_size)


def _block_spy(monkeypatch, model):
    """The image batches ``model.encode_image`` is called with, and each call's pooled rows."""
    calls = []
    encode_image = type(model).encode_image

    def spy(self, images):
        out = encode_image(self, images)
        calls.append((images.shape[0], out.pooled.data))
        return out

    monkeypatch.setattr(type(model), "encode_image", spy)
    return calls


@pytest.mark.parametrize("batch_size, cap", [(64, 16), (16, 16), (10, 10), (7, 7), (1, 1)])
def test_classify_blocks_are_near_equal_and_within_the_cap(monkeypatch, batch_size, cap):
    # 32x32 images: BLOCK_PIXELS holds 16 of them, so batch_size caps a block only below that
    images = np.zeros((200, 3, 32, 32))
    model = StubModel([])
    calls = _block_spy(monkeypatch, model)
    classify(images, np.eye(2, 3 * 32 * 32), model, batch_size)
    sizes = [size for size, _ in calls]
    assert sum(sizes) == 200 and len(sizes) == -(-200 // cap)
    assert max(sizes) <= cap and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("encoder", ["conv", "vit"])
def test_classify_blocks_equal_one_full_batch_forward(monkeypatch, micro_vocab, encoder):
    image_cfg = MICRO_CONV if encoder == "conv" else MICRO_IMAGE
    model = build_model(TrainConfig(variant="clip", image_encoder=encoder, seed=2), image_cfg, MICRO_TEXT)
    images = load_images(generate_synthetic(num_classes=8, per_class=6, seed=7), 16)
    classifier = build_classifier(class_names(8), desk_prompts(), model, micro_vocab, MICRO_TEXT.context_length)
    with T.no_grad():
        full = model.encode_image(T.Tensor(images)).pooled.data
    calls = _block_spy(monkeypatch, model)
    for batch_size in (64, 40, 16, 3):
        calls.clear()
        predictions = classify(images, classifier, model, batch_size)
        assert np.array_equal(predictions, np.argmax(full @ classifier.T, axis=1)), batch_size
        assert len(calls) == -(-48 // batch_size)
        assert np.array_equal(np.concatenate([pooled for _, pooled in calls]), full), batch_size


def test_top1_accuracy_basic():
    assert top1_accuracy(np.array([0, 1, 1, 0]), np.array([0, 1, 0, 0])) == 0.75
    with pytest.raises(ContractError):
        top1_accuracy(np.zeros(0), np.zeros(0))
    with pytest.raises(ContractError):
        top1_accuracy(np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------- end-to-end eval


def test_random_model_scores_near_chance(micro_model, micro_vocab):
    # 8 classes, untrained weights: accuracy should sit near 1/8. With n=160
    # draws the 3-sigma band around 0.125 is about +-0.078.
    records = generate_synthetic(num_classes=8, per_class=20, seed=11)
    accuracy, predictions, labels = evaluate(
        micro_model, records, class_names(8), desk_prompts(), micro_vocab,
        MICRO_TEXT.context_length, image_size=16, batch_size=64,
    )
    assert predictions.shape == labels.shape == (160,)
    assert abs(accuracy - 0.125) < 0.08


def test_evaluate_requires_labels(micro_model, micro_vocab):
    records = generate_synthetic(num_classes=2, per_class=2, seed=0)
    import dataclasses

    stripped = [dataclasses.replace(r, label=None) for r in records]
    with pytest.raises(ContractError, match="label"):
        evaluate(micro_model, stripped, class_names(2), desk_prompts(), micro_vocab,
                 MICRO_TEXT.context_length, image_size=16)


def test_eval_records_no_tape_and_predicts_as_a_tracked_forward(micro_model, micro_vocab, monkeypatch):
    records = generate_synthetic(num_classes=4, per_class=4, seed=5)
    images = load_images(records, 16)
    names, prompts = class_names(4), desk_prompts()
    classifier = build_classifier(names, prompts, micro_model, micro_vocab, MICRO_TEXT.context_length)
    predictions = classify(images, classifier, micro_model)

    # the same arithmetic with the tape on
    tracked = []
    for name in names:
        ids = encode_batch(prompts.fill(name), micro_vocab, MICRO_TEXT.context_length)
        pooled = micro_model.encode_text(ids).pooled
        assert pooled.requires_grad
        mean = pooled.data.mean(axis=0)
        tracked.append(mean / np.linalg.norm(mean))
    assert np.array_equal(np.stack(tracked), classifier)
    pooled = micro_model.encode_image(T.Tensor(images)).pooled
    assert np.array_equal(np.argmax(pooled.data @ classifier.T, axis=1), predictions)

    # inside eval every encoder output is a bare constant
    outputs = []
    encode_image = type(micro_model).encode_image

    def recording(self, chunk):
        outputs.append(encode_image(self, chunk))
        return outputs[-1]

    monkeypatch.setattr(type(micro_model), "encode_image", recording)
    classify(images, classifier, micro_model)
    assert outputs and all(o.pooled._parents == () and not o.pooled.requires_grad for o in outputs)
    assert micro_model.temperature().requires_grad  # recording is back on


def test_template_order_invariance(micro_model, micro_vocab):
    records = generate_synthetic(num_classes=4, per_class=4, seed=5)
    forward = PromptSet(("a photo of a {label}", "a drawing of a {label}"))
    backward = PromptSet(("a drawing of a {label}", "a photo of a {label}"))
    acc_f, preds_f, _ = evaluate(micro_model, records, class_names(4), forward,
                                 micro_vocab, MICRO_TEXT.context_length, image_size=16)
    acc_b, preds_b, _ = evaluate(micro_model, records, class_names(4), backward,
                                 micro_vocab, MICRO_TEXT.context_length, image_size=16)
    assert acc_f == acc_b
    assert np.array_equal(preds_f, preds_b)


def test_report_layout():
    predictions = np.array([0, 0, 1, 1, 1, 0])
    labels = np.array([0, 0, 1, 1, 0, 1])
    text = evaluation_report(predictions, labels, ["ying", "yang"])
    lines = text.splitlines()
    assert lines[0] == "top1_accuracy=0.6667"
    assert lines[1].startswith("class ying") and "(2/3)" in lines[1]
    assert lines[2].startswith("class yang") and "(2/3)" in lines[2]
    assert "confusion" in lines[3]
    assert len(lines) == 6
