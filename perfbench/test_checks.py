"""Each check passes a hand-computed fixture and rejects a corrupted one."""

import math

import numpy as np
import pytest

import checks
from checks import CheckFailed


def test_paper_weights_sum_to_one():
    for variant in ("declip", "defilip"):
        weights = checks.paper_weights(variant)
        rest = weights["image_ssl"] + weights["multiview"] + weights["neighbor"]
        assert math.isclose(weights["clip"], 1.0 - rest) and math.isclose(weights["clip"], 0.4)
        assert weights["text_mlm"] == weights["image_ssl"]
    assert checks.paper_weights("clip") == {"clip": 1.0}


def test_finite_terms():
    checks.check_finite_terms({"clip": 4.2, "neighbor": 0.0})
    with pytest.raises(CheckFailed):
        checks.check_finite_terms({"clip": 4.2, "neighbor": float("nan")})
    with pytest.raises(CheckFailed):
        checks.check_finite_terms({"clip": float("inf")})


def test_weighted_total():
    weights = checks.paper_weights("defilip")
    terms = {name: 1.0 for name in weights}
    checks.check_weighted_total(0.4 + 5 * 0.2, terms, weights)
    with pytest.raises(CheckFailed):
        checks.check_weighted_total(0.4 + 5 * 0.2 + 1e-9, terms, weights)
    with pytest.raises(CheckFailed):  # a term missing from the composite
        checks.check_weighted_total(1.2, {k: v for k, v in terms.items() if k != "neighbor"}, weights)


def test_clip_term_recomputation():
    eye = np.eye(2)
    want = math.log(1 + math.exp(-1))  # each row: one match at 1, one miss at 0
    assert math.isclose(checks.clip_term(eye, eye, 1.0), want, rel_tol=1e-15)
    checks.check_recomputed("clip", want, checks.clip_term(eye, eye, 1.0))
    with pytest.raises(CheckFailed):
        checks.check_recomputed("clip", want + 1e-6, checks.clip_term(eye, eye, 1.0))
    with pytest.raises(CheckFailed):  # texts paired with the wrong images
        checks.check_recomputed("clip", want, checks.clip_term(eye, eye[::-1], 1.0))


def test_nt_xent_recomputation():
    eye = np.eye(2)
    # row e1 sees its sibling at 1/0.1 and two others at 0; its own row is excluded
    want = math.log(1 + 2 * math.exp(-10))
    checks.check_recomputed("image_ssl", want, checks.nt_xent_term(eye, eye, 0.1))
    with pytest.raises(CheckFailed):  # self-similarity left in the denominator
        checks.check_recomputed("image_ssl", math.log(1 + math.exp(-10) * 2 + 1), checks.nt_xent_term(eye, eye, 0.1))
    with pytest.raises(CheckFailed):  # swapped siblings
        checks.check_recomputed("image_ssl", want, checks.nt_xent_term(eye, eye[::-1], 0.1))


def test_token_align_recomputation():
    img = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])            # one token per image
    txt = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]])
    img_mask = np.array([[True], [True]])
    txt_mask = np.array([[True, False], [True, True]])     # text 0's second token is padding
    want = math.log(1 + math.exp(-1))
    got = checks.token_align_term(img, img_mask, txt, txt_mask, 1.0)
    checks.check_recomputed("token_align", want, got)
    unmasked = checks.token_align_term(img, img_mask, txt, np.ones((2, 2), bool), 1.0)
    with pytest.raises(CheckFailed):  # the padding token must not be matched
        checks.check_recomputed("token_align", want, unmasked)


def test_directional_derivative():
    # f(θ) = θ²/2 at θ = 3: g = 3, so the slope along g is ‖g‖² = 9
    theta, grad, eps = 3.0, 3.0, 1e-6
    f = lambda x: 0.5 * x * x  # noqa: E731
    checks.check_directional_derivative(f(theta + eps * grad), f(theta - eps * grad), eps, grad * grad)
    with pytest.raises(CheckFailed):  # a tape gradient 1% off
        checks.check_directional_derivative(f(theta + eps * grad), f(theta - eps * grad), eps, 3.03**2)
    with pytest.raises(CheckFailed):
        checks.check_directional_derivative(1.0, 1.0, eps, 0.0)


def test_first_adamw_update():
    before = np.array([1.0, -2.0, 0.5])
    grad = np.array([0.5, -0.25, 0.0])
    lr, wd, eps = 0.1, 0.1, 1e-8
    decayed = before * (1 - lr * wd) - lr * grad / (np.abs(grad) + eps)
    plain = before - lr * grad / (np.abs(grad) + eps)
    assert np.allclose(decayed, [0.99 - 0.1, -1.98 + 0.1, 0.495], atol=1e-9)
    checks.check_first_adamw_update("text.proj.weight", before, grad, decayed, lr, wd, eps)
    checks.check_first_adamw_update("text.ln_final.bias", before, grad, plain, lr, wd, eps)
    checks.check_first_adamw_update("log_temperature", before, grad, plain, lr, wd, eps)
    with pytest.raises(CheckFailed):  # biases are exempt from decay
        checks.check_first_adamw_update("text.ln_final.bias", before, grad, decayed, lr, wd, eps)
    with pytest.raises(CheckFailed):  # plain Adam without the decoupled decay
        checks.check_first_adamw_update("text.proj.weight", before, grad, plain, lr, wd, eps)


def test_temperature_clamp():
    checks.check_temperature(math.log(0.07))
    checks.check_temperature(math.log(checks.TEMPERATURE_MIN))
    for bad in (0.004, 101.0):
        with pytest.raises(CheckFailed):
            checks.check_temperature(math.log(bad))


def test_checkpoint_roundtrip():
    saved = {"a": np.array([[1.0, 2.0]]), "b": np.array(0.07)}
    loaded = {k: v.copy() for k, v in saved.items()}
    vocab = {"<pad>": 0, "red": 5}
    checks.check_roundtrip(saved, loaded, vocab, dict(vocab), "train.seed=0", "train.seed=0")
    flipped = dict(loaded, a=np.nextafter(saved["a"], 3.0))  # one ulp off
    with pytest.raises(CheckFailed):
        checks.check_roundtrip(saved, flipped, vocab, vocab, "x", "x")
    with pytest.raises(CheckFailed):
        checks.check_roundtrip(saved, dict(loaded, b=np.array(0.07, np.float32)), vocab, vocab, "x", "x")
    with pytest.raises(CheckFailed):
        checks.check_roundtrip(saved, {"a": loaded["a"]}, vocab, vocab, "x", "x")
    with pytest.raises(CheckFailed):
        checks.check_roundtrip(saved, loaded, vocab, {"<pad>": 0, "red": 6}, "x", "x")
    with pytest.raises(CheckFailed):
        checks.check_roundtrip(saved, loaded, vocab, vocab, "train.seed=0", "train.seed=1")


def test_classifier_rows():
    prompts = [np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [1.0, 0.0]])]
    r = 1 / math.sqrt(2)
    classifier = np.array([[r, r], [1.0, 0.0]])
    checks.check_classifier(classifier, prompts)
    with pytest.raises(CheckFailed):  # the mean without renormalization
        checks.check_classifier(np.array([[0.5, 0.5], [1.0, 0.0]]), prompts)
    with pytest.raises(CheckFailed):  # rows in the wrong class order
        checks.check_classifier(classifier[::-1], prompts)
    with pytest.raises(CheckFailed):
        checks.check_classifier(classifier[:1], prompts)


def test_same_predictions():
    preds = np.array([0, 3, 7, 1])
    checks.check_same_predictions(preds, preds.copy(), "batch size")
    with pytest.raises(CheckFailed):
        checks.check_same_predictions(preds, np.array([0, 3, 7, 2]), "batch size")
    with pytest.raises(CheckFailed):
        checks.check_same_predictions(preds, preds[:3], "batch size")


def test_accuracy():
    preds, labels = np.array([0, 1, 2]), np.array([0, 1, 1])
    checks.check_accuracy(2 / 3, preds, labels)
    with pytest.raises(CheckFailed):
        checks.check_accuracy(0.7, preds, labels)
    with pytest.raises(CheckFailed):
        checks.check_accuracy(1.0, preds, np.array([0, 1]))
