import math

import numpy as np
import pytest

from deskclip.errors import ConfigError, TrainingAborted
from deskclip.optim import AdamW, is_decay_exempt, lr_at
from deskclip.tensor import Tensor


def param(value) -> Tensor:
    t = Tensor(np.asarray(value, dtype=np.float64))
    t.requires_grad = True
    return t


# ---------------------------------------------------------------- schedule


def test_lr_starts_at_base():
    assert lr_at(0, warmup_steps=10, total_steps=100, base_lr=1e-4, peak_lr=1e-3) == 1e-4


def test_lr_hits_peak_at_warmup_boundary():
    lr = lr_at(10, warmup_steps=10, total_steps=100, base_lr=1e-4, peak_lr=1e-3)
    assert abs(lr - 1e-3) < 1e-12


def test_lr_zero_at_end():
    assert abs(lr_at(100, warmup_steps=10, total_steps=100, base_lr=1e-4, peak_lr=1e-3)) < 1e-12


def test_lr_warmup_is_linear():
    base, peak = 2e-4, 8e-4
    for step in range(11):
        expected = base + (peak - base) * step / 10
        assert abs(lr_at(step, 10, 100, base, peak) - expected) < 1e-15


def test_lr_cosine_midpoint():
    # halfway through decay the cosine sits at exactly peak/2
    lr = lr_at(55, warmup_steps=10, total_steps=100, base_lr=1e-4, peak_lr=1e-3)
    assert abs(lr - 5e-4) < 1e-12


def test_lr_monotone_decay_after_warmup():
    lrs = [lr_at(s, 10, 100, 1e-4, 1e-3) for s in range(10, 101)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def test_lr_clamps_past_end():
    assert lr_at(500, 10, 100, 1e-4, 1e-3) == 0.0


def test_lr_no_warmup():
    assert lr_at(0, 0, 100, 1e-3, 1e-3) == 1e-3


def test_lr_rejects_bad_args():
    with pytest.raises(ConfigError):
        lr_at(-1, 10, 100, 1e-4, 1e-3)
    with pytest.raises(ConfigError):
        lr_at(0, 10, 100, 1e-3, 1e-4)  # base above peak
    with pytest.raises(ConfigError):
        lr_at(0, 200, 100, 1e-4, 1e-3)


# ---------------------------------------------------------------- decay exemptions


def test_decay_exemptions():
    assert is_decay_exempt("image.blocks.0.attn.proj.bias")
    assert is_decay_exempt("text.final_norm.gain")
    assert is_decay_exempt("log_temperature")
    assert not is_decay_exempt("image.patch_embed.weight")
    assert not is_decay_exempt("text.token_embedding.weight")


# ---------------------------------------------------------------- AdamW


def test_adamw_first_step_matches_hand_formula():
    # single scalar parameter, one step, worked by hand
    p = param(2.0)
    p.grad = np.asarray(0.5)
    opt = AdamW([("w", p)], weight_decay=0.0, betas=(0.9, 0.999), eps=1e-8)
    opt.step(lr=0.1)
    m_hat = 0.5  # m = 0.1*0.5, bias corrected by 0.1
    v_hat = 0.25  # v = 0.001*0.25, corrected by 0.001
    expected = 2.0 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert abs(float(p.data) - expected) < 1e-12


def test_adamw_decay_is_decoupled():
    # zero gradient: update reduces to pure multiplicative shrink
    p = param(4.0)
    p.grad = np.asarray(0.0)
    opt = AdamW([("w", p)], weight_decay=0.5)
    opt.step(lr=0.1)
    assert abs(float(p.data) - 4.0 * (1.0 - 0.1 * 0.5)) < 1e-12


def test_adamw_exempt_param_not_decayed():
    p = param(4.0)
    p.grad = np.asarray(0.0)
    opt = AdamW([("norm.gain", p)], weight_decay=0.5)
    opt.step(lr=0.1)
    assert float(p.data) == 4.0


def test_adamw_aborts_on_missing_grad():
    p = param([1.0, 2.0])
    opt = AdamW([("w", p)])
    with pytest.raises(TrainingAborted, match="no gradient"):
        opt.step(lr=0.1)


def test_adamw_aborts_on_nan_grad_without_touching_params():
    a, b = param([1.0, 2.0]), param(3.0)
    a.grad = np.asarray([0.1, 0.2])
    b.grad = np.asarray(np.nan)
    opt = AdamW([("a", a), ("b", b)])
    before = a.data.copy()
    with pytest.raises(TrainingAborted, match="non-finite"):
        opt.step(lr=0.1)
    # the check runs before any parameter is modified
    assert np.array_equal(a.data, before)
    assert opt.t == 0


def test_adamw_rejects_empty_param_list():
    with pytest.raises(ConfigError):
        AdamW([])


def test_adamw_deterministic_across_instances():
    def run():
        p = param([[1.0, -2.0], [0.5, 3.0]])
        opt = AdamW([("w", p)], weight_decay=0.1)
        rng = np.random.default_rng(7)
        for step in range(25):
            p.grad = rng.normal(size=(2, 2))
            opt.step(lr=lr_at(step, 5, 25, 1e-4, 1e-2))
        return p.data.copy()

    assert np.array_equal(run(), run())


def test_adamw_state_roundtrip_resumes_bitwise():
    rng = np.random.default_rng(3)
    grads = [rng.normal(size=(3,)) for _ in range(20)]

    def fresh():
        p = param([1.0, 2.0, 3.0])
        return p, AdamW([("w", p)], weight_decay=0.1)

    p_full, opt_full = fresh()
    for step, g in enumerate(grads):
        p_full.grad = g.copy()
        opt_full.step(lr=lr_at(step, 4, 20, 1e-4, 1e-2))

    p_a, opt_a = fresh()
    for step, g in enumerate(grads[:10]):
        p_a.grad = g.copy()
        opt_a.step(lr=lr_at(step, 4, 20, 1e-4, 1e-2))
    t, m, v = opt_a.state()

    p_b, opt_b = fresh()
    p_b.data[...] = p_a.data
    opt_b.load_state(t, {k: a.copy() for k, a in m.items()}, {k: a.copy() for k, a in v.items()})
    for step, g in enumerate(grads[10:], start=10):
        p_b.grad = g.copy()
        opt_b.step(lr=lr_at(step, 4, 20, 1e-4, 1e-2))

    assert np.array_equal(p_b.data, p_full.data)


def test_adamw_load_state_validates_names_and_shapes():
    p = param([1.0, 2.0])
    opt = AdamW([("w", p)])
    with pytest.raises(ConfigError):
        opt.load_state(1, {"other": np.zeros(2)}, {"other": np.zeros(2)})
    with pytest.raises(ConfigError):
        opt.load_state(1, {"w": np.zeros(3)}, {"w": np.zeros(2)})
    # a bad second moment is found before anything is assigned: no half-load
    with pytest.raises(ConfigError):
        opt.load_state(5, {"w": np.ones(2)}, {"w": np.zeros(3)})
    t, m, v = opt.state()
    assert t == 0 and np.array_equal(m["w"], np.zeros(2)) and v["w"].shape == (2,)
