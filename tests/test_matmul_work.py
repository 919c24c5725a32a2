"""Work census: the GEMM calls and FLOPs of one train step and of one short
generation, against closed forms.

Every model product goes through ``numerics.matmul``. The FLOPs (2*m*k*n
per product) do not depend on how the lanes split the rows, so they are
checked at 1, 2 and 3 lanes. The train step's call count is checked at 1
lane, where no product splits; generation's products do not split, so its
count is checked at every lane count. A change that adds GEMM work fails
here.
"""

import sys

import pytest

from conftest import looped_song, song_dataset
from midilstm import numerics
from midilstm.generator import GenConfig, generate
from midilstm.lstm import ModelConfig, ModelParams
from midilstm.numerics import Rng
from midilstm.trainer import TrainConfig, train

# unequal sizes, so a closed form that swaps two layers' sizes fails
HIDDEN, GEN_HIDDEN = (64, 48), (256, 160)
LANES = (1, 2, 3)


@pytest.fixture
def products(monkeypatch):
    """(m, k, n) of every ``numerics.matmul`` call, from any thread."""
    seen, original = [], numerics.matmul

    def counted(a, b, **kwargs):
        seen.append((a.shape[0], a.shape[1], b.shape[1]))
        return original(a, b, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "midilstm" and getattr(module, "matmul", None) is original:
            monkeypatch.setattr(module, "matmul", counted)
    return seen


def flops(products) -> int:
    return sum(2 * m * k * n for m, k, n in products)


def layer_pairs(hidden):
    """(H, H of the layer below or None) per layer."""
    return list(zip(hidden, (None, *hidden[:-1])))


@pytest.mark.parametrize("lanes", LANES)
def test_one_train_step(monkeypatch, products, lanes):
    """One batch of B windows of L steps, dropout on: forward, then BPTT."""
    monkeypatch.setattr(numerics, "lanes", lambda: lanes)
    L, B = 8, 32
    notes, durs = looped_song(3, n_tokens=L + B, period=11, n_pitches=6)
    nvocab, dvocab, dataset = song_dataset([(notes, durs)], L)
    model = ModelConfig(len(nvocab), len(dvocab), hidden_sizes=HIDDEN, dropout=0.3, window_len=L)
    train(dataset, TrainConfig(model=model, epochs=1, batch_size=B, seed=4), nvocab, dvocab)
    assert numerics.product_lanes(L * B, HIDDEN[0], 4 * HIDDEN[1]) == lanes  # splits at 2, 3

    heads = len(nvocab) + len(dvocab)
    want_flops = 6 * B * HIDDEN[-1] * heads  # heads forward, weight and input gradients
    want_calls = 6
    for H, below in layer_pairs(HIDDEN):
        # recurrences forward and back (L - 1 products each), recurrent weight gradient
        want_flops += 2 * (L - 1) * 8 * B * H * H + 8 * L * B * H * H
        want_calls += 2 * (L - 1) + 1
        if below is not None:  # input product, input weight gradient, input gradient
            want_flops += 3 * 8 * L * B * below * H
            want_calls += 3
    assert flops(products) == want_flops
    if lanes == 1:
        assert len(products) == want_calls


@pytest.mark.parametrize("lanes", LANES)
def test_one_generation(monkeypatch, products, lanes):
    """n tokens from an L-token seed: each of the n windows runs L row-steps
    through every layer, but its first step has no recurrent product (its
    h is zero), and each token reads both heads once."""
    monkeypatch.setattr(numerics, "lanes", lambda: lanes)
    L, n = 16, 20
    notes, durs = looped_song(5, n_tokens=60, period=13, n_pitches=6)
    nvocab, dvocab, _ = song_dataset([(notes, durs)], L)
    model = ModelConfig(len(nvocab), len(dvocab), hidden_sizes=GEN_HIDDEN, window_len=L)
    params = ModelParams.init(model, Rng(2))
    generate(params, nvocab, dvocab, notes[:L], durs[:L], GenConfig(length=n), Rng(6))

    per_row_step = sum(8 * H * (H + (below or 0)) for H, below in layer_pairs(GEN_HIDDEN))
    first_steps = n * sum(8 * H * H for H in GEN_HIDDEN)
    heads = len(nvocab) + len(dvocab)
    assert flops(products) == n * L * per_row_step - first_steps + n * 2 * GEN_HIDDEN[-1] * heads
    # per layer a recurrent product for every step but the first, an input
    # product per step above layer 0, and two per token for the heads
    steps = L + n - 1
    assert len(products) == len(GEN_HIDDEN) * (steps - 1) + (len(GEN_HIDDEN) - 1) * steps + 2 * n
