"""The names the traced benchmark run patches, and the calls it times.

``perfbench/session.py::instrument`` wraps or counts functions by their
module attribute, and the per-layer attention metrics are read from the
spans of ``attention.multihead_forward`` (one per layer) and
``attention.head_forward`` (one per head). A name that goes missing, or a
layer that reaches its heads by another route, fails the traced run. So
does a loader call the tracer's tag cannot read: the text-load span's tag
is the length of its first argument.
"""

import os
import sys

import numpy as np
import pytest

import embgeom
import embgeom.cli  # noqa: F401  (imports every module instrument patches)
from embgeom import attention, embed_store
from embgeom.linalg import Matrix

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import session
    import tracing
finally:
    sys.path.remove(PERFBENCH)


def test_every_instrumented_name_is_a_module_attribute():
    tracer = tracing.Tracer()
    try:
        session.instrument(tracer, embgeom)  # getattr raises on a missing name
        patched = {f"{m.__name__}.{attr}" for m, attr, _ in tracer._patches}
    finally:
        tracer.restore()
    assert {
        "embgeom.attention.stack_forward",
        "embgeom.attention.multihead_forward",
        "embgeom.attention.head_forward",
        "embgeom.linalg.linear_apply",
        "embgeom.linalg.dot",
        "embgeom.linalg.softmax",
    } <= patched


def test_stack_reaches_layers_and_heads_through_module_attributes(monkeypatch):
    calls = {"multihead_forward": 0, "head_forward": 0}

    def counting(name):
        orig = getattr(attention, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(attention, name, counting(name))
    for d, n, layers in ((8, 2, 3), (32, 4, 2), (6, 1, 1)):
        config = attention.MultiHeadConfig(d=d, n=n, layers=layers)
        params = attention.random_stack_params(config, seed=d)
        for name in calls:
            calls[name] = 0
        attention.stack_forward(np.ones((5, d)), config, params)
        assert calls == {"multihead_forward": layers, "head_forward": n * layers}


@pytest.mark.parametrize("kind", ["list", "ndarray", "Matrix"])
def test_stack_hands_each_layer_its_own_params(monkeypatch, kind):
    # The layers were checked when they were built; the stack runs them as
    # they are, not a rebuilt copy.
    received = []
    orig = attention.multihead_forward

    def recording(seq, layer, *args, **kwargs):
        received.append(layer)
        return orig(seq, layer, *args, **kwargs)

    monkeypatch.setattr(attention, "multihead_forward", recording)
    config = attention.MultiHeadConfig(d=8, n=2, layers=3)
    params = attention.random_stack_params(config, seed=26)
    x = np.random.default_rng(26).normal(size=(4, 8))
    seq = {"list": x.tolist(), "ndarray": x, "Matrix": Matrix(x)}[kind]
    attention.stack_forward(seq, config, params)
    assert len(received) == len(params)
    assert all(got is want for got, want in zip(received, params))


def test_traced_neighbors_loads_emb1_and_text_tables(tmp_path, capsys):
    # The traced run calls cli.main in-process with the real tracer's wrappers.
    rows = np.random.default_rng(28).normal(size=(5, 4))
    table = embed_store.EmbeddingTable(["a", "b", "c", "d", "e"], rows)
    emb, vec = tmp_path / "t.emb", tmp_path / "t.vec"
    emb.write_bytes(embed_store.save_embeddings_binary(table))
    vec.write_bytes(embed_store.save_embeddings_text(table))
    tracer = tracing.Tracer()
    try:
        session.instrument(tracer, embgeom)
        argv = ["neighbors", "--word", "a", "--k", "3", "--format", "tsv", "--table"]
        codes = [embgeom.cli.main(argv + [str(path)]) for path in (emb, vec)]
    finally:
        tracer.restore()
    assert codes == [0, 0], capsys.readouterr().err
    tags = {name: tag for _, name, _, _, _, tag in tracer.spans}
    assert "embed_store.load_embeddings_binary" in tags
    assert tags["embed_store.load_embeddings_text"] == vec.stat().st_size
