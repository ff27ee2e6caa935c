"""Checkpoint directory format: byte-stable round trips and validation."""

import json
import os

import numpy as np
import pytest

from gradprune.checkpoint import Checkpoint, load_checkpoint, save_checkpoint


def sample_checkpoint(with_masks=True):
    rng = np.random.default_rng(0)
    params = {
        "b.weight": rng.normal(size=(4, 3)),
        "a.weight": rng.normal(size=7),
        "a.bias": np.zeros(3),
    }
    masks = None
    if with_masks:
        masks = {
            "b.weight": rng.random((4, 3)) > 0.5,
            "a.weight": np.ones(7, dtype=bool),
        }
    return Checkpoint(
        config={"hidden_dim": 4},
        params=params,
        masks=masks,
        metadata={"step": 17, "note": "fixture"},
    )


def read_all(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_round_trip_preserves_everything(tmp_path):
    ckpt = sample_checkpoint()
    path = str(tmp_path / "ck")
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.config == ckpt.config
    assert loaded.metadata == ckpt.metadata
    assert set(loaded.params) == set(ckpt.params)
    for name in ckpt.params:
        np.testing.assert_array_equal(loaded.params[name], ckpt.params[name])
        assert loaded.params[name].dtype == np.float64
    for name in ckpt.masks:
        np.testing.assert_array_equal(loaded.masks[name], ckpt.masks[name])


def test_save_load_save_is_byte_identical(tmp_path):
    first = str(tmp_path / "first")
    second = str(tmp_path / "second")
    save_checkpoint(sample_checkpoint(), first)
    save_checkpoint(load_checkpoint(first), second)
    assert read_all(first) == read_all(second)


def test_maskless_checkpoint_has_no_mask_files(tmp_path):
    path = str(tmp_path / "ck")
    save_checkpoint(sample_checkpoint(with_masks=False), path)
    names = set(os.listdir(path))
    assert names == {"manifest.json", "data.bin"}
    assert load_checkpoint(path).masks is None


def test_resave_without_masks_removes_stale_mask_files(tmp_path):
    path = str(tmp_path / "ck")
    save_checkpoint(sample_checkpoint(with_masks=True), path)
    assert "masks.json" in set(os.listdir(path))
    save_checkpoint(sample_checkpoint(with_masks=False), path)
    assert "masks.json" not in set(os.listdir(path))
    assert "masks.bin" not in set(os.listdir(path))


def test_mask_bits_pack_exactly(tmp_path):
    # a 12-element mask occupies ceil(12/8) = 2 bytes, little-endian bit order
    ckpt = Checkpoint(
        config={},
        params={"w": np.arange(12, dtype=np.float64)},
        masks={"w": np.array([True, False] * 6)},
    )
    path = str(tmp_path / "ck")
    save_checkpoint(ckpt, path)
    with open(os.path.join(path, "masks.bin"), "rb") as fh:
        blob = fh.read()
    assert len(blob) == 2
    assert blob == np.packbits(ckpt.masks["w"], bitorder="little").tobytes()
    np.testing.assert_array_equal(load_checkpoint(path).masks["w"], ckpt.masks["w"])


def test_constructor_validates_dtypes_and_alignment():
    with pytest.raises(ValueError):
        Checkpoint(config={}, params={"w": np.zeros(3, dtype=np.float32)})
    with pytest.raises(ValueError):
        Checkpoint(config={}, params={"w": np.zeros(3)},
                   masks={"v": np.ones(3, dtype=bool)})
    with pytest.raises(ValueError):
        Checkpoint(config={}, params={"w": np.zeros(3)},
                   masks={"w": np.ones(4, dtype=bool)})
    with pytest.raises(ValueError):
        Checkpoint(config={}, params={"w": np.zeros(3)},
                   masks={"w": np.ones(3, dtype=np.int64)})


def test_load_rejects_tampered_manifest(tmp_path):
    path = str(tmp_path / "ck")
    save_checkpoint(sample_checkpoint(with_masks=False), path)
    manifest_path = os.path.join(path, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)

    bad = json.loads(json.dumps(manifest))
    bad["format_version"] = 2
    with open(manifest_path, "w") as fh:
        json.dump(bad, fh)
    with pytest.raises(ValueError, match="format"):
        load_checkpoint(path)

    bad = json.loads(json.dumps(manifest))
    bad["tensors"]["a.bias"]["offset"] += 8
    with open(manifest_path, "w") as fh:
        json.dump(bad, fh)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_load_rejects_truncated_payload(tmp_path):
    path = str(tmp_path / "ck")
    save_checkpoint(sample_checkpoint(with_masks=False), path)
    data_path = os.path.join(path, "data.bin")
    with open(data_path, "rb") as fh:
        blob = fh.read()
    with open(data_path, "wb") as fh:
        fh.write(blob[:-8])
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_load_rejects_mask_bits_of_the_wrong_length(tmp_path):
    path = str(tmp_path / "ck")
    save_checkpoint(Checkpoint(config={}, params={"w": np.ones((8, 8))},
                               masks={"w": np.ones((8, 8), dtype=bool)}), path)
    bits_path = os.path.join(path, "masks.bin")
    with open(bits_path, "rb") as fh:
        packed = fh.read()
    assert len(packed) == 8
    for wrong in (packed[:2], packed[:-1], packed + b"\xff"):
        with open(bits_path, "wb") as fh:
            fh.write(wrong)
        with pytest.raises(ValueError, match="masks.bin"):
            load_checkpoint(path)


def test_load_rejects_a_mask_for_no_parameter(tmp_path):
    path = str(tmp_path / "ck")
    save_checkpoint(sample_checkpoint(), path)
    index_path = os.path.join(path, "masks.json")
    with open(index_path) as fh:
        index = json.load(fh)
    # still sorted after "a.weight", so the bit offsets stay contiguous
    index["ghost.weight"] = index.pop("b.weight")
    with open(index_path, "w") as fh:
        json.dump(index, fh)
    with pytest.raises(ValueError, match="'ghost.weight' does not match any parameter"):
        load_checkpoint(path)
