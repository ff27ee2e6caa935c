"""Checkpoint directory format: byte-stable round trips and validation."""

import json
import os
import re

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


def read_manifest(directory):
    with open(os.path.join(directory, "manifest.json")) as fh:
        return json.load(fh)


def write_manifest(directory, manifest):
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)


def test_manifest_is_the_only_index(tmp_path):
    path = str(tmp_path / "ck")
    save_checkpoint(sample_checkpoint(), path)
    assert set(os.listdir(path)) == {"manifest.json", "data.bin", "masks.bin"}
    manifest = read_manifest(path)
    assert manifest["format_version"] == 2
    assert manifest["tensors"] == {"a.bias": [3], "a.weight": [7], "b.weight": [4, 3]}
    assert manifest["masks"] == {"a.weight": [7], "b.weight": [4, 3]}


def test_resave_without_masks_removes_stale_mask_files(tmp_path):
    path = str(tmp_path / "ck")
    save_checkpoint(sample_checkpoint(with_masks=True), path)
    assert "masks.bin" in set(os.listdir(path))
    assert "masks" in read_manifest(path)
    save_checkpoint(sample_checkpoint(with_masks=False), path)
    assert "masks.bin" not in set(os.listdir(path))
    assert "masks" not in read_manifest(path)
    assert load_checkpoint(path).masks is None


def test_an_empty_mask_dict_means_no_masks(tmp_path):
    ckpt = Checkpoint(config={}, params={"w": np.zeros(2)}, masks={})
    assert ckpt.masks is None
    path = str(tmp_path / "ck")
    save_checkpoint(ckpt, path)
    assert set(os.listdir(path)) == {"manifest.json", "data.bin"}
    assert "masks" not in read_manifest(path)
    assert load_checkpoint(path).masks is None


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
    manifest = read_manifest(path)

    bad = json.loads(json.dumps(manifest))
    bad["format_version"] = 3
    write_manifest(path, bad)
    with pytest.raises(ValueError, match="format"):
        load_checkpoint(path)

    write_manifest(path, [manifest])
    with pytest.raises(ValueError, match="manifest.json must hold an object"):
        load_checkpoint(path)

    # one more row for a.bias: the shapes now claim 8 bytes data.bin lacks
    bad = json.loads(json.dumps(manifest))
    bad["tensors"]["a.bias"] = [4]
    write_manifest(path, bad)
    with pytest.raises(ValueError, match="data.bin"):
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
    manifest = read_manifest(path)
    # still sorted after "a.weight", so masks.bin splits as before
    manifest["masks"]["ghost.weight"] = manifest["masks"].pop("b.weight")
    write_manifest(path, manifest)
    with pytest.raises(ValueError, match="'ghost.weight' does not match any parameter"):
        load_checkpoint(path)


def cut_last_byte(blob):
    return blob[:-1]


def add_a_byte(blob):
    return blob + b"\x00"


# (what is edited, the edit, text the error must hold: the file it names). A
# manifest edit is a dotted key path and its new value; a payload edit maps
# the file's bytes to new bytes.
MALFORMED = [
    ("manifest", ("tensors", [4]), "data.bin"),
    ("manifest", ("tensors", None), "data.bin"),
    ("manifest", ("masks", ["a.weight"]), "masks.bin"),
    ("manifest", ("tensors.a.bias", {"shape": [3]}), "data.bin"),
    ("manifest", ("tensors.a.bias", 3), "data.bin"),
    ("manifest", ("masks.b.weight", "4x3"), "masks.bin"),
    ("manifest", ("tensors.b.weight", [4, -3]), "data.bin"),
    ("manifest", ("tensors.b.weight", [4, 3.0]), "data.bin"),
    ("manifest", ("tensors.b.weight", [4, True]), "data.bin"),
    ("manifest", ("masks.a.weight", [-7]), "masks.bin"),
    ("manifest", ("tensors.b.weight", [4, 2]), "data.bin"),
    ("manifest", ("tensors.b.weight", [4, 4]), "data.bin"),
    ("manifest", ("masks.b.weight", [4, 5]), "masks.bin"),
    ("manifest", ("masks.a.weight", [1]), "masks.bin"),
    ("manifest", ("format_version", 1), "format 1, expected 2"),
    ("data.bin", cut_last_byte, "data.bin"),
    ("data.bin", add_a_byte, "data.bin"),
    ("masks.bin", cut_last_byte, "masks.bin"),
    ("masks.bin", add_a_byte, "masks.bin"),
]


@pytest.mark.parametrize("target,edit,names", MALFORMED,
                         ids=[f"{t}:{e[0]}={e[1]!r}" if t == "manifest" else f"{t}:{e.__name__}"
                              for t, e, _ in MALFORMED])
def test_malformed_index_or_payload_raises_value_error_naming_the_file(
        tmp_path, target, edit, names):
    path = str(tmp_path / "ck")
    save_checkpoint(sample_checkpoint(), path)
    if target == "manifest":
        manifest = read_manifest(path)
        dotted, value = edit
        key, _, name = dotted.partition(".")
        if name:
            manifest[key][name] = value
        else:
            manifest[key] = value
        write_manifest(path, manifest)
    else:
        with open(os.path.join(path, target), "rb") as fh:
            blob = fh.read()
        with open(os.path.join(path, target), "wb") as fh:
            fh.write(edit(blob))
    with pytest.raises(ValueError, match=re.escape(names)):
        load_checkpoint(path)


def test_masks_bin_must_match_the_manifest_masks_key(tmp_path):
    path = str(tmp_path / "ck")
    save_checkpoint(sample_checkpoint(), path)
    manifest = read_manifest(path)
    del manifest["masks"]
    write_manifest(path, manifest)
    with pytest.raises(ValueError, match="masks.bin"):
        load_checkpoint(path)
    save_checkpoint(sample_checkpoint(with_masks=False), path)
    manifest = read_manifest(path)
    manifest["masks"] = {"a.weight": [7]}
    write_manifest(path, manifest)
    with pytest.raises(ValueError, match="masks.bin"):
        load_checkpoint(path)
