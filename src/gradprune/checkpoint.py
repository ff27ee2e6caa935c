"""Checkpoint directories: a JSON manifest plus raw little-endian buffers.

Layout, all inside one directory:

    manifest.json   config, metadata, tensor index (shape/offset/size)
    data.bin        float64 ('<f8') tensor payloads, concatenated
    masks.json      mask index (only when masks are present)
    masks.bin       mask bits packed little-endian, concatenated

Tensors and masks are serialized in sorted-name order with canonical JSON
(sorted keys, fixed indent), so save -> load -> save reproduces the same
bytes. This module knows nothing about model architecture; shape-vs-config
validation lives with the model code.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    config: dict
    params: dict[str, np.ndarray]
    masks: dict[str, np.ndarray] | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, arr in self.params.items():
            if arr.dtype != np.float64:
                raise ValueError(f"parameter {name} must be float64, got {arr.dtype}")
        if self.masks is not None:
            for name, mask in self.masks.items():
                if name not in self.params:
                    raise ValueError(f"mask {name!r} does not match any parameter")
                if mask.dtype != np.bool_:
                    raise ValueError(f"mask {name} must be boolean, got {mask.dtype}")
                if mask.shape != self.params[name].shape:
                    raise ValueError(
                        f"mask {name} has shape {mask.shape}, parameter has "
                        f"shape {self.params[name].shape}"
                    )


def canonical_json(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _dump_json(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))


def save_checkpoint(ckpt: Checkpoint, directory: str) -> None:
    """Write a checkpoint directory (created if needed, files overwritten)."""
    os.makedirs(directory, exist_ok=True)
    index = {}
    offset = 0
    payload = []
    for name in sorted(ckpt.params):
        arr = np.ascontiguousarray(ckpt.params[name], dtype="<f8")
        index[name] = {
            "shape": list(arr.shape),
            "offset": offset,
            "size": int(arr.size),
        }
        payload.append(arr.tobytes())
        offset += arr.nbytes
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": ckpt.config,
        "metadata": ckpt.metadata,
        "tensors": index,
    }
    with open(os.path.join(directory, "data.bin"), "wb") as fh:
        fh.write(b"".join(payload))
    _dump_json(manifest, os.path.join(directory, "manifest.json"))

    mask_json = os.path.join(directory, "masks.json")
    mask_bin = os.path.join(directory, "masks.bin")
    if ckpt.masks is None:
        for path in (mask_json, mask_bin):
            if os.path.exists(path):
                os.remove(path)
        return
    bits = []
    mask_index = {}
    bit_offset = 0
    for name in sorted(ckpt.masks):
        mask = ckpt.masks[name]
        mask_index[name] = {
            "shape": list(mask.shape),
            "bit_offset": bit_offset,
            "num_bits": int(mask.size),
        }
        bits.append(mask.reshape(-1))
        bit_offset += mask.size
    packed = np.packbits(np.concatenate(bits), bitorder="little")
    with open(mask_bin, "wb") as fh:
        fh.write(packed.tobytes())
    _dump_json(mask_index, mask_json)


def load_checkpoint(directory: str) -> Checkpoint:
    """Read a checkpoint directory back into memory, validating the index."""
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise FileNotFoundError(f"no manifest.json in {directory}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    for key in ("format_version", "config", "metadata", "tensors"):
        if key not in manifest:
            raise ValueError(f"manifest.json missing key {key!r}")
    if manifest["format_version"] != FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format {manifest['format_version']}, "
            f"expected {FORMAT_VERSION}"
        )
    with open(os.path.join(directory, "data.bin"), "rb") as fh:
        blob = fh.read()
    params: dict[str, np.ndarray] = {}
    expected_offset = 0
    for name in sorted(manifest["tensors"]):
        entry = manifest["tensors"][name]
        shape = tuple(entry["shape"])
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if size != entry["size"]:
            raise ValueError(f"tensor {name}: size {entry['size']} does not match shape {shape}")
        if entry["offset"] != expected_offset:
            raise ValueError(f"tensor {name}: offset {entry['offset']} is not contiguous")
        start, nbytes = entry["offset"], size * 8
        if start + nbytes > len(blob):
            raise ValueError(f"tensor {name}: data.bin too short")
        params[name] = np.frombuffer(
            blob, dtype="<f8", count=size, offset=start
        ).reshape(shape).copy()
        expected_offset += nbytes
    if expected_offset != len(blob):
        raise ValueError(
            f"data.bin has {len(blob)} bytes, index accounts for {expected_offset}"
        )

    masks = None
    mask_json = os.path.join(directory, "masks.json")
    if os.path.isfile(mask_json):
        with open(mask_json, "r", encoding="utf-8") as fh:
            mask_index = json.load(fh)
        with open(os.path.join(directory, "masks.bin"), "rb") as fh:
            packed = np.frombuffer(fh.read(), dtype=np.uint8)
        total_bits = sum(int(e["num_bits"]) for e in mask_index.values())
        if packed.size != (total_bits + 7) // 8:
            raise ValueError(
                f"masks.bin has {packed.size} bytes, index accounts for "
                f"{total_bits} bits"
            )
        flat = np.unpackbits(packed, count=total_bits, bitorder="little").astype(bool)
        masks = {}
        expected_bit = 0
        for name in sorted(mask_index):
            entry = mask_index[name]
            if entry["bit_offset"] != expected_bit:
                raise ValueError(f"mask {name}: bit offset {entry['bit_offset']} is not contiguous")
            shape = tuple(entry["shape"])
            size = int(np.prod(shape, dtype=np.int64)) if shape else 1
            if size != entry["num_bits"]:
                raise ValueError(f"mask {name}: num_bits {entry['num_bits']} does not match shape {shape}")
            masks[name] = flat[expected_bit:expected_bit + size].reshape(shape)
            expected_bit += size
    return Checkpoint(
        config=manifest["config"],
        params=params,
        masks=masks,
        metadata=manifest["metadata"],
    )
