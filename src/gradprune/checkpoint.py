"""Checkpoint directories: a JSON manifest plus raw little-endian buffers.

Layout, all inside one directory:

    manifest.json   format_version, config, metadata, ``tensors`` (name ->
                    shape list) and ``masks`` (name -> shape list, only
                    when masks are present)
    data.bin        float64 ('<f8') tensor payloads, concatenated
    masks.bin       mask bits packed little-endian, concatenated (exactly
                    when the manifest has ``masks``)

The manifest is the only index: payloads follow sorted-name order, so where
each tensor lies follows from the shapes. It is written last, as canonical
JSON (sorted keys, fixed indent), so save -> load -> save reproduces the
same bytes. This module knows nothing about model architecture; shape-vs-config
validation lives with the model code.

The schema walk ``_value``, which reads recipes and checkpoint configs
from JSON into dataclasses, lives here, below both of its callers.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from types import UnionType
from typing import get_args, get_type_hints

import numpy as np

FORMAT_VERSION = 2


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
        if not self.masks:  # None is the one spelling of "no masks"
            self.masks = None
        else:
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


# how a type error names each scalar annotation of a schema
_EXPECTED = {bool: "a boolean", int: "an integer", float: "a finite number",
             str: "a non-empty string", tuple[int, ...]: "a non-empty list of integers"}


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _value(hint, val, path: str, nullable: bool = True):
    """``val`` checked against one field annotation and converted: a finite
    number becomes a float, an integer list a tuple and an object the
    annotated dataclass. Null passes an ``X | None`` annotation only where
    ``nullable``. A mismatch raises ValueError naming ``path``."""
    or_null = ""
    if isinstance(hint, UnionType):
        hint, _ = get_args(hint)  # every union in the schema is X | None
        if nullable:
            if val is None:
                return None
            or_null = " or null"
    if is_dataclass(hint) and isinstance(val, dict):
        return _build(hint, val, path)
    if (hint is float and (_is_int(val) or isinstance(val, float))
            and abs(val) <= sys.float_info.max):  # not NaN, ±inf or beyond a float
        return float(val)
    if hint == tuple[int, ...] and isinstance(val, list) and val and all(map(_is_int, val)):
        return tuple(val)
    if (hint is int and _is_int(val) or hint is bool and isinstance(val, bool)
            or hint is str and isinstance(val, str) and val != ""):
        return val
    what = "an object" if is_dataclass(hint) else _EXPECTED[hint]
    raise ValueError(f"{path}: expected {what}{or_null}, got {val!r}")


def _build(cls, obj: dict, path: str):
    """Instance of dataclass ``cls`` from a decoded JSON object.

    The keys are exactly ``cls``'s fields: an unknown key fails first, then
    a missing one. A field whose default is None may be absent (and is None
    then), but when present it holds a value; every other field is
    required. ``cls``'s own ``ValueError`` comes back under ``path``.
    """
    specs = fields(cls)
    unknown = set(obj) - {f.name for f in specs}
    if unknown:
        raise ValueError(f"{path}: unknown key {sorted(unknown)[0]!r}")
    missing = {f.name for f in specs if f.default is not None} - set(obj)
    if missing:
        raise ValueError(f"{path}: missing key {sorted(missing)[0]!r}")
    hints = get_type_hints(cls)
    values = {f.name: _value(hints[f.name], obj[f.name], f"{path}.{f.name}",
                             nullable=f.default is not None)
              for f in specs if f.name in obj}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_checkpoint(ckpt: Checkpoint, directory: str) -> None:
    """Write a checkpoint directory (created if needed, files overwritten)."""
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": ckpt.config,
        "metadata": ckpt.metadata,
        "tensors": {name: list(arr.shape) for name, arr in ckpt.params.items()},
    }
    with open(os.path.join(directory, "data.bin"), "wb") as fh:
        fh.write(b"".join(np.ascontiguousarray(ckpt.params[name], dtype="<f8").tobytes()
                          for name in sorted(ckpt.params)))
    mask_bin = os.path.join(directory, "masks.bin")
    if ckpt.masks is not None:
        manifest["masks"] = {name: list(mask.shape) for name, mask in ckpt.masks.items()}
        bits = np.concatenate([ckpt.masks[name].reshape(-1) for name in sorted(ckpt.masks)])
        with open(mask_bin, "wb") as fh:
            fh.write(np.packbits(bits, bitorder="little").tobytes())
    elif os.path.exists(mask_bin):
        os.remove(mask_bin)
    _dump_json(manifest, os.path.join(directory, "manifest.json"))


def _split(flat: np.ndarray, index, file: str, padding: int = 0) -> dict[str, np.ndarray]:
    """Cut ``flat`` into ``index``'s shapes (name -> shape list) in
    sorted-name order. ``flat`` must hold exactly the values the shapes
    account for, plus at most ``padding`` trailing ones; errors name
    ``file``, the payload ``flat`` was read from."""
    if not isinstance(index, dict):
        raise ValueError(f"{file}: its index must map names to shape lists, got {index!r}")
    shapes = {}
    for name in sorted(index):
        shape = index[name]
        if not (isinstance(shape, list)
                and all(type(dim) is int and dim >= 0 for dim in shape)):
            raise ValueError(
                f"{file}: shape of {name!r} must be a list of non-negative "
                f"integers, got {shape!r}"
            )
        shapes[name] = tuple(shape)
    total = sum(math.prod(shape) for shape in shapes.values())
    if not 0 <= flat.size - total <= padding:
        raise ValueError(f"{file} holds {flat.size} values, its shapes account for {total}")
    out, start = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        out[name] = flat[start:start + size].reshape(shape)
        start += size
    return out


def load_checkpoint(directory: str) -> Checkpoint:
    """Read a checkpoint directory back into memory, checking every payload
    against the manifest's shapes."""
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise FileNotFoundError(f"no manifest.json in {directory}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest.json must hold an object, got {manifest!r}")
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
    if len(blob) % 8:
        raise ValueError(f"data.bin holds {len(blob)} bytes, not a whole number of float64s")
    params = _split(np.frombuffer(blob, dtype="<f8").copy(), manifest["tensors"], "data.bin")

    masks = None
    mask_bin = os.path.join(directory, "masks.bin")
    if ("masks" in manifest) != os.path.isfile(mask_bin):
        raise ValueError("masks.bin must exist exactly when manifest.json lists masks")
    if "masks" in manifest:
        with open(mask_bin, "rb") as fh:
            packed = np.frombuffer(fh.read(), dtype=np.uint8)
        # packbits pads the last byte, so up to 7 trailing bits are not masks
        bits = np.unpackbits(packed, bitorder="little").astype(bool)
        masks = _split(bits, manifest["masks"], "masks.bin", padding=7)
    return Checkpoint(
        config=manifest["config"],
        params=params,
        masks=masks,
        metadata=manifest["metadata"],
    )
