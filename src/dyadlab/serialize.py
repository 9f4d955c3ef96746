"""File formats: grid functions, weights, shifts, coronas, and reports.

A grid function is stored as a JSON header {d, N, format, data} next to the
payload: little-endian float64 binary, or CSV with one value per line.
Weights add a `weight_meta` sidecar block (family, parameters, seed,
realized_A2).  Shifts are a JSON header {kind, tau, d, N, separated, levels}
plus one binary block of profile values per level, keyed by cube address
through the documented layout (cubes in row-major flat order, g block then
gamma block per level, terms outermost).  All writers emit deterministic
bytes: keys are sorted and floats use the shortest round-trip repr.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .grid import DyadicGrid, GridError, GridFunction, build_grid, check_natural
from .shifts import ShiftError, SimpleHaarShift
from .weights import Weight

SCHEMA_VERSION = "dyadlab/1"


class FormatError(ValueError):
    """Malformed or inconsistent serialized data."""


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _write_json(path: str, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(obj))


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read header {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"header {path} is not a JSON object")
    return obj


def _natural(obj: dict, key: str, where: str) -> int:
    """The integer field obj[key] by `grid.check_natural`'s rule."""
    return check_natural(obj[key], f"{where} field {key!r}", FormatError)


def _header_grid(header: dict) -> DyadicGrid:
    try:
        return build_grid(_natural(header, "d", "header"), _natural(header, "N", "header"))
    except GridError as exc:
        raise FormatError(f"bad grid parameters: {exc}") from exc


def _read_binary(path: str) -> np.ndarray:
    """A little-endian float64 payload; a file that is not a whole number of
    values is refused (NumPy would drop the trailing bytes)."""
    try:
        raw = np.fromfile(path, dtype="<f8")
        size = os.path.getsize(path)
    except OSError as exc:
        raise FormatError(f"cannot read payload {path}: {exc}") from exc
    if size != raw.nbytes:
        raise FormatError(f"payload {path} holds {size} bytes, not a whole number of float64s")
    return raw


def save_grid_function(gf: GridFunction, base: str, fmt: str = "binary",
                       weight_meta: dict | None = None) -> str:
    """Write header `<base>.json` and payload `<base>.bin` or `<base>.csv`."""
    if fmt not in ("binary", "csv"):
        raise FormatError(f"unknown format {fmt!r}")
    data_name = os.path.basename(base) + (".bin" if fmt == "binary" else ".csv")
    header = {
        "schema": SCHEMA_VERSION,
        "kind": "grid_function" if weight_meta is None else "weight",
        "d": gf.grid.d,
        "N": gf.grid.N,
        "format": "binary-le" if fmt == "binary" else "csv",
        "data": data_name,
    }
    if weight_meta is not None:
        header["weight_meta"] = weight_meta
    data_path = os.path.join(os.path.dirname(base) or ".", data_name)
    if fmt == "binary":
        gf.values.astype("<f8").tofile(data_path)
    else:
        with open(data_path, "w", encoding="utf-8") as fh:
            for v in gf.values:
                fh.write(repr(float(v)) + "\n")
    header_path = base + ".json"
    _write_json(header_path, header)
    return header_path


def load_grid_function(header_path: str) -> GridFunction:
    header = _read_json(header_path)
    for key in ("d", "N", "format", "data"):
        if key not in header:
            raise FormatError(f"header missing field {key!r}")
    grid = _header_grid(header)
    if not isinstance(header["data"], str):
        raise FormatError("header field 'data' must be a file name")
    data_path = os.path.join(os.path.dirname(header_path) or ".", header["data"])
    if header["format"] == "binary-le":
        vals = _read_binary(data_path)
    elif header["format"] == "csv":
        try:
            with open(data_path, "r", encoding="utf-8") as fh:
                vals = np.array([float(line) for line in fh if line.strip()])
        except (OSError, ValueError) as exc:
            raise FormatError(f"cannot read payload {data_path}: {exc}") from exc
    else:
        raise FormatError(f"unknown format {header['format']!r}")
    if vals.size != grid.cell_count:
        raise FormatError(
            f"payload holds {vals.size} values, grid needs {grid.cell_count}"
        )
    return GridFunction(grid, vals)


def save_weight(w: Weight, base: str, fmt: str = "binary") -> str:
    meta = dict(w.meta)
    meta.setdefault("realized_A2", w.a2_characteristic())
    return save_grid_function(w.base, base, fmt=fmt, weight_meta=meta)


def load_weight(header_path: str) -> Weight:
    header = _read_json(header_path)
    meta = header.get("weight_meta", {})
    if not isinstance(meta, dict):
        raise FormatError("header field 'weight_meta' must be a JSON object")
    gf = load_grid_function(header_path)
    if gf.values.min() <= 0:
        raise FormatError("weight payload has nonpositive values")
    return Weight(gf, meta=meta)


def save_shift(T: SimpleHaarShift, base: str) -> str:
    """Write `<base>.json` plus `<base>.bin` with per-level profile blocks."""
    blocks = []
    offset = 0
    chunks = []
    for j in T.levels:
        for name, block in (("g", T.g[j]), ("gamma", T.gamma[j])):
            arr = block.astype("<f8")
            chunks.append(arr.tobytes())
            blocks.append({
                "level": j,
                "profile": name,
                "offset": offset,
                "terms": int(block.shape[0]),
                "cubes": int(block.shape[1]),
                "subcells": int(block.shape[2]),
            })
            offset += arr.nbytes
    data_name = os.path.basename(base) + ".bin"
    header = {
        "schema": SCHEMA_VERSION,
        "kind": "simple_shift",
        "shift_kind": T.meta.get("kind", "custom"),
        "tau": T.tau,
        "d": T.grid.d,
        "N": T.grid.N,
        "separated": T.separated,
        "seed": T.meta.get("seed"),
        "levels": list(T.levels),
        "blocks": blocks,
        "data": data_name,
        "layout": "cubes in row-major flat order per level; g then gamma",
    }
    with open(os.path.join(os.path.dirname(base) or ".", data_name), "wb") as fh:
        for c in chunks:
            fh.write(c)
    header_path = base + ".json"
    _write_json(header_path, header)
    return header_path


def load_shift(header_path: str) -> SimpleHaarShift:
    header = _read_json(header_path)
    if header.get("kind") != "simple_shift":
        raise FormatError("not a shift header")
    for key in ("d", "N", "tau", "levels", "blocks", "data"):
        if key not in header:
            raise FormatError(f"header missing field {key!r}")
    grid, tau = _header_grid(header), _natural(header, "tau", "header")
    separated = header.get("separated", False)
    if not isinstance(separated, bool):
        raise FormatError(f"header field 'separated' must be a boolean, not {separated!r}")
    try:
        blocks = []
        for blk in header["blocks"]:
            try:
                level, offset, *shape = (_natural(blk, k, "block") for k in
                                         ("level", "offset", "terms", "cubes", "subcells"))
            except FormatError as exc:
                raise FormatError(f"bad shift block at level {blk['level']!r}: {exc}") from exc
            blocks.append((level, blk["profile"], offset, tuple(shape)))
        levels = [check_natural(j, "listed level", FormatError) for j in header["levels"]]
    except KeyError as exc:
        raise FormatError(f"shift block missing field {exc}") from exc
    except TypeError as exc:
        raise FormatError(f"bad shift parameters: {exc}") from exc
    data_path = os.path.join(os.path.dirname(header_path) or ".", str(header["data"]))
    raw = _read_binary(data_path)
    g, gamma = {}, {}
    used = np.zeros(raw.size, dtype=bool)       # payload entries claimed by a block
    for level, profile, offset, shape in blocks:
        if profile not in ("g", "gamma") or offset % 8:
            raise FormatError(f"bad shift block at level {level}")
        if level not in levels:
            raise FormatError(f"shift block at level {level} is not on a listed level")
        if level in (g if profile == "g" else gamma):
            raise FormatError(f"repeated {profile} shift block at level {level}")
        start, size = offset // 8, shape[0] * shape[1] * shape[2]
        arr = raw[start:start + size]
        if arr.size != size:
            raise FormatError("truncated shift payload")
        if used[start:start + size].any():
            raise FormatError(f"{profile} shift block at level {level} overlaps another block")
        used[start:start + size] = True
        (g if profile == "g" else gamma)[level] = arr.reshape(shape)
    if any(j not in g or j not in gamma for j in levels):
        raise FormatError("shift header lists a level without its g and gamma blocks")
    if not used.all():
        raise FormatError("shift payload holds values outside every block")
    try:
        return SimpleHaarShift(
            grid, tau, levels, g, gamma,
            separated=separated,
            meta={"kind": header.get("shift_kind"), "seed": header.get("seed")},
        )
    except (GridError, ShiftError) as exc:
        raise FormatError(f"shift blocks rejected: {exc}") from exc
