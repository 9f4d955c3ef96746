import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import (
    GenericHaarShift,
    GridError,
    GridFunction,
    ShiftError,
    WeightError,
    apply_shift,
    build_grid,
    haar_basis,
    power_weight,
    random_a2_weight,
    random_simple_shift,
)
from dyadlab.serialize import (
    FormatError,
    load_grid_function,
    load_shift,
    load_weight,
    save_grid_function,
    save_shift,
    save_weight,
)


@pytest.mark.parametrize("fmt", ["binary", "csv"])
@pytest.mark.parametrize("d,N", [(1, 6), (2, 3)])
def test_grid_function_roundtrip(tmp_path, fmt, d, N):
    g = build_grid(d, N)
    rng = np.random.default_rng(0)
    f = GridFunction(g, rng.standard_normal(g.cell_count))
    header = save_grid_function(f, str(tmp_path / "fn"), fmt=fmt)
    back = load_grid_function(header)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_grid_function_header_contents(tmp_path):
    g = build_grid(1, 4)
    f = GridFunction.constant(g, 2.0)
    header = save_grid_function(f, str(tmp_path / "fn"))
    obj = json.loads(open(header).read())
    assert obj["d"] == 1 and obj["N"] == 4
    assert obj["format"] == "binary-le"
    # binary payload is little-endian float64
    raw = np.fromfile(tmp_path / obj["data"], dtype="<f8")
    assert np.array_equal(raw, f.values)


def test_weight_roundtrip_with_sidecar(tmp_path):
    g = build_grid(1, 8)
    w = random_a2_weight(2, 5, g)
    header = save_weight(w, str(tmp_path / "w"))
    obj = json.loads(open(header).read())
    meta = obj["weight_meta"]
    assert meta["family"] == "cascade"
    assert meta["seed"] == 5
    assert meta["realized_A2"] == pytest.approx(w.a2_characteristic())
    back = load_weight(header)
    assert np.array_equal(back.values, w.values)
    assert back.meta["family"] == "cascade"


def test_weight_rejects_nonpositive_payload(tmp_path):
    g = build_grid(1, 3)
    f = GridFunction(g, [1.0, -1.0, 1, 1, 1, 1, 1, 1])
    header = save_grid_function(f, str(tmp_path / "bad"), weight_meta={"family": "x"})
    with pytest.raises(FormatError):
        load_weight(header)


def test_shift_roundtrip_preserves_action(tmp_path):
    g = build_grid(1, 6)
    for separated in (False, True):
        T = random_simple_shift(2, 9, g, separated=separated)
        header = save_shift(T, str(tmp_path / f"shift{separated}"))
        back = load_shift(header)
        assert back.tau == T.tau
        assert back.levels == T.levels
        assert back.separated == T.separated
        rng = np.random.default_rng(1)
        f = GridFunction(g, rng.standard_normal(g.cell_count))
        assert np.array_equal(apply_shift(back, f).values, apply_shift(T, f).values)


def test_generic_shift_roundtrip_with_a_split_entry(tmp_path):
    """A level-N-1 entry under tau=1 is re-parented one level up, where its
    coefficient 1 exceeds sqrt(|Q'||Q''|)/|P| = 1/2 and splits into two terms;
    the written profiles stay within the bound that `load_shift` checks."""
    g = build_grid(1, 3)
    deep = g.cube(2, 1)
    T = GenericHaarShift(g, 1, [(deep, deep, deep, 1.0), (g.root(), g.root(), g.root(), -0.5)])
    assert (T.tau, T.levels, T.g[1].shape) == (2, (0, 1), (2, 2, 4))
    split = math.sqrt(2.0) * np.array([0.0, 0.0, 1.0, -1.0])     # a/2 times h_Q'' / alpha
    assert np.array_equal(T.gamma[1][:, 0], np.stack([split, split]))
    assert not T.g[1][:, 1].any()       # the other level-1 cube holds zero terms
    back = load_shift(save_shift(T, str(tmp_path / "generic")))
    assert (back.tau, back.levels) == (T.tau, T.levels)
    for j in T.levels:
        assert np.array_equal(back.g[j], T.g[j]) and np.array_equal(back.gamma[j], T.gamma[j])
    f = np.random.default_rng(2).standard_normal(g.cell_count)
    want = sum(a * h * (h @ f) * g.cell_volume
               for a, h in ((1.0, haar_basis(deep)[0].as_grid_function().values),
                            (-0.5, haar_basis(g.root())[0].as_grid_function().values)))
    assert np.abs(back.apply_values(f) - want).max() < 1e-14


def test_malformed_headers_raise(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("not json")
    with pytest.raises(FormatError):
        load_grid_function(str(p))
    p2 = tmp_path / "list.json"
    p2.write_text("[1,2,3]")
    with pytest.raises(FormatError):
        load_grid_function(str(p2))
    p3 = tmp_path / "missing.json"
    p3.write_text(json.dumps({"d": 1, "N": 3, "format": "binary-le"}))
    with pytest.raises(FormatError):
        load_grid_function(str(p3))
    p4 = tmp_path / "badgrid.json"
    p4.write_text(json.dumps({"d": 9, "N": 3, "format": "csv", "data": "x.csv"}))
    with pytest.raises(FormatError):
        load_grid_function(str(p4))
    # grid integers are not truncated or read from booleans: a d=1, N=4
    # payload under d=1.7, N=4.9 is refused, not loaded on the d=1, N=4 grid
    header = save_weight(random_a2_weight(1, 3, build_grid(1, 4)), str(tmp_path / "w"))
    for grid in ({"d": 1.7, "N": 4.9}, {"d": True}, {"N": 4.0}, {"N": "4"}):
        _rewrite(header, {**json.loads(open(header).read()), "d": 1, "N": 4, **grid})
        with pytest.raises(FormatError, match="must be a non-negative integer"):
            load_weight(header)


def test_truncated_payload_raises(tmp_path):
    g = build_grid(1, 5)
    f = GridFunction.constant(g, 1.0)
    header = save_grid_function(f, str(tmp_path / "fn"))
    data = json.loads(open(header).read())["data"]
    path = tmp_path / data
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(FormatError):
        load_grid_function(header)


@pytest.mark.parametrize("extra", [b"\x00" * 3, b"\x00" * 8])
@pytest.mark.parametrize("kind", ["grid_function", "shift"])
def test_payload_with_trailing_bytes_raises(tmp_path, kind, extra):
    """A payload longer than its header says is refused: a partial float64
    by its length, a whole one in a shift payload as a value outside every
    block (a grid function's count check already catches it)."""
    g = build_grid(1, 5)
    if kind == "shift":
        header, loader = save_shift(random_simple_shift(2, 3, g), str(tmp_path / "s")), load_shift
    else:
        header = save_grid_function(GridFunction.constant(g, 1.0), str(tmp_path / "f"))
        loader = load_grid_function
    path = tmp_path / json.loads(open(header).read())["data"]
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(FormatError):
        loader(header)


_SHIFT_HEADER_KEYS = ("d", "N", "tau", "levels", "blocks", "data")
_SHIFT_BLOCK_KEYS = ("level", "profile", "offset", "terms", "cubes", "subcells")


_SHIFT_INTS = ("d", "N", "tau", "levels") + tuple(k for k in _SHIFT_BLOCK_KEYS if k != "profile")
# a value that int() or bool() would have read: fractional, boolean, string
_NOT_AN_INT = {"d": 1.7, "N": True, "tau": 2.5, "levels": True, "level": 1.0,
               "offset": 8.0, "terms": True, "cubes": 2.5, "subcells": "4", "separated": "false"}


@pytest.mark.parametrize(
    "where,key",
    [("header", k) for k in _SHIFT_HEADER_KEYS]
    + [("block", k) for k in _SHIFT_BLOCK_KEYS]
    + [("mistyped", k) for k in _SHIFT_HEADER_KEYS]
    + [("not-an-int", k) for k in _SHIFT_INTS + ("separated",)],
)
def test_shift_header_missing_or_mistyped_key_raises(tmp_path, where, key):
    g = build_grid(1, 5)
    header_path = save_shift(random_simple_shift(2, 3, g), str(tmp_path / "s"))
    header = json.loads(open(header_path).read())
    if where == "header":
        del header[key]
    elif where == "block":
        del header["blocks"][1][key]
    elif where == "not-an-int" and key == "levels":
        header["levels"][1] = _NOT_AN_INT[key]
    elif where == "not-an-int" and key in _SHIFT_BLOCK_KEYS:
        header["blocks"][1][key] = _NOT_AN_INT[key]
    elif where == "not-an-int":
        header[key] = _NOT_AN_INT[key]
    else:
        header[key] = {"not": "a value"}
    with open(header_path, "w") as fh:
        json.dump(header, fh)
    with pytest.raises(FormatError):
        load_shift(header_path)


def _rewrite(path, header):
    with open(path, "w") as fh:
        json.dump(header, fh)


@pytest.mark.parametrize("offset", [4, 12, -8, 1.5])
def test_shift_block_offset_must_be_a_whole_float64(tmp_path, offset):
    header_path = save_shift(random_simple_shift(2, 3, build_grid(1, 5)), str(tmp_path / "s"))
    header = json.loads(open(header_path).read())
    header["blocks"][1]["offset"] = offset
    _rewrite(header_path, header)
    with pytest.raises(FormatError):
        load_shift(header_path)


def _move_level(old, new):
    def mutate(header):
        for block in header["blocks"]:
            if block["level"] == old:
                block["level"] = new
        header["levels"] = [new if j == old else j for j in header["levels"]]
    return mutate


def _reshape_block(**shape):
    def mutate(header):
        header["blocks"][3].update(shape)          # the gamma block of level 1
    return mutate


def _repeat_gamma0(header):
    # a second level-0 gamma block that points at the level-0 g data
    header["blocks"].append({**header["blocks"][1], "offset": header["blocks"][0]["offset"]})


def _overlap_gamma0(header):
    # the level-0 gamma block reads the bytes of the level-0 g block
    header["blocks"][1]["offset"] = header["blocks"][0]["offset"]


def _unlist_level(level):
    def mutate(header):
        header["levels"].remove(level)
    return mutate


@pytest.mark.parametrize("mutate,level", [
    (_move_level(3, 4), 4),                         # too deep for tau=2 on N=5
    (_move_level(0, -1), -1),
    (_reshape_block(terms=2, cubes=1), 1),          # same size, wrong shape
    (_reshape_block(cubes=4, subcells=2), 1),
    (_repeat_gamma0, 0),
    (_unlist_level(3), 3),                          # its blocks stay in the file
    (_overlap_gamma0, 0),
], ids=["too-deep", "negative", "cubes", "subcells", "repeated-block", "unlisted-level",
        "overlapping-offset"])
def test_shift_block_rejected_by_the_shift_raises_format_error(tmp_path, mutate, level):
    header_path = save_shift(random_simple_shift(2, 3, build_grid(1, 5)), str(tmp_path / "s"))
    header = json.loads(open(header_path).read())
    mutate(header)
    _rewrite(header_path, header)
    with pytest.raises(FormatError, match=f"level {level}"):
        load_shift(header_path)


def test_shift_nan_payload_raises_format_error(tmp_path):
    header_path = save_shift(random_simple_shift(2, 3, build_grid(1, 5)), str(tmp_path / "s"))
    header = json.loads(open(header_path).read())
    gamma1 = header["blocks"][3]                    # the gamma block of level 1
    data_path = os.path.join(os.path.dirname(header_path), header["data"])
    raw = np.fromfile(data_path, dtype="<f8")
    raw[gamma1["offset"] // 8] = np.nan
    raw.tofile(data_path)
    with pytest.raises(FormatError, match="level 1 is not finite"):
        load_shift(header_path)


_FUZZ_VALUES = (None, "x", [], {}, 1.5, -1, 0, 10**6, True, [1])
_LIBRARY_ERRORS = (FormatError, GridError, WeightError, ShiftError)


def _fuzz_cases(tmp_path):
    g = build_grid(1, 5)
    cases = [
        (load_grid_function,
         save_grid_function(GridFunction.constant(g, 1.0), str(tmp_path / "f"))),
        (load_weight, save_weight(power_weight(0.5, g), str(tmp_path / "w"))),
        (load_shift, save_shift(random_simple_shift(2, 3, g), str(tmp_path / "s"))),
    ]
    for loader, path in cases:
        header = json.loads(open(path).read())
        keys = [(None, k) for k in header]
        keys += [("block", k) for k in header.get("blocks", [{}])[0]]
        yield loader, path, header, keys


def test_loader_header_fuzz_raises_only_library_errors(tmp_path):
    """Every header key, and every key of the first shift block, set to each
    of a few wrong values: the loaders may refuse, but only with the
    library's own error types."""
    escaped, mutations = [], 0
    for loader, path, header, keys in _fuzz_cases(tmp_path):
        for where, key in keys:
            for value in _FUZZ_VALUES:
                mutated = json.loads(json.dumps(header))
                (mutated if where is None else mutated["blocks"][0])[key] = value
                _rewrite(path, mutated)
                mutations += 1
                try:
                    loader(path)
                except _LIBRARY_ERRORS:
                    pass
                except Exception as exc:    # noqa: BLE001 - collected and reported below
                    escaped.append((loader.__name__, where, key, value, type(exc).__name__))
    assert mutations == 310
    assert escaped == []


_PAYLOAD_CASES = {
    "grid-function-binary": (load_grid_function, lambda g, base: save_grid_function(
        GridFunction(g, np.linspace(-1.0, 2.0, g.cell_count)), base)),
    "grid-function-csv": (load_grid_function, lambda g, base: save_grid_function(
        GridFunction(g, np.linspace(-1.0, 2.0, g.cell_count)), base, fmt="csv")),
    "weight-binary": (load_weight, lambda g, base: save_weight(power_weight(0.5, g), base)),
    "weight-csv": (load_weight, lambda g, base: save_weight(power_weight(0.5, g), base,
                                                            fmt="csv")),
    "shift": (load_shift, lambda g, base: save_shift(random_simple_shift(2, 3, g), base)),
}

# one byte edit: replace the byte at a position, insert one before it, or
# delete it; the position wraps around the payload's length
_BYTE_EDITS = st.tuples(st.sampled_from(("replace", "insert", "delete")),
                        st.integers(0, 2**16), st.integers(0, 255))


def _edit_bytes(data: bytes, edits) -> bytes:
    for kind, pos, byte in edits:
        pos %= max(len(data), 1)
        if kind == "replace" and data:
            data = data[:pos] + bytes([byte]) + data[pos + 1:]
        elif kind == "insert":
            data = data[:pos] + bytes([byte]) + data[pos:]
        elif kind == "delete":
            data = data[:pos] + data[pos + 1:]
    return data


@pytest.mark.parametrize("case", list(_PAYLOAD_CASES))
@given(edits=st.lists(_BYTE_EDITS, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_loader_payload_fuzz_raises_only_library_errors(case, edits):
    """Byte edits of a valid payload: the loaders may refuse it, but only with
    the library's own error types, and a binary payload whose length changed
    is always refused (it no longer holds the values its header describes)."""
    loader, save = _PAYLOAD_CASES[case]
    with tempfile.TemporaryDirectory() as tmp:
        header = save(build_grid(1, 4), os.path.join(tmp, "p"))
        payload = os.path.join(tmp, json.loads(open(header).read())["data"])
        with open(payload, "rb") as fh:
            original = fh.read()
        mutated = _edit_bytes(original, edits)
        with open(payload, "wb") as fh:
            fh.write(mutated)
        try:
            loader(header)
        except _LIBRARY_ERRORS:
            return
        assert "csv" in case or len(mutated) == len(original)
