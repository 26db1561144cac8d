"""Lane/word boundary transposes: every packing helper round-trips.

The simulators and the vector engine cross the lane boundary through a
small family of transposes — ``bits_from_ints``/``ints_from_bits`` on
the boolean side, ``pack_lanes``/``unpack_lanes`` on bigints,
``lanes_to_words``/``words_to_lanes``/``vec_from_ints`` on word arrays.
Hypothesis sweeps widths 1–128 so every dtype tier (uint8, uint16,
uint32, uint64 and the >64-bit bigint fallback) and every word-boundary
edge (63/64/65, 127/128) is exercised, and asserts the bigint and
word-array packings are the *same bytes*.  The packed engines' own
crossings — ``packed_bit_columns`` in, ``_fold_bits``, ``read_buses``,
``unpack_buses`` and by-name reads out — are pinned against the boolean
pair on both lane formats, and the three callers of ``read_buses``
against per-bus reads on every engine.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hdl.compile import pack_lanes, unpack_lanes, words_for
from repro.hdl.simulator import (
    BatchEntry,
    CombinationalSimulator,
    CompiledEngine,
    PackedOutputs,
    _fold_bits,
    bits_from_ints,
    ints_from_bits,
    pack_bus,
    packed_bit_columns,
    read_buses,
    unpack_buses,
)
from repro.hdl.vector import (
    VectorEngine,
    lanes_to_words,
    u64_from_int,
    vec_from_ints,
    vector_constants,
    words_to_lanes,
)


@st.composite
def width_and_values(draw):
    width = draw(st.integers(1, 128))
    n = draw(st.integers(1, 20))
    values = [
        draw(st.integers(0, (1 << width) - 1)) for _ in range(n)
    ]
    return width, values


@given(width_and_values())
@settings(max_examples=150)
def test_bits_from_ints_round_trip(case):
    width, values = case
    lanes = bits_from_ints(values, width)
    assert len(lanes) == width
    assert all(lane.dtype == bool and lane.shape == (len(values),) for lane in lanes)
    assert [int(v) for v in ints_from_bits(lanes)] == values


@given(width_and_values())
@settings(max_examples=100)
def test_uint_tiers_match_python_int_path(case):
    """Every integer dtype feeds the same transpose as plain Python ints."""
    width, values = case
    ref = bits_from_ints(values, width)
    dtypes = [np.uint64, np.int64]
    if width <= 32:
        dtypes.append(np.uint32)
    if width <= 16:
        dtypes.append(np.uint16)
    if width <= 8:
        dtypes.append(np.uint8)
    for dt in dtypes:
        if width > 63 and np.dtype(dt).kind == "i":
            continue  # signed 64-bit cannot hold 64-bit values
        if width > 64:
            continue  # bigint fallback only
        arr = np.array(values, dtype=dt)
        got = bits_from_ints(arr, width)
        for a, b in zip(ref, got):
            assert np.array_equal(a, b), dt


def test_bigint_fallback_beyond_uint64():
    values = [(1 << 127) | 1, (1 << 90) + 5, 0, (1 << 128) - 1]
    lanes = bits_from_ints(values, 128)
    assert len(lanes) == 128
    assert [int(v) for v in ints_from_bits(lanes)] == values


@given(st.integers(1, 300), st.data())
@settings(max_examples=100)
def test_word_array_and_bigint_packings_agree(lanes, data):
    """lanes_to_words produces the same bytes as pack_lanes, word by word."""
    bits = np.array(
        [data.draw(st.booleans()) for _ in range(lanes)], dtype=bool
    )
    words = words_for(lanes)
    arr = lanes_to_words(bits, words)
    value = pack_lanes(bits)
    assert arr.shape == (words,)
    assert np.array_equal(arr, u64_from_int(value, words))
    assert np.array_equal(words_to_lanes(arr, lanes), bits)
    assert np.array_equal(unpack_lanes(value, lanes), bits)


@given(width_and_values())
@settings(max_examples=100)
def test_vec_from_ints_matches_bigint_transpose(case):
    """The one-shot NumPy input transpose equals the per-wire bigint path."""
    width, values = case
    batch = len(values)
    words = words_for(batch)
    zero, ones = vector_constants(batch)
    vec = vec_from_ints(values, width, batch, words, zero, ones)
    ref = bits_from_ints(values, width)
    assert len(vec) == width
    for wire_words, lane in zip(vec, ref):
        assert np.array_equal(wire_words, lanes_to_words(lane, words))


@given(st.integers(1, 128), st.integers(2, 200))
@settings(max_examples=60)
def test_vec_from_ints_scalar_broadcast(width, batch):
    """A single value broadcasts to the shared zero/ones constants."""
    words = words_for(batch)
    zero, ones = vector_constants(batch)
    value = (1 << width) - 1  # all bits set
    vec = vec_from_ints([value], width, batch, words, zero, ones)
    assert all(v is ones for v in vec)
    vec0 = vec_from_ints([0], width, batch, words, zero, ones)
    assert all(v is zero for v in vec0)


class TestBoundaryEdges:
    def test_word_boundary_widths(self):
        for width in (63, 64, 65, 127, 128):
            values = [(1 << width) - 1, 0, 1, 1 << (width - 1)]
            lanes = bits_from_ints(values, width)
            assert [int(v) for v in ints_from_bits(lanes)] == values

    def test_word_boundary_lane_counts(self):
        rng = np.random.default_rng(7)
        for lanes in (1, 63, 64, 65, 1024, 4096):
            bits = rng.integers(0, 2, size=lanes).astype(bool)
            words = words_for(lanes)
            arr = lanes_to_words(bits, words)
            assert np.array_equal(words_to_lanes(arr, lanes), bits)
            assert np.array_equal(arr, u64_from_int(pack_lanes(bits), words))


# --------------------------------------------------------------------- #
# the packed engines' word <-> lane transposes

LANE_COUNTS = (1, 7, 8, 9, 63, 64, 65, 4097)
LANE_FORMATS = (CompiledEngine, VectorEngine)


def _words(seed: int, lanes: int, width: int) -> list[int]:
    """``lanes`` random ``width``-bit words, both extremes among them."""
    rnd = random.Random(seed)
    words = [rnd.getrandbits(width) for _ in range(lanes)]
    words[0], words[-1] = 0, (1 << width) - 1
    return words


def _outputs(engine, buses: dict[str, list[int]], widths: dict[str, int], lanes: int):
    """A lazy output mapping holding each bus's words packed by ``engine``."""
    zero, ones = engine.constants(lanes)
    outs, positions = [], {}
    for name, words in buses.items():
        packed = pack_bus(engine, words, widths[name], lanes, words_for(lanes), zero, ones)
        positions[name] = tuple(range(len(outs), len(outs) + len(packed)))
        outs += packed
    return PackedOutputs(engine, outs, positions, lanes)


@given(st.sampled_from(LANE_COUNTS), st.integers(1, 64), st.integers(0, 2**32))
@settings(max_examples=120, deadline=None)
def test_packed_bit_columns_are_the_packed_bool_lanes(lanes, width, seed):
    values = np.array(_words(seed, lanes, width), dtype=np.uint64)
    rows = packed_bit_columns(values, width)
    assert rows.shape == (width, 8 * words_for(lanes)) and rows.dtype == np.uint8
    for row, lane in zip(rows, bits_from_ints(values, width)):
        assert np.array_equal(row.view("<u8"), lanes_to_words(lane, words_for(lanes)))


@given(st.sampled_from(LANE_COUNTS), st.integers(1, 64), st.integers(0, 2**32))
@settings(max_examples=120, deadline=None)
def test_fold_bits_is_ints_from_bits(lanes, width, seed):
    lanes_bits = bits_from_ints(_words(seed, lanes, width), width)
    padded = np.zeros((width, 8 * -(-lanes // 8)), dtype=np.uint8)
    padded[:, :lanes] = lanes_bits
    want = ints_from_bits(lanes_bits)
    got = _fold_bits(padded)[:lanes]
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # a (width, buses, sweeps, lanes) stack folds each slice alike
    folded = _fold_bits(np.stack([padded, padded[::-1]], axis=1)[:, :, None])
    assert np.array_equal(folded[0, 0, :lanes], want)
    assert np.array_equal(folded[1, 0, :lanes], ints_from_bits(lanes_bits[::-1]))


@given(
    st.sampled_from(LANE_FORMATS),
    st.sampled_from(LANE_COUNTS),
    st.lists(st.integers(1, 130), min_size=1, max_size=3),
    st.integers(1, 3),
    st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_bus_reads_are_ints_from_bits(engine, lanes, bus_widths, sweeps, seed):
    """read_buses, unpack_buses and per-bus reads of packed sweeps equal
    ints_from_bits of the same words, on both lane formats, for machine
    words and past 64 bits, for one width or mixed ones."""
    if max(bus_widths) > 64:
        lanes = min(lanes, 65)  # bigint reference words cost ~1 s at 4097
    widths = {f"b{j}": w for j, w in enumerate(bus_widths)}
    buses = [
        {name: _words(seed + 7 * k + j, lanes, w) for j, (name, w) in enumerate(widths.items())}
        for k in range(sweeps)
    ]
    outs = [_outputs(engine, b, widths, lanes) for b in buses]
    want = {
        name: [ints_from_bits(bits_from_ints(b[name], w)) for b in buses]
        for name, w in widths.items()
    }
    names = list(widths)
    matrix = read_buses(outs, names)
    widest = max(names, key=widths.__getitem__)
    assert matrix.shape == (len(names), sweeps, lanes)
    assert matrix.dtype == want[widest][0].dtype
    for j, name in enumerate(names):
        for k in range(sweeps):
            assert matrix[j, k].tolist() == want[name][k].tolist()
            assert outs[k][name].dtype == want[name][k].dtype
            assert outs[k][name].tolist() == want[name][k].tolist()
    for name, words in unpack_buses(outs).items():
        assert words.dtype == want[name][0].dtype
        assert words.tolist() == [w.tolist() for w in want[name]]


@pytest.mark.parametrize("backend", ["interp", "compiled", "vector"])
def test_callers_read_what_per_bus_reads_read(backend):
    """The fault campaign's frames, the validation stream's blocks and the
    serving engine's rows — each one read_buses of out0..out{n-1} — equal
    the buses read one name at a time."""
    from repro.analysis import stream
    from repro.flow import build_circuit
    from repro.robustness.campaign import _frames
    from repro.serve.engine import ConverterEngine

    n = 6
    nl = build_circuit("converter", n)
    names = [f"out{t}" for t in range(n)]
    sim = CombinationalSimulator(nl, backend=backend)
    sweeps = [sim.run({"index": list(range(k, 715, 11))}) for k in (0, 5)]
    per_bus = np.array([[outs[name] for name in names] for outs in sweeps])
    # one lane a slot (65 slots), or 5 slots of 13 lanes: (n, rows, slots)
    assert np.array_equal(_frames(sweeps, n, 65), per_bus.transpose(1, 0, 2))
    by_slot = per_bus.reshape(2, n, 5, 13).transpose(1, 0, 3, 2).reshape(n, 26, 5)
    assert np.array_equal(_frames(sweeps, n, 5), by_slot)

    rows = ConverterEngine(n, backend=backend).run(list(range(0, 715, 11)))
    assert rows.dtype == np.int64 and rows.flags.c_contiguous
    assert np.array_equal(rows, per_bus[0].T)

    cfg = stream.CampaignConfig(n=n, samples=3000, block=700, engine=backend)
    indices = np.concatenate([stream._block_indices(cfg, b) for b in range(cfg.total_blocks)])
    outs = BatchEntry(nl, backend=backend).run({"index": indices}, materialize=False)
    blocks = list(stream.stream_blocks(cfg, range(cfg.total_blocks)))
    assert np.array_equal(np.concatenate(blocks), np.array([outs[name] for name in names]).T)
