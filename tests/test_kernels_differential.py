"""Differential suite for the codec kernel layer.

Every kernel has two backends — ``vector`` (NumPy) and ``scalar``
(pure-Python reference loops) — that must produce **identical** output
down to the last bit. This suite holds them to that contract three
ways:

1. per-kernel differential properties under hypothesis-generated
   inputs (random dtypes/shapes/error bounds);
2. whole-container byte identity: SZ and ZFP payloads compressed under
   one backend equal the other's and cross-decode;
3. backend selection semantics (override > ``$REPRO_KERNELS`` > default)
   and the per-call observability contract (spans + counters).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import get_compressor, kernels
from repro.compressors.huffman import HuffmanCodec
from repro.observability import Tracer, get_registry, use_tracer
from repro.utils import chains
from repro.utils.bitio import BitReader, BitWriter

BACKENDS = kernels.backend_names()


def both_backends(fn, *args, **kwargs):
    """Run *fn* under each backend, return ``{backend: result}``."""
    out = {}
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            out[backend] = fn(*args, **kwargs)
    return out


def assert_identical(results):
    ref_name, *rest = sorted(results)
    ref = results[ref_name]
    for other in rest:
        np.testing.assert_array_equal(
            ref, results[other], err_msg=f"{ref_name} != {other}"
        )


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------


class TestBackendSelection:
    def test_registered_backends(self):
        assert BACKENDS == ("scalar", "vector")

    def test_default_is_vector(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
        assert kernels.active_backend() == "vector"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNELS_ENV, "scalar")
        assert kernels.active_backend() == "scalar"

    def test_env_var_validated(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNELS_ENV, "cuda")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.active_backend()

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNELS_ENV, "scalar")
        with kernels.use_backend("vector"):
            assert kernels.active_backend() == "vector"
        assert kernels.active_backend() == "scalar"

    def test_set_backend_returns_previous_and_clears(self):
        assert kernels.set_backend("scalar") is None
        try:
            assert kernels.set_backend("vector") == "scalar"
        finally:
            assert kernels.set_backend(None) == "vector"

    def test_set_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.set_backend("simd")

    def test_use_backend_restores_on_error(self):
        before = kernels.active_backend()
        other = next(b for b in BACKENDS if b != before)
        with pytest.raises(RuntimeError):
            with kernels.use_backend(other):
                raise RuntimeError("boom")
        assert kernels.active_backend() == before

    def test_env_inherited_by_subprocess(self):
        # The documented route to switch process-pool workers.
        import subprocess
        import sys

        env = dict(os.environ, REPRO_KERNELS="scalar")
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.compressors import kernels; "
             "print(kernels.active_backend())"],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == "scalar"


# ----------------------------------------------------------------------
# Observability contract
# ----------------------------------------------------------------------


class TestKernelObservability:
    def test_counters_labelled_by_kernel_and_backend(self):
        registry = get_registry()
        registry.reset()
        data = np.linspace(0.0, 1.0, 17)
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                kernels.sz_quantize(data, 0.0, 0.125)
        for backend in BACKENDS:
            labels = {"kernel": "sz_quantize", "backend": backend}
            assert registry.counter("repro_kernel_calls_total", labels).value == 1
            assert (
                registry.counter("repro_kernel_items_total", labels).value
                == data.size
            )

    def test_span_per_dispatch(self):
        tracer = Tracer()
        with use_tracer(tracer):
            kernels.negabinary_encode(np.arange(-4, 4))
        (span,) = tracer.spans
        assert span.name == "kernel.negabinary_encode"
        assert span.attrs["backend"] == kernels.active_backend()
        assert span.attrs["items"] == 8


# ----------------------------------------------------------------------
# Per-kernel differential properties
# ----------------------------------------------------------------------

# Codebook serialization zigzags symbols, which needs |s| < 2^62; SZ
# residuals are bounded far below that (escape symbol is 2^52).
int64_st = st.integers(min_value=-(2**61), max_value=2**61)
full_int64_st = st.integers(min_value=-(2**63), max_value=2**63 - 1)


class TestHuffmanKernels:
    @given(st.lists(int64_st, min_size=1, max_size=300), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_codec_bytes_identical_and_cross_decode(self, pool, seed):
        rng = np.random.default_rng(seed)
        sym = rng.choice(np.array(pool, dtype=np.int64), size=max(1, len(pool)))

        def encode():
            codec = HuffmanCodec.from_data(sym)
            writer = BitWriter()
            codec.serialize_to(writer)
            nbits = codec.encode_to(writer, sym)
            return codec, writer.getvalue(), nbits

        results = both_backends(encode)
        payloads = {b: r[1] for b, r in results.items()}
        assert payloads["scalar"] == payloads["vector"]

        # Cross-decode: scalar decodes the vector-encoded stream.
        codec, payload, nbits = results["vector"]
        reader = BitReader(payload)
        decoded_codec = HuffmanCodec.deserialize_from(reader)
        with kernels.use_backend("scalar"):
            out = decoded_codec.decode_from(reader, nbits, sym.size)
        np.testing.assert_array_equal(out, sym)

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_canonical_codes(self, lengths):
        lens = np.sort(np.array(lengths, dtype=np.int64))
        assert_identical(both_backends(kernels.canonical_codes, lens))

    @given(st.lists(int64_st, min_size=0, max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_histogram(self, values):
        arr = np.array(values, dtype=np.int64)
        results = both_backends(kernels.huffman_histogram, arr)
        for key in (0, 1):
            np.testing.assert_array_equal(
                results["scalar"][key], results["vector"][key]
            )

    def test_lookup_raises_same_keyerror(self):
        alphabet = np.array([1, 5, 9], dtype=np.int64)
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                with pytest.raises(KeyError, match="symbol 7 is not in"):
                    kernels.huffman_lookup_indices(
                        np.array([1, 7], dtype=np.int64), alphabet
                    )
        # SZ's escape symbol sits far outside the dense range of the
        # quantization codes: it is found, and its neighbours are not.
        escape = 2**52
        alphabet = np.array([-3, 0, 1, 5, escape], dtype=np.int64)
        found = both_backends(
            kernels.huffman_lookup_indices,
            np.array([escape, 5, -3, escape, 0], dtype=np.int64),
            alphabet,
        )
        assert_identical(found)
        assert found["vector"].tolist() == [4, 3, 0, 4, 1]
        for missing in (escape + 1, escape - 1, 2, -(2**63)):
            for backend in BACKENDS:
                with kernels.use_backend(backend):
                    with pytest.raises(
                        KeyError, match=f"symbol {missing} is not in"
                    ):
                        kernels.huffman_lookup_indices(
                            np.array([escape, 1, missing], dtype=np.int64),
                            alphabet,
                        )


class TestBitPackingKernels:
    @given(st.lists(st.integers(0, 1), min_size=0, max_size=500))
    @settings(max_examples=60, deadline=None)
    def test_pack_identical_and_roundtrip(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        packed = both_backends(kernels.pack_bits, arr)
        assert_identical(packed)
        unpacked = both_backends(kernels.unpack_bits, packed["vector"])
        assert_identical(unpacked)
        # Unpack inverts pack up to the byte-boundary zero padding.
        np.testing.assert_array_equal(unpacked["scalar"][: arr.size], arr)
        assert not unpacked["scalar"][arr.size :].any()

    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_writer_reader_agree_across_backends(self, raw):
        def roundtrip():
            writer = BitWriter()
            writer.write_bits_array(
                np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
            )
            payload = writer.getvalue()
            reader = BitReader(payload)
            return payload, bytes(np.packbits(reader.read_bits_array(len(reader))))

        results = both_backends(roundtrip)
        assert results["scalar"] == results["vector"]
        payload, back = results["scalar"]
        assert payload == raw
        assert back == raw


class TestZFPKernels:
    @given(st.lists(full_int64_st, min_size=1, max_size=200), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_negabinary_identical_and_inverse(self, values, seed):
        signed = np.array(values, dtype=np.int64)
        encoded = both_backends(kernels.negabinary_encode, signed)
        assert_identical(encoded)
        decoded = both_backends(kernels.negabinary_decode, encoded["vector"])
        assert_identical(decoded)
        np.testing.assert_array_equal(decoded["vector"], signed)

    @given(
        st.integers(1, 12),  # blocks
        st.integers(1, 16),  # block size
        st.integers(1, 8),   # planes
        st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_plane_group_identical_both_directions(
        self, nblocks, block_size, nplanes, seed
    ):
        rng = np.random.default_rng(seed)
        top = nplanes + 2
        rows = rng.integers(0, 1 << top, size=(nblocks, block_size)).astype(
            np.uint64
        )
        planes = np.arange(top, top - nplanes, -1, dtype=np.int64)
        encoded = both_backends(kernels.zfp_encode_plane_group, rows, planes)
        assert_identical(encoded)
        nchunks = nblocks * planes.size
        decoded = both_backends(
            kernels.zfp_decode_plane_group, encoded["vector"], nchunks, block_size
        )
        for key in (0, 1):
            np.testing.assert_array_equal(
                decoded["scalar"][key], decoded["vector"][key]
            )

    def test_plane_group_corruption_raises_in_both(self):
        rows = np.array([[3, 0, 5, 1]], dtype=np.uint64)
        planes = np.array([2, 1, 0], dtype=np.int64)
        bits = kernels.zfp_encode_plane_group(rows, planes)
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                with pytest.raises(ValueError):
                    kernels.zfp_decode_plane_group(bits[:-2], planes.size, 4)
                with pytest.raises(ValueError):
                    kernels.zfp_decode_plane_group(
                        np.concatenate([bits, bits[:3]]), planes.size, 4
                    )


#: Stream length at which the vector decoders walk lanes instead of
#: doubling: 1.5x the walk threshold, far more than eight segments.
REAL_BITS = chains.MIN_SEGMENTS * chains.SEGMENT_BITS * 3 // 2


def outcome_per_backend(fn, *args):
    """``{backend: result or ValueError text}``."""
    out = {}
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            try:
                out[backend] = fn(*args)
            except ValueError as exc:
                out[backend] = str(exc)
    return out


def huffman_bits(codec, symbols):
    writer = BitWriter()
    nbits = codec.encode_to(writer, symbols)
    return BitReader(writer.getvalue()).read_bits_array(nbits)


def plane_rows(rng, nblocks, block_size, top):
    """Negabinary-like rows whose magnitudes vary per block, so plane
    groups mix 1-bit (zero) and ``1 + block_size``-bit chunks."""
    widths = rng.integers(0, top + 1, size=(nblocks, 1))
    return rng.integers(0, 1 << widths, size=(nblocks, block_size)).astype(
        np.uint64
    )


@pytest.fixture
def walker_log(monkeypatch):
    """Count the lockstep walks and record every doubling fallback."""
    log = {"walks": 0, "fallback_cuts": []}
    walk, double = chains._walk, chains._double_suffix

    def counted_walk(*args, **kwargs):
        log["walks"] += 1
        return walk(*args, **kwargs)

    def recorded_double(step, mask, cut, entry, count):
        log["fallback_cuts"].append(cut)
        return double(step, mask, cut, entry, count)

    monkeypatch.setattr(chains, "_walk", counted_walk)
    monkeypatch.setattr(chains, "_double_suffix", recorded_double)
    return log


class TestChainWalkAtRealSizes:
    """Multi-segment streams: the vector decoders' segmented walk (and
    its doubling fallback) against the scalar cursor loops."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_huffman_multi_segment_stream(self, seed, walker_log):
        rng = np.random.default_rng(seed)
        symbols = rng.geometric(0.3, size=REAL_BITS // 2).astype(np.int64)
        codec = HuffmanCodec.from_data(symbols)
        bits = huffman_bits(codec, symbols)
        assert bits.size >= REAL_BITS

        decoded = both_backends(codec.decode, bits, symbols.size)
        assert_identical(decoded)
        np.testing.assert_array_equal(decoded["vector"], symbols)
        assert walker_log["fallback_cuts"] == []
        assert 1 < walker_log["walks"] <= chains.MAX_ROUNDS

    @pytest.mark.parametrize("block_size", [4, 16, 64])
    def test_zfp_multi_segment_group(self, block_size, walker_log):
        rng = np.random.default_rng(block_size)
        planes = np.arange(11, 3, -1, dtype=np.int64)
        nblocks = 4 * REAL_BITS // (planes.size * block_size)
        rows = plane_rows(rng, nblocks, block_size, top=12)
        bits = kernels.zfp_encode_plane_group(rows, planes)
        assert bits.size >= REAL_BITS

        nchunks = nblocks * planes.size
        decoded = outcome_per_backend(
            kernels.zfp_decode_plane_group, bits, nchunks, block_size
        )
        for key in (0, 1):
            np.testing.assert_array_equal(
                decoded["scalar"][key], decoded["vector"][key]
            )
        expected = (rows[:, None, :] >> planes.astype(np.uint64)[None, :, None]) & 1
        np.testing.assert_array_equal(
            decoded["vector"][0], expected.reshape(nchunks, block_size)
        )
        assert walker_log["fallback_cuts"] == []

    def test_periodic_zfp_group_decodes_through_fallback(self, walker_log):
        # Every plane of every block is flagged with the payload 1111:
        # the stream is all ones, every chunk is 5 bits, and a lane that
        # starts off the 5-bit grid never meets the true chain.
        block_size, nplanes = 4, 8
        nblocks = REAL_BITS // (nplanes * (1 + block_size)) + 1
        rows = np.full((nblocks, block_size), (1 << nplanes) - 1, dtype=np.uint64)
        planes = np.arange(nplanes - 1, -1, -1, dtype=np.int64)
        bits = kernels.zfp_encode_plane_group(rows, planes)
        assert bits.all() and chains.SEGMENT_BITS % (1 + block_size)

        nchunks = nblocks * nplanes
        decoded = outcome_per_backend(
            kernels.zfp_decode_plane_group, bits, nchunks, block_size
        )
        np.testing.assert_array_equal(decoded["scalar"][0], decoded["vector"][0])
        assert decoded["vector"][0].all()
        assert decoded["vector"][1] == bits.size
        assert walker_log["walks"] == chains.MAX_ROUNDS
        (cut,) = walker_log["fallback_cuts"]
        assert 0 < cut < bits.size

    def test_fixed_length_huffman_decodes_through_fallback(self, walker_log):
        codec = HuffmanCodec(np.arange(8), np.full(8, 3))
        assert chains.SEGMENT_BITS % 3
        symbols = np.random.default_rng(3).integers(0, 8, size=REAL_BITS // 3)
        bits = huffman_bits(codec, symbols)

        decoded = both_backends(codec.decode, bits, symbols.size)
        assert_identical(decoded)
        np.testing.assert_array_equal(decoded["vector"], symbols)
        assert walker_log["walks"] == chains.MAX_ROUNDS
        assert len(walker_log["fallback_cuts"]) == 1

    @pytest.mark.parametrize(
        "mangle",
        [
            pytest.param(lambda bits, n: (bits[:-3], n), id="truncated-tail"),
            pytest.param(lambda bits, n: (bits[: bits.size // 2], n), id="half"),
            pytest.param(
                lambda bits, n: (np.concatenate([bits, bits[:777]]), n),
                id="over-long",
            ),
            pytest.param(lambda bits, n: (bits, n + 50), id="escaping"),
            pytest.param(lambda bits, n: (bits, n - 1), id="short-count"),
        ],
    )
    def test_corrupt_zfp_group_fails_identically(self, mangle):
        rng = np.random.default_rng(11)
        planes = np.arange(9, 1, -1, dtype=np.int64)
        nblocks = 4 * REAL_BITS // (planes.size * 16)
        bits = kernels.zfp_encode_plane_group(
            plane_rows(rng, nblocks, 16, top=10), planes
        )
        bad_bits, nchunks = mangle(bits, nblocks * planes.size)
        assert bad_bits.size >= REAL_BITS // 2

        results = outcome_per_backend(
            kernels.zfp_decode_plane_group, bad_bits, nchunks, 16
        )
        assert isinstance(results["vector"], str)
        assert results["vector"] == results["scalar"]

    @pytest.mark.parametrize("how", ["half", "escaping", "over-long"])
    def test_corrupt_huffman_stream_matches_across_backends(self, how):
        rng = np.random.default_rng(5)
        symbols = rng.geometric(0.2, size=REAL_BITS // 3).astype(np.int64)
        codec = HuffmanCodec.from_data(symbols)
        bits = huffman_bits(codec, symbols)
        count = symbols.size
        if how == "half":
            bits = bits[: bits.size // 2]
        elif how == "escaping":
            count += 10
        else:
            bits = np.concatenate([bits, rng.integers(0, 2, 999, dtype=np.uint8)])

        results = outcome_per_backend(codec.decode, bits, count)
        if how == "over-long":
            assert_identical(results)
            np.testing.assert_array_equal(results["vector"], symbols)
        else:
            assert results["vector"] == chains.ESCAPE_MSG
            assert results["scalar"] == results["vector"]


class TestSZKernels:
    # The quantization plan (GridQuantizer.plan) guarantees indices stay
    # far below int64 before these kernels run; mirror that domain here
    # (|x - origin| / width < 2^42 with these bounds).
    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=300,
        ),
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(1e-6, 1e3, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantize_reconstruct_bitwise_identical(self, values, origin, width):
        data = np.array(values, dtype=np.float64)
        indices = both_backends(kernels.sz_quantize, data, origin, width)
        assert_identical(indices)
        recon = both_backends(kernels.sz_reconstruct, indices["vector"], origin, width)
        assert_identical(recon)


# ----------------------------------------------------------------------
# Whole-container byte identity
# ----------------------------------------------------------------------


class TestContainerByteIdentity:
    dtypes = (np.float32, np.float64)
    shapes = ((64,), (17, 23), (8, 9, 10))
    bounds = (1e-2, 1e-4)

    @pytest.mark.parametrize("name", ("sz", "zfp"))
    def test_backends_emit_identical_containers(self, name):
        comp = get_compressor(name)
        rng = np.random.default_rng(7)
        for dtype in self.dtypes:
            for shape in self.shapes:
                for eb in self.bounds:
                    field = np.cumsum(
                        rng.normal(size=shape), axis=-1
                    ).astype(dtype)
                    payloads = both_backends(comp.compress, field, eb)
                    assert payloads["scalar"] == payloads["vector"], (
                        name, dtype, shape, eb,
                    )
                    # Cross-backend decode of the shared payload.
                    decoded = both_backends(comp.decompress, payloads["vector"])
                    assert_identical(decoded)
                    assert np.all(
                        np.abs(
                            decoded["vector"].astype(np.float64)
                            - field.astype(np.float64)
                        )
                        <= eb * 1.0000001
                    )
