"""Stable join-key hashing: cross-process determinism (the old
``hash()``-based keys changed with PYTHONHASHSEED, making Bloom-filter
false positives — and every counter downstream of semi-join pushdown —
unreproducible across runs)."""

import os
import subprocess
import sys

import numpy as np

from repro.core.keys import ScanKey, SemiJoinDescriptor, conjunct_key
from repro.engine.bloom import BloomFilter
from repro.engine.hashing import fnv1a_digest, fnv1a_hash, stable_int_keys
from repro.persist.records import key_digest

# Reference FNV-1a 64-bit digests (computed independently, byte by byte).
_KNOWN = {
    "": 0xCBF29CE484222325,
    "a": 0xAF63DC4C8601EC8C,
    "foobar": 0x85944171F73967E8,
}


def _fnv1a_reference(s: str) -> int:
    h = 0xCBF29CE484222325
    for byte in s.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) % (1 << 64)
    return h


class TestFnv1a:
    def test_known_vectors(self):
        for text, expected in _KNOWN.items():
            got = int(fnv1a_hash(np.array([text], dtype=object))[0])
            assert got % (1 << 64) == expected

    def test_matches_scalar_reference(self):
        values = np.array(
            ["", "a", "ab", "BRASS", "promo burnished", "x" * 40, "éclair"],
            dtype=object,
        )
        hashed = fnv1a_hash(values)
        for text, got in zip(values, hashed):
            assert int(got) % (1 << 64) == _fnv1a_reference(text)

    def test_distinct_keys_distinct_hashes(self):
        values = np.array([f"key-{i}" for i in range(10_000)], dtype=object)
        assert len(np.unique(fnv1a_hash(values))) == len(values)

    def test_int_keys_pass_through(self):
        keys = np.array([5, -3, 7], dtype=np.int64)
        assert stable_int_keys(keys) is keys or np.array_equal(
            stable_int_keys(keys), keys
        )

    def test_unicode_dtype_accepted(self):
        as_object = np.array(["alpha", "beta"], dtype=object)
        as_unicode = np.array(["alpha", "beta"])
        assert np.array_equal(
            stable_int_keys(as_object), stable_int_keys(as_unicode)
        )


def _signed(value: int) -> int:
    return value - (1 << 64) if value >= 1 << 63 else value


class TestNulBytes:
    """A NUL inside a key is skipped in every batch.  Stopping at a byte
    column that is NUL for every key instead makes ``'a\\x00b'`` hash as
    ``'a'`` alone but as ``'ab'`` beside a longer key, and a Bloom
    filter built in one batch then rejects the key probed in another."""

    def test_interior_nul_is_batch_independent(self):
        alone = fnv1a_hash(np.array(["a\x00b"], dtype=object))[0]
        beside = fnv1a_hash(np.array(["a\x00b", "xyz"], dtype=object))[0]
        assert alone == beside
        assert int(alone) == _signed(_fnv1a_reference("ab"))

    def test_nul_keys_hash_like_their_scalar_digest(self):
        values = ["a\x00b", "\x00x", "x\x00\x00y", "a\x00", "\x00", "plain"]
        for batch in (values, values[::-1], values + ["w" * 30]):
            hashed = fnv1a_hash(np.array(batch, dtype=object))
            for text, got in zip(batch, hashed):
                assert int(got) == fnv1a_digest(text)

    def test_bloom_built_in_one_batch_accepts_probe_from_another(self):
        bloom = BloomFilter(expected_items=4)
        bloom.add_many(stable_int_keys(np.array(["a\x00b"], dtype=object)))
        probe = stable_int_keys(np.array(["a\x00b", "longer key"], dtype=object))
        assert bloom.may_contain(probe)[0]


class TestScalarDigest:
    def test_matches_vectorized_hash(self):
        values = ["", "a", "foobar", "éclair", "x" * 300, "promo#12", "a b c"]
        hashed = fnv1a_hash(np.array(values, dtype=object))
        for text, got in zip(values, hashed):
            assert fnv1a_digest(text) == int(got)
            assert fnv1a_digest(text) == _signed(_fnv1a_reference(text))

    def test_key_digests_pinned(self):
        """Persisted digests (snapshot format v2, journal drop events)
        must never change, or existing snapshots stop loading."""
        plain = ScanKey("lineorder", "(lo_discount >= 1 AND lo_quantity < 25)")
        conjunct = conjunct_key("lineorder", "lo_quantity < 25")
        joined = ScanKey(
            "lineorder",
            "lo_orderdate >= 19940101",
            (
                SemiJoinDescriptor(
                    "lo_custkey = c_custkey", "customer", "c_region = 'ASIA'"
                ),
            ),
        )
        assert key_digest(plain) == -1066568043475051000
        assert key_digest(conjunct) == -2643539535825619207
        assert key_digest(joined) == 3175287772100029319


class TestCrossProcessDeterminism:
    def _hashes_under_seed(self, seed: str) -> list:
        """Hash a fixed key set in a fresh interpreter with a given
        PYTHONHASHSEED (the knob that broke the old implementation)."""
        program = (
            "import numpy as np\n"
            "from repro.engine.hashing import stable_int_keys\n"
            "keys = np.array(['EUROPE', 'ASIA', 'promo#12', 'a b c', ''],"
            " dtype=object)\n"
            "print(','.join(str(int(v)) for v in stable_int_keys(keys)))\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src_dir)
        result = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, env=env, check=True,
        )
        return result.stdout.strip().split(",")

    def test_same_hashes_across_hash_seeds(self):
        assert self._hashes_under_seed("0") == self._hashes_under_seed("12345")

    def test_bloom_fp_behavior_reproducible(self):
        """The full chain: same keys -> same bloom bits -> same membership
        answers, regardless of interpreter hash randomization."""
        build = np.array([f"part-{i}" for i in range(500)], dtype=object)
        probe = np.array([f"probe-{i}" for i in range(2000)], dtype=object)
        masks = []
        for _ in range(2):
            bloom = BloomFilter(expected_items=500)
            bloom.add_many(stable_int_keys(build))
            masks.append(bloom.may_contain(stable_int_keys(probe)))
        assert np.array_equal(masks[0], masks[1])
