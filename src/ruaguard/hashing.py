"""Deterministic hashing helpers.

The same 64-bit FNV-1a hash backs both the hashed n-gram features and seed
derivation, so behaviour is stable across processes and platforms (unlike
the builtin ``hash``, which is salted per process).
"""

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(data: bytes | str) -> int:
    """64-bit FNV-1a hash of ``data`` as an unsigned integer.

    A string is hashed as its UTF-8 bytes. A lone surrogate, which UTF-8
    cannot encode, is taken as its three-byte form ("surrogatepass"), so
    every string hashes and a valid one keeps its bytes.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def derive_seed(seed: int, name: str) -> int:
    """Derive a stream-specific sub-seed from a master seed and a label.

    Distinct labels give independent-looking streams while everything stays
    reproducible from the single master seed.
    """
    return (fnv1a_64(name) ^ seed) & 0x7FFFFFFFFFFFFFFF
