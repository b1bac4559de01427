from hypothesis import given, settings
from hypothesis import strategies as st

from ruaguard.hashing import derive_seed, fnv1a_64


class TestFnv1a:
    def test_reference_values(self):
        # the published FNV-1a 64 test vectors
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64("foobar") == 0x85944171F73967E8

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",))))
    @settings(max_examples=200, deadline=None)
    def test_a_string_hashes_as_its_utf8_bytes(self, text):
        assert fnv1a_64(text) == fnv1a_64(text.encode("utf-8"))

    def test_a_lone_surrogate_hashes_as_its_three_bytes(self):
        assert fnv1a_64("caf\udcff") == fnv1a_64(b"caf\xed\xb3\xbf")
        assert derive_seed(3, "\udcff") == (fnv1a_64(b"\xed\xb3\xbf") ^ 3) & 0x7FFFFFFFFFFFFFFF
