"""Tests for the hierarchical Name type."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.names import Name, ROOT

components = st.lists(
    st.text(
        alphabet=st.characters(blacklist_characters="/", blacklist_categories=("Cs",)),
        min_size=1,
        max_size=8,
    ),
    max_size=6,
)


class TestConstruction:
    def test_root_is_empty(self):
        assert ROOT.is_root
        assert len(ROOT) == 0
        assert str(ROOT) == "/"

    def test_parse_simple(self):
        name = Name.parse("/1/2")
        assert name.components == ("1", "2")
        assert str(name) == "/1/2"

    def test_parse_root_forms(self):
        assert Name.parse("/") == ROOT
        assert Name.parse("") == ROOT

    def test_parse_rejects_missing_leading_slash(self):
        with pytest.raises(ValueError):
            Name.parse("1/2")

    def test_parse_rejects_trailing_slash(self):
        with pytest.raises(ValueError):
            Name.parse("/1/")

    def test_parse_rejects_empty_component(self):
        with pytest.raises(ValueError):
            Name.parse("/1//2")

    def test_component_may_not_contain_slash(self):
        with pytest.raises(ValueError):
            Name(["a/b"])

    def test_component_may_not_be_empty(self):
        with pytest.raises(ValueError):
            Name(["a", ""])

    def test_coerce_passthrough(self):
        name = Name(["x"])
        assert Name.coerce(name) is name
        assert Name.coerce("/x") == name
        assert Name.coerce(["x"]) == name


class TestHierarchy:
    def test_child_and_truediv(self):
        assert (ROOT / "1") == Name(["1"])
        assert Name(["1"]).child("2") == Name.parse("/1/2")

    def test_parent(self):
        assert Name.parse("/1/2").parent == Name.parse("/1")
        assert Name.parse("/1").parent == ROOT

    def test_root_has_no_parent(self):
        with pytest.raises(ValueError):
            _ = ROOT.parent

    def test_root_has_no_leaf(self):
        with pytest.raises(ValueError):
            _ = ROOT.leaf

    def test_leaf(self):
        assert Name.parse("/a/b/c").leaf == "c"

    def test_append(self):
        assert Name.parse("/a").append("/b/c") == Name.parse("/a/b/c")

    def test_prefix_relations(self):
        a = Name.parse("/1")
        b = Name.parse("/1/2")
        assert a.is_prefix_of(b)
        assert a.is_prefix_of(a)
        assert a.is_strict_prefix_of(b)
        assert not a.is_strict_prefix_of(a)
        assert not b.is_prefix_of(a)
        assert ROOT.is_prefix_of(a)

    def test_sibling_not_prefix(self):
        assert not Name.parse("/1/2").is_prefix_of(Name.parse("/1/3"))

    def test_component_boundary_respected(self):
        # "/sports/foo" is not a prefix of "/sports/football".
        assert not Name.parse("/sports/foo").is_prefix_of(Name.parse("/sports/football"))

    def test_prefixes_enumeration(self):
        prefixes = list(Name.parse("/a/b").prefixes())
        assert prefixes == [ROOT, Name.parse("/a"), Name.parse("/a/b")]

    def test_ancestors_excludes_self(self):
        ancestors = list(Name.parse("/a/b").ancestors())
        assert ancestors == [ROOT, Name.parse("/a")]

    def test_slice(self):
        assert Name.parse("/a/b/c").slice(2) == Name.parse("/a/b")
        assert Name.parse("/a").slice(0) == ROOT

    def test_slice_out_of_range(self):
        with pytest.raises(IndexError):
            Name.parse("/a").slice(2)

    def test_relative_to(self):
        assert Name.parse("/a/b/c").relative_to(Name.parse("/a")) == Name.parse("/b/c")

    def test_relative_to_non_prefix(self):
        with pytest.raises(ValueError):
            Name.parse("/a/b").relative_to(Name.parse("/x"))


class TestValueSemantics:
    def test_equality_and_hash(self):
        assert Name.parse("/a/b") == Name(["a", "b"])
        assert hash(Name.parse("/a/b")) == hash(Name(["a", "b"]))

    def test_ordering(self):
        assert Name.parse("/a") < Name.parse("/a/b") < Name.parse("/b")

    def test_usable_as_dict_key(self):
        d = {Name.parse("/a"): 1}
        assert d[Name(["a"])] == 1

    def test_repr_round_trip(self):
        name = Name.parse("/x/y")
        assert "'/x/y'" in repr(name)


class TestProperties:
    @given(components)
    def test_str_parse_round_trip(self, comps):
        name = Name(comps)
        assert Name.parse(str(name)) == name

    @given(components, components)
    def test_append_preserves_prefix(self, a, b):
        base = Name(a)
        extended = base.append(Name(b))
        assert base.is_prefix_of(extended)
        assert extended.relative_to(base) == Name(b)

    @given(components)
    def test_prefix_count_is_depth_plus_one(self, comps):
        name = Name(comps)
        assert len(list(name.prefixes())) == name.depth + 1
