"""Differential test: ``DynamicFilter.mask`` against per-value ``matches``.

``mask`` evaluates ``matches`` once per distinct value of a block and
broadcasts the answers; ``matches`` stays the single definition of the
filter's semantics.  Whatever the block kind, the mask must equal asking
``matches`` position by position — over NULLs, NaN, negative zero,
integral floats probed against int build keys, non-ASCII strings, empty
build sides, and both the exact-set and the bloom summaries.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.blocks import (
    PrimitiveBlock,
    VarcharBlock,
    block_from_values,
    object_varchar_lane,
)
from repro.core.types import BIGINT, DOUBLE, VARCHAR
from repro.execution.dynamic_filters import build_dynamic_filter

# exact_limit 0 forces the bloom summary for any non-empty build side.
EXACT_LIMITS = st.sampled_from([0, 2, 10_000])

INTS = st.integers(min_value=-6, max_value=6)
DOUBLES = st.one_of(
    st.sampled_from([math.nan, -0.0, 0.0, 1.0, 2.0, -3.0, 0.5, 2.5, math.inf]),
    st.floats(min_value=-8, max_value=8),
)
STRINGS = st.one_of(
    st.sampled_from(["", "a", "ab", "é", "日本", "naïve", "AIR", "REG AIR", "\x00z"]),
    st.text(alphabet="abé日 ", max_size=4),
)

CASES = {
    "bigint": (BIGINT, INTS, st.one_of(INTS, st.integers(-6, 6).map(float))),
    "double_vs_int_keys": (DOUBLE, DOUBLES, INTS),
    "double": (DOUBLE, DOUBLES, DOUBLES),
    "varchar": (VARCHAR, STRINGS, STRINGS),
}


@st.composite
def probe_and_build(draw):
    name = draw(st.sampled_from(sorted(CASES)))
    presto_type, probe_values, build_values = CASES[name]
    probe = draw(st.lists(st.one_of(st.none(), probe_values), max_size=40))
    build = draw(st.lists(st.one_of(st.none(), build_values), max_size=12))
    return presto_type, probe, build, draw(EXACT_LIMITS)


def assert_mask_matches(dynamic_filter, block):
    mask = dynamic_filter.mask(block)
    expected = [dynamic_filter.matches(v) for v in block.to_list()]
    assert mask.dtype == np.bool_
    assert mask.tolist() == expected


class TestMaskEqualsMatches:
    @settings(max_examples=300, deadline=None)
    @given(case=probe_and_build())
    def test_native_blocks(self, case):
        presto_type, probe, build, exact_limit = case
        dynamic_filter = build_dynamic_filter(build, exact_limit=exact_limit)
        block = block_from_values(presto_type, probe)
        assert isinstance(block, (PrimitiveBlock, VarcharBlock))
        assert_mask_matches(dynamic_filter, block)

    @settings(max_examples=100, deadline=None)
    @given(case=probe_and_build(), data=st.data())
    def test_region_views(self, case, data):
        # Scans hand out regions (rebased offsets over a shared buffer).
        presto_type, probe, build, exact_limit = case
        dynamic_filter = build_dynamic_filter(build, exact_limit=exact_limit)
        block = block_from_values(presto_type, probe)
        offset = data.draw(st.integers(0, len(probe)))
        length = data.draw(st.integers(0, len(probe) - offset))
        assert_mask_matches(dynamic_filter, block.region(offset, length))

    @settings(max_examples=100, deadline=None)
    @given(case=probe_and_build())
    def test_object_lane_blocks(self, case):
        presto_type, probe, build, exact_limit = case
        dynamic_filter = build_dynamic_filter(build, exact_limit=exact_limit)
        with object_varchar_lane():
            block = block_from_values(presto_type, probe)
        assert_mask_matches(dynamic_filter, block)


class TestMaskEdges:
    def test_empty_build_matches_nothing(self):
        dynamic_filter = build_dynamic_filter([None, None])
        for presto_type, values in (
            (BIGINT, [1, None, 2]),
            (DOUBLE, [1.0, math.nan, None]),
            (VARCHAR, ["a", None, "é"]),
        ):
            block = block_from_values(presto_type, values)
            assert not dynamic_filter.mask(block).any()

    def test_integral_float_probe_hits_int_keys_in_both_summaries(self):
        block = block_from_values(DOUBLE, [3.0, -0.0, 3.5, None, math.nan])
        for exact_limit in (0, 10_000):
            dynamic_filter = build_dynamic_filter([3, 0, 7], exact_limit=exact_limit)
            assert dynamic_filter.mask(block).tolist()[:4] == [True, True, False, False]
            assert_mask_matches(dynamic_filter, block)

    def test_bloom_path_is_taken(self):
        dynamic_filter = build_dynamic_filter(["é", "日本"], exact_limit=0)
        assert dynamic_filter.values is None and dynamic_filter.bloom is not None
        block = block_from_values(VARCHAR, ["é", None, "日本", "x"])
        assert dynamic_filter.mask(block).tolist()[:3] == [True, False, True]
        assert_mask_matches(dynamic_filter, block)

    def test_nulls_under_stored_zero_never_match(self):
        # A NULL's storage slot holds 0, which is a build key.
        block = PrimitiveBlock(
            BIGINT, np.array([0, 0, 5]), np.array([True, False, False])
        )
        dynamic_filter = build_dynamic_filter([0])
        assert dynamic_filter.mask(block).tolist() == [False, True, False]
