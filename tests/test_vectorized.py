"""The vectorized wedge-block kernel agrees with butterfly enumeration."""

import numpy as np
from hypothesis import given, settings

from repro.butterfly.counting import count_per_edge
from repro.butterfly.enumeration import supports_from_enumeration
from tests.conftest import bipartite_graphs


@settings(max_examples=60, deadline=None)
@given(bipartite_graphs())
def test_vectorized_property(graph):
    np.testing.assert_array_equal(
        count_per_edge(graph), supports_from_enumeration(graph)
    )
