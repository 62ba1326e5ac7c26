"""Property-based tests: halfplane covers vs brute force."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.substrates.convex_layers import ConvexLayers, convex_hull
from repro.substrates.halfplane import HalfplaneIndex

coordinate = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
points_strategy = st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=120)


@given(points=points_strategy)
@settings(max_examples=200, deadline=None)
def test_hull_contains_all_points(points):
    hull = convex_hull(points)
    if len(hull) < 3:
        return
    # Every input point lies inside or on the hull (non-negative cross
    # products against every ccw edge).
    m = len(hull)
    for point in points:
        for i in range(m):
            a, b = hull[i], hull[(i + 1) % m]
            cross = (b[0] - a[0]) * (point[1] - a[1]) - (b[1] - a[1]) * (point[0] - a[0])
            assert cross >= -1e-6 * max(1.0, abs(cross))


@given(points=points_strategy)
@settings(max_examples=200, deadline=None)
def test_layers_partition(points):
    layers = ConvexLayers(points)
    assert sorted(layers.leaf_items) == sorted(points)
    assert sorted(layers.original_index(i) for i in range(len(points))) == list(
        range(len(points))
    )


@given(
    points=points_strategy,
    a=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    b=st.floats(min_value=-120.0, max_value=120.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
# (0, 0) is a strict hull vertex, but the float orientation of the three
# points reads collinear, so it is peeled into a second layer behind a
# two-vertex first layer that lies above the line: that empty layer
# must not end the walk.
@example(points=[(0.0, 0.0), (0.0, 2.8378579152865617e-111), (-1.0, 1.0)], a=0.0, b=0.0)
# The first layer is the triangle (0, 5.4e-147), (8.3e-226, 1e-300),
# (0, 1), entirely above the line. The float hull peeled (2.97e-297, 0)
# into the second layer, although in exact arithmetic it lies outside
# that triangle, on the line: the triangle must not end the walk.
@example(
    points=[
        (0.0, 0.0),
        (0.0, 1.0),
        (0.0, 2.0),
        (0.0, 5.422266224140729e-147),
        (1.0, 0.0),
        (8.264875179402532e-226, 1e-300),
        (2.9734739692429527e-297, 0.0),
    ],
    a=0.0,
    b=0.0,
)
def test_halfplane_cover_matches_brute_force(points, a, b):
    index = HalfplaneIndex(points)
    expected = sorted(p for p in points if p[1] - a * p[0] - b <= 0)
    assert sorted(index.report((a, b))) == expected
    # Spans must be disjoint.
    seen = set()
    for lo, hi in index.find_cover((a, b)):
        for position in range(lo, hi):
            assert position not in seen
            seen.add(position)
