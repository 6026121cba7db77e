"""Property-based tests for the model layer (graphs, identifiers, balls)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.ball import extract_ball
from repro.model.identifiers import IdentifierAssignment
from repro.topology.cycle import cycle_graph
from repro.topology.path import path_graph
from repro.engine.campaign import build_topology


permutations = st.integers(min_value=3, max_value=24).flatmap(
    lambda n: st.permutations(list(range(n)))
)


@given(permutations)
@settings(max_examples=60, deadline=None)
def test_identifier_assignment_round_trips_positions(ids):
    assignment = IdentifierAssignment(ids)
    for position in range(len(ids)):
        assert assignment.position_of(assignment[position]) == position


@given(permutations, st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_rotation_preserves_the_identifier_multiset(ids, shift):
    assignment = IdentifierAssignment(ids)
    rotated = assignment.rotated(shift)
    assert sorted(rotated.identifiers()) == sorted(assignment.identifiers())
    assert rotated.max_identifier() == assignment.max_identifier()


@given(st.integers(min_value=3, max_value=30), st.integers(min_value=0, max_value=40))
@settings(max_examples=80, deadline=None)
def test_cycle_distances_respect_ring_geometry(n, raw_pair):
    graph = cycle_graph(n)
    u = raw_pair % n
    v = (raw_pair * 7 + 1) % n
    expected = min((u - v) % n, (v - u) % n)
    assert graph.distance(u, v) == expected


@given(st.integers(min_value=3, max_value=20), st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_ball_sizes_on_cycles_follow_the_closed_form(n, radius):
    graph = cycle_graph(n)
    ball = graph.ball_positions(0, radius)
    assert len(ball) == min(2 * radius + 1, n)


@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=6))
@settings(max_examples=50, deadline=None)
def test_ball_views_are_internally_consistent_on_paths(n, radius):
    graph = path_graph(n)
    ids = IdentifierAssignment(range(n))
    center = n // 2
    ball = extract_ball(graph, ids, center, radius)
    # Every ball member's distance is at most the radius and matches BFS.
    for identifier, distance in ball.distance_by_id.items():
        assert distance <= radius
        assert graph.distance(center, ids.position_of(identifier)) == distance
    # The inside-degree never exceeds the full degree.
    for identifier in ball.ids():
        assert ball.degree_inside(identifier) <= ball.degree(identifier)


@given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=1000))
@settings(max_examples=50, deadline=None)
def test_covers_whole_graph_exactly_when_radius_reaches_eccentricity(n, radius, seed):
    graph = build_topology("random-tree", n, seed)
    ids = IdentifierAssignment(range(graph.n))
    center = seed % graph.n
    ball = extract_ball(graph, ids, center, radius)
    assert ball.covers_whole_graph() == (radius >= graph.eccentricity(center))
