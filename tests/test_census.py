from census import census, connected_graphs


def test_connected_graphs_up_to_isomorphism_match_the_known_counts():
    # OEIS A001349
    assert [len(connected_graphs(n)) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]


def test_census_of_every_pair_up_to_six_vertices():
    """The paper's three statements agree on every connected graph with
    at most six vertices and every Z of at least five terminals, no pair
    reads a violation in ``implied_minor_checks``, and the apex-planar
    certificate, block by block, calls every free pair free and no pair
    with a minor."""
    total = {}
    for n in (5, 6):
        counts, faults = census(n)
        assert faults == [], faults[:5]
        total[n] = dict(counts)
    assert total == {
        5: {"pairs": 21, "minor": 7, "free": 14, "certified": 14},
        6: {"pairs": 784, "minor": 352, "free": 432, "certified": 432},
    }
