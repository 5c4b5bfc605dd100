"""Reproduction of the paper's worked example (Section 5, Figures 6-7).

The example's service topology: four clusters with aggregate capabilities

    C0: {S1, S4}   C1: {S2, S3, S4}   C2: {S2, S5}   C3: {S1, S4}

external border links (lengths as labelled in Figure 6):

    (C0,C1)=20 via C0.1-C1.0      (C0,C3)=30 via C0.0-C3.0
    (C1,C2)=25 via C1.2-C2.0      (C1,C3)=50 via C1.1-C3.0
    (C2,C3)=15 via C2.2-C3.0      (C0,C2)=40 via C0.0-C2.2

and the request S1 -> S2 -> S3 -> S4 -> S5 from C0.2 to C2.1.

Because S3 only exists in C1, the unique sensible CSP is C0 -> C1 -> C2 —
exactly Figure 7(c)'s bold path — and the dissection must produce Figure
7(d)'s three child requests. The text's path-1-vs-path-2 argument (52 vs 46
lower bounds) is exercised separately with a request satisfiable through
either C1 or C3.

The cluster-level machinery is driven through a stub HFC object carrying the
paper's exact numbers, so these tests pin the router to the publication, not
to our topology generator.
"""


import pytest

from repro.routing.hierarchical import HierarchicalRouter
from repro.services import ServiceRequest, linear_graph

# border proxies: names match the paper's labels
BORDERS = {
    (0, 1): "C0.1", (1, 0): "C1.0",
    (0, 2): "C0.0", (2, 0): "C2.2",
    (0, 3): "C0.0", (3, 0): "C3.0",
    (1, 2): "C1.2", (2, 1): "C2.0",
    (1, 3): "C1.1", (3, 1): "C3.0",
    (2, 3): "C2.2", (3, 2): "C3.0",
}

EXTERNAL = {
    frozenset((0, 1)): 20.0,
    frozenset((0, 2)): 40.0,
    frozenset((0, 3)): 30.0,
    frozenset((1, 2)): 25.0,
    frozenset((1, 3)): 50.0,
    frozenset((2, 3)): 15.0,
}

# coordinate distances the destination proxy can evaluate: between border
# proxies of the same cluster, and from borders of C2 (pd's cluster) to pd.
INTERNAL = {
    frozenset(("C1.0", "C1.2")): 5.0,
    frozenset(("C1.0", "C1.1")): 4.0,
    frozenset(("C1.1", "C1.2")): 3.0,
    frozenset(("C0.0", "C0.1")): 2.0,
    frozenset(("C2.0", "C2.2")): 3.0,
    frozenset(("C2.0", "C2.1")): 2.0,
    frozenset(("C2.2", "C2.1")): 1.0,
}

CAPABILITIES = {
    0: frozenset({"S1", "S4"}),
    1: frozenset({"S2", "S3", "S4"}),
    2: frozenset({"S2", "S5"}),
    3: frozenset({"S1", "S4"}),
}

CLUSTER_OF = {
    "C0.0": 0, "C0.1": 0, "C0.2": 0, "C0.3": 0,
    "C1.0": 1, "C1.1": 1, "C1.2": 1, "C1.3": 1,
    "C2.0": 2, "C2.1": 2, "C2.2": 2,
    "C3.0": 3, "C3.1": 3,
}


class _PaperSpace:
    """Distance oracle over the example's labelled proxies."""

    def distance(self, u, v):
        if u == v:
            return 0.0
        key = frozenset((u, v))
        if key in INTERNAL:
            return INTERNAL[key]
        raise AssertionError(f"router asked for an unknowable distance {u}-{v}")


class _PaperHFC:
    """Stub HFC carrying exactly the Figure 6 numbers."""

    cluster_count = 4
    space = _PaperSpace()

    def cluster_of(self, proxy):
        return CLUSTER_OF[proxy]

    def border(self, i, j):
        return BORDERS[(i, j)]

    def external_estimate(self, i, j):
        return EXTERNAL[frozenset((i, j))]

    def members(self, cid):
        return sorted(p for p, c in CLUSTER_OF.items() if c == cid)


@pytest.fixture
def router():
    return HierarchicalRouter.__new__(HierarchicalRouter)


@pytest.fixture
def paper_router(router):
    # bypass __init__ (which wants a real HFC + placement); wire fields directly
    router.hfc = _PaperHFC()
    router.method = "backtrack"
    router.cluster_capabilities = CAPABILITIES
    return router


REQUEST = ServiceRequest(
    "C0.2", linear_graph(["S1", "S2", "S3", "S4", "S5"]), "C2.1"
)


class TestFigure7CSP:
    def test_csp_is_c0_c1_c2(self, paper_router):
        csp = paper_router.cluster_level_path(REQUEST)
        assert csp.cluster_sequence() == [0, 1, 2]

    def test_csp_slot_assignment_matches_bold_path(self, paper_router):
        """Figure 7(c): S1/C0, S2/C1, S3/C1, S4/C1, S5/C2."""
        csp = paper_router.cluster_level_path(REQUEST)
        assert list(csp.assignment) == [(0, 0), (1, 1), (2, 1), (3, 1), (4, 2)]

    def test_csp_lower_bound_cost(self, paper_router):
        """ext(C0,C1)=20 + internal C1.0->C1.2=5 + ext(C1,C2)=25 +
        internal C2.0->pd=2 — the 52 of the paper's path-1 arithmetic."""
        csp = paper_router.cluster_level_path(REQUEST)
        assert csp.estimated_cost == pytest.approx(52.0)

    def test_endpoint_clusters(self, paper_router):
        csp = paper_router.cluster_level_path(REQUEST)
        assert csp.source_cluster == 0
        assert csp.destination_cluster == 2


class TestFigure7Dissection:
    def test_three_children(self, paper_router):
        csp = paper_router.cluster_level_path(REQUEST)
        children = paper_router.dissect(REQUEST, csp)
        assert [c.cluster for c in children] == [0, 1, 2]

    def test_child_1_matches_figure_7d(self, paper_router):
        """child 1: C0.2 -[S1]-> C0.1 (distributed to C0.1)."""
        csp = paper_router.cluster_level_path(REQUEST)
        child = paper_router.dissect(REQUEST, csp)[0]
        assert child.source_proxy == "C0.2"
        assert child.destination_proxy == "C0.1"
        assert child.services == ("S1",)

    def test_child_2_matches_figure_7d(self, paper_router):
        """child 2: C1.0 -[S2,S3,S4]-> C1.2 (distributed to C1.2)."""
        csp = paper_router.cluster_level_path(REQUEST)
        child = paper_router.dissect(REQUEST, csp)[1]
        assert child.source_proxy == "C1.0"
        assert child.destination_proxy == "C1.2"
        assert child.services == ("S2", "S3", "S4")

    def test_child_3_matches_figure_7d(self, paper_router):
        """child 3: C2.0 -[S5]-> C2.1 (taken care of by C2.1 itself)."""
        csp = paper_router.cluster_level_path(REQUEST)
        child = paper_router.dissect(REQUEST, csp)[2]
        assert child.source_proxy == "C2.0"
        assert child.destination_proxy == "C2.1"
        assert child.services == ("S5",)


class TestBackTrackingArgument:
    """The text's 52-vs-46 example: equal external sums, different internals.

    A service offered only by C1 and C3 forces the choice the text
    discusses: path C0->C1->C2 costs 20+25=45 externally but 52 once the
    internal segments (C1.0->C1.2 = 5, C2.0->pd = 2) are back-tracked in,
    while C0->C3->C2 also costs 45 externally but only 46 with internals
    (C3 is entered and left through the same border; C2.2->pd = 1).
    Back-tracking must choose C3; the external-only relaxation sees a dead
    tie at 45.
    """

    TIE_REQUEST = ServiceRequest("C0.2", linear_graph(["S6"]), "C2.1")
    TIE_CAPABILITIES = {
        0: frozenset(),
        1: frozenset({"S6"}),
        2: frozenset(),
        3: frozenset({"S6"}),
    }

    @pytest.fixture
    def tie_router(self, paper_router):
        paper_router.cluster_capabilities = self.TIE_CAPABILITIES
        return paper_router

    def test_backtrack_prefers_lower_true_bound(self, tie_router):
        csp = tie_router.cluster_level_path(self.TIE_REQUEST)
        assert csp.cluster_sequence() == [3]
        assert csp.estimated_cost == pytest.approx(46.0)

    def test_external_only_sees_a_tie(self, tie_router):
        tie_router.method = "external"
        csp = tie_router.cluster_level_path(self.TIE_REQUEST)
        # both options cost exactly 45 externally
        assert csp.estimated_cost == pytest.approx(45.0)

    def test_exact_dp_agrees_with_backtrack_here(self, tie_router):
        tie_router.method = "exact"
        csp = tie_router.cluster_level_path(self.TIE_REQUEST)
        assert csp.cluster_sequence() == [3]
        assert csp.estimated_cost == pytest.approx(46.0)

    def test_s4_in_source_cluster_beats_both(self, paper_router):
        """With the original capabilities, S4 also exists in C0 itself:
        staying home costs the direct external link C0->C2 (40) plus the
        entry segment C2.2->pd (1) = 41, beating both multi-cluster
        options — and the router must find it."""
        request = ServiceRequest("C0.2", linear_graph(["S4"]), "C2.1")
        csp = paper_router.cluster_level_path(request)
        assert csp.cluster_sequence() == [0]
        assert csp.estimated_cost == pytest.approx(41.0)
