import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import lphvg.graph
from lphvg import (
    RngConfig,
    TimeSeries,
    VisibilityGraph,
    WindowConfig,
    build_lphvg,
    build_lphvg_naive,
    mean_path_length,
    threshold_from_random,
    write_adjacency_csv,
    write_edge_list,
)
from oracles import (
    adjacency_reference,
    affine_transform,
    edge_list_reference,
    edge_set,
    hvg_reference_edges,
    lphvg_reference_edges,
    path_length_reference,
)
from shapes import monotone_values, plateau_values, rhos, sawtooth_values, series_values


def penetrable_visible(values, i: int, j: int, rho: int) -> bool:
    """Whether (i, j) is an edge, by both oracles; they must agree."""
    naive = (i, j) in edge_set(build_lphvg_naive(values, rho))
    assert naive == ((i, j) in lphvg_reference_edges(values, rho))
    return naive


class TestPenetrableVisible:
    """The link rule on hand-checked pairs, as edge membership in the two oracles."""

    def test_blocked_at_rho0(self):
        # values 1 and 4 with intermediate 2 >= min
        assert not penetrable_visible([3, 1, 2, 4], 1, 3, 0)

    def test_one_blocker_allowed_at_rho1(self):
        assert penetrable_visible([3, 1, 2, 4], 1, 3, 1)

    @pytest.mark.parametrize("rho", [0, 1, 5])
    def test_adjacent_always_visible(self, rho):
        vals = [5.0, 5.0, 1.0, 9.0]
        for i in range(3):
            assert penetrable_visible(vals, i, i + 1, rho)

    def test_tie_blocks(self):
        # intermediate equal to the smaller endpoint counts as blocking
        assert not penetrable_visible([1.0, 1.0, 2.0], 0, 2, 0)
        assert penetrable_visible([1.0, 1.0, 2.0], 0, 2, 1)


class TestBuild:
    def test_increasing_rho0_is_path(self):
        g = build_lphvg([1, 2, 3, 4, 5], 0)
        assert edge_set(g) == {(0, 1), (1, 2), (2, 3), (3, 4)}

    def test_k4_example(self):
        g = build_lphvg([3, 1, 2, 4], 1)
        assert edge_set(g) == {(i, j) for i in range(4) for j in range(i + 1, 4)}

    def test_increasing_rho1_band(self):
        n = 12
        g = build_lphvg(list(range(n)), 1)
        assert edge_set(g) == {
            (i, j) for i in range(n) for j in range(i + 1, n) if j - i <= 2
        }

    def test_constant_series_band(self):
        for rho in (0, 1, 3):
            g = build_lphvg([2.5] * 10, rho)
            assert edge_set(g) == {
                (i, j) for i in range(10) for j in range(i + 1, 10) if j - i <= rho + 1
            }

    def test_too_short(self):
        with pytest.raises(ValueError):
            build_lphvg([1.0], 0)
        with pytest.raises(ValueError):
            build_lphvg_naive([1.0], 0)

    def test_negative_rho(self):
        with pytest.raises(ValueError):
            build_lphvg([1, 2, 3], -1)

    @pytest.mark.parametrize("rho, name", [(1.5, "float"), (True, "bool"), ("2", "str")])
    def test_non_integer_rho(self, rho, name):
        with pytest.raises(TypeError, match=f"rho must be an integer, got {name}"):
            build_lphvg([1, 2, 3], rho)

    def test_accepts_timeseries(self):
        g = build_lphvg(TimeSeries([3, 1, 2, 4]), 1)
        assert g.edge_count == 6


class TestAccessors:
    def test_path_edge_count(self):
        g = build_lphvg([1, 2, 3, 4, 5], 0)
        assert g.edge_count == 4
        assert g.degrees().tolist() == [1, 2, 2, 2, 1]

    def test_k4_degrees(self):
        g = build_lphvg([3, 1, 2, 4], 1)
        assert g.degrees().tolist() == [3, 3, 3, 3]

    def test_handshake(self):
        x = np.random.default_rng(0).random(200)
        g = build_lphvg(x, 2)
        assert int(g.degrees().sum()) == 2 * g.edge_count

    def test_neighbors_sorted_and_symmetric(self):
        x = np.random.default_rng(1).random(100)
        g = build_lphvg(x, 1)
        rows = np.split(g.indices, g.indptr[1:-1])
        for i, nb in enumerate(rows):
            assert list(nb) == sorted(nb)
            assert i not in nb
            for j in nb:
                assert i in rows[j]


class TestOracleEquivalence:
    def test_three_spec_cases_match_naive(self):
        for vals, rho in [
            ([1, 2, 3, 4, 5], 0),
            ([3, 1, 2, 4], 1),
            (list(range(12)), 1),
        ]:
            assert edge_set(build_lphvg(vals, rho)) == edge_set(
                build_lphvg_naive(vals, rho)
            )

    def test_random_sweep_against_naive_and_reference(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            n = int(rng.integers(2, 80))
            rho = int(rng.integers(0, 5))
            x = rng.random(n)
            fast = edge_set(build_lphvg(x, rho))
            assert fast == edge_set(build_lphvg_naive(x, rho))
            assert fast == lphvg_reference_edges(x, rho)

    def test_with_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(4, 40))
            x = rng.integers(0, 4, n).astype(float)  # many repeated values
            rho = int(rng.integers(0, 4))
            assert edge_set(build_lphvg(x, rho)) == lphvg_reference_edges(x, rho)


class TestBuilderShapes:
    @pytest.mark.parametrize(
        "values", [monotone_values, plateau_values, sawtooth_values],
        ids=["monotone", "plateau", "sawtooth"],
    )
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), rho=rhos)
    def test_matches_naive_and_reference(self, values, data, rho):
        x = np.asarray(data.draw(values))
        g = build_lphvg(x, rho)
        assert g == build_lphvg_naive(x, rho)
        assert edge_set(g) == lphvg_reference_edges(x, rho)
        assert mean_path_length(g) == path_length_reference(g)

    # the partner scan covers offsets 1..4(rho+1); node 3's (rho+1)-th partner sits at the
    # scan's last offset or just past it, with the other rho partners drawn inside the scan,
    # or all rho+1 partners lie past it, so that the table descent finds each of them
    @pytest.mark.parametrize("rho", [0, 1, 10])
    @pytest.mark.parametrize("past", [0, 1, None], ids=["last-scanned", "past-scan", "all-past"])
    @pytest.mark.parametrize("tied", [False, True], ids=["higher", "tied"])
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_last_partner_at_the_scan_boundary(self, rho, past, tied, side):
        rng = np.random.default_rng(8 * rho + 4 * (past or 2) + 2 * tied + (side == "left"))
        span = 4 * (rho + 1)
        if past is None:
            offsets = span + 1 + np.sort(rng.choice(np.arange(2 * span), rho + 1, replace=False))
        else:
            offsets = np.append(rng.choice(np.arange(1, span + past), rho, replace=False), span + past)
        offset = offsets.max()
        x = rng.random(offset + 12)  # everything else lies below node 3's 5.0
        x[3] = 5.0
        partners = 3 + offsets
        x[partners] = 5.0 if tied else 5.0 + rng.random(rho + 1)
        x[3 + offset + 2] = 9.0  # a (rho+2)-th higher value, out of node 3's reach
        if side == "left":
            x, node, far = x[::-1].copy(), x.size - 4, x.size - 4 - offset
        else:
            node, far = 3, 3 + offset
        g = build_lphvg(x, rho)
        assert g == build_lphvg_naive(x, rho)
        assert edge_set(g) == lphvg_reference_edges(x, rho)
        nbrs = g.indices[g.indptr[node] : g.indptr[node + 1]]
        assert (nbrs.min() if side == "left" else nbrs.max()) == far

    @pytest.mark.parametrize("rho", [7, 28, 29, 300])  # 4(rho+1) > n-1, n-2, n-1 and 10n at n = 30
    def test_rho_beyond_the_series(self, rho):
        rng = np.random.default_rng(rho)
        for x in (rng.integers(0, 5, 30).astype(float), rng.random(30), np.arange(30.0),
                  np.arange(30.0)[::-1]):
            g = build_lphvg(x, rho)
            assert g == build_lphvg_naive(x, rho)
            assert edge_set(g) == lphvg_reference_edges(x, rho)
            assert g.rho == rho

    def test_large_rho_build_is_bounded(self):
        # no node has more than n-1 partners on a side, so rho beyond n costs nothing more
        x = np.random.default_rng(5).random(50)
        t0 = time.perf_counter()
        g = build_lphvg(x, 10**5)
        assert time.perf_counter() - t0 < 0.5
        assert g.edge_count == 50 * 49 // 2

    def test_decreasing_build_is_not_quadratic(self):
        x = np.arange(20000, 0, -1, dtype=float)
        t0 = time.perf_counter()
        g = build_lphvg(x, 1)
        assert time.perf_counter() - t0 < 2.0
        assert g.edge_count == 2 * 20000 - 3  # the band j - i <= 2

    def test_csr_arrays_are_read_only(self):
        g = build_lphvg(np.random.default_rng(4).random(50), 1)
        assert not g.edge_codes.flags.writeable
        assert not g.indptr.flags.writeable
        assert not g.indices.flags.writeable
        with pytest.raises(ValueError):
            g.indices[0] = 1
        assert not g.indices[g.indptr[3] : g.indptr[4]].flags.writeable

    def test_csr_is_derived_only_for_traversals(self, tmp_path, monkeypatch):
        def refuse(graph):
            raise AssertionError("CSR derived")

        monkeypatch.setattr(VisibilityGraph, "_csr", property(refuse))
        g = build_lphvg(np.random.default_rng(7).random(300), 2)
        write_edge_list(g, tmp_path / "edges.txt")
        write_adjacency_csv(g, tmp_path / "adj.csv")
        assert len(list(g.edges())) == g.edge_count
        threshold_from_random(WindowConfig(60, 20), 200, 1, RngConfig(0), ensemble=2)
        with pytest.raises(AssertionError, match="CSR derived"):
            g.degrees()


class TestStructuralInvariants:
    @settings(max_examples=120, deadline=None)
    @given(series_values, rhos)
    def test_band_and_connectivity(self, values, rho):
        g = build_lphvg(values, rho)
        n, edges = g.n, edge_set(g)
        for i in range(n):
            for j in range(i + 1, min(n, i + rho + 2)):
                assert (i, j) in edges
        # consecutive edges imply one component
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in g.indices[g.indptr[u] : g.indptr[u + 1]].tolist():
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert len(seen) == n

    @settings(max_examples=100, deadline=None)
    @given(series_values, st.integers(min_value=0, max_value=3))
    def test_rho_monotonicity(self, values, rho):
        e1 = edge_set(build_lphvg(values, rho))
        e2 = edge_set(build_lphvg(values, rho + 1))
        assert e1 <= e2

    @settings(max_examples=100, deadline=None)
    @given(
        series_values,
        rhos,
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=-1e5, max_value=1e5),
    )
    def test_affine_invariance(self, values, rho, a, b):
        shifted = affine_transform(TimeSeries(values), a, b)
        # the claim is about order-isomorphic maps; skip cases where float
        # rounding collapses distinct values or flips a >= relation
        orig = np.asarray(values)
        new = shifted.values
        assume(
            np.array_equal(
                orig[:, None] >= orig[None, :], new[:, None] >= new[None, :]
            )
        )
        base = edge_set(build_lphvg(values, rho))
        assert edge_set(build_lphvg(shifted, rho)) == base

    @settings(max_examples=120, deadline=None)
    @given(series_values)
    def test_rho0_equals_reference_hvg(self, values):
        assert edge_set(build_lphvg(values, 0)) == hvg_reference_edges(values)

    def test_interior_degree_floor(self):
        x = np.random.default_rng(3).random(300)
        for rho in (0, 1, 2):
            interior = build_lphvg(x, rho).degrees()[rho + 1 : x.size - rho - 1]
            assert interior.size and interior.min() >= 2 * (rho + 1)


class TestExports:
    def test_edge_list_format(self, tmp_path):
        g = build_lphvg([3, 1, 2, 4], 1)
        p = tmp_path / "edges.txt"
        write_edge_list(g, p)
        lines = p.read_text().splitlines()
        assert lines == ["0 1", "0 2", "0 3", "1 2", "1 3", "2 3"]

    def test_adjacency_csv(self, tmp_path):
        g = build_lphvg([1, 2, 3], 0)
        p = tmp_path / "adj.csv"
        write_adjacency_csv(g, p)
        assert p.read_text().splitlines() == ["0,1,0", "1,0,1", "0,1,0"]

    def test_adjacency_guard(self, tmp_path):
        g = build_lphvg(np.arange(2001.0), 0)
        with pytest.raises(ValueError, match="edge-list"):
            write_adjacency_csv(g, tmp_path / "big.csv")

    @pytest.mark.parametrize("n", [2, 9, 10, 11, 99, 100, 101, 1001])
    @pytest.mark.parametrize("rho", [0, 1, 2, 3])
    def test_edge_list_matches_oracle_at_digit_widths(self, tmp_path, n, rho):
        x = np.random.default_rng(n * 10 + rho).random(n)
        p = tmp_path / "edges.txt"
        write_edge_list(build_lphvg(x, rho), p)
        assert p.read_bytes() == edge_list_reference(x, rho)

    @pytest.mark.parametrize(
        "values", [monotone_values, plateau_values, sawtooth_values],
        ids=["monotone", "plateau", "sawtooth"],
    )
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rho=rhos)
    def test_edge_list_matches_oracle_on_shapes(self, tmp_path_factory, values, data, rho):
        x = data.draw(values)
        p = tmp_path_factory.mktemp("shapes") / "edges.txt"
        write_edge_list(build_lphvg(x, rho), p)
        assert p.read_bytes() == edge_list_reference(x, rho)

    @pytest.mark.parametrize("rho", [0, 2])
    @pytest.mark.parametrize("chunk", [None, 1, 7])
    def test_edge_list_hub_row(self, tmp_path, monkeypatch, rho, chunk):
        if chunk is not None:  # chunks end mid-way, at the hub and after it
            monkeypatch.setattr(lphvg.graph, "_EDGE_CHUNK", chunk)
        x = [1e9, *range(1, 300)]  # node 0 sees every later point
        p = tmp_path / "edges.txt"
        g = build_lphvg(x, rho)
        write_edge_list(g, p)
        assert p.read_bytes() == edge_list_reference(x, rho)
        assert list(g.edges()) == sorted(lphvg_reference_edges(x, rho))

    @pytest.mark.parametrize("n", [2, 3, 10, 11])
    @pytest.mark.parametrize("rho", [0, 1, 2])
    def test_adjacency_csv_matches_oracle(self, tmp_path, n, rho):
        x = np.random.default_rng(n * 10 + rho).random(n)
        p = tmp_path / "adj.csv"
        write_adjacency_csv(build_lphvg(x, rho), p)
        assert p.read_bytes() == adjacency_reference(x, rho)

    def test_adjacency_csv_at_the_limit_is_fast(self, tmp_path):
        g = build_lphvg(np.random.default_rng(6).random(2000), 2)
        t0 = time.perf_counter()
        write_adjacency_csv(g, tmp_path / "adj.csv")
        assert time.perf_counter() - t0 < 0.3
        assert (tmp_path / "adj.csv").stat().st_size == 2000 * 4000
