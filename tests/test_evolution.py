import math
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lphvg import (
    RngConfig,
    VisibilityGraph,
    WindowConfig,
    build_lphvg,
    correlation_index,
    distance_matrix,
    evolve,
    gen_iid,
    gen_logistic,
    gen_periodic,
    graph_distance,
    make_windows,
    mean_degree_empirical,
    recurrence_matrix,
    threshold_from_random,
)
import lphvg.evolution
from lphvg.cli import main
from lphvg.evolution import _code_distances, _window_codes
from lphvg.generators import IidSpec

from shapes import monotone_values, plateau_values, rhos, sawtooth_values


def pairwise(graphs):
    """The distance matrix entry by entry from graph_distance, the oracle."""
    return np.array([[graph_distance(a, b) for b in graphs] for a in graphs])


def window_builds(x, rho, cfg):
    """Each window's graph built on its own: shares no cut code with the library."""
    return [build_lphvg(x[a:b], rho) for a, b in make_windows(x.size, cfg)]


def member_threshold_by_window_graphs(cfg, series_len, rho, rng, ensemble):
    """The reference threshold through per-window builds and distance_matrix."""
    best = math.inf
    for member in range(ensemble):
        values = rng.generator(0x7468, member).random(series_len)
        mat = distance_matrix(window_builds(values, rho, cfg))
        best = min(best, mat[np.triu_indices(mat.shape[0], k=1)].min())
    return best


def graph_from_edges(n, edges):
    return VisibilityGraph(n, 0, np.array(sorted(i * n + j for i, j in edges), dtype=np.int64))


class TestWindows:
    def test_paper_scale_case(self):
        assert len(make_windows(8600, WindowConfig(500, 100))) == 82

    def test_single_window(self):
        assert make_windows(500, WindowConfig(500, 100)) == [(0, 500)]

    def test_overlap(self):
        wins = make_windows(1000, WindowConfig(500, 100))
        assert len(wins) == 6
        assert wins[0] == (0, 500)
        assert wins[1] == (100, 600)
        # consecutive windows share window_len - step samples
        assert wins[0][1] - wins[1][0] == 400

    def test_last_window_fits(self):
        for n, L, l in ((8600, 500, 100), (1234, 100, 33), (57, 20, 7)):
            wins = make_windows(n, WindowConfig(L, l))
            assert wins[-1][1] <= n
            assert (n - wins[-1][1]) < l  # no further window fits

    def test_validation(self):
        with pytest.raises(ValueError):
            make_windows(100, WindowConfig(200, 10))
        with pytest.raises(ValueError):
            WindowConfig(100, 0)
        with pytest.raises(ValueError):
            WindowConfig(100, 100)
        with pytest.raises(ValueError, match="window_len must be >= 2, got 1"):
            WindowConfig(1, 1)


class TestGraphDistance:
    def test_identical_graphs(self):
        g = build_lphvg([3, 1, 2, 4], 1)
        assert graph_distance(g, g) == 0.0

    def test_one_edge_difference(self):
        g1 = build_lphvg([1, 2, 3, 4], 0)  # path
        g2 = build_lphvg([1, 3, 2, 4], 0)  # path plus (1,3)
        assert graph_distance(g1, g2) == pytest.approx(math.sqrt(2))

    def test_path4_vs_k4(self):
        path = build_lphvg([1, 2, 3, 4], 0)
        k4 = build_lphvg([3, 1, 2, 4], 1)
        # same node count, rho differs; distance is about adjacency only
        assert graph_distance(path, k4) == pytest.approx(math.sqrt(6))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            graph_distance(build_lphvg([1, 2], 0), build_lphvg([1, 2, 3], 0))


class TestDistanceMatrix:
    def test_identical_graphs_zero(self):
        g = build_lphvg([1, 5, 2, 4, 3], 1)
        mat = distance_matrix([g, g, g])
        assert np.array_equal(mat, np.zeros((3, 3)))

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(0)
        graphs = [build_lphvg(rng.random(40), 1) for _ in range(5)]
        mat = distance_matrix(graphs)
        assert np.array_equal(mat, mat.T)
        assert np.array_equal(np.diag(mat), np.zeros(5))
        assert np.array_equal(mat, pairwise(graphs))

    @pytest.mark.parametrize(
        "values", [monotone_values, plateau_values, sawtooth_values],
        ids=["monotone", "plateau", "sawtooth"],
    )
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), rho=rhos)
    def test_window_graphs_match_pairwise(self, values, data, rho):
        x = np.asarray(data.draw(values))
        window_len = data.draw(st.integers(min_value=2, max_value=x.size))
        step = data.draw(st.integers(1, max(1, window_len - 1)))
        graphs = window_builds(x, rho, WindowConfig(window_len, step))
        assert np.array_equal(distance_matrix(graphs), pairwise(graphs))

    @pytest.mark.parametrize(
        "values", [monotone_values, plateau_values, sawtooth_values],
        ids=["monotone", "plateau", "sawtooth"],
    )
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), rho=rhos)
    def test_window_codes_match_pairwise(self, values, data, rho):
        x = np.asarray(data.draw(values))
        window_len = data.draw(st.integers(min_value=2, max_value=x.size))
        step = data.draw(st.integers(1, max(1, window_len - 1)))
        cfg = WindowConfig(window_len, step)
        codes = _window_codes(build_lphvg(x, rho), make_windows(x.size, cfg))
        graphs = window_builds(x, rho, cfg)
        assert all(np.array_equal(c, g.edge_codes) for c, g in zip(codes, graphs, strict=True))
        # the window's own code space takes either column rule; a wider one forces np.unique
        total = sum(c.size for c in codes)
        for space in (window_len**2, window_len**2 + 4 * total):
            assert np.array_equal(_code_distances(codes, space), pairwise(graphs))

    @pytest.mark.parametrize("window_len, step, presence", [(10, 1, True), (60, 40, False)])
    def test_both_column_rules(self, window_len, step, presence):
        x = np.random.default_rng(window_len).random(100)
        cfg = WindowConfig(window_len, step)
        codes = _window_codes(build_lphvg(x, 1), make_windows(x.size, cfg))
        assert (window_len**2 <= 4 * sum(c.size for c in codes)) == presence
        assert np.array_equal(_code_distances(codes, window_len**2),
                              pairwise(window_builds(x, 1, cfg)))

    def test_graphs_without_edges(self):
        empty = graph_from_edges(6, [])
        assert np.array_equal(distance_matrix([empty]), np.zeros((1, 1)))
        assert np.array_equal(distance_matrix([empty, empty]), np.zeros((2, 2)))
        graphs = [empty, build_lphvg([3, 1, 4, 1, 5, 9], 1), empty,
                  graph_from_edges(6, [(0, 5)])]
        mat = distance_matrix(graphs)
        assert np.array_equal(mat, pairwise(graphs))
        assert mat[0, 3] == math.sqrt(2)

    @pytest.mark.parametrize("codes", [63, 64, 65])
    def test_codes_around_a_word_boundary(self, codes):
        # 12 nodes have 66 possible edges; the graphs use exactly `codes` of them
        pool = [(i, j) for i in range(12) for j in range(i + 1, 12)][:codes]
        rng = np.random.default_rng(codes)
        subsets = [pool, pool[-1:], pool[:1], []] + [
            [e for e in pool if rng.random() < 0.5] for _ in range(6)]
        graphs = [graph_from_edges(12, edges) for edges in subsets]
        assert np.unique(np.concatenate([g.edge_codes for g in graphs])).size == codes
        assert np.array_equal(distance_matrix(graphs), pairwise(graphs))

    @pytest.mark.parametrize("rho, window_len", [(0, 2), (1, 2), (1, 3), (3, 4)])
    def test_band_only_windows(self, rho, window_len, tmp_path, capsys):
        # window_len <= rho+1: every pair of a window is a band pair, always linked
        values = np.random.default_rng(rho).random(40)
        graphs = window_builds(values, rho, WindowConfig(window_len, 1))
        assert np.array_equal(distance_matrix(graphs), np.zeros((len(graphs),) * 2))
        series = tmp_path / "s.csv"
        series.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        rc = main(["evolve", "--input", str(series), "--rho", str(rho), "--window-len",
                   str(window_len), "--step", "1", "--ensemble", "2",
                   "--outdir", str(tmp_path / "run")])
        assert rc == 1
        assert "degenerate reference ensemble" in capsys.readouterr().err

    def test_empty_and_unequal_sizes(self):
        assert distance_matrix([]).shape == (0, 0)
        with pytest.raises(ValueError, match="node counts differ"):
            distance_matrix([build_lphvg([1, 2, 3], 0), build_lphvg([1, 2], 0)])


class TestThreshold:
    def test_deterministic_and_positive(self):
        cfg = WindowConfig(60, 20)
        a = threshold_from_random(cfg, 200, 1, RngConfig(5), ensemble=2)
        b = threshold_from_random(cfg, 200, 1, RngConfig(5), ensemble=2)
        assert a == b > 0

    def test_is_min_over_reference(self):
        # theta equals the smallest off-diagonal of some member's matrix
        cfg = WindowConfig(60, 20)
        rng = RngConfig(5)
        theta = threshold_from_random(cfg, 200, 1, rng, ensemble=3)
        mins = []
        for member in range(3):
            g = rng.generator(0x7468, member)
            values = g.random(200)
            graphs = [build_lphvg(values[a:b], 1) for a, b in make_windows(200, cfg)]
            mat = distance_matrix(graphs)
            mins.append(mat[np.triu_indices(mat.shape[0], k=1)].min())
        assert theta == min(mins)

    @pytest.mark.parametrize("rho", [0, 1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_equals_window_graph_pipeline(self, rho, seed):
        cfg = WindowConfig(60, 20)
        theta = threshold_from_random(cfg, 200, rho, RngConfig(seed), ensemble=3)
        assert theta == member_threshold_by_window_graphs(cfg, 200, rho, RngConfig(seed), 3)

    def test_bad_reference_refused_before_any_build(self, monkeypatch, tmp_path, capsys):
        def no_build(*args):
            raise AssertionError("built before the window count was checked")

        monkeypatch.setattr(lphvg.evolution, "build_lphvg", no_build)
        cfg = WindowConfig(60, 50)  # a series of 100 holds one window
        with pytest.raises(ValueError, match="need at least two windows"):
            threshold_from_random(cfg, 100, 1, RngConfig(0))
        with pytest.raises(ValueError, match="need at least two windows"):
            evolve(np.arange(100.0), 1, cfg, RngConfig(0))
        with pytest.raises(ValueError, match="ensemble must be >= 1"):
            evolve(np.arange(200.0), 1, cfg, RngConfig(0), ensemble=0)
        series = tmp_path / "s.csv"
        series.write_text("".join(f"{v}\n" for v in range(100)))
        rc = main(["evolve", "--input", str(series), "--rho", "1", "--window-len", "60",
                   "--step", "50", "--outdir", str(tmp_path / "run")])
        assert rc == 1
        assert "need at least two windows to form a reference distance" in capsys.readouterr().err

    def test_larger_ensemble_never_increases(self):
        cfg = WindowConfig(60, 20)
        t1 = threshold_from_random(cfg, 200, 1, RngConfig(5), ensemble=2)
        t2 = threshold_from_random(cfg, 200, 1, RngConfig(5), ensemble=4)
        assert t2 <= t1

    def test_validation(self):
        with pytest.raises(ValueError):
            threshold_from_random(WindowConfig(60, 20), 50, 1, RngConfig(0))
        with pytest.raises(ValueError):
            threshold_from_random(WindowConfig(60, 20), 200, 1, RngConfig(0), ensemble=0)


class TestPointwiseMaps:
    def test_correlation_index_cases(self):
        d = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 4.0], [1.0, 4.0, 0.0]])
        gamma = correlation_index(d, 2.0)
        assert gamma[0, 0] == 1.0
        assert gamma[0, 1] == 0.0  # d == theta counts as far
        assert gamma[0, 2] == pytest.approx(0.5)
        assert gamma[1, 2] == 0.0
        for theta in (5e-324, 1.5, 3.0, 1e300):  # d == theta is far, the next float below near
            d = np.array([theta, np.nextafter(theta, 0)])
            assert correlation_index(d, theta)[0] == 0.0
            assert correlation_index(d, theta)[1] > 0.0
            assert recurrence_matrix(d, theta).tolist() == [0, 1]
        # a far d is never divided: 1e308 / 1e-10 overflows, an error under this suite's filter
        assert correlation_index(np.array([1e308, 0.0]), 1e-10).tolist() == [0.0, 1.0]
        assert recurrence_matrix(np.array([1e308, 0.0]), 1e-10).tolist() == [0, 1]

    def test_recurrence_cases(self):
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        rec = recurrence_matrix(d, 2.0)
        assert rec[0, 0] == 1  # diagonal always recurrent
        assert rec[0, 1] == 0  # d == theta -> 0 (step function at 0)
        assert recurrence_matrix(d, 2.0 + 1e-9)[0, 1] == 1

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            correlation_index(np.zeros((2, 2)), 0.0)
        with pytest.raises(ValueError):
            recurrence_matrix(np.zeros((2, 2)), -1.0)


class TestEvolve:
    @pytest.mark.parametrize(
        "values", [monotone_values, plateau_values, sawtooth_values],
        ids=["monotone", "plateau", "sawtooth"],
    )
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), rho=rhos)
    def test_window_graphs_are_per_window_builds(self, values, data, rho):
        x = np.asarray(data.draw(values))
        assume(x.size >= 3)  # two windows at least
        window_len = data.draw(st.integers(2, x.size - 1))
        cfg = WindowConfig(window_len, data.draw(st.integers(1, min(window_len - 1,
                                                                     x.size - window_len))))
        seen = []

        def record(g):
            seen.append(g)
            return mean_degree_empirical(g)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lphvg.evolution, "mean_degree_empirical", record)
            mp.setattr(lphvg.evolution, "threshold_from_random", lambda *args: 1.0)
            res = evolve(x, rho, cfg, RngConfig(0), ensemble=1)
        builds = window_builds(x, rho, cfg)
        assert seen == builds
        assert np.array_equal(res.distances, pairwise(builds))

    def test_periodic_in_step_gives_identical_windows(self):
        # series period == step, so every window holds the same sample pattern
        rng = RngConfig(9)
        base = rng.generator().random(20)
        series = np.tile(base, 10)  # n=200, L=60, l=20
        res = evolve(series, 1, WindowConfig(60, 20), rng, ensemble=2)
        assert np.array_equal(res.distances, np.zeros_like(res.distances))
        assert np.all(res.gamma == 1.0)
        assert np.all(res.recurrence == 1)

    def test_same_phase_windows_recur(self):
        # windows whose starts differ by a multiple of the period hold the same
        # values, so the same graph: exact, whatever theta is
        res = evolve(gen_periodic(20, 2000, RngConfig(3)), 2, WindowConfig(200, 10),
                     RngConfig(0), ensemble=2)
        starts = np.array([a for a, _ in res.windows])
        same = (starts[:, None] - starts[None, :]) % 20 == 0
        assert res.window_count == 181
        assert np.all(res.distances[same] == 0)
        assert np.all(res.gamma[same] == 1.0) and np.all(res.recurrence[same] == 1)
        # as measured at this seed: theta 36.99, and the closest pair out of
        # phase at 39.1, so the recurrence is the same-phase mask
        assert np.array_equal(res.recurrence, same.astype(np.int8))

    def test_deterministic_replay(self):
        ts = gen_iid(IidSpec("uniform", 300, RngConfig(12)))
        a = evolve(ts, 1, WindowConfig(80, 40), RngConfig(1), ensemble=2)
        b = evolve(ts, 1, WindowConfig(80, 40), RngConfig(1), ensemble=2)
        assert np.array_equal(a.distances, b.distances)
        assert a.theta == b.theta
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(a.recurrence, b.recurrence)
        assert a.per_window == b.per_window

    def test_structure_invariants(self):
        ts = gen_iid(IidSpec("uniform", 400, RngConfig(13)))
        res = evolve(ts, 1, WindowConfig(100, 30), RngConfig(2), ensemble=2)
        assert res.window_count == len(res.windows) == len(res.per_window)
        assert np.array_equal(res.distances, res.distances.T)
        assert np.array_equal(np.diag(res.distances), np.zeros(res.window_count))
        assert np.all((res.gamma >= 0) & (res.gamma <= 1))
        assert np.array_equal(res.gamma > 0, res.recurrence == 1)
        assert np.all(np.diag(res.recurrence) == 1)

    def test_iid_vs_logistic_halves_are_distinguishable(self):
        # Non-overlapping windows share no positional structure, so the
        # distance matrix cannot separate a map regime from an iid one; the
        # per-window metrics do. Mean path length is the stable separator
        # (map windows are more small-world); degree and clustering barely
        # move for this map.
        n_half = 400
        iid = gen_iid(IidSpec("uniform", n_half, RngConfig(31))).values
        logi = gen_logistic(n_half, x0=0.3).values
        series = np.concatenate([iid, logi])
        cfg = WindowConfig(100, 50)
        for rho in (1, 2):
            res = evolve(series, rho, cfg, RngConfig(3), ensemble=2)
            mpl_first = np.mean(
                [w.mean_path_length for w in res.per_window if w.stop <= n_half]
            )
            mpl_second = np.mean(
                [w.mean_path_length for w in res.per_window if w.start >= n_half]
            )
            assert mpl_first - mpl_second > 0.05
            # the reference-minimum threshold keeps recurrences rare everywhere
            offdiag = res.recurrence.sum() - res.window_count
            assert offdiag <= 0.05 * res.window_count * (res.window_count - 1)


def assert_same_result(a, b):
    assert (a.window_count, a.windows, a.per_window) == (b.window_count, b.windows, b.per_window)
    assert a.theta.hex() == b.theta.hex()
    for field in ("distances", "gamma", "recurrence"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


@pytest.fixture
def fork_pids(monkeypatch):
    """Wraps os.fork; the list of the children it started, in the parent."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):  # neither running nor a zombie
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the threshold runs in process")
class TestThresholdChild:
    """evolve computes the reference threshold in a forked child."""

    CASES = {
        "uniform": np.random.default_rng(4).random(400),
        "trend": -np.arange(400.0) + 2 * np.random.default_rng(5).standard_normal(400),
        "plateau": np.repeat(np.random.default_rng(6).integers(0, 4, 80), 5).astype(float),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_same_result_without_fork(self, name, fork_pids, monkeypatch):
        args = (self.CASES[name], 2, WindowConfig(80, 40), RngConfig(7))
        forked = evolve(*args, ensemble=3)
        assert_reaped(fork_pids)
        monkeypatch.delattr(os, "fork")
        assert_same_result(evolve(*args, ensemble=3), forked)
        assert len(fork_pids) == 1

    def assert_broken_child_runs_in_process(self, fork_pids, monkeypatch, tmp_path, *patch):
        """evolve and the CLI, after monkeypatch.setattr(*patch) breaks the child, give the
        forked run's result and five tables, and leave no descriptor open."""
        values = self.CASES["uniform"]
        args = (values, 2, WindowConfig(80, 40), RngConfig(7))
        series = tmp_path / "s.csv"
        series.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        argv = ["evolve", "--input", str(series), "--rho", "2", "--window-len", "80",
                "--step", "40", "--seed", "7", "--ensemble", "3", "--outdir"]
        forked = evolve(*args, ensemble=3)
        assert main(argv + [str(tmp_path / "forked")]) == 0
        assert len(fork_pids) == 2
        assert_reaped(fork_pids)

        monkeypatch.setattr(*patch)
        proc = os.path.isdir("/proc/self/fd")
        open_fds = len(os.listdir("/proc/self/fd")) if proc else None
        assert_same_result(evolve(*args, ensemble=3), forked)
        if proc:  # both ends of the pipe are closed
            assert len(os.listdir("/proc/self/fd")) == open_fds
        assert main(argv + [str(tmp_path / "in_process")]) == 0
        for name in ("distances.csv", "gamma.csv", "recurrence.csv", "window_metrics.csv",
                     "theta.txt"):
            assert (tmp_path / "in_process" / name).read_bytes() == (
                tmp_path / "forked" / name).read_bytes()

    def test_failing_fork_runs_in_process(self, fork_pids, monkeypatch, tmp_path):
        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        self.assert_broken_child_runs_in_process(fork_pids, monkeypatch, tmp_path, os, "fork", fork)
        assert len(fork_pids) == 2

    def test_silent_child_runs_in_process(self, fork_pids, monkeypatch, tmp_path):
        parent, real = os.getpid(), threshold_from_random

        def die_in_child(*args):
            if os.getpid() != parent:
                os._exit(3)  # sends nothing
            return real(*args)

        self.assert_broken_child_runs_in_process(fork_pids, monkeypatch, tmp_path,
                                                 lphvg.evolution, "threshold_from_random",
                                                 die_in_child)
        assert len(fork_pids) == 4
        assert_reaped(fork_pids)

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "in-process"])
    def test_degenerate_reference_raises_value_error(self, fork, fork_pids, monkeypatch):
        if not fork:
            monkeypatch.delattr(os, "fork")
        values = np.random.default_rng(1).random(40)
        with pytest.raises(ValueError, match="degenerate reference ensemble"):
            evolve(values, 1, WindowConfig(2, 1), RngConfig(0), ensemble=2)
        if fork:
            assert_reaped(fork_pids)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_parent_failure_leaves_no_child(self, error, fork_pids, monkeypatch):
        def fail(graph):
            raise error("parent side")

        monkeypatch.setattr(lphvg.evolution, "mean_path_length", fail)
        with pytest.raises(error, match="parent side"):
            evolve(np.random.default_rng(3).random(2000), 2, WindowConfig(500, 100),
                   RngConfig(0))
        assert len(fork_pids) == 1
        assert_reaped(fork_pids)
