"""Dynamic program: enumeration, optimization, counting, sampling."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from types import MappingProxyType

import pytest

from oracles import (
    brute_presence_history,
    component_profile,
    consistent_subsets,
    joint_assignment_count,
    per_walk_samples,
    profile_optimum,
    random_instance,
    random_topology,
    random_weights,
    union_components,
)
from scjlabel import dp
from scjlabel.core import (
    Adjacency,
    Genome,
    WeightTable,
    chromosome_adjacencies,
    fmt,
    objective_units,
)
from scjlabel.dp import (
    FORBIDDEN,
    count_cooptimal,
    evaluate_component_labeling,
    leaf_costs,
    presence_counts,
    presence_states,
    presence_sweep,
    sample_component,
    solve_component,
)
from scjlabel.errors import CapacityExceeded, InputError, InternalInvariantError
from scjlabel.formats import parse_newick
from scjlabel.graph import build_global_graph, candidate_adjacencies, connected_components
from scjlabel.ilp import build_model, solve_bb
from scjlabel.sim import SimConfig, evolve
from scjlabel.weights import boltzmann_weight_table


def genome_of(markers, *chromosomes):
    adjacencies = set()
    for chromosome in chromosomes:
        adjacencies |= chromosome_adjacencies(chromosome)
    return Genome(frozenset(adjacencies), frozenset(markers))


def components_of(tree, weights=None, threshold=0):
    weights = weights if weights is not None else WeightTable()
    graph = build_global_graph(
        tree, candidate_adjacencies(tree), weights, threshold
    )
    return connected_components(graph)


def three_leaf_instance():
    tree = parse_newick("((s1,s2)anc2,s3)anc1;")
    markers = {1, 2}
    return tree.with_genomes({
        "s1": genome_of(markers, (1, 2)),
        "s2": genome_of(markers, (1, 2)),
        "s3": genome_of(markers, (1,), (2,)),
    })


def label_sets(table, node_id):
    """The DP's labels at one node, as adjacency sets in table order."""
    edges = table.edge_order
    return [
        frozenset(e for i, e in enumerate(edges) if mask >> i & 1)
        for mask in table.labels[node_id]
    ]


# ---------------------------------------------------------------------------
# Label enumeration


class TestEnumerateLabels:
    """The label lists the DP enumerates per node (``DpTable.labels``)."""

    def test_empty_label_comes_first(self):
        tree = three_leaf_instance()
        component = components_of(tree)[0]
        _, table = solve_component(component, tree, WeightTable(), "1/2")
        assert label_sets(table, tree.id_of("anc2")) == [
            frozenset(), frozenset({Adjacency.of("1h", "2t")}),
        ]

    def test_only_annotated_edges_are_offered(self):
        tree = three_leaf_instance()
        anc1, anc2 = tree.id_of("anc1"), tree.id_of("anc2")
        a = Adjacency.of("1h", "2t")
        weights = WeightTable({a: {anc2: 900_000}})
        component = components_of(tree, weights, "0.5")[0]
        _, table = solve_component(component, tree, weights, "1/2")
        assert label_sets(table, anc1) == [frozenset()]
        assert len(label_sets(table, anc2)) == 2

    def test_labels_are_exactly_the_matchings(self):
        rng = random.Random(53)
        for _ in range(15):
            tree = random_instance(
                rng, n_leaves=rng.randint(2, 4), n_markers=4
            )
            for component in components_of(tree):
                _, table = solve_component(
                    component, tree, WeightTable(), "1/2", explosion_cap=10**12
                )
                for v in tree.internal_ids():
                    got = label_sets(table, v)
                    assert got[0] == frozenset()
                    annotated = [
                        a for a in component.sorted_edges
                        if v in component.edges[a]
                    ]
                    want = consistent_subsets(annotated)
                    assert len(got) == len(want)
                    assert set(got) == set(want)

    def test_leaves_have_no_label_space(self):
        tree = three_leaf_instance()
        component = components_of(tree)[0]
        _, table = solve_component(component, tree, WeightTable(), "1/2")
        a = Adjacency.of("1h", "2t")
        assert label_sets(table, tree.id_of("s1")) == [frozenset({a})]
        assert label_sets(table, tree.id_of("s3")) == [frozenset()]

    def test_max_labels_bounds_the_space(self):
        tree = three_leaf_instance()
        component = components_of(tree)[0]
        assert component.label_space_bound == 4
        solve_component(component, tree, WeightTable(), "1/2", explosion_cap=16)
        with pytest.raises(CapacityExceeded):
            solve_component(
                component, tree, WeightTable(), "1/2", explosion_cap=15
            )


# ---------------------------------------------------------------------------
# Optimization


class TestSolveComponent:
    def test_hand_computed_three_leaf_instance(self):
        tree = three_leaf_instance()
        anc1, anc2 = tree.id_of("anc1"), tree.id_of("anc2")
        a = Adjacency.of("1h", "2t")
        weights = WeightTable({a: {anc1: 400_000, anc2: 800_000}})
        component = components_of(tree, weights)[0]

        solution, table = solve_component(component, tree, weights, "1/2")
        assert solution.objective == Fraction(1, 2)
        assert solution.scj_changes == 1
        assert solution.discarded_micro == 0
        assert solution.node_labels == {
            anc1: frozenset({a}), anc2: frozenset({a}),
        }
        assert count_cooptimal(table) == 1
        assert solution.cooptimal_count == 1
        assert solution.nodes_explored is None
        assert solution.objective_scaled == 10**6
        assert solution.scale == 2 * 10**6

    def test_alpha_extremes_on_the_same_instance(self):
        tree = three_leaf_instance()
        anc1, anc2 = tree.id_of("anc1"), tree.id_of("anc2")
        a = Adjacency.of("1h", "2t")
        weights = WeightTable({a: {anc1: 400_000, anc2: 800_000}})
        component = components_of(tree, weights)[0]

        solution, table = solve_component(component, tree, weights, 0)
        assert solution.objective == 1
        assert count_cooptimal(table) == 2
        solution, table = solve_component(component, tree, weights, 1)
        assert solution.objective == 0
        assert solution.discarded_micro == 0
        assert count_cooptimal(table) == 1

    def test_matches_full_enumeration(self):
        rng = random.Random(59)
        checked = 0
        while checked < 60:
            tree = random_instance(
                rng, n_leaves=rng.randint(2, 5), n_markers=4
            )
            weights = random_weights(rng, tree)
            for component in components_of(tree, weights, "0.2"):
                if joint_assignment_count(component, tree) > 20_000:
                    continue
                profile = component_profile(component, tree, weights)
                for alpha in ("0", "1/4", "1/2", "3/4", "1"):
                    want, want_count = profile_optimum(profile, alpha)
                    solution, table = solve_component(
                        component, tree, weights, alpha, explosion_cap=10**12
                    )
                    assert solution.objective == want
                    assert count_cooptimal(table) == want_count
                    checked += 1

    def test_oversized_label_spaces_are_refused(self):
        rng = random.Random(61)
        tree = random_instance(rng, n_leaves=6, n_markers=4)
        component = max(
            components_of(tree), key=lambda c: c.label_space_bound
        )
        with pytest.raises(CapacityExceeded):
            solve_component(component, tree, weights=WeightTable(),
                            alpha="1/2", explosion_cap=1)

    def test_needs_genomes(self):
        tree = three_leaf_instance()
        component = components_of(tree)[0]
        bare = parse_newick("((s1,s2)anc2,s3)anc1;")
        with pytest.raises(InputError):
            solve_component(component, bare, WeightTable(), "1/2")


# ---------------------------------------------------------------------------
# Counting and sampling


def cherry_gadget():
    """One adjacency present in one of two leaves: two co-optima."""
    tree = parse_newick("(s1,s2)anc1;")
    markers = {1, 2}
    return tree.with_genomes({
        "s1": genome_of(markers, (1, 2)),
        "s2": genome_of(markers, (1,), (2,)),
    })


def solved_table(tree):
    """DP table of the single component of a zero-weight gadget."""
    component = components_of(tree)[0]
    return solve_component(component, tree, WeightTable(), "1/2")[1]


def fork_gadget():
    """Two candidates sharing an extremity: three co-optimal labels."""
    tree = parse_newick("(s1,s2)anc1;")
    markers = {1, 2, 3}
    return tree.with_genomes({
        "s1": genome_of(markers, (1, 2), (3,)),
        "s2": genome_of(markers, (1, 3), (2,)),
    })


def count_rechecks(monkeypatch) -> list:
    """Arguments of every exact re-evaluation the DP runs from now on,
    by the general evaluator or the one-adjacency one."""
    calls = []

    def count(name):
        original = getattr(dp, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dp, name, counted)

    count("evaluate_component_labeling")
    count("_evaluate_one")
    return calls


class TestCountingAndSampling:
    def test_cherry_has_two_cooptima(self):
        tree = cherry_gadget()
        component = components_of(tree)[0]
        solution, table = solve_component(component, tree, WeightTable(), "1/2")
        assert solution.objective == Fraction(1, 2)
        assert count_cooptimal(table) == 2

    def test_fork_has_three_cooptima(self):
        tree = fork_gadget()
        component = components_of(tree)[0]
        solution, table = solve_component(component, tree, WeightTable(), "1/2")
        assert count_cooptimal(table) == 3

    def test_samples_reevaluate_to_the_optimum(self):
        rng = random.Random(67)
        for _ in range(10):
            tree = random_instance(rng, n_leaves=3, n_markers=4)
            weights = random_weights(rng, tree)
            for component in components_of(tree, weights):
                if component.label_space_bound > 300:
                    continue
                solution, table = solve_component(
                    component, tree, weights, "1/2"
                )
                for sample in sample_component(table, 10, seed=3):
                    scj, discarded = evaluate_component_labeling(
                        component, tree, weights, sample.node_labels
                    )
                    scaled = 10**6 * scj + 1 * discarded
                    assert scaled == solution.objective_scaled

    def test_sampling_is_fair_on_the_fork(self):
        tree = fork_gadget()
        anc1 = tree.id_of("anc1")
        n = 3000
        samples = sample_component(solved_table(tree), n, seed=11)
        tallies: dict[frozenset, int] = {}
        for sample in samples:
            key = sample.node_labels[anc1]
            tallies[key] = tallies.get(key, 0) + 1
        assert len(tallies) == 3
        for count in tallies.values():
            assert abs(count / n - 1 / 3) < 0.05

    def test_same_seed_same_samples(self):
        table = solved_table(fork_gadget())
        first = sample_component(table, 20, seed=9)
        second = sample_component(table, 20, seed=9)
        assert [s.node_labels for s in first] == [s.node_labels for s in second]
        other = sample_component(table, 20, seed=10)
        assert [s.node_labels for s in first] != [s.node_labels for s in other]

    def test_draw_order_is_pinned(self):
        # Recorded from the sampler; any change to the order or number
        # of RNG draws changes this sequence.
        tree = fork_gadget()
        anc1 = tree.id_of("anc1")
        none = frozenset()
        a = frozenset({Adjacency.of("1h", "2t")})
        b = frozenset({Adjacency.of("1h", "3t")})
        want = [
            a, b, a, a, none, none, b, none, a, b,
            a, b, none, a, b, b, b, none, b, a,
        ]
        samples = sample_component(solved_table(tree), 20, seed=9)
        assert [s.node_labels[anc1] for s in samples] == want

    def test_single_cooptimum_is_finished_once(self, monkeypatch):
        markers = {1, 2}
        tree = parse_newick("(s1,s2)anc1;").with_genomes({
            "s1": genome_of(markers, (1, 2)),
            "s2": genome_of(markers, (1, 2)),
        })
        table = solved_table(tree)
        assert count_cooptimal(table) == 1
        calls = count_rechecks(monkeypatch)

        class NoDraws(random.Random):
            def randrange(self, *args):
                raise AssertionError("a single co-optimum needs no draw")

        monkeypatch.setattr(dp.random, "Random", NoDraws)
        walks = []
        walker = dp._walker

        def counted_walker(table):
            walk = walker(table)

            def counted(pick):
                walks.append(pick)
                return walk(pick)

            return counted

        monkeypatch.setattr(dp, "_walker", counted_walker)
        samples = sample_component(table, 7, seed=1)
        assert len(samples) == 7
        assert all(s is samples[0] for s in samples)
        assert samples[0].node_labels == {
            tree.id_of("anc1"): frozenset({Adjacency.of("1h", "2t")})
        }
        assert len(calls) == 1
        assert len(walks) <= 1
        assert sample_component(table, 0, seed=1) == []

    def test_each_distinct_sample_is_rechecked_once(self, monkeypatch):
        table = solved_table(fork_gadget())
        calls = count_rechecks(monkeypatch)
        samples = sample_component(table, 200, seed=5)
        assert len(samples) == 200
        assert len(calls) <= 3
        # equal labelings share one solution object, and only those do
        distinct = {frozenset(s.node_labels.items()) for s in samples}
        assert len({id(s) for s in samples}) == len(distinct) == len(calls)

    def test_sample_bookkeeping(self):
        table = solved_table(cherry_gadget())
        samples = sample_component(table, 5, seed=1)
        assert len(samples) == 5
        assert all(s.cooptimal_count == 2 for s in samples)
        assert all(s.nodes_explored is None for s in samples)
        assert sample_component(table, 0, seed=1) == []
        with pytest.raises(InputError):
            sample_component(table, -1, seed=1)


def many_cooptima_tables():
    """Tables of the components with 30 or more co-optima (39 and 34) in
    ``simulate --markers 200 --leaves 12 --diameter-factor 0.5 --seed 1``
    with Boltzmann weights at kT 0.1, threshold 0.1 and alpha 0."""
    tree = evolve(SimConfig(n_markers=200, n_leaves=12, diameter_factor=0.5, seed=1)).tree
    weights = boltzmann_weight_table(tree, 0.1)
    tables = []
    for component in components_of(tree, weights, "0.1"):
        solution, table = solve_component(component, tree, weights, 0)
        if solution.cooptimal_count >= 30:
            tables.append(table)
    assert sorted(count_cooptimal(t) for t in tables) == [34, 39]
    return tables


class TestSamplerReference:
    """``sample_component`` draws what one full walk per sample draws
    (:func:`oracles.per_walk_samples`), draw for draw, at the cost of
    its draws."""

    def test_matches_the_per_walk_reference(self):
        tables = list(many_cooptima_tables())
        tree, component = eight_leaf_gadget()
        tables += [solve_component(component, tree, WeightTable(), a)[1] for a in ("0", "1/2")]
        rng = random.Random(127)
        for trial in range(120):
            tree = random_instance(
                rng, n_leaves=rng.randint(2, 7), n_markers=rng.randint(3, 5),
                non_binary=trial % 3 == 0,
            )
            # Mostly zero weights, so that ties, and co-optima, are common.
            weights = random_weights(rng, tree, zero_rate=0.8)
            for component in components_of(tree, weights, "0"):
                if component.label_space_bound <= 300:
                    alpha = rng.choice(("0", "1/2", "1"))
                    tables.append(solve_component(component, tree, weights, alpha)[1])
        varying = [t for t in tables if count_cooptimal(t) > 1]
        assert len(varying) >= 40
        assert sum(len(t.edge_order) > 1 for t in varying) >= 20  # the joint DP's
        for table in tables:
            for seed in (1, 2, 3):
                drawn = sample_component(table, 30, seed)
                assert [s.node_labels for s in drawn] == per_walk_samples(table, 30, seed)

    def test_a_sample_costs_at_most_one_walk(self, monkeypatch):
        # Steps walked, not argmin lists computed: the walker caches those.
        walked = []
        walker = dp._walker

        def counted_walker(table):
            walk, n_steps = walker(table), len(table.tree.internal_ids())

            def counted(pick, chosen=None, k=0):
                # a walk on from a choice point also takes that point's step
                walked.append(n_steps - k + (chosen is not None))
                return walk(pick, chosen, k)

            return counted

        monkeypatch.setattr(dp, "_walker", counted_walker)
        for table in many_cooptima_tables():
            n_steps = len(table.tree.internal_ids())
            seen, new, totals = set(), 0, [0]
            # The first n samples of a seed are the same for every count
            # n, so the n-th sample costs what n samples cost over n - 1.
            for n in range(1, 61):
                walked.clear()
                last = sample_component(table, n, seed=4)[-1]
                totals.append(sum(walked))
                cost = totals[-1] - totals[-2]
                key = frozenset(last.node_labels.items())
                if key in seen:
                    assert cost == 0
                else:
                    assert 1 <= cost <= n_steps
                    new += 1
                seen.add(key)
            assert new >= 20
            assert totals[-1] < 60 * n_steps / 2


# ---------------------------------------------------------------------------
# The two-state sweep of one-adjacency components


def joint_reference(component, tree, weights, alpha):
    """The joint-label DP's solution and table for any component."""
    return dp._solve_joint(component, tree, weights, objective_units(alpha))


def one_adjacency_cases(seeds, n_instances, *, non_binary=False):
    """(tree, weights, component) for every one-adjacency component of
    the oracle generator at thresholds 0 to 0.3."""
    for seed in seeds:
        rng = random.Random(seed)
        for _ in range(n_instances):
            tree = random_instance(
                rng, n_leaves=rng.randint(2, 8), n_markers=rng.randint(3, 7),
                non_binary=non_binary,
            )
            weights = random_weights(rng, tree)
            for threshold in ("0", "0.1", "0.2", "0.3"):
                for component in components_of(tree, weights, threshold):
                    if len(component.edges) == 1:
                        yield tree, weights, component


def tie_gadget():
    """One adjacency whose optimum ties at the root and, below an absent
    root, at anc2; three co-optima at alpha 1/2 and threshold 0."""
    tree = parse_newick("((s1,s2)anc2,s3)anc1;")
    markers = {1, 2}
    tree = tree.with_genomes({
        "s1": genome_of(markers, (1, 2)),
        "s2": genome_of(markers, (1,), (2,)),
        "s3": genome_of(markers, (1,), (2,)),
    })
    weights = WeightTable({Adjacency.of("1h", "2t"): {tree.id_of("anc2"): 1_000_000}})
    return tree, weights, components_of(tree, weights)[0]


def eight_leaf_gadget():
    """One adjacency on eight leaves with four co-optima at alpha 0 and
    1/2, the most any pattern of one candidate has there."""
    markers = {1, 2}
    held, lost = genome_of(markers, (1, 2)), genome_of(markers, (1,), (2,))
    tree = parse_newick(
        "(((s1,s2)a4,(s3,s4)a5)a2,((s5,s6)a6,(s7,s8)a7)a3)a1;"
    ).with_genomes({
        f"s{i}": held if i in (2, 6, 7, 8) else lost for i in range(1, 9)
    })
    (component,) = components_of(tree)
    return tree, component


def assert_same_table(table, reference):
    assert table.edge_order == reference.edge_order
    assert table.labels == reference.labels
    assert table.cost == reference.cost
    assert table.count == reference.count


class TestPresenceSweep:
    """The presence sweep, its counts and its arg-min states against every
    presence history, listed outright."""

    def test_matches_enumeration(self):
        rng = random.Random(113)
        seen = {"tie": 0, "unique": 0, "unary": 0, "multifurcation": 0}
        for trial in range(400):
            tree = random_topology(rng, rng.randint(2, 6), non_binary=trial % 2 == 1)
            internal, items = tree.internal_ids(), tree.internal_items()
            unit = rng.choice((0, 1, 2, 3, 1_000_000))
            leaf_state = {v: rng.randint(0, 1) for v in tree.leaves()}
            held = sum(tree.subtree_masks()[v] for v, s in leaf_state.items() if s)
            own = {}
            for v in internal:
                a0, a1 = rng.randint(0, 5), rng.randint(0, 5)
                kind = rng.random()  # free, present forbidden, or fixed present
                own[v] = (a0, None) if kind < 0.25 else (None, a1) if kind < 0.4 else (a0, a1)
            costs = [
                tuple(FORBIDDEN if a is None else a + c for a, c in zip(own[v], changes))
                for v, changes in zip(internal, leaf_costs(items, held, unit))
            ]
            down = presence_sweep(items, costs, unit)
            ways = presence_counts(items, down, unit)
            optimum = min(down[-1])
            count = sum(n for c, n in zip(down[-1], ways[-1]) if c == optimum)
            states = dict(zip(internal, presence_states(items, down, unit)))
            assert (optimum, count, states) == brute_presence_history(
                tree, own, leaf_state, unit
            )
            seen["tie" if count > 1 else "unique"] += 1
            degrees = {len(tree.nodes[v].children) for v in internal}
            seen["unary"] += 1 in degrees
            seen["multifurcation"] += max(degrees) > 2
        assert min(seen.values()) >= 20, seen


class TestSweep:
    """One-adjacency components against the joint-label DP."""

    def test_one_adjacency_components_skip_the_joint_dp(self, monkeypatch):
        tree, weights, component = tie_gadget()

        def refuse(*args):
            raise AssertionError("a one-adjacency component took the joint DP")

        monkeypatch.setattr(dp, "_solve_joint", refuse)
        solve_component(component, tree, weights, "1/2")

    def test_tables_and_solutions_match_the_joint_dp(self):
        checked = 0
        cases = itertools.chain(
            one_adjacency_cases((79, 83, 89, 101, 103), 30),
            # Unary nodes and multifurcations, as Newick input may hold.
            one_adjacency_cases((107, 109), 30, non_binary=True),
        )
        for tree, weights, component in cases:
            for alpha in ("0", "1/4", "1/2", "3/4", "1"):
                solution, table = solve_component(component, tree, weights, alpha)
                want, reference = joint_reference(component, tree, weights, alpha)
                assert_same_table(table, reference)
                assert solution.node_labels == want.node_labels
                assert solution.objective_scaled == want.objective_scaled
                assert solution.cooptimal_count == want.cooptimal_count
                assert solution == want
                checked += 1
        assert checked >= 700

    def test_ties_take_the_absent_state(self):
        tree, weights, component = tie_gadget()
        anc1, anc2 = tree.id_of("anc1"), tree.id_of("anc2")
        solution, table = solve_component(component, tree, weights, "1/2")
        want, reference = joint_reference(component, tree, weights, "1/2")
        assert_same_table(table, reference)
        assert table.labels[anc1] == table.labels[anc2] == [0, 1]
        # the root ties, and anc2 ties under an absent root
        assert table.cost[anc1][0] == table.cost[anc1][1]
        unit = table.units.change_unit
        assert table.cost[anc2][0] == table.cost[anc2][1] + unit
        assert solution.node_labels == {anc1: frozenset(), anc2: frozenset()}
        assert solution == want
        assert solution.cooptimal_count == 3

    def test_samples_match_the_joint_dp(self):
        tree, weights, component = tie_gadget()
        anc1, anc2 = tree.id_of("anc1"), tree.id_of("anc2")
        _, table = solve_component(component, tree, weights, "1/2")
        _, reference = joint_reference(component, tree, weights, "1/2")
        assert count_cooptimal(table) == 3
        for seed in (1, 2, 3):
            drawn = sample_component(table, 60, seed)
            assert [s.node_labels for s in drawn] == [
                s.node_labels for s in sample_component(reference, 60, seed)
            ]
        assert {(bool(s.node_labels[anc1]), bool(s.node_labels[anc2]))
                for s in drawn} == {(False, False), (False, True), (True, True)}

    def test_samples_match_the_joint_dp_on_eight_leaves(self):
        tree, component = eight_leaf_gadget()
        for alpha in ("0", "1/2"):
            _, table = solve_component(component, tree, WeightTable(), alpha)
            _, reference = joint_reference(component, tree, WeightTable(), alpha)
            assert_same_table(table, reference)
            assert count_cooptimal(table) == 4
            for seed in (4, 5):
                drawn = sample_component(table, 40, seed)
                assert [s.node_labels for s in drawn] == [
                    s.node_labels for s in sample_component(reference, 40, seed)
                ]
                assert len({frozenset(s.node_labels.items()) for s in drawn}) >= 3


    def test_a_tampered_table_fails_the_recheck(self):
        tree, weights, component = tie_gadget()
        _, table = solve_component(component, tree, weights, "1/2")
        # A root row one unit too cheap: every labeling re-evaluates to more.
        table.cost[tree.root] = [c - 1 for c in table.cost[tree.root]]
        with pytest.raises(InternalInvariantError, match="table optimum"):
            sample_component(table, 1, seed=0)

    def test_the_recheck_reads_the_leaves_from_their_genomes(self):
        def branch_and_bound(component, tree, weights, alpha):
            return solve_bb(build_model(component, tree, weights, alpha))

        tie_tree, tie_weights, one = tie_gadget()
        fork = fork_gadget()
        (two,) = components_of(fork)
        assert len(two.edges) == 2
        for tree, weights, component, solve, message in [
            (tie_tree, tie_weights, one, solve_component, "table optimum"),  # the sweep
            (fork, WeightTable(), two, solve_component, "table optimum"),  # the joint DP
            (fork, WeightTable(), two, branch_and_bound, "bound bookkeeping drifted"),
        ]:
            # The solvers read leaf states from the tree's candidate masks;
            # claim that no leaf holds any adjacency of the component.
            object.__setattr__(
                tree, "_candidates", MappingProxyType(dict.fromkeys(component.edges, 0))
            )
            with pytest.raises(InternalInvariantError, match=message):
                solve(component, tree, weights, "1/2")

    def test_presence_where_not_annotated_fails_the_recheck(self):
        tree, weights, _ = tie_gadget()
        (component,) = components_of(tree, weights, "0.5")  # anc2 only
        _, table = solve_component(component, tree, weights, "1/2")
        with pytest.raises(InternalInvariantError, match="held at unannotated anc1"):
            dp._finish_solution(table, {v: 1 for v in tree.internal_ids()}, 1)


# ---------------------------------------------------------------------------
# Re-evaluation


def split_cases(seed, n_instances):
    """(tree, weights, union component, the components inside it) on the
    oracle generator, for union components of at most 300 labels a node."""
    rng = random.Random(seed)
    for _ in range(n_instances):
        tree = random_instance(
            rng, n_leaves=rng.randint(2, 7), n_markers=rng.randint(3, 7)
        )
        weights = random_weights(rng, tree)
        threshold = rng.choice(("0.3", "0.5", "0.7"))
        graph = build_global_graph(
            tree, candidate_adjacencies(tree), weights, threshold
        )
        parts = connected_components(graph)
        for union in union_components(graph):
            if union.label_space_bound > 300:
                continue
            inside = [p for p in parts if p.edges.keys() <= union.edges.keys()]
            assert sorted(a for p in inside for a in p.edges) == sorted(union.edges)
            yield tree, weights, union, inside


class TestSplitComponents:
    """Components linked by a shared extremity and a shared node against
    the union components, linked by a shared extremity alone."""

    def test_the_parts_sum_to_the_union_optimum(self):
        split = 0
        for tree, weights, union, parts in split_cases(71, 400):
            split += len(parts) > 1
            for alpha in ("0", "1/2", "9/10", "1"):
                whole, _ = solve_component(union, tree, weights, alpha)
                assert sum(
                    solve_component(p, tree, weights, alpha)[0].objective_scaled
                    for p in parts
                ) == whole.objective_scaled
        assert split >= 20

    def test_the_parts_counts_multiply_to_the_union_count(self):
        split = 0
        for tree, weights, union, parts in split_cases(73, 400):
            split += len(parts) > 1
            for alpha in ("0", "1/2", "1"):
                product = 1
                for part in parts:
                    product *= solve_component(part, tree, weights, alpha)[0].cooptimal_count
                whole, _ = solve_component(union, tree, weights, alpha)
                assert product == whole.cooptimal_count
        assert split >= 20


class TestEvaluateLabeling:
    def test_hand_values(self):
        tree = three_leaf_instance()
        anc1, anc2 = tree.id_of("anc1"), tree.id_of("anc2")
        a = Adjacency.of("1h", "2t")
        weights = WeightTable({a: {anc1: 400_000}})
        component = components_of(tree, weights)[0]
        scj, discarded = evaluate_component_labeling(
            component, tree, weights,
            {anc1: frozenset(), anc2: frozenset({a})},
        )
        assert scj == 1
        assert discarded == 400_000

    def test_rejects_missing_or_foreign_labels(self):
        tree = three_leaf_instance()
        anc1, anc2 = tree.id_of("anc1"), tree.id_of("anc2")
        component = components_of(tree)[0]
        with pytest.raises(InputError):
            evaluate_component_labeling(
                component, tree, WeightTable(), {anc1: frozenset()}
            )
        foreign = frozenset({Adjacency.of("1t", "2h")})
        with pytest.raises(InputError):
            evaluate_component_labeling(
                component, tree, WeightTable(),
                {anc1: foreign, anc2: frozenset()},
            )

    def test_rejects_an_adjacency_not_annotated_at_its_node(self):
        tree = parse_newick("((s1,s2)anc2,s3)anc1;")
        markers = {1, 2, 3}
        tree = tree.with_genomes({
            "s1": genome_of(markers, (1, 2), (3,)),
            "s2": genome_of(markers, (1, 3), (2,)),
            "s3": genome_of(markers, (1, 2), (3,)),
        })
        anc1, anc2 = tree.id_of("anc1"), tree.id_of("anc2")
        a, b = Adjacency.of("1h", "2t"), Adjacency.of("1h", "3t")
        weights = WeightTable({a: {anc1: 1_000_000}, b: {anc2: 1_000_000}})
        # No node annotates both, so only the union component holds the two.
        graph = build_global_graph(tree, candidate_adjacencies(tree), weights, "0.5")
        (component,) = union_components(graph)
        assert component.edges == {a: frozenset({anc1}), b: frozenset({anc2})}
        with pytest.raises(InputError, match=f"anc1 holds {fmt(b)}"):
            evaluate_component_labeling(
                component, tree, weights,
                {anc1: frozenset({a, b}), anc2: frozenset({a})},
            )
        with pytest.raises(InputError, match=f"anc2 holds {fmt(a)}"):
            evaluate_component_labeling(
                component, tree, weights,
                {anc1: frozenset({a}), anc2: frozenset({a})},
            )
