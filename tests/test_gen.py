import hashlib
import random

import pytest

from truemper.basic import is_chordless_graph
from truemper.gen import (SynthRecipe, glue_on_clique, plant_configuration,
                          random_tf_chordless, replay_recipe,
                          synth_only_prism, synth_only_pyramid)
from truemper.graph import Graph, components, format_edge_list, is_triangle_free
from truemper.oracle import contains_config
from truemper.recognize import recognize_only_prism, recognize_only_pyramid

from util import reference_is_chordless_graph

# sha256 of format_edge_list(random_tf_chordless(1, 400)), taken while the
# chord test still walked the whole graph once per edge
SCALE_ROOT_SHA256 = "4c7e4de5281931b9c3230c4f2fc247bfb92ca59194bcae5fa58d62a227d3de59"


class TestRandomTfChordless:
    def test_properties_hold(self):
        for seed in (0, 1, 7):
            g = random_tf_chordless(seed, 20)
            assert is_triangle_free(g) and is_chordless_graph(g)

    def test_deterministic(self):
        assert random_tf_chordless(3, 12) == random_tf_chordless(3, 12)

    def test_single_node(self):
        assert random_tf_chordless(0, 1).n == 1

    @pytest.mark.slow
    def test_scale_root_is_pinned(self):
        # the root of the n=481 line graph: every accepted or refused extra
        # edge goes through the chord test, so its edge list pins that test
        r = random_tf_chordless(1, 400)
        assert (r.n, r.m) == (400, 481)
        text = format_edge_list(r)
        assert hashlib.sha256(text.encode()).hexdigest() == SCALE_ROOT_SHA256
        assert is_triangle_free(r) and reference_is_chordless_graph(r)


class TestGlueOnClique:
    def test_two_triangles_on_an_edge_give_a_diamond(self):
        tri = Graph.from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
        g = glue_on_clique(tri, (0, 1), tri, (0, 1))
        assert g.n == 4 and g.m == 5

    def test_two_holes_on_a_node(self):
        c5 = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        g = glue_on_clique(c5, (0,), c5, (0,))
        assert g.n == 9
        assert recognize_only_prism(g).verdict

    def test_empty_clique_gives_disjoint_union(self):
        tri = Graph.from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
        g = glue_on_clique(tri, (), tri, ())
        assert g.n == 6 and len(components(g)) == 2

    def test_non_clique_rejected(self):
        p3 = Graph.from_edge_list(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="clique"):
            glue_on_clique(p3, (0, 2), p3, (0, 1))

    def test_size_mismatch_rejected(self):
        tri = Graph.from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(ValueError, match="equal size"):
            glue_on_clique(tri, (0,), tri, (0, 1))


class TestSynthesis:
    def test_only_prism_accepted(self):
        for seed in range(8):
            g, recipe = synth_only_prism(seed, 10 + 3 * seed)
            assert recipe.ops and recipe.ops[0]["op"] == "factor"
            assert recognize_only_prism(g).verdict, (seed, g.edges())

    def test_only_pyramid_accepted(self):
        for seed in range(6):
            g, _ = synth_only_pyramid(seed, 12 + 4 * seed)
            assert recognize_only_pyramid(g).verdict, (seed, g.edges())

    def test_deterministic(self):
        a1, r1 = synth_only_pyramid(9, 20)
        a2, r2 = synth_only_pyramid(9, 20)
        assert a1 == a2 and r1.to_json() == r2.to_json()
        b1, _ = synth_only_prism(9, 20)
        b2, _ = synth_only_prism(9, 20)
        assert b1 == b2

    def test_recipes_replay_bit_exact(self):
        for seed in (2, 5):
            g, recipe = synth_only_prism(seed, 18)
            assert replay_recipe(recipe) == g
            g, recipe = synth_only_pyramid(seed, 18)
            assert replay_recipe(recipe) == g

    def test_recipe_json_round_trip(self):
        g, recipe = synth_only_pyramid(4, 16)
        again = SynthRecipe.from_json(recipe.to_json())
        assert replay_recipe(again) == g

    def test_induced_subgraphs_are_clean(self):
        rng = random.Random(60)
        g, _ = synth_only_pyramid(13, 28)
        from truemper.graph import induced_subgraph
        for _ in range(25):
            size = rng.randint(5, min(12, g.n))
            sub, _ = induced_subgraph(g, rng.sample(range(g.n), size))
            assert contains_config(sub, ("theta", "wheel", "prism")) is None


class TestPlantConfiguration:
    @pytest.mark.parametrize("kind", ["theta", "wheel", "prism", "pyramid"])
    def test_pattern_is_present(self, kind):
        for seed in range(6):
            g = plant_configuration(seed, kind, 12)
            assert g.n == 12
            assert contains_config(g, (kind,)) is not None

    def test_planted_prism_rejected_by_only_pyramid(self):
        for seed in range(6):
            g = plant_configuration(seed, "prism", 12)
            assert not recognize_only_pyramid(g).verdict

    def test_planted_pyramid_rejected_by_only_prism(self):
        for seed in range(6):
            g = plant_configuration(seed, "pyramid", 12)
            assert not recognize_only_prism(g).verdict

    def test_small_host_grows_to_fit(self):
        g = plant_configuration(0, "prism", 3)
        assert g.n >= 6

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            plant_configuration(0, "square", 10)

    def test_deterministic(self):
        assert plant_configuration(5, "theta", 12) == plant_configuration(5, "theta", 12)
