"""Graph classes defined by excluding Truemper configurations:
recognition by decomposition, exhaustive oracles and synthesis."""

__version__ = "0.1.0"

from .graph import (Graph, biconnected_blocks, components, find_claw,
                    find_diamond, format_edge_list, from_graph6,
                    induced_subgraph, is_chordless_cycle_sequence,
                    is_chordless_path_sequence, is_clique_graph, is_connected,
                    is_hole_graph, is_path_sequence, is_triangle_free,
                    parse_edge_list, read_graph_file, write_graph_file)
from .oracle import (ConfigWitness, DEFAULT_CAP, KINDS, OracleScaleError,
                     contains_config, has_star_cutset, is_long_pyramid,
                     is_prism, is_pyramid, is_theta, is_wheel, scan_configs)
from .cutset import (CliqueSplit, blocks_of_clique_split,
                     clique_decomposition_tree, find_clique_cutset)
from .decomp import DecompNode, DecompTree
from .twojoin import (TwoJoinSplit, blocks_of_2join,
                      compose_2join, compose_2join_with_split, find_2join,
                      is_consistent, two_join_decomposition_tree,
                      validate_split)
from .basic import (BasicVerdict, LabeledSafeTree, build_pyramid_basic,
                    classify_basic, is_chordless_graph, is_lg_tf_chordless,
                    is_pyramid_basic, is_safe_tree, line_graph,
                    pendant_siblings, root_graph)
from .recognize import (RecognitionReport, recognize_only_prism,
                        recognize_only_pyramid,
                        recognize_universally_signable)
from .gen import (SynthRecipe, glue_on_clique, plant_configuration,
                  random_tf_chordless, replay_recipe, synth_only_prism,
                  synth_only_pyramid)
