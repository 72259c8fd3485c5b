"""Inversion/deletion distances and ancestor reconstruction for circular
bacterial genomes, built on partial permutations."""

__version__ = "0.1.0"

from .errors import (CacheIntegrityError, CapacityError, GenomeParseError,
                     InvalidArgumentError, InvdelError, NoPathError,
                     WordTypeError)
from .pperm import PartialPerm, all_partial_perms, sigma_from_frames
from .genome import (Genome, ReferenceFrame, canonicalize,
                     genomes_from_token_lists, load_genomes, parse_genomes,
                     region_set_ops)
from .algebra import (Generator, Relation, Word, apply_to_frame,
                      eval_generator, eval_word, format_word, parse_word,
                      relation_table, rewrite_deletions_first)
from .cayley import (DClassGraph, MonoidEnumeration, class_cost,
                     enumerate_monoid, get_dclass_graph, monoid_size,
                     solve_pair_via_cayley)
from .align import (AlignmentSolution, min_over_reference_pairs, mu_oracle,
                    solve_pair, solve_sources)
from .distance import (AncestorScenario, DistanceResult, construct_ancestor,
                       directed_distance, distance_matrix, format_phylip,
                       format_tsv, mrca_distance, verify_scenario,
                       verify_scenario_report)
from .evolve import EvolutionScenario, random_genome, replay, simulate
from .npc import (BalancedSortInstance, partition_brute, partition_witness,
                  reduce_partition, solve_balancedsort)

__all__ = [
    "AlignmentSolution", "AncestorScenario", "BalancedSortInstance",
    "CacheIntegrityError", "CapacityError", "DClassGraph",
    "DistanceResult", "EvolutionScenario", "Generator", "Genome",
    "GenomeParseError", "InvalidArgumentError", "InvdelError",
    "MonoidEnumeration", "NoPathError", "PartialPerm", "ReferenceFrame",
    "Relation", "Word", "WordTypeError",
    "all_partial_perms", "apply_to_frame", "canonicalize",
    "class_cost", "construct_ancestor",
    "directed_distance", "distance_matrix", "enumerate_monoid",
    "eval_generator", "eval_word", "format_phylip", "format_tsv",
    "format_word", "genomes_from_token_lists", "get_dclass_graph",
    "load_genomes", "min_over_reference_pairs",
    "monoid_size", "mrca_distance", "mu_oracle", "parse_genomes",
    "parse_word", "partition_brute", "partition_witness", "random_genome",
    "reduce_partition", "region_set_ops", "relation_table", "replay",
    "rewrite_deletions_first", "sigma_from_frames", "simulate", "solve_pair",
    "solve_pair_via_cayley", "solve_balancedsort", "solve_sources",
    "verify_scenario",
    "verify_scenario_report",
]
