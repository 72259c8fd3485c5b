"""Inversion/deletion distances and ancestor reconstruction for circular
bacterial genomes, built on partial permutations."""

__version__ = "0.1.0"

from .errors import (CapacityError, GenomeParseError, InvalidArgumentError,
                     InvdelError, NoPathError, WordTypeError)
from .pperm import PartialPerm, all_partial_perms, sigma_from_frames
from .genome import (Genome, ReferenceFrame, genomes_from_token_lists,
                     load_genomes, parse_genomes)
from .algebra import (Generator, Relation, Word, apply_to_frame,
                      eval_generator, eval_word, format_word, parse_word,
                      relation_table, rewrite_deletions_first)
from .cayley import enumerate_monoid, monoid_size
from .align import AlignmentSolution, mu_oracle, solve_pair, solve_sources
from .distance import (AncestorScenario, DistanceResult, construct_ancestor,
                       directed_distance, distance_matrix, format_phylip,
                       format_tsv, mrca_distance, verify_scenario_report)
from .evolve import EvolutionScenario, random_genome, replay, simulate
from .npc import (BalancedSortInstance, partition_witness, reduce_partition,
                  solve_balancedsort)

__all__ = [
    "AlignmentSolution", "AncestorScenario", "BalancedSortInstance",
    "CapacityError", "DistanceResult",
    "EvolutionScenario", "Generator", "Genome", "GenomeParseError",
    "InvalidArgumentError", "InvdelError",
    "NoPathError", "PartialPerm", "ReferenceFrame", "Relation", "Word",
    "WordTypeError",
    "all_partial_perms", "apply_to_frame", "construct_ancestor",
    "directed_distance", "distance_matrix", "enumerate_monoid",
    "eval_generator", "eval_word", "format_phylip", "format_tsv",
    "format_word", "genomes_from_token_lists", "load_genomes",
    "monoid_size", "mrca_distance", "mu_oracle",
    "parse_genomes", "parse_word", "partition_witness",
    "random_genome", "reduce_partition", "relation_table", "replay",
    "rewrite_deletions_first", "sigma_from_frames", "simulate", "solve_pair",
    "solve_balancedsort", "solve_sources",
    "verify_scenario_report",
]
