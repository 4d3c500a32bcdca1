"""Exact Markov chains for sequential agent models.

Compile a declarative model into its exact rational transition matrix,
verify proposed symmetries, reduce the chain over lumpable partitions,
analyze absorption, and validate everything against a seeded simulator.
"""

from .analysis import (absorption_analysis, classify_states, commutation_profile,
                       point_mass, propagate)
from .chain import (Chain, RandomMap, build_micro_chain, enumerate_maps,
                    load_chain, read_sparse, write_sparse)
from .errors import (AnalysisError, CapExceededError, DocumentParseError,
                     MicrolumpError, NotLumpableError, ValidationError)
from .lumping import (Partition, check_lumpable, frequency_partition,
                      half_hypercube_partition, induced_partition,
                      load_partition, lump, moran_partition, read_partition,
                      singleton_partition, write_partition)
from .model import (Alphabet, ChoiceDistribution, ModelSpec, Topology,
                    UpdateRule, builtin_voter, load_model, model_fingerprint,
                    parse_model, serialize_model)
from .sim import SimRun, estimate_matrix, project_trajectory, simulate
from .space import Config, ConfigSpace, DEFAULT_CAP, default_cap
from .symmetry import (GeneratorSet, SpacePermutation, agent_symmetric_group,
                       attr_group_fixing, attr_symmetric_group, certify,
                       flip_generator, is_chain_symmetric, orbits,
                       parse_generator_file, parse_presets)

__version__ = "0.1.0"
