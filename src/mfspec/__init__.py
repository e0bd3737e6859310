"""Numerical Birkhoff-average multifractal spectra for interval IFS.

Estimates the Hausdorff dimension of level sets of Birkhoff averages over
the attractor of an iterated function system on [0,1], combining a
variational lower estimate over depth-n block measures with a Moran-equation
cylinder-cover upper estimate, with dedicated dispatch for systems carrying
indifferent (parabolic) fixed points.
"""

from .errors import (AlphaUnreachableError, ConfigError,
                     DegenerateCylinderError, EnumerationLimitError,
                     InfeasibleAlphaError, InsufficientDepthError,
                     InvalidScheduleError, MfspecError, NoCylindersError,
                     NotContractingError, SolverError)
from .geometry import (Branch, CylinderTable, IfsSystem, Interval,
                       cylinder_interval, example2_system, fold, g_eval,
                       geometric_potential, lambda_n, lemma1_gap,
                       linear_system, manneville_pomeau_system, project)
from .oracle import (BesicovitchSpec, MarkovBlockEntropy, besicovitch_spectrum,
                     brute_force_ratio, markov_block_entropy_exact,
                     similarity_dimension)
from .potentials import (PotentialSpec, coordinate, first_symbol,
                         indicator_branch, induced_word_function, polynomial)
from .spectrum import (DepthContext, LowerBoundResult, SamplerCheckpoint,
                       SolverOptions, SpectrumPoint, UpperBoundResult,
                       alternating_sampler, full_spectrum, lower_bound,
                       moran_dimension, parabolic_interval, upper_bound)
from .symbolic import (AbramovStats, Alphabet, BlockMeasure, MarkovChainSpec,
                       Word, WordFunction, abramov_stats, birkhoff_sum,
                       block_marginal, shannon_entropy, variation_bound,
                       word_label)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
