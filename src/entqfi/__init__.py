"""Entanglement measures and rotation-optimized mean QFI for two qubits.

The package generates seed-reproducible random two-qubit density matrices,
computes concurrence, negativity and the numerically minimized relative
entropy of entanglement, optimizes the mean quantum Fisher information
over local Euler rotations by exhaustive grid search, and classifies state
pairs by how the entanglement measures order against the optimized QFI.
"""

from . import experiment, fisher, measures, ordering, rotations, sampling, states
from .states import *
from .sampling import *
from .measures import *
from .fisher import *
from .rotations import *
from .ordering import *
from .experiment import *

# The public surface is every submodule's own __all__.
__all__ = [
    *states.__all__,
    *sampling.__all__,
    *measures.__all__,
    *fisher.__all__,
    *rotations.__all__,
    *ordering.__all__,
    *experiment.__all__,
]
