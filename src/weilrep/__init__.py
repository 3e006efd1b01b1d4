"""Weil representations of symplectic groups over Z/p^n, exactly."""

from .rings import (QuadElem, QuadExt, legendre, smallest_nonresidue,
                    unit_phase)
from .symplectic import (FiniteGroup, SympModule, group_closure, orbits,
                         symplectic_group, transvection_generators)
from .heisenberg import SchrodingerModel, standard_selfdual
from .oscillator import OscillatorRep, bruhat_decompose, weil_index
from .ring_rep import (RingWeilRep, build_ring_rep, canonical_isotropic,
                       character_norm, decompose, shell_dimensions)
from .torus import (TorusContext, TorusSpec, multiplicity_report,
                    product_torus_multiplicities, residue_operator_check)

__version__ = "0.1.0"
