"""parkdet: exact combinatorial verification of parking-function ideals,
skeleton ideals and their Laplace-type determinant identities."""

from .exact_linalg import (
    CharPoly,
    IntMatrix,
    char_poly,
    det,
    det_cofactor,
    has_dominant_diagonal,
    is_psd,
    matrix,
    principal_submatrix,
)
from .formulas import (
    flat_parking_count,
    parking_dim_complete,
    root_deleted_signless_det,
    skeleton1_dim_complete,
    steck_count,
    step_weight_dim,
    step_weight_identity_holds,
)
from .monomial_ideals import (
    MonomialIdeal,
    colon,
    lambda_ideal,
    matrix_skeleton_ideal,
    parking_ideal,
    skeleton_ideal,
    step_weight_ideal,
)
from .multigraph import (
    Multigraph,
    complete_minus_root_edges,
    complete_multigraph,
    delete_root_edge,
    from_edges,
    laplacians,
    merge_into_root,
    random_multigraph,
    random_root_deletion,
)
from .standard_count import (
    NonArtinianError,
    count_standard,
    count_standard_ie,
    enumerate_standard,
)

__version__ = "0.1.0"
