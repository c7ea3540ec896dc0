"""Desk-scale laboratory for bounded continued fractions, indefinite forms,
thin matrix semigroups, finite SL2 densities, and sifted trace experiments."""

__version__ = "0.1.0"

from .cf import (
    IDENTITY,
    Mat2,
    Surd,
    Word,
    canonical_rotation,
    cf_expand,
    check_word,
    fixed_point,
    is_reduced,
    parse_word,
    rotations,
    serialize_word,
    word_from_matrix,
    word_to_matrix,
)
from .dimension import DimensionEstimate, asymptote, cylinder_length, estimate, pressure_sum
from .errors import CapExceededError, ConfigError, InternalInvariantError
from .forms import (
    Form,
    FormCycle,
    class_cycles,
    count_mirror_merged,
    count_sign_merged,
    cycle,
    cycle_to_word,
    is_fundamental,
    is_reduced_form,
    matrix_to_form,
    reduce_form,
    reduced_forms,
    rho,
)
from .geodesics import (
    GeodesicProfile,
    emit_arcs,
    geodesic_profile,
    is_low_lying,
    max_height,
    rotation_heights,
)
from .modular import (
    beta,
    beta_bruteforce,
    kloosterman,
    rho_t_bruteforce,
    sl2_charsum,
    sl2_order,
    sqrt4_count,
)
from .semigroup import (
    AlephSet,
    BilinearSet,
    FixedSlice,
    SemigroupElement,
    WordRows,
    aleph_construct,
    aleph_error,
    ball_count,
    build_fixed_length_ball,
    build_pi,
    cyclic_classes,
    enumerate_ball,
    hensley_exponent,
    trace_fiber,
    trace_multiplicity,
    trace_multiplicity_by_divisors,
)
from .sieve import (
    BallSource,
    DiscriminantRecord,
    RemainderProfile,
    RemainderRow,
    SiftingSequence,
    A_q,
    almost_prime_census,
    class_census,
    discriminant_census,
    remainder_profile,
    sift_values,
    squarefree_census,
    squarefree_trace_census,
)
