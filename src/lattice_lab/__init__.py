"""Join-meet ideals of finite lattices: structures, Groebner bases, workflows."""

from .errors import (
    BadParameters,
    ExponentOverflow,
    IntersectionMismatch,
    LatticeLabError,
    NoBounds,
    NotALattice,
    NotAPoset,
    NotAdmissible,
    NotPureDifference,
    NotSaturatedInput,
    PreconditionViolated,
    RingMismatch,
    ZeroDivisor,
    ZeroPolynomial,
)
from .lattice import (
    Lattice,
    Rank2Interval,
    SublatticeWitness,
    build_lattice,
    dual,
    enumerate_admissible_sets,
    find_rank2_diamond,
    is_distributive,
    is_modular,
    join_irreducibles,
    restrict_to_complement,
)
from .fixtures import build_fixture, lattice_from_json, lattice_to_json
from .poly import (
    BlockOrder,
    MonomialOrder,
    Poly,
    PolyRing,
    compare,
    degrevlex,
    lex,
    sort_key,
)
from .groebner import (
    Ideal,
    MonomialIdeal,
    ReducedGB,
    buchberger,
    colon,
    eliminate,
    ideal_equal,
    ideal_member,
    initial_ideal,
    intersect,
    is_squarefree,
    krull_dim,
    normal_form,
    radical_member,
    saturate,
    verify_groebner,
)
from .snf import smith_normal_form
from .workflows import (
    PrimeComponent,
    RadicalCertificate,
    ScanReport,
    certify_prime_component,
    component_prime,
    join_meet_ideal,
    lk_suite,
    minimal_primes,
    radical_certificate,
    squarefree_order_scan,
)

__version__ = "0.1.0"
