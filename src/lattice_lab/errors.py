"""Exception types shared across the package."""


class LatticeLabError(Exception):
    """Base class for all package errors."""


class NotAPoset(LatticeLabError):
    """The cover relation contains a cycle."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(f"cover relation has a cycle through {self.cycle}")


class NotALattice(LatticeLabError):
    """Some pair of elements has no unique join or meet."""

    def __init__(self, pair, which):
        self.pair = tuple(pair)
        self.which = which  # "join" or "meet"
        super().__init__(f"pair {self.pair} has no unique {which}")


class NoBounds(LatticeLabError):
    """No unique minimum or maximum element exists."""


class NotAdmissible(LatticeLabError):
    """A subset fails the cover-both-or-none condition."""

    def __init__(self, subset, binomial_pair):
        self.subset = tuple(subset)
        self.binomial_pair = binomial_pair
        super().__init__(
            f"subset {self.subset} covers only one side of the basic binomial "
            f"for the pair {binomial_pair}"
        )


class PreconditionViolated(LatticeLabError):
    """An operation was called outside its stated domain."""


class BadParameters(LatticeLabError):
    """Fixture parameters out of range or malformed."""


class RingMismatch(LatticeLabError):
    """Operands live in different polynomial rings."""


class ZeroPolynomial(LatticeLabError):
    """Leading term of the zero polynomial requested."""


class ZeroDivisor(LatticeLabError):
    """Colon or saturation by zero."""


class ExponentOverflow(LatticeLabError):
    """An exponent outgrew the engine's packed 15-bit field."""


class NotPureDifference(LatticeLabError):
    """A generator is not a difference of two monomials (or a variable)."""

    def __init__(self, poly):
        self.poly = poly
        super().__init__(f"not a pure difference of monomials: {poly}")


class NotSaturatedInput(LatticeLabError):
    """Primality certification requires input saturated w.r.t. its variables."""


class IntersectionMismatch(LatticeLabError):
    """Computed component intersection differs from the join-meet ideal."""

    def __init__(self, lattice):
        self.lattice = lattice
        super().__init__(
            "intersection of components does not equal the join-meet ideal")
