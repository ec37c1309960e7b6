"""Exception types shared across the package."""


class CuspedFormsError(Exception):
    pass


class PsiPowerCap(CuspedFormsError):
    """A twist-automorphism power built a word longer than
    words.MAX_WORD_LETTERS."""


class DegreeOverflow(CuspedFormsError):
    """`neighbors` was asked for a vertex with more than
    graph.MAX_NEIGHBORS horoball neighbours, or a `ball` would list more
    than graph.BALL_LISTING_MAX neighbours."""


class CapExceeded(CuspedFormsError):
    """A capped distance search ran past its cap without terminating."""


class FillDepthExceeded(CuspedFormsError):
    """Triangle filling recursed too deep; kappa is too small for the geometry."""


class Infeasible(CuspedFormsError):
    """The windowed filling LP has no solution that could be certified: the
    float solve found no optimal basis (grow the window), or the exact
    primal and dual read off that basis failed the optimality certificate
    (the message names the failed check)."""


class WindowTooLarge(CuspedFormsError):
    """The LP window has more than fill.LP_SIMPLEX_CAP simplices."""


class LipschitzViolation(CuspedFormsError):
    """A Lipschitz function violated its declared constant on queried points."""
