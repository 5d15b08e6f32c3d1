"""Exception types shared across the package."""


class CutLabError(Exception):
    """Base class for all package errors."""


class UnknownNode(CutLabError):
    """A referenced node or element does not exist in the graph."""


class UnknownAtom(CutLabError):
    """A referenced atom does not belong to the probability space."""


class RemovingUncuttable(CutLabError):
    """An uncuttable element (infinite weight) was selected for removal."""


class NoFiniteCut(CutLabError):
    """Every s-t path consists of uncuttable elements only."""


class ParamOutOfRange(CutLabError):
    """Generator parameters violate their declared ranges."""


class SizeGuard(CutLabError):
    """Requested construction or search exceeds the configured size limit."""


class CoordinateOutOfRange(CutLabError):
    """A dictator coordinate lies outside the coordinate range."""


class InfeasibleDegrees(CutLabError):
    """Requested bipartite degrees admit no biregular graph."""


class LabelMismatch(CutLabError):
    """Label counts of a test and a constraint instance disagree."""


class LabelingNotPerfectOnWPrime(CutLabError):
    """The supplied labeling leaves an edge incident on W' unsatisfied."""


class Infeasible(CutLabError):
    """The optimization problem has no feasible solution."""


class RowPoolExceeded(CutLabError):
    """The cutting-plane row pool exceeded its configured cap."""


class SaveBurntVertex(CutLabError):
    """A fire-containment schedule tries to save an already burnt vertex."""


class InfeasibleLpInput(CutLabError):
    """A rounding routine received an LP solution that is not feasible."""


class MalformedInstance(CutLabError):
    """An instance document lacks a field or has one of the wrong type."""


class UnknownGenerator(CutLabError):
    """An instance does not carry usable generator provenance."""


class CertificateFailed(CutLabError):
    """A solver's answer failed the check that certifies it."""


class WrongProblemType(CutLabError):
    """A routine received an instance of a problem type it does not handle."""


def require(ok: bool, message: str) -> None:
    """Raise CertificateFailed unless ``ok``; unlike ``assert``, this check
    survives ``python -O``."""
    if not ok:
        raise CertificateFailed(message)


def require_problem(problem: object, kind: type) -> None:
    """Raise WrongProblemType unless ``problem`` is a ``kind``; unlike
    ``assert``, this check survives ``python -O``."""
    if not isinstance(problem, kind):
        raise WrongProblemType(
            f"expected a {kind.__name__} problem, got {type(problem).__name__}"
        )
