"""Exception hierarchy.

Everything raised on purpose by this package derives from AtError, so CLI
and library callers can catch one type. Structural build problems, algebra
mismatches, and parse problems get their own subclasses because tests (and
users) need to tell them apart.
"""


class AtError(Exception):
    pass


# -- tree construction ------------------------------------------------------

class TreeBuildError(AtError):
    pass


class DuplicateLabel(TreeBuildError):
    pass


class DanglingReference(TreeBuildError):
    pass


class BasWithChildren(TreeBuildError):
    pass


class GateWithoutChildren(TreeBuildError):
    pass


class CyclicStructure(TreeBuildError):
    def __init__(self, msg, cycle=None):
        super().__init__(msg)
        self.cycle = cycle or []


class MultipleRoots(TreeBuildError):
    pass


class NoRoot(TreeBuildError):
    pass


class UnknownNode(AtError):
    pass


# -- domains and attributions -----------------------------------------------

class UnknownDomain(AtError):
    pass


class EmptyProduct(AtError):
    pass


class InvalidDomain(AtError):
    """A domain declares a law it does not know or cannot have."""


class BadAttributeValue(AtError):
    pass


class MissingAttribution(AtError):
    pass


class NotProbability(AtError):
    pass


# -- semantics / algorithm preconditions -------------------------------------

class DynamicTreeRejected(AtError):
    """A static-only operation was handed a tree containing SAND gates."""


class DagRejected(AtError):
    """A tree-only algorithm was handed a DAG-structured model."""


class IllFormed(AtError):
    """Dynamic model whose ordering graph has a cycle."""

    def __init__(self, msg, cycle=None):
        super().__init__(msg)
        self.cycle = cycle or []


class BudgetExceeded(AtError):
    pass


class NotSemiring(AtError):
    pass


class NotSemiringDynamic(AtError):
    pass


class UnsupportedDomainForKTop(AtError):
    pass


class IncompatibleDomain(AtError):
    pass


class InvalidRequest(AtError, ValueError):
    """An analysis request names an unknown algorithm or an impossible k."""


class OrderMismatch(AtError):
    pass


class InvalidBdd(AtError):
    """A structural invariant of the decision diagram store was violated."""


# -- model files --------------------------------------------------------------

class ModelSyntaxError(AtError):
    def __init__(self, msg, line=None, col=None):
        loc = "" if line is None else f" at line {line}" + ("" if col is None else f", col {col}")
        super().__init__(msg + loc)
        self.line = line
        self.col = col


class DuplicateDefinition(ModelSyntaxError):
    pass
