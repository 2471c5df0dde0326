"""Exception types shared across the package."""


class GraphError(ValueError):
    """Invalid graph data or graph construction parameters."""


class ReachabilityError(GraphError):
    """Some regular node cannot reach a stubborn node; ``orphan_components``
    holds the components without one (none when A is not Schur stable)."""

    def __init__(self, message: str, orphan_components=()):
        super().__init__(message)
        self.orphan_components = tuple(orphan_components)


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or hit a degenerate system."""


class BudgetExceededError(RuntimeError):
    """Exact enumeration would exceed the combinatorial budget."""
