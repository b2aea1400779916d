"""Exception types shared across the package."""


class InstanceError(ValueError):
    """Malformed or structurally invalid instance data."""


class InfeasibleError(InstanceError):
    """The instance (or a derived subproblem) admits no feasible solution."""


class InvariantError(RuntimeError):
    """An internal guarantee was violated; indicates a solver bug.

    Carries an optional ``payload`` with the offending objects serialized,
    so a failure can be reproduced from the message alone.
    """

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload


class BudgetError(RuntimeError):
    """A brute-force computation exceeded its configured budget.  With a
    ``budget`` such as "10 search nodes", ``message`` names what exceeded it."""

    def __init__(self, message, budget=None):
        if budget is not None:
            message = f"{message} exceeded its budget of {budget}"
        super().__init__(message)
        self.budget = budget
