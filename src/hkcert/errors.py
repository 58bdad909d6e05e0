"""Error types shared across the package.

Plain ``ValueError`` is used for malformed arguments (mismatched lattices,
out-of-range parameters); the classes below mark outcomes callers are
expected to branch on.
"""


class SearchExhausted(RuntimeError):
    """A bounded search ran out of budget before finding a candidate.

    The message always names the budget that was exceeded so the failure is
    reproducible and reportable (CLI exit code 3).
    """


class ConstructionInvariantViolated(RuntimeError):
    """An identity the construction guarantees on a valid instance failed:
    a check run_pipeline records, or a step of the isometry reduction.

    Reaching this is a bug signal, never a property of a validated input.
    """
