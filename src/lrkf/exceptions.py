"""Exception types shared across the package."""


class NumericalDegeneracyError(RuntimeError):
    """A belief or intermediate quantity lost positive definiteness.

    Raised when a Cholesky factorization fails, an innovation turns
    non-finite, or a gradient blows up. The caller should abort the
    current step; the run harness records the failure per seed.
    """


class TuningError(RuntimeError):
    """Every random-search trial failed; the message lists their errors."""


class ConfigError(ValueError):
    """Invalid experiment configuration.

    Carries every violation found, not just the first one, in
    ``problems`` (list of "section.key: message" strings).
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
