"""Shared exception types."""


class PreconditionFailure(ValueError):
    """A named hypothesis check failed before any certification could start.

    ``reason`` is a short machine-readable tag and ``detail`` says what
    failed; the message joins the two.  Certificate builders catch this and
    record a fail entry instead of propagating.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)
