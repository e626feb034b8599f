"""Exception types shared across the package."""


class NoCoverageError(Exception):
    """All group confidences are zero at the query point, so the weighted-sum
    defuzzifier has a zero denominator and no crisp output exists."""


class EqualOutputConflict(Exception):
    """Two patterns with the same output level cannot share a plane group
    without erasing the pairing between inputs, so the merge is refused."""


class DividerUnderflowError(Exception):
    """The analog divider's denominator fell below its operating floor; this
    is the hardware counterpart of :class:`NoCoverageError`."""


class ZeroVarianceError(ValueError):
    """Reference outputs are constant, so fraction-of-variance-unexplained
    is undefined."""


class NoCoveragePresentError(ValueError):
    """A prediction vector handed to the error metric contains uncovered
    points; the caller must account for them instead of averaging them."""


class MalformedCsvError(ValueError):
    """A dataset file failed to parse; the message carries row and column
    diagnostics."""
