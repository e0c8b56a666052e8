"""Small numeric helpers used by several stages."""

import math

# Slack subtracted before ceil so that binary floating point noise in products
# like 1.2 * m cannot push an exact integer over the next boundary.
_CEIL_SLACK = 1e-9


def slack_ceil(value):
    """Ceiling of ``value`` that tolerates float noise just above an integer."""
    return math.ceil(value - _CEIL_SLACK)

