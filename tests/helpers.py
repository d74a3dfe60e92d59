"""The helper names the acceptance suite imports, from :mod:`epcontrast.selfcheck`."""

from epcontrast import contrast as eval_loss  # noqa: F401
from epcontrast.selfcheck import central_diff, random_instance, rel_err  # noqa: F401
