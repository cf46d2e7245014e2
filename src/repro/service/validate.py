"""Shared bounds validation for CLI options and service invariants.

One helper, one failure type: every entry point that accepts numeric
limits (``--workers``, ``--timeout``, ``--samples``, cache sizes,
:class:`~repro.service.budget.Budget` invariants, retry counts) checks
them here and raises :class:`~repro.service.errors.ValidationError` — a
``ValueError`` subclass carrying the taxonomy kind ``validation`` — so
no combination of CLI inputs can reach the engines and surface as an
unhandled traceback.  The bounds are deliberately generous ceilings
against nonsense (a million workers), not tuning advice.
"""

from __future__ import annotations

import math
import os
from typing import Optional

from repro.core.measure import DEFAULT_SAMPLES, RIC_METHODS
from repro.service.errors import ValidationError

#: Hard ceilings: above these a value is a typo, not a configuration.
MAX_WORKERS = 1024
MAX_SAMPLES = 100_000_000
MAX_CACHE_SIZE = 10_000_000
MAX_RETRIES = 100

# ---------------------------------------------------------------------
# The engine-option schema: the --method/--samples/--seed options of the
# single-shot CLI.  The method names and DEFAULT_SAMPLES come from
# repro.core.measure, which the batch runner's job records, the
# planner's problem IR and the kernels share; the bounds and help text
# live here.
# ---------------------------------------------------------------------

#: The Monte-Carlo master seed of the CLI.
DEFAULT_SEED = 0


def check_method(name: str, value, choices):
    """*value* as one of *choices*; raises a typed ``validation`` error."""
    if value not in choices:
        raise ValidationError(
            f"{name} must be one of {'|'.join(choices)}, got {value!r}",
            details={"option": name, "value": repr(value),
                     "choices": list(choices)},
        )
    return value


def add_engine_options(parser) -> None:
    """Install the shared ``--method/--samples/--seed`` options on an
    :class:`argparse.ArgumentParser`."""
    parser.add_argument(
        "--method",
        choices=RIC_METHODS,
        default="exact",
        help="witness RIC engine: exact exponential sweep, the scalable "
        "deterministic Monte-Carlo estimator, or auto (the planner "
        "chooses by the size guards; default exact)",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=DEFAULT_SAMPLES,
        metavar="N",
        help=f"Monte-Carlo sample count (default {DEFAULT_SAMPLES})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        metavar="N",
        help=f"Monte-Carlo master seed (default {DEFAULT_SEED}; estimates "
        "are deterministic in (samples, seed))",
    )


def check_int(
    name: str,
    value,
    minimum: Optional[int] = None,
    maximum: Optional[int] = None,
) -> int:
    """*value* as an int within ``[minimum, maximum]`` (bools rejected)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(
            f"{name} must be an integer, got {value!r}",
            details={"option": name, "value": repr(value)},
        )
    if minimum is not None and value < minimum:
        raise ValidationError(
            f"{name} must be >= {minimum}, got {value}",
            details={"option": name, "value": value, "minimum": minimum},
        )
    if maximum is not None and value > maximum:
        raise ValidationError(
            f"{name} must be <= {maximum}, got {value}",
            details={"option": name, "value": value, "maximum": maximum},
        )
    return value


def check_positive_int(name: str, value, maximum: Optional[int] = None) -> int:
    return check_int(name, value, minimum=1, maximum=maximum)


def check_timeout(name: str, value) -> Optional[float]:
    """*value* as a positive finite float, or None (no limit)."""
    if value is None:
        return None
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"{name} must be a number of seconds, got {value!r}",
            details={"option": name, "value": repr(value)},
        ) from None
    if not math.isfinite(value) or value <= 0:
        raise ValidationError(
            f"{name} must be positive and finite, got {value}",
            details={"option": name, "value": value},
        )
    return value


def check_output_path(name: str, path) -> Optional[str]:
    """*path* as a writable output destination, creating parent dirs.

    ``--trace-out artifacts/run1/trace.json`` must not fail at the *end*
    of a long batch because ``artifacts/run1/`` does not exist: missing
    parent directories are created up front, and an uncreatable or
    unwritable location (or a *path* that is itself a directory) raises
    a typed :class:`ValidationError` before any work runs.  ``None``
    passes through (the option is unset).
    """
    if path is None:
        return None
    path = str(path)
    if os.path.isdir(path):
        raise ValidationError(
            f"{name} {path!r} is a directory, not a writable file path",
            details={"option": name, "path": path},
        )
    parent = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(parent, exist_ok=True)
    except OSError as exc:
        raise ValidationError(
            f"{name} parent directory {parent!r} cannot be created: {exc}",
            details={"option": name, "path": path, "parent": parent},
        ) from exc
    if not os.access(parent, os.W_OK):
        raise ValidationError(
            f"{name} location {parent!r} is not writable",
            details={"option": name, "path": path, "parent": parent},
        )
    return path


def validate_batch_options(
    workers: int = 1,
    timeout=None,
    samples: int = 1,
    cache_size: int = 1,
    retries: int = 1,
    seed: int = 0,
) -> None:
    """Check every numeric batch/advisor option in one place.

    Raises :class:`ValidationError` on the first violation; callers map
    it to exit code 2 (bad input) with the structured message.
    """
    check_positive_int("workers", workers, maximum=MAX_WORKERS)
    check_timeout("timeout", timeout)
    check_positive_int("samples", samples, maximum=MAX_SAMPLES)
    check_positive_int("cache-size", cache_size, maximum=MAX_CACHE_SIZE)
    check_positive_int("retries", retries, maximum=MAX_RETRIES)
    check_int("seed", seed)
