"""Plain-text key = value configuration files for experiment runs.

Format, one assignment per line:

    # comment lines start with '#' (inline '#' comments also allowed)
    gamma        = 2.0
    eps          = 0.1
    perturb_kind = bump

Keys are ExperimentConfig field names; values are parsed as bool
("true"/"false", in any case), int, float, or bare string, in that order,
and must then fit the field's type (an int is taken for a float, an
integral float for an int).  Unknown keys and mistyped values are errors
that name the key, so typos fail loudly.
"""

from dataclasses import fields, replace

from .experiment import ExperimentConfig

__all__ = ["parse_config_text", "apply_overrides"]


def _parse_scalar(text):
    t = text.strip()
    if t.lower() in ("true", "false"):
        return t.lower() == "true"
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


def parse_config_text(text):
    """Parse config text into a {key: value} dict (no validation here)."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        out[key] = _parse_scalar(value)
    return out


def _typed(key, value, kind):
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ValueError(f"config key {key!r} expects {kind.__name__}, got {value!r}")


def _coerce(updates):
    known = {f.name: f.type for f in fields(ExperimentConfig)}
    clean = {}
    for key, value in updates.items():
        if key not in known:
            raise KeyError(f"unknown config key {key!r}; known keys: "
                           + ", ".join(sorted(known)))
        clean[key] = _typed(key, value, known[key])
    return clean


def apply_overrides(config, updates, check=ExperimentConfig.validate):
    """Return a new ExperimentConfig with updates applied and checked by `check`."""
    cfg = replace(config, **_coerce(updates))
    check(cfg)
    return cfg
