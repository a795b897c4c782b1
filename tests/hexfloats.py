"""The float-hex form that the digest suites hash and compare, and the
left-to-right normalization they build weights with."""


def float_hex(value):
    """``value`` with every float replaced by its ``float.hex`` string."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: float_hex(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [float_hex(v) for v in value]
    return value


def normalized(weights):
    """``weights`` over their total, added left to right: the builtin ``sum``
    compensates from Python 3.12, and the inputs must not depend on the
    interpreter."""
    total = 0.0
    for w in weights:
        total += w
    return tuple(w / total for w in weights)
