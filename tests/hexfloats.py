"""The float-hex form that the digest suites hash and compare."""


def float_hex(value):
    """``value`` with every float replaced by its ``float.hex`` string."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: float_hex(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [float_hex(v) for v in value]
    return value
