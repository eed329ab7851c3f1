"""Deterministic 64-bit seed derivation for trial streams."""


def derive_seed(master, *parts):
    """Stable 64-bit seed from a master seed and a tuple of labels."""
    import hashlib      # here, so that importing qrmix does not load it
    h = hashlib.blake2b(digest_size=8)
    h.update(int(master).to_bytes(8, "big", signed=False))
    for part in parts:
        h.update(b"/")
        h.update(str(part).encode("utf-8"))
    return int.from_bytes(h.digest(), "big")
