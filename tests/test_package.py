"""The package's public surface."""

import bidisk


def test_every_export_has_a_docstring():
    missing = []
    for name in bidisk.__all__:
        obj = getattr(bidisk, name)
        if not callable(obj):
            continue
        doc = obj.__doc__ or ""
        # a dataclass without a docstring gets its signature as one
        if not doc.strip() or doc.startswith(f"{name}("):
            missing.append(name)
    assert missing == []
