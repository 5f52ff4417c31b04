"""The synthetic generator's output, pinned to recorded bytes.

The goldens replay ``tests/validate/workload.make_trace``, and the
address reference test changes together with the generator, so without
these digests a dropped or reordered random draw would go unnoticed in
tier-1.  Only the integer columns are hashed: the arrival times go
through libm (``exp``, ``log``), whose last bits may differ between
platforms.

A deliberate change to the generator's draws changes these digests;
record the new ones in the same change and say why.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.trace.synthetic import TraceStream, generate_trace, trace1_config, trace2_config


def _digest(records: np.ndarray) -> str:
    d = hashlib.sha256()
    for column, dtype in (("lblock", "<i8"), ("nblocks", "<i4"), ("is_write", "|b1")):
        d.update(np.ascontiguousarray(records[column], dtype=dtype).tobytes())
    return d.hexdigest()


def _two_va(cfg):
    return replace(cfg, va_disks=(4, 6), va_weights=(3.0, 1.0), va_write_skew=2.0)


@pytest.mark.parametrize(
    "cfg,expected",
    [
        (
            trace1_config(0.002),
            "61e34779dff4dd15408bee9f201fe50c05b43c5b1640d192f26b9f88078bd635",
        ),
        (
            trace2_config(0.05),
            "a196e2c6f6df2e73acf41e1ecc8afe40546862fba9f41c60ed12a3e88ccd372e",
        ),
        (
            _two_va(trace2_config(0.05)),
            "ae29f42a8b021e760fe4e14eef7e02200fe415725f22f23158954c6f0dc9636b",
        ),
    ],
    ids=["trace1@0.002", "trace2@0.05", "trace2-2va@0.05"],
)
def test_generate_trace_bytes(cfg, expected):
    assert _digest(generate_trace(cfg).records) == expected


def test_stream_chunk_bytes():
    """Every chunk, not only the first: each chunk's draws follow the
    previous chunk's on one generator, so a draw dropped from the chunk
    loop shows from the second chunk on."""
    stream = TraceStream(trace2_config(0.05), chunk_requests=1000)
    assert [(len(c), _digest(c)) for c in stream.chunks()] == [
        (1000, "dfd3a922ea45df7ea403aaa51f1cfd06e9281dfb650b98e382097d4d88c0fd17"),
        (1000, "623185220f6274890460f39be3c21a804807c17909cf03a8568128432b29179f"),
        (1000, "083ff4235a37ce7df77922a6b61159f43c135deeadb5f918b11e03536a5e03dd"),
        (477, "1691bb8b07a5e11c461d5260f08952528138d966013c2555e3071f85ae259634"),
    ]
