"""Golden CLI bytes: the sha256 of every frozen command output.

A refactor that must not change what the program prints is checked here
byte for byte. If a change is meant to alter an output, update its digest
and say which outputs moved and why. ``PYTHONPATH=src python
tests/test_golden.py`` prints ``case digest`` for every case, so a deliberate
refresh is a copy of the moved lines.

The bytes depend on the BLAS kernel of ``swap``'s 64x64 complex product
(README, "Output contracts"). They are frozen for a kernel with fused
multiply-add, such as OpenBLAS's ``SkylakeX`` and ``Haswell``. Under a kernel
without it (``OPENBLAS_CORETYPE=Sandybridge``, ``Nehalem`` or ``Prescott``)
four cases move by a last bit: ``inspect-GC-O``, ``run-exact-GC-csv``,
``run-exact-GC-json`` and ``verify``.
"""
from __future__ import annotations

import hashlib

import pytest

from dnaswap.cli import RunRequest, cmd_inspect, cmd_recognize, cmd_run, cmd_verify

SEED_MAX = 2**64 - 1

GOLDEN = {
    "run-exact-AT-table": "1dfd5693e247984e954ebe67911d4491ef0e952611d888b43faafe70567449af",
    "run-exact-AT-json": "30e30426695edcb7b7157728a5b98836e8420da3f002193222dcaed7044fc075",
    "run-exact-AT-csv": "a6fd49e88afe69f2ddd4924b78a0d22020b5d3b873a4b64bd91a0e429b3f0fd0",
    "run-exact-GC-table": "c42119b27e0387dd9a53afd336b39136b89f5b95bdec4657083bd1c4d692955e",
    "run-exact-GC-json": "9134bf3c82369dac4e7efa7975e47658aefdf3c02f371fa09dcfc13095cc81c6",
    "run-exact-GC-csv": "e0a6111ecf0f948c834613df13eb8660e13bef55b61943551a46520240c06bf5",
    "run-sample-AT-table-0-1": "43c2ecfecb908d2cd501e81ea3d966f53c08edc03bfe81c4bea7926b60deec01",
    "run-sample-AT-table-42-100000": "ba49fb7723f20d7756525a9ca219afae98c511d06e26b677029d29640942b342",
    "run-sample-AT-table-max-12345": "e26d2521aae829e19518d637ffc46f16d1e5a1c9f83553ec83e3ff5208f57854",
    "run-sample-AT-json-0-1": "b98fa67cc397beb00e7081fe5457e365e0f56cbd160e3cd0d9e9401f229ba1a5",
    "run-sample-AT-json-42-100000": "4cdca3f081c385eea253b6b61535ac3904154b0b8fa8776f3fb620847864992e",
    "run-sample-AT-json-max-12345": "7f6e3d019c866101996db051e6058c9e2c0ce875c023e12ae5e168b4f7e9b28b",
    "run-sample-AT-csv-0-1": "785772aeb6797a2d6afffe0bc0ddd65f3a5378accfd86717c5b2ec7ab30a1494",
    "run-sample-AT-csv-42-100000": "260e0ea3696f5b79256793597a81303f0306aa82ee72491f3275de3cd13b154b",
    "run-sample-AT-csv-max-12345": "36ba76459fc6fecd0891ea7e8856cb9ea628eaf6416dbed7cb788ed7db12fbd0",
    "run-sample-GC-table-0-1": "43c2ecfecb908d2cd501e81ea3d966f53c08edc03bfe81c4bea7926b60deec01",
    "run-sample-GC-table-42-100000": "618afd63c0285a78c7957f479511e99cea6678c8593e50d3d917b8c221715e1b",
    "run-sample-GC-table-max-12345": "a7a1850cd401a54865f379ae45bc68f4391f8909e617d8788fc3ceb7900838c3",
    "run-sample-GC-json-0-1": "fbb1e1c7a7ab6e452900124482aa907d2d3790827799e64043d95fde1276caa6",
    "run-sample-GC-json-42-100000": "c230005430c8a20e4bc0aedd4e5c3717db5350a0d14d1c8fe984cfe4c13f6ca5",
    "run-sample-GC-json-max-12345": "b1d5e3b098973931bfd4f8ba5e66ec888409bc5397be15f900e09f192693f128",
    "run-sample-GC-csv-0-1": "785772aeb6797a2d6afffe0bc0ddd65f3a5378accfd86717c5b2ec7ab30a1494",
    "run-sample-GC-csv-42-100000": "41746da7425a65e8200a53b4559c6f0d7b3be1245b3a375332431b24386c7974",
    "run-sample-GC-csv-max-12345": "74e00486335f8d8a63571dfe49fa39f32af6db288fc7086da5fecb65095f1bd9",
    "inspect-AT-I": "fc36db5b880fd0c3e3758975c8fa774699cf6f14e10858692cda86ef5cd527fc",
    "inspect-AT-Q": "d9d49ecd11f0a300fa401fbff25a268217edadf0619aea0187da095b77717b64",
    "inspect-AT-O": "7f7e2c2273092c8214293ae35a8b4d17599c5e306fbb9dea1048d10f3abcbbe7",
    "inspect-GC-I": "8e309718f5472f405a50d378778bcd4e4cb2c24e82fce962b89f40383fb86b64",
    "inspect-GC-Q": "9255d4c0f44e362d8bdb4e7aeeef04e2e58b91232aaa07a39451b3471eb83f73",
    "inspect-GC-O": "42bc3371dd41088e53adf2204a5bdd59a948c0e99b51f4413c73cfcce32ff3e3",
    "recognize-01": "757e10b89ccccf4f698765078cc4389ab81790c9b09dc6ce819b5eb675edfc74",
    "recognize-01-tautomers": "ba661810d2327dfc23cf14ffc3126cdd3bd1b7cd455ed138dc848c540194a065",
    "recognize-10": "cd6818bef243bc9b183a54b8584e0c6af34ab6e31d393bc4d6c5eaf2ecb47174",
    "recognize-10-tautomers": "90a4e2bd9b0a5a6600dda273fb76c8397f3dce0bf2a4eb21cff59deaaf8a846b",
    "verify": "0a7adb746a882737a1a28245a33011e2a74e4f77dccabe9344a667fb5ed44e8a",
    "verify-dump-reference": "feb37b40cbf3f23e1a8cff5347d722c86cd864ebdeda5f13c3d9df0c4d38ab22",
}


def render(case: str) -> str:
    """The output a case id names, e.g. ``run-sample-GC-csv-42-100000``."""
    parts = case.split("-")
    if parts[0] == "verify":
        return cmd_verify(dump_reference=len(parts) > 1)[0]
    if parts[0] == "inspect":
        return cmd_inspect(parts[1], parts[2])
    if parts[0] == "recognize":
        return cmd_recognize(parts[1], tautomers=len(parts) > 2)
    _, mode, pair, fmt, *sampling = parts
    req = RunRequest(pair=pair, mode=mode, fmt=fmt)
    if sampling:
        seed, shots = sampling
        req.seed = SEED_MAX if seed == "max" else int(seed)
        req.shots = int(shots)
    return cmd_run(req)


def digest(case: str) -> str:
    return hashlib.sha256(render(case).encode()).hexdigest()


def test_golden_set_covers_every_frozen_output():
    assert len(GOLDEN) == 36


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_output_bytes_are_frozen(case):
    assert digest(case) == GOLDEN[case]


if __name__ == "__main__":
    for case in sorted(GOLDEN):
        print(case, digest(case))
