"""Golden-record regression: ``run_loocv(seed=0)`` is bit-frozen.

The digest committed at ``tests/golden/loocv_seed0.sha256`` (Trinity;
big.LITTLE and MPSoC beside it as ``loocv_<backend>_seed0.sha256``) is the
SHA-256 of the canonicalized record sequence (floats rendered via
``float.hex``, so a match means every bit of every float is identical).
Any change that perturbs the pipeline's numerical results — noise
stream, frontier construction, method decisions, record ordering —
fails here instead of slipping through unnoticed.

To re-freeze after an *intentional* behavioural change::

    PYTHONPATH=src python -c "
    from repro.evaluation import records_digest, run_loocv
    print(records_digest(run_loocv(seed=0).records))
    " > tests/golden/loocv_seed0.sha256

and explain the perturbation in the commit message.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.evaluation import canonical_record, record_lines, records_digest, run_loocv
from repro.faults import FaultPlan

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "loocv_seed0.sha256"


def golden_digest(backend: str = "trinity") -> str:
    name = "loocv_seed0" if backend == "trinity" else f"loocv_{backend}_seed0"
    return (GOLDEN_DIR / f"{name}.sha256").read_text().strip()


@pytest.fixture(scope="module")
def seed0_records():
    return run_loocv(seed=0).records


class TestCanonicalization:
    def test_canonical_record_is_json_safe(self, seed0_records) -> None:
        payload = canonical_record(seed0_records[0])
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped == payload

    def test_record_lines_are_order_sensitive(self, seed0_records) -> None:
        forward = record_lines(seed0_records[:4])
        assert forward == record_lines(seed0_records[:4])
        reversed_digest = records_digest(reversed(seed0_records[:4]))
        assert reversed_digest != records_digest(seed0_records[:4])

    def test_digest_sensitive_to_single_bit(self, seed0_records) -> None:
        base = seed0_records[:4]
        nudged = list(base)
        record = nudged[0]
        nudged[0] = record._replace(
            power_w=record.power_w + record.power_w * 2.0**-52
        )
        assert records_digest(nudged) != records_digest(base)


class TestGoldenRecord:
    def test_golden_file_is_a_sha256(self) -> None:
        digest = golden_digest()
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex

    def test_seed0_matches_golden(self, seed0_records) -> None:
        assert records_digest(seed0_records) == golden_digest()

    def test_empty_fault_plan_matches_golden(self) -> None:
        report = run_loocv(seed=0, fault_plan=FaultPlan(name="empty"))
        assert records_digest(report.records) == golden_digest()

    @pytest.mark.parametrize("backend", ["biglittle", "mpsoc"])
    def test_seed0_matches_golden_on_other_backends(self, backend) -> None:
        report = run_loocv(seed=0, backend=backend)
        assert records_digest(report.records) == golden_digest(backend)
