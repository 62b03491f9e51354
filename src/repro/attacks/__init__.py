"""End-to-end reproductions of the paper's Section III attacks."""

from repro.attacks.cloning import (
    CloneCampaignReport,
    clone_spec,
    launch_clone,
    run_healed_disk_campaign,
    run_window_campaign,
    victim,
)
from repro.attacks.fork import (
    ForkAttackResult,
    run_fork_attack_defended,
    run_fork_attack_vulnerable,
)
from repro.attacks.rollback import (
    RollbackAttackResult,
    run_rollback_attack_defended,
    run_rollback_attack_vulnerable,
)

__all__ = [
    "CloneCampaignReport",
    "ForkAttackResult",
    "RollbackAttackResult",
    "clone_spec",
    "launch_clone",
    "run_fork_attack_defended",
    "run_fork_attack_vulnerable",
    "run_healed_disk_campaign",
    "run_rollback_attack_defended",
    "run_rollback_attack_vulnerable",
    "run_window_campaign",
    "victim",
]
