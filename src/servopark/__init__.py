"""Object-relative parking for differential-drive robots.

Closed-form planar pose estimation from matched camera features, chained
error coordinates, a switched parking controller with Riccati-synthesized
gains, and a deterministic closed-loop simulator around them.
"""

from .closed_loop_sim import Scenario, run
from .geometry import NormalizedFeature, Pose2
from .pose_estimator import MatchedPair, estimate_pose

__all__ = ["MatchedPair", "NormalizedFeature", "Pose2", "Scenario", "estimate_pose", "run"]

__version__ = "0.1.0"
