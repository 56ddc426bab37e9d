"""Maliva's core: the MDP model, training, and online rewriting."""

from .agent import MalivaAgent
from .middleware import Maliva, RequestOutcome
from .options import RewriteOption, RewriteOptionSpace
from .persistence import load_agent, save_agent
from .qnetwork import AdamParams, QNetwork
from .quality_aware import TwoStageHistory, TwoStageRewriter, build_one_stage
from .replay import ReplayMemory, ReplayOversampleWarning, Transition
from .reward import (
    EfficiencyReward,
    EpisodeOutcome,
    QualityAwareReward,
    RewardFunction,
)
from .rewriter import MDPQueryRewriter, RewriteDecision
from .trainer import DQNTrainer, TrainingConfig, TrainingHistory, train_validated

__all__ = [
    "AdamParams",
    "DQNTrainer",
    "EfficiencyReward",
    "EpisodeOutcome",
    "Maliva",
    "MalivaAgent",
    "MDPQueryRewriter",
    "QNetwork",
    "QualityAwareReward",
    "ReplayMemory",
    "ReplayOversampleWarning",
    "RequestOutcome",
    "RewardFunction",
    "RewriteDecision",
    "RewriteOption",
    "RewriteOptionSpace",
    "Transition",
    "TrainingConfig",
    "TrainingHistory",
    "TwoStageHistory",
    "TwoStageRewriter",
    "build_one_stage",
    "load_agent",
    "save_agent",
    "train_validated",
]
