"""Differentially private SGD with group-aware clipping strategies.

The package trains softmax classifiers and one-hidden-layer ReLU MLPs
under three privatization strategies (uniform clipping, naive group
reweighting, group-adaptive clipping), tracks the privacy budget with an
integer-order RDP accountant, and measures the per-group accuracy cost of
privacy against a non-private baseline.
"""

from .clipping import GroupAdaptive, NaiveReweight, NonPrivate, Uniform
from .dataio import Dataset, ImbalanceSpec, load_census_csv, load_idx, \
    preprocess_census, split, subsample_group, synth_two_group
from .metrics import group_report, privacy_impact
from .model import ModelSpec, init_params
from .privacy import MechanismEvent, compose, to_epsilon
from .trainer import TrainConfig, train, train_nonprivate

__all__ = [
    "Dataset", "ImbalanceSpec", "GroupAdaptive", "MechanismEvent", "ModelSpec",
    "NaiveReweight", "NonPrivate", "TrainConfig", "Uniform",
    "compose", "group_report", "init_params", "load_census_csv", "load_idx",
    "preprocess_census", "privacy_impact", "split", "subsample_group",
    "synth_two_group", "to_epsilon", "train", "train_nonprivate",
]
