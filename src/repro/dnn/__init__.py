"""From-scratch NumPy DNN framework (the paper's training substrate)."""

from .data import Dataset, cnn_dataset, hdc_dataset, synthetic_images
from .layers import Conv2D, Dense, Dropout, Flatten, Layer, MaxPool2D, ReLU
from .losses import SoftmaxCrossEntropy
from .metrics import top1_accuracy, top5_accuracy, top_k_accuracy
from .models import (
    PAPER_MODELS,
    Hyperparameters,
    ModelSpec,
    build_hdc,
    build_mini_cnn,
    build_trainable,
)
from .network import Sequential
from .residual import BatchNorm2D, ResidualBlock, build_mini_resnet
from .optim import Adam, LRSchedule, Optimizer, SGD
from .training import (
    LocalTrainer,
    TrainResult,
    capture_gradient_trace,
    train_single_node,
)

__all__ = [
    "Dataset",
    "cnn_dataset",
    "hdc_dataset",
    "synthetic_images",
    "Conv2D",
    "Dense",
    "Dropout",
    "Flatten",
    "Layer",
    "MaxPool2D",
    "ReLU",
    "SoftmaxCrossEntropy",
    "top1_accuracy",
    "top5_accuracy",
    "top_k_accuracy",
    "PAPER_MODELS",
    "Hyperparameters",
    "ModelSpec",
    "build_hdc",
    "build_mini_cnn",
    "build_trainable",
    "Sequential",
    "BatchNorm2D",
    "ResidualBlock",
    "build_mini_resnet",
    "Adam",
    "LRSchedule",
    "Optimizer",
    "SGD",
    "LocalTrainer",
    "TrainResult",
    "capture_gradient_trace",
    "train_single_node",
]
