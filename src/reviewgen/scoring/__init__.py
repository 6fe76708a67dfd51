"""Score prediction: vocabulary, classifier network, gradients, training."""

from reviewgen.scoring.grad import (
    backward,
    finite_difference_grads,
    gradient_check,
    max_relative_error,
)
from reviewgen.scoring.model import (
    ModelParams,
    PROB_FLOOR,
    TrainConfig,
    forward_trace,
    init_params,
    loss,
    sigmoid,
    softmax,
)
from reviewgen.scoring.sentences import category_sentences
from reviewgen.scoring.train import (
    CategoryScore,
    EvalMetrics,
    NUM_SCORE_CLASSES,
    ScoreModel,
    ScoreReport,
    TrainingExample,
    evaluate,
    load_model,
    predict_scores,
    save_model,
    train,
)
from reviewgen.scoring.vocab import (
    PAD_INDEX,
    PAD_TOKEN,
    SEP_INDEX,
    SEP_TOKEN,
    UNK_INDEX,
    UNK_TOKEN,
    Vocab,
)
