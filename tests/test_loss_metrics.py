import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgnet.loss_metrics import (
    MetricsReport,
    example_based_metrics,
    mean_accuracy,
    positive_ratio,
    weighted_sigmoid_ce,
    weighted_sigmoid_ce_node,
)
from lgnet.loss_metrics import _softplus
from lgnet.tensor import Tensor, _sigmoid_stable


def _naive_loss(logits, labels, p, sigma=1.0):
    """Direct formula evaluated in 50-digit arithmetic: the plain float64
    version loses ~5e-8 to cancellation in 1 - sigmoid(z) near |z| = 20,
    which would swamp the tolerance under test."""
    import mpmath

    with mpmath.workdps(50):
        terms = []
        for z, y, pc in zip(logits, labels, p):
            w = mpmath.exp((1.0 - pc) / sigma**2)
            s = 1.0 / (1.0 + mpmath.exp(-z))
            terms.append(w * y * -mpmath.log(s) + (1 - y) * -mpmath.log(1 - s))
        return float(sum(terms) / len(terms))


def _loop_weighted_sigmoid_ce(logits, labels, pos_ratio, sigma=1.0):
    """Per-sample loop over the single-sample formula: the reference for
    the batched loss, which must match it bit for bit."""
    w = np.exp((1.0 - pos_ratio) / (sigma * sigma))

    def one(z, y):
        terms = w * y * _softplus(-z) + (1.0 - y) * _softplus(z)
        s = _sigmoid_stable(z)
        return float(terms.mean()), (w * y * (s - 1.0) + (1.0 - y) * s) / z.size

    if logits.ndim == 1:
        return one(logits, labels)
    losses = np.empty(logits.shape[0])
    grad = np.empty_like(logits)
    for n in range(logits.shape[0]):
        losses[n], grad[n] = one(logits[n], labels[n])
    grad /= logits.shape[0]
    return float(losses.mean()), grad


class TestWeightedSigmoidCE:
    def test_positive_at_zero_logit_unweighted(self):
        loss, _ = weighted_sigmoid_ce(np.zeros(1), np.ones(1), np.ones(1))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_negative_at_zero_logit_ignores_ratio(self):
        for p in (0.0, 0.3, 1.0):
            loss, _ = weighted_sigmoid_ce(np.zeros(1), np.zeros(1), np.array([p]))
            assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_weighted_positive_term(self):
        # w = e^{0.5}; term = w * ln 2 = 1.142806500315004
        loss, _ = weighted_sigmoid_ce(np.zeros(1), np.ones(1), np.array([0.5]))
        assert loss == pytest.approx(math.exp(0.5) * math.log(2.0), abs=1e-12)
        assert loss == pytest.approx(1.142806500315004, abs=1e-12)

    def test_matches_naive_formula_for_moderate_logits(self, rng):
        for _ in range(50):
            a = int(rng.integers(1, 9))
            logits = rng.uniform(-20, 20, a)
            labels = rng.integers(0, 2, a).astype(float)
            p = rng.uniform(0, 1, a)
            loss, _ = weighted_sigmoid_ce(logits, labels, p)
            assert loss == pytest.approx(_naive_loss(logits, labels, p), abs=1e-9)

    def test_no_overflow_at_magnitude_50(self):
        logits = np.array([-50.0, 50.0, -50.0, 50.0])
        labels = np.array([1.0, 0.0, 0.0, 1.0])
        p = np.full(4, 0.25)
        loss, grad = weighted_sigmoid_ce(logits, labels, p)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(20):
            a = int(rng.integers(1, 6))
            logits = rng.uniform(-4, 4, a)
            labels = rng.integers(0, 2, a).astype(float)
            p = rng.uniform(0, 1, a)
            _, grad = weighted_sigmoid_ce(logits, labels, p)
            eps = 1e-6
            for i in range(a):
                up, down = logits.copy(), logits.copy()
                up[i] += eps
                down[i] -= eps
                num = (weighted_sigmoid_ce(up, labels, p)[0]
                       - weighted_sigmoid_ce(down, labels, p)[0]) / (2 * eps)
                assert grad[i] == pytest.approx(num, rel=1e-6, abs=1e-9)

    def test_ratio_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            weighted_sigmoid_ce(np.zeros(1), np.ones(1), np.array([1.2]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-50, 50),
        st.booleans(),
        st.floats(0, 1),
        st.floats(0.5, 2.0),
    )
    def test_loss_nonnegative_and_gradient_signed(self, logit, positive, p, sigma):
        y = np.array([1.0 if positive else 0.0])
        loss, grad = weighted_sigmoid_ce(np.array([logit]), y, np.array([p]), sigma)
        assert loss >= 0.0
        # pushing a positive's logit up (or a negative's down) reduces loss
        assert grad[0] <= 0.0 if positive else grad[0] >= 0.0

    def test_graph_node_injects_gradient(self, rng):
        logits = Tensor(rng.uniform(-2, 2, 4), requires_grad=True)
        labels = rng.integers(0, 2, 4).astype(float)
        p = rng.uniform(0, 1, 4)
        loss = weighted_sigmoid_ce_node(logits, labels, p)
        loss.backward()
        _, expected = weighted_sigmoid_ce(logits.data, labels, p)
        assert np.array_equal(logits.grad, expected)

    def test_graph_node_batched_mean(self, rng):
        z = rng.uniform(-2, 2, (3, 4))
        y = rng.integers(0, 2, (3, 4)).astype(float)
        p = rng.uniform(0, 1, 4)
        node = weighted_sigmoid_ce_node(Tensor(z), y, p)
        per_sample = [weighted_sigmoid_ce(z[n], y[n], p)[0] for n in range(3)]
        assert node.item() == pytest.approx(np.mean(per_sample), abs=1e-12)

    def test_matches_loop_reference_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            a = int(rng.integers(1, 12))
            shape = (a,) if rng.random() < 0.3 else (int(rng.integers(1, 20)), a)
            z = rng.normal(scale=4.0, size=shape)
            y = rng.integers(0, 2, shape).astype(float)
            p = rng.uniform(0, 1, a)
            sigma = float(rng.uniform(0.5, 2.0))
            loss, grad = weighted_sigmoid_ce(z, y, p, sigma)
            want_loss, want_grad = _loop_weighted_sigmoid_ce(z, y, p, sigma)
            assert loss == want_loss
            assert np.array_equal(grad, want_grad)
            logits = Tensor(z, requires_grad=True)
            node = weighted_sigmoid_ce_node(logits, y, p, sigma)
            node.backward()
            assert node.item() == want_loss
            assert np.array_equal(logits.grad, want_grad)

    def test_rank_and_shape_checked(self):
        with pytest.raises(ValueError):
            weighted_sigmoid_ce(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            weighted_sigmoid_ce(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2))


# -- metric oracles -------------------------------------------------------------


def _oracle_mean_accuracy(scores, labels, threshold=0.5):
    preds = _sigmoid_stable(scores) > threshold
    total = 0.0
    for i in range(labels.shape[1]):
        tp = fn = tn = fp = 0
        for n in range(labels.shape[0]):
            if labels[n, i] == 1:
                tp, fn = tp + int(preds[n, i]), fn + int(not preds[n, i])
            else:
                fp, tn = fp + int(preds[n, i]), tn + int(not preds[n, i])
        tpr = tp / (tp + fn) if tp + fn else 0.0
        tnr = tn / (tn + fp) if tn + fp else 0.0
        total += (tpr + tnr) / 2
    return total / labels.shape[1]


def _oracle_example_metrics(scores, labels, threshold=0.5):
    preds = _sigmoid_stable(scores) > threshold
    accs, precs, recs = [], [], []
    for n in range(labels.shape[0]):
        p = {i for i in range(labels.shape[1]) if preds[n, i]}
        y = {i for i in range(labels.shape[1]) if labels[n, i] == 1}
        accs.append(1.0 if not p | y else len(p & y) / len(p | y))
        precs.append(0.0 if not p else len(p & y) / len(p))
        recs.append(1.0 if not y else len(p & y) / len(y))
    acc, prec, rec = np.mean(accs), np.mean(precs), np.mean(recs)
    f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
    return acc, prec, rec, f1


def _loop_mean_accuracy(scores, labels, threshold=0.5):
    """Attribute loop with numpy counts: the reference for the vectorized
    mean_accuracy, which must match it bit for bit."""
    preds = _sigmoid_stable(scores) > threshold
    total = 0.0
    for i in range(labels.shape[1]):
        y = labels[:, i] == 1
        pos = int(y.sum())
        neg = int((~y).sum())
        tpr = float(np.logical_and(y, preds[:, i]).sum()) / pos if pos else 0.0
        tnr = float(np.logical_and(~y, ~preds[:, i]).sum()) / neg if neg else 0.0
        total += 0.5 * (tpr + tnr)
    return total / labels.shape[1]


def _loop_example_metrics(scores, labels, threshold=0.5):
    """Sample loop with numpy counts: the reference for the vectorized
    example_based_metrics, which must match it bit for bit."""
    preds = _sigmoid_stable(scores) > threshold
    labels = labels.astype(bool)
    accs, precs, recs = [], [], []
    for n in range(labels.shape[0]):
        p, y = preds[n], labels[n]
        inter = int(np.logical_and(p, y).sum())
        union = int(np.logical_or(p, y).sum())
        np_, ny = int(p.sum()), int(y.sum())
        accs.append(1.0 if union == 0 else inter / union)
        precs.append(0.0 if np_ == 0 else inter / np_)
        recs.append(1.0 if ny == 0 else inter / ny)
    acc, prec, rec = float(np.mean(accs)), float(np.mean(precs)), float(np.mean(recs))
    f1 = 2.0 * prec * rec / (prec + rec) if prec + rec > 0.0 else 0.0
    return acc, prec, rec, f1


class TestMeanAccuracy:
    def test_perfect_predictions(self, rng):
        labels = rng.integers(0, 2, (8, 3))
        labels[0] = 1  # ensure both classes exist per attribute
        labels[1] = 0
        scores = np.where(labels == 1, 5.0, -5.0)
        assert mean_accuracy(scores, labels) == 1.0

    def test_inverted_predictions(self, rng):
        labels = rng.integers(0, 2, (8, 3))
        labels[0] = 1
        labels[1] = 0
        scores = np.where(labels == 1, -5.0, 5.0)
        assert mean_accuracy(scores, labels) == 0.0

    def test_hand_counted_example(self):
        labels = np.array([[1], [1], [0], [0]])
        scores = np.array([[5.0], [-5.0], [-5.0], [-5.0]])
        assert mean_accuracy(scores, labels) == pytest.approx(0.75)

    def test_missing_positives_warns_and_counts_zero(self):
        labels = np.zeros((4, 1), dtype=int)
        scores = np.full((4, 1), -5.0)
        with pytest.warns(UserWarning):
            assert mean_accuracy(scores, labels) == pytest.approx(0.5)


class TestExampleBasedMetrics:
    def test_exact_match(self, rng):
        labels = rng.integers(0, 2, (6, 4))
        scores = np.where(labels == 1, 5.0, -5.0)
        assert example_based_metrics(scores, labels) == (1.0, 1.0, 1.0, 1.0)

    def test_partial_prediction(self):
        labels = np.array([[0, 1, 0, 1]])
        scores = np.array([[-5.0, 5.0, -5.0, -5.0]])  # predicts only attr 1
        acc, prec, rec, f1 = example_based_metrics(scores, labels)
        assert (acc, prec, rec) == (0.5, 1.0, 0.5)
        assert f1 == pytest.approx(2 * 1.0 * 0.5 / 1.5)

    def test_empty_set_conventions(self):
        labels = np.array([[0, 0]])
        scores = np.array([[-5.0, -5.0]])  # P and Y both empty
        acc, prec, rec, f1 = example_based_metrics(scores, labels)
        assert (acc, prec, rec, f1) == (1.0, 0.0, 1.0, 0.0)


class TestAgainstOracles:
    def test_1000_random_matrices_match_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 17))
            a = int(rng.integers(1, 9))
            labels = rng.integers(0, 2, (n, a))
            scores = rng.normal(scale=3.0, size=(n, a))
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert mean_accuracy(scores, labels) == _oracle_mean_accuracy(scores, labels)
            got = example_based_metrics(scores, labels)
            want = _oracle_example_metrics(scores, labels)
            assert got == want

    def test_crafted_empty_cases_match(self):
        cases = [
            (np.zeros((3, 2), dtype=int), np.full((3, 2), -9.0)),   # no positives anywhere
            (np.ones((3, 2), dtype=int), np.full((3, 2), 9.0)),     # no negatives anywhere
            (np.eye(3, dtype=int), np.full((3, 3), -9.0)),          # empty predictions
        ]
        import warnings

        for labels, scores in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert mean_accuracy(scores, labels) == _oracle_mean_accuracy(scores, labels)
            assert example_based_metrics(scores, labels) == _oracle_example_metrics(scores, labels)

    def test_3000_random_matrices_match_loop_versions_exactly(self):
        import warnings

        rng = np.random.default_rng(13)
        for _ in range(3000):
            n = int(rng.integers(1, 40))
            a = int(rng.integers(1, 30))
            labels = rng.integers(0, 2, (n, a))
            scores = rng.normal(scale=3.0, size=(n, a))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert mean_accuracy(scores, labels) == _loop_mean_accuracy(scores, labels)
            assert example_based_metrics(scores, labels) == _loop_example_metrics(scores, labels)

    def test_warns_once_per_one_sided_attribute(self):
        labels = np.array([[1, 0, 1], [1, 1, 0]])
        with pytest.warns(UserWarning) as record:
            mean_accuracy(np.zeros((2, 3)), labels)
        assert [str(w.message).split(" in ")[0] for w in record] == ["attribute 0 has no negatives"]

    def test_sample_permutation_invariance(self, rng):
        labels = rng.integers(0, 2, (10, 5))
        scores = rng.normal(size=(10, 5))
        perm = rng.permutation(10)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert mean_accuracy(scores, labels) == mean_accuracy(scores[perm], labels[perm])
        base = example_based_metrics(scores, labels)
        shuffled = example_based_metrics(scores[perm], labels[perm])
        # per-sample terms are identical; only the mean's summation order moves
        assert base == pytest.approx(shuffled, abs=1e-12)


class TestReport:
    def test_from_scores_and_f1_consistency(self, rng):
        labels = rng.integers(0, 2, (12, 4))
        labels[0] = 1
        labels[1] = 0
        scores = rng.normal(size=(12, 4))
        report = MetricsReport.from_scores(scores, labels)
        if report.precision + report.recall > 0:
            expected = 2 * report.precision * report.recall / (report.precision + report.recall)
        else:
            expected = 0.0
        assert report.f1 == pytest.approx(expected, abs=1e-12)
        for value in report.as_dict().values():
            assert 0.0 <= value <= 1.0

    def test_tsv_line_is_percentages(self):
        report = MetricsReport(0.7868, 0.68, 0.8036, 0.7982, 0.8009)
        assert report.tsv_line() == "78.68\t68.00\t80.36\t79.82\t80.09"

    def test_positive_ratio(self):
        labels = np.array([[1, 0], [1, 1], [0, 0], [1, 0]])
        assert positive_ratio(labels).tolist() == [0.75, 0.25]
