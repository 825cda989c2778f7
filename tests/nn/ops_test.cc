#include "src/nn/ops.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace dz {
namespace {

TEST(RmsNormTest, UnitGainNormalizesRms) {
  Rng rng(1);
  const Matrix x = Matrix::Random(4, 16, rng, 3.0f);
  std::vector<float> gain(16, 1.0f);
  std::vector<float> inv_rms;
  const Matrix y = RmsNormForward(x, gain, 1e-6f, inv_rms);
  for (int i = 0; i < y.rows(); ++i) {
    double ss = 0.0;
    for (int j = 0; j < y.cols(); ++j) {
      ss += static_cast<double>(y.at(i, j)) * y.at(i, j);
    }
    EXPECT_NEAR(std::sqrt(ss / y.cols()), 1.0, 1e-3);
  }
}

TEST(RmsNormTest, BackwardMatchesFiniteDifference) {
  Rng rng(2);
  Matrix x = Matrix::Random(2, 8, rng, 1.0f);
  std::vector<float> gain(8);
  for (auto& g : gain) {
    g = static_cast<float>(rng.Uniform(0.5, 1.5));
  }
  std::vector<float> inv_rms;
  const Matrix y = RmsNormForward(x, gain, 1e-5f, inv_rms);
  // Loss = sum(y * r) for a fixed random r.
  const Matrix r = Matrix::Random(2, 8, rng, 1.0f);
  Matrix dy = r;
  std::vector<float> dgain(8, 0.0f);
  const Matrix dx = RmsNormBackward(x, gain, inv_rms, dy, dgain);

  const float eps = 1e-3f;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 8; ++j) {
      const float orig = x.at(i, j);
      x.at(i, j) = orig + eps;
      std::vector<float> tmp;
      const Matrix yp = RmsNormForward(x, gain, 1e-5f, tmp);
      x.at(i, j) = orig - eps;
      const Matrix ym = RmsNormForward(x, gain, 1e-5f, tmp);
      x.at(i, j) = orig;
      double lp = 0.0;
      double lm = 0.0;
      for (size_t t = 0; t < yp.data().size(); ++t) {
        lp += static_cast<double>(yp.data()[t]) * r.data()[t];
        lm += static_cast<double>(ym.data()[t]) * r.data()[t];
      }
      const double fd = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(dx.at(i, j), fd, 2e-2 * std::max(1.0, std::abs(fd))) << i << "," << j;
    }
  }
}

TEST(RopeTest, InverseUndoesRotation) {
  Rng rng(3);
  Matrix x = Matrix::Random(6, 32, rng, 1.0f);
  const Matrix orig = x;
  RopeApply(x, 4, 10000.0f, 5);
  RopeApplyInverse(x, 4, 10000.0f, 5);
  EXPECT_LT(RelativeError(x, orig), 1e-5);
}

TEST(RopeTest, PreservesNorm) {
  Rng rng(4);
  Matrix x = Matrix::Random(4, 16, rng, 1.0f);
  const double before = x.FrobeniusNorm();
  RopeApply(x, 2, 10000.0f, 0);
  EXPECT_NEAR(x.FrobeniusNorm(), before, 1e-4 * before);
}

TEST(RopeTest, PositionZeroFirstRowUnchanged) {
  Rng rng(5);
  Matrix x = Matrix::Random(3, 8, rng, 1.0f);
  const Matrix orig = x;
  RopeApply(x, 2, 10000.0f, 0);
  for (int j = 0; j < 8; ++j) {
    EXPECT_FLOAT_EQ(x.at(0, j), orig.at(0, j));  // angle = 0 at position 0
  }
  // Later rows must change.
  EXPECT_GT(Sub(x, orig).FrobeniusNorm(), 1e-3);
}

TEST(RopeTest, RelativePositionProperty) {
  // The q·k dot product must depend only on relative offset: rotating q at pos p+s and
  // k at pos q+s gives the same score as p and q.
  Rng rng(6);
  Matrix q1 = Matrix::Random(1, 8, rng, 1.0f);
  Matrix k1 = Matrix::Random(1, 8, rng, 1.0f);
  Matrix q2 = q1;
  Matrix k2 = k1;
  RopeApply(q1, 1, 100.0f, 3);
  RopeApply(k1, 1, 100.0f, 7);
  RopeApply(q2, 1, 100.0f, 13);
  RopeApply(k2, 1, 100.0f, 17);
  auto dot = [](const Matrix& a, const Matrix& b) {
    double s = 0.0;
    for (size_t i = 0; i < a.data().size(); ++i) {
      s += static_cast<double>(a.data()[i]) * b.data()[i];
    }
    return s;
  };
  EXPECT_NEAR(dot(q1, k1), dot(q2, k2), 1e-4);
}

TEST(AttentionTest, ProbsAreCausalAndNormalized) {
  Rng rng(7);
  const int seq = 6;
  const Matrix q = Matrix::Random(seq, 16, rng, 1.0f);
  const Matrix k = Matrix::Random(seq, 16, rng, 1.0f);
  const Matrix v = Matrix::Random(seq, 16, rng, 1.0f);
  std::vector<Matrix> probs;
  AttentionForward(q, k, v, 4, probs);
  ASSERT_EQ(probs.size(), 4u);
  for (const auto& p : probs) {
    for (int i = 0; i < seq; ++i) {
      double sum = 0.0;
      for (int j = 0; j < seq; ++j) {
        if (j > i) {
          EXPECT_EQ(p.at(i, j), 0.0f);  // causal
        } else {
          EXPECT_GE(p.at(i, j), 0.0f);
          sum += p.at(i, j);
        }
      }
      EXPECT_NEAR(sum, 1.0, 1e-5);
    }
  }
}

TEST(AttentionTest, FirstRowCopiesFirstValue) {
  Rng rng(8);
  const Matrix q = Matrix::Random(3, 8, rng, 1.0f);
  const Matrix k = Matrix::Random(3, 8, rng, 1.0f);
  const Matrix v = Matrix::Random(3, 8, rng, 1.0f);
  std::vector<Matrix> probs;
  const Matrix out = AttentionForward(q, k, v, 2, probs);
  for (int j = 0; j < 8; ++j) {
    EXPECT_NEAR(out.at(0, j), v.at(0, j), 1e-5);  // position 0 can only attend to itself
  }
}

TEST(AttentionTest, DecodeStepMatchesFullForward) {
  Rng rng(9);
  const int seq = 5;
  const int d = 16;
  const int heads = 4;
  const Matrix q = Matrix::Random(seq, d, rng, 1.0f);
  const Matrix k = Matrix::Random(seq, d, rng, 1.0f);
  const Matrix v = Matrix::Random(seq, d, rng, 1.0f);
  std::vector<Matrix> probs;
  const Matrix full = AttentionForward(q, k, v, heads, probs);
  // The last n queries against all seq keys (n == 1 is a decode step over a KV cache)
  // give the full pass's last n rows, bit for bit.
  for (int n = 1; n <= seq; ++n) {
    Matrix q_tail(n, d);
    std::copy(q.row(seq - n), q.row(seq - n) + n * d, q_tail.row(0));
    std::vector<Matrix> tail_probs;
    const Matrix tail = AttentionForward(q_tail, k, v, heads, tail_probs);
    ASSERT_EQ(tail.rows(), n);
    ASSERT_EQ(tail_probs.size(), static_cast<size_t>(heads));
    EXPECT_EQ(tail_probs[0].rows(), n);
    EXPECT_EQ(tail_probs[0].cols(), seq);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < d; ++j) {
        EXPECT_EQ(tail.at(i, j), full.at(seq - n + i, j)) << n << ": " << i << "," << j;
      }
    }
  }
}

TEST(SwiGluTest, ForwardMatchesFormula) {
  Matrix gate(1, 2);
  gate.at(0, 0) = 1.0f;
  gate.at(0, 1) = -2.0f;
  Matrix up(1, 2);
  up.at(0, 0) = 3.0f;
  up.at(0, 1) = 3.0f;
  const Matrix h = SwiGluForward(gate, up);
  auto silu = [](float x) { return x / (1.0f + std::exp(-x)); };
  EXPECT_NEAR(h.at(0, 0), silu(1.0f) * 3.0f, 1e-6);
  EXPECT_NEAR(h.at(0, 1), silu(-2.0f) * 3.0f, 1e-6);
}

TEST(SwiGluTest, BackwardMatchesFiniteDifference) {
  Rng rng(10);
  Matrix gate = Matrix::Random(2, 4, rng, 1.0f);
  Matrix up = Matrix::Random(2, 4, rng, 1.0f);
  const Matrix r = Matrix::Random(2, 4, rng, 1.0f);
  Matrix dgate, dup;
  SwiGluBackward(gate, up, r, dgate, dup);
  const float eps = 1e-3f;
  auto loss = [&](const Matrix& g, const Matrix& u) {
    const Matrix h = SwiGluForward(g, u);
    double s = 0.0;
    for (size_t i = 0; i < h.data().size(); ++i) {
      s += static_cast<double>(h.data()[i]) * r.data()[i];
    }
    return s;
  };
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 4; ++j) {
      Matrix gp = gate;
      gp.at(i, j) += eps;
      Matrix gm = gate;
      gm.at(i, j) -= eps;
      const double fd = (loss(gp, up) - loss(gm, up)) / (2.0 * eps);
      EXPECT_NEAR(dgate.at(i, j), fd, 1e-2 * std::max(1.0, std::abs(fd)));
      Matrix uplus = up;
      uplus.at(i, j) += eps;
      Matrix uminus = up;
      uminus.at(i, j) -= eps;
      const double fdu = (loss(gate, uplus) - loss(gate, uminus)) / (2.0 * eps);
      EXPECT_NEAR(dup.at(i, j), fdu, 1e-2 * std::max(1.0, std::abs(fdu)));
    }
  }
}

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(11);
  Matrix x = Matrix::Random(5, 9, rng, 2.0f);
  SoftmaxRows(x);
  for (int i = 0; i < 5; ++i) {
    double s = 0.0;
    for (int j = 0; j < 9; ++j) {
      s += x.at(i, j);
      EXPECT_GT(x.at(i, j), 0.0f);
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(CrossEntropyTest, UniformLogitsGiveLogVocab) {
  Matrix logits(2, 10);
  std::vector<int> targets = {3, 7};
  Matrix dlogits;
  const double loss = CrossEntropy(logits, targets, dlogits);
  EXPECT_NEAR(loss, std::log(10.0), 1e-5);
}

TEST(CrossEntropyTest, GradientSumsToZeroPerRow) {
  Rng rng(12);
  const Matrix logits = Matrix::Random(3, 8, rng, 1.0f);
  std::vector<int> targets = {0, 5, 7};
  Matrix dlogits;
  CrossEntropy(logits, targets, dlogits);
  for (int i = 0; i < 3; ++i) {
    double s = 0.0;
    for (int j = 0; j < 8; ++j) {
      s += dlogits.at(i, j);
    }
    EXPECT_NEAR(s, 0.0, 1e-6);  // softmax grad rows sum to zero
  }
}

TEST(CrossEntropyTest, MaskedPositionsIgnored) {
  Rng rng(13);
  const Matrix logits = Matrix::Random(3, 8, rng, 1.0f);
  std::vector<int> targets = {-1, 5, -1};
  Matrix dlogits;
  const double loss = CrossEntropy(logits, targets, dlogits);
  // Row 0 and 2 must have zero gradient.
  for (int j = 0; j < 8; ++j) {
    EXPECT_EQ(dlogits.at(0, j), 0.0f);
    EXPECT_EQ(dlogits.at(2, j), 0.0f);
  }
  std::vector<int> only = {5};
  Matrix d2;
  Matrix row(1, 8);
  for (int j = 0; j < 8; ++j) {
    row.at(0, j) = logits.at(1, j);
  }
  EXPECT_NEAR(loss, CrossEntropy(row, only, d2), 1e-6);
}

}  // namespace
}  // namespace dz
