#include "src/compress/calibration.h"

#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace dz {

Matrix CaptureLayerInput(const Transformer& model,
                         const std::vector<std::vector<int>>& calibration,
                         const std::string& layer_name, ThreadPool* pool) {
  DZ_CHECK(!calibration.empty());
  const int index = model.weights().LinearIndex(layer_name);
  DZ_CHECK_GE(index, 0);
  // The weight lets the overlay still produce the layer's normal output.
  const Matrix* weight = model.weights().LinearWeight(layer_name);

  // Forward passes over the calibration sequences are independent; run them
  // across the pool, each with its own overlay capturing into its own slot so
  // the stacked result is in calibration order regardless of thread count.
  std::vector<std::vector<Matrix>> captured(calibration.size());
  ThreadPool& workers = pool != nullptr ? *pool : ThreadPool::Global();
  workers.ParallelFor(
      calibration.size(), [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          std::vector<Matrix>* slot = &captured[i];
          LinearOverlay overlay;
          overlay.ops.resize(static_cast<size_t>(index) + 1);
          overlay.ops.back() = [weight, slot](const Matrix& x) {
            slot->push_back(x);
            return MatmulNT(x, *weight);
          };
          model.Forward(calibration[i], nullptr, &overlay);
        }
      });

  int total_rows = 0;
  int cols = 0;
  for (const auto& per_seq : captured) {
    for (const Matrix& m : per_seq) {
      total_rows += m.rows();
      cols = m.cols();
    }
  }
  DZ_CHECK_GT(total_rows, 0);
  Matrix stacked(total_rows, cols);
  int row = 0;
  for (const auto& per_seq : captured) {
    for (const Matrix& m : per_seq) {
      for (int r = 0; r < m.rows(); ++r) {
        std::copy(m.row(r), m.row(r) + m.cols(), stacked.row(row++));
      }
    }
  }
  return stacked;
}

}  // namespace dz
