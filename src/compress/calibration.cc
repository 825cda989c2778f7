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

  // Forward passes over the calibration sequences are independent; run one
  // task per sequence, each recording its activations in its own ForwardCache
  // and keeping the layer's input in its own slot, so the stacked result is in
  // calibration order regardless of thread count.
  std::vector<Matrix> captured(calibration.size());
  ThreadPool& workers = pool != nullptr ? *pool : ThreadPool::Global();
  workers.ForEachTask(calibration.size(), [&](size_t i) {
    ForwardCache cache;
    model.Forward(calibration[i], &cache);
    captured[i] = cache.LinearInput(static_cast<size_t>(index));
  });

  int total_rows = 0;
  for (const Matrix& m : captured) {
    total_rows += m.rows();
  }
  DZ_CHECK_GT(total_rows, 0);
  Matrix stacked(total_rows, captured.front().cols());
  int row = 0;
  for (const Matrix& m : captured) {
    std::copy(m.data().begin(), m.data().end(), stacked.row(row));
    row += m.rows();
  }
  return stacked;
}

}  // namespace dz
