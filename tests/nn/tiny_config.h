// Test-local model size: the smallest transformer the unit tests train,
// compress and serve. Shipped code sizes models with ModelConfig::Small(),
// Medium() or Large().
#ifndef TESTS_NN_TINY_CONFIG_H_
#define TESTS_NN_TINY_CONFIG_H_

#include "src/nn/config.h"

namespace dz {

inline ModelConfig TinyModelConfig() {
  ModelConfig c;
  c.vocab_size = 128;  // big enough for the shared task vocabulary layout
  c.d_model = 32;
  c.n_layers = 2;
  c.n_heads = 4;
  c.d_ff = 64;
  c.max_seq = 32;
  return c;
}

}  // namespace dz

#endif  // TESTS_NN_TINY_CONFIG_H_
