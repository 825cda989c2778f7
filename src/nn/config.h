// Transformer architecture configuration (Llama-family layout: RMSNorm, RoPE
// attention, SwiGLU MLP, untied LM head).
#ifndef SRC_NN_CONFIG_H_
#define SRC_NN_CONFIG_H_

#include <cstdint>
#include <string>

#include "src/util/check.h"

namespace dz {

struct ModelConfig {
  int vocab_size = 128;
  int d_model = 64;
  int n_layers = 2;
  int n_heads = 4;
  int d_ff = 172;        // SwiGLU hidden dim (~8/3 * d_model, like Llama)
  int max_seq = 64;

  int head_dim() const { return d_model / n_heads; }

  void Validate() const {
    DZ_CHECK_GT(vocab_size, 0);
    DZ_CHECK_GT(d_model, 0);
    DZ_CHECK_GT(n_layers, 0);
    DZ_CHECK_GT(n_heads, 0);
    DZ_CHECK_EQ(d_model % n_heads, 0);
    DZ_CHECK_EQ(head_dim() % 2, 0);  // RoPE rotates pairs
    DZ_CHECK_GT(d_ff, 0);
    DZ_CHECK_GT(max_seq, 0);
  }

  // Named presets sized so the full experiment suite runs on a laptop. The suffixes
  // mirror the paper's model families (Pythia-2.8B, Llama 7B/13B/70B, Gemma-2) but at
  // simulation scale; the *serving-side* footprint of the paper-scale models is handled
  // separately by simgpu::ModelShape.
  static ModelConfig Small();    // "pythia-sim"
  static ModelConfig Medium();   // "llama-sim"
  static ModelConfig Large();    // "llama-13b-sim" class
};

inline ModelConfig ModelConfig::Small() {
  ModelConfig c;
  c.vocab_size = 128;
  c.d_model = 64;
  c.n_layers = 3;
  c.n_heads = 4;
  c.d_ff = 172;
  c.max_seq = 64;
  return c;
}

inline ModelConfig ModelConfig::Medium() {
  ModelConfig c;
  c.vocab_size = 128;
  c.d_model = 96;
  c.n_layers = 4;
  c.n_heads = 6;
  c.d_ff = 256;
  c.max_seq = 64;
  return c;
}

inline ModelConfig ModelConfig::Large() {
  ModelConfig c;
  c.vocab_size = 128;
  c.d_model = 128;
  c.n_layers = 6;
  c.n_heads = 8;
  c.d_ff = 344;
  c.max_seq = 64;
  return c;
}

}  // namespace dz

#endif  // SRC_NN_CONFIG_H_
