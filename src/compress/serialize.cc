#include "src/compress/serialize.h"

#include <cstdio>
#include <cstring>

#include "src/tensor/half.h"
#include "src/util/check.h"

namespace dz {

namespace {

constexpr uint32_t kMagic = 0x50495A44;  // "DZIP"
constexpr uint32_t kVersion = 1;

class Writer {
 public:
  explicit Writer(ByteBuffer& out) : out_(out) {}

  void U8(uint8_t v) { out_.push_back(v); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xFF));
    }
  }
  void U64(uint64_t v) {
    U32(static_cast<uint32_t>(v & 0xFFFFFFFFu));
    U32(static_cast<uint32_t>(v >> 32));
  }
  void F32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, 4);
    U32(bits);
  }
  void Fp16(float v) {
    const uint16_t h = FloatToHalfBits(v);
    out_.push_back(static_cast<uint8_t>(h & 0xFF));
    out_.push_back(static_cast<uint8_t>(h >> 8));
  }
  void String(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void Words(const std::vector<uint32_t>& words) {
    U64(words.size());
    for (uint32_t w : words) {
      U32(w);
    }
  }
  void Fp16Vec(const std::vector<float>& v) {
    U64(v.size());
    for (float x : v) {
      Fp16(x);
    }
  }
  void Bytes(const std::vector<uint8_t>& v) {
    U64(v.size());
    out_.insert(out_.end(), v.begin(), v.end());
  }
  void Fp16Matrix(const Matrix& m) {
    U32(static_cast<uint32_t>(m.rows()));
    U32(static_cast<uint32_t>(m.cols()));
    for (float x : m.data()) {
      Fp16(x);
    }
  }

 private:
  ByteBuffer& out_;
};

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == size_; }

  uint8_t U8() { return Take(1) ? data_[pos_ - 1] : 0; }
  uint32_t U32() {
    if (!Take(4)) {
      return 0;
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data_[pos_ - 4 + i]) << (8 * i);
    }
    return v;
  }
  uint64_t U64() {
    const uint64_t lo = U32();
    const uint64_t hi = U32();
    return lo | (hi << 32);
  }
  float F32() {
    const uint32_t bits = U32();
    float v;
    std::memcpy(&v, &bits, 4);
    return v;
  }
  float Fp16() {
    if (!Take(2)) {
      return 0.0f;
    }
    const uint16_t h = static_cast<uint16_t>(data_[pos_ - 2]) |
                       (static_cast<uint16_t>(data_[pos_ - 1]) << 8);
    return HalfBitsToFloat(h);
  }
  std::string String() {
    const uint32_t n = U32();
    if (!Take(n)) {
      return "";
    }
    return std::string(reinterpret_cast<const char*>(data_ + pos_ - n), n);
  }
  std::vector<uint32_t> Words() {
    const uint64_t n = U64();
    std::vector<uint32_t> v;
    if (n > size_) {  // cheap sanity bound for corrupt headers
      ok_ = false;
      return v;
    }
    v.reserve(n);
    for (uint64_t i = 0; i < n && ok_; ++i) {
      v.push_back(U32());
    }
    return v;
  }
  std::vector<float> Fp16Vec() {
    const uint64_t n = U64();
    std::vector<float> v;
    if (n > size_) {
      ok_ = false;
      return v;
    }
    v.reserve(n);
    for (uint64_t i = 0; i < n && ok_; ++i) {
      v.push_back(Fp16());
    }
    return v;
  }
  std::vector<uint8_t> Bytes() {
    const uint64_t n = U64();
    std::vector<uint8_t> v;
    if (!Take(n)) {
      return v;
    }
    v.assign(data_ + pos_ - n, data_ + pos_);
    return v;
  }
  Matrix Fp16Matrix() {
    const uint32_t rows = U32();
    const uint32_t cols = U32();
    if (static_cast<uint64_t>(rows) * cols * 2 > size_) {
      ok_ = false;
      return Matrix();
    }
    Matrix m(static_cast<int>(rows), static_cast<int>(cols));
    for (auto& x : m.data()) {
      x = Fp16();
    }
    return m;
  }

 private:
  // n is read from the buffer: compared against what is left, so that no value
  // of it can wrap the bound.
  bool Take(size_t n) {
    if (!ok_ || n > size_ - pos_) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

ByteBuffer EncodeDelta(const CompressedDelta& delta) {
  ByteBuffer out;
  Writer w(out);
  w.U32(kMagic);
  w.U32(kVersion);
  w.U32(static_cast<uint32_t>(delta.config.bits));
  w.U8(delta.config.sparse24 ? 1 : 0);
  w.U32(static_cast<uint32_t>(delta.config.group_size));
  w.U8(delta.config.lossless ? 1 : 0);
  w.U8(delta.config.use_obs ? 1 : 0);
  w.F32(delta.config.damp_ratio);

  w.U32(static_cast<uint32_t>(delta.layers.size()));
  for (const auto& layer : delta.layers) {
    const PackedQuantMatrix& values = layer.is_sparse ? layer.sparse.values() : layer.dense;
    w.String(layer.name);
    w.U8(layer.is_sparse ? 1 : 0);
    w.U32(static_cast<uint32_t>(values.rows()));
    w.U32(static_cast<uint32_t>(layer.is_sparse ? layer.sparse.cols() : values.cols()));
    w.U32(static_cast<uint32_t>(values.bits()));
    w.Words(values.packed());
    if (layer.is_sparse) {
      w.Words(layer.sparse.positions());
    }
    w.Fp16Vec(values.scales());
    w.Bytes(values.zeros());
  }
  w.Fp16Matrix(delta.embedding_delta);
  w.Fp16Matrix(delta.lm_head_delta);
  w.Fp16Vec(delta.final_norm_delta);
  w.U32(static_cast<uint32_t>(delta.attn_norm_deltas.size()));
  for (size_t i = 0; i < delta.attn_norm_deltas.size(); ++i) {
    w.Fp16Vec(delta.attn_norm_deltas[i]);
    w.Fp16Vec(delta.mlp_norm_deltas[i]);
  }
  return out;
}

bool DecodeDelta(const ByteBuffer& buffer, CompressedDelta& out) {
  Reader r(buffer.data(), buffer.size());
  if (r.U32() != kMagic) {
    return false;
  }
  if (r.U32() != kVersion) {
    return false;
  }
  out = CompressedDelta();
  out.config.bits = static_cast<int>(r.U32());
  out.config.sparse24 = r.U8() != 0;
  out.config.group_size = static_cast<int>(r.U32());
  out.config.lossless = r.U8() != 0;
  out.config.use_obs = r.U8() != 0;
  out.config.damp_ratio = r.F32();

  const uint32_t n_layers = r.U32();
  if (!r.ok() || n_layers > 1u << 20) {
    return false;
  }
  for (uint32_t i = 0; i < n_layers; ++i) {
    CompressedDeltaLayer layer;
    layer.name = r.String();
    layer.is_sparse = r.U8() != 0;
    const int rows = static_cast<int>(r.U32());
    const int cols = static_cast<int>(r.U32());
    const int bits = static_cast<int>(r.U32());
    if (!r.ok()) {
      return false;
    }
    auto packed = r.Words();
    auto positions = layer.is_sparse ? r.Words() : std::vector<uint32_t>();
    auto scales = r.Fp16Vec();
    auto zeros = r.Bytes();
    if (!r.ok()) {
      return false;
    }
    // A 2:4 layer's codes are its cols / 2 kept values a row.
    auto values = PackedQuantMatrix::FromStorage(
        rows, layer.is_sparse ? cols / 2 : cols, bits, out.config.group_size,
        std::move(packed), std::move(scales), std::move(zeros));
    if (!values) {
      return false;
    }
    if (layer.is_sparse) {
      auto sparse =
          Sparse24Matrix::FromStorage(cols, std::move(*values), std::move(positions));
      if (!sparse) {
        return false;
      }
      layer.sparse = std::move(*sparse);
    } else {
      layer.dense = std::move(*values);
    }
    out.layers.push_back(std::move(layer));
  }
  out.embedding_delta = r.Fp16Matrix();
  out.lm_head_delta = r.Fp16Matrix();
  out.final_norm_delta = r.Fp16Vec();
  const uint32_t blocks = r.U32();
  if (!r.ok() || blocks > 1u << 16) {
    return false;
  }
  for (uint32_t i = 0; i < blocks; ++i) {
    out.attn_norm_deltas.push_back(r.Fp16Vec());
    out.mlp_norm_deltas.push_back(r.Fp16Vec());
  }
  return r.ok() && r.AtEnd();
}

bool ReadDeltaFile(const std::string& path, CompressedDelta& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  // Read to EOF rather than trusting a size from fseek/ftell: on a directory
  // ftell reports LONG_MAX and only the read itself fails.
  ByteBuffer buffer;
  uint8_t chunk[1 << 16];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    buffer.insert(buffer.end(), chunk, chunk + got);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  return !failed && DecodeDelta(buffer, out);
}

}  // namespace dz
