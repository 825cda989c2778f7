#include "src/compress/lossless.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <queue>

#include "src/tensor/backend.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace dz {

namespace {

// ---------------------------------------------------------------------------
// Bit I/O
// ---------------------------------------------------------------------------

class BitWriter {
 public:
  void Put(uint32_t bits, int count) {
    DZ_CHECK_LE(count, 24);
    acc_ |= static_cast<uint64_t>(bits & ((1u << count) - 1u)) << fill_;
    fill_ += count;
    while (fill_ >= 8) {
      out_.push_back(static_cast<uint8_t>(acc_ & 0xFF));
      acc_ >>= 8;
      fill_ -= 8;
    }
  }
  ByteBuffer Finish() {
    if (fill_ > 0) {
      out_.push_back(static_cast<uint8_t>(acc_ & 0xFF));
      acc_ = 0;
      fill_ = 0;
    }
    return std::move(out_);
  }

 private:
  ByteBuffer out_;
  uint64_t acc_ = 0;
  int fill_ = 0;
};

// LSB-first bit reader with peek/consume (the LUT decoder speculatively peeks a
// full first-level index). Peeking past the end pads with zero bits: the final
// byte of a well-formed stream is already zero-padded by BitWriter, so the pad
// is only ever consumed as part of the terminal symbol's slack.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint32_t Peek(int count) {
    Fill(count);
    return static_cast<uint32_t>(acc_ & ((1ull << count) - 1ull));
  }

  void Consume(int count) {
    Fill(count);
    acc_ >>= count;
    fill_ -= count;
  }

  uint32_t Get(int count) {
    const uint32_t v = Peek(count);
    Consume(count);
    return v;
  }

 private:
  void Fill(int count) {
    while (fill_ < count) {
      acc_ |= static_cast<uint64_t>(pos_ < size_ ? data_[pos_++] : 0) << fill_;
      fill_ += 8;
    }
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  uint64_t acc_ = 0;
  int fill_ = 0;
};

// ---------------------------------------------------------------------------
// Canonical Huffman over the token alphabet:
//   0..255  literal bytes
//   256     end-of-block
//   257     match marker (followed by raw length byte and 15-bit distance)
// ---------------------------------------------------------------------------

constexpr int kSymbols = 258;
constexpr int kEob = 256;
constexpr int kMatch = 257;
constexpr int kMaxCodeLen = 15;
constexpr int kMinMatch = 4;
constexpr int kMaxMatch = kMinMatch + 255;
constexpr int kWindow = 1 << 15;
// LZ77 effort: hash-chain search depth per position, and the match length that stops
// the search (and skips the lazy peek).
constexpr int kMaxChain = 32;
constexpr int kNiceLength = 64;

// Computes code lengths with a pairing heap; if the tree gets deeper than kMaxCodeLen,
// frequencies are flattened and the build retried (classic length-limiting trick).
std::vector<uint8_t> BuildCodeLengths(std::vector<uint64_t> freq) {
  for (;;) {
    struct Node {
      uint64_t weight;
      int index;  // < kSymbols: leaf; else internal
    };
    auto cmp = [](const Node& a, const Node& b) { return a.weight > b.weight; };
    std::priority_queue<Node, std::vector<Node>, decltype(cmp)> heap(cmp);
    int next_internal = kSymbols;
    std::vector<uint8_t> depth(static_cast<size_t>(kSymbols), 0);

    int present = 0;
    for (int s = 0; s < kSymbols; ++s) {
      if (freq[static_cast<size_t>(s)] > 0) {
        heap.push({freq[static_cast<size_t>(s)], s});
        ++present;
      }
    }
    if (present == 0) {
      return depth;
    }
    if (present == 1) {
      for (int s = 0; s < kSymbols; ++s) {
        if (freq[static_cast<size_t>(s)] > 0) {
          depth[static_cast<size_t>(s)] = 1;
        }
      }
      return depth;
    }

    struct Internal {
      int a, b;
    };
    std::vector<Internal> internals;
    while (heap.size() > 1) {
      const Node x = heap.top();
      heap.pop();
      const Node y = heap.top();
      heap.pop();
      internals.push_back({x.index, y.index});
      heap.push({x.weight + y.weight, next_internal++});
    }
    // Depth-assign by walking internals from the root down.
    std::vector<uint8_t> idepth(internals.size(), 0);
    bool too_deep = false;
    for (int i = static_cast<int>(internals.size()) - 1; i >= 0; --i) {
      const uint8_t d = idepth[static_cast<size_t>(i)];
      for (int child : {internals[static_cast<size_t>(i)].a,
                        internals[static_cast<size_t>(i)].b}) {
        if (child >= kSymbols) {
          idepth[static_cast<size_t>(child - kSymbols)] = d + 1;
        } else {
          depth[static_cast<size_t>(child)] = d + 1;
          if (d + 1 > kMaxCodeLen) {
            too_deep = true;
          }
        }
      }
    }
    if (!too_deep) {
      return depth;
    }
    for (auto& f : freq) {
      f = (f + 1) / 2;  // flatten and retry
    }
  }
}

// Canonical code assignment from lengths.
std::vector<uint32_t> CanonicalCodes(const std::vector<uint8_t>& lengths) {
  std::vector<uint32_t> codes(lengths.size(), 0);
  std::vector<int> count(kMaxCodeLen + 1, 0);
  for (uint8_t l : lengths) {
    if (l > 0) {
      ++count[l];
    }
  }
  std::vector<uint32_t> next(kMaxCodeLen + 1, 0);
  uint32_t code = 0;
  for (int l = 1; l <= kMaxCodeLen; ++l) {
    code = (code + static_cast<uint32_t>(count[l - 1])) << 1;
    next[static_cast<size_t>(l)] = code;
  }
  for (size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] > 0) {
      codes[s] = next[lengths[s]]++;
    }
  }
  return codes;
}

// Per-bit canonical tree walk with a linear code scan at every depth. Slow on
// purpose: this is the historical decoder, retained as the parity reference.
class HuffmanDecoder {
 public:
  explicit HuffmanDecoder(const std::vector<uint8_t>& lengths) : lengths_(lengths) {
    codes_ = CanonicalCodes(lengths);
  }

  int Decode(BitReader& reader) const {
    uint32_t code = 0;
    for (int len = 1; len <= kMaxCodeLen; ++len) {
      code = (code << 1) | reader.Get(1);
      for (size_t s = 0; s < lengths_.size(); ++s) {
        if (lengths_[s] == len && codes_[s] == code) {
          return static_cast<int>(s);
        }
      }
    }
    DZ_CHECK(false);
    return -1;
  }

 private:
  std::vector<uint8_t> lengths_;
  std::vector<uint32_t> codes_;
};

// Codes are emitted MSB-first into the LSB-first byte stream, so the bits of a
// code arrive in stream order b0 b1 ... b(len-1) with b0 first. Reversing a
// canonical code therefore yields its bit-stream index prefix.
uint32_t ReverseBits(uint32_t v, int n) {
  uint32_t r = 0;
  for (int i = 0; i < n; ++i) {
    r = (r << 1) | (v & 1u);
    v >>= 1;
  }
  return r;
}

// Two-level canonical-code lookup decoder: one 10-bit peek resolves any code of
// length <= 10 directly (>99% of symbols in practice); longer codes indirect
// into a 32-entry second-level table selected by the 10-bit prefix.
class LutDecoder {
 public:
  static constexpr int kLutBits = 10;
  static constexpr int kSubBits = kMaxCodeLen - kLutBits;
  static constexpr size_t kSubSize = 1u << kSubBits;

  explicit LutDecoder(const std::vector<uint8_t>& lengths) {
    const std::vector<uint32_t> codes = CanonicalCodes(lengths);
    primary_.assign(1u << kLutBits, Entry{-1, 0, -1});
    for (size_t s = 0; s < lengths.size(); ++s) {
      const int len = lengths[s];
      if (len == 0) {
        continue;
      }
      const uint32_t rev = ReverseBits(codes[s], len);
      if (len <= kLutBits) {
        // Every index whose low `len` bits equal the reversed code decodes to s.
        for (uint32_t idx = rev; idx < primary_.size(); idx += 1u << len) {
          primary_[idx] = {static_cast<int16_t>(s), static_cast<uint8_t>(len), -1};
        }
      } else {
        const uint32_t prefix = rev & ((1u << kLutBits) - 1u);
        int sub = primary_[prefix].sub;
        if (sub < 0) {
          sub = static_cast<int>(sub_.size() / kSubSize);
          sub_.resize(sub_.size() + kSubSize, Entry{-1, 0, -1});
          primary_[prefix] = {-1, 0, static_cast<int16_t>(sub)};
        }
        const int rem = len - kLutBits;
        Entry* table = sub_.data() + static_cast<size_t>(sub) * kSubSize;
        for (uint32_t idx = rev >> kLutBits; idx < kSubSize; idx += 1u << rem) {
          table[idx] = {static_cast<int16_t>(s), static_cast<uint8_t>(len), -1};
        }
      }
    }
  }

  int Decode(BitReader& reader) const {
    Entry e = primary_[reader.Peek(kLutBits)];
    if (e.sub >= 0) {
      e = sub_[static_cast<size_t>(e.sub) * kSubSize +
               (reader.Peek(kMaxCodeLen) >> kLutBits)];
    }
    DZ_CHECK_GT(e.len, 0);  // unassigned entry ⇒ corrupt stream
    reader.Consume(e.len);
    return e.sym;
  }

 private:
  struct Entry {
    int16_t sym;
    uint8_t len;
    int16_t sub;  // >= 0: second-level table index
  };
  std::vector<Entry> primary_;
  std::vector<Entry> sub_;
};

// Bits are emitted MSB-first for canonical codes.
void PutCode(BitWriter& writer, uint32_t code, int len) {
  for (int i = len - 1; i >= 0; --i) {
    writer.Put((code >> i) & 1u, 1);
  }
}

// ---------------------------------------------------------------------------
// LZ77 with hash chains and one-step lazy matching
// ---------------------------------------------------------------------------

struct Token {
  bool is_match;
  uint8_t literal;
  int length;
  int distance;
};

uint32_t Hash4(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> 19;  // 13-bit hash
}

struct Match {
  int len = 0;
  int dist = 0;
};

// Hash-chain searcher over one chunk. Find() never inserts; InsertUpTo()
// registers positions exactly once, which keeps the chain sane when lazy
// evaluation revisits a position.
class ChainMatcher {
 public:
  ChainMatcher(const uint8_t* data, size_t n)
      : data_(data), n_(n), head_(kHashSize, -1), prev_(n, -1) {}

  void InsertUpTo(size_t p) {
    const size_t limit = n_ >= kMinMatch ? n_ - kMinMatch + 1 : 0;
    for (; next_insert_ < std::min(p, limit); ++next_insert_) {
      const uint32_t h = Hash4(data_ + next_insert_);
      prev_[next_insert_] = head_[h];
      head_[h] = static_cast<int>(next_insert_);
    }
    next_insert_ = std::max(next_insert_, std::min(p, n_));
  }

  Match Find(size_t i) const {
    Match best;
    if (i + kMinMatch > n_) {
      return best;
    }
    const int max_len = static_cast<int>(std::min<size_t>(kMaxMatch, n_ - i));
    const uint8_t* cur = data_ + i;
    int cand = head_[Hash4(cur)];
    int chain = 0;
    while (cand >= 0 && chain < kMaxChain &&
           static_cast<size_t>(cand) + kWindow > i) {
      const uint8_t* c = data_ + cand;
      // Cheap reject: a longer match must extend past the current best.
      if (best.len == 0 || c[best.len] == cur[best.len]) {
        const int len = static_cast<int>(
            match_len_(c, cur, static_cast<size_t>(max_len)));
        if (len >= kMinMatch && len > best.len) {
          best.len = len;
          best.dist = static_cast<int>(i) - cand;
          if (len == max_len || len >= kNiceLength) {
            break;
          }
        }
      }
      cand = prev_[static_cast<size_t>(cand)];
      ++chain;
    }
    return best;
  }

 private:
  static constexpr uint32_t kHashSize = 1 << 13;
  const uint8_t* data_;
  size_t n_;
  std::vector<int> head_;
  std::vector<int> prev_;
  size_t next_insert_ = 0;
  // Dispatched common-prefix scan (SIMD compare on the vector backends);
  // resolved once per matcher — Find runs per input position.
  size_t (*const match_len_)(const uint8_t*, const uint8_t*, size_t) =
      kernels::ActiveBackend().match_len;
};

std::vector<Token> Lz77Parse(const uint8_t* data, size_t n) {
  std::vector<Token> tokens;
  ChainMatcher matcher(data, n);
  size_t i = 0;
  while (i < n) {
    matcher.InsertUpTo(i);
    const Match cur = matcher.Find(i);
    if (cur.len >= kMinMatch && cur.len < kNiceLength && i + 1 < n) {
      // One-step lazy matching: when the next position hides a strictly longer
      // match, emit a literal and let it win.
      matcher.InsertUpTo(i + 1);
      const Match next = matcher.Find(i + 1);
      if (next.len > cur.len) {
        tokens.push_back({false, data[i], 0, 0});
        ++i;
        continue;
      }
    }
    if (cur.len >= kMinMatch) {
      tokens.push_back({true, 0, cur.len, cur.dist});
      i += static_cast<size_t>(cur.len);
    } else {
      tokens.push_back({false, data[i], 0, 0});
      ++i;
    }
  }
  return tokens;
}

void PutU32(ByteBuffer& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v & 0xFF));
  out.push_back(static_cast<uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<uint8_t>((v >> 24) & 0xFF));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

// ---------------------------------------------------------------------------
// Single-block format (the legacy whole-buffer layout, reused per chunk):
//   u32 original_size | 129 bytes of 4-bit code lengths | MSB-first bitstream
// ---------------------------------------------------------------------------

constexpr size_t kBlockHeader = 4 + kSymbols / 2;

void CompressBlock(const uint8_t* data, size_t n, ByteBuffer& out) {
  const std::vector<Token> tokens = Lz77Parse(data, n);

  std::vector<uint64_t> freq(static_cast<size_t>(kSymbols), 0);
  for (const Token& t : tokens) {
    ++freq[t.is_match ? kMatch : t.literal];
  }
  ++freq[kEob];
  const std::vector<uint8_t> lengths = BuildCodeLengths(freq);
  const std::vector<uint32_t> codes = CanonicalCodes(lengths);

  PutU32(out, static_cast<uint32_t>(n));
  // Header: 4-bit code lengths, two per byte.
  for (int s = 0; s < kSymbols; s += 2) {
    const uint8_t lo = lengths[static_cast<size_t>(s)];
    const uint8_t hi = s + 1 < kSymbols ? lengths[static_cast<size_t>(s + 1)] : 0;
    out.push_back(static_cast<uint8_t>(lo | (hi << 4)));
  }

  BitWriter writer;
  for (const Token& t : tokens) {
    if (t.is_match) {
      PutCode(writer, codes[kMatch], lengths[kMatch]);
      writer.Put(static_cast<uint32_t>(t.length - kMinMatch), 8);
      writer.Put(static_cast<uint32_t>(t.distance - 1), 15);
    } else {
      PutCode(writer, codes[t.literal], lengths[t.literal]);
    }
  }
  PutCode(writer, codes[kEob], lengths[kEob]);
  const ByteBuffer body = writer.Finish();
  out.insert(out.end(), body.begin(), body.end());
}

// Decodes one block into dst (which must hold the block's original size);
// returns the decoded byte count. Decoder is LutDecoder or HuffmanDecoder.
template <typename Decoder>
size_t DecompressBlockTo(const uint8_t* p, size_t size, uint8_t* dst) {
  DZ_CHECK_GE(size, kBlockHeader);
  const uint32_t original_size = GetU32(p);
  std::vector<uint8_t> lengths(static_cast<size_t>(kSymbols), 0);
  for (int s = 0; s < kSymbols; s += 2) {
    const uint8_t packed = p[4 + static_cast<size_t>(s / 2)];
    lengths[static_cast<size_t>(s)] = packed & 0x0F;
    if (s + 1 < kSymbols) {
      lengths[static_cast<size_t>(s + 1)] = packed >> 4;
    }
  }
  const Decoder decoder(lengths);
  BitReader reader(p + kBlockHeader, size - kBlockHeader);

  size_t w = 0;
  for (;;) {
    const int sym = decoder.Decode(reader);
    if (sym == kEob) {
      break;
    }
    if (sym == kMatch) {
      const int length = static_cast<int>(reader.Get(8)) + kMinMatch;
      const int distance = static_cast<int>(reader.Get(15)) + 1;
      DZ_CHECK_LE(static_cast<size_t>(distance), w);
      DZ_CHECK_LE(w + static_cast<size_t>(length), original_size);
      // Dispatched overlapped copy: chunked when distance allows, byte-exact
      // self-overlap replication otherwise.
      kernels::ActiveBackend().copy_match(dst + w,
                                          static_cast<size_t>(distance),
                                          static_cast<size_t>(length));
      w += static_cast<size_t>(length);
    } else {
      DZ_CHECK_LT(w, original_size);
      dst[w++] = static_cast<uint8_t>(sym);
    }
  }
  DZ_CHECK_EQ(w, original_size);
  return w;
}

// ---------------------------------------------------------------------------
// Chunk-framed container for parallel (de)compression:
//   u32 magic "DZGC" | u32 n_chunks | n_chunks x u32 compressed size | blocks
// Each block is an independent single-block stream (own window + code table),
// so chunks compress and decompress in parallel and in any order. Legacy
// whole-buffer streams are detected by the absence of the magic; a legacy
// header starts with the original size, at most kChunkSize, far below the
// magic value.
// ---------------------------------------------------------------------------

constexpr uint32_t kChunkMagic = 0x43475A44u;  // "DZGC" little-endian
// 256 KiB (8x the LZ window) keeps the density loss from per-chunk windows small
// while giving mid-sized tensor deltas enough chunks to spread across the pool.
constexpr size_t kChunkSize = 1u << 18;

template <typename Decoder>
ByteBuffer DecompressImpl(const ByteBuffer& compressed, bool parallel) {
  if (compressed.size() >= 8 && GetU32(compressed.data()) == kChunkMagic) {
    const size_t n_chunks = GetU32(compressed.data() + 4);
    const size_t header = 8 + 4 * n_chunks;
    DZ_CHECK_GE(compressed.size(), header);
    std::vector<size_t> in_off(n_chunks + 1, header);
    for (size_t c = 0; c < n_chunks; ++c) {
      in_off[c + 1] = in_off[c] + GetU32(compressed.data() + 8 + 4 * c);
    }
    DZ_CHECK_EQ(in_off[n_chunks], compressed.size());
    std::vector<size_t> out_off(n_chunks + 1, 0);
    for (size_t c = 0; c < n_chunks; ++c) {
      DZ_CHECK_GE(in_off[c + 1] - in_off[c], kBlockHeader);
      out_off[c + 1] = out_off[c] + GetU32(compressed.data() + in_off[c]);
    }
    ByteBuffer out(out_off[n_chunks]);
    const auto decode_chunk = [&](size_t c) {
      DecompressBlockTo<Decoder>(compressed.data() + in_off[c],
                                 in_off[c + 1] - in_off[c], out.data() + out_off[c]);
    };
    if (parallel && n_chunks > 1) {
      ThreadPool::Global().ForEachTask(n_chunks, decode_chunk);
    } else {
      for (size_t c = 0; c < n_chunks; ++c) {
        decode_chunk(c);
      }
    }
    return out;
  }
  // Legacy single-block stream.
  DZ_CHECK_GE(compressed.size(), kBlockHeader);
  ByteBuffer out(GetU32(compressed.data()));
  DecompressBlockTo<Decoder>(compressed.data(), compressed.size(), out.data());
  return out;
}

}  // namespace

ByteBuffer GdeflateCompress(const ByteBuffer& input) {
  if (input.size() <= kChunkSize) {
    ByteBuffer out;
    CompressBlock(input.data(), input.size(), out);
    return out;
  }
  const size_t n_chunks = (input.size() + kChunkSize - 1) / kChunkSize;
  std::vector<ByteBuffer> blobs(n_chunks);
  ThreadPool::Global().ForEachTask(n_chunks, [&](size_t c) {
    const size_t begin = c * kChunkSize;
    const size_t len = std::min(kChunkSize, input.size() - begin);
    CompressBlock(input.data() + begin, len, blobs[c]);
  });
  ByteBuffer out;
  PutU32(out, kChunkMagic);
  PutU32(out, static_cast<uint32_t>(n_chunks));
  for (const ByteBuffer& b : blobs) {
    PutU32(out, static_cast<uint32_t>(b.size()));
  }
  for (const ByteBuffer& b : blobs) {
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

ByteBuffer GdeflateDecompress(const ByteBuffer& compressed) {
  return DecompressImpl<LutDecoder>(compressed, /*parallel=*/true);
}

namespace internal {

ByteBuffer GdeflateDecompressReference(const ByteBuffer& compressed) {
  return DecompressImpl<HuffmanDecoder>(compressed, /*parallel=*/false);
}

}  // namespace internal

namespace {
constexpr uint8_t kRleEscape = 0xE5;
}  // namespace

ByteBuffer RleCompress(const ByteBuffer& input) {
  ByteBuffer out;
  PutU32(out, static_cast<uint32_t>(input.size()));
  size_t i = 0;
  while (i < input.size()) {
    const uint8_t b = input[i];
    size_t run = 1;
    while (i + run < input.size() && input[i + run] == b && run < 255) {
      ++run;
    }
    if (run >= 4 || b == kRleEscape) {
      out.push_back(kRleEscape);
      out.push_back(static_cast<uint8_t>(run));
      out.push_back(b);
      i += run;
    } else {
      out.push_back(b);
      ++i;
    }
  }
  return out;
}

ByteBuffer RleDecompress(const ByteBuffer& compressed) {
  DZ_CHECK_GE(compressed.size(), 4u);
  const uint32_t original_size = GetU32(compressed.data());
  ByteBuffer out;
  out.reserve(original_size);
  size_t i = 4;
  while (i < compressed.size()) {
    if (compressed[i] == kRleEscape) {
      DZ_CHECK_LE(i + 2, compressed.size() - 1);
      const uint8_t run = compressed[i + 1];
      const uint8_t b = compressed[i + 2];
      out.insert(out.end(), run, b);
      i += 3;
    } else {
      out.push_back(compressed[i]);
      ++i;
    }
  }
  DZ_CHECK_EQ(out.size(), original_size);
  return out;
}

double CompressionRatio(size_t input_bytes, size_t output_bytes) {
  if (output_bytes == 0) {
    return input_bytes == 0 ? 0.0
                            : std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(input_bytes) / static_cast<double>(output_bytes);
}

}  // namespace dz
