// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78), shared by the
// checkpoint format (file trailers) and the storage tier's page cache
// (per-page content baselines for dirty detection). Header-only, so
// neither user owns the symbol.
//
// Two implementations that produce identical values — a buffer
// checksummed on either path verifies on the other:
//  - crc32c_sw: slice-by-8 tables, for CPUs without SSE4.2;
//  - crc32c_hw: the x86 crc32 instruction, run as three interleaved
//    streams. The instruction has a latency of three cycles but a
//    throughput of one per cycle, so a single dependent chain uses a
//    third of the unit. The kernel cuts 3 x 8 KiB blocks (then 3 x 256 B
//    for the tail) into three independent streams, each starting from a
//    zero register, and merges them with Adler's zero-shift method: the
//    register after stream a followed by n bytes of stream b equals
//    shift_n(crc_a) ^ crc_b, where shift_n — appending n zero bytes — is
//    linear over GF(2) and so reduces to four byte-indexed lookup tables
//    per block size, built at compile time. Leftover 8-byte words and
//    bytes finish on the serial chain.
//
// crc32c_x3 sums three equal-length buffers at once, one chain each: no
// merge, so the instruction runs at full throughput at any length. The
// page cache hashes its pages three at a time with it; one call per
// 64 KiB page spends a quarter of the page in 3 x 256 B blocks and runs
// about 12% slower than one call over the whole region.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace hlsmpc::hls {

namespace crc_detail {

constexpr std::uint32_t kPoly = 0x82F63B78u;

/// One zero bit through the reflected CRC register.
constexpr std::uint32_t crc_bit(std::uint32_t c) {
  return (c >> 1) ^ ((c & 1u) != 0 ? kPoly : 0u);
}

/// Slice-by-8 tables: table[0] is the classic byte table, table[k] shifts
/// it k extra bytes so eight lookups retire eight input bytes.
inline constexpr auto kSliceTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = crc_bit(c);
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = t[0][i];
    for (std::size_t k = 1; k < 8; ++k) {
      c = t[0][c & 0xffu] ^ (c >> 8);
      t[k][i] = c;
    }
  }
  return t;
}();

/// Software CRC-32C over the slice-by-8 tables.
inline std::uint32_t crc32c_sw(const unsigned char* p, std::size_t bytes,
                               std::uint32_t crc) {
  const auto& tables = kSliceTables;
  while (bytes >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = tables[7][lo & 0xffu] ^ tables[6][(lo >> 8) & 0xffu] ^
          tables[5][(lo >> 16) & 0xffu] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xffu] ^ tables[2][(hi >> 8) & 0xffu] ^
          tables[1][(hi >> 16) & 0xffu] ^ tables[0][hi >> 24];
    p += 8;
    bytes -= 8;
  }
  while (bytes-- > 0) {
    crc = tables[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__) && defined(__GNUC__)
/// A 32x32 matrix over GF(2), column n = the image of bit n.
using Gf2Matrix = std::array<std::uint32_t, 32>;

constexpr std::uint32_t gf2_times(const Gf2Matrix& m, std::uint32_t v) {
  std::uint32_t sum = 0;
  for (std::size_t n = 0; v != 0; v >>= 1, ++n) {
    if ((v & 1u) != 0) sum ^= m[n];
  }
  return sum;
}

/// The operator "append `len` zero bytes" on a raw CRC register, as four
/// byte-indexed tables, built at compile time. `len` must be a power of
/// two.
class ZeroShift {
 public:
  explicit constexpr ZeroShift(std::size_t len) {
    Gf2Matrix op{};  // one zero byte: eight steps of the bitwise CRC
    for (std::size_t n = 0; n < 32; ++n) {
      std::uint32_t c = 1u << n;
      for (int bit = 0; bit < 8; ++bit) c = crc_bit(c);
      op[n] = c;
    }
    for (std::size_t l = 1; l < len; l <<= 1) {  // square: 2l zero bytes
      Gf2Matrix sq{};
      for (std::size_t n = 0; n < 32; ++n) sq[n] = gf2_times(op, op[n]);
      op = sq;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (std::size_t k = 0; k < 4; ++k) {
        t_[k][i] = gf2_times(op, i << (8 * k));
      }
    }
  }

  std::uint32_t operator()(std::uint32_t crc) const {
    return t_[0][crc & 0xffu] ^ t_[1][(crc >> 8) & 0xffu] ^
           t_[2][(crc >> 16) & 0xffu] ^ t_[3][crc >> 24];
  }

 private:
  std::array<std::array<std::uint32_t, 256>, 4> t_{};
};

constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;
inline constexpr ZeroShift kLongShift(kLongBlock);
inline constexpr ZeroShift kShortShift(kShortBlock);

inline std::uint64_t load64(const unsigned char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}

/// Consume whole 3 x kBlock chunks of [p, p + bytes): three independent
/// crc32 chains over the chunk's thirds, merged by two zero shifts.
template <std::size_t kBlock>
__attribute__((target("sse4.2"))) inline std::uint64_t crc32c_3way(
    const unsigned char*& p, std::size_t& bytes, std::uint64_t c0,
    const ZeroShift& shift) {
  while (bytes >= 3 * kBlock) {
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < kBlock; i += 8) {
      c0 = __builtin_ia32_crc32di(c0, load64(p + i));
      c1 = __builtin_ia32_crc32di(c1, load64(p + kBlock + i));
      c2 = __builtin_ia32_crc32di(c2, load64(p + 2 * kBlock + i));
    }
    c0 = shift(static_cast<std::uint32_t>(c0)) ^ c1;
    c0 = shift(static_cast<std::uint32_t>(c0)) ^ c2;
    p += 3 * kBlock;
    bytes -= 3 * kBlock;
  }
  return c0;
}

/// Hardware CRC-32C via SSE4.2 (the instruction implements exactly the
/// Castagnoli polynomial, so the value matches crc32c_sw bit for bit).
__attribute__((target("sse4.2"))) inline std::uint32_t crc32c_hw(
    const unsigned char* p, std::size_t bytes, std::uint32_t crc) {
  std::uint64_t c = crc;
  c = crc32c_3way<kLongBlock>(p, bytes, c, kLongShift);
  c = crc32c_3way<kShortBlock>(p, bytes, c, kShortShift);
  while (bytes >= 8) {
    c = __builtin_ia32_crc32di(c, load64(p));
    p += 8;
    bytes -= 8;
  }
  std::uint32_t c32 = static_cast<std::uint32_t>(c);
  while (bytes-- > 0) {
    c32 = __builtin_ia32_crc32qi(c32, *p++);
  }
  return c32;
}

/// Three independent crc32 chains, one per buffer.
__attribute__((target("sse4.2"))) inline void crc32c_hw_x3(
    const unsigned char* const p[3], std::size_t bytes, std::uint32_t crc[3]) {
  std::uint64_t c0 = crc[0];
  std::uint64_t c1 = crc[1];
  std::uint64_t c2 = crc[2];
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    c0 = __builtin_ia32_crc32di(c0, load64(p[0] + i));
    c1 = __builtin_ia32_crc32di(c1, load64(p[1] + i));
    c2 = __builtin_ia32_crc32di(c2, load64(p[2] + i));
  }
  crc[0] = static_cast<std::uint32_t>(c0);
  crc[1] = static_cast<std::uint32_t>(c1);
  crc[2] = static_cast<std::uint32_t>(c2);
  for (; i < bytes; ++i) {
    for (int k = 0; k < 3; ++k) crc[k] = __builtin_ia32_crc32qi(crc[k], p[k][i]);
  }
}

inline bool have_sse42() {
  static const bool have = __builtin_cpu_supports("sse4.2");
  return have;
}
#endif

}  // namespace crc_detail

/// `seed` chains incremental updates (pass the previous return value; 0
/// starts a fresh sum).
inline std::uint32_t crc32c(const void* data, std::size_t bytes,
                            std::uint32_t seed = 0) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const std::uint32_t crc = ~seed;
#if defined(__x86_64__) && defined(__GNUC__)
  if (crc_detail::have_sse42()) return ~crc_detail::crc32c_hw(p, bytes, crc);
#endif
  return ~crc_detail::crc32c_sw(p, bytes, crc);
}

/// crc32c() of each of the three `bytes`-long buffers p[k], into out[k].
inline void crc32c_x3(const unsigned char* const p[3], std::size_t bytes,
                      std::uint32_t out[3]) {
#if defined(__x86_64__) && defined(__GNUC__)
  if (crc_detail::have_sse42()) {
    std::uint32_t c[3] = {~0u, ~0u, ~0u};
    crc_detail::crc32c_hw_x3(p, bytes, c);
    for (int k = 0; k < 3; ++k) out[k] = ~c[k];
    return;
  }
#endif
  for (int k = 0; k < 3; ++k) out[k] = crc32c(p[k], bytes);
}

}  // namespace hlsmpc::hls
