#pragma once

// Encoded column storage for sealed segments (docs/STORAGE.md "Columnar
// layout"). A sealed segment's columns are immutable, so sealing is the one
// moment a column can be re-laid-out for free: EncodedColumn::Encode takes
// the plain values and keeps the cheapest of four physical encodings,
// chosen purely by byte count:
//
//   kPlain  n * sizeof(T)                      (the vector moves in, no copy)
//   kDict   distinct * sizeof(T) + n * width   (width = 1/2/4-byte codes)
//   kRle    runs * (sizeof(T) + 4)             (run values + exclusive ends)
//   kFor    sizeof(T) + n * width              (base = min, width-byte deltas)
//
// kFor (frame of reference) stores the column minimum once and each value as
// an unsigned delta from it, packed to 1/2/4 bytes by the value range; a
// range of 2^32 or more disqualifies it. A non-plain encoding is kept only
// when it is strictly smaller, so encoding never inflates a segment. Cold
// reduced data is where this pays: a date-sorted retail fact stream
// RLE-compresses its day column to almost nothing, dictionary-packs
// low-cardinality scattered columns, and delta-packs dense-range measures
// (counts, cents, ids) to 1-4 bytes per row against 8 plain.
//
// Encoding is physical only. Decode(begin, end) reproduces the original
// values bit-for-bit in the original order, so logical row order, ToMO /
// snapshot / digest bytes, and every query result are byte-identical whether
// or not a segment is encoded — the same "layout is not serialized" contract
// as the PR-4 segment manifest.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/check.h"

namespace dwred::storage {

/// Physical layout of one sealed column.
enum class ColEncoding : uint8_t { kPlain, kDict, kRle, kFor };

/// "plain" / "dict" / "rle" / "for" — dwredctl storage and tests.
const char* EncodingName(ColEncoding e);

/// One immutable encoded column of a sealed segment. T is ValueId for
/// dimension columns and int64_t for measure columns.
template <typename T>
class EncodedColumn {
 public:
  EncodedColumn() = default;

  /// Encodes `data`, consuming it (the plain choice moves the vector in
  /// whole, so "no encoding wins" costs nothing).
  static EncodedColumn Encode(std::vector<T>&& data) {
    EncodedColumn c;
    c.n_ = data.size();
    if (c.n_ == 0) {
      data.clear();
      return c;
    }

    // One pass: first-occurrence dictionary + run count + value range.
    std::unordered_map<T, uint32_t> dict;
    dict.reserve(64);
    size_t runs = 1;
    T minv = data[0], maxv = data[0];
    for (size_t i = 0; i < data.size(); ++i) {
      dict.emplace(data[i], static_cast<uint32_t>(dict.size()));
      if (i > 0 && data[i] != data[i - 1]) ++runs;
      minv = std::min(minv, data[i]);
      maxv = std::max(maxv, data[i]);
    }
    const size_t distinct = dict.size();
    const size_t plain_bytes = c.n_ * sizeof(T);
    const uint8_t width = distinct <= (1u << 8)    ? 1
                          : distinct <= (1u << 16) ? 2
                                                   : 4;
    const size_t dict_bytes = distinct * sizeof(T) + c.n_ * width;
    const size_t rle_bytes = runs * (sizeof(T) + sizeof(uint32_t));
    // Unsigned wraparound gives the true max-min difference for signed T too.
    const uint64_t range =
        static_cast<uint64_t>(maxv) - static_cast<uint64_t>(minv);
    const uint8_t fwidth = range < (1u << 8)      ? 1
                           : range < (1u << 16)   ? 2
                           : range < (1ull << 32) ? 4
                                                  : 0;
    const size_t for_bytes = fwidth == 0 ? static_cast<size_t>(-1)
                                         : sizeof(T) + c.n_ * fwidth;

    if (rle_bytes < plain_bytes && rle_bytes <= dict_bytes &&
        rle_bytes <= for_bytes) {
      c.enc_ = ColEncoding::kRle;
      c.values_.reserve(runs);
      c.run_ends_.reserve(runs);
      for (size_t i = 0; i < data.size(); ++i) {
        if (i == 0 || data[i] != data[i - 1]) {
          if (i > 0) c.run_ends_.push_back(static_cast<uint32_t>(i));
          c.values_.push_back(data[i]);
        }
      }
      c.run_ends_.push_back(static_cast<uint32_t>(data.size()));
      data.clear();
      data.shrink_to_fit();
      return c;
    }
    if (dict_bytes < plain_bytes && dict_bytes <= for_bytes) {
      c.enc_ = ColEncoding::kDict;
      c.code_width_ = width;
      // First-occurrence code order keeps the dictionary deterministic.
      c.values_.resize(distinct);
      for (const auto& [v, code] : dict) c.values_[code] = v;
      c.codes_.resize(c.n_ * width);
      uint8_t* out = c.codes_.data();
      for (size_t i = 0; i < data.size(); ++i, out += width) {
        const uint32_t code = dict.find(data[i])->second;
        std::memcpy(out, &code, width);  // little-endian prefix
      }
      data.clear();
      data.shrink_to_fit();
      return c;
    }
    if (for_bytes < plain_bytes) {
      c.enc_ = ColEncoding::kFor;
      c.code_width_ = fwidth;
      c.values_ = {minv};  // the base rides in values_ so byte accounting
                           // and moves need no extra field
      c.codes_.resize(c.n_ * fwidth);
      uint8_t* out = c.codes_.data();
      const uint64_t base = static_cast<uint64_t>(minv);
      for (size_t i = 0; i < data.size(); ++i, out += fwidth) {
        const uint64_t delta = static_cast<uint64_t>(data[i]) - base;
        const uint32_t d32 = static_cast<uint32_t>(delta);
        std::memcpy(out, &d32, fwidth);  // little-endian prefix
      }
      data.clear();
      data.shrink_to_fit();
      return c;
    }
    c.enc_ = ColEncoding::kPlain;
    data.shrink_to_fit();
    c.values_ = std::move(data);
    return c;
  }

  ColEncoding encoding() const { return enc_; }
  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Random access — O(1) for plain/dict, O(log runs) for RLE. Hot paths
  /// should Decode() ranges instead.
  T At(size_t i) const {
    DWRED_CHECK(i < n_);
    switch (enc_) {
      case ColEncoding::kPlain:
        return values_[i];
      case ColEncoding::kDict:
        return values_[CodeAt(i)];
      case ColEncoding::kRle: {
        const size_t run = static_cast<size_t>(
            std::upper_bound(run_ends_.begin(), run_ends_.end(),
                             static_cast<uint32_t>(i)) -
            run_ends_.begin());
        return values_[run];
      }
      case ColEncoding::kFor:
        return static_cast<T>(static_cast<uint64_t>(values_[0]) + CodeAt(i));
    }
    return T{};
  }

  /// Writes the values of [begin, end) into `out`, bit-identical to the
  /// encoded input. Linear in the range length. This is the scan hot loop —
  /// the dict case is specialized per code width so each variant is a tight
  /// vectorizable gather instead of a per-element variable-width memcpy.
  void Decode(size_t begin, size_t end, T* out) const {
    DWRED_CHECK(begin <= end && end <= n_);
    switch (enc_) {
      case ColEncoding::kPlain:
        // An empty column's data() may be null, and memcpy from null is
        // undefined even for zero bytes.
        if (end > begin) {
          std::memcpy(out, values_.data() + begin, (end - begin) * sizeof(T));
        }
        return;
      case ColEncoding::kDict: {
        const T* dict = values_.data();
        const size_t n = end - begin;
        switch (code_width_) {
          case 1: {
            const uint8_t* c = codes_.data() + begin;
            for (size_t i = 0; i < n; ++i) out[i] = dict[c[i]];
            return;
          }
          case 2: {
            const uint8_t* c = codes_.data() + begin * 2;
            for (size_t i = 0; i < n; ++i) {
              uint16_t code;
              std::memcpy(&code, c + i * 2, 2);
              out[i] = dict[code];
            }
            return;
          }
          default: {
            const uint8_t* c = codes_.data() + begin * 4;
            for (size_t i = 0; i < n; ++i) {
              uint32_t code;
              std::memcpy(&code, c + i * 4, 4);
              out[i] = dict[code];
            }
            return;
          }
        }
      }
      case ColEncoding::kRle: {
        size_t run = static_cast<size_t>(
            std::upper_bound(run_ends_.begin(), run_ends_.end(),
                             static_cast<uint32_t>(begin)) -
            run_ends_.begin());
        for (size_t i = begin; i < end; ++run) {
          const size_t stop = std::min<size_t>(end, run_ends_[run]);
          std::fill_n(out, stop - i, values_[run]);
          out += stop - i;
          i = stop;
        }
        return;
      }
      case ColEncoding::kFor: {
        const uint64_t base = static_cast<uint64_t>(values_[0]);
        const size_t n = end - begin;
        switch (code_width_) {
          case 1: {
            const uint8_t* c = codes_.data() + begin;
            for (size_t i = 0; i < n; ++i) {
              out[i] = static_cast<T>(base + c[i]);
            }
            return;
          }
          case 2: {
            const uint8_t* c = codes_.data() + begin * 2;
            for (size_t i = 0; i < n; ++i) {
              uint16_t delta;
              std::memcpy(&delta, c + i * 2, 2);
              out[i] = static_cast<T>(base + delta);
            }
            return;
          }
          default: {
            const uint8_t* c = codes_.data() + begin * 4;
            for (size_t i = 0; i < n; ++i) {
              uint32_t delta;
              std::memcpy(&delta, c + i * 4, 4);
              out[i] = static_cast<T>(base + delta);
            }
            return;
          }
        }
      }
    }
  }

  /// Zero-copy view when the column kept the plain layout; null otherwise.
  const T* PlainData() const {
    return enc_ == ColEncoding::kPlain ? values_.data() : nullptr;
  }

  /// Encoded payload bytes actually holding data (the resident footprint the
  /// dwred_storage_bytes_columnar gauge reports).
  size_t DataBytes() const {
    return values_.size() * sizeof(T) + codes_.size() +
           run_ends_.size() * sizeof(uint32_t);
  }

  /// Capacity-based footprint for cache/memory budgets (the PR-8 rule:
  /// budgets count capacity, not size).
  size_t ApproxBytes() const {
    return sizeof(EncodedColumn) + values_.capacity() * sizeof(T) +
           codes_.capacity() + run_ends_.capacity() * sizeof(uint32_t);
  }

 private:
  uint32_t CodeAt(size_t i) const {
    uint32_t code = 0;
    std::memcpy(&code, codes_.data() + i * code_width_, code_width_);
    return code;
  }

  ColEncoding enc_ = ColEncoding::kPlain;
  uint8_t code_width_ = 0;  ///< dict codes / FOR deltas: bytes each (1/2/4)
  size_t n_ = 0;
  /// plain data | dictionary | run values | {FOR base}
  std::vector<T> values_;
  std::vector<uint8_t> codes_;      ///< dict codes or FOR deltas, LE prefix
  std::vector<uint32_t> run_ends_;  ///< RLE: exclusive end row of each run
};

}  // namespace dwred::storage
